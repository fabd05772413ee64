//! Neural-network layers built on the autograd tape.

mod embedding;
pub(crate) mod gru;
mod linear;

pub use embedding::Embedding;
pub use gru::{Gru, GruCell};
pub use linear::Linear;
