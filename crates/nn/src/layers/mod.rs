//! Neural-network layers built on the autograd tape.

mod attention;
mod embedding;
pub(crate) mod gru;
mod linear;

pub use attention::DotAttention;
pub use embedding::Embedding;
pub use gru::{Gru, GruCell};
pub use linear::Linear;
