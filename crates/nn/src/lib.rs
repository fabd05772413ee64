//! # traj-nn — minimal deep-learning substrate for E²DTC
//!
//! The E²DTC paper trains a seq2seq GRU autoencoder jointly with a
//! DEC-style clustering head. The original implementation sits on
//! PyTorch + CUDA; this crate is the from-scratch CPU substitute: a dense
//! 2-D [`Tensor`], a tape-based reverse-mode autodiff engine
//! ([`tape::Tape`]), the layers the paper needs ([`layers::Embedding`],
//! [`layers::Linear`], multi-layer [`layers::Gru`]), the three specialized
//! loss ops (spatial-proximity-aware softmax NLL — Eq. 8, one node with the
//! vocabulary projection; DEC KL clustering loss — Eqs. 9–11; triplet
//! margin loss — Eq. 13), and the paper's exact
//! optimizer recipe ([`optim::Adam`] with lr 1e-4 and global-norm-5
//! clipping).
//!
//! Everything is deterministic given a seeded `rand::Rng`, and every op's
//! backward pass is validated against central finite differences in
//! `tests/gradient_checks.rs`.
//!
//! ```
//! use traj_nn::{ParamStore, Tape, Tensor, layers::Linear, optim::Adam};
//! use rand::{SeedableRng, rngs::StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut store = ParamStore::new();
//! let layer = Linear::new(&mut store, "fc", 2, 2, &mut rng);
//! let mut opt = Adam::new(0.05);
//!
//! // Learn to pick the larger coordinate: a one-hot softmax NLL (Eq. 8
//! // with α → 0) over the layer's two outputs.
//! let x = Tensor::from_rows(&[vec![1.0, 0.2], vec![0.1, 0.9]]);
//! let targets = vec![vec![(0, 1.0)], vec![(1, 1.0)]];
//! let mut last = f32::INFINITY;
//! for _ in 0..200 {
//!     let mut tape = Tape::new();
//!     let xv = tape.constant(x.clone());
//!     let loss = layer.softmax_nll(&mut tape, &store, xv, None, targets.clone());
//!     last = tape.value(loss).get(0, 0);
//!     tape.backward(loss, &mut store);
//!     opt.step(&mut store);
//! }
//! assert!(last < 0.1, "loss {last}");
//! ```

#![warn(missing_docs)]
// Parallel-array index loops are idiomatic in the numeric kernels here;
// iterator-zip rewrites obscure them.
#![allow(clippy::needless_range_loop)]

pub mod gradcheck;
pub mod guard;
pub mod infer;
pub mod init;
pub mod layers;
pub mod optim;
pub mod params;
pub mod tape;
pub mod telemetry;
pub mod tensor;

pub use guard::{GuardVerdict, NonFiniteGuard};
pub use infer::Scratch;
pub use params::{ParamId, ParamStore};
pub use tape::{student_t_assignment, target_distribution, Tape, Var};
pub use tensor::Tensor;
