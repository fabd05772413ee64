//! # traj-data — trajectory data substrate for E²DTC
//!
//! Everything the E²DTC pipeline needs *before* a neural network enters the
//! picture:
//!
//! - the raw data model ([`GpsPoint`], [`Trajectory`], [`Dataset`],
//!   [`LabeledDataset`]) — paper §IV;
//! - spatial [`grid::Grid`] discretization into a token vocabulary
//!   (300 m cells by default) — paper §V-B;
//! - the t2vec-style corruption augmentation (drop rate `r1`, distortion
//!   rate `r2`) in [`augment`] — paper §V-C;
//! - synthetic city generators emulating the statistics of the paper's
//!   GeoLife / Porto / Hangzhou datasets in [`synth`] (the datasets
//!   themselves are proprietary or unavailable; see DESIGN.md for the
//!   substitution argument);
//! - the ground-truth labelling Algorithm 2 in [`ground_truth`] — §VI;
//! - Table II / Table V statistics in [`stats`] and JSON I/O in [`io`].

#![warn(missing_docs)]

pub mod augment;
pub mod grid;
pub mod ground_truth;
pub mod io;
pub mod point;
pub mod projection;
pub mod stats;
pub mod synth;
pub mod trajectory;

pub use grid::Grid;
pub use ground_truth::{generate_ground_truth, GroundTruthConfig};
pub use point::GpsPoint;
pub use projection::Projector;
pub use synth::{GeneratedCity, SynthSpec};
pub use trajectory::{Dataset, LabeledDataset, Trajectory};
