//! # traj-dist — classical trajectory distance metrics
//!
//! The raw-trajectory distance functions the E²DTC paper compares against
//! (§I, §VII-A): point-based [`edr`] and [`lcss`], warping-based [`dtw`],
//! and shape-based [`hausdorff`] — plus a rayon-parallel
//! [`matrix::DistanceMatrix`] for the O(n²) pairwise computation the
//! K-Medoids baselines require.
//!
//! Every kernel runs on [`project::ProjectedTraj`]: trajectories
//! projected **once** into flat meter buffers under an equirectangular
//! frame anchored at the dataset mean latitude (validated against
//! haversine in `traj-data`), so the O(L²) DP inner loops are trig-free.
//! [`Metric::distance_projected`] is the one dispatch every caller goes
//! through.

#![warn(missing_docs)]

pub mod dtw;
pub mod edr;
pub mod hausdorff;
pub mod lcss;
pub mod matrix;
pub mod metric;
pub mod project;
pub mod telemetry;

pub use matrix::DistanceMatrix;
pub use metric::Metric;
pub use project::ProjectedTraj;
