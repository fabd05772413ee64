//! # traj-cluster — clustering algorithms and quality metrics
//!
//! The classical clustering substrate of the E²DTC reproduction:
//!
//! - [`kmeans()`]: Lloyd's algorithm with k-means++ seeding — used to
//!   initialize the self-training centroids (§V-C) and as the second stage
//!   of the `t2vec + k-means` baseline;
//! - [`kmedoids()`]: PAM over a precomputed distance matrix — the paper's
//!   classic `<metric> + KM` baselines (§VII-A);
//! - [`hungarian`]: Kuhn–Munkres optimal assignment, needed by UACC;
//! - [`metrics`]: UACC / NMI / Rand-index (Eqs. 15–17) plus the silhouette
//!   coefficient used to quantify the paper's t-SNE separation figures;
//! - [`elbow`]: the `E_k` curve and elbow detection of §VII-G (Fig. 6a).

#![warn(missing_docs)]
// Parallel-array index loops are idiomatic in the numeric kernels here;
// iterator-zip rewrites obscure them.
#![allow(clippy::needless_range_loop)]

pub mod elbow;
pub mod hungarian;
pub mod kmeans;
pub mod kmedoids;
pub mod metrics;
pub mod points;

pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
pub use kmedoids::{kmedoids, kmedoids_alternating, KMedoidsConfig, KMedoidsResult};
pub use metrics::{nmi, rand_index, silhouette, uacc};
pub use points::Points;
