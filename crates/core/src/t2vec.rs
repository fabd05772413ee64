//! The `t2vec + k-means` baseline (paper §II-B, §VII-A).
//!
//! t2vec (Li et al., ICDE 2018) is the pre-training half of E²DTC: the
//! same corrupt-and-reconstruct seq2seq with the spatial loss, but *no*
//! joint clustering — representations are frozen after pre-training and a
//! separate k-means pass clusters them. In this codebase that is exactly
//! [`LossMode::L0`], so the baseline is a thin wrapper that also serves as
//! the Table IV `L0` ablation.

use crate::config::{E2dtcConfig, LossMode};
use crate::model::{E2dtc, FitResult};
use traj_data::Dataset;

/// Trains a t2vec-style embedding on `dataset` and clusters it with
/// k-means. `cfg`'s loss mode is overridden to [`LossMode::L0`].
pub fn t2vec_kmeans(dataset: &Dataset, cfg: E2dtcConfig) -> FitResult {
    let mut model = E2dtc::new(dataset, cfg.with_loss_mode(LossMode::L0));
    model.fit(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_data::SynthSpec;

    #[test]
    fn baseline_produces_valid_clustering() {
        let mut spec = SynthSpec::hangzhou_like(30, 5);
        spec.num_clusters = 3;
        spec.len_range = (8, 14);
        spec.outlier_fraction = 0.0;
        let city = spec.generate();
        let fit = t2vec_kmeans(&city.dataset, E2dtcConfig::tiny(3));
        assert_eq!(fit.assignments.len(), 30);
        assert!(fit.assignments.iter().all(|&c| c < 3));
        // k-means produced k centroids.
        assert_eq!(fit.centroids.len() % fit.embed_dim, 0);
        assert_eq!(fit.centroids.len() / fit.embed_dim, 3);
    }
}
