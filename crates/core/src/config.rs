//! Configuration of the E²DTC pipeline.

use serde::{Deserialize, Serialize};
use traj_data::augment::AugmentConfig;

/// Which terms of the joint loss (Eq. 14) are active — the paper's
/// ablation axes (Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LossMode {
    /// `L₀` — reconstruction loss only (pre-training objective, Eq. 8);
    /// clustering is plain k-means on the frozen embeddings.
    L0,
    /// `L₁` — `L_r + β·L_c` (Eq. 12): adds the DEC clustering loss.
    L1,
    /// `L₂` — `L_r + β·L_c + γ·L_t` (Eq. 14): the full E²DTC objective
    /// with the triplet loss.
    L2,
}

impl LossMode {
    /// Display name matching Table IV.
    pub fn name(self) -> &'static str {
        match self {
            LossMode::L0 => "L0",
            LossMode::L1 => "L1",
            LossMode::L2 => "L2",
        }
    }
}

/// Skip-gram cell-embedding hyper-parameters (paper §V-B, Eq. 7).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SkipGramConfig {
    /// Context window `c` (neighbor cells on each side).
    pub window: usize,
    /// Negative samples per positive.
    pub negatives: usize,
    /// Training epochs over all token sequences.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
}

impl Default for SkipGramConfig {
    fn default() -> Self {
        Self { window: 3, negatives: 5, epochs: 3, lr: 0.025 }
    }
}

/// Full E²DTC configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct E2dtcConfig {
    /// Number of clusters `k`.
    pub k_clusters: usize,
    /// Spatial grid cell side, meters (paper default 300 m).
    pub cell_meters: f64,
    /// Token-embedding dimensionality.
    pub embed_dim: usize,
    /// GRU hidden size (= trajectory representation dimensionality).
    pub hidden_dim: usize,
    /// Stacked GRU layers (paper uses 3).
    pub layers: usize,
    /// Neighbourhood size of the spatial-proximity loss (Eq. 8's kNN
    /// restriction of the vocabulary, including the target cell itself).
    pub knn_k: usize,
    /// Temperature `α` of the cell weights in Eq. 8, in units of
    /// cell-embedding distance. `α → 0` degrades to plain NLL.
    pub alpha: f32,
    /// Clustering-loss weight `β`.
    pub beta: f32,
    /// Triplet-loss weight `γ`.
    pub gamma: f32,
    /// Triplet margin (Eq. 13's `α`; renamed to avoid the collision the
    /// paper's notation has).
    pub triplet_margin: f32,
    /// Pre-training epochs (`MaxIter₁`).
    pub pretrain_epochs: usize,
    /// Self-training epochs (`MaxIter₂`).
    pub selftrain_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate (paper: 1e-4; scaled runs benefit from more).
    pub lr: f32,
    /// Learning-rate multiplier applied during self-training. The paper
    /// trains throughout at 1e-4, where representation drift is
    /// negligible; scaled-up learning rates need annealing in the
    /// fine-tuning phase or continued reconstruction training erodes the
    /// pre-trained representation faster than the clustering loss can
    /// shape it.
    pub selftrain_lr_scale: f32,
    /// Global gradient-norm clip (paper: 5).
    pub max_grad_norm: f32,
    /// Stop threshold `δ`: stop self-training when the fraction of
    /// trajectories changing cluster falls to or below this.
    pub delta: f64,
    /// Hard cap on token-sequence length (longer sequences are uniformly
    /// subsampled).
    pub max_seq_len: usize,
    /// Corruption augmentation used in pre-training and as the triplet
    /// positive generator.
    pub augment: AugmentConfig,
    /// Skip-gram settings for the cell-embedding phase.
    pub skipgram: SkipGramConfig,
    /// Active loss terms.
    pub loss_mode: LossMode,
    /// Adds Luong dot-product attention to the decoder (extension beyond
    /// the paper; see `traj_nn::layers::DotAttention`).
    pub attention: bool,
    /// Write a training checkpoint every this many completed epochs
    /// (counting across both phases); `0` disables periodic
    /// checkpointing. Requires [`E2dtcConfig::checkpoint_dir`].
    pub checkpoint_every: usize,
    /// Directory that receives `ckpt-<epoch>.json` training checkpoints;
    /// `None` disables periodic checkpointing.
    pub checkpoint_dir: Option<String>,
    /// Keep only the newest N periodic checkpoints (`0` = keep all).
    /// Keeping at least 2 lets `E2dtc::resume` fall back to the previous
    /// snapshot when the newest file is torn by a crash mid-write.
    pub checkpoint_keep_last: usize,
    /// Consecutive non-finite (NaN/Inf) batches tolerated before training
    /// rolls back to the start-of-epoch parameter snapshot with a
    /// learning-rate backoff; `0` disables rollback (poisoned updates are
    /// still skipped).
    pub guard_patience: usize,
    /// Multiplier applied to the learning rate on each guard rollback.
    pub guard_lr_backoff: f32,
    /// Master RNG seed.
    pub seed: u64,
}

impl E2dtcConfig {
    /// The paper's training parameters (§VII-B): 300 m cells, 3 GRU
    /// layers, Adam @ 1e-4, gradient clip 5, 16 augmentation pairs.
    /// Model width is set to 256 (typical for t2vec-style models; the
    /// paper does not state it).
    pub fn paper(k_clusters: usize) -> Self {
        Self {
            k_clusters,
            cell_meters: 300.0,
            embed_dim: 256,
            hidden_dim: 256,
            layers: 3,
            knn_k: 20,
            alpha: 1.0,
            beta: 2.0,
            gamma: 1.0,
            triplet_margin: 5.0,
            pretrain_epochs: 10,
            selftrain_epochs: 500,
            batch_size: 64,
            lr: 1e-4,
            selftrain_lr_scale: 1.0,
            max_grad_norm: 5.0,
            delta: 0.001,
            max_seq_len: 100,
            augment: AugmentConfig::default(),
            skipgram: SkipGramConfig::default(),
            loss_mode: LossMode::L2,
            attention: false,
            checkpoint_every: 0,
            checkpoint_dir: None,
            checkpoint_keep_last: 2,
            guard_patience: 3,
            guard_lr_backoff: 0.5,
            seed: 0,
        }
    }

    /// CPU-scale configuration used by the experiment harness: same
    /// architecture shape (multi-layer GRU, all three losses), smaller
    /// widths and epoch counts.
    pub fn fast(k_clusters: usize) -> Self {
        Self {
            k_clusters,
            cell_meters: 300.0,
            embed_dim: 32,
            hidden_dim: 48,
            layers: 2,
            knn_k: 9,
            alpha: 1.0,
            beta: 2.0,
            gamma: 1.0,
            triplet_margin: 5.0,
            pretrain_epochs: 3,
            selftrain_epochs: 10,
            batch_size: 32,
            lr: 2e-3,
            selftrain_lr_scale: 0.5,
            max_grad_norm: 5.0,
            delta: 0.003,
            max_seq_len: 48,
            augment: AugmentConfig::light(),
            skipgram: SkipGramConfig { window: 5, epochs: 8, ..Default::default() },
            loss_mode: LossMode::L2,
            attention: false,
            checkpoint_every: 0,
            checkpoint_dir: None,
            checkpoint_keep_last: 2,
            guard_patience: 3,
            guard_lr_backoff: 0.5,
            seed: 0,
        }
    }

    /// Tiny configuration for unit/integration tests (seconds, not
    /// minutes).
    pub fn tiny(k_clusters: usize) -> Self {
        Self {
            embed_dim: 16,
            hidden_dim: 24,
            layers: 1,
            pretrain_epochs: 3,
            selftrain_epochs: 3,
            batch_size: 16,
            max_seq_len: 24,
            // The skip-gram stage is cheap and its quality gates the whole
            // pipeline; keep it strong even in the test preset.
            skipgram: SkipGramConfig { window: 5, epochs: 6, ..Default::default() },
            ..Self::fast(k_clusters)
        }
    }

    /// Returns a copy with a different loss mode (Table IV ablations).
    pub fn with_loss_mode(mut self, mode: LossMode) -> Self {
        self.loss_mode = mode;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with periodic checkpointing enabled: a training
    /// snapshot lands in `dir` after every `every` completed epochs.
    pub fn with_checkpointing(mut self, dir: impl Into<String>, every: usize) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self.checkpoint_every = every.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_section_vii_b() {
        let cfg = E2dtcConfig::paper(7);
        assert_eq!(cfg.cell_meters, 300.0);
        assert_eq!(cfg.layers, 3);
        assert!((cfg.lr - 1e-4).abs() < 1e-9);
        assert_eq!(cfg.max_grad_norm, 5.0);
        assert_eq!(cfg.augment.pairs_per_trajectory(), 16);
        assert_eq!(cfg.loss_mode, LossMode::L2);
    }

    #[test]
    fn loss_mode_names() {
        assert_eq!(LossMode::L0.name(), "L0");
        assert_eq!(LossMode::L1.name(), "L1");
        assert_eq!(LossMode::L2.name(), "L2");
    }

    #[test]
    fn with_helpers_override_fields() {
        let cfg = E2dtcConfig::fast(5).with_loss_mode(LossMode::L0).with_seed(9);
        assert_eq!(cfg.loss_mode, LossMode::L0);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.k_clusters, 5);
    }
}
