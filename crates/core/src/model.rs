//! The E²DTC model facade.
//!
//! [`E2dtc`] holds everything the pipeline accumulates — grid, vocabulary,
//! spatial weight table, seq2seq parameters, centroids, optimizer, RNG —
//! and delegates the heavy lifting to focused modules:
//!
//! - [`crate::trainer`] — pre-training, self-training, guards, rollback,
//!   periodic checkpoints (everything that needs `&mut self`);
//! - [`crate::encoder`] — the tape-free inference forward and the
//!   [`FrozenEncoder`] produced by [`E2dtc::freeze`], which copies only
//!   the encoder half (token table and encoder GRU) of the seq2seq store;
//! - [`crate::batcher`] — length-bucketed batching shared by both;
//! - [`crate::persist`] — the on-disk format: [`E2dtc::save`] writes the
//!   encoder half and centroids for serving, [`E2dtc::save_checkpoint`] /
//!   [`E2dtc::resume`] the whole model for training, and
//!   [`FrozenEncoder::from_checkpoint`] loads either for inference.
//!
//! Inference entry points ([`E2dtc::embed_dataset`],
//! [`E2dtc::soft_assignment`], [`E2dtc::assign`], [`E2dtc::freeze`]) take
//! `&self`: they run the tape-free encoder forward, the same one `fit`
//! uses for its clustering passes, and leave the training RNG stream
//! untouched. A tape is built only where `backward` follows — the one
//! training step both phases run in [`crate::trainer`].

use crate::cell_embedding::train_cell_embeddings;
use crate::config::E2dtcConfig;
use crate::dec::hard_assignment;
use crate::encoder::FrozenEncoder;
use crate::seq2seq::{Encoder, Seq2Seq};
use crate::spatial_loss::WeightTable;
use crate::vocab::Vocab;
use rand::rngs::StdRng;
use rand::SeedableRng;
use traj_data::{Dataset, Grid};
use traj_nn::infer::Scratch;
use traj_nn::optim::Adam;
use traj_nn::{student_t_assignment, ParamId, ParamStore, Tensor};

pub use crate::trainer::{EpochCallback, EpochRecord, FitResult, Phase, TrainingState};

/// The E²DTC model: seq2seq parameters, cluster centroids, vocabulary,
/// and optimizer state.
pub struct E2dtc {
    pub(crate) cfg: E2dtcConfig,
    pub(crate) grid: Grid,
    pub(crate) vocab: Vocab,
    pub(crate) weights: WeightTable,
    pub(crate) store: ParamStore,
    pub(crate) model: Seq2Seq,
    pub(crate) centroids: Option<ParamId>,
    pub(crate) opt: Adam,
    pub(crate) rng: StdRng,
    /// Tokenized original trajectories of the dataset being trained,
    /// set at the entry of `fit`/`pretrain`.
    pub(crate) sequences: Vec<Vec<usize>>,
    /// Training cursor restored by [`E2dtc::resume`], consumed by the
    /// next `fit` call.
    pub(crate) pending: Option<TrainingState>,
    /// Telemetry handle; captured from `traj_obs::global()` at
    /// construction. Never serialized.
    pub(crate) recorder: traj_obs::Recorder,
    /// Test-only fault-injection plan (see [`crate::fault`]).
    #[cfg(feature = "fault-injection")]
    pub(crate) fault: Option<crate::fault::FaultPlan>,
}

impl E2dtc {
    /// Builds the model for a dataset: fits the grid, builds the compact
    /// vocabulary, trains skip-gram cell vectors, and initializes the
    /// seq2seq parameters. (Phase 1 of Fig. 2.)
    ///
    /// # Panics
    /// Panics on an empty dataset or `k_clusters > |dataset|`.
    pub fn new(dataset: &Dataset, cfg: E2dtcConfig) -> Self {
        assert!(!dataset.is_empty(), "cannot fit an empty dataset");
        assert!(
            cfg.k_clusters >= 1 && cfg.k_clusters <= dataset.len(),
            "k = {} out of range for {} trajectories",
            cfg.k_clusters,
            dataset.len()
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let grid = Grid::fit(dataset, cfg.cell_meters);
        let vocab = Vocab::build(&grid, &dataset.trajectories);
        let sequences: Vec<Vec<usize>> = dataset
            .trajectories
            .iter()
            .map(|t| vocab.encode_trajectory(&grid, t, cfg.max_seq_len))
            .collect();
        let cell_vectors = train_cell_embeddings(
            &sequences,
            vocab.size(),
            cfg.embed_dim,
            &cfg.skipgram,
            &mut rng,
        );
        let weights = WeightTable::build(&grid, &vocab, &cell_vectors, cfg.knn_k, cfg.alpha);
        let mut store = ParamStore::new();
        let model =
            Seq2Seq::new(&mut store, cell_vectors, cfg.hidden_dim, cfg.layers, &mut rng);
        let opt = Adam::new(cfg.lr).with_max_grad_norm(cfg.max_grad_norm);
        Self {
            cfg,
            grid,
            vocab,
            weights,
            store,
            model,
            centroids: None,
            opt,
            rng,
            sequences: Vec::new(),
            pending: None,
            recorder: traj_obs::global(),
            #[cfg(feature = "fault-injection")]
            fault: None,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &E2dtcConfig {
        &self.cfg
    }

    /// Vocabulary built from the training dataset.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Spatial grid fitted to the training dataset.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The encoder half's tensors: [`Seq2Seq::new`] registers it first,
    /// so they are the store's prefix.
    pub(crate) fn encoder_ids(&self) -> impl Iterator<Item = ParamId> {
        self.store.ids().take(Encoder::param_count(self.cfg.layers))
    }

    /// Trajectory-representation dimensionality.
    pub fn repr_dim(&self) -> usize {
        self.model.encoder.hidden_dim()
    }

    /// Number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// The resumed training cursor, if one is pending.
    pub fn pending_training(&self) -> Option<&TrainingState> {
        self.pending.as_ref()
    }

    /// Overrides the periodic-checkpoint policy (useful after
    /// [`E2dtc::resume`], whose checkpoint carries the policy it was
    /// written under). `every = 0` disables periodic checkpoints.
    pub fn set_checkpoint_policy(
        &mut self,
        dir: Option<String>,
        every: usize,
        keep_last: usize,
    ) {
        self.cfg.checkpoint_dir = dir;
        self.cfg.checkpoint_every = every;
        self.cfg.checkpoint_keep_last = keep_last;
    }

    /// Embeds every trajectory of `dataset` (inference; no parameter
    /// updates, no RNG consumption). Returns an `(n, hidden)` tensor
    /// aligned with the dataset. Runs the tape-free forward — values are
    /// bit-identical to the training path's.
    pub fn embed_dataset(&self, dataset: &Dataset) -> Tensor {
        self.embed_sequences(&self.dataset_sequences(dataset))
    }

    /// The eval forward over already-tokenized sequences.
    pub(crate) fn embed_sequences(&self, sequences: &[Vec<usize>]) -> Tensor {
        let (encoder, batch_size) = (&self.model.encoder, self.cfg.batch_size);
        let mut scratch = Scratch::new();
        crate::encoder::embed_tokenized(encoder, &self.store, sequences, batch_size, &mut scratch)
    }

    /// Soft cluster assignment `Q` for a dataset under the trained model.
    ///
    /// # Panics
    /// Panics if called before centroids exist.
    pub fn soft_assignment(&self, dataset: &Dataset) -> Tensor {
        let id = self.centroids.expect("model has no centroids yet — run fit first");
        let emb = self.embed_dataset(dataset);
        student_t_assignment(&emb, self.store.get(id))
    }

    /// Hard cluster assignment for a (possibly new) dataset — the paper's
    /// "once finely trained, it can be efficiently adopted for trajectory
    /// clustering requests" inference path.
    pub fn assign(&self, dataset: &Dataset) -> Vec<usize> {
        hard_assignment(&self.soft_assignment(dataset))
    }

    /// Extracts an immutable, `Send + Sync` inference engine: the trained
    /// encoder half, grid, vocabulary, and (when present) centroids — no
    /// decoder, optimizer state, tape or RNG. Share it across threads
    /// behind an `Arc` (see the `traj-query` crate).
    pub fn freeze(&self) -> FrozenEncoder {
        // The encoder half's handles index a copy of the store's prefix.
        let mut store = ParamStore::new();
        for id in self.encoder_ids() {
            store.add(self.store.name(id), self.store.get(id).clone());
        }
        FrozenEncoder::from_parts(
            self.cfg.clone(),
            self.grid.clone(),
            self.vocab.clone(),
            store,
            self.model.encoder.clone(),
            self.centroids.map(|id| self.store.get(id).clone()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::tiny_city;

    #[test]
    fn construction_builds_vocab_and_params() {
        let city = tiny_city(30, 3);
        let model = E2dtc::new(&city.dataset, E2dtcConfig::tiny(3));
        assert!(model.vocab().num_cells() > 10);
        assert!(model.num_parameters() > 1000);
        assert_eq!(model.repr_dim(), 24);
    }

    #[test]
    fn embed_dataset_is_aligned_and_finite() {
        let city = tiny_city(25, 3);
        let model = E2dtc::new(&city.dataset, E2dtcConfig::tiny(3));
        let emb = model.embed_dataset(&city.dataset);
        assert_eq!(emb.shape(), (25, model.repr_dim()));
        assert!(!emb.has_non_finite());
        // Alignment: embedding a single-trajectory dataset gives the same
        // row (inference is deterministic).
        let single = Dataset::new("one", vec![city.dataset.trajectories[7].clone()]);
        let e1 = model.embed_dataset(&single);
        for (a, b) in e1.row(0).iter().zip(emb.row(7)) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn assign_works_on_unseen_data() {
        let city = tiny_city(30, 3);
        let mut model = E2dtc::new(&city.dataset, E2dtcConfig::tiny(3));
        let _ = model.fit(&city.dataset);
        // A fresh sample from the same generator (different seed).
        let mut spec2 = traj_data::SynthSpec::hangzhou_like(10, 123);
        spec2.num_clusters = 3;
        spec2.len_range = (8, 16);
        spec2.outlier_fraction = 0.0;
        let new_city = spec2.generate();
        let assign = model.assign(&new_city.dataset);
        assert_eq!(assign.len(), 10);
        assert!(assign.iter().all(|&c| c < 3));
    }

    #[test]
    fn freeze_requires_no_centroids_for_embedding() {
        let city = tiny_city(20, 2);
        let model = E2dtc::new(&city.dataset, E2dtcConfig::tiny(2));
        let frozen = model.freeze();
        assert!(frozen.centroids().is_none());
        let emb = frozen.embed_dataset(&city.dataset);
        assert_eq!(emb.shape(), (20, model.repr_dim()));
    }
}
