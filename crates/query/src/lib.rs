//! # traj-query — batched query serving over a frozen E²DTC encoder
//!
//! The paper's deployment story is train-once/serve-forever: "once finely
//! trained, it can be efficiently adopted for trajectory clustering
//! requests". This crate is that serving layer. A [`QueryEngine`] wraps
//! an `Arc<`[`FrozenEncoder`]`>` — the immutable, `Send + Sync` artifact
//! produced by `E2dtc::freeze()` or
//! [`FrozenEncoder::from_checkpoint`] — and answers batch requests:
//!
//! - [`QueryEngine::embed_batch`] — trajectory → representation vectors;
//! - [`QueryEngine::soft_assign`] / [`QueryEngine::hard_assign`] —
//!   Student-t cluster membership (paper Eq. 9) and its argmax;
//! - [`QueryEngine::nearest_centroids`] — per-trajectory centroid top-k
//!   by squared distance in representation space.
//!
//! Requests are tokenized and handed to
//! [`FrozenEncoder::embed_sequences`] with the engine's micro-batch size:
//! the same batched eval forward that `fit`'s clustering passes and the
//! CLI run. It length-buckets the request into micro-batches (so a batch
//! pays GRU steps for its longest member only) and fans them across the
//! rayon worker pool, each worker reusing its own buffer pool; results
//! are byte-for-byte independent of batch size and thread count. The
//! engine adds the serving telemetry: the [`QUERY_TRAJS`] /
//! [`QUERY_BATCHES`] counters accumulate totals, and when a global
//! `traj-obs` recorder is installed each call records a per-micro-batch
//! latency histogram under `query.batch_ms`.

#![warn(missing_docs)]

use e2dtc::FrozenEncoder;
use std::sync::Arc;
use traj_data::Trajectory;
use traj_nn::Tensor;
use traj_obs::Counter;

/// Total trajectories embedded through any [`QueryEngine`].
pub static QUERY_TRAJS: Counter = Counter::new("query.trajs");
/// Total micro-batches encoded by any [`QueryEngine`].
pub static QUERY_BATCHES: Counter = Counter::new("query.batches");

/// The engine's counters, in snapshot-friendly form (pass to
/// `traj_obs::Recorder::counters`).
pub fn counters() -> [&'static Counter; 2] {
    [&QUERY_TRAJS, &QUERY_BATCHES]
}

/// Tuning knobs for a [`QueryEngine`].
#[derive(Clone, Copy, Debug)]
pub struct QueryConfig {
    /// Micro-batch size for the encoder forward. Larger batches amortize
    /// per-step overhead; smaller ones waste less padding on mixed
    /// lengths.
    pub batch_size: usize,
}

impl Default for QueryConfig {
    fn default() -> Self {
        Self { batch_size: 64 }
    }
}

/// A shareable, read-only query front-end over a frozen encoder.
///
/// Cloning is cheap (the encoder is behind an `Arc`); the engine itself
/// is also `Send + Sync`, so one instance may serve many threads.
#[derive(Clone)]
pub struct QueryEngine {
    encoder: Arc<FrozenEncoder>,
    cfg: QueryConfig,
}

impl QueryEngine {
    /// Wraps a frozen encoder with the given configuration.
    pub fn new(encoder: Arc<FrozenEncoder>, cfg: QueryConfig) -> Self {
        Self { encoder, cfg }
    }

    /// The underlying frozen encoder.
    pub fn encoder(&self) -> &FrozenEncoder {
        &self.encoder
    }

    /// Embeds a batch of trajectories, returning an `(n, hidden)` tensor
    /// aligned with the input order.
    pub fn embed_batch(&self, trajs: &[Trajectory]) -> Tensor {
        let sequences: Vec<Vec<usize>> =
            trajs.iter().map(|t| self.encoder.tokenize(t)).collect();
        let batch_size = self.cfg.batch_size;
        QUERY_TRAJS.add(trajs.len() as u64);
        // `length_buckets` cuts one micro-batch per `batch_size` rows.
        QUERY_BATCHES.add(trajs.len().div_ceil(batch_size.max(1)) as u64);
        let recorder = traj_obs::global();
        let mut hist = (recorder.enabled() && !trajs.is_empty()).then(traj_obs::Histogram::new);
        let out = self.encoder.embed_sequences(&sequences, batch_size, hist.as_mut());
        if let Some(h) = &hist {
            recorder.histogram("query.batch_ms", h);
        }
        out
    }

    /// Soft (Student-t) cluster assignment `Q` for a batch of
    /// trajectories, `(n, k)`.
    ///
    /// # Panics
    /// Panics when the encoder was frozen without centroids.
    pub fn soft_assign(&self, trajs: &[Trajectory]) -> Tensor {
        self.encoder.soft_assign(&self.embed_batch(trajs))
    }

    /// Hard cluster assignment (argmax of `Q`) for a batch of
    /// trajectories.
    ///
    /// # Panics
    /// Panics when the encoder was frozen without centroids.
    pub fn hard_assign(&self, trajs: &[Trajectory]) -> Vec<usize> {
        self.encoder.hard_assign(&self.embed_batch(trajs))
    }

    /// For each trajectory, the `k` nearest centroids as
    /// `(centroid index, squared distance)` pairs, nearest first.
    ///
    /// # Panics
    /// Panics when the encoder was frozen without centroids.
    pub fn nearest_centroids(
        &self,
        trajs: &[Trajectory],
        k: usize,
    ) -> Vec<Vec<(usize, f32)>> {
        self.encoder.centroid_topk(&self.embed_batch(trajs), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2dtc::{E2dtc, E2dtcConfig};
    use traj_data::SynthSpec;

    fn tiny_city(n: usize, k: usize) -> traj_data::GeneratedCity {
        let mut spec = SynthSpec::hangzhou_like(n, 99);
        spec.num_clusters = k;
        spec.len_range = (8, 16);
        spec.outlier_fraction = 0.0;
        spec.generate()
    }

    /// A frozen encoder with centroids but without the cost of a full
    /// `fit`: k-means over the untrained embeddings.
    fn frozen_with_centroids(city: &traj_data::GeneratedCity) -> Arc<FrozenEncoder> {
        let mut model = E2dtc::new(&city.dataset, E2dtcConfig::tiny(3));
        let emb = model.embed_dataset(&city.dataset);
        model.init_centroids(&emb);
        Arc::new(model.freeze())
    }

    #[test]
    fn engine_matches_frozen_encoder_bitwise() {
        let city = tiny_city(30, 3);
        let frozen = frozen_with_centroids(&city);
        let reference = frozen.embed_dataset(&city.dataset);
        // One trajectory per micro-batch: 30 batches exceed the pool's
        // 16-item chunk, so the request is split across worker threads.
        let engine = QueryEngine::new(frozen, QueryConfig { batch_size: 1 });
        let got = engine.embed_batch(&city.dataset.trajectories);
        assert_eq!(got.shape(), reference.shape());
        for (a, b) in got.data().iter().zip(reference.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn assignments_are_consistent_with_soft_assign() {
        let city = tiny_city(25, 3);
        let frozen = frozen_with_centroids(&city);
        let engine = QueryEngine::new(frozen, QueryConfig::default());
        let q = engine.soft_assign(&city.dataset.trajectories);
        let hard = engine.hard_assign(&city.dataset.trajectories);
        let topk = engine.nearest_centroids(&city.dataset.trajectories, 2);
        assert_eq!(q.shape(), (25, 3));
        assert_eq!(hard.len(), 25);
        for (row, &c) in hard.iter().enumerate() {
            assert!(c < 3);
            // The hard assignment is the nearest centroid: Student-t
            // membership decreases monotonically with squared distance.
            assert_eq!(topk[row][0].0, c);
            assert_eq!(topk[row].len(), 2);
            assert!(topk[row][0].1 <= topk[row][1].1);
        }
    }

    #[test]
    fn shared_engine_across_threads_matches_single_thread() {
        let city = tiny_city(24, 3);
        let frozen = frozen_with_centroids(&city);
        let engine = QueryEngine::new(frozen, QueryConfig { batch_size: 5 });
        let reference = engine.embed_batch(&city.dataset.trajectories);
        let reference_assign = engine.hard_assign(&city.dataset.trajectories);

        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let engine = engine.clone();
                    let trajs = &city.dataset.trajectories;
                    s.spawn(move || (engine.embed_batch(trajs), engine.hard_assign(trajs)))
                })
                .collect();
            for h in handles {
                let (emb, assign) = h.join().expect("thread panicked");
                for (a, b) in emb.data().iter().zip(reference.data()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                assert_eq!(assign, reference_assign);
            }
        });
    }

    #[test]
    fn counters_accumulate() {
        let city = tiny_city(10, 2);
        let mut model = E2dtc::new(&city.dataset, E2dtcConfig::tiny(2));
        let emb = model.embed_dataset(&city.dataset);
        model.init_centroids(&emb);
        let engine = QueryEngine::new(
            Arc::new(model.freeze()),
            QueryConfig { batch_size: 4 },
        );
        let (t0, b0) = (QUERY_TRAJS.get(), QUERY_BATCHES.get());
        let _ = engine.embed_batch(&city.dataset.trajectories);
        assert_eq!(QUERY_TRAJS.get() - t0, 10);
        assert_eq!(QUERY_BATCHES.get() - b0, 3); // ceil(10 / 4)
    }

    #[test]
    fn empty_request_is_a_no_op() {
        let city = tiny_city(8, 2);
        let frozen = frozen_with_centroids(&city);
        let engine = QueryEngine::new(frozen, QueryConfig::default());
        let emb = engine.embed_batch(&[]);
        assert_eq!(emb.rows(), 0);
    }
}
