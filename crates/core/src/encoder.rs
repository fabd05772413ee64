//! The frozen (inference-only) encoder — the paper's end product.
//!
//! After self-training converges, E²DTC's serving story is "once finely
//! trained, it can be efficiently adopted for trajectory clustering
//! requests": embed new trajectories with the frozen seq2seq encoder and
//! assign them to the learned centroids. [`FrozenEncoder`] packages
//! exactly that — the encoder half ([`Encoder`]: token table and encoder
//! GRU), grid, vocabulary, and centroids, with no decoder, projection,
//! tape, optimizer state, or RNG — so it is `Send + Sync` and can be
//! shared across threads behind an `Arc` (see the `traj-query` crate for
//! the serving front-end).
//!
//! `embed_tokenized` is the one batched eval forward: serving,
//! `E2dtc::embed_dataset`, the CLI and `fit`'s own clustering passes all
//! run it. It length-buckets the sequences into micro-batches, encodes
//! them across the rayon pool (a request of at most 16 micro-batches
//! runs inline, since the pool's scheduling chunk is 16 items), each
//! worker staging its buffers in its own `thread_local!` [`Scratch`],
//! and scatters the rows back to input order. A row depends neither on
//! the batch it lands in nor on the thread that runs it, so results are
//! bit-identical for any batch size and thread count. The forward is
//! the tape-free eval path from [`traj_nn::infer`]. It runs the same GRU
//! cell kernel as the tape's [`Encoder::encode`], so the two are
//! bit-identical by construction (and still compared by this module's
//! tests) — the contract Algorithm 1 rests on, since Q/P come from these
//! embeddings while the DEC loss gradients come from the tape's — while
//! skipping all autograd bookkeeping, including the per-batch clone of
//! every parameter tensor that `Tape::param` performs.

use crate::batcher::length_buckets;
use crate::config::E2dtcConfig;
use crate::dec::hard_assignment;
use crate::seq2seq::{live_rows, Encoder};
use crate::vocab::{Vocab, UNK};
use rayon::prelude::*;
use std::cell::RefCell;
use std::time::Instant;
use traj_data::{Dataset, Grid, Trajectory};
use traj_nn::infer::Scratch;
use traj_nn::{student_t_assignment, ParamStore, Tensor};
use traj_obs::Histogram;

thread_local! {
    /// Per-thread buffer pool: every worker reuses its own scratch
    /// tensors across micro-batches and across calls.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Immutable trained encoder half + centroids, safe to share across
/// threads.
#[derive(Clone, Debug)]
pub struct FrozenEncoder {
    cfg: E2dtcConfig,
    grid: Grid,
    vocab: Vocab,
    /// The encoder half's tensors alone.
    store: ParamStore,
    encoder: Encoder,
    centroids: Option<Tensor>,
}

// The whole point: one encoder instance serves many threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FrozenEncoder>();
};

impl FrozenEncoder {
    /// Assembles a frozen encoder from already-validated parts (used by
    /// [`crate::model::E2dtc::freeze`] and the checkpoint loader).
    pub(crate) fn from_parts(
        cfg: E2dtcConfig,
        grid: Grid,
        vocab: Vocab,
        store: ParamStore,
        encoder: Encoder,
        centroids: Option<Tensor>,
    ) -> Self {
        Self { cfg, grid, vocab, store, encoder, centroids }
    }

    /// The configuration the encoder was trained under.
    pub fn config(&self) -> &E2dtcConfig {
        &self.cfg
    }

    /// Spatial grid fitted to the training dataset.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Vocabulary built from the training dataset.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The learned `(k, hidden)` centroids, when self-training (or
    /// [`crate::model::E2dtc::init_centroids`]) produced them.
    pub fn centroids(&self) -> Option<&Tensor> {
        self.centroids.as_ref()
    }

    /// Tokenizes one trajectory with the training grid/vocabulary
    /// (unknown cells become `UNK`; an empty encoding becomes `[UNK]`).
    pub fn tokenize(&self, traj: &Trajectory) -> Vec<usize> {
        self.vocab.encode_trajectory(&self.grid, traj, self.cfg.max_seq_len)
    }

    /// Embeds already-tokenized sequences (see [`FrozenEncoder::tokenize`])
    /// in length-bucketed micro-batches of `batch_size`, returning an
    /// `(n, hidden)` tensor aligned with the input. With `batch_ms`, each
    /// micro-batch's encode time in milliseconds is recorded into it, in
    /// bucket order.
    pub fn embed_sequences(
        &self,
        sequences: &[Vec<usize>],
        batch_size: usize,
        batch_ms: Option<&mut Histogram>,
    ) -> Tensor {
        embed_tokenized(&self.encoder, &self.store, sequences, batch_size, batch_ms)
    }

    /// Embeds every trajectory of a dataset — the `&self` twin of the
    /// historical `E2dtc::embed_dataset`.
    pub fn embed_dataset(&self, dataset: &Dataset) -> Tensor {
        let sequences: Vec<Vec<usize>> =
            dataset.trajectories.iter().map(|t| self.tokenize(t)).collect();
        self.embed_sequences(&sequences, self.cfg.batch_size, None)
    }

    /// Soft (Student-t) cluster assignment `Q` for pre-computed
    /// embeddings (paper Eq. 9).
    ///
    /// # Panics
    /// Panics when the encoder was frozen before centroids existed.
    pub fn soft_assign(&self, embeddings: &Tensor) -> Tensor {
        let c = self
            .centroids
            .as_ref()
            .expect("frozen encoder has no centroids — freeze after fit/init_centroids");
        student_t_assignment(embeddings, c)
    }

    /// Hard cluster assignment (argmax of `Q`) for pre-computed
    /// embeddings.
    ///
    /// # Panics
    /// Panics when the encoder has no centroids.
    pub fn hard_assign(&self, embeddings: &Tensor) -> Vec<usize> {
        hard_assignment(&self.soft_assign(embeddings))
    }

    /// For each embedding row, the `k` nearest centroids as
    /// `(centroid index, squared distance)` pairs, nearest first.
    ///
    /// # Panics
    /// Panics when the encoder has no centroids.
    pub fn centroid_topk(&self, embeddings: &Tensor, k: usize) -> Vec<Vec<(usize, f32)>> {
        let c = self
            .centroids
            .as_ref()
            .expect("frozen encoder has no centroids — freeze after fit/init_centroids");
        let k = k.min(c.rows());
        (0..embeddings.rows())
            .map(|r| {
                let mut dists: Vec<(usize, f32)> =
                    (0..c.rows()).map(|j| (j, embeddings.row_sq_dist(r, c, j))).collect();
                dists.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                dists.truncate(k);
                dists
            })
            .collect()
    }
}

/// Tape-free twin of [`Encoder::encode`]: runs the packed GRU
/// recurrence (live rows only) over a dense token batch and returns the
/// top-layer final hidden states `v_T` as a `(batch, hidden)` scratch
/// tensor.
///
/// # Panics
/// Panics on an empty batch or an empty sequence.
fn encode_batch(
    encoder: &Encoder,
    store: &ParamStore,
    seqs: &[&[usize]],
    scratch: &mut Scratch,
) -> Tensor {
    assert!(!seqs.is_empty(), "empty batch");
    assert!(seqs.iter().all(|s| !s.is_empty()), "empty sequence in batch");
    let batch = seqs.len();
    let max_len = seqs.iter().map(|s| s.len()).max().expect("non-empty batch");

    let mut state = encoder.gru.eval_zero_state(batch, scratch);
    let mut ids: Vec<usize> = Vec::with_capacity(batch);
    let mut live_buf = Vec::with_capacity(batch);
    for t in 0..max_len {
        ids.clear();
        ids.extend(seqs.iter().map(|s| s.get(t).copied().unwrap_or(UNK)));
        let x = encoder.embedding.eval(store, &ids, scratch);
        let live = live_rows(seqs, t, &mut live_buf);
        encoder.gru.eval_step(store, &x, &mut state, live, scratch);
        scratch.put(x);
    }
    let repr = state.pop().expect("at least one layer");
    for s in state {
        scratch.put(s);
    }
    repr
}

/// The one batched eval forward: length-buckets pre-tokenized sequences
/// into micro-batches of `batch_size`, encodes them across the worker
/// pool and scatters the rows back to input order. With `batch_ms`, each
/// micro-batch's encode time in milliseconds is recorded, in bucket
/// order.
pub(crate) fn embed_tokenized(
    encoder: &Encoder,
    store: &ParamStore,
    sequences: &[Vec<usize>],
    batch_size: usize,
    mut batch_ms: Option<&mut Histogram>,
) -> Tensor {
    let d = encoder.hidden_dim();
    let mut out = Tensor::zeros(sequences.len(), d);
    let lens: Vec<usize> = sequences.iter().map(Vec::len).collect();
    let batches = length_buckets(&lens, batch_size);
    let timed = batch_ms.is_some();

    // Each task copies its rows out and returns the scratch tensor to its
    // own thread's pool, keeping every pool at its allocation fixed point
    // regardless of which thread ran which batch.
    let encode = |batch: &Vec<usize>| -> (Vec<f32>, f64) {
        let t0 = timed.then(Instant::now);
        let refs: Vec<&[usize]> = batch.iter().map(|&i| sequences[i].as_slice()).collect();
        let rows = SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let repr = encode_batch(encoder, store, &refs, scratch);
            let rows = repr.data().to_vec();
            scratch.put(repr);
            rows
        });
        (rows, t0.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3))
    };
    let encoded: Vec<(Vec<f32>, f64)> = batches.par_iter().map(encode).collect();

    for (batch, (rows, ms)) in batches.iter().zip(encoded) {
        for (row, &i) in batch.iter().enumerate() {
            out.row_mut(i).copy_from_slice(&rows[row * d..(row + 1) * d]);
        }
        if let Some(h) = batch_ms.as_deref_mut() {
            h.record(ms);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::E2dtc;
    use crate::test_util::tiny_city;
    use traj_nn::Tape;

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    /// Encodes a pretrained model's dataset on a tape, batch by
    /// length bucket, and compares every row with [`embed_tokenized`].
    #[test]
    fn tape_encode_is_bit_identical_to_embed_tokenized() {
        let city = tiny_city(30, 3);
        let batch_size = 8;
        let mut cfg = E2dtcConfig::tiny(3);
        cfg.layers = 2;
        cfg.batch_size = batch_size;
        let mut model = E2dtc::new(&city.dataset, cfg);
        // One epoch so the weights are not the init.
        let _ = model.pretrain(&city.dataset, 1);

        let sequences = model.dataset_sequences(&city.dataset);
        let lens: Vec<usize> = sequences.iter().map(Vec::len).collect();
        let buckets = length_buckets(&lens, batch_size);
        assert!(
            buckets.iter().any(|b| b.iter().any(|&i| lens[i] != lens[b[0]])),
            "fixture must contain ragged batches so packed steps run"
        );
        let encoder = &model.model.encoder;
        let eval = embed_tokenized(encoder, &model.store, &sequences, batch_size, None);

        let mut tape = Tape::new();
        for batch in &buckets {
            tape.clear();
            let refs: Vec<&[usize]> = batch.iter().map(|&i| sequences[i].as_slice()).collect();
            let state = encoder.encode(&mut tape, &model.store, &refs);
            let repr = tape.value(*state.last().expect("at least one layer"));
            for (row, &i) in batch.iter().enumerate() {
                assert_eq!(bits(repr.row(row)), bits(eval.row(i)), "trajectory {i}");
            }
        }
    }
}
