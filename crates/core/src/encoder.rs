//! The frozen (inference-only) encoder — the paper's end product.
//!
//! After self-training converges, E²DTC's serving story is "once finely
//! trained, it can be efficiently adopted for trajectory clustering
//! requests": embed new trajectories with the frozen seq2seq encoder and
//! assign them to the learned centroids. [`FrozenEncoder`] packages
//! exactly that — immutable weights, grid, vocabulary, and centroids,
//! with no tape, no optimizer state, and no RNG — so it is `Send + Sync`
//! and can be shared across threads behind an `Arc` (see the
//! `traj-query` crate for the batched fan-out engine).
//!
//! The forward path is the tape-free eval forward from
//! [`traj_nn::infer`], and it is the only forward that runs without a
//! backward: serving, `E2dtc::embed_dataset`, and `fit`'s own clustering
//! passes all go through `embed_tokenized`. It runs the same GRU cell
//! kernel as the tape's [`Seq2Seq::encode`], so the two are bit-identical
//! by construction (and still compared by this module's tests) — the
//! contract Algorithm 1 rests on, since Q/P come from these embeddings
//! while the DEC loss gradients come from the tape's — while skipping all
//! autograd bookkeeping, including the per-batch clone of every parameter
//! tensor that `Tape::param` performs.

use crate::batcher::length_buckets;
use crate::config::E2dtcConfig;
use crate::dec::hard_assignment;
use crate::seq2seq::{live_rows, Seq2Seq};
use crate::vocab::{Vocab, UNK};
use traj_data::{Dataset, Grid, Trajectory};
use traj_nn::infer::Scratch;
use traj_nn::{student_t_assignment, ParamStore, Tensor};

/// Immutable trained encoder + centroids, safe to share across threads.
#[derive(Clone, Debug)]
pub struct FrozenEncoder {
    cfg: E2dtcConfig,
    grid: Grid,
    vocab: Vocab,
    store: ParamStore,
    model: Seq2Seq,
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
        model: Seq2Seq,
        centroids: Option<Tensor>,
    ) -> Self {
        Self { cfg, grid, vocab, store, model, centroids }
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

    /// Trajectory-representation dimensionality.
    pub fn repr_dim(&self) -> usize {
        self.model.hidden_dim()
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

    /// Encodes one already-tokenized batch, returning the `(batch,
    /// hidden)` representations. The result tensor is drawn from
    /// `scratch`; hand it back with [`Scratch::put`] when done to keep
    /// the pool at its allocation fixed point.
    pub fn encode_sequences(&self, seqs: &[&[usize]], scratch: &mut Scratch) -> Tensor {
        encode_batch(&self.model, &self.store, seqs, scratch)
    }

    /// Embeds a batch of trajectories (tokenize + length-bucket +
    /// encode), returning an `(n, hidden)` tensor aligned with the input.
    pub fn embed_batch(&self, trajs: &[Trajectory], scratch: &mut Scratch) -> Tensor {
        let sequences: Vec<Vec<usize>> = trajs.iter().map(|t| self.tokenize(t)).collect();
        embed_tokenized(&self.model, &self.store, &sequences, self.cfg.batch_size, scratch)
    }

    /// Embeds every trajectory of a dataset — the `&self` twin of the
    /// historical `E2dtc::embed_dataset`.
    pub fn embed_dataset(&self, dataset: &Dataset) -> Tensor {
        let mut scratch = Scratch::new();
        self.embed_batch(&dataset.trajectories, &mut scratch)
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

/// Tape-free twin of [`Seq2Seq::encode`]: runs the packed GRU
/// recurrence (live rows only) over a dense token batch and returns the
/// top-layer final hidden states `v_T` as a `(batch, hidden)` scratch
/// tensor.
///
/// # Panics
/// Panics on an empty batch or an empty sequence.
pub(crate) fn encode_batch(
    model: &Seq2Seq,
    store: &ParamStore,
    seqs: &[&[usize]],
    scratch: &mut Scratch,
) -> Tensor {
    assert!(!seqs.is_empty(), "empty batch");
    assert!(seqs.iter().all(|s| !s.is_empty()), "empty sequence in batch");
    let batch = seqs.len();
    let max_len = seqs.iter().map(|s| s.len()).max().expect("non-empty batch");

    let mut state = model.encoder.eval_zero_state(batch, scratch);
    let mut ids: Vec<usize> = Vec::with_capacity(batch);
    let mut live_buf = Vec::with_capacity(batch);
    for t in 0..max_len {
        ids.clear();
        ids.extend(seqs.iter().map(|s| s.get(t).copied().unwrap_or(UNK)));
        let x = model.embedding.eval(store, &ids, scratch);
        let live = live_rows(seqs, t, &mut live_buf);
        model.encoder.eval_step(store, &x, &mut state, live, scratch);
        scratch.put(x);
    }
    let repr = state.pop().expect("at least one layer");
    for s in state {
        scratch.put(s);
    }
    repr
}

/// Embeds pre-tokenized sequences through length-bucketed batches,
/// scattering results back to input order. One implementation serves the
/// `E2dtc` facade, [`FrozenEncoder::embed_batch`], and `traj-query`.
pub(crate) fn embed_tokenized(
    model: &Seq2Seq,
    store: &ParamStore,
    sequences: &[Vec<usize>],
    batch_size: usize,
    scratch: &mut Scratch,
) -> Tensor {
    let n = sequences.len();
    let d = model.hidden_dim();
    let mut out = Tensor::zeros(n, d);
    let lens: Vec<usize> = sequences.iter().map(Vec::len).collect();
    for batch in length_buckets(&lens, batch_size) {
        let refs: Vec<&[usize]> = batch.iter().map(|&i| sequences[i].as_slice()).collect();
        let repr = encode_batch(model, store, &refs, scratch);
        for (row, &i) in batch.iter().enumerate() {
            out.row_mut(i).copy_from_slice(repr.row(row));
        }
        scratch.put(repr);
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
    fn assert_tape_matches_eval(attention: bool) {
        let city = tiny_city(30, 3);
        let batch_size = 8;
        let mut cfg = E2dtcConfig::tiny(3);
        cfg.layers = 2;
        cfg.batch_size = batch_size;
        cfg.attention = attention;
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
        let mut scratch = Scratch::new();
        let eval =
            embed_tokenized(&model.model, &model.store, &sequences, batch_size, &mut scratch);

        let mut tape = Tape::new();
        for batch in &buckets {
            tape.clear();
            let refs: Vec<&[usize]> = batch.iter().map(|&i| sequences[i].as_slice()).collect();
            let enc = model.model.encode(&mut tape, &model.store, &refs);
            let repr = tape.value(enc.repr);
            for (row, &i) in batch.iter().enumerate() {
                assert_eq!(bits(repr.row(row)), bits(eval.row(i)), "trajectory {i}");
            }
        }
    }

    #[test]
    fn tape_encode_is_bit_identical_to_embed_tokenized() {
        assert_tape_matches_eval(false);
    }

    #[test]
    fn tape_encode_is_bit_identical_to_embed_tokenized_with_attention() {
        assert_tape_matches_eval(true);
    }
}
