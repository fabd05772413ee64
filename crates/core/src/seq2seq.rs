//! Seq2seq GRU encoder–decoder over token sequences (paper §III-A, §V-C).
//!
//! The encoder compresses a (possibly corrupted) token sequence into the
//! trajectory representation `v_T` — the final hidden state of a stacked
//! GRU. The decoder, initialized with the encoder's final states,
//! reconstructs the *original* sequence under teacher forcing, trained
//! with the spatial-proximity-aware loss (Eq. 8).
//!
//! Variable-length sequences share mini-batches through packed recurrence
//! steps: each step computes only the rows whose sequence is still
//! running (`live_rows`), and an ended row's hidden state is carried
//! unchanged, so `v_T` is exactly the hidden state at each sequence's own
//! final token.

use crate::spatial_loss::WeightTable;
use crate::vocab::{BOS, UNK};
use rand::Rng;
use traj_nn::layers::{Embedding, Gru, Linear};
use traj_nn::{ParamStore, Tape, Tensor, Var};

/// The encoder half: the token embedding and the encoder GRU stack. It
/// is all that serving runs and, with the centroids, all that a plain
/// save holds; [`Seq2Seq::new`] registers it first, so its `1 + 4·layers`
/// tensors are the store's prefix.
#[derive(Clone, Debug)]
pub struct Encoder {
    /// Token embedding (initialized from the skip-gram cell vectors),
    /// shared with the decoder's teacher-forced inputs.
    pub embedding: Embedding,
    /// Encoder GRU stack.
    pub gru: Gru,
}

impl Encoder {
    /// Registers the token table, then the encoder GRU, in `store`.
    pub fn new(
        store: &mut ParamStore,
        cell_vectors: Tensor,
        hidden_dim: usize,
        layers: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let embed_dim = cell_vectors.cols();
        let embedding = Embedding::from_pretrained(store, "token", cell_vectors);
        let gru = Gru::new(store, "encoder", embed_dim, hidden_dim, layers, rng);
        Self { embedding, gru }
    }

    /// Number of tensors [`Encoder::new`] registers for `layers` GRU
    /// layers: the token table and four per layer. Saturates.
    pub(crate) fn param_count(layers: usize) -> usize {
        layers.saturating_mul(4).saturating_add(1)
    }

    /// Trajectory-representation dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.gru.hidden_dim()
    }

    /// Encodes a batch of dense token sequences into the per-layer final
    /// hidden states, `(batch, hidden)` each. The last one, the top
    /// layer's, is the trajectory representation `v_T`.
    ///
    /// # Panics
    /// Panics on an empty batch or an empty sequence.
    pub fn encode(&self, tape: &mut Tape, store: &ParamStore, seqs: &[&[usize]]) -> Vec<Var> {
        assert!(!seqs.is_empty(), "empty batch");
        assert!(seqs.iter().all(|s| !s.is_empty()), "empty sequence in batch");
        let batch = seqs.len();
        let max_len = seqs.iter().map(|s| s.len()).max().expect("non-empty batch");

        let mut state = self.gru.zero_state(tape, batch);
        let mut live_buf = Vec::with_capacity(batch);
        for t in 0..max_len {
            let ids: Vec<usize> =
                seqs.iter().map(|s| s.get(t).copied().unwrap_or(UNK)).collect();
            let x = self.embedding.forward(tape, store, &ids);
            let live = live_rows(seqs, t, &mut live_buf);
            self.gru.step(tape, store, x, &mut state, live);
        }
        state
    }
}

/// Encoder half + decoder + output projection. The decoder reads the
/// encoder's token table.
#[derive(Clone, Debug)]
pub struct Seq2Seq {
    /// The encoder half, registered first.
    pub encoder: Encoder,
    /// Decoder GRU stack (same depth/width as the encoder so states
    /// transfer directly).
    pub decoder: Gru,
    /// Hidden-to-vocabulary projection (`W` of Eq. 8).
    pub projection: Linear,
}

impl Seq2Seq {
    /// Registers all parameters in `store`: token table, encoder,
    /// decoder, projection.
    pub fn new(
        store: &mut ParamStore,
        cell_vectors: Tensor,
        hidden_dim: usize,
        layers: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let (vocab, embed_dim) = cell_vectors.shape();
        let encoder = Encoder::new(store, cell_vectors, hidden_dim, layers, rng);
        let decoder = Gru::new(store, "decoder", embed_dim, hidden_dim, layers, rng);
        let projection = Linear::new(store, "proj", hidden_dim, vocab, rng);
        Self { encoder, decoder, projection }
    }

    /// Number of tensors [`Seq2Seq::new`] registers for `layers` GRU
    /// layers: the encoder half's, four per decoder layer, and the
    /// projection's weight and bias. Saturates.
    pub(crate) fn param_count(layers: usize) -> usize {
        Encoder::param_count(layers).saturating_add(layers.saturating_mul(4)).saturating_add(2)
    }

    /// Teacher-forced reconstruction loss (Eq. 8) of `targets` given the
    /// encoder's final states `init_state`. Returns the scalar
    /// mean-per-position loss node.
    ///
    /// # Panics
    /// Panics if `init_state` depth mismatches the decoder, or on empty
    /// targets.
    pub fn reconstruction_loss(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        init_state: &[Var],
        targets: &[&[usize]],
        weights: &WeightTable,
    ) -> Var {
        assert_eq!(init_state.len(), self.decoder.layers(), "state depth mismatch");
        assert!(!targets.is_empty(), "empty batch");
        assert!(targets.iter().all(|s| !s.is_empty()), "empty target in batch");
        let max_len = targets.iter().map(|s| s.len()).max().expect("non-empty");

        let mut state = init_state.to_vec();
        let mut total: Option<Var> = None;
        let mut live_buf = Vec::with_capacity(targets.len());
        for t in 0..max_len {
            // Teacher forcing: input is BOS at t = 0, else the previous
            // target token.
            let ids: Vec<usize> = targets
                .iter()
                .map(|s| if t == 0 { BOS } else { s.get(t - 1).copied().unwrap_or(UNK) })
                .collect();
            let x = self.encoder.embedding.forward(tape, store, &ids);
            let live = live_rows(targets, t, &mut live_buf);
            let h = self.decoder.step(tape, store, x, &mut state, live);
            let logits = self.projection.forward(tape, store, h);
            let rows: Vec<Vec<(usize, f32)>> = targets
                .iter()
                .map(|s| {
                    s.get(t).map_or_else(Vec::new, |&tok| weights.target(tok).to_vec())
                })
                .collect();
            let step_loss = tape.weighted_softmax_nll(logits, rows);
            total = Some(match total {
                Some(acc) => tape.add(acc, step_loss),
                None => step_loss,
            });
        }
        let total = total.expect("max_len >= 1");
        tape.scale(total, 1.0 / max_len as f32)
    }
}

/// The GRU step's live rows at position `t`: `None` while every sequence
/// is still running, else the rows `i` with `t < seqs[i].len()`, in
/// increasing order, collected in the reusable buffer `live`.
pub(crate) fn live_rows<'a>(
    seqs: &[&[usize]],
    t: usize,
    live: &'a mut Vec<usize>,
) -> Option<&'a [usize]> {
    live.clear();
    live.extend(seqs.iter().enumerate().filter(|(_, s)| t < s.len()).map(|(i, _)| i));
    (live.len() < seqs.len()).then_some(live.as_slice())
}

/// `(name, shape)` of each tensor [`Seq2Seq::new`] registers, in order,
/// for a `vocab`-token table: the encoder half, then with `decoder` the
/// decoder half and projection. A loader checks a file against these
/// before it builds anything, so callers bound `layers` by the file's
/// tensor count first.
pub(crate) fn param_shapes(
    vocab: usize,
    embed_dim: usize,
    hidden_dim: usize,
    layers: usize,
    decoder: bool,
) -> Vec<(String, (usize, usize))> {
    let gates = hidden_dim.saturating_mul(3);
    let gru = |name: &str, shapes: &mut Vec<(String, (usize, usize))>| {
        for l in 0..layers {
            let input = if l == 0 { embed_dim } else { hidden_dim };
            let cell = [
                ("w_x", (input, gates)),
                ("w_h", (hidden_dim, gates)),
                ("b_x", (1, gates)),
                ("b_h", (1, gates)),
            ];
            shapes.extend(cell.map(|(t, shape)| (format!("{name}.layer{l}.{t}"), shape)));
        }
    };
    let mut shapes = vec![("token.table".to_string(), (vocab, embed_dim))];
    gru("encoder", &mut shapes);
    if decoder {
        gru("decoder", &mut shapes);
        shapes.push(("proj.weight".into(), (hidden_dim, vocab)));
        shapes.push(("proj.bias".into(), (1, vocab)));
    }
    shapes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial_loss::WeightTable;
    use crate::vocab::Vocab;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use traj_data::{Dataset, GpsPoint, Grid, Trajectory};
    use traj_nn::init::Init;
    use traj_nn::optim::Adam;

    fn tiny_model(vocab: usize, seed: u64) -> (ParamStore, Seq2Seq) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let cell_vectors = Init::Normal(0.1).tensor(vocab, 8, &mut rng);
        let model = Seq2Seq::new(&mut store, cell_vectors, 12, 2, &mut rng);
        (store, model)
    }

    fn uniform_weights(vocab: usize) -> WeightTable {
        // One-hot table without grid machinery: build via the real builder
        // on a synthetic straight-line vocabulary.
        let pts: Vec<GpsPoint> = (0..vocab)
            .map(|j| GpsPoint::new(30.0, 120.0 + j as f64 * 0.004, j as f64))
            .collect();
        let t = Trajectory::new(0, pts);
        let grid = Grid::fit(&Dataset::new("w", vec![t.clone()]), 300.0);
        let v = Vocab::build(&grid, &[t]);
        let mut rng = StdRng::seed_from_u64(0);
        let vecs = Init::Normal(0.1).tensor(v.size(), 8, &mut rng);
        WeightTable::build(&grid, &v, &vecs, 3, 1.0)
    }

    #[test]
    fn param_count_matches_registration() {
        let registered = |store: &ParamStore| -> Vec<(String, (usize, usize))> {
            store.ids().map(|id| (store.name(id).to_string(), store.get(id).shape())).collect()
        };
        for layers in 1..=3 {
            let mut rng = StdRng::seed_from_u64(0);
            let mut store = ParamStore::new();
            let _ = Seq2Seq::new(&mut store, Tensor::zeros(6, 4), 5, layers, &mut rng);
            assert_eq!(store.len(), Seq2Seq::param_count(layers), "{layers} layers");
            assert_eq!(registered(&store), param_shapes(6, 4, 5, layers, true));

            let mut store = ParamStore::new();
            let _ = Encoder::new(&mut store, Tensor::zeros(6, 4), 5, layers, &mut rng);
            assert_eq!(store.len(), Encoder::param_count(layers), "{layers} layers");
            assert_eq!(registered(&store), param_shapes(6, 4, 5, layers, false));
        }
    }

    #[test]
    fn encode_handles_variable_lengths() {
        let (store, model) = tiny_model(10, 0);
        let mut tape = Tape::new();
        let seqs: Vec<&[usize]> = vec![&[2, 3, 4, 5], &[6, 7]];
        let state = model.encoder.encode(&mut tape, &store, &seqs);
        assert_eq!(state.len(), 2);
        assert_eq!(tape.value(state[1]).shape(), (2, 12));
    }

    #[test]
    fn short_sequence_repr_is_unaffected_by_padding() {
        // Encoding [6, 7] alone must equal its row in a padded batch.
        let (store, model) = tiny_model(10, 0);
        let mut tape = Tape::new();
        let batch: Vec<&[usize]> = vec![&[2, 3, 4, 5], &[6, 7]];
        let enc_batch = model.encoder.encode(&mut tape, &store, &batch);
        let solo: Vec<&[usize]> = vec![&[6, 7]];
        let enc_solo = model.encoder.encode(&mut tape, &store, &solo);
        let padded_row = tape.value(enc_batch[1]).row(1).to_vec();
        let solo_row = tape.value(enc_solo[1]).row(0).to_vec();
        for (a, b) in padded_row.iter().zip(&solo_row) {
            assert!((a - b).abs() < 1e-6, "padding leaked: {a} vs {b}");
        }
    }

    #[test]
    fn reconstruction_loss_is_finite_and_positive() {
        let wt = uniform_weights(8);
        let vocab = wt.len();
        let (store, model) = tiny_model(vocab, 2);
        let mut tape = Tape::new();
        let seqs: Vec<&[usize]> = vec![&[2, 3, 4], &[3, 4]];
        let enc = model.encoder.encode(&mut tape, &store, &seqs);
        let loss = model.reconstruction_loss(&mut tape, &store, &enc, &seqs, &wt);
        let v = tape.value(loss).get(0, 0);
        assert!(v.is_finite() && v > 0.0, "loss = {v}");
    }

    #[test]
    fn training_reduces_reconstruction_loss() {
        let wt = uniform_weights(8);
        let vocab = wt.len();
        let (mut store, model) = tiny_model(vocab, 4);
        let mut opt = Adam::new(5e-3).with_max_grad_norm(5.0);
        let seqs: Vec<Vec<usize>> = vec![vec![2, 3, 4, 5], vec![5, 4, 3], vec![2, 4, 6]];
        let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
        let loss_at = |store: &ParamStore| -> f32 {
            let mut tape = Tape::new();
            let enc = model.encoder.encode(&mut tape, store, &refs);
            let loss = model.reconstruction_loss(&mut tape, store, &enc, &refs, &wt);
            tape.value(loss).get(0, 0)
        };
        let before = loss_at(&store);
        for _ in 0..30 {
            let mut tape = Tape::new();
            let enc = model.encoder.encode(&mut tape, &store, &refs);
            let loss = model.reconstruction_loss(&mut tape, &store, &enc, &refs, &wt);
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        let after = loss_at(&store);
        assert!(
            after < before * 0.9,
            "training did not reduce loss: {before} -> {after}"
        );
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let (store, model) = tiny_model(8, 0);
        let mut tape = Tape::new();
        let _ = model.encoder.encode(&mut tape, &store, &[]);
    }
}
