//! Gated Recurrent Unit layers.
//!
//! The paper's encoder/decoder use a 3-layer GRU ("because it has a better
//! embedding performance compared with the LSTM network", §VII-B). We
//! implement the standard GRU cell
//!
//! ```text
//! r_t = σ(x_t W_xr + h_{t-1} W_hr + b_r)
//! z_t = σ(x_t W_xz + h_{t-1} W_hz + b_z)
//! n_t = tanh(x_t W_xn + b_xn + r_t ⊙ (h_{t-1} W_hn + b_hn))
//! h_t = (1 − z_t) ⊙ n_t + z_t ⊙ h_{t-1}
//! ```
//!
//! composed from the primitive tape ops, so the whole recurrence is
//! differentiated automatically through time (BPTT).
//!
//! The three gates share their matmuls: per direction the cell stores one
//! fused weight `[W_r | W_z | W_n]` of width `3 * hidden`, so a step costs
//! two matrix products (`x @ W_x`, `h @ W_h`) instead of six, with the
//! per-gate pre-activations recovered by column slicing (the cuDNN/PyTorch
//! fused-gate layout). The candidate's recurrent bias lives in the third
//! block of `b_h` so that `n = tanh(gx_n + r ⊙ gh_n)` keeps the paper's
//! `r ⊙ (h W_hn + b_hn)` form; the r/z blocks of `b_h` stay zero and fold
//! into `b_x`.

use crate::init::Init;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use rand::Rng;

/// Draws the two fused weights `[W_xr|W_xz|W_xn]` and `[W_hr|W_hz|W_hn]`.
/// Each block keeps its own Xavier bound, so the fan-in / fan-out statistics
/// match separate `(rows, hidden)` gate matrices; the blocks are drawn in
/// the pre-fusion order (xr, hr, xz, hz, xn, hn) so a seeded run realizes
/// bit-identical initial weights to the unfused layout.
fn fused_gate_init(input: usize, hidden: usize, rng: &mut impl Rng) -> (Tensor, Tensor) {
    let xavier = Init::XavierUniform;
    let xr = xavier.tensor(input, hidden, rng);
    let hr = xavier.tensor(hidden, hidden, rng);
    let xz = xavier.tensor(input, hidden, rng);
    let hz = xavier.tensor(hidden, hidden, rng);
    let xn = xavier.tensor(input, hidden, rng);
    let hn = xavier.tensor(hidden, hidden, rng);
    (xr.concat_cols(&xz).concat_cols(&xn), hr.concat_cols(&hz).concat_cols(&hn))
}

/// One GRU cell (a single layer's recurrence step) with fused gate weights.
#[derive(Clone, Copy, Debug)]
pub struct GruCell {
    /// `(input, 3 * hidden)` fused `[W_xr | W_xz | W_xn]`.
    w_x: ParamId,
    /// `(hidden, 3 * hidden)` fused `[W_hr | W_hz | W_hn]`.
    w_h: ParamId,
    /// `(1, 3 * hidden)` fused `[b_r | b_z | b_xn]`.
    b_x: ParamId,
    /// `(1, 3 * hidden)` fused `[0 | 0 | b_hn]`.
    b_h: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Registers a GRU cell's four fused parameter tensors.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let (wx_init, wh_init) = fused_gate_init(input_dim, hidden_dim, rng);
        let w_x = store.add(format!("{name}.w_x"), wx_init);
        let w_h = store.add(format!("{name}.w_h"), wh_init);
        let b_x = store.add(format!("{name}.b_x"), Tensor::zeros(1, 3 * hidden_dim));
        let b_h = store.add(format!("{name}.b_h"), Tensor::zeros(1, 3 * hidden_dim));
        Self { w_x, w_h, b_x, b_h, input_dim, hidden_dim }
    }

    /// One recurrence step: `(x: (batch, input), h: (batch, hidden)) -> h'`.
    pub fn step(&self, tape: &mut Tape, store: &ParamStore, x: Var, h: Var) -> Var {
        debug_assert_eq!(tape.value(x).cols(), self.input_dim, "GRU input width mismatch");
        debug_assert_eq!(tape.value(h).cols(), self.hidden_dim, "GRU hidden width mismatch");
        crate::telemetry::GRU_CELL_STEPS.inc();
        let hd = self.hidden_dim;

        // All six per-gate products collapse into two fused matmuls.
        let w_x = tape.param(store, self.w_x);
        let w_h = tape.param(store, self.w_h);
        let b_x = tape.param(store, self.b_x);
        let b_h = tape.param(store, self.b_h);
        let gx = tape.matmul(x, w_x);
        let gx = tape.add_row_broadcast(gx, b_x);
        let gh = tape.matmul(h, w_h);
        let gh = tape.add_row_broadcast(gh, b_h);

        // r = σ(gx_r + gh_r), z = σ(gx_z + gh_z)
        let gx_r = tape.slice_cols(gx, 0, hd);
        let gh_r = tape.slice_cols(gh, 0, hd);
        let r_pre = tape.add(gx_r, gh_r);
        let r = tape.sigmoid(r_pre);
        let gx_z = tape.slice_cols(gx, hd, 2 * hd);
        let gh_z = tape.slice_cols(gh, hd, 2 * hd);
        let z_pre = tape.add(gx_z, gh_z);
        let z = tape.sigmoid(z_pre);

        // candidate: n = tanh(gx_n + r ⊙ gh_n)
        let gx_n = tape.slice_cols(gx, 2 * hd, 3 * hd);
        let gh_n = tape.slice_cols(gh, 2 * hd, 3 * hd);
        let rh = tape.hadamard(r, gh_n);
        let n_pre = tape.add(gx_n, rh);
        let n = tape.tanh(n_pre);

        // h' = (1 - z) ⊙ n + z ⊙ h
        let one_minus_z = tape.one_minus(z);
        let a = tape.hadamard(one_minus_z, n);
        let b = tape.hadamard(z, h);
        tape.add(a, b)
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Fused `(input, 3 * hidden)` input-to-hidden weight `[W_xr|W_xz|W_xn]`.
    pub fn w_x(&self) -> ParamId {
        self.w_x
    }

    /// Fused `(hidden, 3 * hidden)` recurrent weight `[W_hr|W_hz|W_hn]`.
    pub fn w_h(&self) -> ParamId {
        self.w_h
    }

    /// Fused `(1, 3 * hidden)` input-side bias `[b_r|b_z|b_xn]`.
    pub fn b_x(&self) -> ParamId {
        self.b_x
    }

    /// Fused `(1, 3 * hidden)` recurrent-side bias `[0|0|b_hn]`.
    pub fn b_h(&self) -> ParamId {
        self.b_h
    }
}

/// A stack of GRU cells (the paper uses 3 layers).
#[derive(Clone, Debug)]
pub struct Gru {
    cells: Vec<GruCell>,
}

impl Gru {
    /// Registers a multi-layer GRU. Layer 0 consumes `input_dim`, deeper
    /// layers consume the previous layer's hidden state.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        layers: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(layers >= 1, "GRU needs at least one layer");
        let cells = (0..layers)
            .map(|l| {
                let in_dim = if l == 0 { input_dim } else { hidden_dim };
                GruCell::new(store, &format!("{name}.layer{l}"), in_dim, hidden_dim, rng)
            })
            .collect();
        Self { cells }
    }

    /// Number of stacked layers.
    pub fn layers(&self) -> usize {
        self.cells.len()
    }

    /// The per-layer cells, bottom (input-consuming) layer first.
    pub fn cells(&self) -> &[GruCell] {
        &self.cells
    }

    /// Hidden dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.cells[0].hidden_dim()
    }

    /// Zero initial hidden states (one per layer) for a batch.
    pub fn zero_state(&self, tape: &mut Tape, batch: usize) -> Vec<Var> {
        self.cells
            .iter()
            .map(|c| tape.constant(Tensor::zeros(batch, c.hidden_dim())))
            .collect()
    }

    /// One step through the full stack. `state` holds one hidden Var per
    /// layer and is updated in place; returns the top layer's new hidden.
    pub fn step(&self, tape: &mut Tape, store: &ParamStore, x: Var, state: &mut [Var]) -> Var {
        assert_eq!(state.len(), self.cells.len(), "state/layer count mismatch");
        let mut input = x;
        for (l, cell) in self.cells.iter().enumerate() {
            let h_new = cell.step(tape, store, input, state[l]);
            state[l] = h_new;
            input = h_new;
        }
        input
    }

    /// Like [`Gru::step`], but only updates the hidden state of *active*
    /// batch rows: `mask` is a `(batch, hidden)` tensor whose rows are all
    /// 1.0 for active sequences and all 0.0 for sequences that have already
    /// ended (padding). Ended rows carry their previous hidden state
    /// forward unchanged, so variable-length sequences can share a batch.
    pub fn step_masked(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        state: &mut [Var],
        mask: &Tensor,
    ) -> Var {
        let old_state: Vec<Var> = state.to_vec();
        self.step(tape, store, x, state);
        let inv = mask.map(|m| 1.0 - m);
        for (l, old) in old_state.into_iter().enumerate() {
            let kept_new = tape.mask_mul(state[l], mask.clone());
            let kept_old = tape.mask_mul(old, inv.clone());
            state[l] = tape.add(kept_new, kept_old);
        }
        state[self.cells.len() - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn step_preserves_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "gru", 4, 8, 2, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(3, 4));
        let mut state = gru.zero_state(&mut tape, 3);
        let h = gru.step(&mut tape, &store, x, &mut state);
        assert_eq!(tape.value(h).shape(), (3, 8));
        assert_eq!(state.len(), 2);
    }

    #[test]
    fn zero_input_zero_state_gives_zero_candidate_mix() {
        // With zero input, zero state, and zero biases, n = tanh(0) = 0 and
        // h' = (1-z)*0 + z*0 = 0 regardless of the weights.
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "cell", 2, 3, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(1, 2));
        let h = tape.constant(Tensor::zeros(1, 3));
        let h2 = cell.step(&mut tape, &store, x, h);
        assert!(tape.value(h2).data().iter().all(|&v| v.abs() < 1e-7));
    }

    #[test]
    fn hidden_state_is_bounded_by_one() {
        // h_t is a convex combination of tanh outputs and previous h, so
        // starting from zero state all activations stay in (-1, 1).
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "gru", 3, 5, 3, &mut rng);
        let mut tape = Tape::new();
        let mut state = gru.zero_state(&mut tape, 2);
        let mut last = None;
        for t in 0..10 {
            let x = tape.constant(Tensor::full(2, 3, (t as f32).sin() * 3.0));
            last = Some(gru.step(&mut tape, &store, x, &mut state));
        }
        let h = tape.value(last.expect("ran steps"));
        assert!(h.data().iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn gradients_flow_through_time() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "gru", 2, 4, 1, &mut rng);
        let mut tape = Tape::new();
        let seq: Vec<Var> = (0..5)
            .map(|t| tape.constant(Tensor::full(1, 2, 0.3 * (t as f32 + 1.0))))
            .collect();
        let mut state = gru.zero_state(&mut tape, 1);
        let last = seq
            .iter()
            .map(|&x| gru.step(&mut tape, &store, x, &mut state))
            .last()
            .expect("non-empty");
        let loss = tape.mean_all(last);
        tape.backward(loss, &mut store);
        let total: f32 = store.ids().map(|id| store.grad(id).norm()).sum();
        assert!(total > 0.0, "no gradient reached the GRU parameters");
    }
}
