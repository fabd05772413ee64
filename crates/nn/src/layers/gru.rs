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
//! The three gates share their matmuls: per direction the cell stores one
//! fused weight `[W_r | W_z | W_n]` of width `3 * hidden`, so a step costs
//! two matrix products (`x @ W_x`, `h @ W_h`) instead of six (the
//! cuDNN/PyTorch fused-gate layout). The candidate's recurrent bias lives
//! in the third block of `b_h` so that `n = tanh(gx_n + r ⊙ gh_n)` keeps
//! the paper's `r ⊙ (h W_hn + b_hn)` form; the r/z blocks of `b_h` stay
//! zero and fold into `b_x`.
//!
//! The cell's arithmetic is one kernel, `GruCell::forward_into`, which
//! both [`Gru::eval_step`] and the tape's one node per step
//! ([`Gru::step`]) call, so the two forwards agree to the bit by
//! construction; the node's backward is `step_backward` below.
//!
//! Variable-length sequences share a batch through *live rows*: a step
//! may name the rows whose sequence is still running, and then each layer
//! gathers those rows, runs the kernel on that compact batch and writes
//! `h'` back, while ended rows keep `h` exactly. A row's `h'` does not
//! depend on which other rows are in the batch (DESIGN §9), so this is
//! bit-identical to stepping the whole batch and keeping the ended rows'
//! state, at the cost of the live rows only.

use crate::infer::Scratch;
use crate::init::Init;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use crate::tensor::{fast_sigmoid, fast_tanh, Tensor};
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

    /// One recurrence step on the tape:
    /// `(x: (batch, input), h: (batch, hidden)) -> h'`.
    pub fn step(&self, tape: &mut Tape, store: &ParamStore, x: Var, h: Var) -> Var {
        tape.gru_cell(store, self, x, h, None)
    }

    /// The cell's arithmetic, shared by the tape and eval forwards. Takes
    /// zeroed `gx`, `gh` `(batch, 3 * hidden)` and `out` `(batch, hidden)`;
    /// leaves the gates `[r | z | n]` in `gx`, `h W_h + b_h` in `gh` and `h'`
    /// in `out`. Callers pass only the live rows of a ragged batch.
    pub(crate) fn forward_into(
        &self,
        store: &ParamStore,
        x: &Tensor,
        h: &Tensor,
        gx: &mut Tensor,
        gh: &mut Tensor,
        out: &mut Tensor,
    ) {
        debug_assert_eq!(x.cols(), self.input_dim, "GRU input width mismatch");
        debug_assert_eq!(h.cols(), self.hidden_dim, "GRU hidden width mismatch");
        crate::telemetry::GRU_CELL_STEPS.inc();
        crate::telemetry::GRU_CELL_ROWS.add(x.rows() as u64);
        x.affine_acc(store.get(self.w_x), store.get(self.b_x), gx);
        h.affine_acc(store.get(self.w_h), store.get(self.b_h), gh);
        for row in 0..x.rows() {
            gates_row(gx.row_mut(row), gh.row(row), h.row(row), out.row_mut(row));
        }
    }

    /// [`GruCell::forward_into`] on `scratch` buffers, returning `h'`.
    fn eval_forward(
        &self,
        store: &ParamStore,
        x: &Tensor,
        h: &Tensor,
        scratch: &mut Scratch,
    ) -> Tensor {
        let (batch, hd) = h.shape();
        let mut gx = scratch.take(batch, 3 * hd);
        let mut gh = scratch.take(batch, 3 * hd);
        let mut out = scratch.take(batch, hd);
        self.forward_into(store, x, h, &mut gx, &mut gh, &mut out);
        scratch.put(gx);
        scratch.put(gh);
        out
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

/// One row of [`GruCell::forward_into`], one zipped pass per gate block so
/// each loop vectorizes. Out of line so its slice arguments are known not
/// to alias: inlined, the loops got runtime overlap checks and the eval
/// step ran about 8% slower (batch 32, hidden 48).
#[inline(never)]
fn gates_row(gx: &mut [f32], gh: &[f32], h: &[f32], out: &mut [f32]) {
    let hd = out.len();
    let (r, rest) = gx.split_at_mut(hd);
    let (z, n) = rest.split_at_mut(hd);
    let (gh_r, rest) = gh.split_at(hd);
    let (gh_z, gh_n) = rest.split_at(hd);
    for (r, &ghr) in r.iter_mut().zip(gh_r) {
        *r = fast_sigmoid(*r + ghr);
    }
    for (z, &ghz) in z.iter_mut().zip(gh_z) {
        *z = fast_sigmoid(*z + ghz);
    }
    for ((n, &ghn), &r) in n.iter_mut().zip(gh_n).zip(&*r) {
        *n = fast_tanh(*n + r * ghn);
    }
    for (((o, &z), &n), &hv) in out.iter_mut().zip(&*z).zip(&*n).zip(h) {
        *o = (1.0 - z) * n + z * hv;
    }
}

/// Backward of [`GruCell::forward_into`] from `g = ∂L/∂out`, given the
/// input state `h` and the cached `gates` and `gh`. Returns the `∂L/∂h`
/// term through `z ⊙ h`, then `∂L/∂(x W_x + b_x)` and
/// `∂L/∂(h W_h + b_h)`. The caller adds the `h` term before the `W_h`
/// product, and does the `b_h`/`W_h` side before the `b_x`/`W_x` side:
/// with the expressions below, that repeats the rounding of the cell
/// differentiated through primitive tape ops, so gradients and trained
/// models match that composition to the bit.
pub(crate) fn step_backward(
    g: &Tensor,
    h: &Tensor,
    gates: &Tensor,
    gh: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let (batch, hd) = h.shape();
    let mut dh_update = Tensor::zeros(batch, hd);
    let mut dgx = Tensor::zeros(batch, 3 * hd);
    let mut dgh = Tensor::zeros(batch, 3 * hd);
    for row in 0..batch {
        let (g, h, gh_n) = (g.row(row), h.row(row), &gh.row(row)[2 * hd..]);
        let du = dh_update.row_mut(row);
        backward_row(g, h, gates.row(row), gh_n, du, dgx.row_mut(row), dgh.row_mut(row));
    }
    (dh_update, dgx, dgh)
}

/// One row of [`step_backward`], out of line for the reason [`gates_row`]
/// is. The r/z blocks of `dgh` equal `dgx`'s. The r block and `dgh` read
/// `g_npre` back from `dgx`, where it is `0 + g_npre`: that differs only in
/// the sign of a zero, and a zero product lands in its buffer as +0 anyway.
#[inline(never)]
fn backward_row(
    g: &[f32],
    h: &[f32],
    gates: &[f32],
    gh_n: &[f32],
    du: &mut [f32],
    dgx: &mut [f32],
    dgh: &mut [f32],
) {
    let hd = h.len();
    let (r, rest) = gates.split_at(hd);
    let (z, n) = rest.split_at(hd);
    for ((du, &gv), &z) in du.iter_mut().zip(g).zip(z) {
        *du = gv * z;
    }
    let (dx_r, rest) = dgx.split_at_mut(hd);
    let (dx_z, dx_n) = rest.split_at_mut(hd);
    // `1 − z` and `a − b` round as the chain's `-1·z + 1` and `a + b·(−1)`
    // do; the left-to-right product grouping is the chain's and must stay.
    for (((d, &gv), &z), &n) in dx_n.iter_mut().zip(g).zip(z).zip(n) {
        *d += gv * (1.0 - z) * (1.0 - n * n);
    }
    for ((((d, &gv), &z), &n), &hv) in dx_z.iter_mut().zip(g).zip(z).zip(n).zip(h) {
        *d += (gv * hv - gv * n) * z * (1.0 - z);
    }
    for (((d, &g_npre), &ghn), &r) in dx_r.iter_mut().zip(&*dx_n).zip(gh_n).zip(r) {
        *d += g_npre * ghn * r * (1.0 - r);
    }
    let (dh_rz, dh_n) = dgh.split_at_mut(2 * hd);
    dh_rz.copy_from_slice(&dgx[..2 * hd]);
    for ((d, &g_npre), &r) in dh_n.iter_mut().zip(&dgx[2 * hd..]).zip(r) {
        *d += g_npre * r;
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

    /// One step through the full stack on the tape. `state` holds one
    /// hidden Var per layer and is updated in place; returns the top
    /// layer's new hidden.
    ///
    /// `live`, when given, lists the rows whose sequence is still running
    /// (the others have ended: padding). Only those rows are computed;
    /// ended rows carry their previous hidden state forward unchanged in
    /// every layer, so variable-length sequences can share a batch.
    pub fn step(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        state: &mut [Var],
        live: Option<&[usize]>,
    ) -> Var {
        assert_eq!(state.len(), self.cells.len(), "state/layer count mismatch");
        let mut input = x;
        for (cell, h) in self.cells.iter().zip(state.iter_mut()) {
            *h = tape.gru_cell(store, cell, input, *h, live);
            input = *h;
        }
        input
    }

    /// One step through the full stack without a tape: the same kernel as
    /// [`Gru::step`], on buffers drawn from `scratch`. `state` holds one
    /// `(batch, hidden)` tensor per layer and is updated in place;
    /// displaced state buffers go back to `scratch`. `live` is as for
    /// [`Gru::step`]: only those rows are computed, and the compact `h'`
    /// of one layer is the next layer's input.
    pub fn eval_step(
        &self,
        store: &ParamStore,
        x: &Tensor,
        state: &mut [Tensor],
        live: Option<&[usize]>,
        scratch: &mut Scratch,
    ) {
        assert_eq!(state.len(), self.cells.len(), "state/layer count mismatch");
        let Some(rows) = live else {
            for (l, cell) in self.cells.iter().enumerate() {
                // Layer l reads layer l − 1's state, already stepped.
                let (below, rest) = state.split_at_mut(l);
                let out = cell.eval_forward(store, below.last().unwrap_or(x), &rest[0], scratch);
                scratch.put(std::mem::replace(&mut rest[0], out));
            }
            return;
        };
        let mut input = scratch.take(rows.len(), x.cols());
        input.gather_rows_from(x, rows);
        for (cell, h) in self.cells.iter().zip(state.iter_mut()) {
            let mut h_live = scratch.take(rows.len(), cell.hidden_dim);
            h_live.gather_rows_from(h, rows);
            let out = cell.eval_forward(store, &input, &h_live, scratch);
            h.scatter_rows(&out, rows);
            scratch.put(h_live);
            scratch.put(std::mem::replace(&mut input, out));
        }
        scratch.put(input);
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
        let h = gru.step(&mut tape, &store, x, &mut state, None);
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
    fn cell_step_records_one_tape_node() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "gru", 2, 3, 1, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::full(2, 2, 0.5));
        let mut state = gru.zero_state(&mut tape, 2);
        // The first step also registers the cell's four parameters.
        gru.step(&mut tape, &store, x, &mut state, None);
        let before = tape.len();
        gru.step(&mut tape, &store, x, &mut state, None);
        assert_eq!(tape.len(), before + 1, "full step");
        gru.step(&mut tape, &store, x, &mut state, Some(&[0]));
        assert_eq!(tape.len(), before + 2, "packed step");
    }

    /// One step of one layer in [`masked_reference`]'s forward.
    struct MaskedStep {
        x: Tensor,
        h: Tensor,
        gates: Tensor,
        gh: Tensor,
        mask: Option<Tensor>,
    }

    fn acc(slot: &mut Option<Tensor>, g: Tensor) {
        match slot {
            Some(existing) => existing.add_assign(&g),
            None => *slot = Some(g),
        }
    }

    /// The tape's matmul backward: `ga += g bᵀ`, `gb += aᵀ g`.
    fn matmul_grads(
        ga: &mut Option<Tensor>,
        gb: &mut Option<Tensor>,
        a: &Tensor,
        bt: &Tensor,
        g: &Tensor,
    ) {
        match ga {
            Some(existing) => g.matmul_acc(bt, existing),
            None => *ga = Some(g.matmul(bt)),
        }
        match gb {
            Some(existing) => a.matmul_tn_acc(g, existing),
            None => *gb = Some(a.matmul_tn(g)),
        }
    }

    /// Gradients of a stack unrolled over a ragged batch.
    struct StackGrads {
        /// Per step, the top layer's output.
        tops: Vec<Tensor>,
        /// Per step, `∂L/∂x_t`.
        xs: Vec<Tensor>,
        /// Per layer, `∂L/∂h0`.
        h0: Vec<Tensor>,
        /// Per layer, `∂L/∂[w_x, w_h, b_x, b_h]`.
        cells: Vec<[Tensor; 4]>,
    }

    /// The row-mask formulation live rows replaced, kept as the reference:
    /// every step runs the cell on the whole batch and folds
    /// `h'·m + h·(1 − m)`, and the backward masks the upstream gradient,
    /// routes `g·(1 − m)` to `h` ahead of the cell's own `h` term, and
    /// takes full-batch products. The loss is `Σ_t Σ c_t ⊙ top_t`, and
    /// gradients accumulate in the order the tape visits the nodes.
    fn masked_reference(
        gru: &Gru,
        store: &ParamStore,
        xs: &[Tensor],
        h0: &[Tensor],
        lens: &[usize],
        cs: &[Tensor],
    ) -> StackGrads {
        let (steps, layers, batch) = (xs.len(), gru.cells.len(), lens.len());
        let mut saved: Vec<Vec<MaskedStep>> = Vec::new();
        let mut tops = Vec::new();
        let mut state = h0.to_vec();
        for t in 0..steps {
            let mut input = xs[t].clone();
            let mut row = Vec::new();
            for (l, cell) in gru.cells.iter().enumerate() {
                let hd = cell.hidden_dim;
                let mask = lens.iter().any(|&n| t >= n).then(|| {
                    let m: Vec<f32> = lens
                        .iter()
                        .flat_map(|&n| vec![if t < n { 1.0 } else { 0.0 }; hd])
                        .collect();
                    Tensor::from_vec(batch, hd, m)
                });
                let h = state[l].clone();
                let mut gates = Tensor::zeros(batch, 3 * hd);
                let mut gh = Tensor::zeros(batch, 3 * hd);
                let mut out = Tensor::zeros(batch, hd);
                cell.forward_into(store, &input, &h, &mut gates, &mut gh, &mut out);
                if let Some(m) = &mask {
                    for ((o, &hv), &mv) in out.data_mut().iter_mut().zip(h.data()).zip(m.data()) {
                        *o = *o * mv + hv * (1.0 - mv);
                    }
                }
                state[l] = out.clone();
                row.push(MaskedStep { x: std::mem::replace(&mut input, out), h, gates, gh, mask });
            }
            tops.push(input);
            saved.push(row);
        }

        let wt: Vec<(Tensor, Tensor)> = gru
            .cells
            .iter()
            .map(|c| (store.get(c.w_x).transpose(), store.get(c.w_h).transpose()))
            .collect();
        let mut g_out: Vec<Vec<Option<Tensor>>> = (0..steps).map(|_| vec![None; layers]).collect();
        let mut g_x: Vec<Option<Tensor>> = vec![None; steps];
        let mut g_h0: Vec<Option<Tensor>> = vec![None; layers];
        let mut g_w: Vec<[Option<Tensor>; 4]> = (0..layers).map(|_| Default::default()).collect();
        for t in (0..steps).rev() {
            acc(&mut g_out[t][layers - 1], cs[t].clone());
            for l in (0..layers).rev() {
                let Some(g) = g_out[t][l].take() else { continue };
                let s = &saved[t][l];
                let (g, dh_fold) = match &s.mask {
                    Some(m) => (g.hadamard(m), Some(g.zip_map(m, |gv, mv| gv * (1.0 - mv)))),
                    None => (g, None),
                };
                let (du, dgx, dgh) = step_backward(&g, &s.h, &s.gates, &s.gh);
                let [gwx, gwh, gbx, gbh] = &mut g_w[l];
                let (before, now) = g_out.split_at_mut(t);
                let h_slot = if t == 0 { &mut g_h0[l] } else { &mut before[t - 1][l] };
                if let Some(f) = dh_fold {
                    acc(h_slot, f);
                }
                acc(h_slot, du);
                acc(gbh, dgh.sum_rows());
                matmul_grads(h_slot, gwh, &s.h, &wt[l].1, &dgh);
                acc(gbx, dgx.sum_rows());
                let x_slot = if l == 0 { &mut g_x[t] } else { &mut now[0][l - 1] };
                matmul_grads(x_slot, gwx, &s.x, &wt[l].0, &dgx);
            }
        }
        // Parameter nodes add their gradient into the store's zeroed one.
        let stored = |g: Option<Tensor>, shape: (usize, usize)| {
            let mut z = Tensor::zeros(shape.0, shape.1);
            z.add_assign(&g.expect("gradient reached"));
            z
        };
        StackGrads {
            tops,
            xs: g_x.into_iter().zip(xs).map(|(g, x)| stored(g, x.shape())).collect(),
            h0: g_h0.into_iter().zip(h0).map(|(g, h)| stored(g, h.shape())).collect(),
            cells: g_w
                .into_iter()
                .zip(&gru.cells)
                .map(|([wx, wh, bx, bh], c)| {
                    let shape = |id| store.get(id).shape();
                    [
                        stored(wx, shape(c.w_x)),
                        stored(wh, shape(c.w_h)),
                        stored(bx, shape(c.b_x)),
                        stored(bh, shape(c.b_h)),
                    ]
                })
                .collect(),
        }
    }

    #[test]
    fn packed_step_is_bitwise_the_masked_reference() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // (input, hidden, layers, lengths): ragged, unsorted, with batches
        // whose last `batch % 4` rows take the matmul kernel's tail path.
        let cases: [(usize, usize, usize, Vec<usize>); 4] = [
            (5, 24, 1, vec![5, 2, 7, 7, 3, 1, 6]),
            (20, 48, 2, (0..27).map(|i| 1 + (i * 7) % 9).collect()),
            (32, 24, 3, (0..13).map(|i| 2 + (i * 5) % 6).collect()),
            (9, 48, 3, vec![4, 4, 4, 4, 1]),
        ];
        for (case, (input, hidden, layers, lens)) in cases.into_iter().enumerate() {
            let batch = lens.len();
            let steps = *lens.iter().max().expect("non-empty batch");
            let mut rng = StdRng::seed_from_u64(60 + case as u64);
            let mut store = ParamStore::new();
            let gru = Gru::new(&mut store, "gru", input, hidden, layers, &mut rng);
            for c in &gru.cells {
                for b in [c.b_x, c.b_h] {
                    *store.get_mut(b) = Init::Uniform(0.3).tensor(1, 3 * hidden, &mut rng);
                }
            }
            let xs: Vec<ParamId> = (0..steps)
                .map(|t| {
                    store.add_init(format!("x{t}"), batch, input, Init::Uniform(1.0), &mut rng)
                })
                .collect();
            let h0: Vec<ParamId> = (0..layers)
                .map(|l| {
                    let init = Init::Uniform(0.8);
                    store.add_init(format!("h0.{l}"), batch, hidden, init, &mut rng)
                })
                .collect();
            let cs: Vec<Tensor> =
                (0..steps).map(|_| Init::Uniform(1.0).tensor(batch, hidden, &mut rng)).collect();

            let mut tape = Tape::new();
            let mut state: Vec<Var> = h0.iter().map(|&id| tape.param(&store, id)).collect();
            let mut tops = Vec::new();
            let mut loss = None;
            for (t, (&x, c)) in xs.iter().zip(&cs).enumerate() {
                let live: Vec<usize> = (0..batch).filter(|&i| t < lens[i]).collect();
                let live = (live.len() < batch).then_some(live.as_slice());
                let xv = tape.param(&store, x);
                let top = gru.step(&mut tape, &store, xv, &mut state, live);
                tops.push(tape.value(top).clone());
                let cv = tape.constant(c.clone());
                let weighted = tape.hadamard(top, cv);
                let step_loss = tape.sum_all(weighted);
                loss = Some(loss.map_or(step_loss, |acc| tape.add(acc, step_loss)));
            }
            tape.backward(loss.expect("steps ran"), &mut store);

            let xs_val: Vec<Tensor> = xs.iter().map(|&id| store.get(id).clone()).collect();
            let h0_val: Vec<Tensor> = h0.iter().map(|&id| store.get(id).clone()).collect();
            let want = masked_reference(&gru, &store, &xs_val, &h0_val, &lens, &cs);
            for (t, (got, want)) in tops.iter().zip(&want.tops).enumerate() {
                assert_eq!(bits(got), bits(want), "case {case} top at step {t}");
            }
            for (t, (&id, want)) in xs.iter().zip(&want.xs).enumerate() {
                assert_eq!(bits(store.grad(id)), bits(want), "case {case} dx at step {t}");
            }
            for (l, (&id, want)) in h0.iter().zip(&want.h0).enumerate() {
                assert_eq!(bits(store.grad(id)), bits(want), "case {case} dh0 layer {l}");
            }
            for (l, (c, want)) in gru.cells.iter().zip(&want.cells).enumerate() {
                for (name, id, want) in [
                    ("w_x", c.w_x, &want[0]),
                    ("w_h", c.w_h, &want[1]),
                    ("b_x", c.b_x, &want[2]),
                    ("b_h", c.b_h, &want[3]),
                ] {
                    assert_eq!(bits(store.grad(id)), bits(want), "case {case} layer {l} d{name}");
                }
            }
        }
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
            last = Some(gru.step(&mut tape, &store, x, &mut state, None));
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
            .map(|&x| gru.step(&mut tape, &store, x, &mut state, None))
            .last()
            .expect("non-empty");
        let loss = tape.mean_all(last);
        tape.backward(loss, &mut store);
        let total: f32 = store.ids().map(|id| store.grad(id).norm()).sum();
        assert!(total > 0.0, "no gradient reached the GRU parameters");
    }
}
