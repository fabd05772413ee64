//! Tape-free inference path.
//!
//! Training forwards go through [`crate::tape::Tape`], which interns every
//! intermediate (and a *clone of every parameter tensor*, once per
//! [`Tape::clear`](crate::tape::Tape::clear) cycle) so the backward sweep
//! can revisit them. A forward that is never differentiated needs none of
//! that: no node bookkeeping, no saved activations, no gradient buffers,
//! and no copy of the embedding table per batch. This module provides the
//! `eval` twins of the encoder's layer forwards — [`Embedding::eval`],
//! [`GruCell::eval_step`], and the stack-level
//! [`Gru::eval_step`](crate::layers::Gru::eval_step) /
//! [`Gru::eval_step_masked`](crate::layers::Gru::eval_step_masked) — that
//! read [`ParamStore`] weights in place and stage every intermediate in a
//! caller-owned [`Scratch`] pool, so steady-state batched inference
//! performs zero heap allocation. The decoder, projection and attention
//! only ever run under a loss that is backpropagated, so they have no
//! twins.
//!
//! # Bit parity with the tape
//!
//! The eval twins are *mirrors*, not reimplementations: each one replays
//! the training forward's exact kernel sequence —
//!
//! * matrix products call the same register-tiled kernel with the same
//!   serial/parallel threshold ([`Tensor::matmul_acc`] into a zeroed
//!   scratch buffer is the same code path as [`Tensor::matmul`] minus the
//!   fresh allocation);
//! * element-wise chains reproduce the tape's per-element expression tree,
//!   including rounding order — e.g. the GRU update keeps the tape's
//!   literal `(-1.0 * z + 1.0)` for `1 − z` (from `Tape::one_minus`) and
//!   rounds each product before the final add, and the masked step keeps
//!   `new ⊙ m + old ⊙ (1.0 − m)` as two separately-rounded products;
//! * nonlinearities call the same `fast_sigmoid`/`fast_tanh`
//!   polynomials.
//!
//! Scalar Rust never contracts `a * b + c` into an FMA, so these sequences
//! are reproducible element for element; `tests` and the encoder-level
//! parity tests in `e2dtc`'s `encoder` module pin the outputs down to the
//! bit.
//!
//! # Scratch lifecycle
//!
//! [`Scratch`] is a free list of `Vec<f32>` buffers. [`Scratch::take`]
//! pops one (or starts empty), clears it, zero-fills it to the requested
//! shape — reusing its capacity — and wraps it in a [`Tensor`];
//! [`Scratch::put`] returns a tensor's buffer to the list. Callers that
//! keep one `Scratch` per thread (e.g. `thread_local!` in a rayon pool)
//! reach a fixed point after the first batch: every `take` is served from
//! the free list and the inference loop stops touching the allocator.
//! `Scratch` is deliberately `!Sync` — each thread owns its pool, which is
//! what makes sharing the *model* (`&ParamStore`, read-only) across
//! threads race-free.

use crate::layers::{Embedding, GruCell};
use crate::params::ParamStore;
use crate::tensor::{fast_sigmoid, fast_tanh, Tensor};

/// Reusable pool of tensor buffers for allocation-free inference.
#[derive(Debug, Default)]
pub struct Scratch {
    free: Vec<Vec<f32>>,
}

impl Scratch {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a zeroed `(rows, cols)` tensor, reusing a pooled buffer's
    /// capacity when one is available.
    pub fn take(&mut self, rows: usize, cols: usize) -> Tensor {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf.resize(rows * cols, 0.0);
        Tensor::from_vec(rows, cols, buf)
    }

    /// Returns a tensor's buffer to the pool for reuse.
    pub fn put(&mut self, t: Tensor) {
        self.free.push(t.into_vec());
    }

    /// Number of buffers currently parked in the pool.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

impl Embedding {
    /// Tape-free twin of [`Embedding::forward`]: looks up a batch of token
    /// ids, producing `(ids.len(), dim)` from the scratch pool.
    ///
    /// # Panics
    /// Panics if an id is out of vocabulary range.
    pub fn eval(&self, store: &ParamStore, ids: &[usize], scratch: &mut Scratch) -> Tensor {
        assert!(
            ids.iter().all(|&i| i < self.vocab()),
            "token id out of range (vocab = {})",
            self.vocab()
        );
        let table = store.get(self.table());
        let mut out = scratch.take(ids.len(), self.dim());
        for (i, &idx) in ids.iter().enumerate() {
            out.row_mut(i).copy_from_slice(table.row(idx));
        }
        out
    }
}

impl GruCell {
    /// Tape-free twin of [`GruCell::step`]:
    /// `(x: (batch, input), h: (batch, hidden)) -> h'`.
    pub fn eval_step(
        &self,
        store: &ParamStore,
        x: &Tensor,
        h: &Tensor,
        scratch: &mut Scratch,
    ) -> Tensor {
        debug_assert_eq!(x.cols(), self.input_dim(), "GRU input width mismatch");
        debug_assert_eq!(h.cols(), self.hidden_dim(), "GRU hidden width mismatch");
        crate::telemetry::GRU_CELL_STEPS.inc();
        let hd = self.hidden_dim();
        let batch = x.rows();

        // Same two fused products as the tape step, accumulated into
        // zeroed scratch (bit-identical to `matmul` + row-broadcast add).
        let mut gx = scratch.take(batch, 3 * hd);
        x.matmul_acc(store.get(self.w_x()), &mut gx);
        let b_x = store.get(self.b_x());
        for r in 0..batch {
            for (d, &b) in gx.row_mut(r).iter_mut().zip(b_x.data()) {
                *d += b;
            }
        }
        let mut gh = scratch.take(batch, 3 * hd);
        h.matmul_acc(store.get(self.w_h()), &mut gh);
        let b_h = store.get(self.b_h());
        for r in 0..batch {
            for (d, &b) in gh.row_mut(r).iter_mut().zip(b_h.data()) {
                *d += b;
            }
        }

        // Gate math, rounded exactly as the tape's op chain rounds it.
        let mut out = scratch.take(batch, hd);
        for r in 0..batch {
            let gx_row = &gx.data()[r * 3 * hd..(r + 1) * 3 * hd];
            let gh_row = &gh.data()[r * 3 * hd..(r + 1) * 3 * hd];
            let h_row = &h.data()[r * hd..(r + 1) * hd];
            let start = r * hd;
            for j in 0..hd {
                let rr = fast_sigmoid(gx_row[j] + gh_row[j]);
                let z = fast_sigmoid(gx_row[hd + j] + gh_row[hd + j]);
                let rh = rr * gh_row[2 * hd + j];
                let n = fast_tanh(gx_row[2 * hd + j] + rh);
                // Tape spells 1 − z as `-1.0 * z + 1.0` (Tape::one_minus);
                // keep the literal form so rounding matches.
                #[allow(clippy::neg_multiply)]
                let one_minus_z = -1.0 * z + 1.0;
                let a = one_minus_z * n;
                let b = z * h_row[j];
                out.data_mut()[start + j] = a + b;
            }
        }
        scratch.put(gx);
        scratch.put(gh);
        out
    }
}

impl crate::layers::Gru {
    /// Tape-free twin of [`Gru::step`](crate::layers::Gru::step): one step
    /// through the full stack.
    /// `state` holds one `(batch, hidden)` tensor per layer and is updated
    /// in place; displaced state buffers are returned to `scratch`.
    pub fn eval_step(
        &self,
        store: &ParamStore,
        x: &Tensor,
        state: &mut [Tensor],
        scratch: &mut Scratch,
    ) {
        assert_eq!(state.len(), self.layers(), "state/layer count mismatch");
        for (l, cell) in self.cells().iter().enumerate() {
            // Layer l reads the previous layer's fresh hidden as input.
            let h_new = if l == 0 {
                cell.eval_step(store, x, &state[0], scratch)
            } else {
                let (done, rest) = state.split_at(l);
                cell.eval_step(store, &done[l - 1], &rest[0], scratch)
            };
            let old = std::mem::replace(&mut state[l], h_new);
            scratch.put(old);
        }
    }

    /// Tape-free twin of [`Gru::step_masked`](crate::layers::Gru::step_masked):
    /// runs the full unmasked stack, then folds each layer's state as
    /// `new ⊙ mask + old ⊙ (1 − mask)` with the tape's exact rounding, so
    /// ended (padding) rows carry their previous hidden state forward.
    pub fn eval_step_masked(
        &self,
        store: &ParamStore,
        x: &Tensor,
        state: &mut [Tensor],
        mask: &Tensor,
        scratch: &mut Scratch,
    ) {
        assert_eq!(state.len(), self.layers(), "state/layer count mismatch");
        // The unmasked step must see the *pre-step* states, and the mask
        // fold needs them afterwards too — stage copies in scratch.
        let mut carry: Option<Tensor> = None;
        for (l, cell) in self.cells().iter().enumerate() {
            let input: &Tensor = carry.as_ref().unwrap_or(x);
            let mut h_new = cell.eval_step(store, input, &state[l], scratch);
            if let Some(prev) = carry.take() {
                scratch.put(prev);
            }
            // The next layer consumes the unmasked output.
            let mut next_input = scratch.take(h_new.rows(), h_new.cols());
            next_input.data_mut().copy_from_slice(h_new.data());
            // Masked fold into the layer state: mirrors the tape's
            // `mask_mul(new, m) + mask_mul(old, 1 − m)` chain.
            for (d, (&o, &m)) in
                h_new.data_mut().iter_mut().zip(state[l].data().iter().zip(mask.data()))
            {
                let kept_new = *d * m;
                let kept_old = o * (1.0 - m);
                *d = kept_new + kept_old;
            }
            let old = std::mem::replace(&mut state[l], h_new);
            scratch.put(old);
            carry = Some(next_input);
        }
        if let Some(prev) = carry.take() {
            scratch.put(prev);
        }
    }

    /// Zero initial hidden states (one per layer) from the scratch pool.
    pub fn eval_zero_state(&self, batch: usize, scratch: &mut Scratch) -> Vec<Tensor> {
        self.cells().iter().map(|c| scratch.take(batch, c.hidden_dim())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::Gru;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn embedding_eval_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "emb", 9, 4, &mut rng);
        let ids = [3usize, 0, 8, 3];

        let mut tape = Tape::new();
        let y_tape = emb.forward(&mut tape, &store, &ids);

        let mut scratch = Scratch::new();
        let y = emb.eval(&store, &ids, &mut scratch);
        assert_eq!(bits(tape.value(y_tape)), bits(&y));
    }

    #[test]
    fn gru_eval_step_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "gru", 4, 6, 3, &mut rng);
        let x = Init::Normal(0.5).tensor(3, 4, &mut rng);

        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let mut tape_state = gru.zero_state(&mut tape, 3);
        for _ in 0..4 {
            gru.step(&mut tape, &store, xv, &mut tape_state);
        }

        let mut scratch = Scratch::new();
        let mut state = gru.eval_zero_state(3, &mut scratch);
        for _ in 0..4 {
            gru.eval_step(&store, &x, &mut state, &mut scratch);
        }
        for (l, s) in state.iter().enumerate() {
            assert_eq!(bits(tape.value(tape_state[l])), bits(s), "layer {l}");
        }
    }

    #[test]
    fn gru_eval_step_masked_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "gru", 3, 5, 2, &mut rng);
        let x = Init::Normal(0.5).tensor(4, 3, &mut rng);
        // Rows 1 and 3 have ended (mask 0): they must carry state forward.
        let mask = Tensor::from_vec(
            4,
            5,
            (0..4).flat_map(|r| [if r % 2 == 0 { 1.0f32 } else { 0.0 }; 5]).collect(),
        );

        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let mut tape_state = gru.zero_state(&mut tape, 4);
        gru.step(&mut tape, &store, xv, &mut tape_state);
        gru.step_masked(&mut tape, &store, xv, &mut tape_state, &mask);

        let mut scratch = Scratch::new();
        let mut state = gru.eval_zero_state(4, &mut scratch);
        gru.eval_step(&store, &x, &mut state, &mut scratch);
        gru.eval_step_masked(&store, &x, &mut state, &mask, &mut scratch);
        for (l, s) in state.iter().enumerate() {
            assert_eq!(bits(tape.value(tape_state[l])), bits(s), "layer {l}");
        }
    }

    #[test]
    fn scratch_reaches_allocation_fixed_point() {
        let mut rng = StdRng::seed_from_u64(16);
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "gru", 4, 6, 2, &mut rng);
        let x = Init::Normal(0.5).tensor(3, 4, &mut rng);
        let mut scratch = Scratch::new();

        // Warm-up batch populates the pool…
        let mut state = gru.eval_zero_state(3, &mut scratch);
        for _ in 0..3 {
            gru.eval_step(&store, &x, &mut state, &mut scratch);
        }
        for s in state {
            scratch.put(s);
        }
        let pooled = scratch.pooled();
        // …after which the pool size is steady across whole batches.
        for _ in 0..5 {
            let mut state = gru.eval_zero_state(3, &mut scratch);
            for _ in 0..3 {
                gru.eval_step(&store, &x, &mut state, &mut scratch);
            }
            for s in state {
                scratch.put(s);
            }
            assert_eq!(scratch.pooled(), pooled, "pool should not grow at steady state");
        }
    }
}
