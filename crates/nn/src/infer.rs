//! Tape-free inference path.
//!
//! Training forwards go through [`crate::tape::Tape`], which interns every
//! intermediate (and a *clone of every parameter tensor*, once per
//! [`Tape::clear`](crate::tape::Tape::clear) cycle) so the backward sweep
//! can revisit them. A forward that is never differentiated needs none of
//! that: no node bookkeeping, no saved activations, no gradient buffers,
//! and no copy of the embedding table per batch. The encoder's eval
//! forward is [`Embedding::eval`] plus
//! [`Gru::eval_step`](crate::layers::Gru::eval_step), which read
//! [`ParamStore`] weights in place and stage every intermediate in a
//! caller-owned [`Scratch`] pool, so steady-state batched inference
//! performs zero heap allocation. `Gru::eval_step` lives beside its tape
//! twin in `layers::gru` and runs the same cell kernel, so the two
//! forwards agree to the bit by construction; this module's tests and
//! the encoder-level tests in `e2dtc`'s `encoder` module still compare
//! them bit for bit. In a ragged batch both step only the live rows
//! (sequences still running): the eval step gathers them into scratch
//! buffers, runs the kernel on that compact batch and scatters `h'` back
//! into the state, so ended rows keep their state untouched. The
//! decoder and projection only ever run under a loss that is
//! backpropagated, so they have no eval forward.
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

use crate::layers::Embedding;
use crate::params::ParamStore;
use crate::tensor::Tensor;

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

impl crate::layers::Gru {
    /// Zero initial hidden states (one per layer) from the scratch pool.
    pub fn eval_zero_state(&self, batch: usize, scratch: &mut Scratch) -> Vec<Tensor> {
        (0..self.layers()).map(|_| scratch.take(batch, self.hidden_dim())).collect()
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
            gru.step(&mut tape, &store, xv, &mut tape_state, None);
        }

        let mut scratch = Scratch::new();
        let mut state = gru.eval_zero_state(3, &mut scratch);
        for _ in 0..4 {
            gru.eval_step(&store, &x, &mut state, None, &mut scratch);
        }
        for (l, s) in state.iter().enumerate() {
            assert_eq!(bits(tape.value(tape_state[l])), bits(s), "layer {l}");
        }
    }

    #[test]
    fn gru_masked_eval_step_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "gru", 3, 5, 2, &mut rng);
        let x = Init::Normal(0.5).tensor(4, 3, &mut rng);
        // Rows 1 and 3 have ended (not live): they must carry state forward.
        let live = [0usize, 2];

        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let mut tape_state = gru.zero_state(&mut tape, 4);
        gru.step(&mut tape, &store, xv, &mut tape_state, None);
        let carried: Vec<Tensor> = tape_state.iter().map(|&h| tape.value(h).clone()).collect();
        gru.step(&mut tape, &store, xv, &mut tape_state, Some(&live));

        let mut scratch = Scratch::new();
        let mut state = gru.eval_zero_state(4, &mut scratch);
        gru.eval_step(&store, &x, &mut state, None, &mut scratch);
        gru.eval_step(&store, &x, &mut state, Some(&live), &mut scratch);
        for (l, s) in state.iter().enumerate() {
            assert_eq!(bits(tape.value(tape_state[l])), bits(s), "layer {l}");
            for r in [1, 3] {
                assert_eq!(s.row(r), carried[l].row(r), "layer {l} ended row {r}");
            }
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
            gru.eval_step(&store, &x, &mut state, None, &mut scratch);
        }
        for s in state {
            scratch.put(s);
        }
        let pooled = scratch.pooled();
        // …after which the pool size is steady across whole batches.
        for _ in 0..5 {
            let mut state = gru.eval_zero_state(3, &mut scratch);
            for _ in 0..3 {
                gru.eval_step(&store, &x, &mut state, None, &mut scratch);
            }
            for s in state {
                scratch.put(s);
            }
            assert_eq!(scratch.pooled(), pooled, "pool should not grow at steady state");
        }
    }
}
