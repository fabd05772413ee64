//! The decoder output layer's one tape node (`Linear::softmax_nll`) must
//! give, bit for bit, the loss and the `h`, `W` and `b` gradients of the
//! unfused composition it replaces: `tape.matmul` and `add_row_broadcast`
//! over the whole batch, then the Eq. 8 weighted softmax NLL, with ended
//! rows carrying empty targets (no loss, zero gradient).
//!
//! The oracle's NLL is written here: its forward value is computed from
//! the oracle's logits, and its gradient enters the tape through
//! `sum_all(logits ⊙ dlogits)`, whose backward hands `dlogits` to the
//! bias broadcast unchanged (`1.0 · x = x`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traj_nn::init::Init;
use traj_nn::layers::Linear;
use traj_nn::tensor::softmax_in_place;
use traj_nn::{ParamId, ParamStore, Tape, Tensor, Var};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

struct Case {
    store: ParamStore,
    h: ParamId,
    layer: Linear,
    /// Gradient pre-filled into `h`'s slot before the output node's
    /// backward runs, when set.
    prefill: Option<Tensor>,
    live: Vec<usize>,
    /// One sparse target per live row, in `live` order.
    targets: Vec<Vec<(usize, f32)>>,
}

impl Case {
    fn new(batch: usize, hidden: usize, vocab: usize, live: Vec<usize>, prefill: bool) -> Self {
        let mut rng = StdRng::seed_from_u64((batch * 1000 + vocab + live.len()) as u64);
        let mut store = ParamStore::new();
        let h = store.add("h", Init::Uniform(1.5).tensor(batch, hidden, &mut rng));
        let layer = Linear::new(&mut store, "proj", hidden, vocab, &mut rng);
        *store.get_mut(layer.bias()) = Init::Uniform(0.5).tensor(1, vocab, &mut rng);
        let prefill = prefill.then(|| Init::Uniform(0.3).tensor(batch, hidden, &mut rng));
        let targets = live
            .iter()
            .map(|_| {
                let cells: Vec<usize> = (0..3).map(|_| rng.gen_range(0..vocab)).collect();
                vec![(cells[0], 0.5), (cells[1], 0.3), (cells[2], 0.2)]
            })
            .collect();
        Self { store, h, layer, prefill, live, targets }
    }

    /// Adds `sum(h ⊙ prefill)` after the output node, so backward fills
    /// `h`'s gradient slot with `prefill` before the output node runs.
    fn with_prefill(&self, tape: &mut Tape, hv: Var, loss: Var) -> Var {
        match &self.prefill {
            Some(c) => {
                let cv = tape.constant(c.clone());
                let term = tape.hadamard(hv, cv);
                let extra = tape.sum_all(term);
                tape.add(loss, extra)
            }
            None => loss,
        }
    }

    /// `(loss, h grad, W grad, b grad)` of the fused node.
    fn fused(&mut self) -> (f32, Tensor, Tensor, Tensor) {
        self.store.zero_grads();
        let mut tape = Tape::new();
        let hv = tape.param(&self.store, self.h);
        let live = (self.live.len() < self.store.get(self.h).rows()).then_some(&self.live[..]);
        let nll = self.layer.softmax_nll(&mut tape, &self.store, hv, live, self.targets.clone());
        let value = tape.value(nll).get(0, 0);
        let loss = self.with_prefill(&mut tape, hv, nll);
        tape.backward(loss, &mut self.store);
        let (dh, dw, db) = self.grads();
        (value, dh, dw, db)
    }

    /// The same through the unfused full-batch composition.
    fn oracle(&mut self) -> (f32, Tensor, Tensor, Tensor) {
        self.store.zero_grads();
        let mut tape = Tape::new();
        let hv = tape.param(&self.store, self.h);
        let w = tape.param(&self.store, self.layer.weight());
        let product = tape.matmul(hv, w);
        let b = tape.param(&self.store, self.layer.bias());
        let logits = tape.add_row_broadcast(product, b);

        // The Eq. 8 NLL over every row; ended rows have empty targets.
        let batch = tape.value(logits).rows();
        let mut row_targets = vec![Vec::new(); batch];
        for (&r, t) in self.live.iter().zip(&self.targets) {
            row_targets[r] = t.clone();
        }
        let mut probs = tape.value(logits).clone();
        for r in 0..batch {
            softmax_in_place(probs.row_mut(r));
        }
        let mut loss = 0.0;
        for (r, tgt) in row_targets.iter().enumerate() {
            for &(j, wt) in tgt {
                loss -= wt * probs.row(r)[j].max(1e-12).ln();
            }
        }
        let active = row_targets.iter().filter(|t| !t.is_empty()).count().max(1) as f32;
        let value = loss / active;
        let gscale = 1.0 / active;
        let mut dlogits = Tensor::zeros(batch, probs.cols());
        for (r, tgt) in row_targets.iter().enumerate() {
            if tgt.is_empty() {
                continue;
            }
            let row = dlogits.row_mut(r);
            row.copy_from_slice(probs.row(r));
            for x in row.iter_mut() {
                *x *= gscale;
            }
            for &(j, wt) in tgt {
                row[j] -= wt * gscale;
            }
        }
        let dv = tape.constant(dlogits);
        let surrogate = tape.hadamard(logits, dv);
        let nll = tape.sum_all(surrogate);
        let loss = self.with_prefill(&mut tape, hv, nll);
        tape.backward(loss, &mut self.store);
        let (dh, dw, db) = self.grads();
        (value, dh, dw, db)
    }

    fn grads(&self) -> (Tensor, Tensor, Tensor) {
        let g = |id| self.store.grad(id).clone();
        (g(self.h), g(self.layer.weight()), g(self.layer.bias()))
    }
}

fn assert_parity(batch: usize, hidden: usize, vocab: usize, live: &[usize]) {
    for prefill in [false, true] {
        let mut case = Case::new(batch, hidden, vocab, live.to_vec(), prefill);
        let (loss, dh, dw, db) = case.fused();
        let (want_loss, want_dh, want_dw, want_db) = case.oracle();
        let tag = format!("batch {batch}, live {live:?}, prefilled h grad: {prefill}");
        assert_eq!(loss.to_bits(), want_loss.to_bits(), "loss, {tag}");
        assert_eq!(bits(&dh), bits(&want_dh), "h grad, {tag}");
        assert_eq!(bits(&dw), bits(&want_dw), "W grad, {tag}");
        assert_eq!(bits(&db), bits(&want_db), "b grad, {tag}");
    }
}

#[test]
fn fused_output_node_is_bitwise_the_unfused_composition() {
    // Batch 5 has one 4-row tile (rows 0-3) and one tail row (4); batch 9
    // has two tiles and a tail row; batch 32 is all tiles. A vocabulary of
    // 37 leaves a ragged column tail after two 16-column tiles.
    let cases: [(usize, Vec<usize>); 9] = [
        (5, (0..5).collect()),
        (5, vec![0, 2, 4]),
        (5, vec![1, 3]),
        (5, vec![4]),
        (9, vec![0, 3, 5, 8]),
        (9, vec![1, 2, 6, 7, 8]),
        (9, (0..8).collect()),
        (32, (0..32).filter(|r| r % 8 != 7).collect()),
        (32, (0..32).filter(|r| r % 3 == 0).collect()),
    ];
    for (batch, live) in &cases {
        assert_parity(*batch, 7, 37, live);
    }
}

#[test]
fn fused_output_node_is_bitwise_the_unfused_composition_above_the_parallel_threshold() {
    // 56 live rows × 48 × 800 = 2.15M madds is above `PAR_FLOP_THRESHOLD`
    // (2^21 = 2.10M), so the forward and both gradient products run on
    // the pool.
    let live: Vec<usize> = (0..64).filter(|r| r % 8 != 7).collect();
    assert_parity(64, 48, 800, &live);
}
