//! Finite-difference validation of every autograd op and layer.
//!
//! Uses f32 central differences with eps = 1e-2 and a 2e-2 relative
//! tolerance — loose enough for single precision, tight enough to catch any
//! sign/transpose/factor-of-two mistake in a backward rule.

use rand::rngs::StdRng;
use rand::SeedableRng;
use traj_nn::gradcheck::assert_grads_close;
use traj_nn::init::Init;
use traj_nn::layers::{Embedding, Gru, GruCell, Linear};
use traj_nn::tape::{student_t_assignment, target_distribution};
use traj_nn::{ParamStore, Tensor};

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

fn seeded_param(store: &mut ParamStore, name: &str, rows: usize, cols: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    store.add_init(name, rows, cols, Init::Uniform(0.8), &mut rng);
}

#[test]
fn matmul_grads() {
    let mut store = ParamStore::new();
    seeded_param(&mut store, "a", 3, 4, 1);
    seeded_param(&mut store, "b", 4, 2, 2);
    let ids: Vec<_> = store.ids().collect();
    assert_grads_close(&mut store, EPS, TOL, |tape, store| {
        let a = tape.param(store, ids[0]);
        let b = tape.param(store, ids[1]);
        let c = tape.matmul(a, b);
        tape.mean_all(c)
    });
}

#[test]
fn add_sub_hadamard_grads() {
    let mut store = ParamStore::new();
    seeded_param(&mut store, "a", 2, 3, 3);
    seeded_param(&mut store, "b", 2, 3, 4);
    let ids: Vec<_> = store.ids().collect();
    assert_grads_close(&mut store, EPS, TOL, |tape, store| {
        let a = tape.param(store, ids[0]);
        let b = tape.param(store, ids[1]);
        let s = tape.add(a, b);
        let d = tape.sub(s, b);
        let h = tape.hadamard(d, b);
        tape.sum_all(h)
    });
}

#[test]
fn broadcast_and_affine_grads() {
    let mut store = ParamStore::new();
    seeded_param(&mut store, "m", 3, 2, 5);
    seeded_param(&mut store, "row", 1, 2, 6);
    let ids: Vec<_> = store.ids().collect();
    assert_grads_close(&mut store, EPS, TOL, |tape, store| {
        let m = tape.param(store, ids[0]);
        let row = tape.param(store, ids[1]);
        let b = tape.add_row_broadcast(m, row);
        let a = tape.affine(b, 1.7, -0.3);
        tape.mean_all(a)
    });
}

#[test]
fn sigmoid_tanh_grads() {
    let mut store = ParamStore::new();
    seeded_param(&mut store, "x", 2, 4, 7);
    let ids: Vec<_> = store.ids().collect();
    assert_grads_close(&mut store, EPS, TOL, |tape, store| {
        let x = tape.param(store, ids[0]);
        let s = tape.sigmoid(x);
        let t = tape.tanh(s);
        tape.sum_all(t)
    });
}

#[test]
fn gather_rows_grads() {
    let mut store = ParamStore::new();
    seeded_param(&mut store, "table", 5, 3, 10);
    let ids: Vec<_> = store.ids().collect();
    assert_grads_close(&mut store, EPS, TOL, |tape, store| {
        let t = tape.param(store, ids[0]);
        let g = tape.gather_rows(t, &[0, 3, 3, 4]);
        let sq = tape.hadamard(g, g);
        tape.sum_all(sq)
    });
}

#[test]
fn projected_softmax_nll_grads() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    seeded_param(&mut store, "h", 5, 4, 21);
    let layer = Linear::new(&mut store, "proj", 4, 6, &mut rng);
    *store.get_mut(layer.bias()) = Init::Uniform(0.8).tensor(1, 6, &mut rng);
    let h = store.ids().next().expect("h registered first");
    // Rows 1 and 4 have ended; kNN-style sparse targets for the three
    // live rows: a few weighted cells per row, summing to 1.
    let live = [0usize, 2, 3];
    let targets = vec![
        vec![(0, 0.7), (1, 0.2), (2, 0.1)],
        vec![(3, 1.0)],
        vec![(4, 0.5), (5, 0.5)],
    ];
    assert_grads_close(&mut store, EPS, TOL, |tape, store| {
        let hv = tape.param(store, h);
        layer.softmax_nll(tape, store, hv, Some(&live), targets.clone())
    });
}

#[test]
fn dec_kl_grads_wrt_embeddings_and_centroids() {
    let mut store = ParamStore::new();
    seeded_param(&mut store, "v", 6, 3, 12);
    seeded_param(&mut store, "c", 2, 3, 13);
    let ids: Vec<_> = store.ids().collect();
    // Fix the target distribution P from the initial Q (it is a constant
    // during each self-training interval, per the paper).
    let p = {
        let q = student_t_assignment(store.get(ids[0]), store.get(ids[1]));
        target_distribution(&q)
    };
    assert_grads_close(&mut store, EPS, TOL, |tape, store| {
        let v = tape.param(store, ids[0]);
        let c = tape.param(store, ids[1]);
        tape.dec_kl(v, c, p.clone())
    });
}

#[test]
fn triplet_grads() {
    let mut store = ParamStore::new();
    seeded_param(&mut store, "a", 4, 3, 14);
    seeded_param(&mut store, "p", 4, 3, 15);
    seeded_param(&mut store, "n", 4, 3, 16);
    let ids: Vec<_> = store.ids().collect();
    // Large margin so every triplet is active (the hinge is non-smooth at
    // the boundary, which would foil finite differences).
    assert_grads_close(&mut store, EPS, TOL, |tape, store| {
        let a = tape.param(store, ids[0]);
        let p = tape.param(store, ids[1]);
        let n = tape.param(store, ids[2]);
        tape.triplet(a, p, n, 50.0)
    });
}

#[test]
fn linear_layer_grads() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut store = ParamStore::new();
    let layer = Linear::new(&mut store, "fc", 3, 4, &mut rng);
    *store.get_mut(layer.bias()) = Init::Uniform(0.8).tensor(1, 4, &mut rng);
    let x = Tensor::from_rows(&[vec![0.3, -0.2, 0.5], vec![-0.4, 0.8, 0.1]]);
    let targets = vec![vec![(1, 0.6), (2, 0.4)], vec![(3, 1.0)]];
    assert_grads_close(&mut store, EPS, TOL, move |tape, store| {
        let xv = tape.constant(x.clone());
        layer.softmax_nll(tape, store, xv, None, targets.clone())
    });
}

#[test]
fn embedding_layer_grads() {
    let mut rng = StdRng::seed_from_u64(18);
    let mut store = ParamStore::new();
    let emb = Embedding::new(&mut store, "emb", 6, 4, &mut rng);
    assert_grads_close(&mut store, EPS, TOL, move |tape, store| {
        let e = emb.forward(tape, store, &[1, 1, 5]);
        let sq = tape.hadamard(e, e);
        tape.sum_all(sq)
    });
}

#[test]
fn gru_cell_grads() {
    let mut rng = StdRng::seed_from_u64(19);
    let mut store = ParamStore::new();
    let cell = GruCell::new(&mut store, "cell", 2, 3, &mut rng);
    let x = Tensor::from_rows(&[vec![0.5, -0.7]]);
    let h = Tensor::from_rows(&[vec![0.1, 0.2, -0.3]]);
    assert_grads_close(&mut store, EPS, TOL, move |tape, store| {
        let xv = tape.constant(x.clone());
        let hv = tape.constant(h.clone());
        let h2 = cell.step(tape, store, xv, hv);
        let sq = tape.hadamard(h2, h2);
        tape.sum_all(sq)
    });
}

#[test]
fn multilayer_gru_bptt_grads() {
    let mut rng = StdRng::seed_from_u64(20);
    let mut store = ParamStore::new();
    let gru = Gru::new(&mut store, "gru", 2, 3, 2, &mut rng);
    let inputs: Vec<Tensor> = (0..4)
        .map(|t| Tensor::from_rows(&[vec![0.2 * t as f32, -0.1 * t as f32]]))
        .collect();
    assert_grads_close(&mut store, EPS, TOL, move |tape, store| {
        let mut state = gru.zero_state(tape, 1);
        let mut last = None;
        for x in &inputs {
            let xv = tape.constant(x.clone());
            last = Some(gru.step(tape, store, xv, &mut state, None));
        }
        let h = last.expect("non-empty sequence");
        let sq = tape.hadamard(h, h);
        tape.sum_all(sq)
    });
}

/// A ragged batch drives `Gru::step` with live rows, some rows having
/// ended, so the packed node (live rows computed, ended rows carried) and
/// its carried-state gradient are checked. The initial states are
/// parameters, so the gradient that reaches them through the carried rows
/// is checked too.
#[test]
fn masked_multilayer_gru_bptt_grads() {
    let (input, hidden, batch) = (2usize, 3usize, 3usize);
    let lens = [4usize, 2, 3];
    let mut rng = StdRng::seed_from_u64(34);
    let mut store = ParamStore::new();
    let gru = Gru::new(&mut store, "gru", input, hidden, 2, &mut rng);
    seeded_param(&mut store, "h0.layer0", batch, hidden, 35);
    seeded_param(&mut store, "h0.layer1", batch, hidden, 36);
    let ids: Vec<_> = store.ids().collect();
    let h0 = [ids[ids.len() - 2], ids[ids.len() - 1]];
    let max_len = *lens.iter().max().expect("non-empty batch");
    let inputs: Vec<Tensor> = (0..max_len)
        .map(|t| Init::Uniform(0.8).tensor(batch, input, &mut StdRng::seed_from_u64(40 + t as u64)))
        .collect();
    let lives: Vec<Option<Vec<usize>>> = (0..max_len)
        .map(|t| {
            lens.iter()
                .any(|&len| t >= len)
                .then(|| (0..batch).filter(|&i| t < lens[i]).collect())
        })
        .collect();
    assert!(lives.iter().filter(|l| l.is_some()).count() >= 2, "rows must end mid-batch");
    assert_grads_close(&mut store, EPS, TOL, move |tape, store| {
        let mut state: Vec<_> = h0.iter().map(|&id| tape.param(store, id)).collect();
        let mut loss = None;
        for (x, live) in inputs.iter().zip(&lives) {
            let xv = tape.constant(x.clone());
            let top = gru.step(tape, store, xv, &mut state, live.as_deref());
            let sq = tape.hadamard(top, top);
            let step_loss = tape.sum_all(sq);
            loss = Some(match loss {
                Some(acc) => tape.add(acc, step_loss),
                None => step_loss,
            });
        }
        let bottom = tape.hadamard(state[0], state[0]);
        let bottom = tape.sum_all(bottom);
        tape.add(loss.expect("non-empty sequence"), bottom)
    });
}

/// The fused-gate cell must be mathematically identical to the textbook
/// unfused formulation. Builds the unfused graph from primitive ops with
/// per-gate weights sliced out of the fused tensors, and compares both the
/// forward output and every parameter gradient block.
#[test]
fn fused_gru_matches_unfused_reference() {
    use traj_nn::tape::Tape;

    let (input, hidden, batch) = (3usize, 4usize, 2usize);
    let mut rng = StdRng::seed_from_u64(30);
    let mut store = ParamStore::new();
    let cell = GruCell::new(&mut store, "cell", input, hidden, &mut rng);

    // Give the biases non-trivial values so their gradients are exercised
    // at a generic point. The r/z blocks of b_h stay zero — that is the
    // fused encoding of the unfused form, which has no such biases.
    {
        let mut bias_rng = StdRng::seed_from_u64(31);
        let bx = Init::Uniform(0.5).tensor(1, 3 * hidden, &mut bias_rng);
        *store.get_mut(cell.b_x()) = bx;
        let bh = store.get_mut(cell.b_h());
        for c in 2 * hidden..3 * hidden {
            bh.set(0, c, 0.3 * (c as f32 - 10.0) / 4.0);
        }
    }

    let x = Init::Uniform(0.9).tensor(batch, input, &mut StdRng::seed_from_u64(32));
    let h0 = Init::Uniform(0.9).tensor(batch, hidden, &mut StdRng::seed_from_u64(33));

    // --- fused pass ---
    let mut tape = Tape::new();
    let xv = tape.constant(x.clone());
    let hv = tape.constant(h0.clone());
    let h1 = cell.step(&mut tape, &store, xv, hv);
    let fused_out = tape.value(h1).clone();
    let loss = tape.mean_all(h1);
    tape.backward(loss, &mut store);

    let col_block = |t: &Tensor, lo: usize, hi: usize| -> Tensor {
        let mut out = Tensor::zeros(t.rows(), hi - lo);
        for r in 0..t.rows() {
            out.row_mut(r).copy_from_slice(&t.row(r)[lo..hi]);
        }
        out
    };
    let h3 = 3 * hidden;
    let wx = store.get(cell.w_x()).clone();
    let wh = store.get(cell.w_h()).clone();
    let bx = store.get(cell.b_x()).clone();
    let bh = store.get(cell.b_h()).clone();

    // --- unfused reference: per-gate params carved out of the fused ones ---
    let mut rstore = ParamStore::new();
    let w_xr = rstore.add("w_xr", col_block(&wx, 0, hidden));
    let w_xz = rstore.add("w_xz", col_block(&wx, hidden, 2 * hidden));
    let w_xn = rstore.add("w_xn", col_block(&wx, 2 * hidden, h3));
    let w_hr = rstore.add("w_hr", col_block(&wh, 0, hidden));
    let w_hz = rstore.add("w_hz", col_block(&wh, hidden, 2 * hidden));
    let w_hn = rstore.add("w_hn", col_block(&wh, 2 * hidden, h3));
    let b_r = rstore.add("b_r", col_block(&bx, 0, hidden));
    let b_z = rstore.add("b_z", col_block(&bx, hidden, 2 * hidden));
    let b_xn = rstore.add("b_xn", col_block(&bx, 2 * hidden, h3));
    let b_hn = rstore.add("b_hn", col_block(&bh, 2 * hidden, h3));

    let mut rtape = Tape::new();
    let xv = rtape.constant(x);
    let hv = rtape.constant(h0);
    let gate = |tape: &mut Tape, store: &ParamStore, wxi, whi, bi| {
        let wxv = tape.param(store, wxi);
        let whv = tape.param(store, whi);
        let bv = tape.param(store, bi);
        let xs = tape.matmul(xv, wxv);
        let hs = tape.matmul(hv, whv);
        let sum = tape.add(xs, hs);
        tape.add_row_broadcast(sum, bv)
    };
    let r_pre = gate(&mut rtape, &rstore, w_xr, w_hr, b_r);
    let r = rtape.sigmoid(r_pre);
    let z_pre = gate(&mut rtape, &rstore, w_xz, w_hz, b_z);
    let z = rtape.sigmoid(z_pre);
    let wxnv = rtape.param(&rstore, w_xn);
    let bxnv = rtape.param(&rstore, b_xn);
    let whnv = rtape.param(&rstore, w_hn);
    let bhnv = rtape.param(&rstore, b_hn);
    let xn = rtape.matmul(xv, wxnv);
    let xn = rtape.add_row_broadcast(xn, bxnv);
    let hn = rtape.matmul(hv, whnv);
    let hn = rtape.add_row_broadcast(hn, bhnv);
    let rh = rtape.hadamard(r, hn);
    let n_pre = rtape.add(xn, rh);
    let n = rtape.tanh(n_pre);
    let omz = rtape.affine(z, -1.0, 1.0);
    let a = rtape.hadamard(omz, n);
    let b = rtape.hadamard(z, hv);
    let h1_ref = rtape.add(a, b);
    let ref_out = rtape.value(h1_ref).clone();
    let rloss = rtape.mean_all(h1_ref);
    rtape.backward(rloss, &mut rstore);

    // Forward outputs agree.
    for (f, r) in fused_out.data().iter().zip(ref_out.data()) {
        assert!((f - r).abs() < 1e-6, "fused forward {f} vs unfused {r}");
    }

    // Each fused gradient block agrees with its per-gate counterpart.
    let assert_block = |fused: &Tensor, lo: usize, hi: usize, reference: &Tensor, what: &str| {
        let block = col_block(fused, lo, hi);
        for (i, (f, r)) in block.data().iter().zip(reference.data()).enumerate() {
            assert!((f - r).abs() < 1e-3, "{what} grad mismatch at {i}: fused {f} vs unfused {r}");
        }
    };
    let gwx = store.grad(cell.w_x()).clone();
    let gwh = store.grad(cell.w_h()).clone();
    let gbx = store.grad(cell.b_x()).clone();
    let gbh = store.grad(cell.b_h()).clone();
    assert_block(&gwx, 0, hidden, rstore.grad(w_xr), "w_xr");
    assert_block(&gwx, hidden, 2 * hidden, rstore.grad(w_xz), "w_xz");
    assert_block(&gwx, 2 * hidden, h3, rstore.grad(w_xn), "w_xn");
    assert_block(&gwh, 0, hidden, rstore.grad(w_hr), "w_hr");
    assert_block(&gwh, hidden, 2 * hidden, rstore.grad(w_hz), "w_hz");
    assert_block(&gwh, 2 * hidden, h3, rstore.grad(w_hn), "w_hn");
    assert_block(&gbx, 0, hidden, rstore.grad(b_r), "b_r");
    assert_block(&gbx, hidden, 2 * hidden, rstore.grad(b_z), "b_z");
    assert_block(&gbx, 2 * hidden, h3, rstore.grad(b_xn), "b_xn");
    assert_block(&gbh, 2 * hidden, h3, rstore.grad(b_hn), "b_hn");
    // The r/z blocks of b_h feed the same pre-activations as b_x's, so
    // their gradients must match b_r / b_z as well.
    assert_block(&gbh, 0, hidden, rstore.grad(b_r), "b_h[r]");
    assert_block(&gbh, hidden, 2 * hidden, rstore.grad(b_z), "b_h[z]");
}
