//! Criterion benches for the neural substrate: GRU forward/backward, the
//! decoder's dominant vocabulary projection and the whole decoder output
//! layer (projection plus the Eq. 8 loss), plus the raw matmul
//! kernels (serial vs tiled-parallel) and a per-gate "unfused" GRU
//! reference reproducing the pre-fusion six-matmul recurrence.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use traj_nn::init::Init;
use traj_nn::layers::{Gru, Linear};
use traj_nn::tape::Var;
use traj_nn::{ParamId, ParamStore, Tape, Tensor};

fn bench_gru_forward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut store = ParamStore::new();
    let gru = Gru::new(&mut store, "gru", 32, 48, 2, &mut rng);
    let x = Tensor::full(32, 32, 0.3);
    c.bench_function("gru_step_b32_h48_l2", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let mut state = gru.zero_state(&mut tape, 32);
            black_box(gru.step(&mut tape, &store, xv, &mut state, None))
        })
    });
}

fn bench_gru_bptt(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut store = ParamStore::new();
    let gru = Gru::new(&mut store, "gru", 32, 48, 2, &mut rng);
    let x = Tensor::full(32, 32, 0.3);
    let mut group = c.benchmark_group("gru_bptt");
    group.sample_size(20);
    group.bench_function("seq24_b32_h48_l2", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let mut state = gru.zero_state(&mut tape, 32);
            let mut last = None;
            for _ in 0..24 {
                let xv = tape.constant(x.clone());
                last = Some(gru.step(&mut tape, &store, xv, &mut state, None));
            }
            let h = last.expect("steps ran");
            let loss = tape.mean_all(h);
            tape.backward(loss, &mut store);
            store.zero_grads();
        })
    });
    group.finish();
}

fn bench_vocab_projection(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut store = ParamStore::new();
    let proj = Linear::new(&mut store, "proj", 48, 800, &mut rng);
    let h = Tensor::full(32, 48, 0.2);
    c.bench_function("decoder_projection_b32_h48_v800", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let hv = tape.constant(h.clone());
            black_box(proj.forward(&mut tape, &store, hv))
        })
    });
}

/// The whole decoder output layer of one step: the vocabulary projection
/// plus the Eq. 8 spatial softmax NLL, forward and backward.
fn bench_decoder_output(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut store = ParamStore::new();
    let proj = Linear::new(&mut store, "proj", 48, 800, &mut rng);
    let h = Tensor::full(32, 48, 0.2);
    // Each row's target spreads its weight over 9 cells, the fast
    // preset's `knn_k`.
    let targets: Vec<Vec<(usize, f32)>> =
        (0..32).map(|r| (0..9).map(|j| ((r * 37 + j * 11) % 800, 1.0 / 9.0)).collect()).collect();
    c.bench_function("decoder_output_b32_h48_v800", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let hv = tape.constant(h.clone());
            let logits = proj.forward(&mut tape, &store, hv);
            let loss = tape.weighted_softmax_nll(logits, targets.clone());
            tape.backward(loss, &mut store);
            store.zero_grads();
        })
    });
}

fn bench_matmul_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_kernels");
    group.sample_size(30);
    for &(m, k, n) in &[(96usize, 80usize, 96usize), (256, 256, 256)] {
        let a = Tensor::from_vec(
            m,
            k,
            (0..m * k).map(|i| ((i * 37 + 11) % 97) as f32 / 97.0 - 0.5).collect(),
        );
        let b = Tensor::from_vec(
            k,
            n,
            (0..k * n).map(|i| ((i * 53 + 7) % 89) as f32 / 89.0 - 0.5).collect(),
        );
        group.bench_function(format!("nn_{m}x{k}x{n}_serial"), |bch| {
            bch.iter(|| black_box(a.matmul_with(&b, false)))
        });
        group.bench_function(format!("nn_{m}x{k}x{n}_parallel"), |bch| {
            bch.iter(|| black_box(a.matmul_with(&b, true)))
        });
        let bt = b.transpose();
        group.bench_function(format!("nt_{m}x{k}x{n}_parallel"), |bch| {
            bch.iter(|| black_box(a.matmul_nt_with(&bt, true)))
        });
        let at = a.transpose();
        group.bench_function(format!("tn_{m}x{k}x{n}_parallel"), |bch| {
            bch.iter(|| black_box(at.matmul_tn_with(&b, true)))
        });
    }
    group.finish();
}

/// One GRU layer in the pre-fusion layout: six per-gate weight matrices
/// and four bias rows, each gate product a separate matmul. Kept as a
/// live baseline so `cargo bench` always shows fused vs seed side by side.
struct UnfusedCell {
    w_xr: ParamId,
    w_hr: ParamId,
    w_xz: ParamId,
    w_hz: ParamId,
    w_xn: ParamId,
    w_hn: ParamId,
    b_r: ParamId,
    b_z: ParamId,
    b_xn: ParamId,
    b_hn: ParamId,
}

impl UnfusedCell {
    fn new(store: &mut ParamStore, name: &str, input: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let mut w = |store: &mut ParamStore, g: &str, rows: usize| {
            store.add_init(format!("{name}.{g}"), rows, hidden, Init::XavierUniform, rng)
        };
        let (w_xr, w_hr) = (w(store, "w_xr", input), w(store, "w_hr", hidden));
        let (w_xz, w_hz) = (w(store, "w_xz", input), w(store, "w_hz", hidden));
        let (w_xn, w_hn) = (w(store, "w_xn", input), w(store, "w_hn", hidden));
        let b = |store: &mut ParamStore, g: &str| {
            store.add(format!("{name}.{g}"), Tensor::zeros(1, hidden))
        };
        Self {
            w_xr,
            w_hr,
            w_xz,
            w_hz,
            w_xn,
            w_hn,
            b_r: b(store, "b_r"),
            b_z: b(store, "b_z"),
            b_xn: b(store, "b_xn"),
            b_hn: b(store, "b_hn"),
        }
    }

    fn step(&self, tape: &mut Tape, store: &ParamStore, x: Var, h: Var) -> Var {
        let gate = |tape: &mut Tape, wx: ParamId, wh: ParamId, bias: ParamId| {
            let wxv = tape.param(store, wx);
            let whv = tape.param(store, wh);
            let bv = tape.param(store, bias);
            let xp = tape.matmul(x, wxv);
            let hp = tape.matmul(h, whv);
            let s = tape.add(xp, hp);
            tape.add_row_broadcast(s, bv)
        };
        let r_pre = gate(tape, self.w_xr, self.w_hr, self.b_r);
        let r = tape.sigmoid(r_pre);
        let z_pre = gate(tape, self.w_xz, self.w_hz, self.b_z);
        let z = tape.sigmoid(z_pre);
        let w_xn = tape.param(store, self.w_xn);
        let w_hn = tape.param(store, self.w_hn);
        let b_xn = tape.param(store, self.b_xn);
        let b_hn = tape.param(store, self.b_hn);
        let xn = tape.matmul(x, w_xn);
        let xn = tape.add_row_broadcast(xn, b_xn);
        let hn = tape.matmul(h, w_hn);
        let hn = tape.add_row_broadcast(hn, b_hn);
        let rh = tape.hadamard(r, hn);
        let n_pre = tape.add(xn, rh);
        let n = tape.tanh(n_pre);
        let omz = tape.affine(z, -1.0, 1.0);
        let a = tape.hadamard(omz, n);
        let b = tape.hadamard(z, h);
        tape.add(a, b)
    }
}

fn bench_gru_bptt_unfused_reference(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut store = ParamStore::new();
    let cells: Vec<UnfusedCell> = (0..2)
        .map(|l| {
            let input = if l == 0 { 32 } else { 48 };
            UnfusedCell::new(&mut store, &format!("gru.layer{l}"), input, 48, &mut rng)
        })
        .collect();
    let x = Tensor::full(32, 32, 0.3);
    let mut group = c.benchmark_group("gru_bptt");
    group.sample_size(20);
    group.bench_function("seq24_b32_h48_l2_unfused_ref", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let mut state: Vec<Var> =
                (0..2).map(|_| tape.constant(Tensor::zeros(32, 48))).collect();
            let mut last = None;
            for _ in 0..24 {
                let mut input = tape.constant(x.clone());
                for (l, cell) in cells.iter().enumerate() {
                    input = cell.step(&mut tape, &store, input, state[l]);
                    state[l] = input;
                }
                last = Some(input);
            }
            let h = last.expect("steps ran");
            let loss = tape.mean_all(h);
            tape.backward(loss, &mut store);
            store.zero_grads();
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gru_forward,
    bench_gru_bptt,
    bench_gru_bptt_unfused_reference,
    bench_vocab_projection,
    bench_decoder_output,
    bench_matmul_kernels
);
criterion_main!(benches);
