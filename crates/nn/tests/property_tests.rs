//! Property-based invariants of the tensor algebra and the DEC math.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traj_nn::tape::{student_t_assignment, target_distribution};
use traj_nn::tensor::softmax_in_place;
use traj_nn::{ParamStore, Tape, Tensor};

fn tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

/// Softmax of every row of `a`.
fn softmax_rows(a: &Tensor) -> Tensor {
    let mut s = a.clone();
    for r in 0..s.rows() {
        softmax_in_place(s.row_mut(r));
    }
    s
}

/// Random tensor of a shape decided at runtime (shapes themselves are
/// generated per case, which `prop::collection::vec` can't express).
fn random_tensor(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-3.0f32..3.0)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_distributes_over_addition(
        a in tensor(3, 4),
        b in tensor(4, 2),
        c in tensor(4, 2),
    ) {
        // a(b + c) == ab + ac
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_reverses_matmul(a in tensor(3, 4), b in tensor(4, 2)) {
        // (ab)^T == b^T a^T
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn fused_transpose_products_match_explicit(a in tensor(3, 4), b in tensor(3, 2)) {
        let fused = a.matmul_tn(&b);
        let explicit = a.transpose().matmul(&b);
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn parallel_matmul_is_bit_identical_to_serial(
        m in 0usize..9,
        k in 0usize..9,
        n in 0usize..9,
        seed in 0u64..1_000_000,
    ) {
        // Small shapes sweep every degenerate case (0 rows, 0 inner dim,
        // 0/1 columns) and every MR-remainder. Bit-for-bit equality, not
        // approximate: the parallel path must accumulate in the same order.
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_tensor(m, k, &mut rng);
        let b = random_tensor(k, n, &mut rng);
        prop_assert_eq!(a.matmul_with(&b, false), a.matmul_with(&b, true));
        prop_assert_eq!(a.matmul(&b), a.matmul_with(&b, false));
        let at = random_tensor(k, m, &mut rng);
        prop_assert_eq!(at.matmul_tn_with(&b, false), at.matmul_tn_with(&b, true));
    }

    #[test]
    fn parallel_matmul_matches_serial_across_chunk_boundaries(
        m in 30usize..90,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        // Larger row counts split into several worker chunks with ragged
        // trailing blocks; results must still be bit-identical.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
        let a = random_tensor(m, k, &mut rng);
        let b = random_tensor(k, n, &mut rng);
        prop_assert_eq!(a.matmul_with(&b, false), a.matmul_with(&b, true));
        let at = random_tensor(k, m, &mut rng);
        prop_assert_eq!(at.matmul_tn_with(&b, false), at.matmul_tn_with(&b, true));
    }

    #[test]
    fn softmax_rows_are_distributions(a in tensor(4, 6)) {
        let s = softmax_rows(&a);
        for r in 0..4 {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn softmax_invariant_to_row_shift(a in tensor(2, 5), shift in -10.0f32..10.0) {
        let shifted = a.map(|x| x + shift);
        let s1 = softmax_rows(&a);
        let s2 = softmax_rows(&shifted);
        for (x, y) in s1.data().iter().zip(s2.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn student_t_q_rows_are_distributions(v in tensor(6, 3), c in tensor(3, 3)) {
        let q = student_t_assignment(&v, &c);
        prop_assert_eq!(q.shape(), (6, 3));
        for r in 0..6 {
            let sum: f32 = q.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(q.row(r).iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn target_distribution_preserves_argmax_dominance(v in tensor(8, 3), c in tensor(2, 3)) {
        // P sharpens Q, so a strictly dominant assignment stays dominant.
        let q = student_t_assignment(&v, &c);
        let p = target_distribution(&q);
        for r in 0..8 {
            let q_arg = if q.get(r, 0) > q.get(r, 1) { 0 } else { 1 };
            let sum: f32 = p.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            // P rows remain valid distributions; dominance may flip only
            // when the soft frequencies differ wildly, so just check
            // positivity here and dominance when frequencies are balanced.
            prop_assert!(p.row(r).iter().all(|&x| x >= 0.0));
            let f0: f32 = (0..8).map(|i| q.get(i, 0)).sum();
            let f1: f32 = (0..8).map(|i| q.get(i, 1)).sum();
            if (f0 - f1).abs() < 0.1 && (q.get(r, 0) - q.get(r, 1)).abs() > 0.05 {
                let p_arg = if p.get(r, 0) > p.get(r, 1) { 0 } else { 1 };
                prop_assert_eq!(p_arg, q_arg);
            }
        }
    }

    #[test]
    fn backward_of_sum_is_ones(rows in 1usize..4, cols in 1usize..4) {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::full(rows, cols, 0.5));
        let mut tape = Tape::new();
        let w = tape.param(&store, id);
        let loss = tape.sum_all(w);
        tape.backward(loss, &mut store);
        prop_assert!(store.grad(id).data().iter().all(|&g| (g - 1.0).abs() < 1e-6));
    }

    #[test]
    fn gradient_accumulates_linearly(scale in 0.1f32..5.0) {
        // loss = scale * sum(w) => grad = scale everywhere.
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::full(2, 2, 1.0));
        let mut tape = Tape::new();
        let w = tape.param(&store, id);
        let s = tape.scale(w, scale);
        let loss = tape.sum_all(s);
        tape.backward(loss, &mut store);
        prop_assert!(store
            .grad(id)
            .data()
            .iter()
            .all(|&g| (g - scale).abs() < 1e-5));
    }
}
