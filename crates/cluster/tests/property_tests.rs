//! Property-based invariants of the clustering algorithms and quality
//! metrics.

use proptest::prelude::*;
use traj_cluster::hungarian::{hungarian_max, hungarian_min};
use traj_cluster::{kmeans, nmi, rand_index, uacc, KMeansConfig, Points};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn labeling(n: usize, k: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..k, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn metrics_are_within_unit_interval(
        pred in labeling(30, 4),
        truth in labeling(30, 4),
    ) {
        for v in [uacc(&pred, &truth), nmi(&pred, &truth), rand_index(&pred, &truth)] {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v), "metric out of range: {v}");
        }
    }

    #[test]
    fn metrics_perfect_on_equal_labelings(truth in labeling(30, 4)) {
        prop_assert_eq!(uacc(&truth, &truth), 1.0);
        prop_assert_eq!(rand_index(&truth, &truth), 1.0);
        prop_assert!(nmi(&truth, &truth) > 0.999 || truth.iter().all(|&x| x == truth[0]));
    }

    #[test]
    fn metrics_invariant_under_label_permutation(
        truth in labeling(40, 4),
        swap_a in 0usize..4,
        swap_b in 0usize..4,
    ) {
        let permuted: Vec<usize> = truth
            .iter()
            .map(|&l| {
                if l == swap_a { swap_b } else if l == swap_b { swap_a } else { l }
            })
            .collect();
        prop_assert!((uacc(&permuted, &truth) - 1.0).abs() < 1e-12);
        prop_assert!((rand_index(&permuted, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rand_index_symmetric(pred in labeling(25, 3), truth in labeling(25, 3)) {
        prop_assert!((rand_index(&pred, &truth) - rand_index(&truth, &pred)).abs() < 1e-12);
    }

    #[test]
    fn nmi_symmetric(pred in labeling(25, 3), truth in labeling(25, 3)) {
        prop_assert!((nmi(&pred, &truth) - nmi(&truth, &pred)).abs() < 1e-9);
    }

    #[test]
    fn hungarian_matches_bruteforce(
        n in 1usize..5,
        values in prop::collection::vec(0.0f64..10.0, 25),
    ) {
        let cost = &values[..n * n];
        let asg = hungarian_min(cost, n);
        let total: f64 = asg.iter().enumerate().map(|(r, &c)| cost[r * n + c]).sum();
        // brute force
        fn rec(cost: &[f64], n: usize, row: usize, used: &mut Vec<bool>, acc: f64, best: &mut f64) {
            if row == n { *best = best.min(acc); return; }
            for c in 0..n {
                if !used[c] {
                    used[c] = true;
                    rec(cost, n, row + 1, used, acc + cost[row * n + c], best);
                    used[c] = false;
                }
            }
        }
        let mut best = f64::INFINITY;
        rec(cost, n, 0, &mut vec![false; n], 0.0, &mut best);
        prop_assert!((total - best).abs() < 1e-9, "hungarian {total} vs brute {best}");
    }

    #[test]
    fn hungarian_max_is_min_of_negation(
        n in 1usize..5,
        values in prop::collection::vec(0.0f64..10.0, 25),
    ) {
        let profit = &values[..n * n];
        let neg: Vec<f64> = profit.iter().map(|&x| -x).collect();
        prop_assert_eq!(hungarian_max(profit, n), hungarian_min(&neg, n));
    }

    #[test]
    fn kmeans_assignment_is_nearest_centroid(
        seed in 0u64..1000,
        k in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 40;
        let d = 3;
        let data: Vec<f32> = (0..n * d).map(|i| ((i * 37 + seed as usize) % 101) as f32 / 10.0).collect();
        let points = Points::new(&data, n, d);
        let res = kmeans(points, KMeansConfig::new(k), &mut rng);
        for i in 0..n {
            let assigned = res.assignment[i];
            let d_assigned = points.sq_dist_to(i, &res.centroids[assigned * d..(assigned + 1) * d]);
            for c in 0..k {
                let dc = points.sq_dist_to(i, &res.centroids[c * d..(c + 1) * d]);
                prop_assert!(d_assigned <= dc + 1e-4, "point {i} not assigned to nearest");
            }
        }
    }

    #[test]
    fn kmeans_inertia_consistent_with_assignment(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 30;
        let d = 2;
        let data: Vec<f32> = (0..n * d).map(|i| ((i * 13) % 17) as f32).collect();
        let points = Points::new(&data, n, d);
        let res = kmeans(points, KMeansConfig::new(3), &mut rng);
        let recomputed: f64 = (0..n)
            .map(|i| {
                let c = res.assignment[i];
                points.sq_dist_to(i, &res.centroids[c * d..(c + 1) * d])
            })
            .sum();
        prop_assert!((res.inertia - recomputed).abs() < 1e-3);
    }
}
