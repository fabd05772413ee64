//! Property-based invariants of the data substrate: grid discretization,
//! augmentation, and Algorithm 2.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use traj_data::augment::{corrupt, distort, downsample};
use traj_data::ground_truth::{cluster_radius_m, fallen_rate, generate_ground_truth};
use traj_data::{Dataset, GpsPoint, Grid, GroundTruthConfig, Trajectory};

fn trajectory() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((30.0f64..30.2, 120.0f64..120.2), 1..40).prop_map(|pts| {
        Trajectory::new(
            1,
            pts.into_iter()
                .enumerate()
                .map(|(i, (lat, lon))| GpsPoint::new(lat, lon, i as f64 * 5.0))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grid_token_roundtrip_containment(t in trajectory(), cell in 100.0f64..1000.0) {
        let grid = Grid::fit(&Dataset::new("p", vec![t.clone()]), cell);
        for p in &t.points {
            let tok = grid.token(p);
            prop_assert!(tok < grid.vocab_size());
            let center = grid.cell_center(tok);
            // The point is within half a cell diagonal of its cell center.
            let d = p.haversine_m(&center);
            prop_assert!(
                d <= cell * 0.75,
                "point {d} m from its cell center (cell {cell} m)"
            );
        }
    }

    #[test]
    fn tokenize_never_longer_than_raw(t in trajectory(), cell in 100.0f64..800.0) {
        let grid = Grid::fit(&Dataset::new("p", vec![t.clone()]), cell);
        prop_assert!(grid.tokenize(&t).len() <= t.len());
    }

    #[test]
    fn downsample_is_subsequence(t in trajectory(), rate in 0.0f64..0.9, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = downsample(&t, rate, &mut rng);
        prop_assert!(d.len() <= t.len());
        prop_assert!(!d.is_empty());
        // Every kept point appears in the original, in order.
        let mut it = t.points.iter();
        for p in &d.points {
            prop_assert!(it.any(|q| q == p), "kept point not a subsequence element");
        }
    }

    #[test]
    fn distort_never_changes_count_or_times(
        t in trajectory(),
        rate in 0.0f64..1.0,
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = distort(&t, rate, 40.0, &mut rng);
        prop_assert_eq!(d.len(), t.len());
        for (a, b) in t.points.iter().zip(&d.points) {
            prop_assert_eq!(a.time, b.time);
        }
    }

    #[test]
    fn corrupt_preserves_endpoint_times(t in trajectory(), seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = corrupt(&t, 0.4, 0.4, 40.0, &mut rng);
        prop_assert!(!c.is_empty());
        prop_assert_eq!(c.points[0].time, t.points[0].time);
        prop_assert_eq!(
            c.points.last().expect("non-empty").time,
            t.points.last().expect("non-empty").time
        );
    }

    #[test]
    fn fallen_rate_in_unit_interval(t in trajectory(), r in 10.0f64..50_000.0) {
        let center = GpsPoint::new(30.1, 120.1, 0.0);
        let fr = fallen_rate(&t, &center, r);
        prop_assert!((0.0..=1.0).contains(&fr));
    }

    #[test]
    fn fallen_rate_monotone_in_radius(t in trajectory(), r in 100.0f64..10_000.0) {
        let center = GpsPoint::new(30.1, 120.1, 0.0);
        prop_assert!(fallen_rate(&t, &center, r) <= fallen_rate(&t, &center, r * 2.0));
    }

    #[test]
    fn algorithm2_labels_are_valid_and_consistent(
        sigma in 0.1f64..1.0,
        lambda in 0.1f64..1.0,
        seed in 0u64..50,
    ) {
        let city = traj_data::SynthSpec::hangzhou_like(40, seed).generate();
        let cfg = GroundTruthConfig::new(sigma, lambda);
        let (labelled, assignment) = generate_ground_truth(&city.dataset, &city.pois, cfg);
        prop_assert_eq!(assignment.len(), city.dataset.len());
        prop_assert_eq!(labelled.len(), assignment.iter().flatten().count());
        let radius = cluster_radius_m(&city.pois, sigma);
        for (t, &label) in labelled.dataset.trajectories.iter().zip(&labelled.labels) {
            prop_assert!(label < city.pois.len());
            // The assigned cluster must actually satisfy the threshold.
            prop_assert!(fallen_rate(t, &city.pois[label], radius) >= lambda);
        }
    }

    #[test]
    fn algorithm2_coverage_monotone_in_sigma(seed in 0u64..20) {
        let city = traj_data::SynthSpec::hangzhou_like(40, seed).generate();
        let (small, _) = generate_ground_truth(
            &city.dataset, &city.pois, GroundTruthConfig::new(0.3, 0.7));
        let (large, _) = generate_ground_truth(
            &city.dataset, &city.pois, GroundTruthConfig::new(0.9, 0.7));
        prop_assert!(large.len() >= small.len());
    }
}
