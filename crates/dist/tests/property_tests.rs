//! Property-based invariants of the classical distance metrics, checked
//! through [`Metric::distance_projected`] with every input of a test
//! projected under one shared [`ProjectedTraj::project_all`] anchor.

use proptest::prelude::*;
use traj_data::{GpsPoint, Trajectory};
use traj_dist::{hausdorff, lcss, Metric, ProjectedTraj};

const EPS_M: f64 = 150.0;

/// Strategy: a trajectory of 1..12 points within a small city box.
fn trajectory() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((30.0f64..30.1, 120.0f64..120.1), 1..12).prop_map(|pts| {
        Trajectory::new(
            0,
            pts.into_iter()
                .enumerate()
                .map(|(i, (lat, lon))| GpsPoint::new(lat, lon, i as f64))
                .collect(),
        )
    })
}

fn project(ts: &[&Trajectory]) -> Vec<ProjectedTraj> {
    let owned: Vec<Trajectory> = ts.iter().map(|&t| t.clone()).collect();
    ProjectedTraj::project_all(&owned).1
}

proptest! {
    #[test]
    fn all_metrics_are_symmetric(a in trajectory(), b in trajectory()) {
        let ps = project(&[&a, &b]);
        for m in Metric::paper_baselines(EPS_M) {
            let ab = m.distance_projected(&ps[0], &ps[1]);
            let ba = m.distance_projected(&ps[1], &ps[0]);
            prop_assert!((ab - ba).abs() < 1e-9, "{} asymmetric: {ab} vs {ba}", m.name());
        }
    }

    #[test]
    fn all_metrics_vanish_on_identity(a in trajectory()) {
        let ps = project(&[&a]);
        for m in Metric::paper_baselines(EPS_M) {
            prop_assert_eq!(
                m.distance_projected(&ps[0], &ps[0]),
                0.0,
                "{} nonzero on identity", m.name()
            );
        }
    }

    #[test]
    fn all_metrics_are_nonnegative_and_finite(a in trajectory(), b in trajectory()) {
        let ps = project(&[&a, &b]);
        for m in Metric::paper_baselines(EPS_M) {
            let d = m.distance_projected(&ps[0], &ps[1]);
            prop_assert!(d >= 0.0 && d.is_finite(), "{} produced {d}", m.name());
        }
    }

    #[test]
    fn edr_bounded_by_max_length(a in trajectory(), b in trajectory()) {
        let ps = project(&[&a, &b]);
        let d = Metric::Edr { eps_m: EPS_M }.distance_projected(&ps[0], &ps[1]);
        prop_assert!(d <= a.len().max(b.len()) as f64);
        // And at least the length difference (each unmatched point costs 1).
        prop_assert!(d >= (a.len() as f64 - b.len() as f64).abs());
    }

    #[test]
    fn lcss_distance_in_unit_interval(a in trajectory(), b in trajectory()) {
        let ps = project(&[&a, &b]);
        let d = Metric::Lcss { eps_m: EPS_M }.distance_projected(&ps[0], &ps[1]);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn lcss_length_bounded_by_min_len(a in trajectory(), b in trajectory()) {
        let ps = project(&[&a, &b]);
        let l = lcss::lcss_projected_length(&ps[0], &ps[1], EPS_M);
        prop_assert!(l <= a.len().min(b.len()));
    }

    #[test]
    fn dtw_at_least_max_pointwise_min(a in trajectory(), b in trajectory()) {
        // DTW aligns every point, so it is at least the largest
        // min-distance any single point has to the other trajectory.
        let ps = project(&[&a, &b]);
        let d = Metric::Dtw.distance_projected(&ps[0], &ps[1]);
        let h = hausdorff::directed_hausdorff_projected_sq(&ps[0], &ps[1]).sqrt();
        prop_assert!(d + 1e-6 >= h, "dtw {d} < directed hausdorff {h}");
    }

    #[test]
    fn hausdorff_triangle_inequality(
        a in trajectory(),
        b in trajectory(),
        c in trajectory(),
    ) {
        // Hausdorff over point sets is a metric: d(a,c) <= d(a,b) + d(b,c).
        let ps = project(&[&a, &b, &c]);
        let ab = Metric::Hausdorff.distance_projected(&ps[0], &ps[1]);
        let bc = Metric::Hausdorff.distance_projected(&ps[1], &ps[2]);
        let ac = Metric::Hausdorff.distance_projected(&ps[0], &ps[2]);
        prop_assert!(ac <= ab + bc + 1e-6, "triangle violated: {ac} > {ab} + {bc}");
    }

    #[test]
    fn concatenating_a_point_changes_edr_by_at_most_one(a in trajectory(), b in trajectory()) {
        let mut extended = b.clone();
        extended.points.push(*a.points.first().expect("non-empty"));
        // Re-sort times to keep the invariant (appended point gets last time).
        let t_last = extended.points[extended.points.len() - 2].time + 1.0;
        extended.points.last_mut().expect("non-empty").time = t_last;
        let ps = project(&[&a, &b, &extended]);
        let edr = Metric::Edr { eps_m: EPS_M };
        let base = edr.distance_projected(&ps[0], &ps[1]);
        let ext = edr.distance_projected(&ps[0], &ps[2]);
        prop_assert!((ext - base).abs() <= 1.0 + 1e-9);
    }
}
