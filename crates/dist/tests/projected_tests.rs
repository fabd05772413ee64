//! Property tests pinning the projected engine to its oracles.
//!
//! Each projected kernel matches a *naive full-table* DP evaluated from
//! raw lat/lon through the same anchored [`Projector`] (per-pair trig, no
//! rolling rows, no squared-distance tricks) to 1e-6 relative error
//! (EDR/LCSS edit counts match exactly) on random city-scale
//! trajectories.

use proptest::prelude::*;
use traj_data::{GpsPoint, Projector, Trajectory};
use traj_dist::{dtw, edr, hausdorff, lcss, Metric, ProjectedTraj};

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

fn project_pair(a: &Trajectory, b: &Trajectory) -> (Projector, ProjectedTraj, ProjectedTraj) {
    let (projector, mut ps) = ProjectedTraj::project_all(&[a.clone(), b.clone()]);
    let pb = ps.pop().expect("two");
    let pa = ps.pop().expect("two");
    (projector, pa, pb)
}

fn assert_close(projected: f64, oracle: f64, what: &str) {
    let tol = 1e-6 * oracle.abs() + 1e-9;
    assert!(
        (projected - oracle).abs() <= tol,
        "{what}: projected {projected} vs anchored oracle {oracle}"
    );
}

// ---- naive full-table anchored oracles -------------------------------
//
// Deliberately different implementation shape from the kernels: full
// (n+1)×(m+1) tables, per-cell `Projector::distance_m` (anchored trig),
// plain `<=` threshold on the un-squared distance.

fn naive_dtw(a: &Trajectory, b: &Trajectory, p: &Projector) -> f64 {
    let (n, m) = (a.len(), b.len());
    match (n, m) {
        (0, 0) => return 0.0,
        (0, _) | (_, 0) => return f64::INFINITY,
        _ => {}
    }
    let mut table = vec![vec![f64::INFINITY; m + 1]; n + 1];
    table[0][0] = 0.0;
    for i in 1..=n {
        for j in 1..=m {
            let cost = p.distance_m(&a.points[i - 1], &b.points[j - 1]);
            let best = table[i - 1][j].min(table[i][j - 1]).min(table[i - 1][j - 1]);
            table[i][j] = cost + best;
        }
    }
    table[n][m]
}

fn naive_edr(a: &Trajectory, b: &Trajectory, p: &Projector, eps_m: f64) -> f64 {
    let (n, m) = (a.len(), b.len());
    let mut table = vec![vec![0.0f64; m + 1]; n + 1];
    for (i, row) in table.iter_mut().enumerate() {
        row[0] = i as f64;
    }
    for (j, cell) in table[0].iter_mut().enumerate() {
        *cell = j as f64;
    }
    for i in 1..=n {
        for j in 1..=m {
            let sub = if p.distance_m(&a.points[i - 1], &b.points[j - 1]) <= eps_m {
                0.0
            } else {
                1.0
            };
            table[i][j] = (table[i - 1][j - 1] + sub)
                .min(table[i - 1][j] + 1.0)
                .min(table[i][j - 1] + 1.0);
        }
    }
    table[n][m]
}

fn naive_lcss_len(a: &Trajectory, b: &Trajectory, p: &Projector, eps_m: f64) -> usize {
    let (n, m) = (a.len(), b.len());
    let mut table = vec![vec![0usize; m + 1]; n + 1];
    for i in 1..=n {
        for j in 1..=m {
            table[i][j] = if p.distance_m(&a.points[i - 1], &b.points[j - 1]) <= eps_m {
                table[i - 1][j - 1] + 1
            } else {
                table[i - 1][j].max(table[i][j - 1])
            };
        }
    }
    table[n][m]
}

fn naive_hausdorff(a: &Trajectory, b: &Trajectory, p: &Projector) -> f64 {
    let directed = |x: &Trajectory, y: &Trajectory| -> f64 {
        x.points
            .iter()
            .map(|px| {
                y.points
                    .iter()
                    .map(|py| p.distance_m(px, py))
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(0.0, f64::max)
    };
    directed(a, b).max(directed(b, a))
}

const EPS_M: f64 = 150.0;

proptest! {
    #[test]
    fn projected_dtw_matches_anchored_oracle(a in trajectory(), b in trajectory()) {
        let (p, pa, pb) = project_pair(&a, &b);
        assert_close(dtw::dtw_projected(&pa, &pb), naive_dtw(&a, &b, &p), "dtw");
    }

    #[test]
    fn projected_edr_matches_anchored_oracle(a in trajectory(), b in trajectory()) {
        let (p, pa, pb) = project_pair(&a, &b);
        prop_assert_eq!(edr::edr_projected(&pa, &pb, EPS_M), naive_edr(&a, &b, &p, EPS_M));
    }

    #[test]
    fn projected_lcss_matches_anchored_oracle(a in trajectory(), b in trajectory()) {
        let (p, pa, pb) = project_pair(&a, &b);
        prop_assert_eq!(
            lcss::lcss_projected_length(&pa, &pb, EPS_M),
            naive_lcss_len(&a, &b, &p, EPS_M)
        );
        let denom = a.len().min(b.len()) as f64;
        let expect = 1.0 - naive_lcss_len(&a, &b, &p, EPS_M) as f64 / denom;
        let got = lcss::lcss_projected_distance(&pa, &pb, EPS_M);
        prop_assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn projected_hausdorff_matches_anchored_oracle(a in trajectory(), b in trajectory()) {
        let (p, pa, pb) = project_pair(&a, &b);
        assert_close(
            hausdorff::hausdorff_projected(&pa, &pb),
            naive_hausdorff(&a, &b, &p),
            "hausdorff",
        );
    }

    #[test]
    fn metric_dispatch_agrees_with_kernels(a in trajectory(), b in trajectory()) {
        let (_, pa, pb) = project_pair(&a, &b);
        for metric in [
            Metric::Edr { eps_m: EPS_M },
            Metric::Lcss { eps_m: EPS_M },
            Metric::Dtw,
            Metric::Hausdorff,
        ] {
            let d = metric.distance_projected(&pa, &pb);
            prop_assert!(d >= 0.0 && d.is_finite(), "{} produced {}", metric.name(), d);
            prop_assert_eq!(
                d,
                metric.distance_projected(&pb, &pa),
                "{} asymmetric under projection", metric.name()
            );
        }
    }
}
