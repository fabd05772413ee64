//! Naive dynamic-programming oracles for the paper's four baseline
//! distances (EDR, LCSS, DTW, Hausdorff), kept apart from `traj-dist` so
//! the benchmark checks `DistanceMatrix` entries against an independent
//! implementation.
//!
//! Points are projected into the same dataset-anchored equirectangular
//! frame the engine uses (`traj_data::Projector`), then each recurrence
//! fills its full `(n+1) × (m+1)` table straight from the textbook
//! definition: no rolling rows, no early exits, no pruning. The EDR/LCSS
//! match predicate compares squared distance with `eps²` using the same
//! fused multiply-add as the engine, so a pair exactly on the threshold
//! cannot flip between the two.

use traj_data::{Projector, Trajectory};
use traj_dist::Metric;

/// A trajectory as planar `(x, y)` meters.
pub type Planar = Vec<(f64, f64)>;

/// Projects every trajectory under the dataset's mean-latitude anchor.
pub fn project_all(trajectories: &[Trajectory]) -> Vec<Planar> {
    let projector = Projector::for_trajectories(trajectories);
    trajectories
        .iter()
        .map(|t| t.points.iter().map(|p| projector.project(p)).collect())
        .collect()
}

fn d2(a: (f64, f64), b: (f64, f64)) -> f64 {
    let (dx, dy) = (a.0 - b.0, a.1 - b.1);
    dx.mul_add(dx, dy * dy)
}

/// The oracle distance under `metric`.
///
/// # Panics
/// Panics for metrics outside the paper's four baselines.
pub fn distance(metric: &Metric, a: &Planar, b: &Planar) -> f64 {
    match *metric {
        Metric::Edr { eps_m } => edr(a, b, eps_m),
        Metric::Lcss { eps_m } => lcss(a, b, eps_m),
        Metric::Dtw => dtw(a, b),
        Metric::Hausdorff => hausdorff(a, b),
        other => panic!("no oracle for {}", other.name()),
    }
}

/// Whether an engine value matches the oracle's: exactly for infinities,
/// else to a relative 1e-9 (the DP sums may round in another order).
pub fn agrees(got: f64, want: f64) -> bool {
    if want.is_infinite() {
        got == want
    } else {
        (got - want).abs() <= 1e-9 * want.abs().max(1.0)
    }
}

/// Raw EDR edit count (Chen et al., SIGMOD'05).
fn edr(a: &Planar, b: &Planar, eps_m: f64) -> f64 {
    let (n, m) = (a.len(), b.len());
    let eps2 = eps_m * eps_m;
    let mut t = vec![vec![0.0f64; m + 1]; n + 1];
    for (i, row) in t.iter_mut().enumerate() {
        row[0] = i as f64;
    }
    for (j, cell) in t[0].iter_mut().enumerate() {
        *cell = j as f64;
    }
    for i in 1..=n {
        for j in 1..=m {
            let sub = if d2(a[i - 1], b[j - 1]) <= eps2 {
                0.0
            } else {
                1.0
            };
            t[i][j] = (t[i - 1][j - 1] + sub)
                .min(t[i - 1][j] + 1.0)
                .min(t[i][j - 1] + 1.0);
        }
    }
    t[n][m]
}

/// LCSS distance `1 − LCSS / min(|A|, |B|)` (Vlachos et al., ICDE'02).
fn lcss(a: &Planar, b: &Planar, eps_m: f64) -> f64 {
    let (n, m) = (a.len(), b.len());
    if n.min(m) == 0 {
        return if n == m { 0.0 } else { 1.0 };
    }
    let eps2 = eps_m * eps_m;
    let mut t = vec![vec![0usize; m + 1]; n + 1];
    for i in 1..=n {
        for j in 1..=m {
            t[i][j] = if d2(a[i - 1], b[j - 1]) <= eps2 {
                t[i - 1][j - 1] + 1
            } else {
                t[i - 1][j].max(t[i][j - 1])
            };
        }
    }
    1.0 - t[n][m] as f64 / n.min(m) as f64
}

/// DTW: summed point distances along the cheapest monotone alignment.
fn dtw(a: &Planar, b: &Planar) -> f64 {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return if n == m { 0.0 } else { f64::INFINITY };
    }
    let mut t = vec![vec![f64::INFINITY; m + 1]; n + 1];
    t[0][0] = 0.0;
    for i in 1..=n {
        for j in 1..=m {
            let best = t[i - 1][j].min(t[i - 1][j - 1]).min(t[i][j - 1]);
            t[i][j] = d2(a[i - 1], b[j - 1]).sqrt() + best;
        }
    }
    t[n][m]
}

/// Symmetric Hausdorff distance over the two point sets.
fn hausdorff(a: &Planar, b: &Planar) -> f64 {
    let directed = |from: &Planar, to: &Planar| -> f64 {
        if from.is_empty() {
            return 0.0;
        }
        from.iter()
            .map(|&p| {
                to.iter()
                    .map(|&q| d2(p, q).sqrt())
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(0.0, f64::max)
    };
    directed(a, b).max(directed(b, a))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(ys: &[f64]) -> Planar {
        ys.iter()
            .enumerate()
            .map(|(i, &y)| (i as f64 * 100.0, y))
            .collect()
    }

    #[test]
    fn identical_trajectories_are_at_distance_zero() {
        let a = line(&[0.0, 10.0, 20.0]);
        for metric in Metric::paper_baselines(50.0) {
            assert_eq!(distance(&metric, &a, &a), 0.0, "{}", metric.name());
        }
    }

    #[test]
    fn hand_computed_values() {
        // b runs 300 m north of a and one point longer: no pair matches.
        let a = line(&[0.0, 0.0, 0.0]);
        let b = line(&[300.0, 300.0, 300.0, 300.0]);
        let corner = (100.0f64 * 100.0 + 300.0 * 300.0).sqrt();
        assert_eq!(edr(&a, &b, 50.0), 4.0); // 3 substitutions + 1 insertion
        assert_eq!(lcss(&a, &b, 50.0), 1.0);
        assert_eq!(dtw(&a, &b), 900.0 + corner);
        assert_eq!(hausdorff(&a, &b), corner);
    }
}
