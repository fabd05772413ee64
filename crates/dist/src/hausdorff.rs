//! Symmetric Hausdorff distance between trajectories (shape-based metric).
//!
//! `H(A, B) = max( max_a min_b d(a, b), max_b min_a d(a, b) )` over the
//! point sets, ignoring temporal order — the classic shape comparator used
//! by the paper's `Hausdorff + KM` baseline.

use crate::project::ProjectedTraj;

/// Points of `b` scanned between two checks of the early exit: the
/// inner `min` runs lane-wise over this many points, so it vectorizes.
const CHUNK: usize = 8;

/// Directed Hausdorff `max_{a∈A} min_{b∈B} d(a, b)` over pre-projected
/// buffers, computed entirely in squared meters (max/min are monotone
/// under squaring) — one square root at the very end, in
/// [`hausdorff_projected`].
pub fn directed_hausdorff_projected_sq(a: &ProjectedTraj, b: &ProjectedTraj) -> f64 {
    directed_sq_from(a, b, 0.0)
}

/// `max(worst, directed Hausdorff²(a, b))`. A point of `a` stops
/// scanning `b` as soon as it is within `worst` of some point of `b`: it
/// can no longer raise the max. The exit is checked once per `CHUNK`
/// points, after a lane-wise `min`. NaN distances never win a `min`, as
/// in a plain `d2 < best` scan; `min` and `max` are exact, so the result
/// does not depend on the scan order.
fn directed_sq_from(a: &ProjectedTraj, b: &ProjectedTraj, mut worst: f64) -> f64 {
    if a.is_empty() {
        return worst;
    }
    if b.is_empty() {
        return f64::INFINITY;
    }
    let (bx, by) = (b.xs(), b.ys());
    let (bx_chunks, by_chunks) = (bx.chunks_exact(CHUNK), by.chunks_exact(CHUNK));
    let (bx_tail, by_tail) = (bx_chunks.remainder(), by_chunks.remainder());
    'points: for (&ax, &ay) in a.xs().iter().zip(a.ys()) {
        let mut lanes = [f64::INFINITY; CHUNK];
        for (xs, ys) in bx_chunks.clone().zip(by_chunks.clone()) {
            for ((lane, &x), &y) in lanes.iter_mut().zip(xs).zip(ys) {
                let dx = ax - x;
                let dy = ay - y;
                let d2 = dx.mul_add(dx, dy * dy);
                *lane = if d2 < *lane { d2 } else { *lane };
            }
            if lanes.iter().any(|&best| best <= worst) {
                continue 'points;
            }
        }
        let mut best = lanes.into_iter().fold(f64::INFINITY, |m, l| if l < m { l } else { m });
        for (&x, &y) in bx_tail.iter().zip(by_tail) {
            let dx = ax - x;
            let dy = ay - y;
            let d2 = dx.mul_add(dx, dy * dy);
            if d2 < best {
                best = d2;
                if best <= worst {
                    continue 'points;
                }
            }
        }
        worst = worst.max(best);
    }
    worst
}

/// Symmetric Hausdorff distance in meters over pre-projected buffers.
/// The second directed pass starts from the first one's value, so its
/// points exit as soon as they cannot raise the symmetric max.
pub fn hausdorff_projected(a: &ProjectedTraj, b: &ProjectedTraj) -> f64 {
    directed_sq_from(b, a, directed_hausdorff_projected_sq(a, b)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_data::{GpsPoint, Trajectory};

    fn traj(coords: &[(f64, f64)]) -> Trajectory {
        Trajectory::new(
            0,
            coords
                .iter()
                .enumerate()
                .map(|(i, &(lat, lon))| GpsPoint::new(lat, lon, i as f64))
                .collect(),
        )
    }

    fn hausdorff_pair(a: &Trajectory, b: &Trajectory) -> f64 {
        let (_, ps) = ProjectedTraj::project_all(&[a.clone(), b.clone()]);
        hausdorff_projected(&ps[0], &ps[1])
    }

    #[test]
    fn identical_zero() {
        let t = traj(&[(30.0, 120.0), (30.01, 120.01)]);
        assert_eq!(hausdorff_pair(&t, &t), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = traj(&[(30.0, 120.0), (30.02, 120.0)]);
        let b = traj(&[(30.0, 120.01)]);
        assert_eq!(hausdorff_pair(&a, &b), hausdorff_pair(&b, &a));
    }

    #[test]
    fn subset_has_zero_directed_distance() {
        let a = traj(&[(30.0, 120.0)]);
        let b = traj(&[(30.0, 120.0), (30.05, 120.0)]);
        let (_, ps) = ProjectedTraj::project_all(&[a, b]);
        assert_eq!(directed_hausdorff_projected_sq(&ps[0], &ps[1]), 0.0);
        assert!(directed_hausdorff_projected_sq(&ps[1], &ps[0]) > 0.0);
    }

    #[test]
    fn known_offset_distance() {
        // Two parallel 2-point segments offset by ~1112 m of latitude.
        let a = traj(&[(30.0, 120.0), (30.0, 120.01)]);
        let b = traj(&[(30.01, 120.0), (30.01, 120.01)]);
        let h = hausdorff_pair(&a, &b);
        assert!((h - 1112.0).abs() < 10.0, "got {h}");
    }

    #[test]
    fn order_invariance() {
        // Hausdorff ignores traversal direction.
        let a = traj(&[(30.0, 120.0), (30.01, 120.0), (30.02, 120.0)]);
        let rev = traj(&[(30.02, 120.0), (30.01, 120.0), (30.0, 120.0)]);
        assert!(hausdorff_pair(&a, &rev) < 1e-9);
    }

    #[test]
    fn empty_conventions() {
        let e = traj(&[]);
        let t = traj(&[(30.0, 120.0)]);
        assert_eq!(hausdorff_pair(&e, &e), 0.0);
        assert!(hausdorff_pair(&e, &t).is_infinite());
    }
}
