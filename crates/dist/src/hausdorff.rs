//! Symmetric Hausdorff distance between trajectories (shape-based metric).
//!
//! `H(A, B) = max( max_a min_b d(a, b), max_b min_a d(a, b) )` over the
//! point sets, ignoring temporal order — the classic shape comparator used
//! by the paper's `Hausdorff + KM` baseline.

use crate::project::ProjectedTraj;

/// Directed Hausdorff `max_{a∈A} min_{b∈B} d(a, b)` over pre-projected
/// buffers, computed entirely in squared meters (max/min are monotone
/// under squaring) — one square root at the very end, in
/// [`hausdorff_projected`].
pub fn directed_hausdorff_projected_sq(a: &ProjectedTraj, b: &ProjectedTraj) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    if b.is_empty() {
        return f64::INFINITY;
    }
    let (bx, by) = (b.xs(), b.ys());
    let mut worst = 0.0f64;
    for i in 0..a.len() {
        let (ax, ay) = (a.xs()[i], a.ys()[i]);
        let mut best = f64::INFINITY;
        for j in 0..bx.len() {
            let dx = ax - bx[j];
            let dy = ay - by[j];
            let d2 = dx.mul_add(dx, dy * dy);
            if d2 < best {
                best = d2;
                if best <= worst {
                    // Early exit: this point can no longer raise the max.
                    break;
                }
            }
        }
        worst = worst.max(best);
    }
    worst
}

/// Symmetric Hausdorff distance in meters over pre-projected buffers.
pub fn hausdorff_projected(a: &ProjectedTraj, b: &ProjectedTraj) -> f64 {
    directed_hausdorff_projected_sq(a, b).max(directed_hausdorff_projected_sq(b, a)).sqrt()
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
