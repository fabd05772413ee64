//! Dynamic Time Warping (Yi, Jagadish, Faloutsos — ICDE 1998).
//!
//! `DTW(A, B)` is the minimum cumulative point-to-point distance over all
//! monotone alignments of the two sequences. O(|A|·|B|) time, O(min) space
//! via a rolling row.
//!
//! [`dtw_projected`] is a trig-free rolling-row kernel over pre-projected
//! [`ProjectedTraj`] buffers.

use crate::project::ProjectedTraj;

/// Trig-free DTW in meters over pre-projected buffers. Each cell is two
/// subtractions, one FMA, and one square root — no `to_radians`/`cos`.
///
/// Empty inputs: `0` if both are empty, `+∞` if exactly one is.
pub fn dtw_projected(a: &ProjectedTraj, b: &ProjectedTraj) -> f64 {
    let (n, m) = (a.len(), b.len());
    match (n, m) {
        (0, 0) => return 0.0,
        (0, _) | (_, 0) => return f64::INFINITY,
        _ => {}
    }
    let (bx, by) = (b.xs(), b.ys());
    let mut prev = vec![f64::INFINITY; m + 1];
    let mut curr = vec![f64::INFINITY; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        let (ax, ay) = (a.xs()[i - 1], a.ys()[i - 1]);
        // `left` carries curr[j-1] and `diag` carries prev[j-1] in
        // registers; zipped slices elide every bounds check, and
        // `up.min(diag)` sits off the loop-carried `left` chain.
        let mut left = f64::INFINITY;
        let mut diag = prev[0];
        curr[0] = f64::INFINITY;
        for ((out, (&bxj, &byj)), &up) in
            curr[1..].iter_mut().zip(bx.iter().zip(by)).zip(&prev[1..])
        {
            let dx = ax - bxj;
            let dy = ay - byj;
            let cost = dx.mul_add(dx, dy * dy).sqrt();
            let v = cost + up.min(diag).min(left);
            *out = v;
            diag = up;
            left = v;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m]
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

    fn project_pair(a: &Trajectory, b: &Trajectory) -> (ProjectedTraj, ProjectedTraj) {
        let (_, mut ps) = ProjectedTraj::project_all(&[a.clone(), b.clone()]);
        let pb = ps.pop().expect("two");
        let pa = ps.pop().expect("two");
        (pa, pb)
    }

    fn dtw_pair(a: &Trajectory, b: &Trajectory) -> f64 {
        let (pa, pb) = project_pair(a, b);
        dtw_projected(&pa, &pb)
    }

    #[test]
    fn identical_trajectories_have_zero_distance() {
        let t = traj(&[(30.0, 120.0), (30.01, 120.01), (30.02, 120.02)]);
        assert_eq!(dtw_pair(&t, &t), 0.0);
    }

    #[test]
    fn dtw_is_symmetric() {
        let a = traj(&[(30.0, 120.0), (30.01, 120.0)]);
        let b = traj(&[(30.0, 120.0), (30.005, 120.0), (30.01, 120.0)]);
        assert!((dtw_pair(&a, &b) - dtw_pair(&b, &a)).abs() < 1e-9);
    }

    #[test]
    fn dtw_tolerates_resampling() {
        // The same path sampled at 2× rate should stay close.
        let sparse = traj(&[(30.0, 120.0), (30.02, 120.0), (30.04, 120.0)]);
        let dense = traj(&[
            (30.0, 120.0),
            (30.01, 120.0),
            (30.02, 120.0),
            (30.03, 120.0),
            (30.04, 120.0),
        ]);
        let far = traj(&[(30.2, 120.2), (30.22, 120.2), (30.24, 120.2)]);
        assert!(dtw_pair(&sparse, &dense) < dtw_pair(&sparse, &far) / 10.0);
    }

    #[test]
    fn single_point_vs_path_accumulates() {
        let single = traj(&[(30.0, 120.0)]);
        let path = traj(&[(30.0, 120.0), (30.0, 120.0)]);
        assert_eq!(dtw_pair(&single, &path), 0.0);
    }

    #[test]
    fn empty_handling() {
        let e = traj(&[]);
        let t = traj(&[(30.0, 120.0)]);
        assert_eq!(dtw_pair(&e, &e), 0.0);
        assert!(dtw_pair(&e, &t).is_infinite());
    }

    #[test]
    fn projected_matches_reference_within_projection_tolerance() {
        // One point against two: the only alignment matches the single
        // point with both, so DTW is the sum of two ground distances.
        let a = traj(&[(30.0, 120.0)]);
        let b = traj(&[(30.005, 120.0), (30.015, 120.015)]);
        let reference =
            a.points[0].haversine_m(&b.points[0]) + a.points[0].haversine_m(&b.points[1]);
        let projected = dtw_pair(&a, &b);
        assert!(
            (reference - projected).abs() / reference < 1e-3,
            "reference {reference}, projected {projected}"
        );
    }

    #[test]
    fn projected_empty_conventions() {
        let e = traj(&[]);
        let t = traj(&[(30.0, 120.0)]);
        let (pe, pt) = project_pair(&e, &t);
        assert_eq!(dtw_projected(&pe, &pe), 0.0);
        assert!(dtw_projected(&pe, &pt).is_infinite());
    }
}
