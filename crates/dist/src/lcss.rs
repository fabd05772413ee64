//! Longest Common SubSequence similarity (Vlachos, Kollios, Gunopulos —
//! ICDE 2002).
//!
//! Points match when within `eps_m` meters. The LCSS *distance* is
//! `1 − LCSS/min(|A|, |B|)`. Both run over pre-projected
//! [`ProjectedTraj`] buffers.

use crate::project::ProjectedTraj;

/// LCSS length over pre-projected buffers: squared distance against
/// `eps_m²`, no per-cell trig or square root.
pub fn lcss_projected_length(a: &ProjectedTraj, b: &ProjectedTraj, eps_m: f64) -> usize {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return 0;
    }
    let eps2 = eps_m * eps_m;
    let (bx, by) = (b.xs(), b.ys());
    let mut prev = vec![0usize; m + 1];
    let mut curr = vec![0usize; m + 1];
    for i in 1..=n {
        curr[0] = 0;
        let (ax, ay) = (a.xs()[i - 1], a.ys()[i - 1]);
        // Register-carried curr[j-1]/prev[j-1] over zipped slices, as in
        // `dtw_projected`.
        let mut left = 0usize;
        let mut diag = prev[0];
        for ((out, (&bxj, &byj)), &up) in
            curr[1..].iter_mut().zip(bx.iter().zip(by)).zip(&prev[1..])
        {
            let dx = ax - bxj;
            let dy = ay - byj;
            let v = if dx.mul_add(dx, dy * dy) <= eps2 { diag + 1 } else { up.max(left) };
            *out = v;
            diag = up;
            left = v;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m]
}

/// Projected LCSS distance `1 − LCSS/min(|A|, |B|)`, in `[0, 1]`.
pub fn lcss_projected_distance(a: &ProjectedTraj, b: &ProjectedTraj, eps_m: f64) -> f64 {
    let denom = a.len().min(b.len());
    if denom == 0 {
        return if a.len() == b.len() { 0.0 } else { 1.0 };
    }
    1.0 - lcss_projected_length(a, b, eps_m) as f64 / denom as f64
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

    fn lcss_pair_length(a: &Trajectory, b: &Trajectory, eps_m: f64) -> usize {
        let (pa, pb) = project_pair(a, b);
        lcss_projected_length(&pa, &pb, eps_m)
    }

    fn lcss_pair_distance(a: &Trajectory, b: &Trajectory, eps_m: f64) -> f64 {
        let (pa, pb) = project_pair(a, b);
        lcss_projected_distance(&pa, &pb, eps_m)
    }

    #[test]
    fn identical_full_match() {
        let t = traj(&[(30.0, 120.0), (30.01, 120.0), (30.02, 120.0)]);
        assert_eq!(lcss_pair_length(&t, &t, 10.0), 3);
        assert_eq!(lcss_pair_distance(&t, &t, 10.0), 0.0);
    }

    #[test]
    fn disjoint_no_match() {
        let a = traj(&[(30.0, 120.0), (30.01, 120.0)]);
        let b = traj(&[(35.0, 125.0), (35.01, 125.0)]);
        assert_eq!(lcss_pair_length(&a, &b, 100.0), 0);
        assert_eq!(lcss_pair_distance(&a, &b, 100.0), 1.0);
    }

    #[test]
    fn subsequence_matches_fully() {
        // b is a subsampled a => LCSS = |b|, distance 0.
        let a = traj(&[(30.0, 120.0), (30.01, 120.0), (30.02, 120.0), (30.03, 120.0)]);
        let b = traj(&[(30.0, 120.0), (30.02, 120.0)]);
        assert_eq!(lcss_pair_length(&a, &b, 10.0), 2);
        assert_eq!(lcss_pair_distance(&a, &b, 10.0), 0.0);
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let a = traj(&[(30.0, 120.0), (30.005, 120.0), (30.01, 120.0)]);
        let b = traj(&[(30.0, 120.001), (30.01, 120.001)]);
        let d1 = lcss_pair_distance(&a, &b, 200.0);
        let d2 = lcss_pair_distance(&b, &a, 200.0);
        assert!((d1 - d2).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&d1));
    }

    #[test]
    fn empty_conventions() {
        let e = traj(&[]);
        let t = traj(&[(30.0, 120.0)]);
        assert_eq!(lcss_pair_distance(&e, &e, 10.0), 0.0);
        assert_eq!(lcss_pair_distance(&e, &t, 10.0), 1.0);
    }
}
