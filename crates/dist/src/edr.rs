//! Edit Distance on Real sequence (Chen, Özsu, Oria — SIGMOD 2005).
//!
//! Two points "match" when they are within a spatial threshold `eps_m`;
//! EDR counts the minimum number of insert/delete/substitute edits needed
//! to align the sequences under that predicate. [`edr_projected`] runs
//! the DP over pre-projected [`ProjectedTraj`] buffers.

use crate::project::ProjectedTraj;

/// Raw EDR edit count over pre-projected buffers. The match predicate
/// compares squared distance against `eps_m²`, so the inner loop has no
/// trig *and* no square root.
pub fn edr_projected(a: &ProjectedTraj, b: &ProjectedTraj, eps_m: f64) -> f64 {
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return m as f64;
    }
    if m == 0 {
        return n as f64;
    }
    let eps2 = eps_m * eps_m;
    let (bx, by) = (b.xs(), b.ys());
    let mut prev: Vec<f64> = (0..=m).map(|j| j as f64).collect();
    let mut curr = vec![0.0f64; m + 1];
    for i in 1..=n {
        let (ax, ay) = (a.xs()[i - 1], a.ys()[i - 1]);
        // Register-carried curr[j-1]/prev[j-1] with zipped slices — same
        // scheme as `dtw_projected` — keeps the inner loop free of bounds
        // checks and leaves only one op on the loop-carried chain.
        let mut left = i as f64;
        let mut diag = prev[0];
        curr[0] = left;
        for ((out, (&bxj, &byj)), &up) in
            curr[1..].iter_mut().zip(bx.iter().zip(by)).zip(&prev[1..])
        {
            let dx = ax - bxj;
            let dy = ay - byj;
            let subcost = if dx.mul_add(dx, dy * dy) <= eps2 { 0.0 } else { 1.0 };
            let v = (diag + subcost).min(up + 1.0).min(left + 1.0);
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

    fn edr_pair(a: &Trajectory, b: &Trajectory, eps_m: f64) -> f64 {
        let (_, ps) = ProjectedTraj::project_all(&[a.clone(), b.clone()]);
        edr_projected(&ps[0], &ps[1], eps_m)
    }

    #[test]
    fn identical_is_zero() {
        let t = traj(&[(30.0, 120.0), (30.01, 120.01)]);
        assert_eq!(edr_pair(&t, &t, 50.0), 0.0);
    }

    #[test]
    fn completely_disjoint_costs_max_len() {
        let a = traj(&[(30.0, 120.0), (30.0, 120.001)]);
        let b = traj(&[(31.0, 121.0), (31.0, 121.001), (31.0, 121.002)]);
        // Optimal alignment: substitute 2, insert 1 => 3 = max(|a|, |b|).
        assert_eq!(edr_pair(&a, &b, 10.0), 3.0);
    }

    #[test]
    fn empty_cases() {
        let e = traj(&[]);
        let t = traj(&[(30.0, 120.0), (30.0, 120.01)]);
        assert_eq!(edr_pair(&e, &t, 10.0), 2.0);
        assert_eq!(edr_pair(&t, &e, 10.0), 2.0);
        assert_eq!(edr_pair(&e, &e, 10.0), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = traj(&[(30.0, 120.0), (30.005, 120.0), (30.01, 120.0)]);
        let b = traj(&[(30.0, 120.002), (30.01, 120.002)]);
        assert_eq!(edr_pair(&a, &b, 300.0), edr_pair(&b, &a, 300.0));
    }

    #[test]
    fn threshold_controls_matching() {
        // ~222 m apart in longitude.
        let a = traj(&[(30.0, 120.0)]);
        let b = traj(&[(30.0, 120.00231)]);
        assert_eq!(edr_pair(&a, &b, 100.0), 1.0, "below threshold: substitution");
        assert_eq!(edr_pair(&a, &b, 400.0), 0.0, "above threshold: match");
    }

    #[test]
    fn dropping_a_point_costs_one_edit() {
        let a = traj(&[(30.0, 120.0), (30.01, 120.0), (30.02, 120.0)]);
        let b = traj(&[(30.0, 120.0), (30.02, 120.0)]);
        assert_eq!(edr_pair(&a, &b, 50.0), 1.0);
    }
}
