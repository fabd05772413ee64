//! Longest Common SubSequence similarity (Vlachos, Kollios, Gunopulos —
//! ICDE 2002).
//!
//! Points match when within `eps_m` meters. The LCSS *distance* is
//! `1 − LCSS/min(|A|, |B|)`. Both run over pre-projected
//! [`ProjectedTraj`] buffers.
//!
//! The length is the bit-parallel LCS of Allison and Dix ("A bit-string
//! longest-common-subsequence algorithm", IPL 1986) in the form Hyyrö
//! gives ("Bit-parallel LCS-length computation revisited", AWOCA 2004):
//! one bit per point of `b`, 64 to a word, and a zero bit for every step
//! the LCS row takes. Each row reads only the previous row and the row's
//! match mask, so the recurrence holds for the ε-threshold relation as
//! it does for equal characters.

use crate::edr::match_masks;
use crate::project::ProjectedTraj;

/// LCSS length over pre-projected buffers: squared distance against
/// `eps_m²`, no per-cell trig or square root.
///
/// Per point of `a`, with match mask `M`: `U = V & M; V = (V + U) | (V &
/// !U)`, the add's carry passing from word to word. The length is the
/// number of zero bits among the first `|b|` bits of `V`.
pub fn lcss_projected_length(a: &ProjectedTraj, b: &ProjectedTraj, eps_m: f64) -> usize {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return 0;
    }
    let eps2 = eps_m * eps_m;
    let words = m.div_ceil(64);
    let mut matches = vec![0u64; words];
    let mut v = vec![!0u64; words];
    for (&ax, &ay) in a.xs().iter().zip(a.ys()) {
        match_masks(ax, ay, b, eps2, &mut matches);
        let mut carry = false;
        for (vw, &mw) in v.iter_mut().zip(&matches) {
            let u = *vw & mw;
            let (sum, c1) = vw.overflowing_add(u);
            let (sum, c2) = sum.overflowing_add(u64::from(carry));
            carry = c1 | c2;
            *vw = sum | (*vw & !u);
        }
    }
    let (last, full) = v.split_last().expect("m > 0");
    let ones: u32 = full.iter().map(|w| w.count_ones()).sum::<u32>()
        + (last & (u64::MAX >> (64 * words - m))).count_ones();
    m - ones as usize
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
