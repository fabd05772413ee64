//! Edit Distance on Real sequence (Chen, Özsu, Oria — SIGMOD 2005).
//!
//! Two points "match" when they are within a spatial threshold `eps_m`;
//! EDR counts the minimum number of insert/delete/substitute edits needed
//! to align the sequences under that predicate. [`edr_projected`] runs
//! the DP over pre-projected [`ProjectedTraj`] buffers.
//!
//! The DP is Myers' bit-vector edit distance (Myers, J. ACM 1999) in
//! Hyyrö's block form (Hyyrö, "A bit-vector algorithm for computing
//! Levenshtein and Damerau edit distances", Nordic J. Computing 2003):
//! one `u64` word holds the vertical deltas of 64 DP cells, so a row of
//! the table costs a handful of word operations per 64 points of `b`
//! instead of one dependent `f64` add→min chain per cell. The recurrence
//! reads only the previous row and the row's match mask, so it holds for
//! any binary match relation, the ε-threshold included, and the edit
//! count it returns is the exact integer the full table holds.

use crate::project::ProjectedTraj;

/// Fills `out` with the match mask of point `(ax, ay)` against `b`: bit
/// `k` of word `w` is set when `b`'s point `64·w + k` lies within the
/// threshold, `dx.mul_add(dx, dy·dy) <= eps2`. Bits past `b.len()` stay
/// clear. NaN coordinates never match. `out.len()` must be
/// `b.len().div_ceil(64)`. Every lane is independent, so the loop
/// vectorizes; EDR and LCSS share it.
#[inline]
pub(crate) fn match_masks(ax: f64, ay: f64, b: &ProjectedTraj, eps2: f64, out: &mut [u64]) {
    debug_assert_eq!(out.len(), b.len().div_ceil(64));
    for (word, (xs, ys)) in out.iter_mut().zip(b.xs().chunks(64).zip(b.ys().chunks(64))) {
        let mut bits = 0u64;
        for (k, (&bx, &by)) in xs.iter().zip(ys).enumerate() {
            let dx = ax - bx;
            let dy = ay - by;
            bits |= u64::from(dx.mul_add(dx, dy * dy) <= eps2) << k;
        }
        *word = bits;
    }
}

/// Raw EDR edit count over pre-projected buffers. The match predicate
/// compares squared distance against `eps_m²`, so the inner loop has no
/// trig *and* no square root.
///
/// Each point of `a` advances one column of Myers' algorithm over `b`:
/// per 64-point word, `Pv`/`Mv` flag the cells whose value is one more /
/// one less than the cell above, and the horizontal delta `hin ∈ {−1, 0,
/// +1}` passes from word to word. The first column `D[0][j] = j` is all
/// `+1` steps (`Pv = !0`), the top boundary `D[i][0] = i` shifts a `+1`
/// into the first word of every row, and the running score `D[i][m]`
/// follows the delta at bit `(m − 1) % 64` of the last word.
pub fn edr_projected(a: &ProjectedTraj, b: &ProjectedTraj, eps_m: f64) -> f64 {
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return m as f64;
    }
    if m == 0 {
        return n as f64;
    }
    let eps2 = eps_m * eps_m;
    let words = m.div_ceil(64);
    let last_bit = 1u64 << ((m - 1) % 64);
    let mut eq = vec![0u64; words];
    let mut vert = vec![(!0u64, 0u64); words];
    let mut score = m;
    for (&ax, &ay) in a.xs().iter().zip(a.ys()) {
        match_masks(ax, ay, b, eps2, &mut eq);
        let (mut hpos, mut hneg) = (1u64, 0u64);
        for (w, (&e, (pv, mv))) in eq.iter().zip(vert.iter_mut()).enumerate() {
            let high = if w + 1 == words { last_bit } else { 1 << 63 };
            let xv = e | *mv;
            let e = e | hneg;
            let xh = ((e & *pv).wrapping_add(*pv) ^ *pv) | e;
            let ph = *mv | !(xh | *pv);
            let mh = *pv & xh;
            let (out_pos, out_neg) = (u64::from(ph & high != 0), u64::from(mh & high != 0));
            let ph = (ph << 1) | hpos;
            let mh = (mh << 1) | hneg;
            *pv = mh | !(xv | ph);
            *mv = ph & xv;
            (hpos, hneg) = (out_pos, out_neg);
        }
        score = score + hpos as usize - hneg as usize;
    }
    score as f64
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
