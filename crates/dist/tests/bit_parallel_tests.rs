//! The bit-parallel EDR and LCSS kernels and the chunked Hausdorff scan,
//! pinned bit for bit to naive full-table DPs over the same
//! [`ProjectedTraj`] buffers and the same squared match predicate
//! `dx.mul_add(dx, dy * dy) <= eps²`.
//!
//! Lengths run from 0 to 300 and are forced through every word boundary
//! of the 64-bit kernels (63/64/65, 127/128/129, 191/192/193). The second
//! trajectory of a pair is an edited copy of the first, so points repeat
//! exactly and ε = 0 still matches; thresholds are also taken from the
//! pair's own squared distances, so cells land exactly on `eps²`; and
//! some coordinates are NaN, which never match and never win a `min`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traj_data::{GpsPoint, Projector, Trajectory};
use traj_dist::{edr, hausdorff, lcss, ProjectedTraj};

/// Lengths on each side of the 64-point word boundaries.
const BOUNDARY_LENGTHS: [usize; 14] = [0, 1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 257, 300];

/// Fixed thresholds in meters; each pair also gets one from its own cells.
const FIXED_EPS_M: [f64; 4] = [0.0, 50.0, 200.0, 1000.0];

fn point(rng: &mut StdRng, nan_rate: f64) -> (f64, f64) {
    let mut lat = rng.gen_range(30.0..30.02);
    let mut lon = rng.gen_range(120.0..120.02);
    if rng.gen_bool(nan_rate) {
        if rng.gen_bool(0.5) {
            lat = f64::NAN;
        } else {
            lon = f64::NAN;
        }
    }
    (lat, lon)
}

/// A random trajectory of `len` points; about one in five repeats the
/// previous point exactly.
fn random_points(rng: &mut StdRng, len: usize, nan_rate: f64) -> Vec<(f64, f64)> {
    let mut pts: Vec<(f64, f64)> = Vec::with_capacity(len);
    for _ in 0..len {
        match pts.last() {
            Some(&prev) if rng.gen_bool(0.2) => pts.push(prev),
            _ => pts.push(point(rng, nan_rate)),
        }
    }
    pts
}

/// An edited copy of `src` with exactly `len` points: each point is kept,
/// nudged by a few meters or replaced, so many cells match at small ε.
fn edited_copy(rng: &mut StdRng, src: &[(f64, f64)], len: usize, nan_rate: f64) -> Vec<(f64, f64)> {
    if src.is_empty() {
        return random_points(rng, len, nan_rate);
    }
    let start = rng.gen_range(0..src.len());
    (0..len)
        .map(|k| {
            let (lat, lon) = src[(start + k + rng.gen_range(0..2)) % src.len()];
            match rng.gen_range(0..4) {
                0 | 1 => (lat, lon),
                2 => (lat + rng.gen_range(-2e-4..2e-4), lon + rng.gen_range(-2e-4..2e-4)),
                _ => point(rng, nan_rate),
            }
        })
        .collect()
}

fn project(pts: &[(f64, f64)]) -> ProjectedTraj {
    let t = Trajectory::new(
        0,
        pts.iter().enumerate().map(|(i, &(lat, lon))| GpsPoint::new(lat, lon, i as f64)).collect(),
    );
    ProjectedTraj::project(&t, &Projector::new(30.01))
}

fn d2(a: &ProjectedTraj, i: usize, b: &ProjectedTraj, j: usize) -> f64 {
    let dx = a.xs()[i] - b.xs()[j];
    let dy = a.ys()[i] - b.ys()[j];
    dx.mul_add(dx, dy * dy)
}

// ---- naive full-table oracles over the projected buffers --------------

fn naive_edr(a: &ProjectedTraj, b: &ProjectedTraj, eps_m: f64) -> f64 {
    let (n, m) = (a.len(), b.len());
    let eps2 = eps_m * eps_m;
    let mut table = vec![vec![0.0f64; m + 1]; n + 1];
    for (i, row) in table.iter_mut().enumerate() {
        row[0] = i as f64;
    }
    for (j, cell) in table[0].iter_mut().enumerate() {
        *cell = j as f64;
    }
    for i in 1..=n {
        for j in 1..=m {
            let sub = if d2(a, i - 1, b, j - 1) <= eps2 { 0.0 } else { 1.0 };
            table[i][j] =
                (table[i - 1][j - 1] + sub).min(table[i - 1][j] + 1.0).min(table[i][j - 1] + 1.0);
        }
    }
    table[n][m]
}

fn naive_lcss_len(a: &ProjectedTraj, b: &ProjectedTraj, eps_m: f64) -> usize {
    let (n, m) = (a.len(), b.len());
    let eps2 = eps_m * eps_m;
    let mut table = vec![vec![0usize; m + 1]; n + 1];
    for i in 1..=n {
        for j in 1..=m {
            table[i][j] = if d2(a, i - 1, b, j - 1) <= eps2 {
                table[i - 1][j - 1] + 1
            } else {
                table[i - 1][j].max(table[i][j - 1])
            };
        }
    }
    table[n][m]
}

/// Every point's nearest squared distance (a NaN distance never wins),
/// then the max over points; `+∞` when `b` is empty and `a` is not.
fn naive_directed_sq(a: &ProjectedTraj, b: &ProjectedTraj) -> f64 {
    (0..a.len())
        .map(|i| {
            (0..b.len()).map(|j| d2(a, i, b, j)).fold(f64::INFINITY, |best, d| {
                if d < best {
                    d
                } else {
                    best
                }
            })
        })
        .fold(0.0, f64::max)
}

/// A threshold taken from one of the pair's own finite cells: `eps = √d²`
/// puts that cell on `eps²` or one rounding step away from it.
/// [`check_pair`] counts the cells that land exactly on it.
fn threshold_eps(rng: &mut StdRng, a: &ProjectedTraj, b: &ProjectedTraj) -> Option<f64> {
    let finite: Vec<f64> = (0..a.len().min(8))
        .flat_map(|i| (0..b.len().min(8)).map(move |j| (i, j)))
        .map(|(i, j)| d2(a, i, b, j))
        .filter(|d| d.is_finite() && *d > 0.0)
        .collect();
    (!finite.is_empty()).then(|| finite[rng.gen_range(0..finite.len())].sqrt())
}

/// Checks all three kernels on `(a, b)` and `(b, a)` at every threshold;
/// returns how many cells sat exactly on a threshold.
fn check_pair(rng: &mut StdRng, a: &ProjectedTraj, b: &ProjectedTraj) -> usize {
    let mut eps_list = FIXED_EPS_M.to_vec();
    eps_list.extend(threshold_eps(rng, a, b));
    let mut on_threshold = 0;
    for (x, y) in [(a, b), (b, a)] {
        for &eps in &eps_list {
            let edr_got = edr::edr_projected(x, y, eps);
            let edr_want = naive_edr(x, y, eps);
            assert_eq!(
                edr_got.to_bits(),
                edr_want.to_bits(),
                "EDR {}×{} eps {eps}: {edr_got} vs {edr_want}",
                x.len(),
                y.len()
            );
            let lcss_got = lcss::lcss_projected_length(x, y, eps);
            let lcss_want = naive_lcss_len(x, y, eps);
            assert_eq!(lcss_got, lcss_want, "LCSS {}×{} eps {eps}", x.len(), y.len());
            on_threshold += (0..x.len())
                .flat_map(|i| (0..y.len()).map(move |j| (i, j)))
                .filter(|&(i, j)| d2(x, i, y, j) == eps * eps)
                .count();
        }
        let dir_got = hausdorff::directed_hausdorff_projected_sq(x, y);
        let dir_want = naive_directed_sq(x, y);
        assert_eq!(
            dir_got.to_bits(),
            dir_want.to_bits(),
            "directed Hausdorff² {}×{}",
            x.len(),
            y.len()
        );
    }
    let h_got = hausdorff::hausdorff_projected(a, b);
    let h_want = naive_directed_sq(a, b).max(naive_directed_sq(b, a)).sqrt();
    assert_eq!(h_got.to_bits(), h_want.to_bits(), "Hausdorff {}×{}", a.len(), b.len());
    on_threshold
}

#[test]
fn word_boundary_lengths_match_full_table() {
    let mut rng = StdRng::seed_from_u64(0xb17_da7a);
    let mut on_threshold = 0;
    for &la in &BOUNDARY_LENGTHS {
        for &lb in &BOUNDARY_LENGTHS {
            let pa = random_points(&mut rng, la, 0.0);
            let pb = edited_copy(&mut rng, &pa, lb, 0.0);
            on_threshold += check_pair(&mut rng, &project(&pa), &project(&pb));
        }
    }
    assert!(on_threshold > 0, "no cell landed exactly on a threshold");
}

#[test]
fn duplicated_points_match_at_zero_eps() {
    // Every point of `b` repeats a point of `a`: at ε = 0 the LCSS is
    // `|b|` and the EDR is `|a| − |b|` deletions.
    let mut rng = StdRng::seed_from_u64(7);
    for len in [65usize, 130, 200] {
        let pa = random_points(&mut rng, len, 0.0);
        let pb: Vec<(f64, f64)> = pa.iter().copied().step_by(2).collect();
        let (a, b) = (project(&pa), project(&pb));
        assert_eq!(lcss::lcss_projected_length(&a, &b, 0.0), pb.len());
        assert_eq!(edr::edr_projected(&a, &b, 0.0), (pa.len() - pb.len()) as f64);
        check_pair(&mut rng, &a, &b);
    }
}

#[test]
fn nan_coordinates_never_match() {
    let nan = project(&[(f64::NAN, 120.0); 70]);
    let t = project(&random_points(&mut StdRng::seed_from_u64(3), 70, 0.0));
    for eps in [0.0, 1e9, f64::INFINITY] {
        assert_eq!(edr::edr_projected(&nan, &nan, eps), 70.0);
        assert_eq!(lcss::lcss_projected_length(&nan, &t, eps), 0);
    }
    assert_eq!(hausdorff::directed_hausdorff_projected_sq(&nan, &t), f64::INFINITY);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn kernels_match_full_table_bit_for_bit(
        seed in 0u64..u64::MAX,
        la in 0usize..=300,
        lb in 0usize..=300,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nan_rate = if rng.gen_bool(0.25) { 0.05 } else { 0.0 };
        let pa = random_points(&mut rng, la, nan_rate);
        let pb = if rng.gen_bool(0.75) {
            edited_copy(&mut rng, &pa, lb, nan_rate)
        } else {
            random_points(&mut rng, lb, nan_rate)
        };
        check_pair(&mut rng, &project(&pa), &project(&pb));
    }
}
