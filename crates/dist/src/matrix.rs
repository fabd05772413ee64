//! Pairwise distance matrices, computed in parallel with rayon.
//!
//! The paper's classic baselines (EDR/LCSS/DTW/Hausdorff + K-Medoids) all
//! need the full O(n²) pairwise matrix; this is also the dominant cost the
//! Fig. 3 scalability experiment measures for them.
//!
//! The engine projects every trajectory **once** into flat meter buffers
//! ([`ProjectedTraj`]) and then sweeps the upper triangle in cache-blocked
//! square tiles addressed by arithmetic triangle indexing — no
//! materialized `Vec<(i, j)>` pair list (16 bytes/pair would be ~51 GB of
//! indices at the paper's 80k-trajectory scale), and each tile keeps its
//! ≤ 2·`TILE` hot `ProjectedTraj`s resident in cache across `TILE²`
//! pairs.

use crate::metric::Metric;
use crate::project::ProjectedTraj;
use rayon::prelude::*;
use std::time::Instant;
use traj_data::Trajectory;

/// Tile edge of the blocked pair sweep: 64² pairs per task is coarse
/// enough to amortize scheduling and fine enough to balance uneven
/// per-pair costs; 2 × 64 trajectories of SoA coordinates fit in L2.
const TILE: usize = 64;

/// Number of upper-triangle (incl. diagonal) tiles in an `nb × nb` grid
/// that precede tile row `r`: row `r'` contributes `nb - r'` tiles.
#[inline]
fn tile_row_offset(r: usize, nb: usize) -> usize {
    r * (2 * nb - r + 1) / 2
}

/// Maps a flat rank `t` to the `(bi, bj)` tile coordinates (`bi ≤ bj`)
/// of the row-major upper-triangle enumeration — the arithmetic
/// replacement for a materialized pair list.
fn unrank_upper_tile(t: usize, nb: usize) -> (usize, usize) {
    debug_assert!(t < tile_row_offset(nb, nb));
    // Initial guess from the quadratic root of tile_row_offset(r) = t,
    // then integer fix-up against floating-point edge error.
    let disc = (2.0 * nb as f64 + 1.0).powi(2) - 8.0 * t as f64;
    let mut r = ((2.0 * nb as f64 + 1.0 - disc.max(0.0).sqrt()) / 2.0).floor() as usize;
    r = r.min(nb - 1);
    while r > 0 && tile_row_offset(r, nb) > t {
        r -= 1;
    }
    while r + 1 < nb && tile_row_offset(r + 1, nb) <= t {
        r += 1;
    }
    (r, r + (t - tile_row_offset(r, nb)))
}

/// A symmetric `n × n` distance matrix stored densely row-major.
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Computes all pairwise distances under `metric`.
    ///
    /// Projects each trajectory once (dataset-mean-latitude anchor),
    /// then parallelizes over cache-blocked upper-triangle tiles, each
    /// worker running the trig-free projected kernels over its tile.
    /// When telemetry is enabled, per-pair latencies are recorded into a
    /// merged `dist.pair_ms` histogram alongside the `dist.pairs`
    /// counter.
    pub fn compute(trajectories: &[Trajectory], metric: &Metric) -> Self {
        let recorder = traj_obs::global();
        let _span = recorder.span("dist.matrix");
        let n = trajectories.len();
        if n == 0 {
            return Self { n: 0, data: Vec::new() };
        }
        let (_projector, projected) = ProjectedTraj::project_all(trajectories);
        crate::telemetry::DIST_PAIRS.add((n * (n - 1) / 2) as u64);

        let timed = recorder.enabled();
        let nb = n.div_ceil(TILE);
        let num_tiles = tile_row_offset(nb, nb);
        let tiles: Vec<(usize, usize, Vec<f64>, Option<traj_obs::Histogram>)> = (0..num_tiles)
            .into_par_iter()
            .map(|t| {
                let (bi, bj) = unrank_upper_tile(t, nb);
                let (i0, i1) = (bi * TILE, ((bi + 1) * TILE).min(n));
                let (j0, j1) = (bj * TILE, ((bj + 1) * TILE).min(n));
                let mut out = Vec::with_capacity((i1 - i0) * (j1 - j0));
                let mut hist = timed.then(traj_obs::Histogram::new);
                for i in i0..i1 {
                    let pi = &projected[i];
                    let jstart = if bi == bj { i + 1 } else { j0 };
                    for pj in &projected[jstart..j1] {
                        match &mut hist {
                            Some(h) => {
                                let t0 = Instant::now();
                                out.push(metric.distance_projected(pi, pj));
                                h.record(t0.elapsed().as_secs_f64() * 1e3);
                            }
                            None => out.push(metric.distance_projected(pi, pj)),
                        }
                    }
                }
                (bi, bj, out, hist)
            })
            .collect();

        let mut data = vec![0.0f64; n * n];
        let mut pair_ms = timed.then(traj_obs::Histogram::new);
        for (bi, bj, values, hist) in tiles {
            let (i0, i1) = (bi * TILE, ((bi + 1) * TILE).min(n));
            let (j0, j1) = (bj * TILE, ((bj + 1) * TILE).min(n));
            let mut values = values.into_iter();
            for i in i0..i1 {
                let jstart = if bi == bj { i + 1 } else { j0 };
                for j in jstart..j1 {
                    let d = values.next().expect("tile emits one value per pair");
                    data[i * n + j] = d;
                    data[j * n + i] = d;
                }
            }
            if let (Some(acc), Some(h)) = (&mut pair_ms, hist) {
                acc.merge(&h);
            }
        }
        if let Some(h) = pair_ms {
            recorder.histogram("dist.pair_ms", &h);
        }
        Self { n, data }
    }

    /// Matrix dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the 0×0 matrix.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between items `i` and `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n);
        self.data[i * self.n + j]
    }

    /// Flat row-major buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_data::GpsPoint;

    fn traj(id: u64, lat: f64) -> Trajectory {
        Trajectory::new(
            id,
            (0..3).map(|i| GpsPoint::new(lat, 120.0 + i as f64 * 1e-3, i as f64)).collect(),
        )
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let ts = vec![traj(0, 30.0), traj(1, 30.01), traj(2, 30.05)];
        let m = DistanceMatrix::compute(&ts, &Metric::Dtw);
        for i in 0..3 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..3 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn distances_order_by_spatial_separation() {
        let ts = vec![traj(0, 30.0), traj(1, 30.01), traj(2, 30.5)];
        let m = DistanceMatrix::compute(&ts, &Metric::Hausdorff);
        assert!(m.get(0, 1) < m.get(0, 2));
    }

    #[test]
    fn blocked_tiles_match_serial_projected_reference() {
        // Varied lengths so per-pair cost is uneven, exercising the tile
        // schedule; the result must equal the naive serial double loop
        // over the same projected buffers, bit for bit.
        let ts: Vec<Trajectory> = (0..9)
            .map(|i| {
                Trajectory::new(
                    i,
                    (0..(3 + (i as usize % 5) * 4))
                        .map(|p| {
                            GpsPoint::new(
                                30.0 + i as f64 * 0.01 + p as f64 * 1e-4,
                                120.0 + p as f64 * 1e-3,
                                p as f64,
                            )
                        })
                        .collect(),
                )
            })
            .collect();
        let (_, projected) = ProjectedTraj::project_all(&ts);
        for metric in [Metric::Dtw, Metric::Hausdorff] {
            let m = DistanceMatrix::compute(&ts, &metric);
            for i in 0..ts.len() {
                for j in 0..ts.len() {
                    let expect = if i == j {
                        0.0
                    } else {
                        metric.distance_projected(&projected[i], &projected[j])
                    };
                    assert_eq!(m.get(i, j), expect, "{metric:?} ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn tile_unranking_roundtrips() {
        for nb in 1..40 {
            let mut t = 0;
            for bi in 0..nb {
                for bj in bi..nb {
                    assert_eq!(unrank_upper_tile(t, nb), (bi, bj), "t = {t}, nb = {nb}");
                    t += 1;
                }
            }
            assert_eq!(tile_row_offset(nb, nb), t, "total tile count, nb = {nb}");
        }
    }

    #[test]
    fn spans_multiple_tiles() {
        // n > TILE exercises off-diagonal tiles and the refill path.
        let ts: Vec<Trajectory> = (0..(TILE + 9) as u64)
            .map(|i| traj(i, 30.0 + i as f64 * 1e-3))
            .collect();
        let m = DistanceMatrix::compute(&ts, &Metric::Hausdorff);
        let (_, projected) = ProjectedTraj::project_all(&ts);
        for i in [0, 1, TILE - 1, TILE, TILE + 5] {
            for j in [0, TILE - 2, TILE, TILE + 8] {
                let expect = if i == j {
                    0.0
                } else {
                    Metric::Hausdorff.distance_projected(&projected[i], &projected[j])
                };
                assert_eq!(m.get(i, j), expect, "({i}, {j})");
            }
        }
    }

    #[test]
    fn empty_matrix() {
        let m = DistanceMatrix::compute(&[], &Metric::Dtw);
        assert!(m.is_empty());
    }
}
