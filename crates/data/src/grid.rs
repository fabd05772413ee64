//! Spatial grid discretization (paper §V-B, "trajectory embedding").
//!
//! The space covered by a dataset is divided into disjoint equal-sized
//! square cells (default side 300 m, the paper's setting). Each cell is a
//! token labelled with a vocabulary id; a raw trajectory becomes the
//! sequence of ids of the cells its GPS points fall into.

use crate::point::{haversine_m, GpsPoint};
use crate::trajectory::{Dataset, Trajectory};
use serde::{Deserialize, Serialize};

/// A uniform spatial grid over a bounding box, defining the token
/// vocabulary `V`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Grid {
    min_lat: f64,
    min_lon: f64,
    /// Cell height in degrees of latitude.
    dlat: f64,
    /// Cell width in degrees of longitude.
    dlon: f64,
    nx: usize,
    ny: usize,
    cell_meters: f64,
}

impl Grid {
    /// Builds a grid with ~`cell_meters`-sided cells covering
    /// `(min_lat, min_lon) .. (max_lat, max_lon)`.
    ///
    /// # Panics
    /// Panics on an inverted box or non-positive cell size.
    ///
    /// A box that is degenerate along an axis (e.g. a perfectly horizontal
    /// trajectory) is padded to one cell along that axis.
    pub fn new(
        min_lat: f64,
        min_lon: f64,
        max_lat: f64,
        max_lon: f64,
        cell_meters: f64,
    ) -> Self {
        assert!(max_lat >= min_lat && max_lon >= min_lon, "inverted bounding box");
        assert!(cell_meters > 0.0, "cell size must be positive");
        let mid_lat = (min_lat + max_lat) / 2.0;
        // Degrees per cell, derived from meters at the box midpoint.
        let meters_per_deg_lat = haversine_m(mid_lat - 0.5, min_lon, mid_lat + 0.5, min_lon);
        let meters_per_deg_lon = haversine_m(mid_lat, min_lon, mid_lat, min_lon + 1.0);
        let dlat = cell_meters / meters_per_deg_lat;
        let dlon = cell_meters / meters_per_deg_lon;
        // Pad degenerate extents to a single cell.
        let (min_lat, max_lat) = if max_lat - min_lat < dlat {
            (mid_lat - dlat / 2.0, mid_lat + dlat / 2.0)
        } else {
            (min_lat, max_lat)
        };
        let mid_lon = (min_lon + max_lon) / 2.0;
        let (min_lon, max_lon) = if max_lon - min_lon < dlon {
            (mid_lon - dlon / 2.0, mid_lon + dlon / 2.0)
        } else {
            (min_lon, max_lon)
        };
        let ny = ((max_lat - min_lat) / dlat).ceil().max(1.0) as usize;
        let nx = ((max_lon - min_lon) / dlon).ceil().max(1.0) as usize;
        Self { min_lat, min_lon, dlat, dlon, nx, ny, cell_meters }
    }

    /// Builds a grid covering a dataset's bounding box with a margin of one
    /// cell on every side (so distorted points stay in vocabulary).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(dataset: &Dataset, cell_meters: f64) -> Self {
        let (min_lat, min_lon, max_lat, max_lon) =
            dataset.bbox().expect("cannot fit a grid to an empty dataset");
        let mut g = Self::new(min_lat, min_lon, max_lat, max_lon, cell_meters);
        // One-cell margin: regrow the box and rebuild.
        g = Self::new(
            min_lat - g.dlat,
            min_lon - g.dlon,
            max_lat + g.dlat,
            max_lon + g.dlon,
            cell_meters,
        );
        g
    }

    /// Checks the invariants [`Grid::new`] establishes, for a grid that
    /// was read rather than built: at least one cell per axis, a cell
    /// count that fits in `isize`, finite positive cell sizes and a
    /// finite origin.
    pub fn validate(&self) -> Result<(), String> {
        let (nx, ny) = (self.nx, self.ny);
        if nx == 0 || ny == 0 {
            return Err(format!("{nx}x{ny} cells"));
        }
        if nx.checked_mul(ny).filter(|&cells| cells <= isize::MAX as usize).is_none() {
            return Err(format!("{nx}x{ny} cells overflow the token range"));
        }
        if ![self.dlat, self.dlon, self.cell_meters].iter().all(|v| v.is_finite() && *v > 0.0) {
            return Err("cell sizes must be finite and positive".into());
        }
        if !(self.min_lat.is_finite() && self.min_lon.is_finite()) {
            return Err("origin must be finite".into());
        }
        Ok(())
    }

    /// Vocabulary size `|V| = nx × ny`.
    pub fn vocab_size(&self) -> usize {
        self.nx * self.ny
    }

    /// Configured cell side length in meters.
    pub fn cell_meters(&self) -> f64 {
        self.cell_meters
    }

    /// Token id of the cell containing a point (clamped to the box).
    pub fn token(&self, p: &GpsPoint) -> usize {
        let iy = (((p.lat - self.min_lat) / self.dlat) as isize).clamp(0, self.ny as isize - 1)
            as usize;
        let ix = (((p.lon - self.min_lon) / self.dlon) as isize).clamp(0, self.nx as isize - 1)
            as usize;
        iy * self.nx + ix
    }

    /// `(ix, iy)` cell coordinates of a token.
    pub fn cell_xy(&self, token: usize) -> (usize, usize) {
        debug_assert!(token < self.vocab_size());
        (token % self.nx, token / self.nx)
    }

    /// Geographic center of a cell.
    pub fn cell_center(&self, token: usize) -> GpsPoint {
        let (ix, iy) = self.cell_xy(token);
        GpsPoint::new(
            self.min_lat + (iy as f64 + 0.5) * self.dlat,
            self.min_lon + (ix as f64 + 0.5) * self.dlon,
            0.0,
        )
    }

    /// Center-to-center distance between two cells in meters.
    pub fn cell_distance_m(&self, a: usize, b: usize) -> f64 {
        let (ax, ay) = self.cell_xy(a);
        let (bx, by) = self.cell_xy(b);
        let dx = (ax as f64 - bx as f64) * self.cell_meters;
        let dy = (ay as f64 - by as f64) * self.cell_meters;
        (dx * dx + dy * dy).sqrt()
    }

    /// Discretizes a trajectory into its token sequence. Consecutive
    /// duplicate tokens are collapsed (a slow or stopped object otherwise
    /// floods the sequence with repeats that carry no spatial information).
    pub fn tokenize(&self, t: &Trajectory) -> Vec<usize> {
        let mut out = Vec::with_capacity(t.len());
        for p in &t.points {
            let tok = self.token(p);
            if out.last() != Some(&tok) {
                out.push(tok);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::new(30.0, 120.0, 30.1, 120.1, 300.0)
    }

    #[test]
    fn vocab_size_matches_dims() {
        let g = grid();
        // Tokens are row-major over the cells, so the box's two corners
        // hold the first and the last id.
        assert_eq!(g.token(&GpsPoint::new(30.0, 120.0, 0.0)), 0);
        assert_eq!(g.token(&GpsPoint::new(30.1, 120.1, 0.0)), g.vocab_size() - 1);
        assert!(g.vocab_size() > 100, "0.1 degree box should exceed 100 cells at 300 m");
    }

    #[test]
    fn validate_accepts_built_grids_and_rejects_broken_ones() {
        assert_eq!(grid().validate(), Ok(()));
        let broken = [
            Grid { nx: 0, ..grid() },
            Grid { nx: usize::MAX, ny: 2, ..grid() },
            Grid { dlat: 0.0, ..grid() },
            Grid { dlon: f64::NAN, ..grid() },
            Grid { cell_meters: -300.0, ..grid() },
            Grid { min_lat: f64::INFINITY, ..grid() },
        ];
        for g in broken {
            assert!(g.validate().is_err(), "{g:?}");
        }
    }

    #[test]
    fn token_roundtrip_through_cell_center() {
        let g = grid();
        for token in [0, 7, g.vocab_size() / 2, g.vocab_size() - 1] {
            let c = g.cell_center(token);
            assert_eq!(g.token(&c), token, "center of cell {token} must map back");
        }
    }

    #[test]
    fn out_of_box_points_are_clamped() {
        let g = grid();
        let below = GpsPoint::new(29.0, 119.0, 0.0);
        let above = GpsPoint::new(31.0, 121.0, 0.0);
        assert_eq!(g.token(&below), 0);
        assert_eq!(g.token(&above), g.vocab_size() - 1);
    }

    #[test]
    fn cell_distance_is_symmetric_and_zero_on_diagonal() {
        let g = grid();
        assert_eq!(g.cell_distance_m(5, 5), 0.0);
        assert_eq!(g.cell_distance_m(2, 9), g.cell_distance_m(9, 2));
    }

    #[test]
    fn tokenize_collapses_consecutive_duplicates() {
        let g = grid();
        let c = g.cell_center(10);
        let t = Trajectory::new(
            0,
            vec![
                GpsPoint::new(c.lat, c.lon, 0.0),
                GpsPoint::new(c.lat, c.lon, 5.0),
                GpsPoint::new(c.lat + 0.01, c.lon, 10.0),
            ],
        );
        let toks = g.tokenize(&t);
        assert_eq!(toks.len(), 2);
    }
}
