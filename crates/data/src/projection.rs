//! Fixed-anchor equirectangular projection into planar meter coordinates.
//!
//! A [`Projector`] fixes one equirectangular frame, anchored at the
//! dataset mean latitude, so every point projects to flat `(x, y)` meters
//! in O(1) and all pairwise distances become trig-free arithmetic. The
//! `traj-dist` kernels run on these coordinates. At city scale (≤ ~0.1°
//! of latitude spread) the anchored frame agrees with haversine to well
//! under 0.1 % (see `tests`).

use crate::point::{GpsPoint, EARTH_RADIUS_M};
use crate::trajectory::Trajectory;

/// An equirectangular projection anchored at a fixed latitude.
///
/// Maps WGS-84 degrees to planar meters: `x = R·cos(anchor)·lon_rad`
/// (east), `y = R·lat_rad` (north). Distances between projected points
/// approximate geodesic distances with relative error
/// `≈ tan(anchor)·Δlat_anchor` — under 10⁻³ for city-scale data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Projector {
    anchor_lat_deg: f64,
    /// Meters per radian of longitude at the anchor latitude.
    scale_x: f64,
}

impl Projector {
    /// Projection anchored at `anchor_lat_deg` degrees of latitude.
    pub fn new(anchor_lat_deg: f64) -> Self {
        Self { anchor_lat_deg, scale_x: EARTH_RADIUS_M * anchor_lat_deg.to_radians().cos() }
    }

    /// Projection anchored at the mean latitude over every point of every
    /// trajectory (the dataset anchor the distance engine uses). Falls
    /// back to the equator when there are no points.
    pub fn for_trajectories(trajectories: &[Trajectory]) -> Self {
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for t in trajectories {
            for p in &t.points {
                sum += p.lat;
                count += 1;
            }
        }
        if count == 0 {
            Self::new(0.0)
        } else {
            Self::new(sum / count as f64)
        }
    }

    /// The anchor latitude in degrees.
    pub fn anchor_lat_deg(&self) -> f64 {
        self.anchor_lat_deg
    }

    /// Projects a point to `(x, y)` meters (east, north).
    #[inline]
    pub fn project(&self, p: &GpsPoint) -> (f64, f64) {
        (p.lon.to_radians() * self.scale_x, p.lat.to_radians() * EARTH_RADIUS_M)
    }

    /// Planar distance in meters between two points under this
    /// projection. The naive test oracles of the precomputed-buffer
    /// kernels in `traj-dist` evaluate it per DP cell.
    pub fn distance_m(&self, a: &GpsPoint, b: &GpsPoint) -> f64 {
        let (ax, ay) = self.project(a);
        let (bx, by) = self.project(b);
        let (dx, dy) = (ax - bx, ay - by);
        dx.hypot(dy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn anchor_is_mean_latitude() {
        let ts = vec![traj(&[(30.0, 120.0), (30.2, 120.0)]), traj(&[(30.4, 120.0)])];
        let p = Projector::for_trajectories(&ts);
        assert!((p.anchor_lat_deg() - 30.2).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_anchors_at_equator() {
        assert_eq!(Projector::for_trajectories(&[]).anchor_lat_deg(), 0.0);
        assert_eq!(Projector::for_trajectories(&[Trajectory::new(0, vec![])]).anchor_lat_deg(), 0.0);
    }

    #[test]
    fn projected_distance_matches_haversine_at_city_scale() {
        let proj = Projector::new(30.05);
        let a = GpsPoint::new(30.02, 120.03, 0.0);
        let b = GpsPoint::new(30.09, 120.08, 0.0);
        let h = a.haversine_m(&b);
        let d = proj.distance_m(&a, &b);
        assert!((h - d).abs() / h < 1e-3, "haversine {h}, projected {d}");
    }

    #[test]
    fn identical_points_project_identically() {
        let proj = Projector::new(30.0);
        let p = GpsPoint::new(30.05, 120.05, 3.0);
        assert_eq!(proj.distance_m(&p, &p), 0.0);
    }
}
