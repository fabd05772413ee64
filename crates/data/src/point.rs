//! GPS sample points and geodesic helpers.

use serde::{Deserialize, Serialize};

/// Mean Earth radius in meters (IUGG).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// One GPS sample: WGS-84 coordinates plus an observation timestamp
/// (seconds since the start of the trace).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GpsPoint {
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
    /// Observation time in seconds.
    pub time: f64,
}

impl GpsPoint {
    /// Creates a point.
    pub fn new(lat: f64, lon: f64, time: f64) -> Self {
        Self { lat, lon, time }
    }

    /// Great-circle distance to `other` in meters (haversine formula).
    pub fn haversine_m(&self, other: &GpsPoint) -> f64 {
        haversine_m(self.lat, self.lon, other.lat, other.lon)
    }

    /// Returns a copy displaced by `(dx, dy)` meters (east, north).
    pub fn offset_m(&self, dx: f64, dy: f64) -> GpsPoint {
        let dlat = (dy / EARTH_RADIUS_M).to_degrees();
        let dlon = (dx / (EARTH_RADIUS_M * self.lat.to_radians().cos())).to_degrees();
        GpsPoint::new(self.lat + dlat, self.lon + dlon, self.time)
    }
}

/// Great-circle distance between two coordinates in meters.
pub fn haversine_m(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    let (phi1, phi2) = (lat1.to_radians(), lat2.to_radians());
    let dphi = (lat2 - lat1).to_radians();
    let dlambda = (lon2 - lon1).to_radians();
    let a =
        (dphi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (dlambda / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_M * a.sqrt().min(1.0).asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_zero_for_identical_points() {
        assert_eq!(haversine_m(30.0, 120.0, 30.0, 120.0), 0.0);
    }

    #[test]
    fn haversine_known_distance() {
        // One degree of latitude ≈ 111.2 km.
        let d = haversine_m(30.0, 120.0, 31.0, 120.0);
        assert!((d - 111_195.0).abs() < 200.0, "got {d}");
    }

    #[test]
    fn haversine_symmetry() {
        let a = haversine_m(30.25, 120.15, 30.3, 120.2);
        let b = haversine_m(30.3, 120.2, 30.25, 120.15);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn offset_roundtrip_distance() {
        let p = GpsPoint::new(30.25, 120.15, 0.0);
        let q = p.offset_m(300.0, 400.0);
        let d = p.haversine_m(&q);
        assert!((d - 500.0).abs() < 1.0, "got {d}");
    }
}
