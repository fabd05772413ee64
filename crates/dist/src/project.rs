//! Pre-projected trajectories: the input format of the trig-free kernels.
//!
//! Every classical metric here is O(|A|·|B|) per pair and O(n²) pairs.
//! Deriving an equirectangular frame (`to_radians`/`cos`/`sqrt`) inside
//! every DP cell would recompute the same per-trajectory projection
//! O(L²·n²) times. A [`ProjectedTraj`] does that work exactly once per
//! trajectory: an O(L) projection into flat structure-of-arrays `x`/`y`
//! meter buffers, anchored at the dataset mean latitude via
//! [`Projector`]. The DP inner loops over these buffers are branch-light
//! subtract/FMA arithmetic with zero trig.

use traj_data::{Projector, Trajectory};

/// A trajectory projected once into planar meter coordinates, stored as
/// separate `x`/`y` buffers (SoA).
#[derive(Clone, Debug)]
pub struct ProjectedTraj {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl ProjectedTraj {
    /// Projects one trajectory under `projector`.
    pub fn project(t: &Trajectory, projector: &Projector) -> Self {
        let (xs, ys) = t.points.iter().map(|p| projector.project(p)).unzip();
        Self { xs, ys }
    }

    /// Projects a whole dataset under its mean-latitude anchor. This is
    /// the one-time O(Σ L) step [`crate::DistanceMatrix::compute`] runs
    /// before the O(n²) pair sweep.
    pub fn project_all(trajectories: &[Trajectory]) -> (Projector, Vec<ProjectedTraj>) {
        let projector = Projector::for_trajectories(trajectories);
        let projected =
            trajectories.iter().map(|t| ProjectedTraj::project(t, &projector)).collect();
        (projector, projected)
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when the trajectory has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// East coordinates in meters.
    #[inline]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// North coordinates in meters.
    #[inline]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_data::GpsPoint;

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
    fn projection_matches_projector_distances() {
        let a = traj(&[(30.0, 120.0), (30.01, 120.02)]);
        let b = traj(&[(30.05, 120.05)]);
        let (projector, ps) = ProjectedTraj::project_all(&[a.clone(), b.clone()]);
        let d = (ps[0].xs()[1] - ps[1].xs()[0]).hypot(ps[0].ys()[1] - ps[1].ys()[0]);
        let oracle = projector.distance_m(&a.points[1], &b.points[0]);
        assert!((d - oracle).abs() < 1e-9, "{d} vs {oracle}");
    }
}
