//! Unified metric selector covering the paper's four baseline distances.

use crate::project::ProjectedTraj;
use crate::{dtw, edr, hausdorff, lcss};

/// The classical trajectory distance metrics evaluated in the paper
/// (Table III's `EDR + KM`, `LCSS + KM`, `DTW + KM`, `Hausdorff + KM`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Metric {
    /// Edit Distance on Real sequence (raw edit count); `eps_m` is the
    /// match threshold.
    Edr {
        /// Spatial match threshold in meters.
        eps_m: f64,
    },
    /// LCSS distance (`1 − LCSS/min len`); `eps_m` is the match threshold.
    Lcss {
        /// Spatial match threshold in meters.
        eps_m: f64,
    },
    /// Dynamic Time Warping: summed alignment cost in meters.
    Dtw,
    /// Symmetric Hausdorff distance (meters).
    Hausdorff,
}

impl Metric {
    /// Short display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Edr { .. } => "EDR",
            Metric::Lcss { .. } => "LCSS",
            Metric::Dtw => "DTW",
            Metric::Hausdorff => "Hausdorff",
        }
    }

    /// Distance between two pre-projected trajectories — the trig-free
    /// kernels [`crate::DistanceMatrix::compute`] runs on.
    ///
    /// EDR and DTW follow their original (unnormalized) definitions —
    /// Chen et al. (SIGMOD'05) count raw edits and Yi et al. (ICDE'98)
    /// sum raw alignment costs — which makes both length- and
    /// sampling-rate-sensitive, exactly the weakness the E²DTC paper
    /// calls out in §I.
    pub fn distance_projected(&self, a: &ProjectedTraj, b: &ProjectedTraj) -> f64 {
        match *self {
            Metric::Edr { eps_m } => edr::edr_projected(a, b, eps_m),
            Metric::Lcss { eps_m } => lcss::lcss_projected_distance(a, b, eps_m),
            Metric::Dtw => dtw::dtw_projected(a, b),
            Metric::Hausdorff => hausdorff::hausdorff_projected(a, b),
        }
    }

    /// The paper's four baseline metrics with a sensible shared threshold
    /// (EDR/LCSS require one; the paper grid-searches it — callers can do
    /// the same by constructing variants).
    pub fn paper_baselines(eps_m: f64) -> [Metric; 4] {
        [Metric::Edr { eps_m }, Metric::Lcss { eps_m }, Metric::Dtw, Metric::Hausdorff]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_data::{GpsPoint, Trajectory};

    fn traj(lat: f64) -> Trajectory {
        Trajectory::new(
            0,
            (0..4).map(|i| GpsPoint::new(lat, 120.0 + i as f64 * 1e-3, i as f64)).collect(),
        )
    }

    #[test]
    fn all_metrics_zero_on_identity() {
        let (_, ps) = ProjectedTraj::project_all(&[traj(30.0)]);
        for m in Metric::paper_baselines(100.0) {
            let d = m.distance_projected(&ps[0], &ps[0]);
            assert_eq!(d, 0.0, "{} not zero on identity", m.name());
        }
    }

    #[test]
    fn all_metrics_positive_on_distinct() {
        let (_, ps) = ProjectedTraj::project_all(&[traj(30.0), traj(30.5)]);
        for m in Metric::paper_baselines(100.0) {
            assert!(m.distance_projected(&ps[0], &ps[1]) > 0.0, "{} zero on distinct", m.name());
        }
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<_> = Metric::paper_baselines(1.0).iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["EDR", "LCSS", "DTW", "Hausdorff"]);
    }
}
