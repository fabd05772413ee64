//! Training-time trajectory augmentation (paper §V-C).
//!
//! Following t2vec, the pre-training phase feeds the model corrupted
//! trajectories and asks it to reconstruct the originals: points are
//! randomly **dropped** with rate `r1` (simulating a low sampling rate) and
//! the survivors are randomly **distorted** with rate `r2` by adding
//! Gaussian noise (simulating GPS error). With the paper's grids
//! `r1, r2 ∈ {0, 0.2, 0.4, 0.6}` each trajectory yields 16 `(T'_a, T_a)`
//! pairs.

use crate::synth::gaussian;
use crate::trajectory::Trajectory;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The paper's rate grid for both dropping and distorting.
pub const PAPER_RATES: [f64; 4] = [0.0, 0.2, 0.4, 0.6];

/// Augmentation configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AugmentConfig {
    /// Dropping rates `r1` to sweep.
    pub drop_rates: Vec<f64>,
    /// Distortion rates `r2` to sweep.
    pub distort_rates: Vec<f64>,
    /// Std-dev of the Gaussian noise added to distorted points, meters.
    pub noise_std_m: f64,
}

impl Default for AugmentConfig {
    fn default() -> Self {
        Self {
            drop_rates: PAPER_RATES.to_vec(),
            distort_rates: PAPER_RATES.to_vec(),
            noise_std_m: 50.0,
        }
    }
}

impl AugmentConfig {
    /// A reduced two-rate grid (4 pairs per trajectory) for fast tests and
    /// scaled-down experiments.
    pub fn light() -> Self {
        Self { drop_rates: vec![0.0, 0.4], distort_rates: vec![0.0, 0.4], noise_std_m: 50.0 }
    }

    /// Number of `(T', T)` pairs produced per trajectory.
    pub fn pairs_per_trajectory(&self) -> usize {
        self.drop_rates.len() * self.distort_rates.len()
    }
}

/// Randomly removes points with probability `rate`, always keeping the
/// first and last points so the trip's endpoints survive.
pub fn downsample(t: &Trajectory, rate: f64, rng: &mut impl Rng) -> Trajectory {
    let n = t.points.len();
    if n <= 2 || rate <= 0.0 {
        return t.clone();
    }
    let mut points = Vec::with_capacity(n);
    for (i, p) in t.points.iter().enumerate() {
        let keep = i == 0 || i == n - 1 || rng.gen::<f64>() >= rate;
        if keep {
            points.push(*p);
        }
    }
    Trajectory::new(t.id, points)
}

/// With probability `rate` per point, adds isotropic Gaussian noise with
/// std-dev `noise_std_m` meters.
pub fn distort(t: &Trajectory, rate: f64, noise_std_m: f64, rng: &mut impl Rng) -> Trajectory {
    if rate <= 0.0 || noise_std_m <= 0.0 {
        return t.clone();
    }
    let points = t
        .points
        .iter()
        .map(|p| {
            if rng.gen::<f64>() < rate {
                let dx = gaussian(rng) * noise_std_m;
                let dy = gaussian(rng) * noise_std_m;
                p.offset_m(dx, dy)
            } else {
                *p
            }
        })
        .collect();
    Trajectory::new(t.id, points)
}

/// Applies drop-then-distort, producing one corrupted variant `T'_a`.
pub fn corrupt(
    t: &Trajectory,
    drop_rate: f64,
    distort_rate: f64,
    noise_std_m: f64,
    rng: &mut impl Rng,
) -> Trajectory {
    let down = downsample(t, drop_rate, rng);
    distort(&down, distort_rate, noise_std_m, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::GpsPoint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line_traj(n: usize) -> Trajectory {
        Trajectory::new(
            0,
            (0..n)
                .map(|i| GpsPoint::new(30.0 + i as f64 * 1e-3, 120.0, i as f64 * 5.0))
                .collect(),
        )
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = line_traj(50);
        let d = downsample(&t, 0.9, &mut rng);
        assert_eq!(d.points.first(), t.points.first());
        assert_eq!(d.points.last(), t.points.last());
        assert!(d.len() < t.len());
        assert!(d.len() >= 2);
    }

    #[test]
    fn downsample_rate_zero_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = line_traj(20);
        assert_eq!(downsample(&t, 0.0, &mut rng), t);
    }

    #[test]
    fn downsample_expected_survivors() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = line_traj(2000);
        let d = downsample(&t, 0.4, &mut rng);
        let frac = d.len() as f64 / t.len() as f64;
        assert!((frac - 0.6).abs() < 0.05, "survivor fraction {frac}");
    }

    #[test]
    fn distort_moves_points_bounded_by_noise() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = line_traj(100);
        let d = distort(&t, 1.0, 30.0, &mut rng);
        assert_eq!(d.len(), t.len());
        let mut moved = 0;
        for (a, b) in t.points.iter().zip(&d.points) {
            let dist = a.haversine_m(b);
            assert!(dist < 30.0 * 6.0, "6-sigma bound violated: {dist}");
            if dist > 0.0 {
                moved += 1;
            }
        }
        assert!(moved > 90, "rate 1.0 should move nearly every point");
    }

    #[test]
    fn distort_preserves_timestamps() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = line_traj(10);
        let d = distort(&t, 1.0, 30.0, &mut rng);
        for (a, b) in t.points.iter().zip(&d.points) {
            assert_eq!(a.time, b.time);
        }
    }

    #[test]
    fn paper_rate_grid_yields_16_pairs() {
        assert_eq!(AugmentConfig::default().pairs_per_trajectory(), 16);
        // The (0, 0) corner of the grid is the identity corruption.
        let mut rng = StdRng::seed_from_u64(5);
        let t = line_traj(30);
        assert_eq!(corrupt(&t, 0.0, 0.0, 50.0, &mut rng), t);
    }
}
