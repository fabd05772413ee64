//! Synthetic trajectory dataset generators.
//!
//! The paper evaluates on GeoLife (Beijing), Porto taxis, and a proprietary
//! Hangzhou taxi dataset — none of which can ship with this reproduction.
//! The paper's ground truth is itself *derived* (Algorithm 2 labels a
//! trajectory by the POI region most of its points fall into), so the
//! statistical structure the clustering methods face is: POI-anchored
//! movement + GPS noise + variable sampling/length. These generators
//! reproduce exactly that structure, with per-preset sampling intervals and
//! points-per-trajectory ratios mirroring the paper's Table II.
//!
//! Each trajectory is a momentum random walk tethered to its cluster's POI:
//! the heading drifts smoothly (road-like curvature) and is pulled back
//! toward the POI when the walker strays past the cluster spread, so the
//! "fallen rate" of Algorithm 2 is high for its own POI. A configurable
//! fraction of outlier trips wander between POIs and end up unlabelled.

use crate::point::GpsPoint;
use crate::trajectory::{Dataset, LabeledDataset, Trajectory};
use rand::Rng;
use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration for one synthetic city dataset.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SynthSpec {
    /// Dataset name (e.g. `"hangzhou-like"`).
    pub name: String,
    /// Number of trajectories to generate.
    pub num_trajectories: usize,
    /// Number of POI-anchored clusters.
    pub num_clusters: usize,
    /// Bounding box `(min_lat, min_lon, max_lat, max_lon)`.
    pub bbox: (f64, f64, f64, f64),
    /// Seconds between consecutive GPS samples.
    pub sampling_interval_s: f64,
    /// Mean mover speed in m/s.
    pub mean_speed_mps: f64,
    /// Points per trajectory, inclusive range.
    pub len_range: (usize, usize),
    /// Std-dev of per-point GPS noise, meters.
    pub gps_noise_std_m: f64,
    /// Probability of a GPS "spike" per point: urban-canyon style gross
    /// errors, 10× the base noise (§I: "raw-trajectory-based
    /// representations can be sensitive to noise, which could arise in
    /// urban canyons").
    pub spike_prob: f64,
    /// Per-trajectory sampling-interval multiplier is drawn uniformly from
    /// `1..=rate_jitter` — real fleets sample at different and non-uniform
    /// rates, which the paper calls out as the core difficulty for
    /// pair-matching metrics.
    pub rate_jitter: u32,
    /// Cluster-region radius as a fraction of the minimum POI separation.
    /// Values near 0.55 nearly fill Algorithm 2's σ = 0.6 discs, so
    /// adjacent regions almost touch at their borders.
    pub spread_ratio: f64,
    /// Trip locality: each trip is tethered to a random *sub-center*
    /// inside its cluster region, with tether radius
    /// `locality × spread`. Small values (≈0.3) mean two same-cluster
    /// trips need not overlap spatially at all — exactly the property of
    /// the paper's POI-region ground truth that defeats raw pair-matching
    /// metrics (same-region trips can be farther apart than trips in
    /// adjacent regions) while cell co-occurrence across *many* trips
    /// still exposes the region to a representation learner.
    pub locality: f64,
    /// Fraction of trajectories that wander between POIs (unlabelled noise).
    pub outlier_fraction: f64,
    /// Mild default cluster-size skew when `cluster_weights` is `None`:
    /// weights run from 1 to `1 + size_skew`. Real POI popularity is far
    /// from uniform; equal-size equal-shape clusters would make the
    /// K-Medoids optimum coincide with the ground truth and trivialize the
    /// benchmark.
    pub size_skew: f64,
    /// Relative cluster weights; `None` means the mild `size_skew` ramp.
    /// Used to build the strongly imbalanced variants of §VII-G.
    pub cluster_weights: Option<Vec<f64>>,
    /// RNG seed; every dataset is reproducible bit-for-bit.
    pub seed: u64,
}

/// A generated dataset together with the latent cluster of each trajectory
/// (`None` for outliers) and the POI anchors.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GeneratedCity {
    /// The trajectories.
    pub dataset: Dataset,
    /// Latent generating cluster per trajectory (`None` = outlier trip).
    pub intended: Vec<Option<usize>>,
    /// POI anchors, one per cluster (these feed Algorithm 2 as the
    /// "most frequently visited POIs selected on the map").
    pub pois: Vec<GpsPoint>,
}

impl SynthSpec {
    /// GeoLife-style preset: Beijing-sized box, 5 s sampling, 12 clusters,
    /// short mixed-mode trips (~18 points each, matching Table II's
    /// points-per-trajectory ratio).
    pub fn geolife_like(num_trajectories: usize, seed: u64) -> Self {
        Self {
            name: "geolife-like".into(),
            num_trajectories,
            num_clusters: 12,
            bbox: (39.86, 116.26, 39.99, 116.44),
            sampling_interval_s: 5.0,
            mean_speed_mps: 12.0,
            len_range: (10, 28),
            gps_noise_std_m: 35.0,
            spike_prob: 0.03,
            rate_jitter: 4,
            spread_ratio: 0.55,
            locality: 0.22,
            outlier_fraction: 0.05,
            size_skew: 1.5,
            cluster_weights: None,
            seed,
        }
    }

    /// Porto-style preset: 15 s taxi sampling, 15 clusters, ~39 points per
    /// trip.
    pub fn porto_like(num_trajectories: usize, seed: u64) -> Self {
        Self {
            name: "porto-like".into(),
            num_trajectories,
            num_clusters: 15,
            bbox: (41.05, -8.75, 41.25, -8.45),
            sampling_interval_s: 15.0,
            mean_speed_mps: 5.0,
            len_range: (25, 55),
            gps_noise_std_m: 30.0,
            spike_prob: 0.03,
            rate_jitter: 3,
            spread_ratio: 0.55,
            locality: 0.22,
            outlier_fraction: 0.05,
            size_skew: 1.5,
            cluster_weights: None,
            seed,
        }
    }

    /// Hangzhou-style preset: 5 s taxi sampling, 7 clusters, ~67 points per
    /// trip.
    pub fn hangzhou_like(num_trajectories: usize, seed: u64) -> Self {
        Self {
            name: "hangzhou-like".into(),
            num_trajectories,
            num_clusters: 7,
            bbox: (30.18, 120.08, 30.34, 120.28),
            sampling_interval_s: 5.0,
            mean_speed_mps: 8.0,
            len_range: (45, 90),
            gps_noise_std_m: 30.0,
            spike_prob: 0.03,
            rate_jitter: 3,
            spread_ratio: 0.55,
            locality: 0.22,
            outlier_fraction: 0.05,
            size_skew: 1.5,
            cluster_weights: None,
            seed,
        }
    }

    /// Returns a copy with skewed cluster weights (used for the imbalanced
    /// robustness study, §VII-G / Table V: largest cluster ≈ 7× smallest).
    pub fn imbalanced(mut self) -> Self {
        let k = self.num_clusters;
        let weights: Vec<f64> =
            (0..k).map(|j| if j == 0 { 7.0 } else { 1.0 + (j as f64) / k as f64 }).collect();
        self.cluster_weights = Some(weights);
        self
    }

    /// Generates the dataset.
    ///
    /// # Panics
    /// Panics on zero clusters or an invalid weight vector.
    pub fn generate(&self) -> GeneratedCity {
        assert!(self.num_clusters >= 1, "need at least one cluster");
        if let Some(w) = &self.cluster_weights {
            assert_eq!(w.len(), self.num_clusters, "one weight per cluster");
            assert!(w.iter().all(|&x| x > 0.0), "weights must be positive");
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let pois = place_pois(&mut rng, self.bbox, self.num_clusters);
        let min_sep = min_pairwise_m(&pois);
        // Walker tether. At the default 0.55 this stays inside Algorithm
        // 2's σ = 0.6 disc (so labels remain clean) while letting adjacent
        // cluster regions overlap at their borders.
        let spread_m = self.spread_ratio * min_sep;
        // One corridor bearing per cluster (the cluster's "hot route").
        // Mostly east–west, like arterial roads of a gridded city: along a
        // lattice row, adjacent clusters' corridors are collinear and
        // their ends nearly meet, so border trips are genuinely ambiguous
        // for raw distance metrics. A minority of north–south corridors
        // keeps the geometry from being a single degenerate line.
        let bearings: Vec<f64> = (0..self.num_clusters)
            .map(|_| {
                if rng.gen::<f64>() < 0.75 { 0.0 } else { std::f64::consts::FRAC_PI_2 }
            })
            .collect();
        // Per-cluster corridor length, coupled to popularity (later
        // clusters are both more popular — see the size_skew ramp below —
        // and longer): real hot routes vary in extent, and a big, long
        // cluster is precisely what a distance-based K-Medoids optimum
        // splits while merging small adjacent ones.
        let k = self.num_clusters;
        let spreads: Vec<f64> = (0..k)
            .map(|j| {
                let ramp = 0.75 + 0.25 * j as f64 / (k.max(2) - 1) as f64;
                spread_m * ramp * rng.gen_range(0.9..1.0)
            })
            .collect();

        let mut trajectories = Vec::with_capacity(self.num_trajectories);
        let mut intended = Vec::with_capacity(self.num_trajectories);
        // Mild popularity skew unless explicit weights were given.
        let default_weights: Vec<f64> = (0..self.num_clusters)
            .map(|j| {
                1.0 + self.size_skew * j as f64 / (self.num_clusters.max(2) - 1) as f64
            })
            .collect();
        let weights = self.cluster_weights.as_deref().unwrap_or(&default_weights);
        let cum = cumulative_weights(Some(weights), self.num_clusters);
        for id in 0..self.num_trajectories {
            let is_outlier = rng.gen::<f64>() < self.outlier_fraction;
            if is_outlier {
                let t = self.outlier_trip(id as u64, &pois, &mut rng);
                trajectories.push(t);
                intended.push(None);
            } else {
                let j = sample_cluster(&cum, &mut rng);
                let t = self.cluster_trip(id as u64, pois[j], bearings[j], spreads[j], &mut rng);
                trajectories.push(t);
                intended.push(Some(j));
            }
        }
        GeneratedCity {
            dataset: Dataset::new(self.name.clone(), trajectories),
            intended,
            pois,
        }
    }

    /// A trip on one cluster's "hot route": a corridor through the POI.
    ///
    /// Each cluster is a road-like corridor (fixed per-cluster bearing,
    /// length `2 × spread`) centred on its POI. A trip runs along a random
    /// *segment* of the corridor, in a random *direction*, with lateral
    /// wobble `locality × spread`. Consequences, mirroring the paper's
    /// real data:
    ///
    /// - same-cluster trips need not overlap (disjoint segments), and half
    ///   of them traverse the route backwards — order-sensitive raw
    ///   metrics (DTW/EDR/LCSS) see those as maximally dissimilar;
    /// - collectively the trips cover the corridor densely, so cell
    ///   co-occurrence exposes the route to a representation learner even
    ///   at small dataset sizes.
    fn cluster_trip(
        &self,
        id: u64,
        poi: GpsPoint,
        bearing: f64,
        spread_m: f64,
        rng: &mut impl Rng,
    ) -> Trajectory {
        // Per-trajectory sampling-rate heterogeneity: a slow-sampling
        // device records the same trip with fewer, coarser points.
        let rate_mult = rng.gen_range(1..=self.rate_jitter.max(1)) as f64;
        let interval = self.sampling_interval_s * rate_mult;
        let n = ((rng.gen_range(self.len_range.0..=self.len_range.1) as f64 / rate_mult)
            .round() as usize)
            .max(4);
        let lateral = (self.locality.clamp(0.02, 1.0) * spread_m).max(1.0);
        let (ux, uy) = (bearing.cos(), bearing.sin()); // along-corridor unit
        let (vx, vy) = (-uy, ux); // lateral unit

        // Start position along the corridor and travel direction.
        let mut along = rng.gen_range(-0.9..0.9) * spread_m;
        let mut side = gaussian(rng) * lateral * 0.5;
        let mut dir: f64 = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        let speed_base = self.mean_speed_mps * rng.gen_range(0.7..1.3);

        let mut points = Vec::with_capacity(n);
        for i in 0..n {
            let time = i as f64 * interval;
            // Urban-canyon spikes: occasional gross errors on top of the
            // base GPS noise.
            let noise = if rng.gen::<f64>() < self.spike_prob {
                self.gps_noise_std_m * 10.0
            } else {
                self.gps_noise_std_m
            };
            let x = along * ux + side * vx + gaussian(rng) * noise;
            let y = along * uy + side * vy + gaussian(rng) * noise;
            let noisy = poi.offset_m(x, y);
            points.push(GpsPoint::new(noisy.lat, noisy.lon, time));

            // Advance along the corridor; bounce at the ends.
            let speed = (speed_base * rng.gen_range(0.8..1.2)).max(0.5);
            along += dir * speed * interval;
            if along.abs() > spread_m {
                along = along.clamp(-spread_m, spread_m);
                dir = -dir;
            }
            // Lateral wobble: mean-reverting around the corridor axis.
            side = 0.8 * side + gaussian(rng) * lateral * 0.3;
            side = side.clamp(-lateral, lateral);
        }
        Trajectory::new(id, points)
    }

    /// An outlier trip: a long, fairly straight run between two random
    /// POIs — it grazes several cluster regions without belonging to any.
    fn outlier_trip(&self, id: u64, pois: &[GpsPoint], rng: &mut impl Rng) -> Trajectory {
        let n = rng.gen_range(self.len_range.0..=self.len_range.1);
        let a = pois[rng.gen_range(0..pois.len())];
        let mut b = pois[rng.gen_range(0..pois.len())];
        if pois.len() > 1 {
            while b == a {
                b = pois[rng.gen_range(0..pois.len())];
            }
        }
        let mut points = Vec::with_capacity(n);
        for i in 0..n {
            let f = i as f64 / (n - 1).max(1) as f64;
            let lat = a.lat + f * (b.lat - a.lat);
            let lon = a.lon + f * (b.lon - a.lon);
            let base = GpsPoint::new(lat, lon, i as f64 * self.sampling_interval_s);
            let noisy = base.offset_m(
                gaussian(rng) * self.gps_noise_std_m * 3.0,
                gaussian(rng) * self.gps_noise_std_m * 3.0,
            );
            points.push(GpsPoint::new(noisy.lat, noisy.lon, base.time));
        }
        Trajectory::new(id, points)
    }
}

/// Builds a balanced subset of a labelled dataset: `per_cluster`
/// trajectories drawn from each cluster (clusters smaller than that
/// contribute everything they have).
pub fn balanced_subset(data: &LabeledDataset, per_cluster: usize, seed: u64) -> LabeledDataset {
    subset_with_quota(data, |_| per_cluster, seed)
}

/// Builds an imbalanced subset: cluster 0 gets `max_per_cluster`
/// trajectories and the rest get `min_per_cluster`, mimicking Table V's
/// ≈7× skew.
pub fn imbalanced_subset(
    data: &LabeledDataset,
    min_per_cluster: usize,
    max_per_cluster: usize,
    seed: u64,
) -> LabeledDataset {
    subset_with_quota(
        data,
        |j| if j == 0 { max_per_cluster } else { min_per_cluster },
        seed,
    )
}

fn subset_with_quota(
    data: &LabeledDataset,
    quota: impl Fn(usize) -> usize,
    seed: u64,
) -> LabeledDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_cluster: Vec<Vec<usize>> = vec![Vec::new(); data.num_clusters];
    for (i, &l) in data.labels.iter().enumerate() {
        by_cluster[l].push(i);
    }
    let mut chosen = Vec::new();
    for (j, members) in by_cluster.iter_mut().enumerate() {
        // Fisher–Yates partial shuffle, then take the quota.
        let take = quota(j).min(members.len());
        for i in 0..take {
            let pick = rng.gen_range(i..members.len());
            members.swap(i, pick);
        }
        chosen.extend(members[..take].iter().map(|&i| (i, j)));
    }
    chosen.sort_unstable();
    let trajectories = chosen
        .iter()
        .map(|&(i, _)| data.dataset.trajectories[i].clone())
        .collect();
    let labels = chosen.iter().map(|&(_, j)| j).collect();
    LabeledDataset {
        dataset: Dataset::new(format!("{}-subset", data.dataset.name), trajectories),
        labels,
        num_clusters: data.num_clusters,
    }
}

/// Places `k` POIs on a jittered lattice inside the box.
///
/// A lattice (rather than rejection sampling) makes every POI's nearest
/// neighbours sit at roughly the *same* distance, so Algorithm 2's discs
/// (radius σ × min pairwise distance) leave every cluster with ambiguous
/// borders — the regime real city POIs are in, and the one that keeps the
/// clustering problem non-trivial for raw distance metrics.
fn place_pois(rng: &mut impl Rng, bbox: (f64, f64, f64, f64), k: usize) -> Vec<GpsPoint> {
    let (min_lat, min_lon, max_lat, max_lon) = bbox;
    let cols = (k as f64).sqrt().ceil() as usize;
    let rows = k.div_ceil(cols);
    // Cell pitch with a half-cell margin on every side.
    let dlat = (max_lat - min_lat) / rows as f64;
    let dlon = (max_lon - min_lon) / cols as f64;
    // Fill lattice cells in a shuffled order so which cells are left empty
    // (when rows × cols > k) varies with the seed.
    let mut cells: Vec<(usize, usize)> =
        (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c))).collect();
    for i in (1..cells.len()).rev() {
        let j = rng.gen_range(0..=i);
        cells.swap(i, j);
    }
    cells
        .into_iter()
        .take(k)
        .map(|(r, c)| {
            let jitter_lat = (rng.gen::<f64>() - 0.5) * 0.25 * dlat;
            let jitter_lon = (rng.gen::<f64>() - 0.5) * 0.25 * dlon;
            GpsPoint::new(
                min_lat + (r as f64 + 0.5) * dlat + jitter_lat,
                min_lon + (c as f64 + 0.5) * dlon + jitter_lon,
                0.0,
            )
        })
        .collect()
}

fn min_pairwise_m(pois: &[GpsPoint]) -> f64 {
    let mut min = f64::INFINITY;
    for i in 0..pois.len() {
        for j in i + 1..pois.len() {
            min = min.min(pois[i].haversine_m(&pois[j]));
        }
    }
    if min.is_finite() {
        min
    } else {
        // Single cluster: use a nominal city-scale radius.
        2_000.0
    }
}

fn cumulative_weights(weights: Option<&[f64]>, k: usize) -> Vec<f64> {
    let mut cum = Vec::with_capacity(k);
    let mut acc = 0.0;
    for j in 0..k {
        acc += weights.map_or(1.0, |w| w[j]);
        cum.push(acc);
    }
    cum
}

fn sample_cluster(cum: &[f64], rng: &mut impl Rng) -> usize {
    let total = *cum.last().expect("at least one cluster");
    let x = rng.gen::<f64>() * total;
    cum.iter().position(|&c| x < c).unwrap_or(cum.len() - 1)
}

/// One standard-normal `f64` sample (Box–Muller), shared by the city
/// generator and [`crate::augment::distort`]; kept in this crate so it
/// does not depend on `traj-nn`.
pub(crate) fn gaussian(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SynthSpec::hangzhou_like(50, 42).generate();
        let b = SynthSpec::hangzhou_like(50, 42).generate();
        assert_eq!(a.dataset.trajectories, b.dataset.trajectories);
        assert_eq!(a.intended, b.intended);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SynthSpec::hangzhou_like(20, 1).generate();
        let b = SynthSpec::hangzhou_like(20, 2).generate();
        assert_ne!(a.dataset.trajectories, b.dataset.trajectories);
    }

    #[test]
    fn presets_have_paper_cluster_counts() {
        assert_eq!(SynthSpec::geolife_like(1, 0).num_clusters, 12);
        assert_eq!(SynthSpec::porto_like(1, 0).num_clusters, 15);
        assert_eq!(SynthSpec::hangzhou_like(1, 0).num_clusters, 7);
    }

    #[test]
    fn lengths_respect_range_after_rate_jitter() {
        // Rate jitter divides the nominal point count by up to
        // `rate_jitter`, so lengths land in [lo / jitter (rounded), hi],
        // floored at 4.
        let spec = SynthSpec::porto_like(60, 3);
        let city = spec.generate();
        let (lo, hi) = spec.len_range;
        let min_allowed = (lo as f64 / spec.rate_jitter as f64).floor() as usize;
        for t in &city.dataset.trajectories {
            assert!(
                t.len() >= min_allowed.max(4).min(lo) && t.len() <= hi,
                "length {} outside [{}, {hi}]",
                t.len(),
                min_allowed.max(4).min(lo)
            );
        }
        // Heterogeneity: not all lengths equal.
        let lens: std::collections::HashSet<usize> =
            city.dataset.trajectories.iter().map(Trajectory::len).collect();
        assert!(lens.len() > 5, "rate jitter should diversify lengths");
    }

    #[test]
    fn cluster_trips_stay_near_their_poi() {
        let spec = SynthSpec::hangzhou_like(100, 7);
        let city = spec.generate();
        let min_sep = min_pairwise_m(&city.pois);
        let mut near = 0usize;
        let mut total = 0usize;
        for (t, lab) in city.dataset.trajectories.iter().zip(&city.intended) {
            let Some(j) = lab else { continue };
            let poi = city.pois[*j];
            for p in &t.points {
                total += 1;
                if p.haversine_m(&poi) <= 0.6 * min_sep {
                    near += 1;
                }
            }
        }
        let frac = near as f64 / total as f64;
        assert!(frac > 0.85, "only {frac:.2} of points within the Alg-2 radius");
    }

    #[test]
    fn points_stay_inside_an_expanded_bbox() {
        let spec = SynthSpec::geolife_like(100, 9);
        let city = spec.generate();
        let (min_lat, min_lon, max_lat, max_lon) = spec.bbox;
        let pad_lat = 0.10 * (max_lat - min_lat);
        let pad_lon = 0.10 * (max_lon - min_lon);
        for t in &city.dataset.trajectories {
            for p in &t.points {
                assert!(p.lat >= min_lat - pad_lat && p.lat <= max_lat + pad_lat);
                assert!(p.lon >= min_lon - pad_lon && p.lon <= max_lon + pad_lon);
            }
        }
    }

    #[test]
    fn imbalanced_weights_skew_cluster_sizes() {
        let spec = SynthSpec::hangzhou_like(700, 11).imbalanced();
        let city = spec.generate();
        let mut sizes = vec![0usize; spec.num_clusters];
        for lab in city.intended.iter().flatten() {
            sizes[*lab] += 1;
        }
        let max = *sizes.iter().max().expect("non-empty");
        let min = *sizes.iter().min().expect("non-empty");
        assert_eq!(sizes.iter().position(|&s| s == max), Some(0));
        assert!(max as f64 / min.max(1) as f64 > 2.5, "sizes {sizes:?} not skewed");
    }

    #[test]
    fn outlier_fraction_roughly_honoured() {
        let mut spec = SynthSpec::porto_like(1000, 13);
        spec.outlier_fraction = 0.2;
        let city = spec.generate();
        let outliers = city.intended.iter().filter(|l| l.is_none()).count();
        let frac = outliers as f64 / 1000.0;
        assert!((frac - 0.2).abs() < 0.05, "outlier fraction {frac}");
    }

    #[test]
    fn pois_respect_minimum_separation() {
        let city = SynthSpec::porto_like(10, 5).generate();
        let min = min_pairwise_m(&city.pois);
        assert!(min > 500.0, "POIs too close: {min} m");
    }
}
