//! K-Medoids over a precomputed distance matrix.
//!
//! The paper's classic baselines are "K-Medoids clustering methods by
//! considering different distance metrics" (§VII-A). K-Medoids works
//! directly on pairwise distances, which is what makes it applicable to
//! EDR / LCSS / DTW / Hausdorff where no mean exists.

use rayon::prelude::*;

/// K-Medoids configuration.
#[derive(Clone, Copy, Debug)]
pub struct KMedoidsConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum update passes.
    pub max_iters: usize,
}

impl KMedoidsConfig {
    /// Default configuration for `k` clusters.
    pub fn new(k: usize) -> Self {
        Self { k, max_iters: 50 }
    }
}

/// K-Medoids result.
#[derive(Clone, Debug)]
pub struct KMedoidsResult {
    /// Indices of the chosen medoids.
    pub medoids: Vec<usize>,
    /// Cluster assignment per point (index into `medoids`).
    pub assignment: Vec<usize>,
    /// Total distance of points to their medoids.
    pub cost: f64,
    /// Update passes executed.
    pub iterations: usize,
}

/// Alternating ("Voronoi iteration") K-Medoids: random distinct medoids,
/// then assign-points / re-pick-medoid-per-cluster until stable.
///
/// This is the variant runnable at the paper's 80k-trajectory scale (PAM's
/// BUILD + SWAP costs O(k·n²) *per pass*), and the one large-scale
/// libraries implement. It converges to local optima that full PAM would
/// escape; the experiment harness runs it for the `<metric> + KM`
/// baselines.
///
/// # Panics
/// Panics when `dist.len() != n * n`, `k == 0`, or `k > n`.
pub fn kmedoids_alternating(
    dist: &[f64],
    n: usize,
    cfg: KMedoidsConfig,
    rng: &mut impl rand::Rng,
) -> KMedoidsResult {
    assert_eq!(dist.len(), n * n, "distance buffer must be n²");
    let k = cfg.k;
    assert!(k >= 1, "k must be positive");
    assert!(k <= n, "k = {k} exceeds n = {n}");

    // Random distinct initial medoids (partial Fisher–Yates).
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let pick = rng.gen_range(i..n);
        idx.swap(i, pick);
    }
    let mut medoids: Vec<usize> = idx[..k].to_vec();

    let mut assignment = assign(dist, n, &medoids);
    let mut iterations = 0;
    for _ in 0..cfg.max_iters {
        iterations += 1;
        // Update: each cluster's new medoid minimizes intra-cluster cost.
        let mut changed = false;
        for c in 0..k {
            let members: Vec<usize> =
                (0..n).filter(|&i| assignment[i] == c).collect();
            if members.is_empty() {
                continue;
            }
            let best = members
                .par_iter()
                .map(|&cand| {
                    let cost: f64 = members.iter().map(|&i| dist[i * n + cand]).sum();
                    (cand, cost)
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(cand, _)| cand)
                .expect("non-empty members");
            if best != medoids[c] {
                medoids[c] = best;
                changed = true;
            }
        }
        let new_assignment = assign(dist, n, &medoids);
        if !changed && new_assignment == assignment {
            break;
        }
        assignment = new_assignment;
    }
    let cost = total_cost(dist, n, &medoids);
    KMedoidsResult { medoids, assignment, cost, iterations }
}

fn total_cost(dist: &[f64], n: usize, medoids: &[usize]) -> f64 {
    (0..n)
        .map(|i| {
            medoids
                .iter()
                .map(|&m| dist[i * n + m])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

fn assign(dist: &[f64], n: usize, medoids: &[usize]) -> Vec<usize> {
    (0..n)
        .map(|i| {
            medoids
                .iter()
                .enumerate()
                .min_by(|a, b| dist[i * n + a.1].total_cmp(&dist[i * n + b.1]))
                .map(|(c, _)| c)
                .expect("at least one medoid")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Distance matrix for points on a line: 0, 1, 2, 10, 11, 12.
    fn line_matrix() -> (Vec<f64>, usize) {
        let xs = [0.0f64, 1.0, 2.0, 10.0, 11.0, 12.0];
        let n = xs.len();
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                d[i * n + j] = (xs[i] - xs[j]).abs();
            }
        }
        (d, n)
    }

    fn run(d: &[f64], n: usize, k: usize) -> KMedoidsResult {
        let mut rng = StdRng::seed_from_u64(3);
        kmedoids_alternating(d, n, KMedoidsConfig::new(k), &mut rng)
    }

    #[test]
    fn two_line_clusters_are_separated() {
        let (d, n) = line_matrix();
        let res = run(&d, n, 2);
        assert_eq!(res.assignment[0], res.assignment[1]);
        assert_eq!(res.assignment[1], res.assignment[2]);
        assert_eq!(res.assignment[3], res.assignment[4]);
        assert_eq!(res.assignment[4], res.assignment[5]);
        assert_ne!(res.assignment[0], res.assignment[3]);
        // Optimal medoids are the group centers 1 and 11.
        let mut m = res.medoids.clone();
        m.sort_unstable();
        assert_eq!(m, vec![1, 4]);
        assert!((res.cost - 4.0).abs() < 1e-9);
    }

    #[test]
    fn k_one_picks_global_medoid() {
        let (d, n) = line_matrix();
        let res = run(&d, n, 1);
        // Any of the central points minimizes total distance (index 2 or 3,
        // cost 30 each).
        assert!((res.cost - 30.0).abs() < 1e-9);
    }

    #[test]
    fn medoids_are_members_and_self_assigned() {
        let (d, n) = line_matrix();
        let res = run(&d, n, 3);
        for (c, &m) in res.medoids.iter().enumerate() {
            assert!(m < n);
            assert_eq!(res.assignment[m], c, "medoid must belong to its own cluster");
        }
    }

    #[test]
    fn k_equals_n_zero_cost() {
        let (d, n) = line_matrix();
        let res = run(&d, n, n);
        assert_eq!(res.cost, 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn k_too_large_panics() {
        let (d, n) = line_matrix();
        let _ = run(&d, n, n + 1);
    }

    #[test]
    fn alternating_variant_converges_and_is_valid() {
        let (d, n) = line_matrix();
        let res = run(&d, n, 2);
        assert_eq!(res.assignment.len(), n);
        assert!(res.medoids.iter().all(|&m| m < n));
        assert!(res.cost.is_finite());
        // On this trivially-separated line it should still find the optimum.
        assert!((res.cost - 4.0).abs() < 1e-9, "cost {}", res.cost);
    }
}
