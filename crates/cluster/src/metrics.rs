//! Unsupervised clustering quality metrics (paper §VII-B).
//!
//! - **UACC** (Eq. 15): best-case accuracy after optimally relabelling
//!   predicted clusters via the Hungarian algorithm.
//! - **NMI** (Eq. 16): `I(C, C') / sqrt(H(C) · H(C'))`.
//! - **RI** (Eq. 17): `(TP + TN) / (N(N−1)/2)` over trajectory pairs.

use crate::hungarian::hungarian_max;

/// Contingency table between two labelings, plus marginals.
struct Contingency {
    /// `table[p * k_true + t]` = number of items with pred `p`, truth `t`.
    table: Vec<usize>,
    k_pred: usize,
    k_true: usize,
    pred_sizes: Vec<usize>,
    true_sizes: Vec<usize>,
    n: usize,
}

impl Contingency {
    /// Builds the table over dense ids, so its size follows the number of
    /// distinct labels rather than the largest label id. The ids keep the
    /// labels' order, and UACC, NMI and RI are invariant under relabelling.
    fn build(pred: &[usize], truth: &[usize]) -> Self {
        assert_eq!(pred.len(), truth.len(), "labelings must have equal length");
        let (pred, k_pred) = dense_ids(pred);
        let (truth, k_true) = dense_ids(truth);
        let mut table = vec![0usize; k_pred * k_true];
        let mut pred_sizes = vec![0usize; k_pred];
        let mut true_sizes = vec![0usize; k_true];
        for (&p, &t) in pred.iter().zip(&truth) {
            table[p * k_true + t] += 1;
            pred_sizes[p] += 1;
            true_sizes[t] += 1;
        }
        Self { table, k_pred, k_true, pred_sizes, true_sizes, n: pred.len() }
    }
}

/// Maps each label to its rank among the distinct labels, returning the
/// dense ids and their count.
fn dense_ids(labels: &[usize]) -> (Vec<usize>, usize) {
    let mut distinct = labels.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let ids = labels
        .iter()
        .map(|l| distinct.binary_search(l).expect("label is among the distinct labels"))
        .collect();
    (ids, distinct.len())
}

/// Unsupervised clustering accuracy (paper Eq. 15): the fraction of items
/// whose predicted cluster, after the optimal Hungarian relabelling,
/// matches the ground truth.
///
/// # Panics
/// Panics on length mismatch.
pub fn uacc(pred: &[usize], truth: &[usize]) -> f64 {
    if pred.is_empty() {
        return 1.0;
    }
    let c = Contingency::build(pred, truth);
    // Square profit matrix of matched counts, padded with zeros.
    let k = c.k_pred.max(c.k_true);
    let mut profit = vec![0.0f64; k * k];
    for p in 0..c.k_pred {
        for t in 0..c.k_true {
            profit[p * k + t] = c.table[p * c.k_true + t] as f64;
        }
    }
    let asg = hungarian_max(&profit, k);
    let matched: f64 = asg
        .iter()
        .enumerate()
        .map(|(p, &t)| profit[p * k + t])
        .sum();
    matched / c.n as f64
}

/// Normalized mutual information (paper Eq. 16), in `[0, 1]`.
///
/// Returns 1 when both labelings are constant (zero entropy on both
/// sides: the degenerate perfect match), 0 when exactly one is constant.
pub fn nmi(pred: &[usize], truth: &[usize]) -> f64 {
    if pred.is_empty() {
        return 1.0;
    }
    let c = Contingency::build(pred, truth);
    let n = c.n as f64;
    let h = |sizes: &[usize]| -> f64 {
        sizes
            .iter()
            .filter(|&&s| s > 0)
            .map(|&s| {
                let p = s as f64 / n;
                -p * p.ln()
            })
            .sum()
    };
    let h_pred = h(&c.pred_sizes);
    let h_true = h(&c.true_sizes);
    if h_pred == 0.0 && h_true == 0.0 {
        return 1.0;
    }
    if h_pred == 0.0 || h_true == 0.0 {
        return 0.0;
    }
    let mut mi = 0.0;
    for p in 0..c.k_pred {
        for t in 0..c.k_true {
            let nij = c.table[p * c.k_true + t];
            if nij == 0 {
                continue;
            }
            let pij = nij as f64 / n;
            let pi = c.pred_sizes[p] as f64 / n;
            let pj = c.true_sizes[t] as f64 / n;
            mi += pij * (pij / (pi * pj)).ln();
        }
    }
    (mi / (h_pred * h_true).sqrt()).clamp(0.0, 1.0)
}

/// Rand index (paper Eq. 17): the fraction of item pairs on which the two
/// labelings agree (same/same or different/different), in `[0, 1]`.
pub fn rand_index(pred: &[usize], truth: &[usize]) -> f64 {
    let c = Contingency::build(pred, truth);
    let n = c.n;
    if n < 2 {
        return 1.0;
    }
    let choose2 = |x: usize| (x * x.saturating_sub(1) / 2) as f64;
    let sum_ij: f64 = c.table.iter().map(|&x| choose2(x)).sum();
    let sum_p: f64 = c.pred_sizes.iter().map(|&x| choose2(x)).sum();
    let sum_t: f64 = c.true_sizes.iter().map(|&x| choose2(x)).sum();
    let total = choose2(n);
    // TP = pairs together in both; TN = total − pairs together in either.
    let tp = sum_ij;
    let tn = total - sum_p - sum_t + sum_ij;
    (tp + tn) / total
}

/// Mean silhouette coefficient of a labelled point set (flat row-major
/// `f32` points). Used as the numeric stand-in for the paper's t-SNE
/// separation figures (Figs. 4–5): higher = tighter, better-separated
/// clusters. O(n²).
///
/// Singleton clusters contribute silhouette 0 (scikit-learn convention).
pub fn silhouette(data: &[f32], n: usize, d: usize, labels: &[usize]) -> f64 {
    assert_eq!(data.len(), n * d, "points buffer must be n × d");
    assert_eq!(labels.len(), n, "one label per point");
    if n == 0 {
        return 0.0;
    }
    // Dense ids size the per-cluster tables by the number of distinct
    // labels, not by the largest label id.
    let (labels, k) = dense_ids(labels);
    let mut sizes = vec![0usize; k];
    for &l in &labels {
        sizes[l] += 1;
    }
    let dist = |i: usize, j: usize| -> f64 {
        let a = &data[i * d..(i + 1) * d];
        let b = &data[j * d..(j + 1) * d];
        crate::points::sq_dist(a, b).sqrt()
    };
    let mut total = 0.0;
    let mut sums = vec![0.0f64; k];
    for i in 0..n {
        let li = labels[i];
        if sizes[li] <= 1 {
            continue; // silhouette 0
        }
        // Mean distance to each cluster.
        sums.fill(0.0);
        for j in 0..n {
            if j != i {
                sums[labels[j]] += dist(i, j);
            }
        }
        let a = sums[li] / (sizes[li] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != li)
            .map(|c| sums[c] / sizes[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if b.is_finite() {
            total += (b - a) / a.max(b);
        }
    }
    total / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clustering_scores_one() {
        let truth = vec![0, 0, 1, 1, 2, 2];
        assert_eq!(uacc(&truth, &truth), 1.0);
        assert!((nmi(&truth, &truth) - 1.0).abs() < 1e-12);
        assert_eq!(rand_index(&truth, &truth), 1.0);
    }

    #[test]
    fn label_permutation_does_not_hurt() {
        let truth = vec![0, 0, 1, 1, 2, 2];
        let pred = vec![2, 2, 0, 0, 1, 1];
        assert_eq!(uacc(&pred, &truth), 1.0);
        assert!((nmi(&pred, &truth) - 1.0).abs() < 1e-12);
        assert_eq!(rand_index(&pred, &truth), 1.0);
    }

    #[test]
    fn one_mislabeled_item() {
        let truth = vec![0, 0, 0, 1, 1, 1];
        let pred = vec![0, 0, 1, 1, 1, 1];
        assert!((uacc(&pred, &truth) - 5.0 / 6.0).abs() < 1e-9);
        let r = rand_index(&pred, &truth);
        assert!(r > 0.5 && r < 1.0);
        let m = nmi(&pred, &truth);
        assert!(m > 0.0 && m < 1.0);
    }

    #[test]
    fn constant_prediction_gets_zero_nmi() {
        let truth = vec![0, 0, 1, 1];
        let pred = vec![0, 0, 0, 0];
        assert_eq!(nmi(&pred, &truth), 0.0);
        assert_eq!(uacc(&pred, &truth), 0.5);
    }

    #[test]
    fn independent_labelings_score_low() {
        // Prediction splits orthogonally to the truth.
        let truth = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let pred = vec![0, 1, 0, 1, 0, 1, 0, 1];
        assert!(nmi(&pred, &truth) < 0.05);
        assert!(uacc(&pred, &truth) <= 0.5 + 1e-12);
    }

    #[test]
    fn more_predicted_than_true_clusters() {
        let truth = vec![0, 0, 0, 1, 1, 1];
        let pred = vec![0, 0, 1, 2, 2, 2];
        let acc = uacc(&pred, &truth);
        assert!((acc - 5.0 / 6.0).abs() < 1e-9, "got {acc}");
    }

    #[test]
    fn rand_index_for_known_split() {
        // truth {a,b}{c}, pred {a}{b,c}: agree only on... pairs:
        // (a,b): T same, P diff -> disagree; (a,c): T diff, P diff -> agree;
        // (b,c): T diff, P same -> disagree. RI = 1/3.
        let truth = vec![0, 0, 1];
        let pred = vec![0, 1, 1];
        assert!((rand_index(&pred, &truth) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn silhouette_separated_vs_mixed() {
        // Two tight, far-apart 1-D blobs.
        let good_pts = [0.0f32, 0.1, 10.0, 10.1];
        let labels = [0usize, 0, 1, 1];
        let s_good = silhouette(&good_pts, 4, 1, &labels);
        assert!(s_good > 0.9, "separated blobs should score near 1, got {s_good}");
        // Same points, labels scrambled across blobs.
        let bad = [0usize, 1, 0, 1];
        let s_bad = silhouette(&good_pts, 4, 1, &bad);
        assert!(s_bad < 0.0, "mixed labels should score negative, got {s_bad}");
    }

    #[test]
    fn empty_and_trivial_inputs() {
        assert_eq!(uacc(&[], &[]), 1.0);
        assert_eq!(nmi(&[], &[]), 1.0);
        assert_eq!(rand_index(&[0], &[0]), 1.0);
        assert_eq!(silhouette(&[], 0, 3, &[]), 0.0);
    }
}
