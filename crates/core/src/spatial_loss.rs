//! Spatial-proximity-aware target weights (paper Eq. 8).
//!
//! Plain NLL treats every wrong cell as equally wrong; Eq. 8 instead
//! spreads the target mass over the `k` nearest cells of the ground-truth
//! cell, weighted by `exp(−‖v_g − v_g'‖₂ / α)` over the *cell-embedding*
//! vectors — so predicting a nearby cell is penalized gently and a distant
//! cell heavily. Restricting to the kNN of the target (rather than all of
//! `V`) is the paper's own cost reduction.
//!
//! This module precomputes, for every vocabulary cell, its sparse weight
//! distribution. `Seq2Seq::reconstruction_loss` hands the rows of each
//! decoder step's live targets to `Linear::softmax_nll`, which runs the
//! vocabulary projection, the softmax and this loss as one tape node over
//! the live rows.

use crate::cell_embedding::row_distance;
use crate::vocab::{Vocab, SPECIALS};
use serde::{Deserialize, Serialize};
use traj_data::Grid;
use traj_nn::Tensor;

/// Per-target-cell sparse weight distributions for Eq. 8.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WeightTable {
    /// `weights[dense_id]` = sparse `(column, weight)` list summing to 1.
    weights: Vec<Vec<(usize, f32)>>,
}

impl WeightTable {
    /// Builds the table.
    ///
    /// For each vocabulary cell: take the `k` spatially nearest vocabulary
    /// cells (grid distance, self included), weight them by
    /// `exp(−‖v_j − v_target‖ / α)` over the skip-gram `cell_vectors`, and
    /// normalize. `alpha → 0` collapses to a one-hot target (plain NLL).
    /// Special tokens get one-hot self targets.
    pub fn build(
        grid: &Grid,
        vocab: &Vocab,
        cell_vectors: &Tensor,
        k: usize,
        alpha: f32,
    ) -> Self {
        assert!(k >= 1, "kNN size must be at least 1");
        assert_eq!(
            cell_vectors.rows(),
            vocab.size(),
            "one embedding row per vocabulary token"
        );
        let size = vocab.size();
        let mut weights = Vec::with_capacity(size);
        for dense in 0..size {
            if !vocab.is_cell(dense) {
                weights.push(vec![(dense, 1.0)]);
                continue;
            }
            let grid_token = vocab.decode(dense).expect("is_cell checked");
            // k nearest *vocabulary* cells by grid distance: a scan of the
            // observed cells (|V| is compact), so unobserved grid cells
            // never enter the support.
            let mut cands: Vec<(f64, usize)> = (SPECIALS..size)
                .map(|other| {
                    let og = vocab.decode(other).expect("cell id");
                    (grid.cell_distance_m(grid_token, og), other)
                })
                .collect();
            cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            cands.truncate(k);

            let mut row: Vec<(usize, f32)> = if alpha <= f32::EPSILON {
                vec![(dense, 1.0)]
            } else {
                cands
                    .iter()
                    .map(|&(_, other)| {
                        let d = row_distance(cell_vectors, other, dense);
                        (other, (-d / alpha).exp())
                    })
                    .collect()
            };
            let sum: f32 = row.iter().map(|&(_, w)| w).sum();
            if sum > 0.0 {
                for (_, w) in row.iter_mut() {
                    *w /= sum;
                }
            } else {
                row = vec![(dense, 1.0)];
            }
            weights.push(row);
        }
        Self { weights }
    }

    /// Checks a table that was read rather than built: one entry per
    /// vocabulary id, every column a vocabulary id, every weight finite.
    pub(crate) fn validate(&self, vocab_size: usize) -> Result<(), String> {
        if self.weights.len() != vocab_size {
            return Err(format!("{} entries for {vocab_size} vocabulary ids", self.weights.len()));
        }
        let bad = |row: &Vec<(usize, f32)>| {
            row.iter().any(|&(col, w)| col >= vocab_size || !w.is_finite())
        };
        match self.weights.iter().position(bad) {
            Some(dense) => Err(format!("entry {dense} has an out-of-range column or weight")),
            None => Ok(()),
        }
    }

    /// Sparse target distribution for a dense token id.
    pub fn target(&self, dense: usize) -> &[(usize, f32)] {
        &self.weights[dense]
    }

    /// Number of tokens covered.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use traj_data::{Dataset, GpsPoint, Trajectory};
    use traj_nn::init::Init;

    fn fixture() -> (Grid, Vocab) {
        // A straight line of points, one cell apart.
        let pts = (0..8)
            .map(|j| GpsPoint::new(30.0, 120.0 + j as f64 * 0.004, j as f64))
            .collect();
        let t = Trajectory::new(0, pts);
        let grid = Grid::fit(&Dataset::new("t", vec![t.clone()]), 300.0);
        let vocab = Vocab::build(&grid, &[t]);
        (grid, vocab)
    }

    fn random_vectors(vocab: &Vocab, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Init::Normal(0.3).tensor(vocab.size(), 8, &mut rng)
    }

    #[test]
    fn rows_are_normalized_distributions() {
        let (grid, vocab) = fixture();
        let vecs = random_vectors(&vocab, 0);
        let table = WeightTable::build(&grid, &vocab, &vecs, 4, 1.0);
        assert_eq!(table.len(), vocab.size());
        for dense in 0..vocab.size() {
            let row = table.target(dense);
            assert!(!row.is_empty());
            let sum: f32 = row.iter().map(|&(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {dense} sums to {sum}");
            assert!(row.iter().all(|&(_, w)| w >= 0.0));
            assert!(row.iter().all(|&(c, _)| c < vocab.size()));
        }
    }

    #[test]
    fn target_cell_is_always_covered() {
        let (grid, vocab) = fixture();
        let vecs = random_vectors(&vocab, 1);
        let table = WeightTable::build(&grid, &vocab, &vecs, 4, 1.0);
        for dense in SPECIALS..vocab.size() {
            assert!(
                table.target(dense).iter().any(|&(c, _)| c == dense),
                "target {dense} missing from its own kNN"
            );
        }
    }

    #[test]
    fn alpha_zero_degrades_to_one_hot() {
        let (grid, vocab) = fixture();
        let vecs = random_vectors(&vocab, 2);
        let table = WeightTable::build(&grid, &vocab, &vecs, 6, 0.0);
        for dense in SPECIALS..vocab.size() {
            assert_eq!(table.target(dense), &[(dense, 1.0)]);
        }
    }

    #[test]
    fn specials_get_one_hot_targets() {
        let (grid, vocab) = fixture();
        let vecs = random_vectors(&vocab, 3);
        let table = WeightTable::build(&grid, &vocab, &vecs, 4, 1.0);
        assert_eq!(table.target(0), &[(0, 1.0)]);
        assert_eq!(table.target(1), &[(1, 1.0)]);
    }

    #[test]
    fn knn_truncates_support() {
        let (grid, vocab) = fixture();
        let vecs = random_vectors(&vocab, 4);
        let table = WeightTable::build(&grid, &vocab, &vecs, 3, 1.0);
        for dense in SPECIALS..vocab.size() {
            assert!(table.target(dense).len() <= 3);
        }
    }
}
