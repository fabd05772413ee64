//! Compact token vocabulary over observed grid cells.
//!
//! A city-scale grid has tens of thousands of cells but trajectories only
//! ever visit a small fraction. Restricting the decoder's softmax to the
//! *observed* cells (plus `UNK`/`BOS` specials) cuts the dominant
//! `hidden × |V|` projection cost by an order of magnitude without changing
//! the objective — unobserved cells can never be reconstruction targets.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use traj_data::{Grid, Trajectory};

/// Dense id of the unknown-cell token (corrupted points may wander into
/// never-observed cells; they are encoded as `UNK` on the input side and
/// never appear as targets).
pub const UNK: usize = 0;
/// Dense id of the decoder's begin-of-sequence token.
pub const BOS: usize = 1;
/// Number of reserved special tokens.
pub const SPECIALS: usize = 2;

/// Bidirectional mapping between grid tokens and dense vocabulary ids.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Vocab {
    dense_of_grid: HashMap<usize, usize>,
    grid_of_dense: Vec<usize>,
}

impl Vocab {
    /// Builds the vocabulary from every cell observed in `trajectories`
    /// under `grid`.
    pub fn build(grid: &Grid, trajectories: &[Trajectory]) -> Self {
        let mut dense_of_grid = HashMap::new();
        let mut grid_of_dense = Vec::new();
        for t in trajectories {
            for tok in grid.tokenize(t) {
                dense_of_grid.entry(tok).or_insert_with(|| {
                    grid_of_dense.push(tok);
                    SPECIALS + grid_of_dense.len() - 1
                });
            }
        }
        Self { dense_of_grid, grid_of_dense }
    }

    /// Checks a vocabulary that was read rather than built against its
    /// grid: the two maps are inverse, every dense id lies in
    /// `SPECIALS..size()`, and every grid token is a cell of `grid`.
    pub(crate) fn validate(&self, grid: &Grid) -> Result<(), String> {
        if self.dense_of_grid.len() != self.grid_of_dense.len() {
            return Err(format!(
                "{} grid tokens map to dense ids but {} dense ids to grid tokens",
                self.dense_of_grid.len(),
                self.grid_of_dense.len()
            ));
        }
        // With equal sizes, each cell mapping back to its own dense id
        // makes the cells distinct, so the maps are inverse and every
        // dense id is `SPECIALS + i` for some cell `i`.
        for (i, &tok) in self.grid_of_dense.iter().enumerate() {
            if tok >= grid.vocab_size() {
                return Err(format!("cell {tok} is outside the {}-cell grid", grid.vocab_size()));
            }
            if self.dense_of_grid.get(&tok) != Some(&(SPECIALS + i)) {
                return Err(format!("cell {tok} does not map back to dense id {}", SPECIALS + i));
            }
        }
        Ok(())
    }

    /// Total vocabulary size including specials.
    pub fn size(&self) -> usize {
        SPECIALS + self.grid_of_dense.len()
    }

    /// Number of real (cell) tokens.
    pub fn num_cells(&self) -> usize {
        self.grid_of_dense.len()
    }

    /// Dense id of a grid token, or `UNK` when unobserved.
    pub fn encode(&self, grid_token: usize) -> usize {
        self.dense_of_grid.get(&grid_token).copied().unwrap_or(UNK)
    }

    /// Grid token of a dense id; `None` for specials.
    pub fn decode(&self, dense: usize) -> Option<usize> {
        if dense < SPECIALS {
            None
        } else {
            self.grid_of_dense.get(dense - SPECIALS).copied()
        }
    }

    /// True when the id refers to a real cell.
    pub fn is_cell(&self, dense: usize) -> bool {
        dense >= SPECIALS && dense < self.size()
    }

    /// Encodes a trajectory into its dense token sequence (consecutive
    /// duplicates collapsed by [`Grid::tokenize`]), uniformly subsampled to
    /// at most `max_len` tokens. A trajectory with no points encodes as
    /// `[UNK]`, so every sequence has at least one token.
    pub fn encode_trajectory(
        &self,
        grid: &Grid,
        t: &Trajectory,
        max_len: usize,
    ) -> Vec<usize> {
        let toks = grid.tokenize(t);
        if toks.is_empty() {
            return vec![UNK];
        }
        let seq: Vec<usize> = toks.iter().map(|&g| self.encode(g)).collect();
        subsample(seq, max_len)
    }
}

/// Uniformly subsamples a sequence to at most `max_len` elements,
/// preserving order and endpoints.
pub fn subsample(seq: Vec<usize>, max_len: usize) -> Vec<usize> {
    let n = seq.len();
    if n <= max_len || max_len == 0 {
        return seq;
    }
    if max_len == 1 {
        return vec![seq[0]];
    }
    (0..max_len)
        .map(|i| {
            let idx = i * (n - 1) / (max_len - 1);
            seq[idx]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_data::{Dataset, GpsPoint};

    fn fixture() -> (Grid, Vec<Trajectory>) {
        let mut trajs = Vec::new();
        for i in 0..3 {
            let pts = (0..5)
                .map(|j| {
                    GpsPoint::new(30.0 + i as f64 * 0.01, 120.0 + j as f64 * 0.01, j as f64)
                })
                .collect();
            trajs.push(Trajectory::new(i as u64, pts));
        }
        let grid = Grid::fit(&Dataset::new("t", trajs.clone()), 300.0);
        (grid, trajs)
    }

    #[test]
    fn observed_cells_get_stable_dense_ids() {
        let (grid, trajs) = fixture();
        let vocab = Vocab::build(&grid, &trajs);
        assert!(vocab.num_cells() >= 10, "3 × 5 distinct-ish cells expected");
        for t in &trajs {
            for tok in grid.tokenize(t) {
                let dense = vocab.encode(tok);
                assert!(vocab.is_cell(dense));
                assert_eq!(vocab.decode(dense), Some(tok));
            }
        }
    }

    #[test]
    fn unobserved_maps_to_unk() {
        let (grid, trajs) = fixture();
        let vocab = Vocab::build(&grid, &trajs);
        // A grid corner no trajectory visits.
        let corner = grid.vocab_size() - 1;
        if grid.tokenize(&trajs[0]).iter().all(|&t| t != corner) {
            assert_eq!(vocab.encode(corner), UNK);
        }
        assert_eq!(vocab.decode(UNK), None);
        assert_eq!(vocab.decode(BOS), None);
    }

    #[test]
    fn encode_trajectory_respects_cap() {
        let (grid, trajs) = fixture();
        let vocab = Vocab::build(&grid, &trajs);
        let full = vocab.encode_trajectory(&grid, &trajs[0], 1000);
        let capped = vocab.encode_trajectory(&grid, &trajs[0], 3);
        assert!(capped.len() <= 3);
        assert_eq!(capped.first(), full.first());
        assert_eq!(capped.last(), full.last());
    }

    #[test]
    fn empty_trajectory_encodes_as_unk() {
        let (grid, trajs) = fixture();
        let vocab = Vocab::build(&grid, &trajs);
        let empty = Trajectory::new(9, Vec::new());
        assert_eq!(vocab.encode_trajectory(&grid, &empty, 10), vec![UNK]);
    }

    #[test]
    fn subsample_preserves_endpoints_and_order() {
        let seq: Vec<usize> = (0..100).collect();
        let s = subsample(seq.clone(), 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 0);
        assert_eq!(*s.last().expect("non-empty"), 99);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(subsample(seq.clone(), 200), seq);
    }

    #[test]
    fn subsample_edge_cases() {
        assert_eq!(subsample(vec![5, 6, 7], 1), vec![5]);
        assert_eq!(subsample(vec![], 4), Vec::<usize>::new());
    }
}
