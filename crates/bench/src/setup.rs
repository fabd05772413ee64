//! Shared experiment preamble.
//!
//! Every table- and figure-binary used to open with the same boilerplate:
//! parse `--scale/--n/--seed`, pick a scale-dependent cardinality, build
//! the matching `paper`/`fast` preset, generate + label a dataset, and —
//! for the inference-timing experiments — train a deep model offline.
//! [`RunArgs`] and [`train_frozen`] centralize that so the bins contain
//! only what is specific to their experiment.

use crate::datasets::{labelled_dataset, DatasetKind};
use e2dtc::{E2dtc, E2dtcConfig, FrozenEncoder};
use traj_data::LabeledDataset;

/// The common CLI arguments of an experiment binary
/// (`[--scale paper] [--n <trajectories>] [--seed <s>]`).
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// `--scale paper` was requested (full paper-scale cardinalities).
    pub paper: bool,
    /// Explicit `--n` cardinality override, if any.
    pub n_override: Option<usize>,
    /// `--seed` (default 7).
    pub seed: u64,
}

impl RunArgs {
    /// Parses the experiment flags (without the program name):
    /// `--scale paper|small` (default small), `--n <trajectories>` (a
    /// positive count) and `--seed <s>` (default 7). An unknown flag, a
    /// flag without its value or a value that does not parse is an error.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut run = Self { paper: false, n_override: None, seed: 7 };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if !matches!(flag.as_str(), "--scale" | "--n" | "--seed") {
                return Err(format!("unknown flag {flag}"));
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value:?}");
            match flag.as_str() {
                "--scale" if value == "paper" || value == "small" => run.paper = value == "paper",
                "--n" => run.n_override = Some(value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?),
                "--seed" => run.seed = value.parse().map_err(|_| bad())?,
                _ => return Err(bad()),
            }
        }
        Ok(run)
    }

    /// Parses the process arguments with [`RunArgs::parse_from`]; on an
    /// error prints `error: …` and exits with status 1.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        })
    }

    /// The dataset cardinality: the `--n` override when given, else the
    /// scale-dependent default.
    pub fn n(&self, paper_default: usize, small_default: usize) -> usize {
        self.n_override
            .unwrap_or(if self.paper { paper_default } else { small_default })
    }

    /// The scale-matched preset (`paper` vs `fast`), seeded with `--seed`.
    pub fn config(&self, k_clusters: usize) -> E2dtcConfig {
        if self.paper {
            E2dtcConfig::paper(k_clusters)
        } else {
            E2dtcConfig::fast(k_clusters)
        }
        .with_seed(self.seed)
    }

    /// Generates and labels a dataset of `n` trajectories (Algorithm 2
    /// ground truth), logging its shape under the experiment's `tag`.
    pub fn dataset(&self, tag: &str, kind: DatasetKind, n: usize) -> LabeledDataset {
        let data = labelled_dataset(kind, n, self.seed);
        eprintln!(
            "[{tag}] {}: {} labelled trajectories, k = {}",
            kind.name(),
            data.len(),
            data.num_clusters
        );
        data
    }
}

/// Trains a model offline and freezes it for inference timing — the
/// serve-side setup of Fig. 3 ("once the deep learning models have been
/// trained offline, they can be efficiently utilized for trajectory
/// clustering tasks").
///
/// `L0` runs (the t2vec baseline) leave centroid fitting to the caller,
/// so when the fitted model has none, k-means centroids are fitted on its
/// own training embedding — making its inference path (embed + nearest
/// centroid) measurable the same way as full E²DTC.
pub fn train_frozen(data: &LabeledDataset, cfg: E2dtcConfig) -> FrozenEncoder {
    let mut model = E2dtc::new(&data.dataset, cfg);
    let _ = model.fit(&data.dataset);
    let frozen = model.freeze();
    if frozen.centroids().is_some() {
        return frozen;
    }
    let emb = model.embed_dataset(&data.dataset);
    model.init_centroids(&emb);
    model.freeze()
}
