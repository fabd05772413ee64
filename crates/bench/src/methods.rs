//! Method runners with end-to-end timing.
//!
//! "Clustering time" follows the paper's Fig. 3 definition: for the
//! classic baselines it is distance-matrix computation + K-Medoids; for
//! the deep models it is trajectory embedding + cluster assignment with an
//! already-trained model (the paper's point being that training amortizes
//! across requests).

use e2dtc::{E2dtc, E2dtcConfig, FitResult, LossMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use traj_cluster::{kmedoids_alternating, nmi, rand_index, uacc, KMedoidsConfig};
use traj_data::LabeledDataset;
use traj_dist::{DistanceMatrix, Metric};
use traj_query::QueryEngine;

/// UACC / NMI / RI triple (the paper's Table III columns).
#[derive(Clone, Copy, Debug, Default)]
pub struct Scores {
    /// Unsupervised clustering accuracy (Eq. 15).
    pub uacc: f64,
    /// Normalized mutual information (Eq. 16).
    pub nmi: f64,
    /// Rand index (Eq. 17).
    pub ri: f64,
}

impl Scores {
    /// Evaluates a prediction against ground truth.
    pub fn of(pred: &[usize], truth: &[usize]) -> Self {
        Self { uacc: uacc(pred, truth), nmi: nmi(pred, truth), ri: rand_index(pred, truth) }
    }
}

/// One method's outcome on one dataset.
#[derive(Clone, Debug)]
pub struct MethodResult {
    /// Method name as printed in the paper's tables.
    pub name: String,
    /// Cluster assignment per trajectory.
    pub assignments: Vec<usize>,
    /// Quality scores against the ground truth.
    pub scores: Scores,
    /// End-to-end clustering time, seconds.
    pub seconds: f64,
}

impl MethodResult {
    /// One structured run-log line per finished method, so a bench log
    /// carries the same scores the plain-text report prints.
    pub fn log(&self, recorder: &traj_obs::Recorder) {
        recorder.info(format!(
            "method {}: UACC {:.4} NMI {:.4} RI {:.4} ({:.3}s)",
            self.name, self.scores.uacc, self.scores.nmi, self.scores.ri, self.seconds
        ));
    }
}

/// Runs `<metric> + KM`: pairwise distance matrix, then scalable
/// (alternating) K-Medoids — the variant runnable at the paper's 80k
/// scale; see `traj_cluster::kmedoids_alternating`. The mean of
/// `repeats` runs is reported (the paper repeats each method 20× and
/// averages).
pub fn run_kmedoids(data: &LabeledDataset, metric: Metric, repeats: usize) -> MethodResult {
    let recorder = traj_obs::global();
    let _span = recorder.span(&format!("bench.kmedoids.{}", metric.name()));
    let start = Instant::now();
    let matrix = DistanceMatrix::compute(&data.dataset.trajectories, &metric);
    let matrix_secs = start.elapsed().as_secs_f64();
    let mut acc = Scores::default();
    let mut last_assignment = Vec::new();
    let cluster_start = Instant::now();
    for r in 0..repeats.max(1) {
        let mut rng = StdRng::seed_from_u64(0x6b6d ^ r as u64);
        let res = kmedoids_alternating(
            matrix.data(),
            data.len(),
            KMedoidsConfig::new(data.num_clusters),
            &mut rng,
        );
        let s = Scores::of(&res.assignment, &data.labels);
        acc.uacc += s.uacc;
        acc.nmi += s.nmi;
        acc.ri += s.ri;
        last_assignment = res.assignment;
    }
    let reps = repeats.max(1) as f64;
    // One end-to-end run = matrix computation + one clustering pass.
    let seconds = matrix_secs + cluster_start.elapsed().as_secs_f64() / reps;
    let result = MethodResult {
        name: format!("{} + KM", metric.name()),
        scores: Scores { uacc: acc.uacc / reps, nmi: acc.nmi / reps, ri: acc.ri / reps },
        assignments: last_assignment,
        seconds,
    };
    result.log(&recorder);
    result
}

/// Grid-searches the EDR/LCSS match threshold over `candidates_m` and
/// keeps the best-UACC run, mirroring the paper's "grid search method to
/// tune this distance threshold and report the best performance".
pub fn run_kmedoids_tuned(
    data: &LabeledDataset,
    make_metric: impl Fn(f64) -> Metric,
    candidates_m: &[f64],
    repeats: usize,
) -> MethodResult {
    candidates_m
        .iter()
        .map(|&eps| run_kmedoids(data, make_metric(eps), repeats))
        .max_by(|a, b| a.scores.uacc.total_cmp(&b.scores.uacc))
        .expect("at least one threshold candidate")
}

/// Runs the `t2vec + k-means` baseline, averaging `repeats` training runs
/// with different seeds (the paper repeats each method 20× and averages).
pub fn run_t2vec(data: &LabeledDataset, cfg: E2dtcConfig, repeats: usize) -> MethodResult {
    run_deep("t2vec + k-means", data, cfg.with_loss_mode(LossMode::L0), repeats)
}

/// Runs full E²DTC, averaging `repeats` seeded runs.
pub fn run_e2dtc(data: &LabeledDataset, cfg: E2dtcConfig, repeats: usize) -> MethodResult {
    run_deep("E2DTC", data, cfg, repeats)
}

/// Runs E²DTC under an explicit display name (used by the Table IV
/// ablations, where the same engine runs as L0/L1/L2).
pub fn run_deep(
    name: &str,
    data: &LabeledDataset,
    cfg: E2dtcConfig,
    repeats: usize,
) -> MethodResult {
    let recorder = traj_obs::global();
    let _span = recorder.span(&format!("bench.deep.{name}"));
    let mut acc = Scores::default();
    let mut seconds = 0.0;
    let mut last: Option<FitResult> = None;
    for r in 0..repeats.max(1) {
        let run_cfg = cfg.clone().with_seed(cfg.seed.wrapping_add(1000 * r as u64));
        let mut model = E2dtc::new(&data.dataset, run_cfg);
        let start = Instant::now();
        let fit = model.fit(&data.dataset);
        seconds += start.elapsed().as_secs_f64();
        let s = Scores::of(&fit.assignments, &data.labels);
        acc.uacc += s.uacc;
        acc.nmi += s.nmi;
        acc.ri += s.ri;
        last = Some(fit);
    }
    let reps = repeats.max(1) as f64;
    let fit = last.expect("at least one run");
    let result = MethodResult {
        name: name.to_string(),
        scores: Scores { uacc: acc.uacc / reps, nmi: acc.nmi / reps, ri: acc.ri / reps },
        assignments: fit.assignments,
        seconds: seconds / reps,
    };
    result.log(&recorder);
    result
}

/// Inference-only timing (the "once trained, clustering requests are
/// cheap" path of Fig. 3) through the tape-free serve path: a
/// [`QueryEngine`] over a frozen encoder (what a deployed model would
/// actually run).
pub fn time_inference_frozen(
    engine: &QueryEngine,
    data: &LabeledDataset,
) -> (Vec<usize>, f64) {
    let start = Instant::now();
    let assignments = engine.hard_assign(&data.dataset.trajectories);
    (assignments, start.elapsed().as_secs_f64())
}

