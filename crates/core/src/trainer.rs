//! The E²DTC training pipeline (paper §V, Algorithm 1) — everything that
//! needs `&mut`: the epoch driver both training phases share, non-finite
//! guards with snapshot rollback, and the periodic-checkpoint policy.
//!
//! Phases, exactly as Fig. 2 lays them out:
//!
//! 1. **Trajectory embedding** (construction, in [`E2dtc::new`]): grid
//!    discretization, compact vocabulary, skip-gram cell vectors.
//! 2. **Pre-training** ([`E2dtc::pretrain`]): corrupt-and-reconstruct
//!    training of the seq2seq model under the spatial loss `L_r` (Eq. 8),
//!    then k-means in the feature space to seed the cluster centroids.
//! 3. **Self-training**: joint optimization of
//!    `L_r + β·L_c + γ·L_t` (Eq. 14), with the target distribution `P`
//!    recomputed each epoch and training stopped once cluster assignments
//!    change by at most `δ`.
//!
//! [`E2dtc::fit`] runs all three and returns assignments, embeddings, and
//! the per-epoch history.
//!
//! Phases 2 and 3 are one loop run twice. `run_phase` drives a phase's
//! epochs (snapshot, train, roll back and replay or record, checkpoint),
//! `train_epoch` is the one batch loop and `step` the one mini-batch
//! update. Pre-training passes no clustering targets, so `step` computes
//! `L_r` alone. Self-training first refreshes `Q`/`P` and the assignments
//! for the epoch (a `Targets`), and `step` adds `β·L_c` and `γ·L_t`.
//!
//! ## Fault tolerance (DESIGN.md §10)
//!
//! Training is the single point of failure in the paper's
//! train-once/serve-forever story, so `fit` is hardened three ways:
//!
//! - **Non-finite guards** — every batch's loss and gradients pass
//!   through a [`traj_nn::NonFiniteGuard`]; a poisoned update is skipped
//!   (gradients zeroed, no optimizer step), and after
//!   `GUARD_PATIENCE` consecutive poisoned batches the epoch is replayed
//!   from an in-memory start-of-epoch snapshot with the learning rate
//!   multiplied by `GUARD_LR_BACKOFF`. Recoveries surface in
//!   [`EpochRecord::skipped_batches`] / [`EpochRecord::rollbacks`].
//! - **Periodic durable checkpoints** — with `checkpoint_every > 0` and a
//!   `checkpoint_dir`, a training checkpoint (atomic write, checksum;
//!   see [`crate::persist`]) is written after every N completed epochs
//!   and rotated to the newest `checkpoint_keep_last` files.
//! - **Resume** — [`E2dtc::resume`] restores model, optimizer, RNG
//!   stream, and the phase cursor from the last good checkpoint; a
//!   resumed `fit` continues where the interrupted run stopped and, for
//!   the same seed, reproduces the uninterrupted run's final assignments
//!   exactly (pinned by `tests/resume_integration.rs`).

use crate::batcher::{length_buckets, shuffle_batches};
use crate::config::LossMode;
use crate::dec::{hard_assignment, label_change_fraction};
use crate::model::E2dtc;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use traj_data::augment::corrupt;
use traj_cluster::{kmeans, KMeansConfig, Points};
use traj_data::{Dataset, Trajectory};
use traj_nn::optim::Adam;
use traj_nn::{
    student_t_assignment, target_distribution, GuardVerdict, NonFiniteGuard, ParamId,
    ParamStore, Tape, Tensor, Var,
};

/// Hard cap on guard rollbacks per `fit` call. Replaying an epoch from
/// the same snapshot with the same RNG stream can reproduce the same
/// non-finite batch when the instability is deterministic; the budget
/// turns that pathology into an early stop instead of a livelock.
const MAX_ROLLBACKS: usize = 8;

/// Consecutive non-finite batches `fit` tolerates before it rolls the
/// epoch back to its start-of-epoch snapshot.
const GUARD_PATIENCE: usize = 3;

/// Learning-rate multiplier applied on each guard rollback.
const GUARD_LR_BACKOFF: f32 = 0.5;

/// Which phase an epoch record belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Pre-training (reconstruction only).
    Pretrain,
    /// Self-training (joint loss).
    SelfTrain,
}

impl Phase {
    /// Wire name used in run-log epoch events.
    pub fn wire_name(self) -> &'static str {
        match self {
            Phase::Pretrain => "pretrain",
            Phase::SelfTrain => "selftrain",
        }
    }
}

/// One epoch of training history.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Phase the epoch belongs to.
    pub phase: Phase,
    /// Epoch index within its phase.
    pub epoch: usize,
    /// Mean reconstruction loss `L_r` (over non-skipped batches).
    pub recon_loss: f32,
    /// Mean clustering loss `L_c` (0 when inactive).
    pub cluster_loss: f32,
    /// Mean triplet loss `L_t` (0 when inactive).
    pub triplet_loss: f32,
    /// Fraction of trajectories that changed cluster at the epoch start
    /// (self-training only).
    pub label_change: Option<f64>,
    /// Mean pre-clip global gradient norm over applied optimizer steps
    /// (0 when no step was applied).
    pub grad_norm: f32,
    /// Learning rate in force during the epoch.
    pub lr: f32,
    /// Batches whose update was dropped by the non-finite guard.
    pub skipped_batches: usize,
    /// Snapshot rollbacks consumed while (re)running this epoch.
    pub rollbacks: usize,
}

impl EpochRecord {
    /// The record as a run-log event (see `traj_obs::event`).
    pub fn to_event(&self) -> traj_obs::Event {
        traj_obs::Event::Epoch {
            phase: self.phase.wire_name().to_string(),
            epoch: self.epoch as u64,
            recon_loss: f64::from(self.recon_loss),
            cluster_loss: f64::from(self.cluster_loss),
            triplet_loss: f64::from(self.triplet_loss),
            grad_norm: f64::from(self.grad_norm),
            lr: f64::from(self.lr),
            label_change: self.label_change,
            skipped_batches: self.skipped_batches as u64,
            rollbacks: self.rollbacks as u64,
        }
    }
}

/// Mid-training cursor carried inside training checkpoints: everything
/// `fit` needs — beyond the model parameters themselves — to continue an
/// interrupted run as if it had never stopped.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainingState {
    /// Phase of the next epoch to run.
    pub phase: Phase,
    /// Next epoch index within `phase`.
    pub next_epoch: usize,
    /// Completed epochs across both phases (names checkpoint files).
    pub epochs_done: usize,
    /// Accumulated per-epoch history.
    pub history: Vec<EpochRecord>,
    /// Previous self-training assignments (stop-rule state).
    pub prev_assign: Option<Vec<usize>>,
    /// Captured RNG stream position (four xoshiro256++ state words).
    pub rng: Vec<u64>,
}

impl TrainingState {
    pub(crate) fn fresh() -> Self {
        Self {
            phase: Phase::Pretrain,
            next_epoch: 0,
            epochs_done: 0,
            history: Vec::new(),
            prev_assign: None,
            rng: Vec::new(),
        }
    }
}

/// Outcome of one mini-batch step.
struct StepOutcome {
    l_r: f32,
    l_c: f32,
    l_t: f32,
    /// Pre-clip global gradient norm; 0 when the guard withheld the step.
    grad_norm: f32,
    verdict: GuardVerdict,
}

/// What a self-training epoch trains against, fixed at the epoch start:
/// the embeddings, target distribution `P` and hard assignments of the
/// Q/P refresh, and the centroid parameter.
struct Targets {
    emb: Tensor,
    p: Tensor,
    assign: Vec<usize>,
    centroids: ParamId,
}

/// Training state one `fit` call shares across both phases. Rollbacks
/// spent on an epoch that is never recorded (the budget ran out) stay
/// pending and land on the next recorded epoch, in either phase.
struct Run {
    /// One tape reused across every batch: `clear()` keeps the node
    /// buffer's allocation, so steady-state batches allocate no graph.
    tape: Tape,
    guard: NonFiniteGuard,
    rollback_budget: usize,
    pending_rollbacks: usize,
}

impl Run {
    fn new(guard_patience: usize) -> Self {
        Self {
            tape: Tape::new(),
            guard: NonFiniteGuard::new(guard_patience),
            rollback_budget: MAX_ROLLBACKS,
            pending_rollbacks: 0,
        }
    }
}

/// In-memory start-of-epoch snapshot the guard rolls back to. Never hits
/// disk; durable recovery is the checkpoint file's job.
struct Snapshot {
    store: ParamStore,
    opt: Adam,
    rng: [u64; 4],
    prev_assign: Option<Vec<usize>>,
}

/// Final output of [`E2dtc::fit`].
#[derive(Clone, Debug)]
pub struct FitResult {
    /// Cluster id per trajectory (aligned with the input dataset).
    pub assignments: Vec<usize>,
    /// Flat `(n, hidden)` trajectory embeddings.
    pub embeddings: Vec<f32>,
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// Flat `(k, hidden)` final centroids.
    pub centroids: Vec<f32>,
    /// Per-epoch training history.
    pub history: Vec<EpochRecord>,
}

/// Per-epoch observer callback: `(epoch, embeddings (n × hidden flat),
/// current hard assignments)`. Used by the Fig. 5 learning-process
/// experiment. Under a guard rollback the replayed epoch fires the
/// callback again with the restored state.
pub type EpochCallback<'a> = dyn FnMut(usize, &[f32], &[usize]) + 'a;

impl E2dtc {
    /// Runs the full Algorithm 1: pre-training, centroid initialization,
    /// self-training, final assignment. On a model returned by
    /// [`E2dtc::resume`], continues the interrupted run instead of
    /// starting over.
    pub fn fit(&mut self, dataset: &Dataset) -> FitResult {
        self.fit_with_callback(dataset, &mut |_, _, _| {})
    }

    /// [`E2dtc::fit`] with a per-self-training-epoch observer.
    pub fn fit_with_callback(
        &mut self,
        dataset: &Dataset,
        callback: &mut EpochCallback<'_>,
    ) -> FitResult {
        self.sequences = self.dataset_sequences(dataset);
        let mut st = match self.pending.take() {
            Some(s) => {
                // Rejoin the interrupted run's RNG stream exactly where
                // the checkpoint captured it.
                self.rng = StdRng::restore(rng_state_from(&s.rng));
                s
            }
            None => TrainingState::fresh(),
        };
        let mut run = Run::new(GUARD_PATIENCE);
        let fit_span = self.recorder.span("fit");

        // — Phase 2: pre-training (skipped entirely when resuming past it) —
        if st.phase == Phase::Pretrain {
            let pretrain_span = self.recorder.span("pretrain");
            self.run_phase(dataset, &mut run, &mut st, callback);

            if self.cfg.loss_mode == LossMode::L0 {
                // Pre-training only: final clustering is plain k-means
                // (this is simultaneously the paper's L0 ablation and the
                // embedding half of the t2vec + k-means baseline).
                let n = dataset.len();
                let d = self.repr_dim();
                let emb = self.clustering_embeddings();
                let res = best_kmeans(
                    emb.data(),
                    n,
                    d,
                    self.cfg.k_clusters,
                    self.cfg.seed ^ 0x6b6d65616e73,
                );
                callback(0, emb.data(), &res.assignment);
                drop(pretrain_span);
                drop(fit_span);
                self.finish_run();
                return FitResult {
                    assignments: res.assignment,
                    embeddings: emb.into_vec(),
                    embed_dim: d,
                    centroids: res.centroids,
                    history: st.history,
                };
            }

            // Phase transition: seed the centroids and anneal the LR.
            let _init_span = self.recorder.span("centroid_init");
            let emb = self.clustering_embeddings();
            self.init_centroids(&emb);
            self.opt.set_lr(self.cfg.lr * self.cfg.selftrain_lr_scale);
            st.phase = Phase::SelfTrain;
            st.next_epoch = 0;
        }

        // — Phase 3: self-training (Algorithm 1, lines 3–10) —
        let phase_span = self.recorder.span("selftrain");
        self.run_phase(dataset, &mut run, &mut st, callback);
        drop(phase_span);

        // Final assignment with the trained parameters.
        let centroids_id =
            self.centroids.expect("centroids exist after pre-training or resume");
        let emb = self.clustering_embeddings();
        let q = student_t_assignment(&emb, self.store.get(centroids_id));
        drop(fit_span);
        self.finish_run();
        FitResult {
            assignments: hard_assignment(&q),
            embed_dim: emb.cols(),
            embeddings: emb.into_vec(),
            centroids: self.store.get(centroids_id).data().to_vec(),
            history: st.history,
        }
    }

    /// Runs the epochs of `st.phase` from `st.next_epoch` on. Each epoch
    /// starts from an in-memory snapshot. A self-training epoch first
    /// refreshes its [`Targets`], fires `callback`, and ends the phase
    /// once the assignments change by at most `δ`. A guard rollback
    /// restores the snapshot and replays the epoch; once the run's budget
    /// is spent the phase stops early with a warning. A completed epoch
    /// is recorded, emitted and offered to the checkpoint policy.
    fn run_phase(
        &mut self,
        dataset: &Dataset,
        run: &mut Run,
        st: &mut TrainingState,
        callback: &mut EpochCallback<'_>,
    ) {
        let (epochs, phase_name) = match st.phase {
            Phase::Pretrain => (self.cfg.pretrain_epochs, "pre-training"),
            Phase::SelfTrain => (self.cfg.selftrain_epochs, "self-training"),
        };
        while st.next_epoch < epochs {
            let epoch = st.next_epoch;
            let snap = self.snapshot(st);
            let (targets, change) = match st.phase {
                Phase::Pretrain => (None, None),
                Phase::SelfTrain => {
                    // Epoch bookkeeping: Q, P, assignments, stopping rule.
                    let centroids =
                        self.centroids.expect("centroids exist after pre-training or resume");
                    let emb = self.clustering_embeddings();
                    let q = student_t_assignment(&emb, self.store.get(centroids));
                    let p = target_distribution(&q);
                    let assign = hard_assignment(&q);
                    let change =
                        st.prev_assign.as_ref().map(|prev| label_change_fraction(prev, &assign));
                    callback(epoch, emb.data(), &assign);
                    if let Some(c) = change.filter(|&c| c <= self.cfg.delta) {
                        let rec = EpochRecord {
                            phase: Phase::SelfTrain,
                            epoch,
                            recon_loss: 0.0,
                            cluster_loss: 0.0,
                            triplet_loss: 0.0,
                            label_change: Some(c),
                            grad_norm: 0.0,
                            lr: self.opt.lr(),
                            skipped_batches: 0,
                            rollbacks: std::mem::take(&mut run.pending_rollbacks),
                        };
                        self.recorder.emit(&rec.to_event());
                        self.recorder.info(format!(
                            "self-training converged at epoch {epoch}: label change {c:.5} <= \
                             delta {}",
                            self.cfg.delta
                        ));
                        st.history.push(rec);
                        break;
                    }
                    st.prev_assign = Some(assign.clone());
                    (Some(Targets { emb, p, assign, centroids }), change)
                }
            };

            let Some(mut rec) = self.train_epoch(dataset, run, st.phase, epoch, targets.as_ref())
            else {
                if run.rollback_budget == 0 {
                    self.recorder.warn(format!(
                        "e2dtc: rollback budget exhausted during {phase_name}; \
                         stopping early at epoch {epoch}"
                    ));
                    break;
                }
                run.rollback_budget -= 1;
                run.pending_rollbacks += 1;
                self.restore(&snap, st, &mut run.guard);
                continue; // replay the same epoch from the snapshot
            };
            rec.label_change = change;
            rec.rollbacks = std::mem::take(&mut run.pending_rollbacks);
            self.recorder.emit(&rec.to_event());
            st.history.push(rec);
            st.epochs_done += 1;
            st.next_epoch = epoch + 1;
            self.maybe_checkpoint(st);
        }
    }

    /// End-of-run telemetry: kernel counter snapshots, then a flush so a
    /// crash after `fit` cannot lose buffered run-log lines.
    fn finish_run(&self) {
        if !self.recorder.enabled() {
            return;
        }
        let nn = traj_nn::telemetry::counters();
        self.recorder.counters(&nn);
        self.recorder.flush();
    }

    /// Phase 2 on its own: `epochs` corrupt-and-reconstruct epochs
    /// (Algorithm 1, lines 1–2) through `fit`'s batch loop. Each epoch
    /// draws one random `(r1, r2)` corruption per trajectory from the
    /// configured rate grids (the paper's 16-pair sweep, sampled across
    /// epochs instead of materialized at once).
    ///
    /// Non-finite batches are skipped (no parameter update); standalone
    /// pre-training keeps no snapshot, so its patience-0 guard never rolls
    /// back — that escalation belongs to [`E2dtc::fit`].
    pub fn pretrain(&mut self, dataset: &Dataset, epochs: usize) -> Vec<EpochRecord> {
        self.sequences = self.dataset_sequences(dataset);
        let mut run = Run::new(0);
        (0..epochs)
            .map(|epoch| {
                self.train_epoch(dataset, &mut run, Phase::Pretrain, epoch, None)
                    .expect("a patience-0 guard never rolls back")
            })
            .collect()
    }

    /// One pass over the dataset in shuffled length buckets: `L_r` alone
    /// without `targets` (pre-training), the joint loss with them
    /// (self-training). Returns the epoch's record, whose `label_change`
    /// and `rollbacks` the caller fills in, and emits the
    /// `{phase}.batch_ms` histogram. Returns `None` when the guard
    /// requested a rollback: the epoch stopped mid-way and its sums are
    /// discarded.
    fn train_epoch(
        &mut self,
        dataset: &Dataset,
        run: &mut Run,
        phase: Phase,
        epoch: usize,
        targets: Option<&Targets>,
    ) -> Option<EpochRecord> {
        let batches = self.make_batches();
        let (mut sum_r, mut sum_c, mut sum_t) = (0.0f64, 0.0f64, 0.0f64);
        let mut sum_norm = 0.0f64;
        let mut count = 0usize;
        let mut skipped = 0usize;
        let mut batch_ms = self.recorder.enabled().then(traj_obs::Histogram::new);
        for batch in &batches {
            let t0 = batch_ms.is_some().then(std::time::Instant::now);
            let step = self.step(dataset, run, batch, targets);
            if let (Some(h), Some(t0)) = (batch_ms.as_mut(), t0) {
                h.record(t0.elapsed().as_secs_f64() * 1e3);
            }
            match step.verdict {
                GuardVerdict::Proceed => {
                    sum_r += step.l_r as f64;
                    sum_c += step.l_c as f64;
                    sum_t += step.l_t as f64;
                    sum_norm += step.grad_norm as f64;
                    count += 1;
                }
                GuardVerdict::Skip => skipped += 1,
                GuardVerdict::Rollback => return None,
            }
        }
        if let Some(h) = &batch_ms {
            self.recorder.histogram(&format!("{}.batch_ms", phase.wire_name()), h);
        }
        let mean = |sum: f64| (sum / count.max(1) as f64) as f32;
        Some(EpochRecord {
            phase,
            epoch,
            recon_loss: mean(sum_r),
            cluster_loss: mean(sum_c),
            triplet_loss: mean(sum_t),
            label_change: None,
            grad_norm: mean(sum_norm),
            lr: self.opt.lr(),
            skipped_batches: skipped,
            rollbacks: 0,
        })
    }

    /// Embeds the training sequences for fit's clustering passes
    /// (centroid init, the per-epoch Q/P refresh, the final assignment,
    /// the L0 k-means). No gradient flows through these, so they run the
    /// eval forward, which is bit-identical to the tape's
    /// (`encoder::tests`).
    fn clustering_embeddings(&mut self) -> Tensor {
        // Draw the batch shuffle anyway so goldens, resume and seeded runs stay byte-identical.
        self.make_batches();
        self.embed_sequences(&self.sequences)
    }

    /// Initializes the cluster centroids by k-means over the embeddings
    /// (paper §V-C, last paragraph). Re-initializes if called again.
    pub fn init_centroids(&mut self, embeddings: &Tensor) {
        let n = embeddings.rows();
        let d = embeddings.cols();
        let res =
            best_kmeans(embeddings.data(), n, d, self.cfg.k_clusters, self.cfg.seed ^ 0x63656e74);
        let tensor = Tensor::from_vec(self.cfg.k_clusters, d, res.centroids);
        match self.centroids {
            Some(id) => *self.store.get_mut(id) = tensor,
            None => self.centroids = Some(self.store.add("centroids", tensor)),
        }
    }

    /// One mini-batch update on a corrupted draw of `batch`. Without
    /// `targets` the loss is `L_r` (Eq. 8); with them it adds `β·L_c`
    /// and, under [`LossMode::L2`], `γ·L_t` (Eq. 14). Targets exist only
    /// under L1 and L2, since L0 ends after pre-training. The optimizer
    /// steps only on [`GuardVerdict::Proceed`].
    fn step(
        &mut self,
        dataset: &Dataset,
        run: &mut Run,
        batch: &[usize],
        targets: Option<&Targets>,
    ) -> StepOutcome {
        let (inputs, originals) = self.corrupted_batch(dataset, batch);
        let tape = &mut run.tape;
        tape.clear();
        let input_refs: Vec<&[usize]> = inputs.iter().map(Vec::as_slice).collect();
        let original_refs: Vec<&[usize]> = originals.iter().map(Vec::as_slice).collect();

        // Self-training anchors are the *original* sequences, encoded
        // first; the corrupted variants are the positives and drive
        // reconstruction in both phases.
        let top = |state: Vec<Var>| *state.last().expect("at least one layer");
        let encoder = &self.model.encoder;
        let anchors = targets.map(|_| top(encoder.encode(tape, &self.store, &original_refs)));
        let enc_corr = encoder.encode(tape, &self.store, &input_refs);
        let l_r = self.model.reconstruction_loss(
            tape,
            &self.store,
            &enc_corr,
            &original_refs,
            &self.weights,
        );
        let positives = top(enc_corr);
        let mut total = l_r;
        let lr_val = tape.value(l_r).get(0, 0);
        let mut lc_val = 0.0;
        let mut lt_val = 0.0;

        if let (Some(t), Some(anchors)) = (targets, anchors) {
            // Batch rows of the (epoch-fixed) target distribution P.
            let k = t.p.cols();
            let mut p_batch = Tensor::zeros(batch.len(), k);
            for (row, &i) in batch.iter().enumerate() {
                p_batch.row_mut(row).copy_from_slice(t.p.row(i));
            }
            let cvar = tape.param(&self.store, t.centroids);
            let l_c = tape.dec_kl(anchors, cvar, p_batch);
            lc_val = tape.value(l_c).get(0, 0);
            let scaled = tape.scale(l_c, self.cfg.beta);
            total = tape.add(total, scaled);

            if self.cfg.loss_mode == LossMode::L2 && batch.len() >= 2 {
                let negatives = mine_negatives(batch, &t.assign, &t.emb);
                let neg_rows = tape.gather_rows(anchors, &negatives);
                let l_t = tape.triplet(anchors, positives, neg_rows, self.cfg.triplet_margin);
                lt_val = tape.value(l_t).get(0, 0);
                let scaled = tape.scale(l_t, self.cfg.gamma);
                total = tape.add(total, scaled);
            }
        }

        let total_val = self.observe_loss(tape.value(total).get(0, 0));
        tape.backward(total, &mut self.store);
        let verdict = run.guard.observe(total_val, &self.store);
        let mut grad_norm = 0.0;
        match verdict {
            GuardVerdict::Proceed => {
                grad_norm = self.opt.step(&mut self.store);
            }
            GuardVerdict::Skip | GuardVerdict::Rollback => self.store.zero_grads(),
        }
        StepOutcome { l_r: lr_val, l_c: lc_val, l_t: lt_val, grad_norm, verdict }
    }

    /// Fault-injection seam: the batch loss as the guard will see it.
    /// With the `fault-injection` feature an installed [`crate::fault::FaultPlan`]
    /// may replace it with NaN; in production builds this is the identity.
    #[allow(unused_mut)]
    fn observe_loss(&mut self, loss: f32) -> f32 {
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = self.fault.as_mut() {
            if plan.poison_next_loss() {
                return f32::NAN;
            }
        }
        loss
    }

    /// Captures the in-memory rollback target: parameters, optimizer,
    /// RNG position, and stop-rule state at the start of an epoch.
    fn snapshot(&self, st: &TrainingState) -> Snapshot {
        Snapshot {
            store: self.store.clone(),
            opt: self.opt.clone(),
            rng: self.rng.state(),
            prev_assign: st.prev_assign.clone(),
        }
    }

    /// Restores a start-of-epoch snapshot and applies the learning-rate
    /// backoff — the recovery half of the guard protocol.
    fn restore(&mut self, snap: &Snapshot, st: &mut TrainingState, guard: &mut NonFiniteGuard) {
        self.store = snap.store.clone();
        self.opt = snap.opt.clone();
        self.opt.set_lr(self.opt.lr() * GUARD_LR_BACKOFF);
        self.rng = StdRng::restore(snap.rng);
        st.prev_assign = snap.prev_assign.clone();
        guard.reset_streak();
    }

    /// Writes a periodic training checkpoint when the policy says so.
    /// Checkpoint failures never kill training: the run that is being
    /// protected must not die because its protection hiccuped.
    fn maybe_checkpoint(&mut self, st: &mut TrainingState) {
        if self.cfg.checkpoint_every == 0
            || st.epochs_done % self.cfg.checkpoint_every != 0
        {
            return;
        }
        let Some(dir) = self.cfg.checkpoint_dir.clone() else { return };
        let dir = std::path::PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            self.recorder
                .warn(format!("e2dtc: cannot create checkpoint dir {}: {e}", dir.display()));
            return;
        }
        st.rng = self.rng.state().to_vec();
        let path = dir.join(crate::persist::checkpoint_file_name(st.epochs_done));
        match self.save_checkpoint(&path, st) {
            Ok(()) => {
                if let Err(e) =
                    crate::persist::rotate_checkpoints(&dir, self.cfg.checkpoint_keep_last)
                {
                    self.recorder.warn(format!("e2dtc: checkpoint rotation failed: {e}"));
                }
            }
            Err(e) => {
                self.recorder
                    .warn(format!("e2dtc: checkpoint write failed ({e}); training continues"));
            }
        }
    }

    /// Tokenizes an arbitrary dataset with the *training* grid/vocabulary
    /// (unknown cells become `UNK`).
    pub(crate) fn dataset_sequences(&self, dataset: &Dataset) -> Vec<Vec<usize>> {
        dataset
            .trajectories
            .iter()
            .map(|t| self.vocab.encode_trajectory(&self.grid, t, self.cfg.max_seq_len))
            .collect()
    }

    /// Index batches of the training sequences sorted by length
    /// (minimizes padding), with shuffled batch order.
    fn make_batches(&mut self) -> Vec<Vec<usize>> {
        let lens: Vec<usize> = self.sequences.iter().map(Vec::len).collect();
        let mut batches = length_buckets(&lens, self.cfg.batch_size);
        shuffle_batches(&mut batches, &mut self.rng);
        batches
    }

    /// Corrupts each batch trajectory with a random `(r1, r2)` draw and
    /// returns `(corrupted token sequences, original token sequences)`.
    fn corrupted_batch(
        &mut self,
        dataset: &Dataset,
        batch: &[usize],
    ) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let mut inputs = Vec::with_capacity(batch.len());
        for &i in batch {
            let t: &Trajectory = &dataset.trajectories[i];
            let r1 = *pick(&self.cfg.augment.drop_rates, &mut self.rng);
            let r2 = *pick(&self.cfg.augment.distort_rates, &mut self.rng);
            let corrupted = corrupt(t, r1, r2, self.cfg.augment.noise_std_m, &mut self.rng);
            inputs.push(self.vocab.encode_trajectory(
                &self.grid,
                &corrupted,
                self.cfg.max_seq_len,
            ));
        }
        let targets: Vec<Vec<usize>> =
            batch.iter().map(|&i| self.sequences[i].clone()).collect();
        (inputs, targets)
    }
}

#[cfg(feature = "fault-injection")]
impl E2dtc {
    /// Installs a test-only fault plan; subsequent training batches and
    /// checkpoint saves consult it. See [`crate::fault`].
    pub fn set_fault_plan(&mut self, plan: crate::fault::FaultPlan) {
        self.fault = Some(plan);
    }
}

/// Rebuilds the RNG state array from checkpointed words (zero-padded when
/// short; `StdRng::restore` rejects the degenerate all-zero state).
pub(crate) fn rng_state_from(words: &[u64]) -> [u64; 4] {
    let mut s = [0u64; 4];
    for (d, &w) in s.iter_mut().zip(words) {
        *d = w;
    }
    s
}

/// Hard-negative mining for the triplet loss: for each anchor, the
/// nearest batch member currently assigned to a different cluster (falls
/// back to the next row when the batch is single-cluster).
fn mine_negatives(batch: &[usize], assign: &[usize], emb: &Tensor) -> Vec<usize> {
    batch
        .iter()
        .enumerate()
        .map(|(row, &i)| {
            batch
                .iter()
                .enumerate()
                .filter(|&(r2, &j)| r2 != row && assign[j] != assign[i])
                .min_by(|&(_, &a), &(_, &b)| {
                    emb.row_sq_dist(i, emb, a).total_cmp(&emb.row_sq_dist(i, emb, b))
                })
                .map(|(r2, _)| r2)
                .unwrap_or((row + 1) % batch.len())
        })
        .collect()
}

fn pick<'a, T>(xs: &'a [T], rng: &mut impl Rng) -> &'a T {
    &xs[rng.gen_range(0..xs.len())]
}

/// Multi-restart k-means (8 seeded restarts, best inertia kept). Both the
/// centroid initialization and the `t2vec + k-means` / `L0` final
/// clustering use this to keep init variance from dominating results.
pub(crate) fn best_kmeans(
    data: &[f32],
    n: usize,
    d: usize,
    k: usize,
    seed: u64,
) -> traj_cluster::KMeansResult {
    (0..8)
        .map(|r| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(r));
            kmeans(Points::new(data, n, d), KMeansConfig::new(k), &mut rng)
        })
        .min_by(|a, b| a.inertia.total_cmp(&b.inertia))
        .expect("at least one restart")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::E2dtcConfig;
    use crate::test_util::tiny_city;

    #[test]
    fn pretrain_reduces_reconstruction_loss() {
        let city = tiny_city(40, 3);
        let mut cfg = E2dtcConfig::tiny(3);
        cfg.lr = 5e-3;
        let mut model = E2dtc::new(&city.dataset, cfg);
        let history = model.pretrain(&city.dataset, 4);
        assert_eq!(history.len(), 4);
        let first = history.first().expect("non-empty").recon_loss;
        let last = history.last().expect("non-empty").recon_loss;
        assert!(
            last < first,
            "pre-training loss did not drop: {first} -> {last}"
        );
        assert!(history.iter().all(|r| r.skipped_batches == 0 && r.rollbacks == 0));
    }

    #[test]
    fn fit_produces_k_clusters_and_history() {
        let city = tiny_city(40, 3);
        let mut model = E2dtc::new(&city.dataset, E2dtcConfig::tiny(3));
        let fit = model.fit(&city.dataset);
        assert_eq!(fit.assignments.len(), 40);
        assert!(fit.assignments.iter().all(|&c| c < 3));
        assert_eq!(fit.embeddings.len(), 40 * model.repr_dim());
        assert_eq!(fit.centroids.len(), 3 * model.repr_dim());
        assert!(fit.history.iter().any(|r| r.phase == Phase::Pretrain));
        assert!(fit.history.iter().any(|r| r.phase == Phase::SelfTrain));
        // A healthy run triggers no guard activity.
        assert!(fit.history.iter().all(|r| r.skipped_batches == 0 && r.rollbacks == 0));
    }

    #[test]
    fn l0_mode_skips_self_training() {
        let city = tiny_city(30, 3);
        let cfg = E2dtcConfig::tiny(3).with_loss_mode(LossMode::L0);
        let mut model = E2dtc::new(&city.dataset, cfg);
        let fit = model.fit(&city.dataset);
        assert!(fit.history.iter().all(|r| r.phase == Phase::Pretrain));
        assert_eq!(fit.assignments.len(), 30);
    }

    #[test]
    fn callback_fires_every_selftrain_epoch() {
        let city = tiny_city(25, 2);
        let mut cfg = E2dtcConfig::tiny(2);
        cfg.selftrain_epochs = 2;
        cfg.delta = 0.0;
        let mut model = E2dtc::new(&city.dataset, cfg);
        let mut epochs = Vec::new();
        let _ = model.fit_with_callback(&city.dataset, &mut |e, emb, asg| {
            epochs.push(e);
            assert_eq!(emb.len(), 25 * 24);
            assert_eq!(asg.len(), 25);
        });
        assert!(!epochs.is_empty());
        assert_eq!(epochs[0], 0);
    }

    #[test]
    fn same_seed_fit_is_deterministic() {
        // The resume guarantee rests on this: two identically-seeded runs
        // produce identical assignments and history.
        let city = tiny_city(30, 3);
        let mut m1 = E2dtc::new(&city.dataset, E2dtcConfig::tiny(3));
        let mut m2 = E2dtc::new(&city.dataset, E2dtcConfig::tiny(3));
        let f1 = m1.fit(&city.dataset);
        let f2 = m2.fit(&city.dataset);
        assert_eq!(f1.assignments, f2.assignments);
        assert_eq!(f1.embeddings, f2.embeddings);
        assert_eq!(f1.history.len(), f2.history.len());
    }

    #[test]
    fn fit_trains_on_the_dataset_it_is_given() {
        // Two cities of the same size: a model built on `a` and fitted on
        // `b` must take its reconstruction targets and batch lengths from
        // `b`, exactly as a model whose sequences were tokenized from `b`.
        let a = tiny_city(30, 3).dataset;
        let mut spec = traj_data::SynthSpec::hangzhou_like(30, 7);
        spec.num_clusters = 3;
        spec.len_range = (8, 16);
        spec.outlier_fraction = 0.0;
        let b = spec.generate().dataset;
        let mut stale = E2dtc::new(&a, E2dtcConfig::tiny(3));
        let mut fresh = E2dtc::new(&a, E2dtcConfig::tiny(3));
        fresh.sequences = fresh.dataset_sequences(&b);
        let (got, want) = (stale.fit(&b), fresh.fit(&b));
        let losses = |fit: &FitResult| -> Vec<f32> {
            fit.history.iter().map(|r| r.recon_loss).collect()
        };
        assert_eq!(losses(&got), losses(&want));
        assert_eq!(got.assignments, want.assignments);
        assert_eq!(got.embeddings, want.embeddings);
    }

    #[test]
    fn rng_state_from_pads_short_input() {
        assert_eq!(rng_state_from(&[1, 2]), [1, 2, 0, 0]);
        assert_eq!(rng_state_from(&[1, 2, 3, 4, 5]), [1, 2, 3, 4]);
    }
}
