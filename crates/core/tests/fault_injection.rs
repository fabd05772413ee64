//! Fault-injection integration tests (require `--features fault-injection`).
//!
//! Each test injects a specific fault through [`e2dtc::fault::FaultPlan`]
//! and proves the corresponding recovery path end to end:
//!
//! - isolated NaN losses → guard skips the poisoned updates, training
//!   completes, counts surface in the history;
//! - a run of consecutive NaN losses → guard rolls back to the
//!   start-of-epoch snapshot, replays the epoch, training completes, in
//!   either phase;
//! - NaN losses outlasting the rollback budget → the phase stops early
//!   with a warning and the next phase still runs;
//! - a checkpoint save torn at the final path → `resume` detects the
//!   corruption and falls back to the previous good checkpoint, and the
//!   resumed run still reproduces the clean run's assignments;
//! - a save killed mid-write → the atomic protocol leaves the target
//!   path untouched and every surviving checkpoint valid.
#![cfg(feature = "fault-injection")]

use e2dtc::fault::FaultPlan;
use e2dtc::{E2dtc, E2dtcConfig, Phase};
use std::path::PathBuf;
use traj_data::SynthSpec;

fn city(n: usize) -> traj_data::GeneratedCity {
    let mut spec = SynthSpec::hangzhou_like(n, 99);
    spec.num_clusters = 3;
    spec.len_range = (8, 16);
    spec.outlier_fraction = 0.0;
    spec.generate()
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("e2dtc_fault_test").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn base_cfg() -> E2dtcConfig {
    let mut cfg = E2dtcConfig::tiny(3);
    cfg.delta = -1.0; // fixed epoch count: no early stop
    cfg
}

#[test]
fn isolated_nan_batches_are_skipped_not_fatal() {
    let city = city(40);
    // 40 trajectories / batch 16 = 3 batches per epoch. Poison one batch
    // in pretrain epoch 0 and one in epoch 1 — isolated trips, below the
    // patience of 3.
    let mut model = E2dtc::new(&city.dataset, base_cfg());
    model.set_fault_plan(FaultPlan::new().poison_loss_at(&[1, 4]));
    let fit = model.fit(&city.dataset);

    let skipped: usize = fit.history.iter().map(|r| r.skipped_batches).sum();
    assert_eq!(skipped, 2, "both poisoned batches must be skipped");
    assert!(fit.history.iter().all(|r| r.rollbacks == 0), "no rollback expected");
    assert_eq!(fit.history[0].skipped_batches, 1);
    assert_eq!(fit.history[1].skipped_batches, 1);
    // The model survived: parameters finite, assignments well-formed.
    assert!(!model.embed_dataset(&city.dataset).has_non_finite());
    assert_eq!(fit.assignments.len(), 40);
    assert!(fit.assignments.iter().all(|&c| c < 3));
}

#[test]
fn consecutive_nan_batches_trigger_rollback_and_replay() {
    let city = city(40);
    // Poison the first 3 batches — exactly the guard patience — so the
    // guard rolls back in pretrain epoch 0. The batch counter keeps
    // advancing across the replay, so the replayed epoch is clean.
    let mut model = E2dtc::new(&city.dataset, base_cfg());
    model.set_fault_plan(FaultPlan::new().poison_loss_run(0, 3));
    let fit = model.fit(&city.dataset);

    assert_eq!(fit.history[0].rollbacks, 1, "epoch 0 must record its rollback");
    assert_eq!(
        fit.history[0].skipped_batches, 0,
        "the replayed epoch ran clean (skips of the aborted attempt are discarded)"
    );
    assert!(fit.history.iter().skip(1).all(|r| r.rollbacks == 0));
    // Training completed through both phases despite the rollback.
    assert_eq!(fit.history.len(), 6);
    assert!(!model.embed_dataset(&city.dataset).has_non_finite());
    assert_eq!(fit.assignments.len(), 40);
}

#[test]
fn consecutive_nan_batches_roll_back_a_self_training_epoch() {
    let city = city(40);
    // 3 pre-training epochs × 3 batches come first, so global batches
    // 9..12 are self-training epoch 0's: the rollback happens there.
    let mut model = E2dtc::new(&city.dataset, base_cfg());
    model.set_fault_plan(FaultPlan::new().poison_loss_run(9, 3));
    let fit = model.fit(&city.dataset);

    assert_eq!(fit.history.len(), 6);
    assert_eq!(fit.history[3].phase, Phase::SelfTrain);
    assert_eq!(fit.history[3].epoch, 0);
    assert_eq!(fit.history[3].rollbacks, 1, "self-training epoch 0 must record its rollback");
    let rollbacks: usize = fit.history.iter().map(|r| r.rollbacks).sum();
    assert_eq!(rollbacks, 1);
    assert!(!model.embed_dataset(&city.dataset).has_non_finite());
    assert_eq!(fit.assignments.len(), 40);
}

#[test]
fn exhausted_rollback_budget_stops_the_phase_early() {
    let city = city(40);
    // 27 poisoned batches = 9 attempts at pre-training epoch 0: 8 roll
    // back (the whole budget), the 9th finds the budget spent and ends
    // pre-training. Self-training still runs its 3 epochs, and the first
    // recorded epoch carries the 8 rollbacks.
    let mut model = E2dtc::new(&city.dataset, base_cfg());
    model.set_fault_plan(FaultPlan::new().poison_loss_run(0, 27));
    let fit = model.fit(&city.dataset);

    assert!(fit.history.iter().all(|r| r.phase == Phase::SelfTrain));
    assert_eq!(fit.history.len(), 3);
    assert_eq!(fit.history[0].rollbacks, 8);
    let rollbacks: usize = fit.history.iter().map(|r| r.rollbacks).sum();
    assert_eq!(rollbacks, 8);
    let emb = model.embed_dataset(&city.dataset);
    assert!(!emb.has_non_finite());
    assert!(fit.embeddings.iter().all(|x| x.is_finite()));
    assert_eq!(fit.assignments.len(), 40);
}

#[test]
fn rollback_restores_last_good_parameters() {
    // Identical twin runs; one takes a poisoned, rolled-back first epoch.
    // After the rollback the epoch replays from the snapshot — the only
    // difference downstream is the halved learning rate, so epoch 0's
    // replay must start from the same parameters: its loss derives from
    // the same snapshot and the same RNG stream.
    let city = city(40);
    let mut clean = E2dtc::new(&city.dataset, base_cfg());
    let clean_fit = clean.fit(&city.dataset);

    let mut faulty = E2dtc::new(&city.dataset, base_cfg());
    faulty.set_fault_plan(FaultPlan::new().poison_loss_run(0, 3));
    let faulty_fit = faulty.fit(&city.dataset);

    // The replayed epoch 0 sees the same batches from the same restored
    // parameters; only the backed-off LR changes its updates, which does
    // not change the *first* batch's pre-update loss. With mean losses
    // over identical batch schedules, equality would need per-batch
    // records — instead assert the replay landed in the same ballpark
    // (same data, same init) rather than the NaN-poisoned one.
    assert!(faulty_fit.history[0].recon_loss.is_finite());
    let rel = (faulty_fit.history[0].recon_loss - clean_fit.history[0].recon_loss).abs()
        / clean_fit.history[0].recon_loss;
    assert!(
        rel < 0.2,
        "replayed epoch-0 loss {} far from clean {} — snapshot not restored?",
        faulty_fit.history[0].recon_loss,
        clean_fit.history[0].recon_loss
    );
}

#[test]
fn torn_checkpoint_save_falls_back_to_previous_good_one() {
    let city = city(40);
    let dir = test_dir("torn");
    let mut cfg = base_cfg().with_checkpointing(dir.to_string_lossy(), 1);
    cfg.checkpoint_keep_last = 0;

    let mut clean = E2dtc::new(&city.dataset, cfg.clone());
    let clean_fit = clean.fit(&city.dataset);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");

    // Same run, but the last of the 6 checkpoint saves (index 5) leaves a
    // 100-byte torn file at the final path.
    let mut model = E2dtc::new(&city.dataset, cfg);
    model.set_fault_plan(FaultPlan::new().tear_save(5, 100));
    let fit = model.fit(&city.dataset);
    assert_eq!(fit.assignments, clean_fit.assignments, "fault plan must not alter training");

    let torn = dir.join("ckpt-000006.json");
    assert_eq!(std::fs::metadata(&torn).expect("torn file exists").len(), 100);
    assert!(E2dtc::resume(&torn).is_err(), "torn file must not validate");

    // resume() skips the torn newest file and falls back to epoch 5.
    let mut resumed = E2dtc::resume(&dir).expect("fallback resume");
    assert_eq!(resumed.pending_training().expect("cursor").epochs_done, 5);
    let resumed_fit = resumed.fit(&city.dataset);
    assert_eq!(
        resumed_fit.assignments, clean_fit.assignments,
        "resume past the torn checkpoint must still reproduce the clean run"
    );
}

#[test]
fn killed_save_leaves_final_path_untouched() {
    let city = city(40);
    let dir = test_dir("killed");
    let mut cfg = base_cfg().with_checkpointing(dir.to_string_lossy(), 1);
    cfg.checkpoint_keep_last = 0;

    // Save #1 (the checkpoint after the second epoch) dies mid-tmp-write.
    let mut model = E2dtc::new(&city.dataset, cfg);
    model.set_fault_plan(FaultPlan::new().kill_save(1));
    let fit = model.fit(&city.dataset);
    assert_eq!(fit.history.len(), 6, "a failed checkpoint must not kill training");

    // The atomic protocol never touched the killed save's final path...
    assert!(!dir.join("ckpt-000002.json").exists());
    // ...its partial tmp file is what the crash left...
    assert!(dir.join("ckpt-000002.json.tmp").exists());
    // ...and every checkpoint that does exist validates.
    let ckpts = e2dtc::persist::list_checkpoints(&dir).expect("list");
    assert_eq!(ckpts.len(), 5);
    for ckpt in &ckpts {
        E2dtc::resume(ckpt).unwrap_or_else(|e| panic!("{} invalid: {e}", ckpt.display()));
    }
}
