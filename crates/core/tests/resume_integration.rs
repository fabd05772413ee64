//! Resume-equivalence integration tests: a training run interrupted at
//! any checkpoint and resumed must reproduce the uninterrupted run's
//! final assignments exactly.
//!
//! "Interrupted" is simulated by training a baseline with a checkpoint
//! after every epoch (keeping all of them), then resuming from an
//! intermediate file — byte-identical to what a crash right after that
//! checkpoint would have left behind.

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
    let dir = std::env::temp_dir().join("e2dtc_resume_test").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Tiny config with per-epoch checkpoints, all kept, and the stop rule
/// disabled so every run trains the same fixed number of epochs.
fn cfg(dir: &std::path::Path) -> E2dtcConfig {
    let mut cfg = E2dtcConfig::tiny(3).with_checkpointing(dir.to_string_lossy(), 1);
    cfg.checkpoint_keep_last = 0;
    cfg.delta = -1.0;
    cfg
}

#[test]
fn resume_reproduces_uninterrupted_run() {
    let city = city(40);
    let dir = test_dir("equivalence");

    let mut baseline = E2dtc::new(&city.dataset, cfg(&dir));
    let base_fit = baseline.fit(&city.dataset);
    // 3 pretrain + 3 selftrain epochs, one checkpoint each.
    let ckpts = e2dtc::persist::list_checkpoints(&dir).expect("list");
    assert_eq!(ckpts.len(), 6, "expected one checkpoint per epoch: {ckpts:?}");

    // Resume from a mid-pretrain kill (after epoch 2 of 3).
    let mut from_pretrain = E2dtc::resume(dir.join("ckpt-000002.json")).expect("resume");
    let st = from_pretrain.pending_training().expect("cursor").clone();
    assert_eq!(st.phase, Phase::Pretrain);
    assert_eq!(st.next_epoch, 2);
    let fit = from_pretrain.fit(&city.dataset);
    assert_eq!(fit.assignments, base_fit.assignments, "pretrain-resume diverged");
    assert_eq!(fit.embeddings, base_fit.embeddings);
    assert_eq!(fit.history.len(), base_fit.history.len());

    // Resume from a kill at the phase boundary (after the last pretrain
    // epoch): no pretrain epoch is left, but centroid init still runs.
    let mut from_boundary = E2dtc::resume(dir.join("ckpt-000003.json")).expect("resume");
    let st = from_boundary.pending_training().expect("cursor").clone();
    assert_eq!(st.phase, Phase::Pretrain);
    assert_eq!(st.next_epoch, 3);
    let fit = from_boundary.fit(&city.dataset);
    assert_eq!(fit.assignments, base_fit.assignments, "boundary-resume diverged");
    assert_eq!(fit.embeddings, base_fit.embeddings);
    assert_eq!(fit.centroids, base_fit.centroids);
    assert_eq!(fit.history.len(), base_fit.history.len());

    // Resume from a mid-self-training kill (after selftrain epoch 1).
    let mut from_selftrain = E2dtc::resume(dir.join("ckpt-000005.json")).expect("resume");
    let st = from_selftrain.pending_training().expect("cursor").clone();
    assert_eq!(st.phase, Phase::SelfTrain);
    assert_eq!(st.next_epoch, 2);
    let fit = from_selftrain.fit(&city.dataset);
    assert_eq!(fit.assignments, base_fit.assignments, "selftrain-resume diverged");
    assert_eq!(fit.embeddings, base_fit.embeddings);

    // The resumed history is the uninterrupted history: the checkpointed
    // prefix plus the replayed suffix, with identical losses.
    for (a, b) in fit.history.iter().zip(&base_fit.history) {
        assert_eq!(a.phase, b.phase);
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.recon_loss, b.recon_loss);
    }
}

#[test]
fn resume_from_directory_picks_newest() {
    let city = city(30);
    let dir = test_dir("newest");
    let mut model = E2dtc::new(&city.dataset, cfg(&dir));
    let base_fit = model.fit(&city.dataset);

    let mut resumed = E2dtc::resume(&dir).expect("resume from dir");
    let st = resumed.pending_training().expect("cursor").clone();
    assert_eq!(st.epochs_done, 6, "newest checkpoint is the last epoch's");
    // Nothing left to train: fit just recomputes the final assignment.
    let fit = resumed.fit(&city.dataset);
    assert_eq!(fit.assignments, base_fit.assignments);
}

#[test]
fn rotation_policy_bounds_disk_usage() {
    let city = city(30);
    let dir = test_dir("rotation");
    let mut cfg = cfg(&dir);
    cfg.checkpoint_keep_last = 2;
    let mut model = E2dtc::new(&city.dataset, cfg);
    let _ = model.fit(&city.dataset);
    let ckpts = e2dtc::persist::list_checkpoints(&dir).expect("list");
    let names: Vec<_> =
        ckpts.iter().map(|p| p.file_name().unwrap().to_string_lossy().into_owned()).collect();
    assert_eq!(names, vec!["ckpt-000005.json", "ckpt-000006.json"]);
}

#[test]
fn checkpointing_does_not_change_the_trained_model() {
    // The checkpoint write path must be a pure observer: a run with
    // checkpoints enabled and one without produce identical results.
    let city = city(30);
    let dir = test_dir("observer");
    let mut with_ckpt = E2dtc::new(&city.dataset, cfg(&dir));
    let mut without = E2dtc::new(&city.dataset, {
        let mut c = E2dtcConfig::tiny(3);
        c.delta = -1.0;
        c
    });
    let a = with_ckpt.fit(&city.dataset);
    let b = without.fit(&city.dataset);
    assert_eq!(a.assignments, b.assignments);
    assert_eq!(a.embeddings, b.embeddings);
}
