//! `e2dtc train` with a cluster count outside `1..=|dataset|`, with a
//! flag it does not read, with a checkpoint flag but no checkpoint
//! directory, with `--checkpoint-every 0`, or resuming a checkpoint
//! written on another dataset, must fail with an error message and exit
//! code 1, not panic or train with the flag ignored.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_e2dtc")
}

fn path(p: &Path) -> String {
    p.to_str().expect("utf-8 temp path").to_string()
}

/// Generates a hangzhou-like city of `n` trajectories at `out`.
fn generate(n: &str, out: &Path) {
    let status = Command::new(bin())
        .args(["generate", "--kind", "hangzhou", "--n", n, "--seed", "5"])
        .args(["--out", &path(out), "--quiet"])
        .status()
        .expect("launch generate");
    assert!(status.success(), "generate failed");
}

/// A fresh temp directory for test `tag`, holding a 20-trajectory city
/// as `data.json`.
fn city_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("e2dtc_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    generate("20", &dir.join("data.json"));
    dir
}

#[test]
fn train_with_out_of_range_k_is_an_error_not_a_panic() {
    let dir = city_dir("train");
    let data = dir.join("data.json");
    let model = dir.join("model.json");

    for k in ["0", "1000"] {
        let run = Command::new(bin())
            .args(["train", "--data", &path(&data), "--out", &path(&model)])
            .args(["--k", k, "--quiet"])
            .output()
            .expect("launch train");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "--k {k}: {stderr}");
        assert!(
            stderr.contains("error:") && stderr.contains("out of range"),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(!model.exists(), "a failed train must not write a model");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_with_an_unknown_flag_is_an_error_and_writes_no_model() {
    let dir = city_dir("flags");
    let data = dir.join("data.json");
    let model = dir.join("model.json");

    // A misspelled valued flag (`--los` for `--loss`) and a misspelled
    // bool flag (`--quite` for `--quiet`, last on the line).
    for (flag, extra) in [("los", Some("l0")), ("quite", None)] {
        let run = Command::new(bin())
            .args(["train", "--data", &path(&data), "--out", &path(&model)])
            .arg(format!("--{flag}"))
            .args(extra)
            .output()
            .expect("launch train");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "--{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("error: unknown flag --{flag} for train")),
            "{stderr}"
        );
        assert!(!model.exists(), "a rejected train must not write a model");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_with_checkpoint_keep_but_no_dir_is_an_error() {
    let dir = city_dir("keep");
    let data = dir.join("data.json");
    let model = dir.join("model.json");

    // Plain and resumed runs alike: the flag is checked before any
    // checkpoint is read.
    let resume = path(&dir.join("ck"));
    for extra in [vec![], vec!["--resume", resume.as_str()]] {
        let run = Command::new(bin())
            .args(["train", "--data", &path(&data), "--out", &path(&model)])
            .args(["--checkpoint-keep", "1", "--quiet"])
            .args(&extra)
            .output()
            .expect("launch train");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(
            stderr.contains("error: --checkpoint-keep requires --checkpoint-dir"),
            "{stderr}"
        );
        assert!(!model.exists(), "a rejected train must not write a model");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_with_checkpoint_every_zero_is_an_error() {
    let dir = city_dir("every");
    let data = dir.join("data.json");
    let model = dir.join("model.json");
    let ckpts = dir.join("ck");

    let run = Command::new(bin())
        .args(["train", "--data", &path(&data), "--out", &path(&model)])
        .args(["--checkpoint-dir", &path(&ckpts), "--checkpoint-every", "0", "--quiet"])
        .output()
        .expect("launch train");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: --checkpoint-every must be at least 1"), "{stderr}");
    assert!(!model.exists(), "a rejected train must not write a model");
    assert!(!ckpts.exists(), "a rejected train must not write checkpoints");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_on_another_dataset_is_an_error_not_a_panic() {
    let dir = city_dir("resume");
    let (small, large) = (dir.join("data.json"), dir.join("large.json"));
    let model = dir.join("model.json");
    let ckpts = dir.join("ck");
    generate("30", &large);

    let run = Command::new(bin())
        .args(["train", "--data", &path(&small), "--out", &path(&dir.join("first.json"))])
        .args(["--checkpoint-dir", &path(&ckpts), "--checkpoint-keep", "0", "--quiet"])
        .output()
        .expect("launch train");
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let read = |p: &Path| std::fs::read_to_string(p).expect("read checkpoint");
    // The first checkpoint is a pre-training one, whose cursor has no
    // assignments; the newest is a self-training one, whose cursor holds
    // one label per trajectory of the small city.
    let first = ckpts.join("ckpt-000001.json");
    assert!(read(&first).contains("\"prev_assign\":null"), "ckpt-000001 is not pre-training");
    let mut names: Vec<_> = std::fs::read_dir(&ckpts)
        .expect("checkpoints")
        .map(|e| e.expect("entry").path())
        .collect();
    names.sort();
    let newest = names.last().expect("checkpoints written");
    assert!(read(newest).contains("\"prev_assign\":["), "newest checkpoint is not self-training");

    // Resuming the directory continues the newest (self-training)
    // checkpoint; the file path picks the pre-training one.
    for resume in [&ckpts, &first] {
        let run = Command::new(bin())
            .args(["train", "--data", &path(&large), "--out", &path(&model)])
            .args(["--resume", &path(resume), "--quiet"])
            .output()
            .expect("launch train");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{}: {stderr}", resume.display());
        assert!(stderr.contains("error:") && stderr.contains("trajectories"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(!model.exists(), "a rejected resume of {} wrote a model", resume.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}
