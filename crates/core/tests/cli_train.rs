//! `e2dtc train` with a cluster count outside `1..=|dataset|`, with a
//! flag it does not read, with a checkpoint flag but no checkpoint
//! directory, or with `--checkpoint-every 0`, must fail with an error
//! message and exit code 1, not panic or train with the flag ignored.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_e2dtc")
}

#[test]
fn train_with_out_of_range_k_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("e2dtc_cli_train_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let data = dir.join("data.json");
    let model = dir.join("model.json");
    let path = |p: &std::path::Path| p.to_str().expect("utf-8 temp path").to_string();

    let status = Command::new(bin())
        .args(["generate", "--kind", "hangzhou", "--n", "20", "--seed", "5"])
        .args(["--out", &path(&data), "--quiet"])
        .status()
        .expect("launch generate");
    assert!(status.success(), "generate failed");

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
    let dir = std::env::temp_dir().join(format!("e2dtc_cli_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let data = dir.join("data.json");
    let model = dir.join("model.json");
    let path = |p: &std::path::Path| p.to_str().expect("utf-8 temp path").to_string();

    let status = Command::new(bin())
        .args(["generate", "--kind", "hangzhou", "--n", "20", "--seed", "5"])
        .args(["--out", &path(&data), "--quiet"])
        .status()
        .expect("launch generate");
    assert!(status.success(), "generate failed");

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
    let dir = std::env::temp_dir().join(format!("e2dtc_cli_keep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let data = dir.join("data.json");
    let model = dir.join("model.json");
    let path = |p: &std::path::Path| p.to_str().expect("utf-8 temp path").to_string();

    let status = Command::new(bin())
        .args(["generate", "--kind", "hangzhou", "--n", "20", "--seed", "5"])
        .args(["--out", &path(&data), "--quiet"])
        .status()
        .expect("launch generate");
    assert!(status.success(), "generate failed");

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
    let dir = std::env::temp_dir().join(format!("e2dtc_cli_every_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let data = dir.join("data.json");
    let model = dir.join("model.json");
    let ckpts = dir.join("ck");
    let path = |p: &std::path::Path| p.to_str().expect("utf-8 temp path").to_string();

    let status = Command::new(bin())
        .args(["generate", "--kind", "hangzhou", "--n", "20", "--seed", "5"])
        .args(["--out", &path(&data), "--quiet"])
        .status()
        .expect("launch generate");
    assert!(status.success(), "generate failed");

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
