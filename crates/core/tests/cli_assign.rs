//! `e2dtc assign` on a checkpoint without cluster centroids — what
//! `train --loss l0` writes, since the L0 ablation stops after
//! pre-training — must fail with an error message and exit code 1, not
//! panic.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_e2dtc")
}

#[test]
fn assign_on_l0_model_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("e2dtc_cli_assign_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let data = dir.join("data.json");
    let model = dir.join("model.json");
    let out = dir.join("assignments.json");
    let path = |p: &std::path::Path| p.to_str().expect("utf-8 temp path").to_string();

    let status = Command::new(bin())
        .args(["generate", "--kind", "hangzhou", "--n", "20", "--seed", "5"])
        .args(["--out", &path(&data), "--quiet"])
        .status()
        .expect("launch generate");
    assert!(status.success(), "generate failed");
    let status = Command::new(bin())
        .args(["train", "--data", &path(&data), "--out", &path(&model)])
        .args(["--loss", "l0", "--quiet"])
        .status()
        .expect("launch train");
    assert!(status.success(), "train --loss l0 failed");

    let run = Command::new(bin())
        .args(["assign", "--model", &path(&model), "--data", &path(&data)])
        .args(["--out", &path(&out), "--quiet"])
        .output()
        .expect("launch assign");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error:") && stderr.contains("no cluster centroids"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!out.exists(), "a failed assign must not write its output");

    // `embed` serves the same model: embeddings, no labels.
    let emb = dir.join("emb.json");
    let status = Command::new(bin())
        .args(["embed", "--model", &path(&model), "--data", &path(&data)])
        .args(["--out", &path(&emb), "--quiet"])
        .status()
        .expect("launch embed");
    assert!(status.success(), "embed failed on an L0 model");
    let json = std::fs::read_to_string(&emb).expect("embeddings written");
    assert!(
        json.contains("\"assignments\":null"),
        "L0 embed output carries no labels"
    );
    std::fs::remove_dir_all(&dir).ok();
}
