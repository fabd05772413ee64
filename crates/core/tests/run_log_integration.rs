//! End-to-end run-log test: drive the real `e2dtc` binary with
//! `--log-json` and validate the produced JSONL through the schema
//! parser — the acceptance path for the telemetry subsystem.

use std::process::Command;
use traj_obs::schema::parse_jsonl;
use traj_obs::Event;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_e2dtc")
}

#[test]
fn cli_train_with_log_json_produces_a_valid_complete_log() {
    let dir = std::env::temp_dir().join(format!("e2dtc_runlog_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let data = dir.join("data.json");
    let model = dir.join("model.json");
    let log = dir.join("run.jsonl");

    // Small seeded city; keep the run seconds-scale.
    let status = Command::new(bin())
        .args(["generate", "--kind", "hangzhou", "--n", "30", "--seed", "9"])
        .args(["--out", data.to_str().unwrap(), "--quiet"])
        .status()
        .expect("launch generate");
    assert!(status.success(), "generate failed");

    let out = Command::new(bin())
        .args(["train", "--data", data.to_str().unwrap()])
        .args(["--out", model.to_str().unwrap()])
        .args(["--seed", "9", "--quiet"])
        .args(["--log-json", log.to_str().unwrap()])
        .output()
        .expect("launch train");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stdout.is_empty(),
        "--quiet must silence stdout, got: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let text = std::fs::read_to_string(&log).expect("run log exists");
    let v = parse_jsonl(&text).unwrap_or_else(|e| panic!("log failed validation: {e}"));
    assert!(v.complete, "a successful run must end with run_end and no open spans");

    // Header carries the run identity.
    let Event::RunHeader { name, seed, git, config, .. } = v.header() else {
        panic!("first event must be run_header");
    };
    assert_eq!(name, "train");
    assert_eq!(*seed, 9);
    assert!(!git.is_empty());
    assert!(
        config.get_field("data").is_some(),
        "header config must carry the parsed flags"
    );

    // Both phases logged their epochs with the three loss components.
    let epochs = v.epochs();
    assert!(!epochs.is_empty(), "no epoch events in the log");
    let phase_of = |e: &Event| match e {
        Event::Epoch { phase, .. } => phase.clone(),
        _ => unreachable!(),
    };
    assert!(epochs.iter().any(|e| phase_of(e) == "pretrain"));
    assert!(epochs.iter().any(|e| phase_of(e) == "selftrain"));
    for e in &epochs {
        let Event::Epoch { recon_loss, lr, .. } = e else { unreachable!() };
        assert!(recon_loss.is_finite(), "recon loss must be finite in a clean run");
        assert!(*lr > 0.0, "epoch events must carry the learning rate");
    }

    // The timed phases appear as closed spans nested under `fit`.
    for span in ["fit", "pretrain", "centroid_init", "selftrain"] {
        assert!(
            v.span_total_ms(span) > 0.0,
            "span `{span}` missing or never closed"
        );
    }

    // Kernel counters were snapshotted at the end of fit.
    let matmuls = v.final_counter("nn.matmul_calls").expect("matmul counter snapshot");
    assert!(matmuls > 0);
    assert!(v.final_counter("nn.gru_cell_steps").unwrap_or(0) > 0);
    assert!(v.final_counter("nn.adam_steps").unwrap_or(0) > 0);

    // Batch-time histograms for both phases.
    let hist_names: Vec<&str> = v
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Histogram { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    assert!(hist_names.contains(&"pretrain.batch_ms"), "histograms: {hist_names:?}");
    assert!(hist_names.contains(&"selftrain.batch_ms"), "histograms: {hist_names:?}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_train_l0_log_closes_pretrain_before_fit() {
    // L0 ends inside pre-training (k-means on the pretrained embeddings),
    // so its early return must still close `pretrain` before `fit`.
    let dir = std::env::temp_dir().join(format!("e2dtc_runlog_l0_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let data = dir.join("data.json");
    let model = dir.join("model.json");
    let log = dir.join("l0.jsonl");

    let status = Command::new(bin())
        .args(["generate", "--kind", "hangzhou", "--n", "20", "--seed", "5"])
        .args(["--out", data.to_str().unwrap(), "--quiet"])
        .status()
        .expect("launch generate");
    assert!(status.success(), "generate failed");

    let out = Command::new(bin())
        .args(["train", "--data", data.to_str().unwrap()])
        .args(["--out", model.to_str().unwrap()])
        .args(["--preset", "fast", "--loss", "l0", "--seed", "5", "--quiet"])
        .args(["--log-json", log.to_str().unwrap()])
        .output()
        .expect("launch train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&log).expect("run log exists");
    let v = parse_jsonl(&text).unwrap_or_else(|e| panic!("L0 log failed validation: {e}"));
    assert!(v.complete, "an L0 run must end with run_end and no open spans");
    for span in ["fit", "pretrain"] {
        assert!(v.span_total_ms(span) > 0.0, "span `{span}` missing or never closed");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_evaluate_logs_a_minimal_valid_run() {
    // A command that never trains still produces a schema-valid log.
    let dir = std::env::temp_dir().join(format!("e2dtc_runlog_eval_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let data = dir.join("data.json");
    let log = dir.join("eval.jsonl");

    let status = Command::new(bin())
        .args(["generate", "--kind", "hangzhou", "--n", "12", "--seed", "3"])
        .args(["--out", data.to_str().unwrap(), "--quiet"])
        .status()
        .expect("launch generate");
    assert!(status.success());

    // Evaluate the ground truth against itself via a hand-written
    // assignments file of the right length.
    let labels: Vec<usize> = {
        let labelled = traj_data::io::load_labeled_json(&data).expect("load");
        labelled.labels.clone()
    };
    let asg = dir.join("asg.json");
    std::fs::write(&asg, serde_json::to_string(&labels).unwrap()).unwrap();

    let status = Command::new(bin())
        .args(["evaluate", "--data", data.to_str().unwrap()])
        .args(["--assignments", asg.to_str().unwrap()])
        .args(["--log-json", log.to_str().unwrap()])
        .status()
        .expect("launch evaluate");
    assert!(status.success());

    let text = std::fs::read_to_string(&log).expect("run log exists");
    let v = parse_jsonl(&text).unwrap_or_else(|e| panic!("log failed validation: {e}"));
    assert!(v.complete);
    let Event::RunHeader { name, .. } = v.header() else { panic!("no header") };
    assert_eq!(name, "evaluate");
    // The metrics line is mirrored into the log as an info message.
    assert!(v.events.iter().any(|e| matches!(
        e,
        Event::Message { text, .. } if text.contains("UACC")
    )));

    std::fs::remove_dir_all(&dir).ok();
}
