//! Self-test: each workload, at toy size, emits every metric
//! `BENCHMARK.json` declares, with its declared unit and in declared
//! order, in both modes and with zero failed operations. The per-layer
//! run also shows the ledger's expected shape: no `dist.*`/`query.*`
//! work in `train`, no Adam steps in `serve`, no `traj-nn` work in
//! `baselines`.

use serde::Value;
use std::process::Command;

fn declared(table: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = serde_json::parse_value_str(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(metrics)) = spec.get_field(table) else {
        panic!("BENCHMARK.json has no `{table}` list");
    };
    metrics
        .iter()
        .map(|m| (text_field(m, "name"), text_field(m, "unit")))
        .collect()
}

fn text_field(v: &Value, name: &str) -> String {
    match v.get_field(name) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("`{name}` is not a string: {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match *v {
        Value::Float(x) => x,
        Value::UInt(x) => x as f64,
        Value::Int(x) => x as f64,
        ref other => panic!("not a number: {other:?}"),
    }
}

/// Runs one workload at toy size, checks the result line against the
/// declared table, and returns the metric values.
fn run(workload: &str, trace: bool) -> Vec<(String, f64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--scale",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let line = stdout.lines().last().expect("a result line");
    let result = serde_json::parse_value_str(line).expect("the result line is JSON");
    assert_eq!(
        result.get_field("correct"),
        Some(&Value::Bool(true)),
        "{workload}: {line}"
    );
    assert_eq!(
        result.get_field("failed"),
        Some(&Value::UInt(0)),
        "{workload}: {line}"
    );
    assert!(number(result.get_field("attempted").expect("attempted")) >= 1.0);
    let Some(Value::Object(metrics)) = result.get_field("metrics") else {
        panic!("{workload}: no metrics object in {line}");
    };
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| (name.clone(), text_field(m, "unit")))
        .collect();
    let table = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(emitted, declared(table), "{workload} --trace {trace}");
    metrics
        .iter()
        .map(|(name, m)| (name.clone(), number(m.get_field("value").expect("a value"))))
        .collect()
}

fn value(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("no `{name}` in {metrics:?}"))
}

fn check(workload: &str, busy: &[&str], idle: &[&str]) {
    let e2e = run(workload, false);
    for name in [
        "setup_s",
        "peak_rss_mb",
        "job_cpu_s",
        "throughput_per_cpu_s",
        "latency_p50_cpu_ms",
    ] {
        assert!(value(&e2e, name) > 0.0, "{workload}: {name} in {e2e:?}");
    }
    let layers = run(workload, true);
    for name in ["wall.job_s", "wall.throughput_per_s", "wall.latency_p50_ms"] {
        assert!(
            value(&layers, name) > 0.0,
            "{workload}: {name} in {layers:?}"
        );
    }
    for name in busy {
        assert!(
            value(&layers, name) > 0.0,
            "{workload}: {name} in {layers:?}"
        );
    }
    for name in idle {
        assert_eq!(
            value(&layers, name),
            0.0,
            "{workload}: {name} in {layers:?}"
        );
    }
}

#[test]
fn train_emits_every_metric() {
    check(
        "train",
        &[
            "traced_wall_ms",
            "trainer.selftrain_ms",
            "nn.adam_steps",
            "persist.save_ms",
        ],
        &["dist.pairs", "query.trajs", "io.dataset_load_ms"],
    );
}

#[test]
fn serve_emits_every_metric() {
    check(
        "serve",
        &[
            "persist.load_ms",
            "io.dataset_load_ms",
            "query.trajs",
            "nn.gru_cell_steps",
        ],
        &["nn.adam_steps", "dist.pairs", "trainer.selftrain_ms"],
    );
}

#[test]
fn baselines_emits_every_metric() {
    check(
        "baselines",
        &["dist.matrix_ms.dtw", "dist.pairs", "cluster.kmedoids_ms"],
        &["nn.matmul_calls", "query.trajs", "persist.load_ms"],
    );
}
