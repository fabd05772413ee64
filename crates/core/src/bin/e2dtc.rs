//! `e2dtc` — command-line interface to the trajectory clustering pipeline.
//!
//! ```text
//! e2dtc generate --kind hangzhou --n 500 --seed 7 --out data.json
//! e2dtc train    --data data.json --out model.json [--preset fast|paper]
//!                [--loss l0|l1|l2] [--k <clusters>] [--seed <s>]
//!                [--checkpoint-dir DIR] [--checkpoint-every N]
//!                [--checkpoint-keep N] [--resume DIR_OR_FILE]
//! e2dtc assign   --model model.json --data data.json --out assignments.json
//! e2dtc embed    --model model.json --data data.json --out embeddings.json
//! e2dtc evaluate --data data.json --assignments assignments.json
//! ```
//!
//! `generate` emits a synthetic city labelled with the paper's Algorithm 2
//! (σ = 0.6, λ = 0.7); `train` runs the full Algorithm 1; `assign` and
//! `embed` serve clustering requests through the tape-free frozen encoder
//! (loading the checkpoint without optimizer state) — `assign` writes the
//! cluster labels and fails with an error on a model without centroids
//! (`--loss l0`), `embed` writes embeddings plus labels when centroids
//! exist; `evaluate` scores assignments with UACC / NMI / RI.
//!
//! With `--checkpoint-dir`, `train` drops an atomic, checksummed
//! checkpoint every N epochs (`--checkpoint-every N`, default 1; 0 is
//! rejected); after a crash, rerunning with `--resume <dir>` continues
//! from the newest usable one (corrupt files are skipped) and produces
//! the same model the uninterrupted run would have. A self-training
//! checkpoint resumes only on a dataset of the size it was written on.

use e2dtc::{E2dtc, E2dtcConfig, FrozenEncoder, LossMode};
use std::collections::HashMap;
use std::process::ExitCode;
use traj_data::ground_truth::generate_ground_truth;
use traj_data::io::{load_labeled_json, save_labeled_json};
use traj_data::{GroundTruthConfig, SynthSpec};
use traj_cluster::{nmi, rand_index, uacc};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, flags) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = flags.get("log-json") {
        match traj_obs::jsonl_recorder(path) {
            Ok(rec) => traj_obs::set_global(rec),
            Err(e) => {
                eprintln!("error: cannot open run log {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let recorder = traj_obs::global();
    emit_run_header(&recorder, &cmd, &flags);
    let t0 = std::time::Instant::now();
    let result = match cmd.as_str() {
        "generate" => generate(&flags),
        "train" => train(&flags),
        "assign" => assign(&flags),
        "embed" => embed(&flags),
        "evaluate" => evaluate(&flags),
        // `help`, `--help` and `-h`: `parse` rejects every other command.
        _ => {
            println!("{USAGE}");
            Ok(())
        }
    };
    if recorder.enabled() {
        recorder.emit(&traj_obs::Event::RunEnd {
            status: (if result.is_ok() { "ok" } else { "error" }).to_string(),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        });
        recorder.flush();
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
e2dtc — end-to-end deep trajectory clustering (E2DTC, ICDE 2021)

USAGE:
  e2dtc generate --kind <geolife|porto|hangzhou> [--n N] [--seed S] --out data.json
  e2dtc train    --data data.json --out model.json [--preset fast|paper]
                 [--loss l0|l1|l2] [--k CLUSTERS] [--seed S]
                 [--checkpoint-dir DIR] [--checkpoint-every N]
                 [--checkpoint-keep N] [--resume DIR_OR_FILE]
  e2dtc assign   --model model.json --data data.json --out assignments.json
  e2dtc embed    --model model.json --data data.json --out embeddings.json
  e2dtc evaluate --data data.json --assignments assignments.json

GLOBAL FLAGS:
  --log-json PATH   write a structured JSONL run log (see DESIGN.md §11)
  --quiet           suppress progress output on stdout";

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["quiet"];

/// Flags every command accepts.
const GLOBAL_FLAGS: &[&str] = &["log-json", "quiet"];

/// The flags `cmd` reads besides [`GLOBAL_FLAGS`]; `None` for an unknown
/// command.
fn command_flags(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "generate" => &["kind", "n", "seed", "out"],
        "train" => &[
            "data",
            "out",
            "preset",
            "loss",
            "k",
            "seed",
            "checkpoint-dir",
            "checkpoint-every",
            "checkpoint-keep",
            "resume",
        ],
        "assign" | "embed" => &["model", "data", "out"],
        "evaluate" => &["data", "assignments"],
        "help" | "--help" | "-h" => &[],
        _ => return None,
    })
}

/// Splits the command line into the command and its `--flag value` pairs,
/// rejecting an unknown command and any flag the command does not read.
fn parse(args: &[String]) -> Result<(String, HashMap<String, String>), String> {
    let cmd = args.first().ok_or_else(|| format!("missing command\n{USAGE}"))?.clone();
    let accepted =
        command_flags(&cmd).ok_or_else(|| format!("unknown command `{cmd}`\n{USAGE}"))?;
    let mut flags = HashMap::new();
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}` for {cmd}\n{USAGE}"))?;
        if !accepted.contains(&key) && !GLOBAL_FLAGS.contains(&key) {
            return Err(format!("unknown flag --{key} for {cmd}"));
        }
        let value = if BOOL_FLAGS.contains(&key) {
            "true".to_string()
        } else {
            rest.next().ok_or_else(|| format!("missing value for --{key}"))?.clone()
        };
        flags.insert(key.to_string(), value);
    }
    Ok((cmd, flags))
}

/// First line of the run log: command, seed, git state, and the raw flag
/// map as the configuration tree (the resolved `E2dtcConfig` is a pure
/// function of these flags plus the binary version).
fn emit_run_header(
    recorder: &traj_obs::Recorder,
    cmd: &str,
    flags: &HashMap<String, String>,
) {
    if !recorder.enabled() {
        return;
    }
    let mut keys: Vec<&String> = flags.keys().collect();
    keys.sort();
    let config = serde::Value::Object(
        keys.into_iter()
            .map(|k| (k.clone(), serde::Value::Str(flags[k].clone())))
            .collect(),
    );
    recorder.emit(&traj_obs::Event::RunHeader {
        schema: traj_obs::event::SCHEMA_VERSION,
        ts_ms: traj_obs::unix_millis(),
        name: cmd.to_string(),
        seed: flags.get("seed").and_then(|s| s.parse().ok()).unwrap_or(0),
        git: traj_obs::git_describe(),
        config,
    });
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
}

fn quiet(flags: &HashMap<String, String>) -> bool {
    flags.contains_key("quiet")
}

fn generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let kind = required(flags, "kind")?;
    let out = required(flags, "out")?;
    let n: usize = flags.get("n").map_or(Ok(500), |v| v.parse().map_err(|e| format!("{e}")))?;
    let seed: u64 = flags.get("seed").map_or(Ok(7), |v| v.parse().map_err(|e| format!("{e}")))?;
    let spec = match kind {
        "geolife" => SynthSpec::geolife_like(n, seed),
        "porto" => SynthSpec::porto_like(n, seed),
        "hangzhou" => SynthSpec::hangzhou_like(n, seed),
        other => return Err(format!("unknown dataset kind `{other}`")),
    };
    let city = spec.generate();
    let (labelled, _) =
        generate_ground_truth(&city.dataset, &city.pois, GroundTruthConfig::default());
    save_labeled_json(&labelled, out).map_err(|e| e.to_string())?;
    let msg = format!(
        "wrote {} labelled trajectories ({} clusters, {} GPS points) to {out}",
        labelled.len(),
        labelled.num_clusters,
        labelled.dataset.total_points()
    );
    if !quiet(flags) {
        println!("{msg}");
    }
    traj_obs::global().info(msg);
    Ok(())
}

fn train(flags: &HashMap<String, String>) -> Result<(), String> {
    let data_path = required(flags, "data")?;
    let out = required(flags, "out")?;
    let data = load_labeled_json(data_path).map_err(|e| e.to_string())?;
    let k: usize = flags
        .get("k")
        .map_or(Ok(data.num_clusters), |v| v.parse().map_err(|e| format!("{e}")))?;
    if k == 0 || k > data.len() {
        return Err(format!("--k {k} out of range: need 1 <= k <= {} trajectories", data.len()));
    }
    let seed: u64 = flags.get("seed").map_or(Ok(0), |v| v.parse().map_err(|e| format!("{e}")))?;
    let mut cfg = match flags.get("preset").map(String::as_str) {
        Some("paper") => E2dtcConfig::paper(k),
        None | Some("fast") => E2dtcConfig::fast(k),
        Some(other) => return Err(format!("unknown preset `{other}`")),
    }
    .with_seed(seed);
    cfg.loss_mode = match flags.get("loss").map(String::as_str) {
        Some("l0") => LossMode::L0,
        Some("l1") => LossMode::L1,
        None | Some("l2") => LossMode::L2,
        Some(other) => return Err(format!("unknown loss mode `{other}`")),
    };

    let ckpt_every: usize = flags
        .get("checkpoint-every")
        .map_or(Ok(1), |v| v.parse().map_err(|e| format!("{e}")))?;
    if ckpt_every == 0 {
        return Err("--checkpoint-every must be at least 1".into());
    }
    let ckpt_keep: usize = flags
        .get("checkpoint-keep")
        .map_or(Ok(2), |v| v.parse().map_err(|e| format!("{e}")))?;
    let ckpt_dir = flags.get("checkpoint-dir").cloned();
    if ckpt_dir.is_none() {
        for flag in ["checkpoint-every", "checkpoint-keep"] {
            if flags.contains_key(flag) {
                return Err(format!("--{flag} requires --checkpoint-dir"));
            }
        }
    }
    if let Some(dir) = &ckpt_dir {
        cfg = cfg.with_checkpointing(dir.clone(), ckpt_every);
        cfg.checkpoint_keep_last = ckpt_keep;
    }

    let recorder = traj_obs::global();
    let mut model = match flags.get("resume") {
        Some(path) => {
            let model = E2dtc::resume(path).map_err(|e| e.to_string())?;
            let st = model.pending_training().expect("resume guarantees a cursor");
            // A run continues only on the dataset it was written on.
            if let Some(n) = st.trajectories.filter(|&n| n != data.len()) {
                return Err(format!(
                    "{path} was written training on {n} trajectories, but {data_path} holds {}",
                    data.len()
                ));
            }
            let msg = format!(
                "resuming from {path}: {} epochs done, continuing at {:?} epoch {}",
                st.epochs_done, st.phase, st.next_epoch
            );
            if !quiet(flags) {
                println!("{msg}");
            }
            recorder.info(msg);
            let mut model = model;
            if ckpt_dir.is_some() {
                model.set_checkpoint_policy(ckpt_dir.clone(), ckpt_every, ckpt_keep);
            }
            model
        }
        None => {
            let msg = format!(
                "training on {} trajectories, k = {k}, loss = {}",
                data.len(),
                cfg.loss_mode.name()
            );
            if !quiet(flags) {
                println!("{msg}");
            }
            recorder.info(msg);
            E2dtc::new(&data.dataset, cfg)
        }
    };
    let t0 = std::time::Instant::now();
    let fit = model.fit(&data.dataset);
    let trained = format!(
        "trained in {:.1}s ({} epochs recorded, {} parameters)",
        t0.elapsed().as_secs_f64(),
        fit.history.len(),
        model.num_parameters()
    );
    let scores = format!(
        "training-set scores: UACC {:.3}  NMI {:.3}  RI {:.3}",
        uacc(&fit.assignments, &data.labels),
        nmi(&fit.assignments, &data.labels),
        rand_index(&fit.assignments, &data.labels)
    );
    if !quiet(flags) {
        println!("{trained}");
        println!("{scores}");
    }
    recorder.info(trained);
    recorder.info(scores);
    model.save(out).map_err(|e| e.to_string())?;
    if !quiet(flags) {
        println!("model saved to {out}");
    }
    Ok(())
}

fn assign(flags: &HashMap<String, String>) -> Result<(), String> {
    let model_path = required(flags, "model")?;
    let data_path = required(flags, "data")?;
    let out = required(flags, "out")?;
    let frozen = FrozenEncoder::from_checkpoint(model_path).map_err(|e| e.to_string())?;
    if frozen.centroids().is_none() {
        return Err(format!(
            "{model_path} has no cluster centroids (e.g. trained with --loss l0); \
             `e2dtc embed` still writes its embeddings"
        ));
    }
    let data = load_labeled_json(data_path).map_err(|e| e.to_string())?;
    let t0 = std::time::Instant::now();
    let assignments = frozen.hard_assign(&frozen.embed_dataset(&data.dataset));
    let msg = format!(
        "assigned {} trajectories in {:.0} ms",
        assignments.len(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    if !quiet(flags) {
        println!("{msg}");
    }
    traj_obs::global().info(msg);
    let json = serde_json::to_string_pretty(&assignments).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| e.to_string())?;
    if !quiet(flags) {
        println!("assignments written to {out}");
    }
    Ok(())
}

fn embed(flags: &HashMap<String, String>) -> Result<(), String> {
    let model_path = required(flags, "model")?;
    let data_path = required(flags, "data")?;
    let out = required(flags, "out")?;
    let frozen = FrozenEncoder::from_checkpoint(model_path).map_err(|e| e.to_string())?;
    let data = load_labeled_json(data_path).map_err(|e| e.to_string())?;
    let t0 = std::time::Instant::now();
    let emb = frozen.embed_dataset(&data.dataset);
    // Assignments ride along when the checkpoint carries centroids.
    let assignments = frozen.centroids().map(|_| frozen.hard_assign(&emb));
    let msg = format!(
        "embedded {} trajectories (dim {}) in {:.0} ms{}",
        emb.rows(),
        emb.cols(),
        t0.elapsed().as_secs_f64() * 1e3,
        if assignments.is_some() { ", with cluster assignments" } else { "" }
    );
    if !quiet(flags) {
        println!("{msg}");
    }
    traj_obs::global().info(msg);
    #[derive(serde::Serialize)]
    struct EmbedOutput {
        n: usize,
        dim: usize,
        embeddings: Vec<Vec<f32>>,
        assignments: Option<Vec<usize>>,
    }
    let payload = EmbedOutput {
        n: emb.rows(),
        dim: emb.cols(),
        embeddings: (0..emb.rows()).map(|r| emb.row(r).to_vec()).collect(),
        assignments,
    };
    let json = serde_json::to_string(&payload).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| e.to_string())?;
    if !quiet(flags) {
        println!("embeddings written to {out}");
    }
    Ok(())
}

fn evaluate(flags: &HashMap<String, String>) -> Result<(), String> {
    let data_path = required(flags, "data")?;
    let asg_path = required(flags, "assignments")?;
    let data = load_labeled_json(data_path).map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(asg_path).map_err(|e| e.to_string())?;
    let assignments: Vec<usize> = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    if assignments.len() != data.len() {
        return Err(format!(
            "assignment count {} does not match dataset size {}",
            assignments.len(),
            data.len()
        ));
    }
    let msg = format!(
        "UACC {:.3}  NMI {:.3}  RI {:.3}",
        uacc(&assignments, &data.labels),
        nmi(&assignments, &data.labels),
        rand_index(&assignments, &data.labels)
    );
    // The metrics line is the command's output, so `--quiet` keeps it.
    println!("{msg}");
    traj_obs::global().info(msg);
    Ok(())
}
