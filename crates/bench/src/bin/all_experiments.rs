//! Runs every table and figure of the paper in sequence by invoking the
//! sibling experiment binaries (they must have been built into the same
//! target directory, which `cargo run -p e2dtc-bench --bin all_experiments
//! --release` guarantees). All artifacts land in `experiments_out/`.
//!
//! Degrades gracefully: a failing experiment is logged and the suite
//! moves on, so one broken figure does not cost the artifacts of the
//! other eight. The exit code still reports the damage — `0` only when
//! everything succeeded, `1` when some experiments failed, `2` when all
//! of them did.
//!
//! Usage: `all_experiments [--scale paper] [--n <count>] [--seed <s>]
//! [--log-json PATH]` — `--log-json` writes a structured JSONL run log
//! (same schema as `e2dtc train --log-json`, see DESIGN.md §11) with one
//! timed span per experiment; it is consumed here, not forwarded, because
//! each child process would otherwise truncate the shared file. All other
//! arguments are checked with the experiments' own parser
//! ([`RunArgs::parse_from`]) before anything runs, then forwarded
//! verbatim to each experiment.

use e2dtc_bench::RunArgs;
use std::process::{Command, ExitCode};
use traj_obs::Event;

const EXPERIMENTS: [&str; 8] =
    ["table2", "table3", "table4", "fig3", "fig4", "fig5", "fig6", "ablations"];

/// Splits `--log-json <path>` out of the raw argument list and checks
/// everything else, which is forwarded to the experiment binaries, with
/// their own parser.
fn split_args(args: Vec<String>) -> Result<(Option<String>, RunArgs, Vec<String>), String> {
    let mut log_json = None;
    let mut forwarded = Vec::with_capacity(args.len());
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--log-json" {
            log_json = Some(it.next().ok_or("--log-json needs a path")?);
        } else {
            forwarded.push(arg);
        }
    }
    let run = RunArgs::parse_from(forwarded.clone())?;
    Ok((log_json, run, forwarded))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (log_json, run, args) = match split_args(raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &log_json {
        match traj_obs::jsonl_recorder(path) {
            Ok(rec) => traj_obs::set_global(rec),
            Err(e) => {
                eprintln!("error: cannot open run log {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let recorder = traj_obs::global();
    if recorder.enabled() {
        recorder.emit(&Event::RunHeader {
            schema: traj_obs::event::SCHEMA_VERSION,
            ts_ms: traj_obs::unix_millis(),
            name: "all_experiments".to_string(),
            seed: run.seed,
            git: traj_obs::git_describe(),
            config: serde::Value::Array(
                args.iter().map(|a| serde::Value::Str(a.clone())).collect(),
            ),
        });
    }
    let t0 = std::time::Instant::now();

    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe has a parent dir")
        .to_path_buf();

    // fig7 also prints Table V, so it runs last and is part of the set.
    let all: Vec<&str> = EXPERIMENTS.iter().copied().chain(["fig7"]).collect();
    let total = all.len();
    let mut failed: Vec<String> = Vec::new();
    for (i, name) in all.iter().enumerate() {
        let path = exe_dir.join(name);
        println!("\n=== [{}/{}] {} ===", i + 1, total, name);
        let _span = recorder.span(name);
        match Command::new(&path).args(&args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                recorder.warn(format!(
                    "experiment {name} exited with {status}; continuing with the rest"
                ));
                failed.push(format!("{name} ({status})"));
            }
            Err(e) => {
                recorder.warn(format!(
                    "failed to launch {}: {e}; continuing with the rest",
                    path.display()
                ));
                failed.push(format!("{name} (launch failed: {e})"));
            }
        }
    }

    if recorder.enabled() {
        recorder.emit(&Event::RunEnd {
            status: (if failed.is_empty() { "ok" } else { "error" }).to_string(),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        });
        recorder.flush();
    }
    if failed.is_empty() {
        println!("\nall {total} experiments complete; artifacts in experiments_out/");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\n{}/{total} experiments failed:\n  {}",
            failed.len(),
            failed.join("\n  ")
        );
        if failed.len() == total {
            ExitCode::from(2)
        } else {
            ExitCode::from(1)
        }
    }
}
