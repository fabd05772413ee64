//! `e2ebench` — the end-to-end benchmark of the E²DTC workspace.
//!
//! ```text
//! e2ebench --workload <train|serve|baselines> --seed <n> --seconds <s>
//!          [--trace 0|1] [--scale full|tiny]
//! ```
//!
//! One process and one closed-loop client run one workload; parallelism
//! comes only from the libraries' own rayon pool. The seed makes the
//! inputs, and the program under test sees only those inputs. A run sets
//! up (several times, reporting the median), measures whole units of
//! work for `--seconds` (and at least a few units), checks every output,
//! and prints as its last stdout line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer ledger, read
//! from the libraries' own `traj-obs` telemetry, and writes the full
//! trace under `.e2ebench_work/`. `--scale tiny` shrinks every input for
//! the self-test. `ledger.json` says why each workload exists and what
//! each metric means on it.

mod baselines;
mod common;
mod oracle;
mod report;
mod serve;
mod trace;
mod train;

use common::{peak_rss_mb, Args, WorkDir, Workload, USAGE, WORK_ROOT};
use report::Report;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let start = Instant::now();
    let name = format!("e2ebench.{}", args.workload.name());
    // Installed before setup, so no model is built without it.
    let mut tracer = args.trace.then(|| Tracer::install(&name, args.seed));
    let work = WorkDir::create(args)?;
    let mut report = Report::default();
    match args.workload {
        Workload::Train => train::run(args, &work, tracer.as_mut(), &mut report)?,
        Workload::Serve => serve::run(args, &work, tracer.as_mut(), &mut report)?,
        Workload::Baselines => baselines::run(args, tracer.as_mut(), &mut report)?,
    }
    report.set("peak_rss_mb", peak_rss_mb()?);
    if let Some(tracer) = &mut tracer {
        let file = format!("trace-{}-seed{}.jsonl", args.workload.name(), args.seed);
        tracer.write_jsonl(
            &std::path::Path::new(WORK_ROOT).join(file),
            common::ms(start),
        )?;
    }
    report.render(args.trace)
}
