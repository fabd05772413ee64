//! `train` workload: Algorithm 1 end to end, as `e2dtc train` runs it —
//! `E2dtc::new` + `fit` + `save` — on a hangzhou-like city generated in
//! setup and passed in memory (fast preset, L2 loss).
//!
//! This is where `traj-nn` backward and Adam, the trainer and skip-gram
//! do nearly all their work, and JSON parsing does none. Every job must
//! give finite, complete assignments whose fingerprint repeats across the
//! run's jobs: the determinism contract for one seed.

use crate::common::{
    file_bytes, fingerprint, labelled_city, median, ms, process_cpu_s, timed_setup, Args,
    Stopwatch, TimeBox, WorkDir,
};
use crate::report::{LayerMeans, Report};
use crate::trace::{hist_quantile, Tracer};
use e2dtc::{E2dtc, E2dtcConfig, FitResult};
use std::time::Instant;
use traj_cluster::{nmi, uacc};

/// Labelled trajectories per run.
const FULL_N: usize = 600;
const TINY_N: usize = 40;
const SETUP_REPS: usize = 5;
/// The determinism check compares repeated jobs, so at least two.
const MIN_JOBS: usize = 2;

pub fn run(
    args: &Args,
    work: &WorkDir,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> Result<(), String> {
    let n = args.scale.pick(FULL_N, TINY_N);
    let (data, setup_s) = timed_setup(SETUP_REPS, || Ok(labelled_city(n, args.seed)))?;
    let mut cfg = E2dtcConfig::fast(data.num_clusters).with_seed(args.seed);
    // No early stop: every job runs all self-training epochs, so job time
    // measures speed, not the seed-dependent epoch at which labels settle.
    cfg.delta = -1.0;
    let checkpoint = work.path("model.json");

    let (mut job_s, mut rates, mut epoch_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall_job_s, mut wall_rates, mut wall_epoch_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_s = Vec::new();
    let mut layers = LayerMeans::default();
    let mut reference = None;
    let mut timebox = TimeBox::new(args, MIN_JOBS);
    while let Some(traced) = timebox.next_unit() {
        if let Some(t) = tracer.as_deref_mut() {
            t.begin(traced);
        }
        let t0 = Stopwatch::start();
        let mut model = E2dtc::new(&data.dataset, cfg.clone());
        let new_ms = t0.wall_s() * 1e3;
        let mut epoch_ends: Vec<(Instant, f64)> = Vec::new();
        let t1 = Stopwatch::start();
        let fit =
            model.fit_with_callback(&data.dataset, &mut |_: usize, _: &[f32], _: &[usize]| {
                epoch_ends.push((Instant::now(), process_cpu_s()))
            });
        let (fit_s, fit_cpu_s) = (t1.wall_s(), t1.cpu_s());
        let t2 = Instant::now();
        model
            .save(&checkpoint)
            .map_err(|e| format!("saving {}: {e}", checkpoint.display()))?;
        let save_ms = ms(t2);
        let (wall_s, cpu_s) = (t0.wall_s(), t0.cpu_s());

        let print = fit_fingerprint(&fit);
        report.check(
            complete(&fit, data.len(), cfg.k_clusters) && *reference.get_or_insert(print) == print,
        );
        report.set("quality.nmi", nmi(&fit.assignments, &data.labels));
        report.set("quality.uacc", uacc(&fit.assignments, &data.labels));
        if traced {
            let trace = tracer
                .as_deref_mut()
                .expect("traced runs have a tracer")
                .end();
            let fit_ms = trace.span_ms("fit");
            let pretrain_ms = trace.span_ms("pretrain");
            let init_ms = trace.span_ms("centroid_init");
            let selftrain_ms = trace.span_ms("selftrain");
            layers.add("traced_wall_ms", wall_s * 1e3);
            layers.add("unattributed_ms", wall_s * 1e3 - new_ms - fit_ms - save_ms);
            layers.add("core.new_ms", new_ms);
            // `centroid_init` runs inside the `pretrain` span.
            layers.add("trainer.pretrain_ms", pretrain_ms - init_ms);
            layers.add("trainer.centroid_init_ms", init_ms);
            layers.add("trainer.selftrain_ms", selftrain_ms);
            layers.add(
                "trainer.final_assign_ms",
                fit_ms - pretrain_ms - selftrain_ms,
            );
            layers.add("trainer.epochs", fit.history.len() as f64);
            let pretrain_batch = trace.histogram("pretrain.batch_ms");
            let selftrain_batch = trace.histogram("selftrain.batch_ms");
            layers.add(
                "trainer.pretrain_batch_p50_ms",
                hist_quantile(&pretrain_batch, 0.5),
            );
            layers.add(
                "trainer.selftrain_batch_p50_ms",
                hist_quantile(&selftrain_batch, 0.5),
            );
            layers.add("persist.save_ms", save_ms);
            layers.add("persist.checkpoint_bytes", file_bytes(&checkpoint)? as f64);
            trace.add_counters(&mut layers, fit_ms);
            layers.end_unit();
            traced_s.push(wall_s);
        } else {
            let traj_epochs = (data.len() * fit.history.len()) as f64;
            job_s.push(cpu_s);
            rates.push(traj_epochs / fit_cpu_s);
            wall_job_s.push(wall_s);
            wall_rates.push(traj_epochs / fit_s);
            for w in epoch_ends.windows(2) {
                epoch_ms.push((w[1].1 - w[0].1) * 1e3);
                wall_epoch_ms.push((w[1].0 - w[0].0).as_secs_f64() * 1e3);
            }
        }
    }

    report.set("setup_s", setup_s);
    report.set("job_cpu_s", median(&job_s));
    report.set("throughput_per_cpu_s", median(&rates));
    report.set("latency_p50_cpu_ms", median(&epoch_ms));
    report.set("wall.job_s", median(&wall_job_s));
    report.set("wall.throughput_per_s", median(&wall_rates));
    report.set("wall.latency_p50_ms", median(&wall_epoch_ms));
    if args.trace {
        layers.finish(report, &wall_job_s, &traced_s);
    }
    Ok(())
}

/// Assignments complete and in range; embeddings and centroids finite.
fn complete(fit: &FitResult, n: usize, k: usize) -> bool {
    fit.assignments.len() == n
        && fit.assignments.iter().all(|&c| c < k)
        && fit.embeddings.len() == n * fit.embed_dim
        && fit
            .embeddings
            .iter()
            .chain(&fit.centroids)
            .all(|v| v.is_finite())
}

fn fit_fingerprint(fit: &FitResult) -> u64 {
    fingerprint(
        fit.assignments
            .iter()
            .map(|&c| c as u64)
            .chain(fit.embeddings.iter().map(|v| u64::from(v.to_bits()))),
    )
}
