//! `serve` workload: a frozen encoder answering clustering requests — the
//! path behind `e2dtc embed`/`assign`, held open like a server.
//!
//! Setup trains a small model on a fixed subset of a hangzhou-like city
//! (the workload seed makes only the request stream), writes its
//! checkpoint, and writes a query file of held-out trajectories from the
//! same city: queries from another city's grid tokenize mostly to UNK and
//! would measure almost nothing. Each session then runs
//!
//! - a cold start: `FrozenEncoder::from_checkpoint`, `load_labeled_json`
//!   on the query file, and the first answer;
//! - a steady phase: a seeded interleaving of online requests (one
//!   trajectory) and batch requests (256) through
//!   `QueryEngine::hard_assign` with the default configuration.
//!
//! One closed-loop client; parallelism comes only from the engine's rayon
//! pool. Every answer must equal the reference assignments computed once
//! in setup through the serial `FrozenEncoder` path at the training batch
//! size: the batch-size and thread-count independence contract.

use crate::common::{
    file_bytes, labelled_city, median, ms, timed_setup, Args, Stopwatch, TimeBox, WorkDir,
};
use crate::report::{LayerMeans, Report};
use crate::trace::{hist_quantile, Tracer};
use e2dtc::batcher::length_buckets;
use e2dtc::{E2dtc, E2dtcConfig, FrozenEncoder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use traj_cluster::{nmi, uacc};
use traj_data::io::{load_labeled_json, save_labeled_json};
use traj_data::{Dataset, LabeledDataset, Trajectory};
use traj_query::{QueryConfig, QueryEngine};

/// Labelled trajectories per run; every `HOLD_OUT_EVERY`-th
/// labelled one becomes a query, the rest train the model.
const FULL_N: usize = 640;
const TINY_N: usize = 48;
const HOLD_OUT_EVERY: usize = 4;
/// Steady-phase requests per session.
const FULL_REQUESTS: usize = 4000;
const TINY_REQUESTS: usize = 40;
const BATCH_REQUEST: usize = 256;
/// Share of steady-phase requests that are batches. An online request
/// costs roughly 1/64 of a batch, so this splits the phase's time about
/// evenly between the two kinds.
const BATCH_SHARE: f64 = 1.0 / 64.0;
const SETUP_REPS: usize = 3;
/// Picks the subset the served model is trained on and the queries come
/// from, and seeds that training: every run serves the same model and
/// query file, as a deployment would. Drawn per workload seed, they moved
/// cold start by 18% (it parses both files) and peak RSS by 20% (set-up
/// training). The workload seed makes the request stream.
const MODEL_SEED: u64 = 0;
const MIN_SESSIONS: usize = 3;

/// What setup leaves on disk, and the answers every session must give.
struct Served {
    checkpoint: PathBuf,
    queries: PathBuf,
    reference: Vec<usize>,
}

pub fn run(
    args: &Args,
    work: &WorkDir,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> Result<(), String> {
    let ((served, queries), setup_s) = timed_setup(SETUP_REPS, || prepare(args, work))?;
    report.set("quality.nmi", nmi(&served.reference, &queries.labels));
    report.set("quality.uacc", uacc(&served.reference, &queries.labels));
    let query_bytes = file_bytes(&served.queries)? as f64;
    let checkpoint_bytes = file_bytes(&served.checkpoint)? as f64;
    let batch_size = QueryConfig::default().batch_size;
    let steady_requests = args.scale.pick(FULL_REQUESTS, TINY_REQUESTS);

    let (mut cold_s, mut online_ms) = (Vec::new(), Vec::new());
    let (mut wall_cold_s, mut wall_online_ms) = (Vec::new(), Vec::new());
    let (mut batch_trajs, mut batch_cpu_s, mut batch_s) = (0usize, 0.0f64, 0.0f64);
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut layers = LayerMeans::default();
    let mut timebox = TimeBox::new(args, MIN_SESSIONS);
    let mut session = 0u64;
    while let Some(traced) = timebox.next_unit() {
        session += 1;
        if let Some(t) = tracer.as_deref_mut() {
            t.begin(traced);
        }
        let mut rng =
            StdRng::seed_from_u64(args.seed ^ session.wrapping_mul(0x9e37_79b9_7f4a_7c15));

        // Cold start.
        let t0 = Stopwatch::start();
        let encoder = FrozenEncoder::from_checkpoint(&served.checkpoint)
            .map_err(|e| format!("loading the model: {e}"))?;
        let load_ms = t0.wall_s() * 1e3;
        let t1 = Instant::now();
        let loaded =
            load_labeled_json(&served.queries).map_err(|e| format!("loading the queries: {e}"))?;
        let io_ms = ms(t1);
        let engine = QueryEngine::new(Arc::new(encoder), QueryConfig::default());
        let trajs = &loaded.dataset.trajectories;
        let first = rng.gen_range(0..trajs.len());
        let t2 = Instant::now();
        let answer = engine.hard_assign(&trajs[first..=first]);
        let mut engine_ms = ms(t2);
        let (cold, cold_cpu) = (t0.wall_s(), t0.cpu_s());
        report.check(answer == [served.reference[first]]);

        // Steady phase; its first request is a batch so every session has one.
        let mut requests = vec![vec![first]];
        let (mut session_online, mut session_online_cpu) = (Vec::new(), Vec::new());
        let (mut session_batch_trajs, mut session_batch_cpu_s, mut session_batch_s) =
            (0usize, 0.0f64, 0.0f64);
        for i in 0..steady_requests {
            let ids: Vec<usize> = if i == 0 || rng.gen_bool(BATCH_SHARE) {
                (0..BATCH_REQUEST)
                    .map(|_| rng.gen_range(0..trajs.len()))
                    .collect()
            } else {
                vec![rng.gen_range(0..trajs.len())]
            };
            let answer = if let [id] = ids[..] {
                let t = Stopwatch::start();
                let answer = engine.hard_assign(&trajs[id..=id]);
                let (dt, cpu_ms) = (t.wall_s() * 1e3, t.cpu_ms());
                session_online.push(dt);
                session_online_cpu.push(cpu_ms);
                engine_ms += dt;
                answer
            } else {
                let batch: Vec<Trajectory> = ids.iter().map(|&i| trajs[i].clone()).collect();
                let t = Stopwatch::start();
                let answer = engine.hard_assign(&batch);
                let (dt, cpu_s) = (t.wall_s() * 1e3, t.cpu_s());
                session_batch_trajs += batch.len();
                session_batch_cpu_s += cpu_s;
                session_batch_s += dt / 1e3;
                engine_ms += dt;
                answer
            };
            report.check(
                answer.len() == ids.len()
                    && ids
                        .iter()
                        .zip(&answer)
                        .all(|(&i, &c)| served.reference[i] == c),
            );
            requests.push(ids);
        }
        let wall_ms = t0.wall_s() * 1e3;

        if traced {
            let trace = tracer
                .as_deref_mut()
                .expect("traced runs have a tracer")
                .end();
            layers.add("traced_wall_ms", wall_ms);
            layers.add("unattributed_ms", wall_ms - load_ms - io_ms - engine_ms);
            layers.add("persist.load_ms", load_ms);
            layers.add("persist.checkpoint_bytes", checkpoint_bytes);
            layers.add("io.dataset_load_ms", io_ms);
            layers.add("io.dataset_mb_per_s", query_bytes / 1e6 / (io_ms / 1e3));
            layers.add("query.engine_ms", engine_ms);
            let micro_batches = trace.counter("query.batches");
            layers.add(
                "query.batch_fill",
                trace.counter("query.trajs") / (micro_batches * batch_size as f64),
            );
            layers.add(
                "query.pad_efficiency",
                pad_efficiency(engine.encoder(), trajs, &requests, batch_size),
            );
            let batch_ms = trace.histogram("query.batch_ms");
            layers.add("query.batch_p50_ms", hist_quantile(&batch_ms, 0.5));
            layers.add("query.batch_p90_ms", hist_quantile(&batch_ms, 0.9));
            trace.add_counters(&mut layers, engine_ms);
            layers.end_unit();
            traced_s.push(wall_ms / 1e3);
        } else {
            cold_s.push(cold_cpu);
            online_ms.extend(session_online_cpu);
            wall_cold_s.push(cold);
            wall_online_ms.extend(session_online);
            batch_trajs += session_batch_trajs;
            batch_cpu_s += session_batch_cpu_s;
            batch_s += session_batch_s;
            untraced_s.push(wall_ms / 1e3);
        }
    }

    report.set("setup_s", setup_s);
    report.set("job_cpu_s", median(&cold_s));
    report.set("throughput_per_cpu_s", batch_trajs as f64 / batch_cpu_s);
    report.set("latency_p50_cpu_ms", median(&online_ms));
    report.set("wall.job_s", median(&wall_cold_s));
    report.set("wall.throughput_per_s", batch_trajs as f64 / batch_s);
    report.set("wall.latency_p50_ms", median(&wall_online_ms));
    if args.trace {
        layers.finish(report, &untraced_s, &traced_s);
    }
    Ok(())
}

/// Trains and saves the model, writes the query file, and computes the
/// reference answers.
fn prepare(args: &Args, work: &WorkDir) -> Result<(Served, LabeledDataset), String> {
    let (train, queries) = hold_out(labelled_city(args.scale.pick(FULL_N, TINY_N), MODEL_SEED));
    let mut cfg = E2dtcConfig::fast(train.num_clusters).with_seed(MODEL_SEED);
    // A short, fixed amount of training: set-up time does not hinge on the
    // epoch at which labels settle, and the served model has the full
    // vocabulary and weight shapes whatever its quality.
    cfg.delta = -1.0;
    cfg.pretrain_epochs = 2;
    cfg.selftrain_epochs = 1;
    let mut model = E2dtc::new(&train.dataset, cfg);
    let _ = model.fit(&train.dataset);
    let (checkpoint, query_path) = (work.path("model.json"), work.path("queries.json"));
    model
        .save(&checkpoint)
        .map_err(|e| format!("saving the model: {e}"))?;
    save_labeled_json(&queries, &query_path).map_err(|e| format!("saving the queries: {e}"))?;
    let frozen = FrozenEncoder::from_checkpoint(&checkpoint)
        .map_err(|e| format!("loading the model: {e}"))?;
    let reference = frozen.hard_assign(&frozen.embed_dataset(&queries.dataset));
    Ok((
        Served {
            checkpoint,
            queries: query_path,
            reference,
        },
        queries,
    ))
}

/// Splits a labelled city into training trajectories and, every
/// `HOLD_OUT_EVERY`-th one, queries.
fn hold_out(city: LabeledDataset) -> (LabeledDataset, LabeledDataset) {
    let (name, k) = (city.dataset.name, city.num_clusters);
    let mut parts: [(Vec<Trajectory>, Vec<usize>); 2] = Default::default();
    for (i, (t, label)) in city
        .dataset
        .trajectories
        .into_iter()
        .zip(city.labels)
        .enumerate()
    {
        let part = &mut parts[usize::from(i % HOLD_OUT_EVERY == HOLD_OUT_EVERY - 1)];
        part.0.push(t);
        part.1.push(label);
    }
    let [train, queries] = parts.map(|(trajectories, labels)| LabeledDataset {
        dataset: Dataset::new(name.clone(), trajectories),
        labels,
        num_clusters: k,
    });
    (train, queries)
}

/// Real ÷ padded tokens over the micro-batches the engine forms for
/// `requests`, recomputed through the public `tokenize` and
/// `length_buckets`.
fn pad_efficiency(
    encoder: &FrozenEncoder,
    trajs: &[Trajectory],
    requests: &[Vec<usize>],
    batch_size: usize,
) -> f64 {
    let token_lens: Vec<usize> = trajs.iter().map(|t| encoder.tokenize(t).len()).collect();
    let (mut real, mut padded) = (0usize, 0usize);
    for ids in requests {
        let lens: Vec<usize> = ids.iter().map(|&i| token_lens[i]).collect();
        for bucket in length_buckets(&lens, batch_size) {
            let longest = bucket.iter().map(|&i| lens[i]).max().unwrap_or(0);
            real += bucket.iter().map(|&i| lens[i]).sum::<usize>();
            padded += longest * bucket.len();
        }
    }
    real as f64 / padded.max(1) as f64
}
