//! **Figure 3** — scalability: end-to-end clustering time vs. dataset
//! cardinality on Porto-like and Hangzhou-like data.
//!
//! Paper definitions (§VII-D): for classic K-Medoids the time is
//! similarity computation + clustering; for the deep models it is
//! trajectory embedding + cluster assignment with an offline-trained model
//! ("once the deep learning models have been trained offline, they can be
//! efficiently utilized for trajectory clustering tasks"). Expected shape:
//! classics grow sharply (O(n²) matrices), deep methods grow mildly and
//! are orders of magnitude faster at scale.
//!
//! Usage: `fig3 [--scale paper] [--seed <s>]`

use e2dtc::LossMode;
use e2dtc_bench::datasets::{labelled_dataset, DatasetKind};
use e2dtc_bench::methods::time_inference_frozen;
use e2dtc_bench::report::{dump_json, dump_text, fmt_secs, Table};
use e2dtc_bench::setup::{train_frozen, RunArgs};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;
use traj_cluster::{kmedoids_alternating, KMedoidsConfig};
use traj_dist::{DistanceMatrix, Metric};
use traj_query::{QueryConfig, QueryEngine};

#[derive(Serialize)]
struct Point {
    dataset: String,
    method: String,
    n: usize,
    seconds: f64,
}

fn main() {
    let args = RunArgs::parse();
    let seed = args.seed;
    let sizes: Vec<usize> = if args.paper {
        vec![10_000, 20_000, 40_000, 80_000]
    } else {
        vec![100, 200, 400, 800]
    };
    let train_n = *sizes.first().expect("non-empty sweep");

    let mut points = Vec::new();
    let mut table = Table::new(&["Dataset", "Method", "n", "time"]);

    for kind in [DatasetKind::Porto, DatasetKind::Hangzhou] {
        // Deep models are trained once, offline, on the smallest size,
        // then frozen: the timed serve path is the tape-free batched
        // query engine, which is what a deployed model would run.
        let train_data = args.dataset("fig3", kind, train_n);
        let cfg = args.config(train_data.num_clusters);
        let e2dtc_engine = QueryEngine::new(
            Arc::new(train_frozen(&train_data, cfg.clone())),
            QueryConfig::default(),
        );
        let t2vec_engine = QueryEngine::new(
            Arc::new(train_frozen(&train_data, cfg.with_loss_mode(LossMode::L0))),
            QueryConfig::default(),
        );

        for &n in &sizes {
            let data = labelled_dataset(kind, n, seed ^ 0x5157);
            eprintln!("[fig3] {} n = {}", kind.name(), data.len());

            for metric in [Metric::Dtw, Metric::Hausdorff] {
                let start = Instant::now();
                let matrix = DistanceMatrix::compute(&data.dataset.trajectories, &metric);
                let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
                let _ = kmedoids_alternating(
                    matrix.data(),
                    data.len(),
                    KMedoidsConfig::new(data.num_clusters),
                    &mut rng,
                );
                record(
                    &mut points,
                    &mut table,
                    kind,
                    &format!("{} + KM", metric.name()),
                    data.len(),
                    start.elapsed().as_secs_f64(),
                );
            }

            let (_, secs) = time_inference_frozen(&t2vec_engine, &data);
            record(&mut points, &mut table, kind, "t2vec + k-means", data.len(), secs);
            let (_, secs) = time_inference_frozen(&e2dtc_engine, &data);
            record(&mut points, &mut table, kind, "E2DTC", data.len(), secs);
        }
    }

    println!("\nFigure 3 — clustering time vs. datasize\n");
    table.print();
    dump_json("fig3", &points).expect("write json");
    dump_text("fig3", &table.render()).expect("write text");
    println!("\nartifacts: experiments_out/fig3.{{json,txt}}");
}

fn record(
    points: &mut Vec<Point>,
    table: &mut Table,
    kind: DatasetKind,
    method: &str,
    n: usize,
    seconds: f64,
) {
    table.row(vec![
        kind.name().to_string(),
        method.to_string(),
        n.to_string(),
        fmt_secs(seconds),
    ]);
    points.push(Point {
        dataset: kind.name().to_string(),
        method: method.to_string(),
        n,
        seconds,
    });
}
