//! `baselines` workload: the paper's classic `<metric> + KM` baselines
//! (Table III, and Fig. 3's clustering time) — `DistanceMatrix::compute`
//! under EDR, LCSS, DTW and Hausdorff, each followed by
//! `kmedoids_alternating`, on a hangzhou-like city. Only `traj-dist` and
//! `traj-cluster` work here; no `traj-nn`.
//!
//! After each timed pass every matrix is checked: symmetric with a zero
//! diagonal, and a seeded sample of entries equal to the naive oracles in
//! [`crate::oracle`]. The clusterings must be valid and repeat exactly
//! from pass to pass.

use crate::common::{labelled_city, median, timed_setup, Args, Stopwatch, TimeBox};
use crate::oracle;
use crate::report::{LayerMeans, Report};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traj_cluster::{kmedoids_alternating, nmi, uacc, KMedoidsConfig};
use traj_dist::{DistanceMatrix, Metric};

const FULL_N: usize = 1000;
const TINY_N: usize = 30;
/// EDR/LCSS match threshold, the middle of the Table III grid.
const EPS_M: f64 = 200.0;
const SETUP_REPS: usize = 5;
const MIN_PASSES: usize = 3;
/// Matrix entries checked against the oracle, per metric per pass.
const ORACLE_SAMPLES: usize = 32;
/// Per-layer names of the matrix timers, in `Metric::paper_baselines` order.
const MATRIX_LAYERS: [&str; 4] = [
    "dist.matrix_ms.edr",
    "dist.matrix_ms.lcss",
    "dist.matrix_ms.dtw",
    "dist.matrix_ms.hausdorff",
];

pub fn run(
    args: &Args,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> Result<(), String> {
    let n_requested = args.scale.pick(FULL_N, TINY_N);
    let (data, setup_s) = timed_setup(SETUP_REPS, || Ok(labelled_city(n_requested, args.seed)))?;
    let trajs = &data.dataset.trajectories;
    let n = trajs.len();
    let planar = oracle::project_all(trajs);
    let metrics = Metric::paper_baselines(EPS_M);
    let pairs_per_pass = (metrics.len() * n * (n - 1) / 2) as f64;
    let mut sampler = StdRng::seed_from_u64(args.seed ^ 0x0c4e_c0de);

    let (mut pass_s, mut rates, mut method_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall_pass_s, mut wall_rates, mut wall_method_ms) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut traced_s = Vec::new();
    let mut layers = LayerMeans::default();
    let mut reference: Option<Vec<Vec<usize>>> = None;
    let mut timebox = TimeBox::new(args, MIN_PASSES);
    while let Some(traced) = timebox.next_unit() {
        if let Some(t) = tracer.as_deref_mut() {
            t.begin(traced);
        }
        let start = Stopwatch::start();
        let mut matrices = Vec::with_capacity(metrics.len());
        let mut clusterings = Vec::with_capacity(metrics.len());
        let mut matrix_ms = [0.0; 4];
        let mut kmedoids_ms = 0.0;
        let (mut pass_method_ms, mut pass_method_cpu_ms) = (Vec::new(), Vec::new());
        for (m, metric) in metrics.iter().enumerate() {
            let method = Stopwatch::start();
            let matrix = DistanceMatrix::compute(trajs, metric);
            matrix_ms[m] = method.wall_s() * 1e3;
            let t = Stopwatch::start();
            let mut rng = StdRng::seed_from_u64(args.seed.wrapping_add(m as u64));
            let clustering = kmedoids_alternating(
                matrix.data(),
                n,
                KMedoidsConfig::new(data.num_clusters),
                &mut rng,
            );
            kmedoids_ms += t.wall_s() * 1e3;
            pass_method_ms.push(method.wall_s() * 1e3);
            pass_method_cpu_ms.push(method.cpu_ms());
            matrices.push(matrix);
            clusterings.push(clustering.assignment);
        }
        let (wall_s, cpu_s) = (start.wall_s(), start.cpu_s());

        for (metric, matrix) in metrics.iter().zip(&matrices) {
            report.check(symmetric_with_zero_diagonal(matrix));
            for _ in 0..ORACLE_SAMPLES {
                let i = sampler.gen_range(0..n);
                let j = (i + 1 + sampler.gen_range(0..n - 1)) % n;
                let want = oracle::distance(metric, &planar[i], &planar[j]);
                report.check(oracle::agrees(matrix.get(i, j), want));
            }
        }
        for assignment in &clusterings {
            report
                .check(assignment.len() == n && assignment.iter().all(|&c| c < data.num_clusters));
        }
        report.check(*reference.get_or_insert_with(|| clusterings.clone()) == clusterings);
        let methods = clusterings.len() as f64;
        report.set(
            "quality.nmi",
            clusterings
                .iter()
                .map(|a| nmi(a, &data.labels))
                .sum::<f64>()
                / methods,
        );
        report.set(
            "quality.uacc",
            clusterings
                .iter()
                .map(|a| uacc(a, &data.labels))
                .sum::<f64>()
                / methods,
        );

        if traced {
            let trace = tracer
                .as_deref_mut()
                .expect("traced runs have a tracer")
                .end();
            layers.add("traced_wall_ms", wall_s * 1e3);
            layers.add(
                "unattributed_ms",
                wall_s * 1e3 - matrix_ms.iter().sum::<f64>() - kmedoids_ms,
            );
            for (&name, value) in MATRIX_LAYERS.iter().zip(matrix_ms) {
                layers.add(name, value);
            }
            layers.add("cluster.kmedoids_ms", kmedoids_ms);
            trace.add_counters(&mut layers, 0.0);
            layers.end_unit();
            traced_s.push(wall_s);
        } else {
            pass_s.push(cpu_s);
            rates.push(pairs_per_pass / cpu_s);
            method_ms.extend(pass_method_cpu_ms);
            wall_pass_s.push(wall_s);
            wall_rates.push(pairs_per_pass / wall_s);
            wall_method_ms.extend(pass_method_ms);
        }
    }

    report.set("setup_s", setup_s);
    report.set("job_cpu_s", median(&pass_s));
    report.set("throughput_per_cpu_s", median(&rates));
    report.set("latency_p50_cpu_ms", median(&method_ms));
    report.set("wall.job_s", median(&wall_pass_s));
    report.set("wall.throughput_per_s", median(&wall_rates));
    report.set("wall.latency_p50_ms", median(&wall_method_ms));
    if args.trace {
        layers.finish(report, &wall_pass_s, &traced_s);
    }
    Ok(())
}

fn symmetric_with_zero_diagonal(m: &DistanceMatrix) -> bool {
    (0..m.len()).all(|i| m.get(i, i) == 0.0 && (0..i).all(|j| m.get(i, j) == m.get(j, i)))
}
