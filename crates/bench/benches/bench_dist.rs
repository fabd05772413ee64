//! Criterion micro-benchmarks for the classical distance kernels — the
//! per-pair costs that make Fig. 3's O(n²) baselines explode.
//!
//! Two layers: `pair_kernels` times each pre-projected trig-free kernel
//! on one pair (plus a pair of 130+ points, which runs the multi-word
//! path of the 64-bit EDR and LCSS kernels), and `distance_matrix`
//! measures the full blocked O(n²) computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use traj_data::{SynthSpec, Trajectory};
use traj_dist::{DistanceMatrix, Metric, ProjectedTraj};

fn sample_trajectories(n: usize, seed: u64) -> Vec<Trajectory> {
    trajectories_of(SynthSpec::hangzhou_like(n, seed))
}

fn trajectories_of(mut spec: SynthSpec) -> Vec<Trajectory> {
    spec.outlier_fraction = 0.0;
    spec.generate().dataset.trajectories
}

fn bench_pair_kernels(c: &mut Criterion) {
    let ts = sample_trajectories(8, 1);
    let (_, projected) = ProjectedTraj::project_all(&ts);
    let (pa, pb) = (&projected[0], &projected[1]);

    let mut group = c.benchmark_group("pair_kernels");
    group.bench_function("dtw_projected", |bch| {
        bch.iter(|| traj_dist::dtw::dtw_projected(black_box(pa), black_box(pb)))
    });
    group.bench_function("edr_projected", |bch| {
        bch.iter(|| traj_dist::edr::edr_projected(black_box(pa), black_box(pb), 200.0))
    });
    group.bench_function("lcss_projected", |bch| {
        bch.iter(|| traj_dist::lcss::lcss_projected_distance(black_box(pa), black_box(pb), 200.0))
    });
    group.bench_function("hausdorff_projected", |bch| {
        bch.iter(|| traj_dist::hausdorff::hausdorff_projected(black_box(pa), black_box(pb)))
    });

    // Three 64-bit words per row: the carry and hin/hout hand-off between
    // words run on every point.
    let mut long_spec = SynthSpec::hangzhou_like(2, 3);
    long_spec.len_range = (130, 160);
    long_spec.rate_jitter = 1;
    let (_, long) = ProjectedTraj::project_all(&trajectories_of(long_spec));
    let (la, lb) = (&long[0], &long[1]);
    assert!(la.len() >= 130 && lb.len() >= 130, "multi-word pair is {}×{}", la.len(), lb.len());
    for metric in [Metric::Edr { eps_m: 200.0 }, Metric::Lcss { eps_m: 200.0 }, Metric::Hausdorff] {
        let name = format!("{}_projected_130plus", metric.name().to_lowercase());
        group.bench_function(name, |bch| {
            bch.iter(|| metric.distance_projected(black_box(la), black_box(lb)))
        });
    }
    group.finish();
}

fn bench_matrix_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_matrix");
    group.sample_size(10);
    for n in [50usize, 100, 200] {
        let ts = sample_trajectories(n, 2);
        group.bench_with_input(BenchmarkId::new("dtw_matrix", n), &ts, |bch, ts| {
            bch.iter(|| DistanceMatrix::compute(black_box(ts), &Metric::Dtw))
        });
    }
    let ts = sample_trajectories(200, 2);
    for metric in [Metric::Edr { eps_m: 200.0 }, Metric::Lcss { eps_m: 200.0 }, Metric::Hausdorff] {
        let id = BenchmarkId::new(format!("{}_matrix", metric.name().to_lowercase()), 200);
        group.bench_with_input(id, &ts, |bch, ts| {
            bch.iter(|| DistanceMatrix::compute(black_box(ts), &metric))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pair_kernels, bench_matrix_scaling);
criterion_main!(benches);
