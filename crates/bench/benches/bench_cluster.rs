//! Criterion benches for the clustering substrate, including the design
//! ablation k-means++ vs. random init (DESIGN.md §5) and the alternating
//! K-Medoids the `<metric> + KM` baselines run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use traj_cluster::{kmeans, kmedoids_alternating, uacc, KMeansConfig, KMedoidsConfig, Points};

fn blob_points(n: usize, k: usize, d: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * d);
    for i in 0..n {
        let c = i % k;
        for j in 0..d {
            data.push((c * 7 + j) as f32 + rng.gen::<f32>());
        }
    }
    data
}

fn dist_matrix(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 10.0 + rng.gen::<f64>()).collect();
    let mut d = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            d[i * n + j] = (xs[i] - xs[j]).abs();
        }
    }
    d
}

fn bench_kmeans_init(c: &mut Criterion) {
    let data = blob_points(600, 6, 16, 3);
    let points = Points::new(&data, 600, 16);
    let mut group = c.benchmark_group("kmeans_init_ablation");
    group.bench_function("plus_plus", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(0);
            kmeans(black_box(points), KMeansConfig::new(6), &mut rng)
        })
    });
    group.bench_function("random", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(0);
            kmeans(black_box(points), KMeansConfig::new(6).random_init(), &mut rng)
        })
    });
    group.finish();
}

fn bench_kmedoids(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmedoids");
    group.sample_size(10);
    for n in [100usize, 200] {
        let d = dist_matrix(n, 4);
        group.bench_with_input(BenchmarkId::new("alternating", n), &d, |b, d| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(0);
                kmedoids_alternating(black_box(d), n, KMedoidsConfig::new(5), &mut rng)
            })
        });
    }
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let pred: Vec<usize> = (0..2000).map(|_| rng.gen_range(0..7)).collect();
    let truth: Vec<usize> = (0..2000).map(|_| rng.gen_range(0..7)).collect();
    c.bench_function("uacc_hungarian_2000", |b| {
        b.iter(|| uacc(black_box(&pred), black_box(&truth)))
    });
}

criterion_group!(benches, bench_kmeans_init, bench_kmedoids, bench_metrics);
criterion_main!(benches);
