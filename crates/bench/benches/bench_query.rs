//! Criterion benches for the serve path: the tape-free
//! [`FrozenEncoder`](e2dtc::FrozenEncoder) embedding, and the
//! [`QueryEngine`] assignment calls over it. The engine embeds through
//! the same batched loop as `FrozenEncoder::embed_dataset`, so embedding
//! is timed once.

use criterion::{criterion_group, criterion_main, Criterion};
use e2dtc::{E2dtc, E2dtcConfig};
use std::hint::black_box;
use std::sync::Arc;
use traj_data::{Dataset, SynthSpec};
use traj_query::{QueryConfig, QueryEngine};

/// One trained-enough model plus a fresh dataset to embed: the
/// steady-state serving scenario (weights fixed, data unseen). The
/// `fast` preset (embed 32 / hidden 48 / seq ≤ 48) is the smallest
/// realistic serve shape; at `tiny` dims fixed per-call overhead
/// dominates.
fn setup(n: usize) -> (E2dtc, Dataset) {
    let city = SynthSpec::hangzhou_like(200, 7).generate();
    let model = E2dtc::new(&city.dataset, E2dtcConfig::fast(7));
    let fresh = SynthSpec::hangzhou_like(n, 99).generate();
    (model, fresh.dataset)
}

fn bench_embed_paths(c: &mut Criterion) {
    let (model, data) = setup(200);
    let frozen = model.freeze();
    let mut group = c.benchmark_group("embed_200");
    group.sample_size(10);
    group.bench_function("frozen", |b| {
        b.iter(|| black_box(frozen.embed_dataset(&data)))
    });
    group.finish();
}

fn bench_assign(c: &mut Criterion) {
    let (mut model, data) = setup(200);
    let emb = model.embed_dataset(&data);
    model.init_centroids(&emb);
    let engine =
        QueryEngine::new(Arc::new(model.freeze()), QueryConfig::default());
    let mut group = c.benchmark_group("assign_200");
    group.sample_size(10);
    group.bench_function("hard_assign", |b| {
        b.iter(|| black_box(engine.hard_assign(&data.trajectories)))
    });
    group.bench_function("centroid_top3", |b| {
        b.iter(|| black_box(engine.nearest_centroids(&data.trajectories, 3)))
    });
    group.finish();
}

criterion_group!(benches, bench_embed_paths, bench_assign);
criterion_main!(benches);
