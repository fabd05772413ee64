#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md) plus a bench smoke-run.
#
#   build  — release build of the whole workspace, plus the examples
#   lint   — clippy over the whole workspace with warnings promoted to errors
#   doc    — rustdoc over the whole workspace with warnings promoted to
#            errors, so a doc link left pointing at a deleted or private
#            item fails
#   test   — full test suite (unit + integration + proptests + gradchecks +
#            telemetry no-op-overhead guard + golden-run regression)
#   fault  — fault-injection integration tests (NaN poisoning, torn/killed
#            checkpoint saves) behind the e2dtc `fault-injection` feature
#   bench  — every criterion bench (bench_nn, bench_dist, bench_query,
#            bench_cluster, bench_dec, bench_pipeline) in --test mode:
#            each benchmark body runs once so the harnesses and kernels
#            (fused GRU, projected distance kernels, frozen query engine,
#            k-medoids, DEC math, Algorithm 2) stay compilable
#            and panic-free without paying for a full measurement run
#   e2e    — the end-to-end benchmark's tiny-scale self-test; e2ebench/
#            is its own package outside the workspace, so this is what
#            catches an API change that breaks it
#   smoke  — the CLI end-to-end on a tiny synthetic city: generate →
#            train on a copy with one `lat` set to null, which must fail
#            with `error:` → train (the plain save must carry no
#            gradients, Adam state, weight table, decoder or projection)
#            → a second train with the same
#            seed, whose model.json must be byte-identical → embed and
#            assign (both through the frozen encoder from the
#            checkpoint), whose labels must agree → evaluate on those
#            labels with one id set to 1000000, which must finish within
#            10 s; then a
#            checkpointed train, whose newest checkpoint must still hold
#            the weight table, decoder and projection and must embed
#            byte-identically to its plain save, resumed from its
#            checkpoint directory with the newest checkpoint deleted,
#            whose model.json must be byte-identical to the uninterrupted
#            run's, and a resume from the plain save, which must fail
#            with `error:`
#   ablations — the `ablations` harness bin on 60 trajectories, run inside
#            the temp dir so its experiments_out/ lands there; its JSON
#            must hold the 4 rows it writes (Eq. 8 weights vs plain NLL,
#            k-means++ vs random init)
#   serial ≡ parallel — train and embed once with RAYON_NUM_THREADS=1
#            and once on the default pool; the two model.json files and
#            the two embed outputs must be byte-identical. Twice: on a
#            400-trajectory city with the fast preset (whose products all
#            stay under the parallel matmul threshold, so this pins that
#            thread count changes nothing else), and on the smoke city
#            with the paper preset, whose GRU and decoder products are
#            above the threshold and run on the pool
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo build --examples
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo test -q
cargo test -q -p e2dtc --features fault-injection --test fault_injection
for bench in bench_nn bench_dist bench_query bench_cluster bench_dec bench_pipeline; do
    cargo bench -p e2dtc-bench --bench "$bench" -- --test
done
cargo test -q --release --manifest-path e2ebench/Cargo.toml

smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
./target/release/e2dtc generate --kind hangzhou --n 40 --out "$smoke_dir/data.json" --quiet
jq '.dataset.trajectories[3].points[2].lat = null' "$smoke_dir/data.json" >"$smoke_dir/null_lat.json"
rc=0
./target/release/e2dtc train --data "$smoke_dir/null_lat.json" --out "$smoke_dir/null_model.json" \
    --preset fast --quiet 2>"$smoke_dir/null_err.txt" || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q '^error:' "$smoke_dir/null_err.txt"; then
    echo "tier1: training on a dataset with a null lat must exit 1 with an error (got $rc)" >&2
    exit 1
fi
./target/release/e2dtc train --data "$smoke_dir/data.json" --out "$smoke_dir/model.json" \
    --preset fast --quiet
decoder_names='any(.store.names[]; startswith("decoder.")) and any(.store.names[]; startswith("proj."))'
if ! tail -n +2 "$smoke_dir/model.json" | jq -e "(.store | has(\"grads\") | not) and .opt == null
    and .weights == null and ($decoder_names | not)" >/dev/null; then
    echo "tier1: plain model save carries gradients, optimizer state, weights or the decoder" >&2
    exit 1
fi
./target/release/e2dtc train --data "$smoke_dir/data.json" --out "$smoke_dir/model_again.json" \
    --preset fast --quiet
if ! cmp -s "$smoke_dir/model.json" "$smoke_dir/model_again.json"; then
    echo "tier1: two seeded trains of the same city wrote different model.json files" >&2
    exit 1
fi
./target/release/e2dtc embed --model "$smoke_dir/model.json" --data "$smoke_dir/data.json" \
    --out "$smoke_dir/emb.json" --quiet
grep -q '"embeddings"' "$smoke_dir/emb.json"
./target/release/e2dtc assign --model "$smoke_dir/model.json" --data "$smoke_dir/data.json" \
    --out "$smoke_dir/assign.json" --quiet
if [ "$(jq -c .assignments "$smoke_dir/emb.json")" != "$(jq -c . "$smoke_dir/assign.json")" ]; then
    echo "tier1: assign labels differ from the assignments embed wrote" >&2
    exit 1
fi
jq '.[0] = 1000000' "$smoke_dir/assign.json" >"$smoke_dir/assign_big_id.json"
if ! timeout 10 ./target/release/e2dtc evaluate --data "$smoke_dir/data.json" \
    --assignments "$smoke_dir/assign_big_id.json" --quiet >/dev/null; then
    echo "tier1: evaluate with a cluster id of 1000000 failed or took over 10 s" >&2
    exit 1
fi
./target/release/e2dtc train --data "$smoke_dir/data.json" --out "$smoke_dir/ck_model.json" \
    --preset fast --checkpoint-dir "$smoke_dir/ck" --checkpoint-every 1 --quiet
newest_ckpt="$(ls "$smoke_dir"/ck/ckpt-*.json | sort | tail -n 1)"
if ! tail -n +2 "$newest_ckpt" | jq -e ".weights != null and $decoder_names" >/dev/null; then
    echo "tier1: the newest training checkpoint lacks the weight table or the decoder" >&2
    exit 1
fi
# Serving reads both layouts: the final checkpoint embeds like the plain save.
./target/release/e2dtc embed --model "$newest_ckpt" --data "$smoke_dir/data.json" \
    --out "$smoke_dir/ckpt_emb.json" --quiet
./target/release/e2dtc embed --model "$smoke_dir/ck_model.json" --data "$smoke_dir/data.json" \
    --out "$smoke_dir/ck_model_emb.json" --quiet
if ! cmp -s "$smoke_dir/ckpt_emb.json" "$smoke_dir/ck_model_emb.json"; then
    echo "tier1: embed from the newest checkpoint differs from embed from its plain save" >&2
    exit 1
fi
# Drop the newest checkpoint so the resume replays real epochs.
rm "$newest_ckpt"
./target/release/e2dtc train --data "$smoke_dir/data.json" --out "$smoke_dir/resumed.json" \
    --resume "$smoke_dir/ck" --quiet
if ! cmp -s "$smoke_dir/ck_model.json" "$smoke_dir/resumed.json"; then
    echo "tier1: the resumed train wrote a different model.json than the uninterrupted one" >&2
    exit 1
fi
rc=0
./target/release/e2dtc train --data "$smoke_dir/data.json" --out "$smoke_dir/bad.json" \
    --resume "$smoke_dir/model.json" --quiet 2>"$smoke_dir/resume_err.txt" || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q '^error:' "$smoke_dir/resume_err.txt"; then
    echo "tier1: resuming from a plain model save must exit 1 with an error (got $rc)" >&2
    exit 1
fi
root="$PWD"
(cd "$smoke_dir" && "$root/target/release/ablations" --n 60 >/dev/null)
if ! jq -e 'length == 4' "$smoke_dir/experiments_out/ablations.json" >/dev/null; then
    echo "tier1: ablations.json does not hold the 4 ablation rows" >&2
    exit 1
fi

# serial_vs_parallel <data> <preset> <tag>: train and embed at one rayon
# thread and on the default pool; both file pairs must be byte-identical.
serial_vs_parallel() {
    local data="$1" preset="$2" tag="$3"
    RAYON_NUM_THREADS=1 ./target/release/e2dtc train --data "$data" \
        --out "$smoke_dir/$tag.serial.json" --preset "$preset" --quiet
    ./target/release/e2dtc train --data "$data" \
        --out "$smoke_dir/$tag.parallel.json" --preset "$preset" --quiet
    if ! cmp -s "$smoke_dir/$tag.serial.json" "$smoke_dir/$tag.parallel.json"; then
        echo "tier1: serial and parallel $tag trains wrote different model.json files" >&2
        exit 1
    fi
    RAYON_NUM_THREADS=1 ./target/release/e2dtc embed --model "$smoke_dir/$tag.serial.json" \
        --data "$data" --out "$smoke_dir/$tag.serial_emb.json" --quiet
    ./target/release/e2dtc embed --model "$smoke_dir/$tag.parallel.json" \
        --data "$data" --out "$smoke_dir/$tag.parallel_emb.json" --quiet
    if ! cmp -s "$smoke_dir/$tag.serial_emb.json" "$smoke_dir/$tag.parallel_emb.json"; then
        echo "tier1: serial and parallel $tag embed runs wrote different outputs" >&2
        exit 1
    fi
}
./target/release/e2dtc generate --kind hangzhou --n 400 --out "$smoke_dir/city400.json" --quiet
serial_vs_parallel "$smoke_dir/city400.json" fast city400
serial_vs_parallel "$smoke_dir/data.json" paper paper

echo "tier1: OK"
