//! Bit-parity between the serving paths and the forward `fit` runs.
//!
//! Every forward that is not differentiated runs the one tape-free eval
//! path (`encoder::embed_tokenized`); its bit-identity with the tape's
//! `Seq2Seq::encode` is pinned inside the crate (`encoder::tests`). Here
//! the public surfaces must agree to the last bit for every trajectory:
//!
//! 1. `E2dtc::fit`'s returned embeddings (its final clustering pass);
//! 2. `E2dtc::embed_dataset` — the `&self` path;
//! 3. `FrozenEncoder::embed_dataset` — the same path through a frozen
//!    snapshot, including one round-tripped through a v3 checkpoint.
//!
//! Exactness holds because every path runs the same kernels in the same
//! float-operation order; any drift is a bug, not tolerance noise, so
//! every comparison is `to_bits`.

use e2dtc::{E2dtc, E2dtcConfig, FrozenEncoder};
use traj_data::SynthSpec;

fn tiny_city(n: usize, k: usize) -> traj_data::GeneratedCity {
    let mut spec = SynthSpec::hangzhou_like(n, 99);
    spec.num_clusters = k;
    spec.len_range = (8, 16);
    spec.outlier_fraction = 0.0;
    spec.generate()
}

fn assert_bit_identical(a: &traj_nn::Tensor, b: &traj_nn::Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: scalar {i} differs ({x} vs {y})"
        );
    }
}

#[test]
fn fit_embeddings_are_bit_identical_to_frozen_embed_dataset() {
    let city = tiny_city(30, 3);
    let mut model = E2dtc::new(&city.dataset, E2dtcConfig::tiny(3));
    let fit = model.fit(&city.dataset);
    let from_fit = traj_nn::Tensor::from_vec(city.dataset.len(), fit.embed_dim, fit.embeddings);

    let frozen = model.freeze();
    let frozen_emb = frozen.embed_dataset(&city.dataset);
    assert_bit_identical(&from_fit, &frozen_emb, "fit vs FrozenEncoder");
    assert_eq!(frozen.hard_assign(&frozen_emb), fit.assignments, "fit vs frozen labels");
}

#[test]
fn parity_survives_attention_configs() {
    // The encoder never attends; with attention on, the decoder registers
    // extra parameters. What this pins is that they do not shift the
    // encoder's parameters through freeze and a checkpoint round trip.
    let city = tiny_city(20, 2);
    let mut cfg = E2dtcConfig::tiny(2);
    cfg.attention = true;
    let mut model = E2dtc::new(&city.dataset, cfg);
    let _ = model.pretrain(&city.dataset, 1);
    let live = model.embed_dataset(&city.dataset);
    let frozen = model.freeze().embed_dataset(&city.dataset);
    assert_bit_identical(&live, &frozen, "attention config: freeze()");

    let dir = std::env::temp_dir().join(format!("e2dtc_parity_attn_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("model.json");
    model.save(&path).expect("save");
    let loaded = FrozenEncoder::from_checkpoint(&path).expect("from_checkpoint");
    let restored = loaded.embed_dataset(&city.dataset);
    assert_bit_identical(&live, &restored, "attention config: checkpoint");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_roundtrip_preserves_frozen_forward_bitwise() {
    let city = tiny_city(25, 3);
    let mut model = E2dtc::new(&city.dataset, E2dtcConfig::tiny(3));
    let emb = model.embed_dataset(&city.dataset);
    model.init_centroids(&emb);
    let direct = model.freeze();

    let dir = std::env::temp_dir().join("e2dtc_frozen_parity");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("model.json");
    model.save(&path).expect("save");
    let loaded = FrozenEncoder::from_checkpoint(&path).expect("from_checkpoint");

    assert_bit_identical(
        &direct.embed_dataset(&city.dataset),
        &loaded.embed_dataset(&city.dataset),
        "freeze() vs from_checkpoint()",
    );
    let (a, b) = (
        direct.centroids().expect("centroids"),
        loaded.centroids().expect("centroids"),
    );
    assert_bit_identical(a, b, "centroids");

    // And both agree with the assignments of the mutable model.
    let q = model.soft_assignment(&city.dataset);
    assert_bit_identical(&q, &loaded.soft_assign(&emb), "soft assignment");
    std::fs::remove_file(&path).ok();
}

#[test]
fn frozen_result_is_independent_of_batch_size() {
    // Rows are computed batch-wise but must not depend on batch
    // composition: matmul visits k in a fixed order per row and every
    // other op is row-local.
    let city = tiny_city(17, 2);
    let mut cfg1 = E2dtcConfig::tiny(2);
    cfg1.batch_size = 1;
    let mut cfg2 = E2dtcConfig::tiny(2);
    cfg2.batch_size = 17;
    // Same seed → identical weights; only batching differs.
    let m1 = E2dtc::new(&city.dataset, cfg1);
    let m2 = E2dtc::new(&city.dataset, cfg2);
    assert_bit_identical(
        &m1.embed_dataset(&city.dataset),
        &m2.embed_dataset(&city.dataset),
        "batch size 1 vs 17",
    );
}
