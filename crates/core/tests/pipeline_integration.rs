//! Integration tests spanning the whole workspace: synthetic city →
//! Algorithm 2 ground truth → E²DTC / baselines → quality metrics.

use e2dtc::{t2vec_kmeans, E2dtc, E2dtcConfig, LossMode, Phase};
use traj_data::ground_truth::generate_ground_truth;
use traj_data::{GroundTruthConfig, LabeledDataset, SynthSpec};
use traj_cluster::{nmi, uacc};

fn small_city(n: usize, seed: u64) -> LabeledDataset {
    let mut spec = SynthSpec::hangzhou_like(n, seed);
    spec.num_clusters = 4;
    spec.len_range = (30, 60);
    spec.outlier_fraction = 0.0;
    let city = spec.generate();
    let (labelled, _) =
        generate_ground_truth(&city.dataset, &city.pois, GroundTruthConfig::default());
    labelled
}

#[test]
fn full_pipeline_beats_random_assignment() {
    let data = small_city(180, 3);
    let mut cfg = E2dtcConfig::tiny(data.num_clusters);
    // The tiny preset trades accuracy for speed; give this end-to-end
    // check a little more capacity and training than the unit tests use.
    cfg.hidden_dim = 32;
    cfg.pretrain_epochs = 4;
    cfg.skipgram.epochs = 8;
    let mut model = E2dtc::new(&data.dataset, cfg);
    let fit = model.fit(&data.dataset);
    let acc = uacc(&fit.assignments, &data.labels);
    // Random assignment over 4 clusters scores ≈ the largest-cluster share
    // (after Hungarian matching, ≈ 0.3-0.4 here); the trained pipeline must
    // clear that with margin even in the tiny test configuration.
    assert!(acc > 0.5, "pipeline UACC {acc} not better than chance");
}

#[test]
fn pipeline_is_reproducible_under_fixed_seed() {
    let data = small_city(60, 4);
    let run = |seed| {
        let mut model =
            E2dtc::new(&data.dataset, E2dtcConfig::tiny(data.num_clusters).with_seed(seed));
        model.fit(&data.dataset)
    };
    let a = run(11);
    let b = run(11);
    assert_eq!(a.assignments, b.assignments);
    assert_eq!(a.embeddings, b.embeddings);
    let c = run(12);
    assert_ne!(
        a.embeddings, c.embeddings,
        "different seeds should give different embeddings"
    );
}

#[test]
fn self_training_does_not_hurt_a_pretrained_model() {
    // L2 (full E²DTC) vs L0 (t2vec + k-means) under the same seed: the
    // self-training phase should preserve or improve NMI. Allow a small
    // tolerance — tiny test configs are noisy.
    let data = small_city(100, 5);
    let cfg = E2dtcConfig::tiny(data.num_clusters).with_seed(21);
    let l0 = t2vec_kmeans(&data.dataset, cfg.clone());
    let mut full = E2dtc::new(&data.dataset, cfg);
    let l2 = full.fit(&data.dataset);
    let nmi_l0 = nmi(&l0.assignments, &data.labels);
    let nmi_l2 = nmi(&l2.assignments, &data.labels);
    assert!(
        nmi_l2 >= nmi_l0 - 0.1,
        "self-training collapsed quality: L0 {nmi_l0:.3} -> L2 {nmi_l2:.3}"
    );
}

#[test]
fn history_records_both_phases_and_decreasing_recon_loss() {
    let data = small_city(60, 6);
    let mut cfg = E2dtcConfig::tiny(data.num_clusters);
    cfg.pretrain_epochs = 3;
    let mut model = E2dtc::new(&data.dataset, cfg);
    let fit = model.fit(&data.dataset);
    let pre: Vec<f32> = fit
        .history
        .iter()
        .filter(|r| r.phase == Phase::Pretrain)
        .map(|r| r.recon_loss)
        .collect();
    assert_eq!(pre.len(), 3);
    assert!(
        pre.last() < pre.first(),
        "pre-training loss should drop: {pre:?}"
    );
    assert!(fit.history.iter().any(|r| r.phase == Phase::SelfTrain));
}

#[test]
fn embeddings_of_corrupted_trajectories_stay_close() {
    // The t2vec robustness claim: a downsampled/distorted variant embeds
    // near its original — much nearer than to a random other trajectory.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use traj_data::augment::corrupt;
    use traj_data::{Dataset, Trajectory};

    let data = small_city(80, 7);
    let mut model = E2dtc::new(&data.dataset, E2dtcConfig::tiny(data.num_clusters));
    let _ = model.pretrain(&data.dataset, 3);

    let mut rng = StdRng::seed_from_u64(0);
    let mut near = 0usize;
    let total = 20usize;
    for i in 0..total {
        let orig: &Trajectory = &data.dataset.trajectories[i];
        let corrupted = corrupt(orig, 0.4, 0.4, 50.0, &mut rng);
        let other = data.dataset.trajectories[(i + 37) % data.dataset.len()].clone();
        let probe = Dataset::new(
            "probe",
            vec![orig.clone(), corrupted, other],
        );
        let emb = model.embed_dataset(&probe);
        let d_corrupt = emb.row_sq_dist(0, &emb, 1);
        let d_other = emb.row_sq_dist(0, &emb, 2);
        if d_corrupt < d_other {
            near += 1;
        }
    }
    assert!(
        near >= total * 3 / 4,
        "corrupted variant closer than random in only {near}/{total} cases"
    );
}

#[test]
fn loss_mode_ablation_ordering_is_sane() {
    // All three ablation modes must produce valid clusterings; the full
    // loss should not be materially worse than pre-training alone.
    let data = small_city(100, 8);
    let mut scores = Vec::new();
    for mode in [LossMode::L0, LossMode::L1, LossMode::L2] {
        let cfg = E2dtcConfig::tiny(data.num_clusters).with_seed(5).with_loss_mode(mode);
        let mut model = E2dtc::new(&data.dataset, cfg);
        let fit = model.fit(&data.dataset);
        assert!(fit.assignments.iter().all(|&c| c < data.num_clusters));
        scores.push(uacc(&fit.assignments, &data.labels));
    }
    assert!(
        scores[2] >= scores[0] - 0.1,
        "L2 ({}) much worse than L0 ({})",
        scores[2],
        scores[0]
    );
}

#[test]
fn trained_model_transfers_to_unseen_data_from_same_city() {
    let data = small_city(180, 9);
    let mut cfg = E2dtcConfig::tiny(data.num_clusters);
    cfg.pretrain_epochs = 4;
    let mut model = E2dtc::new(&data.dataset, cfg);
    let _ = model.fit(&data.dataset);
    // Fresh draws from the same generative process (different seed).
    // NOTE: the synthetic generator re-places POIs per seed, so "same
    // city" here means same distributional process; transfer therefore
    // uses the same seed's city with fresh trajectory draws.
    let fresh = small_city(60, 9 + 1000);
    let assignments = model.assign(&fresh.dataset);
    let acc = uacc(&assignments, &fresh.labels);
    assert!(
        acc > 0.4,
        "transfer accuracy {acc} barely above chance on unseen data"
    );
}
