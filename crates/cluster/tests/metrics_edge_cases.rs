//! Degenerate-input guards for the quality metrics: empty predicted
//! clusters, singleton clusters, non-contiguous label ids. None of these
//! may panic, and every score must stay inside its documented range —
//! self-training can produce all of them transiently (a cluster drained
//! by churn, a lone outlier trajectory) and the metrics run inside the
//! training loop's stop rule.

use traj_cluster::{nmi, rand_index, silhouette, uacc};

#[test]
fn silhouette_tolerates_an_empty_predicted_cluster() {
    // Cluster id 1 exists in the id space but owns no points (a cluster
    // drained mid-self-training). Mean-distance denominators must skip it.
    let pts = [0.0f32, 0.1, 10.0, 10.1];
    let labels = [0usize, 0, 2, 2];
    let s = silhouette(&pts, 4, 1, &labels);
    assert!(s.is_finite());
    assert!(s > 0.9, "two tight far-apart blobs should still score near 1, got {s}");
}

#[test]
fn silhouette_is_sized_by_distinct_labels_not_the_largest_id() {
    // Only the partition counts: a label of usize::MAX must not overflow
    // a `max + 1` table size, and 1_000_000_000 must not allocate a
    // billion-slot table per point.
    let pts = [0.0f32, 0.1, 10.0, 10.1];
    let expected = silhouette(&pts, 4, 1, &[0, 0, 1, 1]);
    for big in [1_000_000_000usize, usize::MAX] {
        assert_eq!(silhouette(&pts, 4, 1, &[0, 0, big, big]), expected, "id {big}");
        assert_eq!(silhouette(&pts, 4, 1, &[big, big, 0, 0]), expected, "id {big} first");
    }
}

#[test]
fn silhouette_of_all_singleton_clusters_is_zero() {
    let pts = [0.0f32, 1.0, 2.0, 3.0];
    let labels = [0usize, 1, 2, 3];
    assert_eq!(silhouette(&pts, 4, 1, &labels), 0.0);
}

#[test]
fn silhouette_of_a_single_cluster_is_zero() {
    // No "other" cluster exists, so b is undefined for every point; the
    // scikit-learn convention scores the whole labelling 0.
    let pts = [0.0f32, 0.5, 1.0];
    let labels = [0usize, 0, 0];
    assert_eq!(silhouette(&pts, 3, 1, &labels), 0.0);
}

#[test]
fn silhouette_mixes_singletons_with_real_clusters() {
    // Point 4 is a singleton (contributes 0); the two blobs still count.
    let pts = [0.0f32, 0.1, 10.0, 10.1, 100.0];
    let labels = [0usize, 0, 1, 1, 2];
    let s = silhouette(&pts, 5, 1, &labels);
    assert!(s.is_finite());
    assert!(s > 0.0, "real blobs must dominate the singleton's zero, got {s}");
}

#[test]
fn uacc_and_nmi_tolerate_all_singleton_predictions() {
    // Every trajectory its own cluster — the maximally fragmented
    // prediction a collapsing run can emit.
    let pred = [0usize, 1, 2, 3];
    let truth = [0usize, 0, 1, 1];
    let u = uacc(&pred, &truth);
    let m = nmi(&pred, &truth);
    let r = rand_index(&pred, &truth);
    // Hungarian matching keeps one member per true cluster.
    assert!((u - 0.5).abs() < 1e-12, "got {u}");
    assert!((0.0..=1.0).contains(&m), "NMI out of range: {m}");
    assert!((0.0..=1.0).contains(&r), "RI out of range: {r}");
}

#[test]
fn uacc_and_nmi_of_identical_singleton_labelings_are_perfect() {
    let labels = [0usize, 1, 2, 3];
    assert_eq!(uacc(&labels, &labels), 1.0);
    assert!((nmi(&labels, &labels) - 1.0).abs() < 1e-12);
    assert_eq!(rand_index(&labels, &labels), 1.0);
}

#[test]
fn metrics_tolerate_non_contiguous_cluster_ids() {
    // Ids with gaps: the contingency table is built over dense ids, so its
    // size follows the number of distinct labels, not the largest id, and
    // huge ids neither allocate a huge table nor slow the metrics down.
    for big in [5usize, 1_000_000_000, usize::MAX] {
        let pred = [0usize, big, big, 0];
        let truth = [0usize, 1, 1, 0];
        assert_eq!(uacc(&pred, &truth), 1.0, "pred id {big}");
        assert!((nmi(&pred, &truth) - 1.0).abs() < 1e-12, "pred id {big}");
        assert_eq!(rand_index(&pred, &truth), 1.0, "pred id {big}");
        // The same holds with the huge id on the ground-truth side.
        assert_eq!(uacc(&truth, &pred), 1.0, "truth id {big}");
        assert!((nmi(&truth, &pred) - 1.0).abs() < 1e-12, "truth id {big}");
        assert_eq!(rand_index(&truth, &pred), 1.0, "truth id {big}");
    }
}

#[test]
fn single_point_dataset_is_trivially_perfect() {
    assert_eq!(uacc(&[3], &[0]), 1.0);
    assert!((0.0..=1.0).contains(&nmi(&[3], &[0])));
    assert_eq!(rand_index(&[3], &[0]), 1.0);
    assert_eq!(silhouette(&[1.0f32, 2.0], 1, 2, &[0]), 0.0);
}
