//! Hostile files fed to [`load_labeled_json`]: truncated, bit-flipped,
//! random and deeply nested input must come back as `Err`, never as a
//! panic. A flip that still parses must yield a dataset that meets every
//! rule the loader checks.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use traj_data::io::{load_labeled_json, save_labeled_json};
use traj_data::{Dataset, GpsPoint, LabeledDataset, Trajectory};

/// A scratch file private to one test, removed when dropped.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("traj_data_hostile_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        Self(dir.join(format!("{tag}.json")))
    }

    fn load(&self, bytes: &[u8]) -> std::io::Result<LabeledDataset> {
        std::fs::write(&self.0, bytes).expect("write");
        load_labeled_json(&self.0)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
        // Succeeds only once the last test's file is gone.
        std::fs::remove_dir(self.0.parent().expect("in a directory")).ok();
    }
}

/// The bytes `save_labeled_json` writes for a three-trajectory dataset.
fn saved_bytes(file: &TempFile) -> Vec<u8> {
    let trajectories = (0..3u64)
        .map(|id| {
            let points = (0..4)
                .map(|k| GpsPoint::new(30.0 + 1e-3 * k as f64, 120.0 - 0.5 * id as f64, k as f64))
                .collect();
            Trajectory::new(id, points)
        })
        .collect();
    let data = LabeledDataset {
        dataset: Dataset::new("hostile", trajectories),
        labels: vec![0, 1, 2],
        num_clusters: 3,
    };
    save_labeled_json(&data, &file.0).expect("save");
    let bytes = std::fs::read(&file.0).expect("read");
    assert!(file.load(&bytes).is_ok(), "the saved file loads");
    bytes
}

#[test]
fn every_truncation_is_an_error() {
    let file = TempFile::new("truncated");
    let bytes = saved_bytes(&file);
    let end = bytes.iter().rposition(|b| !b.is_ascii_whitespace()).expect("non-empty") + 1;
    for cut in 0..end {
        assert!(file.load(&bytes[..cut]).is_err(), "prefix of {cut} bytes loaded");
    }
}

#[test]
fn deep_nesting_is_an_error() {
    let file = TempFile::new("deep");
    for depth in [129usize, 100_000] {
        let arrays = "[".repeat(depth) + &"]".repeat(depth);
        assert!(file.load(arrays.as_bytes()).is_err(), "{depth} arrays");
        let inside = format!(
            "{{\"dataset\":{{\"name\":\"d\",\"trajectories\":{}}},\"labels\":[],\"num_clusters\":1}}",
            "[".repeat(depth) + &"]".repeat(depth)
        );
        assert!(file.load(inside.as_bytes()).is_err(), "{depth} arrays inside a field");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bit_flips_never_panic(seed in 0u64..u64::MAX, flips in 1usize..4) {
        let file = TempFile::new(&format!("flip_{seed}"));
        let mut bytes = saved_bytes(&file);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..flips {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8);
        }
        if let Ok(data) = file.load(&bytes) {
            // A flip inside a number can leave a valid file; it must still
            // meet the loader's rules.
            prop_assert_eq!(data.labels.len(), data.dataset.trajectories.len());
            for t in &data.dataset.trajectories {
                prop_assert!(!t.points.is_empty());
                for p in &t.points {
                    prop_assert!(p.lat.is_finite() && p.lon.is_finite() && p.time.is_finite());
                }
            }
        }
    }

    #[test]
    fn random_bytes_are_an_error(seed in 0u64..u64::MAX, len in 0usize..300) {
        let file = TempFile::new(&format!("random_{seed}"));
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        prop_assert!(file.load(&bytes).is_err());
    }
}
