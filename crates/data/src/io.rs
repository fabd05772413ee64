//! Dataset (de)serialization.
//!
//! The paper releases its labelled datasets for further research; this
//! module provides the equivalent: JSON round-tripping of labelled
//! datasets.
//!
//! Nothing here panics on malformed input: every parse or validation
//! failure surfaces as an [`io::Error`] (of kind
//! [`io::ErrorKind::InvalidData`] for data that parses but breaks a
//! dataset rule), so CLI tools and the bench harness can report and
//! continue instead of aborting.

use crate::trajectory::{Dataset, LabeledDataset};
use std::fs::File;
use std::io::{self, BufReader, BufWriter};
use std::path::Path;

/// Saves a labelled dataset as pretty JSON.
pub fn save_labeled_json(data: &LabeledDataset, path: impl AsRef<Path>) -> io::Result<()> {
    let file = BufWriter::new(File::create(path)?);
    serde_json::to_writer_pretty(file, data).map_err(io::Error::other)
}

/// Loads a labelled dataset from JSON.
///
/// A non-finite coordinate or time (`null` or an overflowing number), a
/// trajectory with no points, or a label count that differs from the
/// trajectory count is an [`io::ErrorKind::InvalidData`] error.
pub fn load_labeled_json(path: impl AsRef<Path>) -> io::Result<LabeledDataset> {
    let file = BufReader::new(File::open(path)?);
    let data: LabeledDataset = serde_json::from_reader(file).map_err(io::Error::other)?;
    check_dataset(&data.dataset, &data.labels)?;
    Ok(data)
}

/// The rules a parsed JSON dataset must meet: every coordinate and time
/// is finite, every trajectory has a point, and `labels` has one entry
/// per trajectory.
fn check_dataset(data: &Dataset, labels: &[usize]) -> io::Result<()> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    for t in &data.trajectories {
        if t.points.is_empty() {
            return Err(invalid(format!("trajectory {} has no points", t.id)));
        }
        for (i, p) in t.points.iter().enumerate() {
            if !(p.lat.is_finite() && p.lon.is_finite() && p.time.is_finite()) {
                return Err(invalid(format!(
                    "trajectory {} point {i}: non-finite coordinate or time",
                    t.id
                )));
            }
        }
    }
    if labels.len() != data.trajectories.len() {
        return Err(invalid(format!(
            "{} labels for {} trajectories",
            labels.len(),
            data.trajectories.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::GpsPoint;
    use crate::trajectory::Trajectory;

    fn sample() -> LabeledDataset {
        let t = Trajectory::new(
            7,
            vec![GpsPoint::new(30.123, 120.456, 0.0), GpsPoint::new(30.124, 120.457, 5.0)],
        );
        LabeledDataset {
            dataset: Dataset::new("sample", vec![t]),
            labels: vec![2],
            num_clusters: 3,
        }
    }

    #[test]
    fn labeled_json_roundtrip() {
        let dir = std::env::temp_dir().join("traj_data_io_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("labeled.json");
        let data = sample();
        save_labeled_json(&data, &path).expect("save");
        let back = load_labeled_json(&path).expect("load");
        assert_eq!(back.labels, data.labels);
        assert_eq!(back.dataset.trajectories, data.dataset.trajectories);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_labeled_json("/nonexistent/nope.json").is_err());
    }

    #[test]
    fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
        let dir = std::env::temp_dir().join("traj_data_io_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("deep.json");
        std::fs::write(&path, "[".repeat(200_000) + &"]".repeat(200_000)).expect("write");
        assert!(load_labeled_json(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    /// `value` as pretty JSON, after `edit` rewrites the text.
    fn edited_json(
        name: &str,
        value: &impl serde::Serialize,
        edit: impl Fn(&str) -> String,
    ) -> std::path::PathBuf {
        let text = serde_json::to_string_pretty(value).expect("serialize");
        let edited = edit(&text);
        assert_ne!(edited, text, "edit must change the file");
        temp_file(name, &edited)
    }

    /// Replaces the JSON array after `"key": ` with `[]`.
    fn empty_array(text: &str, key: &str) -> String {
        let start = text.find(&format!("\"{key}\": [")).expect("key");
        let end = start + text[start..].find(']').expect("end of array");
        format!("{}\"{key}\": []{}", &text[..start], &text[end + 1..])
    }

    fn assert_invalid(err: io::Error, needles: &[&str]) {
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "err: {err}");
        let msg = err.to_string();
        for needle in needles {
            assert!(msg.contains(needle), "{needle:?} missing from: {msg}");
        }
    }

    #[test]
    fn json_load_rejects_non_finite_values() {
        // The serde shim reads `null` as NaN and an overflowing number as ∞.
        for (name, from, to) in [
            ("null_lat", "\"lat\": 30.124", "\"lat\": null"),
            ("overflow", "\"time\": 5.0", "\"time\": 1e400"),
        ] {
            let edit = |t: &str| t.replacen(from, to, 1);
            let path = edited_json(&format!("{name}.json"), &sample(), edit);
            assert_invalid(load_labeled_json(&path).expect_err(name), &["trajectory 7", "point 1"]);
        }
    }

    #[test]
    fn json_load_rejects_empty_trajectory() {
        let path = edited_json("no_points.json", &sample(), |t| empty_array(t, "points"));
        let err = load_labeled_json(&path).expect_err("must fail");
        assert_invalid(err, &["trajectory 7", "no points"]);
    }

    #[test]
    fn json_load_rejects_label_count_mismatch() {
        let path = edited_json("labels.json", &sample(), |t| empty_array(t, "labels"));
        let err = load_labeled_json(&path).expect_err("must fail");
        assert_invalid(err, &["0 labels for 1 trajectories"]);
    }

    fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("traj_data_io_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(name);
        std::fs::write(&path, contents).expect("write");
        path
    }
}
