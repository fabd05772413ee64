//! Dataset (de)serialization.
//!
//! The paper releases its labelled datasets for further research; this
//! module provides the equivalent: JSON round-tripping of labelled
//! datasets, plus per-point CSV export/import for external tools (QGIS,
//! pandas, …).
//!
//! Nothing here panics on malformed input: every parse failure surfaces
//! as an [`io::Error`] of kind [`io::ErrorKind::InvalidData`] naming the
//! offending line, so CLI tools and the bench harness can report and
//! continue instead of aborting.

use crate::point::GpsPoint;
use crate::trajectory::{Dataset, LabeledDataset, Trajectory};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Saves a labelled dataset as pretty JSON.
pub fn save_labeled_json(data: &LabeledDataset, path: impl AsRef<Path>) -> io::Result<()> {
    let file = BufWriter::new(File::create(path)?);
    serde_json::to_writer_pretty(file, data).map_err(io::Error::other)
}

/// Loads a labelled dataset from JSON.
///
/// Input that [`import_labeled_csv`] would reject — a non-finite
/// coordinate or time (`null` or an overflowing number), a trajectory
/// with no points, or a label count that differs from the trajectory
/// count — is an [`io::ErrorKind::InvalidData`] error.
pub fn load_labeled_json(path: impl AsRef<Path>) -> io::Result<LabeledDataset> {
    let file = BufReader::new(File::open(path)?);
    let data: LabeledDataset = serde_json::from_reader(file).map_err(io::Error::other)?;
    check_dataset(&data.dataset, &data.labels)?;
    Ok(data)
}

/// The rules [`import_labeled_csv`] enforces or gets by construction,
/// applied to a parsed JSON dataset: every coordinate and time is
/// finite, every trajectory has a point, and `labels` has one entry per
/// trajectory.
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

/// Exports a labelled dataset as flat CSV
/// (`traj_id,label,seq,lat,lon,time`), one row per GPS point.
pub fn export_labeled_csv(data: &LabeledDataset, path: impl AsRef<Path>) -> io::Result<()> {
    let mut file = BufWriter::new(File::create(path)?);
    writeln!(file, "traj_id,label,seq,lat,lon,time")?;
    for (t, &label) in data.dataset.trajectories.iter().zip(&data.labels) {
        for (seq, p) in t.points.iter().enumerate() {
            writeln!(file, "{},{},{},{:.7},{:.7},{:.1}", t.id, label, seq, p.lat, p.lon, p.time)?;
        }
    }
    file.flush()
}

/// Invalid-data error pointing at a 1-based CSV line.
fn bad_line(line_no: usize, line: &str, why: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("CSV line {line_no}: {why} (`{line}`)"),
    )
}

/// Imports a labelled dataset from the flat CSV written by
/// [`export_labeled_csv`] (`traj_id,label,seq,lat,lon,time`, one row per
/// GPS point, consecutive rows per trajectory).
///
/// Malformed input — wrong field count, unparseable numbers, a label
/// that changes mid-trajectory, or a non-consecutive `seq` — returns an
/// [`io::ErrorKind::InvalidData`] error naming the offending line. No
/// input panics.
pub fn import_labeled_csv(path: impl AsRef<Path>) -> io::Result<LabeledDataset> {
    let file = BufReader::new(File::open(path)?);
    let mut lines = file.lines().enumerate();

    let (_, header) = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "CSV file is empty"))?;
    let header = header?;
    if header.trim() != "traj_id,label,seq,lat,lon,time" {
        return Err(bad_line(1, &header, "expected header `traj_id,label,seq,lat,lon,time`"));
    }

    let mut trajectories: Vec<Trajectory> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    // The trajectory currently being accumulated: (id, label, points).
    let mut current: Option<(u64, usize, Vec<GpsPoint>)> = None;

    for (idx, line) in lines {
        let line_no = idx + 1; // enumerate is 0-based, humans are not
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 6 {
            return Err(bad_line(line_no, &line, format!("expected 6 fields, found {}", fields.len())));
        }
        let parse = |what: &str, v: &str| -> io::Result<f64> {
            v.trim()
                .parse::<f64>()
                .map_err(|e| bad_line(line_no, &line, format!("bad {what} `{v}`: {e}")))
        };
        let traj_id: u64 = fields[0]
            .trim()
            .parse()
            .map_err(|e| bad_line(line_no, &line, format!("bad traj_id `{}`: {e}", fields[0])))?;
        let label: usize = fields[1]
            .trim()
            .parse()
            .map_err(|e| bad_line(line_no, &line, format!("bad label `{}`: {e}", fields[1])))?;
        let seq: usize = fields[2]
            .trim()
            .parse()
            .map_err(|e| bad_line(line_no, &line, format!("bad seq `{}`: {e}", fields[2])))?;
        let lat = parse("lat", fields[3])?;
        let lon = parse("lon", fields[4])?;
        let time = parse("time", fields[5])?;
        if !lat.is_finite() || !lon.is_finite() || !time.is_finite() {
            return Err(bad_line(line_no, &line, "non-finite coordinate"));
        }

        let same_trajectory = current.as_ref().is_some_and(|(id, _, _)| *id == traj_id);
        if !same_trajectory {
            if let Some((id, lbl, points)) = current.take() {
                trajectories.push(Trajectory::new(id, points));
                labels.push(lbl);
            }
            if seq != 0 {
                return Err(bad_line(line_no, &line, format!("trajectory {traj_id} starts at seq {seq}, expected 0")));
            }
            current = Some((traj_id, label, Vec::new()));
        }
        let (_, lbl, points) = current.as_mut().expect("set above");
        if *lbl != label {
            return Err(bad_line(line_no, &line, format!("label changes mid-trajectory ({lbl} → {label})")));
        }
        if seq != points.len() {
            return Err(bad_line(line_no, &line, format!("expected seq {}, found {seq}", points.len())));
        }
        points.push(GpsPoint::new(lat, lon, time));
    }
    if let Some((id, lbl, points)) = current.take() {
        trajectories.push(Trajectory::new(id, points));
        labels.push(lbl);
    }
    if trajectories.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "CSV holds no data rows"));
    }

    let num_clusters = labels.iter().max().map_or(0, |&m| m + 1);
    Ok(LabeledDataset {
        dataset: Dataset::new("csv-import", trajectories),
        labels,
        num_clusters,
    })
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
    fn csv_export_has_header_and_rows() {
        let dir = std::env::temp_dir().join("traj_data_io_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("export.csv");
        export_labeled_csv(&sample(), &path).expect("export");
        let text = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "traj_id,label,seq,lat,lon,time");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("7,2,0,"));
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
        csv_path(name, &edited)
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

    fn csv_path(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("traj_data_io_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(name);
        std::fs::write(&path, contents).expect("write");
        path
    }

    #[test]
    fn csv_roundtrip_preserves_everything() {
        let data = sample();
        let path = csv_path("roundtrip.csv", "");
        export_labeled_csv(&data, &path).expect("export");
        let back = import_labeled_csv(&path).expect("import");
        assert_eq!(back.labels, data.labels);
        assert_eq!(back.num_clusters, 3);
        assert_eq!(back.dataset.len(), 1);
        let (orig, imported) = (&data.dataset.trajectories[0], &back.dataset.trajectories[0]);
        assert_eq!(orig.id, imported.id);
        assert_eq!(orig.points.len(), imported.points.len());
        for (a, b) in orig.points.iter().zip(&imported.points) {
            assert!((a.lat - b.lat).abs() < 1e-7);
            assert!((a.lon - b.lon).abs() < 1e-7);
            assert!((a.time - b.time).abs() < 0.1);
        }
    }

    #[test]
    fn csv_import_rejects_bad_header() {
        let path = csv_path("badheader.csv", "id,cluster\n1,2\n");
        let err = import_labeled_csv(&path).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"), "err: {err}");
    }

    #[test]
    fn csv_import_names_line_with_wrong_field_count() {
        let path = csv_path(
            "fields.csv",
            "traj_id,label,seq,lat,lon,time\n7,2,0,30.0,120.0,0.0\n7,2,1,30.1\n",
        );
        let err = import_labeled_csv(&path).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("line 3") && msg.contains("found 4"), "err: {msg}");
    }

    #[test]
    fn csv_import_names_line_with_unparseable_number() {
        let path = csv_path(
            "nan.csv",
            "traj_id,label,seq,lat,lon,time\n7,2,0,not-a-lat,120.0,0.0\n",
        );
        let err = import_labeled_csv(&path).expect_err("must fail");
        let msg = err.to_string();
        assert!(msg.contains("line 2") && msg.contains("bad lat"), "err: {msg}");
    }

    #[test]
    fn csv_import_rejects_mid_trajectory_label_change() {
        let path = csv_path(
            "labelflip.csv",
            "traj_id,label,seq,lat,lon,time\n7,2,0,30.0,120.0,0.0\n7,1,1,30.1,120.1,5.0\n",
        );
        let err = import_labeled_csv(&path).expect_err("must fail");
        let msg = err.to_string();
        assert!(msg.contains("line 3") && msg.contains("label changes"), "err: {msg}");
    }

    #[test]
    fn csv_import_rejects_seq_gap() {
        let path = csv_path(
            "seqgap.csv",
            "traj_id,label,seq,lat,lon,time\n7,2,0,30.0,120.0,0.0\n7,2,3,30.1,120.1,5.0\n",
        );
        let err = import_labeled_csv(&path).expect_err("must fail");
        let msg = err.to_string();
        assert!(msg.contains("line 3") && msg.contains("expected seq 1"), "err: {msg}");
    }

    #[test]
    fn csv_import_rejects_empty_file() {
        let path = csv_path("empty.csv", "");
        assert_eq!(
            import_labeled_csv(&path).expect_err("must fail").kind(),
            io::ErrorKind::InvalidData
        );
    }
}
