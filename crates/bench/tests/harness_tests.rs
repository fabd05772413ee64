//! Tests for the experiment-harness plumbing.

use e2dtc_bench::datasets::{labelled_dataset, DatasetKind};
use e2dtc_bench::methods::{run_kmedoids, Scores};
use e2dtc_bench::report::{fmt3, fmt_secs, Table};
use e2dtc_bench::RunArgs;
use traj_dist::Metric;

#[test]
fn table_renders_aligned_columns() {
    let mut t = Table::new(&["A", "Method", "Score"]);
    t.row(vec!["x".into(), "longer-name".into(), "0.123".into()]);
    t.row(vec!["yy".into(), "m".into(), "1.000".into()]);
    let text = t.render();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "header + rule + 2 rows");
    assert!(lines[0].starts_with("A "));
    assert!(lines[1].chars().all(|c| c == '-'));
    // All rows have the method column starting at the same offset.
    let off0 = lines[2].find("longer-name").expect("cell present");
    let off1 = lines[3].find('m').expect("cell present");
    assert_eq!(off0, off1);
}

#[test]
#[should_panic(expected = "row width mismatch")]
fn table_rejects_ragged_rows() {
    let mut t = Table::new(&["A", "B"]);
    t.row(vec!["only-one".into()]);
}

#[test]
fn formatters() {
    assert_eq!(fmt3(0.12345), "0.123");
    assert_eq!(fmt_secs(0.0123), "12 ms");
    assert_eq!(fmt_secs(3.21), "3.21 s");
    assert_eq!(fmt_secs(250.0), "250 s");
}

fn parse(args: &[&str]) -> Result<RunArgs, String> {
    RunArgs::parse_from(args.iter().map(|a| a.to_string()))
}

#[test]
fn run_args_default_to_seed_7_at_small_scale() {
    let run = parse(&[]).expect("no flags parse");
    assert_eq!((run.paper, run.n_override, run.seed), (false, None, 7));
    let run = parse(&["--scale", "paper", "--n", "120", "--seed", "3"]).expect("valid flags parse");
    assert_eq!((run.paper, run.n_override, run.seed), (true, Some(120), 3));
}

#[test]
fn run_args_reject_unknown_flags_and_bad_or_missing_values() {
    for (args, want) in [
        (&["--bogus"][..], "unknown flag --bogus"),
        (&["--n", "abc"], "bad value for --n"),
        (&["--n", "0"], "bad value for --n"),
        (&["--seed", "3", "--seed"], "--seed needs a value"),
        (&["--scale", "huge"], "bad value for --scale"),
    ] {
        let err = parse(args).expect_err("must be rejected");
        assert!(err.contains(want), "{args:?}: {err}");
    }
}

#[test]
fn dataset_kinds_have_paper_cluster_counts() {
    assert_eq!(DatasetKind::GeoLife.k(), 12);
    assert_eq!(DatasetKind::Porto.k(), 15);
    assert_eq!(DatasetKind::Hangzhou.k(), 7);
    let names: Vec<&str> = DatasetKind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(names, vec!["GeoLife", "Porto", "Hangzhou"]);
}

#[test]
fn labelled_dataset_is_reproducible_and_labelled() {
    let a = labelled_dataset(DatasetKind::Hangzhou, 60, 3);
    let b = labelled_dataset(DatasetKind::Hangzhou, 60, 3);
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.num_clusters, 7);
    assert!(a.len() > 30, "most trajectories should be labelled");
    assert!(a.labels.iter().all(|&l| l < 7));
}

#[test]
fn kmedoids_runner_scores_and_times() {
    let data = labelled_dataset(DatasetKind::Hangzhou, 50, 5);
    let r = run_kmedoids(&data, Metric::Hausdorff, 2);
    assert_eq!(r.name, "Hausdorff + KM");
    assert_eq!(r.assignments.len(), data.len());
    assert!(r.seconds > 0.0);
    let s: Scores = r.scores;
    for v in [s.uacc, s.nmi, s.ri] {
        assert!((0.0..=1.0).contains(&v));
    }
}
