//! # traj-obs — structured telemetry for training and benchmarking
//!
//! E²DTC's behaviour is driven by a three-part joint loss whose per-phase
//! dynamics decide whether self-training converges or silently collapses
//! clusters. This crate is the observability layer that makes those
//! dynamics inspectable without rerunning: timed **spans**, monotone
//! **counters**, mergeable **histograms**, and a JSONL **run log** with a
//! documented event schema (see [`event::Event`] and DESIGN.md §11).
//!
//! ## Architecture
//!
//! Everything funnels through a [`Sink`]:
//!
//! - [`sink::NoopSink`] — the default. [`Recorder::span`] and every other
//!   instrumentation point early-return before taking a timestamp or
//!   allocating, so instrumented code paths cost one branch
//!   (`tests/overhead.rs` pins this to < 2% on a micro training loop).
//! - [`sink::JsonlSink`] — one JSON object per line in the [`event::Event`]
//!   schema; [`schema::parse_jsonl`] parses and validates a finished log.
//! - [`sink::MemorySink`] — captures events in memory for tests.
//!
//! A [`Recorder`] is a cheap clonable handle around a sink that allocates
//! span ids and tracks span nesting. Library code that cannot thread a
//! handle through its API (kernel counters, `DistanceMatrix::compute`)
//! uses the process-wide [`global`] recorder, which defaults to no-op and
//! is installed once by the CLI / bench harness via [`set_global`].
//!
//! ```
//! use traj_obs::{Recorder, sink::MemorySink};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let rec = Recorder::new(sink.clone());
//! {
//!     let _outer = rec.span("epoch");
//!     let _inner = rec.span("batch");
//! } // guards close in LIFO order
//! assert_eq!(sink.events().len(), 4); // two opens + two closes
//! ```

#![warn(missing_docs)]

pub mod counter;
pub mod event;
pub mod hist;
pub mod recorder;
pub mod schema;
pub mod sink;

pub use counter::Counter;
pub use event::{Event, Level};
pub use hist::Histogram;
pub use recorder::{Recorder, Span};
pub use sink::{JsonlSink, MemorySink, NoopSink, Sink};

use std::sync::{Arc, OnceLock, RwLock};

fn global_cell() -> &'static RwLock<Recorder> {
    static CELL: OnceLock<RwLock<Recorder>> = OnceLock::new();
    CELL.get_or_init(|| RwLock::new(Recorder::disabled()))
}

/// The process-wide recorder (no-op until [`set_global`] installs a real
/// sink). Instrumentation that cannot be handed a [`Recorder`] explicitly
/// clones this.
pub fn global() -> Recorder {
    global_cell().read().expect("telemetry lock poisoned").clone()
}

/// Installs the process-wide recorder. Typically called once by a binary's
/// `main` after parsing `--log-json`; later [`global`] clones observe the
/// new sink, but components that captured the previous recorder (e.g. a
/// model built earlier) keep it.
pub fn set_global(rec: Recorder) {
    *global_cell().write().expect("telemetry lock poisoned") = rec;
}

/// Milliseconds since the Unix epoch (the `ts_ms` of emitted events).
pub fn unix_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Best-effort `git describe --always --dirty` of the working tree, for
/// run headers; `"unknown"` when git or the repository is unavailable.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Convenience constructor: a recorder writing JSONL to `path`.
pub fn jsonl_recorder(path: &str) -> std::io::Result<Recorder> {
    Ok(Recorder::new(Arc::new(JsonlSink::create(path)?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_recorder_is_usable_without_installation() {
        // Other tests in this process may have installed a sink, so only
        // exercise the path: cloning and spanning must never panic.
        let rec = global();
        let span = rec.span("noop");
        drop(span);
        rec.flush();
    }

    #[test]
    fn git_describe_never_panics() {
        let d = git_describe();
        assert!(!d.is_empty());
    }

    #[test]
    fn unix_millis_is_sane() {
        // After 2020, before 2100.
        let ms = unix_millis();
        assert!(ms > 1_577_836_800_000 && ms < 4_102_444_800_000);
    }
}
