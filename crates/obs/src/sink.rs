//! Pluggable telemetry sinks.

use crate::event::Event;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Receives telemetry events. Implementations must be thread-safe: a
/// single sink may be shared by every component of a run.
pub trait Sink: Send + Sync {
    /// False when events would be discarded — instrumentation checks this
    /// first and skips timestamping/allocation entirely, which is what
    /// keeps the no-op configuration off the hot path.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn emit(&self, event: &Event);

    /// Flushes any buffered output (a no-op for unbuffered sinks).
    fn flush(&self) {}
}

/// Discards everything; the default sink. [`Sink::enabled`] returns
/// false so instrumented code pays one branch and nothing else.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&self, _event: &Event) {}
}

/// Appends one JSON object per event to a file — the machine-readable run
/// log (`--log-json`). Lines follow the [`crate::event`] schema and a
/// finished file parses with [`crate::schema::parse_jsonl`].
///
/// Writes are buffered and serialized behind a mutex; a serialization or
/// IO failure downgrades to a stderr warning rather than killing the run
/// being observed.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncates) the log file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self { writer: Mutex::new(BufWriter::new(file)) })
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: &Event) {
        let line = match serde_json::to_string(event) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("traj-obs: dropping unserializable event: {e}");
                return;
            }
        };
        let mut w = self.writer.lock().expect("jsonl sink lock poisoned");
        if let Err(e) = w.write_all(line.as_bytes()).and_then(|()| w.write_all(b"\n")) {
            eprintln!("traj-obs: run-log write failed: {e}");
        }
    }

    fn flush(&self) {
        let mut w = self.writer.lock().expect("jsonl sink lock poisoned");
        if let Err(e) = w.flush() {
            eprintln!("traj-obs: run-log flush failed: {e}");
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Collects events in memory; the assertion surface for tests.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of everything emitted so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink lock poisoned").clone()
    }

    /// Removes and returns everything emitted so far.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("memory sink lock poisoned"))
    }
}

impl Sink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events.lock().expect("memory sink lock poisoned").push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled() {
        assert!(!NoopSink.enabled());
        NoopSink.emit(&Event::Counter { name: "x".into(), value: 1 }); // must not panic
    }

    #[test]
    fn memory_sink_captures_in_order() {
        let sink = MemorySink::new();
        for v in 0..3 {
            sink.emit(&Event::Counter { name: "c".into(), value: v });
        }
        let events = sink.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2], Event::Counter { name: "c".into(), value: 2 });
        assert!(sink.events().is_empty());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join("traj_obs_sink_test.jsonl");
        {
            let sink = JsonlSink::create(&path).expect("create");
            sink.emit(&Event::Counter { name: "a".into(), value: 1 });
            sink.emit(&Event::Counter { name: "a".into(), value: 2 });
        } // drop flushes
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let _: Event = serde_json::from_str(line).expect("line parses");
        }
        let _ = std::fs::remove_file(&path);
    }
}
