//! Traced mode: the libraries' own `traj-obs` telemetry, captured in
//! memory and read back into per-layer numbers.
//!
//! A [`MemorySink`] recorder becomes the process-wide recorder before any
//! model is built, so every span, histogram, epoch record and counter
//! snapshot the libraries emit lands in memory. Each traced unit of work
//! is bracketed by snapshots of every counter the ledger reads, and its
//! events are drained and summarized. Untraced units run against the
//! no-op recorder; comparing the two gives the tracing overhead. The
//! whole trace stays in memory and is written out as a JSONL run log at
//! the end.

use crate::report::LayerMeans;
use std::path::Path;
use std::sync::Arc;
use traj_obs::hist::{Histogram, MIN_EXP};
use traj_obs::{Counter, Event, MemorySink, Recorder};

/// Every counter the ledger reads.
fn counters() -> Vec<&'static Counter> {
    let mut all = traj_nn::telemetry::counters().to_vec();
    all.extend(traj_query::counters());
    all.extend(traj_dist::telemetry::counters());
    all
}

/// The in-memory recorder and the trace collected so far.
pub struct Tracer {
    sink: Arc<MemorySink>,
    recorder: Recorder,
    log: Vec<Event>,
}

impl Tracer {
    /// Makes a memory-backed recorder the global one and opens the run
    /// log with its header.
    pub fn install(name: &str, seed: u64) -> Self {
        let sink = Arc::new(MemorySink::new());
        let recorder = Recorder::new(sink.clone());
        recorder.emit(&Event::RunHeader {
            schema: traj_obs::event::SCHEMA_VERSION,
            ts_ms: traj_obs::unix_millis(),
            name: name.to_string(),
            seed,
            git: "unknown".to_string(),
            config: serde::Value::Object(Vec::new()),
        });
        traj_obs::set_global(recorder.clone());
        Self {
            sink,
            recorder,
            log: Vec::new(),
        }
    }

    /// Starts a unit of work: a traced unit records into the trace, an
    /// untraced one into the no-op recorder. Models capture the global
    /// recorder when built, so this must come before building them.
    pub fn begin(&mut self, traced: bool) {
        self.log.append(&mut self.sink.drain());
        if traced {
            traj_obs::set_global(self.recorder.clone());
            self.recorder.counters(&counters());
        } else {
            traj_obs::set_global(Recorder::disabled());
        }
    }

    /// Ends a traced unit and returns its events.
    pub fn end(&mut self) -> Trace {
        self.recorder.counters(&counters());
        let events = self.sink.drain();
        self.log.extend(events.iter().cloned());
        Trace { events }
    }

    /// Writes the whole trace as a JSONL run log, which validates with
    /// `traj_obs::schema::parse_jsonl`.
    pub fn write_jsonl(&mut self, path: &Path, wall_ms: f64) -> Result<(), String> {
        self.log.append(&mut self.sink.drain());
        self.log.push(Event::RunEnd {
            status: "ok".to_string(),
            wall_ms,
        });
        let mut text = String::new();
        for event in &self.log {
            text.push_str(&serde_json::to_string(event).map_err(|e| e.to_string())?);
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// The events of one traced unit.
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// Summed wall time of the closed spans named `name`, ms.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::SpanClose {
                    name: n, wall_ms, ..
                } if n == name => Some(*wall_ms),
                _ => None,
            })
            .sum()
    }

    /// Growth of counter `name` over the unit: last snapshot minus first.
    pub fn counter(&self, name: &str) -> f64 {
        let values: Vec<u64> = self
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Counter { name: n, value } if n == name => Some(*value),
                _ => None,
            })
            .collect();
        match (values.first(), values.last()) {
            (Some(first), Some(last)) => (last - first) as f64,
            _ => 0.0,
        }
    }

    /// Every snapshot of histogram `name`, merged.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut merged = Histogram::new();
        for e in &self.events {
            if let Event::Histogram {
                name: n,
                count,
                sum,
                min,
                max,
                buckets,
            } = e
            {
                if n == name {
                    if let Some(h) = Histogram::from_event_parts(*count, *sum, *min, *max, buckets)
                    {
                        merged.merge(&h);
                    }
                }
            }
        }
        merged
    }

    /// The per-layer counts every workload reports, from counter deltas.
    /// `nn_ms` is the wall time the `traj-nn` work ran inside, for the
    /// achieved rate.
    pub fn add_counters(&self, layers: &mut LayerMeans, nn_ms: f64) {
        let gflop = self.counter("nn.matmul_flops") / 1e9;
        layers.add("nn.matmul_calls", self.counter("nn.matmul_calls"));
        layers.add("nn.matmul_gflop", gflop);
        layers.add(
            "nn.matmul_gflop_per_s",
            if nn_ms > 0.0 {
                gflop / (nn_ms / 1e3)
            } else {
                0.0
            },
        );
        layers.add("nn.gru_cell_steps", self.counter("nn.gru_cell_steps"));
        layers.add("nn.adam_steps", self.counter("nn.adam_steps"));
        layers.add("query.trajs", self.counter("query.trajs"));
        layers.add("query.batches", self.counter("query.batches"));
        layers.add("dist.pairs", self.counter("dist.pairs"));
    }
}

/// Quantile `q` of a log₂ histogram: located in the bucket holding that
/// rank, interpolated geometrically inside it and clamped to the observed
/// range, so it is exact to within the bucket's factor of two. 0 when
/// empty.
pub fn hist_quantile(h: &Histogram, q: f64) -> f64 {
    if h.count() == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * h.count() as f64;
    let mut below = 0.0;
    for (i, &count) in h.buckets().iter().enumerate() {
        let count = count as f64;
        if count > 0.0 && below + count >= rank {
            let upper = 2f64.powi(i as i32 + MIN_EXP);
            let value = upper / 2.0 * 2f64.powf((rank - below) / count);
            return value.clamp(h.min(), h.max());
        }
        below += count;
    }
    h.max()
}
