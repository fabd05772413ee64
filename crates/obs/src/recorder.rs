//! The [`Recorder`]: a cheap clonable handle that turns instrumentation
//! points into schema events.

use crate::event::{Event, Level};
use crate::sink::{NoopSink, Sink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Inner {
    sink: Arc<dyn Sink>,
    next_span: AtomicU64,
    /// Ids of currently-open spans, innermost last. Spans form one
    /// logical stream per recorder (they are opened and closed on the
    /// thread driving the run; worker threads bump counters instead), so
    /// a single stack is the right model and gives `span_open.parent`
    /// for free. Only touched when the sink is enabled.
    open: Mutex<Vec<u64>>,
}

/// Handle through which components emit telemetry. Cloning shares the
/// sink and the span-id allocator.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.enabled()).finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Recorder {
    /// A recorder feeding `sink`.
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        Self {
            inner: Arc::new(Inner {
                sink,
                next_span: AtomicU64::new(1),
                open: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A recorder that discards everything at the cost of one branch per
    /// instrumentation point.
    pub fn disabled() -> Self {
        Self::new(Arc::new(NoopSink))
    }

    /// Whether events currently reach a sink.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.sink.enabled()
    }

    /// Emits a raw event (no-op when disabled).
    pub fn emit(&self, event: &Event) {
        if self.enabled() {
            self.inner.sink.emit(event);
        }
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        self.inner.sink.flush();
    }

    /// Opens a timed span; the returned guard closes it on drop, which
    /// makes LIFO nesting a structural property of the instrumented code.
    /// When disabled this returns an inert guard without reading the
    /// clock or allocating.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &str) -> Span {
        if !self.enabled() {
            return Span { state: None };
        }
        let id = self.inner.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = {
            let mut open = self.inner.open.lock().expect("span stack poisoned");
            let parent = open.last().copied();
            open.push(id);
            parent
        };
        self.inner.sink.emit(&Event::SpanOpen {
            id,
            parent,
            name: name.to_string(),
            ts_ms: crate::unix_millis(),
        });
        Span {
            state: Some(SpanState {
                recorder: self.clone(),
                id,
                name: name.to_string(),
                start: Instant::now(),
            }),
        }
    }

    /// Emits an informational message.
    pub fn info(&self, text: impl Into<String>) {
        self.emit(&Event::Message { level: Level::Info, text: text.into() });
    }

    /// Emits a warning. Falls back to stderr when no sink is installed:
    /// degradation reports (skipped checkpoints, exhausted rollback
    /// budgets) must never be silently discarded.
    pub fn warn(&self, text: impl Into<String>) {
        let text = text.into();
        if self.enabled() {
            self.emit(&Event::Message { level: Level::Warn, text });
        } else {
            eprintln!("{text}");
        }
    }

    /// Snapshots each counter into the sink (no-op when disabled).
    pub fn counters(&self, counters: &[&crate::Counter]) {
        if !self.enabled() {
            return;
        }
        for c in counters {
            self.inner.sink.emit(&c.snapshot());
        }
    }

    /// Snapshots a histogram under `name` (no-op when disabled).
    pub fn histogram(&self, name: &str, h: &crate::Histogram) {
        if self.enabled() {
            self.inner.sink.emit(&h.snapshot(name));
        }
    }
}

struct SpanState {
    recorder: Recorder,
    id: u64,
    name: String,
    start: Instant,
}

/// RAII guard for an open span (see [`Recorder::span`]).
#[must_use = "the span closes when the guard drops"]
pub struct Span {
    state: Option<SpanState>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(s) = self.state.take() else { return };
        {
            let mut open = s.recorder.inner.open.lock().expect("span stack poisoned");
            // Guard drops are LIFO by construction; `retain` instead of
            // `pop` keeps a stray out-of-order drop (e.g. a span held
            // across an early return while its parent was mem::forgotten)
            // from corrupting unrelated parents.
            open.retain(|&id| id != s.id);
        }
        s.recorder.inner.sink.emit(&Event::SpanClose {
            id: s.id,
            name: s.name,
            wall_ms: s.start.elapsed().as_secs_f64() * 1e3,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_recorder_emits_nothing_and_span_is_inert() {
        let rec = Recorder::disabled();
        let span = rec.span("quiet");
        assert!(span.state.is_none(), "a disabled recorder must not track spans");
        rec.info("ignored");
        rec.counters(&[]);
    }

    #[test]
    fn nested_spans_record_parent_and_close_lifo() {
        let sink = Arc::new(MemorySink::new());
        let rec = Recorder::new(sink.clone());
        {
            let _a = rec.span("outer");
            let _b = rec.span("inner");
        }
        let events = sink.events();
        assert_eq!(events.len(), 4);
        let (outer_id, inner_id) = match (&events[0], &events[1]) {
            (
                Event::SpanOpen { id: a, parent: None, .. },
                Event::SpanOpen { id: b, parent: Some(p), .. },
            ) => {
                assert_eq!(p, a, "inner's parent must be outer");
                (*a, *b)
            }
            other => panic!("unexpected opens: {other:?}"),
        };
        match (&events[2], &events[3]) {
            (Event::SpanClose { id: c1, .. }, Event::SpanClose { id: c2, .. }) => {
                assert_eq!(*c1, inner_id, "inner closes first (LIFO)");
                assert_eq!(*c2, outer_id);
            }
            other => panic!("unexpected closes: {other:?}"),
        }
    }

    #[test]
    fn warn_reaches_sink_when_enabled() {
        let sink = Arc::new(MemorySink::new());
        let rec = Recorder::new(sink.clone());
        rec.warn("trouble");
        assert_eq!(
            sink.events(),
            vec![Event::Message { level: Level::Warn, text: "trouble".into() }]
        );
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let sink = Arc::new(MemorySink::new());
        let rec = Recorder::new(sink.clone());
        {
            let _root = rec.span("root");
            drop(rec.span("first"));
            drop(rec.span("second"));
        }
        let parents: Vec<Option<u64>> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::SpanOpen { parent, .. } => Some(*parent),
                _ => None,
            })
            .collect();
        assert_eq!(parents[0], None);
        assert_eq!(parents[1], parents[2]);
        assert!(parents[1].is_some());
    }
}
