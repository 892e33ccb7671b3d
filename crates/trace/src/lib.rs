//! `mlcomp-trace` — structured tracing, metrics, and phase-level profiling
//! for the MLComp pipeline.
//!
//! Three primitives, all thread-safe and zero-external-dep:
//!
//! * **Spans** ([`span`]) — hierarchical timed regions with key/value
//!   fields. Each thread keeps its own span-path stack; a span's `path` is
//!   the slash-joined chain of enclosing span names on that thread.
//! * **Counters / histograms** ([`counter`], [`observe`]) — lock-sharded
//!   accumulators merged deterministically when [`flush`] drains them into
//!   the sink.
//! * **Event sink** ([`TraceSink`]) — pluggable destination:
//!   [`RingSink`] (in-memory, for tests), [`JsonlSink`] (one JSON object
//!   per line, for runs), and [`NullSink`] (the default: drops everything
//!   and keeps instrumentation disabled).
//!
//! # Determinism contract
//!
//! Instrumentation is strictly out-of-band: it reads clocks and emits
//! events but never feeds anything back into seeds, iteration order, or
//! numeric results. With no sink (or [`NullSink`]) installed, every
//! instrumented call site reduces to a single relaxed atomic load.
//! `tests/determinism.rs` asserts that datasets extracted with a
//! [`JsonlSink`] attached are byte-identical to untraced runs.
//!
//! # Usage
//!
//! ```
//! use std::sync::Arc;
//!
//! let sink = Arc::new(mlcomp_trace::RingSink::new(64));
//! let events = mlcomp_trace::with_sink(sink.clone(), || {
//!     let mut span = mlcomp_trace::span("work");
//!     span.field("items", 3u64);
//!     mlcomp_trace::counter("work.done", 3);
//!     drop(span);
//!     sink.take()
//! });
//! assert!(!events.is_empty());
//! ```
//!
//! For binaries, `MLCOMP_TRACE=path.jsonl` plus [`init_from_env`] installs
//! a [`JsonlSink`]; the returned guard flushes pending metrics on drop.

mod metrics;
mod sink;

pub use sink::{Field, FieldValue, JsonlSink, NullSink, RingSink, TraceEvent, TraceSink};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Environment variable checked by [`init_from_env`].
pub const TRACE_ENV: &str = "MLCOMP_TRACE";

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn TraceSink>>> = RwLock::new(None);
/// Serializes [`with_sink`] scopes so concurrent tests in one process
/// never observe each other's sink.
static SCOPE_LOCK: Mutex<()> = Mutex::new(());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static THREAD_COUNTER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ID: u64 = THREAD_COUNTER.fetch_add(1, Ordering::Relaxed);
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Whether instrumentation is currently on. This is the fast-path check:
/// one relaxed atomic load, nothing else, when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

fn current_sink() -> Option<Arc<dyn TraceSink>> {
    SINK.read()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .cloned()
}

fn emit(event: TraceEvent) {
    if let Some(sink) = current_sink() {
        sink.record(event);
    }
}

/// Install `sink` as the process-global event destination.
///
/// Instrumentation turns on iff `sink.is_enabled()` — installing the
/// default [`NullSink`] keeps every call site on the disabled fast path.
pub fn install(sink: Arc<dyn TraceSink>) {
    let on = sink.is_enabled();
    {
        let mut slot = SINK.write().unwrap_or_else(|e| e.into_inner());
        *slot = Some(sink);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Flush pending metrics to the current sink, then remove it and disable
/// instrumentation.
pub fn uninstall() {
    flush();
    ENABLED.store(false, Ordering::Relaxed);
    let mut slot = SINK.write().unwrap_or_else(|e| e.into_inner());
    *slot = None;
}

/// Drain the sharded metric registries into the sink as `Counter` and
/// `Hist` events, then flush the sink itself.
///
/// Counters/histograms are cumulative between flushes; the drain
/// order is deterministic (sorted by name) and histogram values are sorted
/// before any float accumulation.
pub fn flush() {
    let snapshot = metrics::drain();
    for (name, value) in snapshot.counters {
        emit(TraceEvent::Counter { name, value });
    }
    for (name, values) in snapshot.hists {
        let (min, max, mean, p50, p90, p99) = metrics::summarize(&values);
        emit(TraceEvent::Hist {
            name,
            count: values.len() as u64,
            min,
            max,
            mean,
            p50,
            p90,
            p99,
        });
    }
    if let Some(sink) = current_sink() {
        sink.flush();
    }
}

/// Run `f` with `sink` installed, flushing and uninstalling afterwards
/// (also on panic). Scopes are serialized process-wide, so parallel tests
/// using `with_sink` never interleave sinks.
pub fn with_sink<T>(sink: Arc<dyn TraceSink>, f: impl FnOnce() -> T) -> T {
    let _scope = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            uninstall();
        }
    }
    install(sink);
    let _restore = Restore;
    f()
}

/// Flush-on-drop guard returned by [`init_from_env`]. Hold it for the
/// lifetime of `main` so cumulative metrics reach the trace file.
#[derive(Debug)]
pub struct FlushGuard {
    path: String,
}

impl FlushGuard {
    /// The path of the JSONL trace being written.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        flush();
    }
}

/// If `MLCOMP_TRACE=path.jsonl` is set, install a [`JsonlSink`] writing to
/// that path and return a [`FlushGuard`]. Returns `None` (and leaves
/// tracing disabled) when the variable is unset, empty, or the file cannot
/// be created.
pub fn init_from_env() -> Option<FlushGuard> {
    let path = std::env::var(TRACE_ENV).ok()?;
    if path.is_empty() {
        return None;
    }
    match JsonlSink::create(&path) {
        Ok(sink) => {
            install(Arc::new(sink));
            Some(FlushGuard { path })
        }
        Err(err) => {
            eprintln!("mlcomp-trace: cannot create {path}: {err}");
            None
        }
    }
}

/// Add `delta` to a named monotonic counter (no-op while disabled).
#[inline]
pub fn counter(name: &str, delta: u64) {
    if enabled() {
        metrics::add_counter(name, delta);
    }
}

/// Record one observation in a named histogram (no-op while disabled).
#[inline]
pub fn observe(name: &str, value: f64) {
    if enabled() {
        metrics::observe_hist(name, value);
    }
}

/// Emit one sample of a named time series (no-op while disabled).
/// Unlike the registry metrics, points are delivered to the sink
/// immediately, preserving their emission order per thread.
#[inline]
pub fn point(series: &str, x: f64, y: f64) {
    if enabled() {
        emit(TraceEvent::Point {
            series: series.to_string(),
            x,
            y,
        });
    }
}

struct ActiveSpan {
    name: &'static str,
    path: String,
    start_ns: u64,
    start: Instant,
    fields: Vec<Field>,
}

/// RAII timed region. Created by [`span`]; emits a `Span` event with its
/// wall-clock duration when dropped. While tracing is disabled the guard
/// is inert and costs one atomic load to construct.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

/// Open a named span. Nested spans on the same thread extend the path
/// (`"extraction/extract.item/phase"`), which is how `mlcomp-report`
/// reconstructs self vs. total time.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name);
        stack.join("/")
    });
    SpanGuard {
        active: Some(ActiveSpan {
            name,
            path,
            start_ns: now_ns(),
            start: Instant::now(),
            fields: Vec::new(),
        }),
    }
}

impl SpanGuard {
    /// Attach a key/value annotation (no-op on an inert guard).
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(active) = &mut self.active {
            active.fields.push(Field {
                key,
                value: value.into(),
            });
        }
    }

    /// Whether this guard is actually recording (tracing was enabled when
    /// it was created). Lets callers skip expensive field computation.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let dur_ns = active.start.elapsed().as_nanos() as u64;
        emit(TraceEvent::Span {
            name: active.name,
            path: active.path,
            start_ns: active.start_ns,
            dur_ns,
            thread: thread_id(),
            fields: active.fields,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans(events: &[TraceEvent]) -> Vec<(&str, &str)> {
        events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span { name, path, .. } => Some((*name, path.as_str())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn disabled_by_default_and_spans_are_inert() {
        let _scope = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        let mut s = span("never");
        assert!(!s.is_recording());
        s.field("ignored", 1u64);
        drop(s);
        // No panic, nothing recorded, and the thread-local stack is empty.
        SPAN_STACK.with(|st| assert!(st.borrow().is_empty()));
    }

    #[test]
    fn null_sink_keeps_tracing_disabled() {
        with_sink(Arc::new(NullSink), || {
            assert!(!enabled());
        });
    }

    #[test]
    fn nested_spans_build_slash_paths() {
        let ring = Arc::new(RingSink::new(64));
        let events = with_sink(ring.clone(), || {
            let outer = span("outer");
            {
                let mut inner = span("inner");
                inner.field("k", "v");
            }
            drop(outer);
            ring.take()
        });
        assert_eq!(
            spans(&events),
            vec![("inner", "outer/inner"), ("outer", "outer")]
        );
        match &events[0] {
            TraceEvent::Span { fields, .. } => {
                assert_eq!(fields.len(), 1);
                assert_eq!(fields[0].key, "k");
                assert_eq!(fields[0].value, FieldValue::Str("v".to_string()));
            }
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn metrics_merge_deterministically_across_threads() {
        let ring = Arc::new(RingSink::new(256));
        let events = with_sink(ring.clone(), || {
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        for i in 0..100u64 {
                            counter("m.count", 1);
                            observe("m.hist", i as f64);
                        }
                    });
                }
            });
            flush();
            ring.take()
        });
        let mut saw_counter = false;
        let mut saw_hist = false;
        for e in &events {
            match e {
                TraceEvent::Counter { name, value } if name == "m.count" => {
                    assert_eq!(*value, 400);
                    saw_counter = true;
                }
                TraceEvent::Hist {
                    name,
                    count,
                    min,
                    max,
                    ..
                } if name == "m.hist" => {
                    assert_eq!(*count, 400);
                    assert_eq!(*min, 0.0);
                    assert_eq!(*max, 99.0);
                    saw_hist = true;
                }
                _ => {}
            }
        }
        assert!(saw_counter && saw_hist);
    }

    #[test]
    fn jsonl_sink_writes_one_parseable_line_per_event() {
        let path = std::env::temp_dir().join("mlcomp_trace_unit_test.jsonl");
        let sink = Arc::new(JsonlSink::create(&path).unwrap());
        with_sink(sink, || {
            let mut s = span("io \"quoted\"\npath");
            s.field("note", "line1\nline2");
            drop(s);
            counter("io.events", 2);
            flush();
        });
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "expected span + counter lines: {text:?}");
        for line in &lines {
            assert!(line.starts_with("{\"t\":\""), "malformed line: {line}");
            assert!(line.ends_with('}'), "malformed line: {line}");
            assert!(!line.contains('\u{0}'));
        }
        assert!(text.contains("\\n"), "newline must be escaped: {text:?}");
    }

    #[test]
    fn counters_are_cumulative_until_flush() {
        let ring = Arc::new(RingSink::new(64));
        let events = with_sink(ring.clone(), || {
            counter("c.twice", 1);
            counter("c.twice", 2);
            flush();
            ring.take()
        });
        assert!(events.iter().any(
            |e| matches!(e, TraceEvent::Counter { name, value } if name == "c.twice" && *value == 3)
        ));
    }
}
