//! Trace events and the pluggable sinks that receive them.
//!
//! Events are plain data: a [`TraceEvent`] carries everything a consumer
//! needs, so sinks never reach back into the tracer. The JSONL encoding is
//! hand-rolled (this crate has zero dependencies) and matches the schema
//! documented in DESIGN.md §11: one JSON object per line, discriminated by
//! the `"t"` key.

use std::collections::VecDeque;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A single key/value annotation attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name; static so span annotation never allocates for the key.
    pub key: &'static str,
    /// Field value.
    pub value: FieldValue,
}

/// The value of a span [`Field`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form string.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One observability event, emitted out-of-band by instrumented code.
///
/// Timing values are nanoseconds relative to a process-local monotonic
/// epoch; they are never fed back into seeds, ordering, or results.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A completed hierarchical span.
    Span {
        /// Leaf name of the span (e.g. `"phase"`).
        name: &'static str,
        /// Slash-joined path of enclosing span names on this thread.
        path: String,
        /// Start time, nanoseconds since the tracer epoch.
        start_ns: u64,
        /// Wall-clock duration in nanoseconds.
        dur_ns: u64,
        /// Tracer-local id of the emitting thread.
        thread: u64,
        /// Key/value annotations recorded while the span was open.
        fields: Vec<Field>,
    },
    /// A monotonically accumulated counter, reported at drain time.
    Counter {
        /// Counter name (e.g. `"extraction.items_ok"`).
        name: String,
        /// Total accumulated value.
        value: u64,
    },
    /// Summary statistics of a histogram, reported at drain time.
    Hist {
        /// Histogram name (e.g. `"search.accuracy"`).
        name: String,
        /// Number of observations.
        count: u64,
        /// Minimum observation.
        min: f64,
        /// Maximum observation.
        max: f64,
        /// Arithmetic mean (values sorted before summing for determinism).
        mean: f64,
        /// 50th percentile.
        p50: f64,
        /// 90th percentile.
        p90: f64,
        /// 99th percentile.
        p99: f64,
    },
    /// One sample of a named time series (e.g. the RL learning curve).
    Point {
        /// Series name (e.g. `"rl.mean_return"`).
        series: String,
        /// X coordinate — an episode index, item index, or timestamp.
        x: f64,
        /// Y coordinate — the observed value.
        y: f64,
    },
}

fn escape_json_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn f64_json(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN") {
            s.push_str(".0");
        }
        s
    } else {
        // JSON has no NaN/Infinity; mirror compat serde_json and emit null.
        "null".to_string()
    }
}

impl TraceEvent {
    /// Encode this event as one line of the JSONL schema (no trailing `\n`).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128);
        match self {
            TraceEvent::Span {
                name,
                path,
                start_ns,
                dur_ns,
                thread,
                fields,
            } => {
                out.push_str("{\"t\":\"span\",\"name\":");
                escape_json_into(&mut out, name);
                out.push_str(",\"path\":");
                escape_json_into(&mut out, path);
                out.push_str(&format!(
                    ",\"start_ns\":{start_ns},\"dur_ns\":{dur_ns},\"tid\":{thread},\"fields\":{{"
                ));
                for (i, f) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_json_into(&mut out, f.key);
                    out.push(':');
                    match &f.value {
                        FieldValue::U64(v) => out.push_str(&v.to_string()),
                        FieldValue::I64(v) => out.push_str(&v.to_string()),
                        FieldValue::F64(v) => out.push_str(&f64_json(*v)),
                        FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
                        FieldValue::Str(v) => escape_json_into(&mut out, v),
                    }
                }
                out.push_str("}}");
            }
            TraceEvent::Counter { name, value } => {
                out.push_str("{\"t\":\"counter\",\"name\":");
                escape_json_into(&mut out, name);
                out.push_str(&format!(",\"value\":{value}}}"));
            }
            TraceEvent::Hist {
                name,
                count,
                min,
                max,
                mean,
                p50,
                p90,
                p99,
            } => {
                out.push_str("{\"t\":\"hist\",\"name\":");
                escape_json_into(&mut out, name);
                out.push_str(&format!(
                    ",\"count\":{count},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                    f64_json(*min),
                    f64_json(*max),
                    f64_json(*mean),
                    f64_json(*p50),
                    f64_json(*p90),
                    f64_json(*p99),
                ));
            }
            TraceEvent::Point { series, x, y } => {
                out.push_str("{\"t\":\"point\",\"series\":");
                escape_json_into(&mut out, series);
                out.push_str(&format!(",\"x\":{},\"y\":{}}}", f64_json(*x), f64_json(*y)));
            }
        }
        out
    }
}

/// Destination for [`TraceEvent`]s. Implementations must tolerate being
/// called concurrently from many threads.
pub trait TraceSink: Send + Sync {
    /// Receive one event. Must not panic; errors are swallowed (tracing is
    /// best-effort and must never abort the pipeline).
    fn record(&self, event: TraceEvent);

    /// Flush any buffered output. Default: no-op.
    fn flush(&self) {}

    /// Whether installing this sink should turn instrumentation on.
    ///
    /// [`NullSink`] returns `false`, so a pipeline with the default sink
    /// attached still takes the single-atomic-load fast path everywhere.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// The default sink: drops every event and keeps instrumentation disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: TraceEvent) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// Bounded in-memory sink for tests: keeps the most recent `capacity`
/// events and lets the test inspect them after the traced section.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    events: Mutex<VecDeque<TraceEvent>>,
}

impl RingSink {
    /// Create a ring buffer holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::new()),
        }
    }

    /// Snapshot the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let guard = self.events.lock().unwrap_or_else(|e| e.into_inner());
        guard.iter().cloned().collect()
    }

    /// Drain and return the buffered events, oldest first.
    pub fn take(&self) -> Vec<TraceEvent> {
        let mut guard = self.events.lock().unwrap_or_else(|e| e.into_inner());
        guard.drain(..).collect()
    }

    /// Number of currently buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: TraceEvent) {
        let mut guard = self.events.lock().unwrap_or_else(|e| e.into_inner());
        if guard.len() == self.capacity {
            guard.pop_front();
        }
        guard.push_back(event);
    }
}

/// Sink that appends one JSON object per line to a file.
///
/// Each event is serialized to a complete line and written with a single
/// `write_all` under a mutex, so concurrent writers never tear lines and a
/// crash loses at most the event in flight (there is no userspace buffer
/// to lose — the global sink slot lives in a `static` and would never run
/// destructors at process exit).
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    file: Mutex<File>,
}

impl JsonlSink {
    /// Create (truncate) `path` and return a sink writing to it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(JsonlSink {
            path,
            file: Mutex::new(file),
        })
    }

    /// The path this sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: TraceEvent) {
        let mut line = event.to_json_line();
        line.push('\n');
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        // Best-effort: a full disk must not take down the pipeline.
        let _ = file.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let _ = file.flush();
    }
}
