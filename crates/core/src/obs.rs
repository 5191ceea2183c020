//! Streaming inference telemetry.
//!
//! The paper's headline claim — partial exact inference over infinite
//! streams in **bounded memory** (§6, Fig. 15) — is a claim about what the
//! runtime does *per tick*, forever. This module makes that observable:
//! every engine step can export its wall time, effective sample size,
//! log-evidence increment, fault-recovery events, and the delayed-sampling
//! graph's live node/edge gauges (the bounded-memory witnesses) through a
//! pluggable [`Sink`].
//!
//! # Design
//!
//! * An [`Obs`] handle is threaded through the hot paths
//!   ([`Infer`](crate::infer::Infer), [`WorkerPool`](crate::pool::WorkerPool)).
//!   The default handle is **off** (no sink attached): every emission
//!   method is an inlined `if None` branch, and the expensive collection
//!   work (graph walks, `Instant::now`) is gated behind
//!   [`Obs::enabled`], so a disabled engine does no telemetry work at
//!   all. The module is always compiled: "off" is a run-time state, so
//!   the build that is deployed is the build that can be measured.
//! * A [`Sink`] receives numeric [`Sample`]s (counter / gauge / histogram)
//!   and structured [events](Sink::event). Three implementations ship:
//!   [`NoopSink`] (discards everything; used to *measure* the cost of the
//!   instrumentation itself), [`MemorySink`] (in-process buffer for tests
//!   and assertions), and [`WriterSink`] (JSON-lines export for the
//!   `obsreport` summarizer).
//! * Metric names are a closed registry ([`METRICS`] / [`EVENTS`]): the
//!   exporter and the `obsreport --check` validator agree on the schema by
//!   construction.
//!
//! Everything is `std`-only, in keeping with the workspace's
//! vendored-shim constraint.

use crate::json::json_escape;
use crate::trace::SpanRecord;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The three numeric metric flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Monotone count of occurrences; summarized by its total.
    Counter,
    /// Point-in-time level; summarized by last/min/max.
    Gauge,
    /// Distribution sample; summarized by quantiles.
    Histogram,
}

impl MetricKind {
    /// The lowercase wire name used in JSONL exports.
    pub fn label(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One numeric metric emission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample<'a> {
    /// Emitting engine's scope label (e.g. the method abbreviation
    /// `"SDS"`), if the handle was scoped.
    pub scope: Option<&'a str>,
    /// Stream clock of the emitting component (the engine's step index,
    /// or the pool's batch index).
    pub tick: u64,
    /// Metric flavour.
    pub kind: MetricKind,
    /// Registry name (see [`METRICS`]).
    pub name: &'a str,
    /// Optional entity index (worker id, particle id).
    pub index: Option<u64>,
    /// The value.
    pub value: f64,
}

/// A field value of a structured event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue<'a> {
    /// Integer field.
    Int(i64),
    /// Float field.
    Float(f64),
    /// Text field.
    Text(&'a str),
}

/// A telemetry receiver.
///
/// Implementations must be cheap and non-blocking on the caller's behalf
/// where possible: `record` runs inside the inference hot loop (and, for
/// pool metrics, on worker threads — hence `Send + Sync`).
pub trait Sink: Send + Sync {
    /// Receives one numeric sample.
    fn record(&self, sample: &Sample);

    /// Receives one structured event.
    fn event(&self, scope: Option<&str>, tick: u64, name: &str, fields: &[(&str, FieldValue)]);

    /// Receives one completed phase span (see [`crate::trace`]). The
    /// default discards it, so sinks that only care about metrics keep
    /// working unchanged.
    fn span(&self, _scope: Option<&str>, _span: &SpanRecord) {}

    /// Flushes buffered output, if any.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }
}

/// The instrumentation handle threaded through the runtime.
///
/// Cloning is cheap (an `Option<Arc>` clone). The default handle is off;
/// [`Obs::to`] attaches a sink and [`Obs::scoped`] tags every subsequent
/// emission with an engine label.
#[derive(Clone, Default)]
pub struct Obs {
    sink: Option<Arc<dyn Sink>>,
    scope: Option<Arc<str>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Obs({}, scope: {:?})",
            if self.sink.is_some() { "on" } else { "off" },
            self.scope.as_deref()
        )
    }
}

impl Obs {
    /// The disabled handle: every emission is a no-op branch.
    pub fn off() -> Obs {
        Obs::default()
    }

    /// A handle delivering to `sink`.
    pub fn to(sink: Arc<dyn Sink>) -> Obs {
        Obs {
            sink: Some(sink),
            scope: None,
        }
    }

    /// This handle with its scope label replaced by `scope` (e.g. the
    /// inference method's abbreviation).
    pub fn scoped(&self, scope: &str) -> Obs {
        Obs {
            sink: self.sink.clone(),
            scope: Some(Arc::from(scope)),
        }
    }

    /// Whether a sink is attached. Callers use this to skip expensive
    /// collection work (graph walks, clock reads) when disabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    #[inline]
    fn emit(&self, tick: u64, kind: MetricKind, name: &str, index: Option<u64>, value: f64) {
        if let Some(sink) = &self.sink {
            sink.record(&Sample {
                scope: self.scope.as_deref(),
                tick,
                kind,
                name,
                index,
                value,
            });
        }
    }

    /// Emits a counter increment.
    #[inline]
    pub fn counter(&self, tick: u64, name: &str, value: u64) {
        self.emit(tick, MetricKind::Counter, name, None, value as f64);
    }

    /// Emits a gauge level.
    #[inline]
    pub fn gauge(&self, tick: u64, name: &str, value: f64) {
        self.emit(tick, MetricKind::Gauge, name, None, value);
    }

    /// Emits a histogram sample.
    #[inline]
    pub fn histogram(&self, tick: u64, name: &str, value: f64) {
        self.emit(tick, MetricKind::Histogram, name, None, value);
    }

    /// Emits a histogram sample attributed to entity `index` (e.g. a
    /// worker thread).
    #[inline]
    pub fn histogram_at(&self, tick: u64, name: &str, index: u64, value: f64) {
        self.emit(tick, MetricKind::Histogram, name, Some(index), value);
    }

    /// Emits a structured event.
    #[inline]
    pub fn event(&self, tick: u64, name: &str, fields: &[(&str, FieldValue)]) {
        if let Some(sink) = &self.sink {
            sink.event(self.scope.as_deref(), tick, name, fields);
        }
    }

    /// Emits a completed span.
    #[inline]
    pub fn span(&self, span: &SpanRecord) {
        if let Some(sink) = &self.sink {
            sink.span(self.scope.as_deref(), span);
        }
    }

    /// Flushes the attached sink, if any.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn flush(&self) -> io::Result<()> {
        match &self.sink {
            Some(sink) => sink.flush(),
            None => Ok(()),
        }
    }
}

/// A sink that discards everything.
///
/// Attaching it is *not* free the way [`Obs::off`] is — the runtime still
/// collects and dispatches every sample — which is exactly its purpose:
/// the figures `obs` experiment uses it to measure the cost of the
/// instrumentation itself, separately from serialization.
#[derive(Debug, Default)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn record(&self, _sample: &Sample) {}
    fn event(&self, _scope: Option<&str>, _tick: u64, _name: &str, _fields: &[(&str, FieldValue)]) {
    }
}

/// An owned telemetry record buffered by [`MemorySink`].
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A numeric sample.
    Sample {
        /// Scope label of the emitting handle.
        scope: Option<String>,
        /// Stream clock.
        tick: u64,
        /// Metric flavour.
        kind: MetricKind,
        /// Registry name.
        name: String,
        /// Optional entity index.
        index: Option<u64>,
        /// The value.
        value: f64,
    },
    /// A structured event.
    Event {
        /// Scope label of the emitting handle.
        scope: Option<String>,
        /// Stream clock.
        tick: u64,
        /// Registry name.
        name: String,
        /// Field names and rendered values.
        fields: Vec<(String, String)>,
    },
    /// A completed phase span.
    Span {
        /// Scope label of the emitting handle.
        scope: Option<String>,
        /// The span.
        span: SpanRecord,
    },
}

/// An in-process buffering sink for tests and programmatic consumption.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<Record>>,
}

impl MemorySink {
    /// An empty buffer.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A snapshot of every record received so far.
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().expect("sink poisoned").clone()
    }

    /// Number of records received.
    pub fn len(&self) -> usize {
        self.records.lock().expect("sink poisoned").len()
    }

    /// Whether nothing has been received.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(tick, value)` series of the named gauge (any scope).
    pub fn gauge_series(&self, name: &str) -> Vec<(u64, f64)> {
        self.records
            .lock()
            .expect("sink poisoned")
            .iter()
            .filter_map(|r| match r {
                Record::Sample {
                    kind: MetricKind::Gauge,
                    name: n,
                    tick,
                    value,
                    ..
                } if n == name => Some((*tick, *value)),
                _ => None,
            })
            .collect()
    }

    /// Sum of every increment of the named counter.
    pub fn counter_total(&self, name: &str) -> f64 {
        self.records
            .lock()
            .expect("sink poisoned")
            .iter()
            .filter_map(|r| match r {
                Record::Sample {
                    kind: MetricKind::Counter,
                    name: n,
                    value,
                    ..
                } if n == name => Some(*value),
                _ => None,
            })
            .sum()
    }

    /// Every histogram sample of the named metric.
    pub fn histogram_values(&self, name: &str) -> Vec<f64> {
        self.records
            .lock()
            .expect("sink poisoned")
            .iter()
            .filter_map(|r| match r {
                Record::Sample {
                    kind: MetricKind::Histogram,
                    name: n,
                    value,
                    ..
                } if n == name => Some(*value),
                _ => None,
            })
            .collect()
    }

    /// Number of events with the given name.
    pub fn event_count(&self, name: &str) -> usize {
        self.records
            .lock()
            .expect("sink poisoned")
            .iter()
            .filter(|r| matches!(r, Record::Event { name: n, .. } if n == name))
            .count()
    }

    /// Every span received so far, in arrival order (any scope).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.records
            .lock()
            .expect("sink poisoned")
            .iter()
            .filter_map(|r| match r {
                Record::Span { span, .. } => Some(span.clone()),
                _ => None,
            })
            .collect()
    }

    /// Number of spans with the given name.
    pub fn span_count(&self, name: &str) -> usize {
        self.records
            .lock()
            .expect("sink poisoned")
            .iter()
            .filter(|r| matches!(r, Record::Span { span, .. } if span.name == name))
            .count()
    }
}

impl Sink for MemorySink {
    fn record(&self, s: &Sample) {
        self.records
            .lock()
            .expect("sink poisoned")
            .push(Record::Sample {
                scope: s.scope.map(str::to_owned),
                tick: s.tick,
                kind: s.kind,
                name: s.name.to_owned(),
                index: s.index,
                value: s.value,
            });
    }

    fn event(&self, scope: Option<&str>, tick: u64, name: &str, fields: &[(&str, FieldValue)]) {
        self.records
            .lock()
            .expect("sink poisoned")
            .push(Record::Event {
                scope: scope.map(str::to_owned),
                tick,
                name: name.to_owned(),
                fields: fields
                    .iter()
                    .map(|(k, v)| {
                        let rendered = match v {
                            FieldValue::Int(n) => n.to_string(),
                            FieldValue::Float(x) => x.to_string(),
                            FieldValue::Text(s) => (*s).to_owned(),
                        };
                        ((*k).to_owned(), rendered)
                    })
                    .collect(),
            });
    }

    fn span(&self, scope: Option<&str>, span: &SpanRecord) {
        self.records
            .lock()
            .expect("sink poisoned")
            .push(Record::Span {
                scope: scope.map(str::to_owned),
                span: span.clone(),
            });
    }
}

/// Renders a float as JSON (JSON has no NaN/Infinity; they are exported
/// as strings so the line stays parseable).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        // Shortest round-trip via Display is fine for telemetry.
        let s = format!("{x}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        format!("\"{x}\"")
    }
}

/// Renders one structured event as a JSONL line (without the trailing
/// newline) in the [`WriterSink`] wire format. Public so the flight
/// recorder's black-box dump produces byte-identical lines.
pub fn event_json_line(
    scope: Option<&str>,
    tick: u64,
    name: &str,
    fields: &[(&str, FieldValue)],
) -> String {
    let mut line = String::with_capacity(128);
    line.push_str("{\"type\":\"event\"");
    if let Some(scope) = scope {
        line.push_str(",\"engine\":\"");
        line.push_str(&json_escape(scope));
        line.push('"');
    }
    line.push_str(&format!(",\"tick\":{tick}"));
    line.push_str(",\"name\":\"");
    line.push_str(&json_escape(name));
    line.push_str("\",\"fields\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push('"');
        line.push_str(&json_escape(k));
        line.push_str("\":");
        match v {
            FieldValue::Int(n) => line.push_str(&n.to_string()),
            FieldValue::Float(x) => line.push_str(&json_f64(*x)),
            FieldValue::Text(s) => {
                line.push('"');
                line.push_str(&json_escape(s));
                line.push('"');
            }
        }
    }
    line.push_str("}}");
    line
}

/// Renders one span as a JSONL line (without the trailing newline) in the
/// [`WriterSink`] wire format. Span IDs are 16-hex-digit strings rather
/// than JSON numbers: u64 identifiers would not survive the f64
/// round-trip of generic JSON parsers.
pub fn span_json_line(scope: Option<&str>, span: &SpanRecord) -> String {
    let mut line = String::with_capacity(160);
    line.push_str("{\"type\":\"span\"");
    if let Some(scope) = scope {
        line.push_str(",\"engine\":\"");
        line.push_str(&json_escape(scope));
        line.push('"');
    }
    line.push_str(&format!(",\"tick\":{}", span.tick));
    line.push_str(",\"name\":\"");
    line.push_str(&json_escape(span.name));
    line.push('"');
    line.push_str(&format!(",\"id\":\"{:016x}\"", span.id));
    if let Some(parent) = span.parent {
        line.push_str(&format!(",\"parent\":\"{parent:016x}\""));
    }
    if let Some(i) = span.index {
        line.push_str(&format!(",\"index\":{i}"));
    }
    line.push_str(&format!(",\"dur_ms\":{}}}", json_f64(span.dur_ms)));
    line
}

/// A JSON-lines exporting sink.
///
/// Each record becomes one JSON object per line:
///
/// ```json
/// {"type":"gauge","engine":"SDS","tick":12,"name":"ds.live_nodes","value":3.0}
/// {"type":"event","engine":"SDS","tick":12,"name":"recovery","fields":{"particle":3,"fault":"panic: boom","action":"rejuvenated from particle 1"}}
/// ```
///
/// The full line schema is emitted by `obsreport --schema`.
pub struct WriterSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl WriterSink<BufWriter<std::fs::File>> {
    /// Creates (truncating) a JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(WriterSink::new(BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

impl<W: Write + Send> WriterSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        WriterSink {
            writer: Mutex::new(writer),
        }
    }

    /// Consumes the sink, returning the inner writer (flushing implicitly
    /// happens on drop of buffered writers).
    pub fn into_inner(self) -> W {
        self.writer.into_inner().expect("sink poisoned")
    }

    fn write_line(&self, line: &str) {
        let mut w = self.writer.lock().expect("sink poisoned");
        // Telemetry must not fail the inference step; a full disk drops
        // lines rather than panicking the engine.
        let _ = writeln!(w, "{line}");
    }
}

impl<W: Write + Send> Sink for WriterSink<W> {
    fn record(&self, s: &Sample) {
        let mut line = String::with_capacity(96);
        line.push_str("{\"type\":\"");
        line.push_str(s.kind.label());
        line.push('"');
        if let Some(scope) = s.scope {
            line.push_str(",\"engine\":\"");
            line.push_str(&json_escape(scope));
            line.push('"');
        }
        line.push_str(&format!(",\"tick\":{}", s.tick));
        line.push_str(",\"name\":\"");
        line.push_str(&json_escape(s.name));
        line.push('"');
        if let Some(i) = s.index {
            line.push_str(&format!(",\"index\":{i}"));
        }
        line.push_str(&format!(",\"value\":{}}}", json_f64(s.value)));
        self.write_line(&line);
    }

    fn event(&self, scope: Option<&str>, tick: u64, name: &str, fields: &[(&str, FieldValue)]) {
        self.write_line(&event_json_line(scope, tick, name, fields));
    }

    fn span(&self, scope: Option<&str>, span: &SpanRecord) {
        self.write_line(&span_json_line(scope, span));
    }

    fn flush(&self) -> io::Result<()> {
        self.writer.lock().expect("sink poisoned").flush()
    }
}

/// Metric names, as emitted by the runtime. Using the constants (rather
/// than string literals) at emission sites keeps the exporter and the
/// registry in lockstep.
pub mod names {
    /// Per-tick engine step wall time (ms). Histogram.
    pub const STEP_LATENCY_MS: &str = "step.latency_ms";
    /// Effective sample size before resampling. Gauge.
    pub const STEP_ESS: &str = "step.ess";
    /// Log-evidence increment: log mean particle weight at this tick
    /// (log-normalizer of the current weights). Gauge.
    pub const STEP_LOG_EVIDENCE: &str = "step.log_evidence";
    /// Particle count. Gauge.
    pub const STEP_PARTICLES: &str = "step.particles";
    /// Resampling passes executed. Counter.
    pub const STEP_RESAMPLES: &str = "step.resamples";
    /// Steps whose particle cloud collapsed (all weights zero). Counter.
    pub const STEP_COLLAPSES: &str = "step.collapses";
    /// Consecutive collapsed steps so far (retry-budget consumption).
    /// Gauge.
    pub const STEP_CONSECUTIVE_COLLAPSES: &str = "step.consecutive_collapses";
    /// Per-particle faults repaired this step. Counter.
    pub const STEP_FAULTS: &str = "step.faults";
    /// Steps whose posterior fell back to the last healthy one. Counter.
    pub const STEP_USED_LAST_GOOD: &str = "step.used_last_good";
    /// Heap bytes reserved by the engine's persistent per-tick scratch
    /// (weight/ancestor buffers plus the retired particle buffer);
    /// plateaus on bounded models. Gauge.
    pub const STEP_SCRATCH_BYTES: &str = "step.scratch_bytes";
    /// Deep particle clones avoided by the clone-minimal resampler this
    /// pass (surviving ancestors moved instead of cloned). Counter.
    pub const RESAMPLE_CLONES_AVOIDED: &str = "resample.clones_avoided";
    /// Live delayed-sampling nodes, summed over particles. Gauge.
    pub const DS_LIVE_NODES: &str = "ds.live_nodes";
    /// Live delayed-sampling edges, summed over particles. Gauge.
    pub const DS_LIVE_EDGES: &str = "ds.live_edges";
    /// Live nodes in the `Initialized` state. Gauge.
    pub const DS_INITIALIZED: &str = "ds.initialized";
    /// Live nodes in the `Marginalized` state. Gauge.
    pub const DS_MARGINALIZED: &str = "ds.marginalized";
    /// Live nodes in the `Realized` state. Gauge.
    pub const DS_REALIZED: &str = "ds.realized";
    /// Realized fraction of live nodes (symbolic-vs-sampled balance).
    /// Gauge.
    pub const DS_REALIZED_RATIO: &str = "ds.realized_ratio";
    /// Longest pointer chain over live nodes, maxed over particles. Gauge.
    pub const DS_CHAIN_DEPTH: &str = "ds.chain_depth";
    /// Nodes ever created, summed over particles. Gauge (monotone).
    pub const DS_TOTAL_CREATED: &str = "ds.total_created";
    /// Approximate live graph bytes, summed over particles. Gauge.
    pub const DS_LIVE_BYTES: &str = "ds.live_bytes";
    /// Slab allocations served by recycling a swept slot, summed over
    /// particles. Gauge (monotone).
    pub const GRAPH_SLOTS_REUSED: &str = "graph.slots_reused";
    /// Slab capacity in slots (live + recyclable), summed over
    /// particles; flat capacity under pointer-minimal retention is the
    /// bounded-memory witness. Gauge.
    pub const GRAPH_CAPACITY: &str = "graph.capacity";
    /// Jobs submitted to the worker pool in one batch. Gauge.
    pub const POOL_QUEUE_DEPTH: &str = "pool.queue_depth";
    /// Per-job wall time on a worker (ms); `index` is the worker id.
    /// Histogram.
    pub const POOL_JOB_MS: &str = "pool.job_ms";
    /// Dead workers detected and respawned. Counter.
    pub const POOL_RESPAWNS: &str = "pool.respawns";
    /// Ticks whose measured step latency exceeded the deadline budget.
    /// Counter.
    pub const DEADLINE_MISSES: &str = "deadline.misses";
    /// The controller's current per-tick latency budget (ms). Gauge.
    pub const DEADLINE_BUDGET_MS: &str = "deadline.budget_ms";
    /// p99 step latency over the controller's tumbling histogram window
    /// (ms). Gauge.
    pub const DEADLINE_WINDOW_P99_MS: &str = "deadline.window_p99_ms";
}

/// Event names.
pub mod events {
    /// An engine was attached to a sink. Fields: `method`, `particles`,
    /// `seed`.
    pub const ENGINE_ATTACH: &str = "engine.attach";
    /// One particle fault was repaired. Fields: `particle`, `fault`,
    /// `action`.
    pub const RECOVERY: &str = "recovery";
    /// The particle cloud collapsed this step. Fields: `consecutive`,
    /// `budget`.
    pub const COLLAPSE: &str = "collapse";
    /// A dead pool worker was respawned. Fields: `worker`.
    pub const POOL_RESPAWN: &str = "pool.respawn";
    /// A static-analysis advisory about the selected inference method
    /// (e.g. classic DS on a provably bounded model). Fields: `node`,
    /// `method`, `message`.
    pub const CHECK_ADVISORY: &str = "check.advisory";
    /// The deadline controller took one degradation-ladder decision.
    /// Fields: `action`, `from`, `to`, `observed_p99_ms`, `budget_ms`.
    pub const DEADLINE_DECISION: &str = "deadline.decision";
    /// The collapse retry budget was exhausted; the step is about to fail
    /// with `RuntimeError::CollapseBudgetExhausted`. Fields: `consecutive`,
    /// `budget`.
    pub const COLLAPSE_EXHAUSTED: &str = "collapse.exhausted";
    /// The flight recorder dumped its span ring to the black-box file in
    /// response to an incident. Fields: `reason`, `spans`.
    pub const BLACKBOX_DUMP: &str = "blackbox.dump";
}

/// Description of one registered metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDesc {
    /// Registry name.
    pub name: &'static str,
    /// Flavour.
    pub kind: MetricKind,
    /// Unit label.
    pub unit: &'static str,
    /// One-line meaning.
    pub help: &'static str,
}

/// Description of one registered event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventDesc {
    /// Registry name.
    pub name: &'static str,
    /// Field names, in emission order.
    pub fields: &'static [&'static str],
    /// One-line meaning.
    pub help: &'static str,
}

/// The closed registry of metric names the runtime emits.
pub const METRICS: &[MetricDesc] = &[
    MetricDesc {
        name: names::STEP_LATENCY_MS,
        kind: MetricKind::Histogram,
        unit: "ms",
        help: "per-tick engine step wall time",
    },
    MetricDesc {
        name: names::STEP_ESS,
        kind: MetricKind::Gauge,
        unit: "particles",
        help: "effective sample size before resampling",
    },
    MetricDesc {
        name: names::STEP_LOG_EVIDENCE,
        kind: MetricKind::Gauge,
        unit: "nats",
        help: "log mean particle weight at this tick",
    },
    MetricDesc {
        name: names::STEP_PARTICLES,
        kind: MetricKind::Gauge,
        unit: "count",
        help: "particle count",
    },
    MetricDesc {
        name: names::STEP_RESAMPLES,
        kind: MetricKind::Counter,
        unit: "count",
        help: "resampling passes executed",
    },
    MetricDesc {
        name: names::STEP_COLLAPSES,
        kind: MetricKind::Counter,
        unit: "count",
        help: "steps whose particle cloud collapsed",
    },
    MetricDesc {
        name: names::STEP_CONSECUTIVE_COLLAPSES,
        kind: MetricKind::Gauge,
        unit: "count",
        help: "consecutive collapsed steps (retry-budget consumption)",
    },
    MetricDesc {
        name: names::STEP_FAULTS,
        kind: MetricKind::Counter,
        unit: "count",
        help: "per-particle faults repaired this step",
    },
    MetricDesc {
        name: names::STEP_USED_LAST_GOOD,
        kind: MetricKind::Counter,
        unit: "count",
        help: "steps falling back to the last healthy posterior",
    },
    MetricDesc {
        name: names::STEP_SCRATCH_BYTES,
        kind: MetricKind::Gauge,
        unit: "bytes",
        help: "heap bytes reserved by the persistent per-tick scratch",
    },
    MetricDesc {
        name: names::RESAMPLE_CLONES_AVOIDED,
        kind: MetricKind::Counter,
        unit: "count",
        help: "deep particle clones avoided by the clone-minimal resampler",
    },
    MetricDesc {
        name: names::DS_LIVE_NODES,
        kind: MetricKind::Gauge,
        unit: "nodes",
        help: "live delayed-sampling nodes, summed over particles",
    },
    MetricDesc {
        name: names::DS_LIVE_EDGES,
        kind: MetricKind::Gauge,
        unit: "edges",
        help: "live delayed-sampling edges, summed over particles",
    },
    MetricDesc {
        name: names::DS_INITIALIZED,
        kind: MetricKind::Gauge,
        unit: "nodes",
        help: "live nodes in the Initialized state",
    },
    MetricDesc {
        name: names::DS_MARGINALIZED,
        kind: MetricKind::Gauge,
        unit: "nodes",
        help: "live nodes in the Marginalized state",
    },
    MetricDesc {
        name: names::DS_REALIZED,
        kind: MetricKind::Gauge,
        unit: "nodes",
        help: "live nodes in the Realized state",
    },
    MetricDesc {
        name: names::DS_REALIZED_RATIO,
        kind: MetricKind::Gauge,
        unit: "fraction",
        help: "realized fraction of live nodes (sampled vs symbolic)",
    },
    MetricDesc {
        name: names::DS_CHAIN_DEPTH,
        kind: MetricKind::Gauge,
        unit: "nodes",
        help: "longest pointer chain, maxed over particles",
    },
    MetricDesc {
        name: names::DS_TOTAL_CREATED,
        kind: MetricKind::Gauge,
        unit: "nodes",
        help: "nodes ever created, summed over particles",
    },
    MetricDesc {
        name: names::DS_LIVE_BYTES,
        kind: MetricKind::Gauge,
        unit: "bytes",
        help: "approximate live graph bytes, summed over particles",
    },
    MetricDesc {
        name: names::GRAPH_SLOTS_REUSED,
        kind: MetricKind::Gauge,
        unit: "slots",
        help: "slab allocations served by recycling a swept slot",
    },
    MetricDesc {
        name: names::GRAPH_CAPACITY,
        kind: MetricKind::Gauge,
        unit: "slots",
        help: "slab capacity in slots (live + recyclable), summed over particles",
    },
    MetricDesc {
        name: names::POOL_QUEUE_DEPTH,
        kind: MetricKind::Gauge,
        unit: "jobs",
        help: "jobs submitted to the worker pool in one batch",
    },
    MetricDesc {
        name: names::POOL_JOB_MS,
        kind: MetricKind::Histogram,
        unit: "ms",
        help: "per-job wall time on a worker (index = worker id)",
    },
    MetricDesc {
        name: names::POOL_RESPAWNS,
        kind: MetricKind::Counter,
        unit: "count",
        help: "dead workers detected and respawned",
    },
    MetricDesc {
        name: names::DEADLINE_MISSES,
        kind: MetricKind::Counter,
        unit: "count",
        help: "ticks whose step latency exceeded the deadline budget",
    },
    MetricDesc {
        name: names::DEADLINE_BUDGET_MS,
        kind: MetricKind::Gauge,
        unit: "ms",
        help: "the deadline controller's current per-tick budget",
    },
    MetricDesc {
        name: names::DEADLINE_WINDOW_P99_MS,
        kind: MetricKind::Gauge,
        unit: "ms",
        help: "p99 step latency over the controller's tumbling window",
    },
];

/// The closed registry of event names the runtime emits.
pub const EVENTS: &[EventDesc] = &[
    EventDesc {
        name: events::ENGINE_ATTACH,
        fields: &["method", "particles", "seed"],
        help: "an engine was attached to a sink",
    },
    EventDesc {
        name: events::RECOVERY,
        fields: &["particle", "fault", "action"],
        help: "one particle fault was repaired",
    },
    EventDesc {
        name: events::COLLAPSE,
        fields: &["consecutive", "budget"],
        help: "the particle cloud collapsed this step",
    },
    EventDesc {
        name: events::POOL_RESPAWN,
        fields: &["worker"],
        help: "a dead pool worker was respawned",
    },
    EventDesc {
        name: events::CHECK_ADVISORY,
        fields: &["node", "method", "message"],
        help: "static-analysis advisory about the selected inference method",
    },
    EventDesc {
        name: events::DEADLINE_DECISION,
        fields: &["action", "from", "to", "observed_p99_ms", "budget_ms"],
        help: "the deadline controller took one degradation-ladder decision",
    },
    EventDesc {
        name: events::COLLAPSE_EXHAUSTED,
        fields: &["consecutive", "budget"],
        help: "the collapse retry budget was exhausted; the step fails typed",
    },
    EventDesc {
        name: events::BLACKBOX_DUMP,
        fields: &["reason", "spans"],
        help: "the flight recorder dumped its span ring after an incident",
    },
];

/// Looks up a metric description by name.
pub fn metric(name: &str) -> Option<&'static MetricDesc> {
    METRICS.iter().find(|m| m.name == name)
}

/// Looks up an event description by name.
pub fn event_desc(name: &str) -> Option<&'static EventDesc> {
    EVENTS.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_disabled_and_silent() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        obs.counter(0, names::STEP_RESAMPLES, 1);
        obs.gauge(0, names::STEP_ESS, 1.0);
        obs.histogram(0, names::STEP_LATENCY_MS, 0.1);
        obs.event(0, events::RECOVERY, &[]);
        assert!(obs.flush().is_ok());
    }

    #[test]
    fn memory_sink_buffers_and_queries() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::to(sink.clone()).scoped("SDS");
        obs.gauge(0, names::DS_LIVE_NODES, 2.0);
        obs.gauge(1, names::DS_LIVE_NODES, 3.0);
        obs.counter(1, names::STEP_RESAMPLES, 1);
        obs.counter(2, names::STEP_RESAMPLES, 1);
        obs.histogram(2, names::STEP_LATENCY_MS, 0.25);
        obs.event(
            2,
            events::RECOVERY,
            &[
                ("particle", FieldValue::Int(3)),
                ("fault", FieldValue::Text("panic: boom")),
            ],
        );
        assert_eq!(
            sink.gauge_series(names::DS_LIVE_NODES),
            vec![(0, 2.0), (1, 3.0)]
        );
        assert_eq!(sink.counter_total(names::STEP_RESAMPLES), 2.0);
        assert_eq!(sink.histogram_values(names::STEP_LATENCY_MS), vec![0.25]);
        assert_eq!(sink.event_count(events::RECOVERY), 1);
        assert_eq!(sink.len(), 6);
        match &sink.records()[5] {
            Record::Event { scope, fields, .. } => {
                assert_eq!(scope.as_deref(), Some("SDS"));
                assert_eq!(fields[1].1, "panic: boom");
            }
            other => panic!("expected event, got {other:?}"),
        }
    }

    #[test]
    fn writer_sink_emits_one_json_object_per_line() {
        let sink = WriterSink::new(Vec::new());
        {
            let s: &dyn Sink = &sink;
            s.record(&Sample {
                scope: Some("PF"),
                tick: 7,
                kind: MetricKind::Gauge,
                name: names::STEP_ESS,
                index: None,
                value: 12.5,
            });
            s.event(
                Some("PF"),
                8,
                events::RECOVERY,
                &[
                    ("particle", FieldValue::Int(1)),
                    ("fault", FieldValue::Text("a \"quoted\"\nfault")),
                ],
            );
            s.record(&Sample {
                scope: None,
                tick: 9,
                kind: MetricKind::Histogram,
                name: names::POOL_JOB_MS,
                index: Some(2),
                value: 0.125,
            });
        }
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"type\":\"gauge\",\"engine\":\"PF\",\"tick\":7,\"name\":\"step.ess\",\"value\":12.5}"
        );
        assert!(lines[1].contains("\\\"quoted\\\"\\n"));
        assert!(lines[2].contains("\"index\":2"));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn sinks_carry_spans() {
        let span = SpanRecord {
            tick: 4,
            name: crate::trace::spans::TICK,
            id: 0xdead_beef,
            parent: None,
            index: None,
            dur_ms: 1.5,
        };
        let child = SpanRecord {
            tick: 4,
            name: crate::trace::spans::POOL_JOB,
            id: 0x0102_0304_0506_0708,
            parent: Some(0xdead_beef),
            index: Some(2),
            dur_ms: 0.25,
        };

        let mem = Arc::new(MemorySink::new());
        let obs = Obs::to(mem.clone()).scoped("PF");
        obs.span(&span);
        obs.span(&child);
        assert_eq!(mem.spans(), vec![span.clone(), child.clone()]);
        assert_eq!(mem.span_count(crate::trace::spans::TICK), 1);
        match &mem.records()[0] {
            Record::Span { scope, .. } => assert_eq!(scope.as_deref(), Some("PF")),
            other => panic!("expected span, got {other:?}"),
        }

        let writer = WriterSink::new(Vec::new());
        let s: &dyn Sink = &writer;
        s.span(Some("PF"), &span);
        s.span(None, &child);
        let text = String::from_utf8(writer.into_inner()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"type\":\"span\",\"engine\":\"PF\",\"tick\":4,\"name\":\"tick\",\
             \"id\":\"00000000deadbeef\",\"dur_ms\":1.5}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"span\",\"tick\":4,\"name\":\"pool.job\",\
             \"id\":\"0102030405060708\",\"parent\":\"00000000deadbeef\",\
             \"index\":2,\"dur_ms\":0.25}"
        );

        // Sinks without a span override silently ignore spans.
        let noop: &dyn Sink = &NoopSink;
        noop.span(Some("PF"), &span);
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(
                METRICS.iter().skip(i + 1).all(|o| o.name != m.name),
                "duplicate metric {}",
                m.name
            );
            assert_eq!(metric(m.name).map(|d| d.kind), Some(m.kind));
        }
        for (i, e) in EVENTS.iter().enumerate() {
            assert!(
                EVENTS.iter().skip(i + 1).all(|o| o.name != e.name),
                "duplicate event {}",
                e.name
            );
            assert!(event_desc(e.name).is_some());
        }
        assert!(metric("no.such.metric").is_none());
    }

    #[test]
    fn scoped_handles_share_the_sink() {
        let sink = Arc::new(MemorySink::new());
        let base = Obs::to(sink.clone());
        let a = base.scoped("A");
        let b = base.scoped("B");
        a.gauge(0, names::STEP_ESS, 1.0);
        b.gauge(0, names::STEP_ESS, 2.0);
        let recs = sink.records();
        assert_eq!(recs.len(), 2);
        match (&recs[0], &recs[1]) {
            (Record::Sample { scope: sa, .. }, Record::Sample { scope: sb, .. }) => {
                assert_eq!(sa.as_deref(), Some("A"));
                assert_eq!(sb.as_deref(), Some("B"));
            }
            other => panic!("expected samples, got {other:?}"),
        }
    }

    #[test]
    fn nonfinite_values_export_as_strings() {
        let sink = WriterSink::new(Vec::new());
        let s: &dyn Sink = &sink;
        s.record(&Sample {
            scope: None,
            tick: 0,
            kind: MetricKind::Gauge,
            name: names::STEP_LOG_EVIDENCE,
            index: None,
            value: f64::NEG_INFINITY,
        });
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        assert!(text.contains("\"value\":\"-inf\""), "{text}");
    }
}
