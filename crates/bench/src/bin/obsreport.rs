//! `obsreport`: summarizes and validates JSONL telemetry exported by
//! [`WriterSink`](probzelus_core::obs::WriterSink).
//!
//! ```text
//! obsreport <file.jsonl>            per-engine summary tables (default)
//! obsreport summary <file.jsonl>    same, explicit
//! obsreport --schema                machine-readable line schema + registry
//! obsreport --schema-md             the same registry as docs/METRICS.md
//! obsreport --check <file.jsonl>    validate a stream against the registry
//! obsreport --follow <file.jsonl> [--idle-exit SECS]
//!                                   tail the stream, live per-phase tables
//! ```
//!
//! `--check` exits non-zero if any line fails to parse, names a metric,
//! event, or span outside the registries of `probzelus-core`, or declares a
//! kind that disagrees with the registered one — the contract CI holds
//! exported streams to.
//!
//! `--follow` aggregates span lines into fixed-size log-bucketed histograms
//! as they land, so the live view costs O(engines × phases) memory no
//! matter how long the stream runs.

use probzelus_bench::json::{self, Json};
use probzelus_core::json::json_escape;
use probzelus_core::obs::{self, MetricKind};
use probzelus_core::trace;
use probzelus_core::LogHistogram;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader};
use std::process::ExitCode;

// ---------------------------------------------------------------------------
// Stream model
// ---------------------------------------------------------------------------

/// One decoded telemetry line.
#[derive(Debug)]
struct Line {
    typ: String,
    engine: Option<String>,
    tick: u64,
    name: String,
    value: Option<f64>,
    fields: Vec<(String, Json)>,
    /// Span ID (16 hex digits) for `"span"` lines.
    id: Option<String>,
    /// Parent span ID for `"span"` lines that have one.
    parent: Option<String>,
    /// Span duration for `"span"` lines.
    dur_ms: Option<f64>,
}

fn decode_line(no: usize, text: &str) -> Result<Line, String> {
    let json = json::parse(text).map_err(|e| format!("line {no}: {e}"))?;
    let typ = json
        .get("type")
        .and_then(Json::as_str)
        .ok_or(format!("line {no}: missing \"type\""))?
        .to_owned();
    let name = json
        .get("name")
        .and_then(Json::as_str)
        .ok_or(format!("line {no}: missing \"name\""))?
        .to_owned();
    let tick = json
        .get("tick")
        .and_then(Json::as_u64)
        .ok_or(format!("line {no}: missing or negative \"tick\""))?;
    let engine = json.get("engine").and_then(Json::as_str).map(str::to_owned);
    let value = json.get("value").and_then(Json::as_f64);
    let fields = match json.get("fields") {
        Some(Json::Object(fs)) => fs.clone(),
        Some(_) => return Err(format!("line {no}: \"fields\" is not an object")),
        None => Vec::new(),
    };
    let id = json.get("id").and_then(Json::as_str).map(str::to_owned);
    let parent = json.get("parent").and_then(Json::as_str).map(str::to_owned);
    let dur_ms = json.get("dur_ms").and_then(Json::as_f64);
    Ok(Line {
        typ,
        engine,
        tick,
        name,
        value,
        fields,
        id,
        parent,
        dur_ms,
    })
}

fn read_lines(path: &str) -> Result<Vec<Line>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("{path}: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        out.push(decode_line(i + 1, &line)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Validation (`--check`)
// ---------------------------------------------------------------------------

fn check_line(no: usize, line: &Line) -> Result<(), String> {
    match line.typ.as_str() {
        "counter" | "gauge" | "histogram" => {
            let desc = obs::metric(&line.name).ok_or(format!(
                "line {no}: metric \"{}\" is not in the registry",
                line.name
            ))?;
            let kind = match line.typ.as_str() {
                "counter" => MetricKind::Counter,
                "gauge" => MetricKind::Gauge,
                _ => MetricKind::Histogram,
            };
            if desc.kind != kind {
                return Err(format!(
                    "line {no}: metric \"{}\" is registered as a {}, exported as a {}",
                    line.name, desc.kind, line.typ
                ));
            }
            if line.value.is_none() {
                return Err(format!("line {no}: metric line has no numeric \"value\""));
            }
        }
        "event" => {
            let desc = obs::event_desc(&line.name).ok_or(format!(
                "line {no}: event \"{}\" is not in the registry",
                line.name
            ))?;
            for (field, _) in &line.fields {
                if !desc.fields.contains(&field.as_str()) {
                    return Err(format!(
                        "line {no}: event \"{}\" has unregistered field \"{field}\"",
                        line.name
                    ));
                }
            }
        }
        "span" => {
            trace::span_desc(&line.name).ok_or(format!(
                "line {no}: span \"{}\" is not in the registry",
                line.name
            ))?;
            let id = line
                .id
                .as_deref()
                .ok_or(format!("line {no}: span line has no \"id\""))?;
            if !is_span_id(id) {
                return Err(format!("line {no}: span id \"{id}\" is not 16 hex digits"));
            }
            if let Some(parent) = line.parent.as_deref() {
                if !is_span_id(parent) {
                    return Err(format!(
                        "line {no}: span parent \"{parent}\" is not 16 hex digits"
                    ));
                }
            }
            if line.dur_ms.is_none() {
                return Err(format!("line {no}: span line has no numeric \"dur_ms\""));
            }
        }
        other => return Err(format!("line {no}: unknown line type \"{other}\"")),
    }
    Ok(())
}

/// Span IDs are serialized as exactly 16 lowercase hex digits (a `u64`
/// survives the JSON round-trip as a string where a number would not).
fn is_span_id(s: &str) -> bool {
    s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

// ---------------------------------------------------------------------------
// Summary tables
// ---------------------------------------------------------------------------

#[derive(Default)]
struct MetricAgg {
    counter_total: f64,
    gauge_last: f64,
    gauge_min: f64,
    gauge_max: f64,
    histogram: LogHistogram,
    hist_max: Option<f64>,
    samples: usize,
}

impl MetricAgg {
    fn record_sample(&mut self, value: f64) {
        self.histogram.record(value);
        self.hist_max = Some(self.hist_max.map_or(value, |m| m.max(value)));
    }

    /// `p50 …  p90 …  max …` from the shared log-bucketed histogram
    /// (quantiles are bucket lower bounds; the max is tracked exactly).
    fn dist_summary(&self) -> String {
        format!(
            "p50 {:.4}  p90 {:.4}  max {:.4}",
            self.histogram.quantile(0.5).unwrap_or(f64::NAN),
            self.histogram.quantile(0.9).unwrap_or(f64::NAN),
            self.hist_max.unwrap_or(f64::NAN)
        )
    }
}

/// `writeln!` into a `String` (infallible).
macro_rules! out {
    ($dst:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($dst, $($arg)*);
    }};
}

fn summarize(lines: &[Line]) -> String {
    let mut report = String::new();
    // engine label -> (metric name -> aggregate)
    let mut engines: BTreeMap<String, BTreeMap<String, MetricAgg>> = BTreeMap::new();
    let mut events: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    let mut spans: BTreeMap<String, BTreeMap<String, MetricAgg>> = BTreeMap::new();
    let mut ticks: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for line in lines {
        let engine = line.engine.clone().unwrap_or_else(|| "(unscoped)".into());
        let span = ticks.entry(engine.clone()).or_insert((u64::MAX, 0));
        span.0 = span.0.min(line.tick);
        span.1 = span.1.max(line.tick);
        if line.typ == "event" {
            *events
                .entry(engine)
                .or_default()
                .entry(line.name.clone())
                .or_insert(0) += 1;
            continue;
        }
        if line.typ == "span" {
            let agg = spans
                .entry(engine)
                .or_default()
                .entry(line.name.clone())
                .or_default();
            agg.record_sample(line.dur_ms.unwrap_or(f64::NAN));
            agg.samples += 1;
            continue;
        }
        let agg = engines
            .entry(engine)
            .or_default()
            .entry(line.name.clone())
            .or_default();
        let value = line.value.unwrap_or(f64::NAN);
        match line.typ.as_str() {
            "counter" => agg.counter_total += value,
            "gauge" => {
                if agg.samples == 0 {
                    agg.gauge_min = value;
                    agg.gauge_max = value;
                } else {
                    agg.gauge_min = agg.gauge_min.min(value);
                    agg.gauge_max = agg.gauge_max.max(value);
                }
                agg.gauge_last = value;
            }
            _ => agg.record_sample(value),
        }
        agg.samples += 1;
    }

    let span_rows = |report: &mut String, engine: &str| {
        if let Some(sps) = spans.get(engine) {
            for (name, agg) in sps {
                out!(
                    report,
                    "  {:<28} {:>8}  {}",
                    format!("<{name}>"),
                    agg.samples,
                    agg.dist_summary()
                );
            }
        }
    };

    for (engine, metrics) in &engines {
        let (lo, hi) = ticks[engine];
        out!(report, "engine {engine}  (ticks {lo}..={hi})");
        out!(report, "  {:<28} {:>8}  summary", "metric", "samples");
        for (name, agg) in metrics {
            let summary = match obs::metric(name).map(|d| d.kind) {
                Some(MetricKind::Counter) => format!("total {}", agg.counter_total),
                Some(MetricKind::Histogram) | None => agg.dist_summary(),
                Some(MetricKind::Gauge) => format!(
                    "last {}  min {}  max {}",
                    agg.gauge_last, agg.gauge_min, agg.gauge_max
                ),
            };
            out!(report, "  {name:<28} {:>8}  {summary}", agg.samples);
        }
        span_rows(&mut report, engine);
        if let Some(evs) = events.get(engine) {
            for (name, count) in evs {
                out!(report, "  {:<28} {count:>8}  (events)", format!("[{name}]"));
            }
        }
        out!(report, "");
    }
    for (engine, evs) in &events {
        if engines.contains_key(engine) {
            continue;
        }
        out!(report, "engine {engine}");
        span_rows(&mut report, engine);
        for (name, count) in evs {
            out!(report, "  {:<28} {count:>8}  (events)", format!("[{name}]"));
        }
        out!(report, "");
    }
    for engine in spans.keys() {
        if engines.contains_key(engine) || events.contains_key(engine) {
            continue;
        }
        out!(report, "engine {engine}");
        span_rows(&mut report, engine);
        out!(report, "");
    }
    out!(report, "{} lines total", lines.len());
    report
}

// ---------------------------------------------------------------------------
// Schema (`--schema`)
// ---------------------------------------------------------------------------

fn schema() -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"line\": {\n");
    out.push_str(
        "    \"metric\": [\"type\", \"engine?\", \"tick\", \"name\", \"index?\", \"value\"],\n",
    );
    out.push_str("    \"event\": [\"type\", \"engine?\", \"tick\", \"name\", \"fields\"],\n");
    out.push_str(
        "    \"span\": [\"type\", \"engine?\", \"tick\", \"name\", \"id\", \"parent?\", \"index?\", \"dur_ms\"]\n  },\n",
    );
    out.push_str("  \"metrics\": [\n");
    for (i, m) in obs::METRICS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"kind\": \"{}\", \"unit\": \"{}\", \"help\": \"{}\"}}{}\n",
            m.name,
            m.kind,
            m.unit,
            json_escape(m.help),
            if i + 1 < obs::METRICS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"events\": [\n");
    for (i, e) in obs::EVENTS.iter().enumerate() {
        let fields: Vec<String> = e.fields.iter().map(|f| format!("\"{f}\"")).collect();
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"fields\": [{}], \"help\": \"{}\"}}{}\n",
            e.name,
            fields.join(", "),
            json_escape(e.help),
            if i + 1 < obs::EVENTS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"spans\": [\n");
    for (i, s) in trace::SPANS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"help\": \"{}\"}}{}\n",
            s.name,
            json_escape(s.doc),
            if i + 1 < trace::SPANS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The registry rendered as the markdown checked in at `docs/METRICS.md`.
/// CI regenerates this and fails when the checked-in file drifts.
fn schema_md() -> String {
    let mut out = String::new();
    out!(out, "# Telemetry schema");
    out!(out, "");
    out!(
        out,
        "<!-- Generated by `obsreport --schema-md`. Do not edit by hand. -->"
    );
    out!(
        out,
        "<!-- Regenerate: cargo run -p probzelus-bench --bin obsreport -- --schema-md > docs/METRICS.md -->"
    );
    out!(out, "");
    out!(
        out,
        "JSONL line shapes exported by `WriterSink` (`?` marks optional fields):"
    );
    out!(out, "");
    out!(
        out,
        "- **metric** — `type`, `engine?`, `tick`, `name`, `index?`, `value`"
    );
    out!(
        out,
        "- **event** — `type`, `engine?`, `tick`, `name`, `fields`"
    );
    out!(
        out,
        "- **span** — `type`, `engine?`, `tick`, `name`, `id`, `parent?`, `index?`, `dur_ms`"
    );
    out!(out, "");
    out!(
        out,
        "Span IDs are 16 lowercase hex digits, deterministic in `(seed, tick)`;"
    );
    out!(
        out,
        "see DESIGN.md §2.11 for the derivation and the flight-recorder dump format."
    );
    out!(out, "");
    out!(out, "## Metrics");
    out!(out, "");
    out!(out, "| name | kind | unit | help |");
    out!(out, "|---|---|---|---|");
    for m in obs::METRICS {
        let unit = if m.unit.is_empty() { "—" } else { m.unit };
        out!(out, "| `{}` | {} | {} | {} |", m.name, m.kind, unit, m.help);
    }
    out!(out, "");
    out!(out, "## Events");
    out!(out, "");
    out!(out, "| name | fields | help |");
    out!(out, "|---|---|---|");
    for e in obs::EVENTS {
        let fields: Vec<String> = e.fields.iter().map(|f| format!("`{f}`")).collect();
        out!(out, "| `{}` | {} | {} |", e.name, fields.join(", "), e.help);
    }
    out!(out, "");
    out!(out, "## Spans");
    out!(out, "");
    out!(out, "| name | help |");
    out!(out, "|---|---|");
    for s in trace::SPANS {
        out!(out, "| `{}` | {} |", s.name, s.doc);
    }
    out
}

/// Writes to stdout, tolerating a closed pipe (`obsreport file | head`).
fn emit(text: &str) {
    use std::io::Write as _;
    let _ = io::stdout().write_all(text.as_bytes());
}

// ---------------------------------------------------------------------------
// Live aggregation (`--follow`)
// ---------------------------------------------------------------------------

/// Per-phase running aggregate: a fixed-size log-bucketed histogram plus
/// the exact total and max. Constant memory regardless of stream length.
#[derive(Default)]
struct PhaseAgg {
    hist: LogHistogram,
    total_ms: f64,
    max_ms: f64,
    samples: u64,
}

/// Everything `--follow` keeps between refreshes.
#[derive(Default)]
struct FollowState {
    /// engine label -> span name -> aggregate.
    engines: BTreeMap<String, BTreeMap<String, PhaseAgg>>,
    spans_seen: u64,
    other_lines: u64,
}

impl FollowState {
    fn ingest(&mut self, line: &Line) {
        if line.typ != "span" {
            self.other_lines += 1;
            return;
        }
        let Some(dur) = line.dur_ms else { return };
        self.spans_seen += 1;
        let engine = line.engine.clone().unwrap_or_else(|| "(unscoped)".into());
        let agg = self
            .engines
            .entry(engine)
            .or_default()
            .entry(line.name.clone())
            .or_default();
        agg.hist.record(dur);
        agg.total_ms += dur;
        agg.max_ms = agg.max_ms.max(dur);
        agg.samples += 1;
    }

    /// Renders the per-phase latency table and the critical-path line for
    /// each engine. Quantiles come from the shared log histogram (bucket
    /// lower bounds); `% tick` is each phase's share of total `tick` time,
    /// so `pool.job` can exceed 100% when jobs overlap across workers.
    fn render(&self) -> String {
        let mut out = String::new();
        out!(
            out,
            "{} spans aggregated ({} non-span lines)",
            self.spans_seen,
            self.other_lines
        );
        for (engine, phases) in &self.engines {
            let tick_total = phases
                .get(trace::spans::TICK)
                .map(|a| a.total_ms)
                .filter(|t| *t > 0.0);
            out!(out, "");
            out!(out, "engine {engine}");
            out!(
                out,
                "  {:<24} {:>7} {:>10} {:>10} {:>10} {:>8}",
                "span",
                "count",
                "p50 ms",
                "p99 ms",
                "max ms",
                "% tick"
            );
            for (name, agg) in phases {
                let share = match tick_total {
                    Some(total) if name != trace::spans::TICK => {
                        format!("{:>7.1}%", 100.0 * agg.total_ms / total)
                    }
                    _ => format!("{:>8}", "-"),
                };
                out!(
                    out,
                    "  {:<24} {:>7} {:>10.4} {:>10.4} {:>10.4} {share}",
                    name,
                    agg.samples,
                    agg.hist.quantile(0.5).unwrap_or(f64::NAN),
                    agg.hist.quantile(0.99).unwrap_or(f64::NAN),
                    agg.max_ms
                );
            }
            // The phase with the largest cumulative time is the tick's
            // critical path; pool.job is nested inside propose and eval.tick
            // is the driver root, so neither competes.
            let critical = phases
                .iter()
                .filter(|(name, _)| {
                    name.as_str() != trace::spans::TICK
                        && name.as_str() != trace::spans::POOL_JOB
                        && name.as_str() != trace::spans::EVAL
                })
                .max_by(|a, b| a.1.total_ms.total_cmp(&b.1.total_ms));
            if let (Some((name, agg)), Some(total)) = (critical, tick_total) {
                out!(
                    out,
                    "  critical path: {name} ({:.1}% of tick time)",
                    100.0 * agg.total_ms / total
                );
            }
        }
        out
    }
}

/// Tails `path`, re-rendering the aggregate table as span lines land.
/// With `--idle-exit SECS`, exits cleanly once the file has been quiet that
/// long (how CI and the README walkthrough use it); without it, follows
/// until interrupted. Truncation (a fresh export to the same path) resets
/// the aggregates.
fn follow(path: &str, idle_exit: Option<f64>) -> ExitCode {
    use std::io::{Read as _, Seek as _};
    let mut state = FollowState::default();
    let mut offset: u64 = 0;
    let mut pending = String::new();
    let mut lineno = 0usize;
    let mut last_data = std::time::Instant::now();
    loop {
        let mut new_data = false;
        if let Ok(mut file) = std::fs::File::open(path) {
            let len = file.metadata().map(|m| m.len()).unwrap_or(0);
            if len < offset {
                // The file was truncated under us: start over.
                offset = 0;
                pending.clear();
                lineno = 0;
                state = FollowState::default();
            }
            if len > offset && file.seek(io::SeekFrom::Start(offset)).is_ok() {
                let mut buf = String::new();
                if file.read_to_string(&mut buf).is_ok() {
                    offset += buf.len() as u64;
                    pending.push_str(&buf);
                    while let Some(nl) = pending.find('\n') {
                        let line: String = pending.drain(..=nl).collect();
                        let text = line.trim();
                        if text.is_empty() {
                            continue;
                        }
                        lineno += 1;
                        if let Ok(decoded) = decode_line(lineno, text) {
                            state.ingest(&decoded);
                            new_data = true;
                        }
                    }
                }
            }
        }
        if new_data {
            last_data = std::time::Instant::now();
            emit(&format!("\x1b[2J\x1b[H{}", state.render()));
        }
        if let Some(limit) = idle_exit {
            if last_data.elapsed().as_secs_f64() >= limit {
                emit(&state.render());
                return ExitCode::SUCCESS;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

const USAGE: &str = "usage: obsreport [summary] <file.jsonl> | --check <file.jsonl> | --schema | --schema-md | --follow <file.jsonl> [--idle-exit SECS]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--schema"] => {
            emit(&schema());
            ExitCode::SUCCESS
        }
        ["--schema-md"] => {
            emit(&schema_md());
            ExitCode::SUCCESS
        }
        ["--follow", path] => follow(path, None),
        ["--follow", path, "--idle-exit", secs] => match secs.parse::<f64>() {
            Ok(s) if s >= 0.0 => follow(path, Some(s)),
            _ => {
                eprintln!("--idle-exit expects a non-negative number of seconds");
                ExitCode::from(2)
            }
        },
        ["--check", path] => match read_lines(path) {
            Ok(lines) => {
                let mut bad = 0usize;
                for (i, line) in lines.iter().enumerate() {
                    if let Err(e) = check_line(i + 1, line) {
                        eprintln!("{e}");
                        bad += 1;
                    }
                }
                if bad == 0 {
                    emit(&format!(
                        "ok: {} lines conform to the registry\n",
                        lines.len()
                    ));
                    ExitCode::SUCCESS
                } else {
                    eprintln!("{bad} of {} lines failed validation", lines.len());
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        [path] | ["summary", path] if !path.starts_with('-') => match read_lines(path) {
            Ok(lines) => {
                emit(&summarize(&lines));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_writer_sink_lines() {
        let line = decode_line(
            1,
            "{\"type\":\"gauge\",\"engine\":\"SDS\",\"tick\":12,\"name\":\"ds.live_nodes\",\"value\":3.0}",
        )
        .expect("parses");
        assert_eq!(line.typ, "gauge");
        assert_eq!(line.engine.as_deref(), Some("SDS"));
        assert_eq!(line.tick, 12);
        assert_eq!(line.value, Some(3.0));
        assert!(check_line(1, &line).is_ok());
    }

    #[test]
    fn parses_events_and_escapes() {
        let line = decode_line(
            1,
            "{\"type\":\"event\",\"engine\":\"PF\",\"tick\":8,\"name\":\"recovery\",\"fields\":{\"particle\":1,\"fault\":\"a \\\"quoted\\\"\\nfault\",\"action\":\"quarantined\"}}",
        )
        .expect("parses");
        assert_eq!(line.fields.len(), 3);
        assert_eq!(
            line.fields[1].1,
            Json::Str("a \"quoted\"\nfault".to_owned())
        );
        assert!(check_line(1, &line).is_ok());
    }

    #[test]
    fn nonfinite_values_round_trip() {
        let line = decode_line(
            1,
            "{\"type\":\"gauge\",\"tick\":0,\"name\":\"step.log_evidence\",\"value\":\"-inf\"}",
        )
        .expect("parses");
        assert_eq!(line.value, Some(f64::NEG_INFINITY));
        assert!(check_line(1, &line).is_ok());
    }

    #[test]
    fn check_rejects_unregistered_and_miskinded_lines() {
        let unregistered = decode_line(
            1,
            "{\"type\":\"gauge\",\"tick\":0,\"name\":\"no.such.metric\",\"value\":1.0}",
        )
        .expect("parses");
        assert!(check_line(1, &unregistered).is_err());
        let miskinded = decode_line(
            1,
            "{\"type\":\"counter\",\"tick\":0,\"name\":\"step.ess\",\"value\":1.0}",
        )
        .expect("parses");
        assert!(check_line(1, &miskinded).is_err());
        let bad_field = decode_line(
            1,
            "{\"type\":\"event\",\"tick\":0,\"name\":\"recovery\",\"fields\":{\"bogus\":1}}",
        )
        .expect("parses");
        assert!(check_line(1, &bad_field).is_err());
    }

    #[test]
    fn parses_and_checks_span_lines() {
        let line = decode_line(
            1,
            "{\"type\":\"span\",\"engine\":\"PF\",\"tick\":3,\"name\":\"tick.propose\",\"id\":\"00ff00ff00ff00ff\",\"parent\":\"0123456789abcdef\",\"dur_ms\":0.25}",
        )
        .expect("parses");
        assert_eq!(line.typ, "span");
        assert_eq!(line.id.as_deref(), Some("00ff00ff00ff00ff"));
        assert_eq!(line.parent.as_deref(), Some("0123456789abcdef"));
        assert_eq!(line.dur_ms, Some(0.25));
        assert!(check_line(1, &line).is_ok());
    }

    #[test]
    fn check_rejects_malformed_spans() {
        let unregistered = decode_line(
            1,
            "{\"type\":\"span\",\"tick\":0,\"name\":\"no.such.span\",\"id\":\"00ff00ff00ff00ff\",\"dur_ms\":1.0}",
        )
        .expect("parses");
        assert!(check_line(1, &unregistered).is_err());
        let bad_id = decode_line(
            1,
            "{\"type\":\"span\",\"tick\":0,\"name\":\"tick\",\"id\":\"xyz\",\"dur_ms\":1.0}",
        )
        .expect("parses");
        assert!(check_line(1, &bad_id).is_err());
        let no_dur = decode_line(
            1,
            "{\"type\":\"span\",\"tick\":0,\"name\":\"tick\",\"id\":\"00ff00ff00ff00ff\"}",
        )
        .expect("parses");
        assert!(check_line(1, &no_dur).is_err());
    }

    #[test]
    fn follow_state_aggregates_and_renders_phases() {
        let mut state = FollowState::default();
        let lines = [
            "{\"type\":\"span\",\"engine\":\"PF\",\"tick\":0,\"name\":\"tick\",\"id\":\"00ff00ff00ff00ff\",\"dur_ms\":10.0}",
            "{\"type\":\"span\",\"engine\":\"PF\",\"tick\":0,\"name\":\"tick.propose\",\"id\":\"01ff00ff00ff00ff\",\"parent\":\"00ff00ff00ff00ff\",\"dur_ms\":8.0}",
            "{\"type\":\"span\",\"engine\":\"PF\",\"tick\":0,\"name\":\"tick.score\",\"id\":\"02ff00ff00ff00ff\",\"parent\":\"00ff00ff00ff00ff\",\"dur_ms\":1.0}",
            "{\"type\":\"gauge\",\"engine\":\"PF\",\"tick\":0,\"name\":\"step.ess\",\"value\":40.0}",
        ];
        for (i, text) in lines.iter().enumerate() {
            state.ingest(&decode_line(i + 1, text).expect("parses"));
        }
        assert_eq!(state.spans_seen, 3);
        assert_eq!(state.other_lines, 1);
        let table = state.render();
        assert!(table.contains("engine PF"));
        assert!(table.contains("tick.propose"));
        // propose dominates: 8 of 10 tick-ms.
        assert!(table.contains("critical path: tick.propose (80.0% of tick time)"));
    }

    #[test]
    fn schema_md_lists_all_registries() {
        let md = schema_md();
        for m in obs::METRICS {
            assert!(md.contains(m.name), "missing metric {}", m.name);
        }
        for e in obs::EVENTS {
            assert!(md.contains(e.name), "missing event {}", e.name);
        }
        for s in trace::SPANS {
            assert!(md.contains(s.name), "missing span {}", s.name);
        }
    }
}
