//! Tick-anatomy tracing: phase spans and the flight recorder.
//!
//! The `obs` metrics (see [`crate::obs`]) say *that* a tick was slow,
//! collapsed, or faulted; spans say *where inside the tick* the time or
//! the corruption went. Each engine step emits a small, fixed tree of
//! spans:
//!
//! ```text
//! tick                        (root; one per engine step)
//! ├── tick.propose            (particle stepping)
//! │   └── pool.job × jobs     (parallel stepping only; one per shard)
//! ├── tick.score              (deferred weight flush + non-finite scan)
//! ├── tick.recover            (fault repair; only when faults fired)
//! ├── tick.resample           (only when the policy fired)
//! └── tick.adaptive_decision  (only when a deadline decision applied)
//! ```
//!
//! The µF interpreter additionally emits one `eval.tick` root span per
//! driver tick (embedded `infer` engines produce their own `tick` trees).
//!
//! **Deterministic IDs.** A span's ID is a pure function of
//! `(engine_seed, tick, phase, index)` via the same SplitMix64 sponge the
//! RNG streams use — no global counters, no addresses, no clocks. Two
//! runs with the same seed and inputs therefore produce *bit-identical
//! span trees* (IDs, parents, names, ticks); only the measured `dur_ms`
//! payloads differ. Semantic spans (`tick`, its phase children, and
//! `eval.tick`) are also invariant across `Parallelism` worker counts and
//! particle layouts; `pool.job` spans are *schedule* spans — their count
//! equals the shard count, so they are excluded from cross-worker
//! comparisons (`tests/worker_equiv.rs` pins both properties).
//!
//! **Flight recorder.** [`FlightRecorder`] keeps the most recent spans in
//! a fixed-capacity ring — cheap enough to leave on permanently — and
//! dumps them as a self-contained JSONL black box (validated by
//! `obsreport --check`) when the engine hits an incident: a particle
//! fault, a spent collapse-retry budget, or a deadline floor degradation.

use crate::obs::{event_json_line, span_json_line, FieldValue};
use crate::rngstream::stream_seed;
use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// Domain tag for span-ID derivation, disjoint from every RNG domain in
/// [`crate::rngstream`].
pub const SPAN_DOMAIN: u64 = 0x5350_414e_5452_4545; // "SPANTREE"

/// One entry of the closed span registry.
#[derive(Debug, Clone, Copy)]
pub struct SpanDesc {
    /// Wire name (the `"name"` field of a span line).
    pub name: &'static str,
    /// Human description for `obsreport --schema` / `docs/METRICS.md`.
    pub doc: &'static str,
}

/// Span names. Like `obs::names`, the registry is closed: exporters and
/// validators agree on this exact set.
pub mod spans {
    /// Root span of one engine step.
    pub const TICK: &str = "tick";
    /// Particle proposal/stepping phase (model step + inline scoring).
    pub const PROPOSE: &str = "tick.propose";
    /// Weight materialization: deferred SoA score flush, the non-finite
    /// weight scan, normalization/ESS, and posterior assembly.
    pub const SCORE: &str = "tick.score";
    /// Fault repair pass (present only on ticks with particle faults).
    pub const RECOVER: &str = "tick.recover";
    /// Resampling pass (present only when the policy fired).
    pub const RESAMPLE: &str = "tick.resample";
    /// Application of a deadline-controller decision.
    pub const ADAPTIVE_DECISION: &str = "tick.adaptive_decision";
    /// One sharded stepping job on the worker pool (schedule span: the
    /// count varies with the worker count).
    pub const POOL_JOB: &str = "pool.job";
    /// One driver tick of the µF interpreter (its own root; embedded
    /// `infer` engines emit separate `tick` trees).
    pub const EVAL: &str = "eval.tick";
    /// One driver tick of a µF program whose engines run the compiled
    /// instruction-tape backend (same shape as `eval.tick`; the distinct
    /// name lets latency comparisons split by backend).
    pub const EVAL_TAPE: &str = "eval.tick.tape";
}

/// The closed span registry. Order is the phase code used in span-ID
/// derivation, so it is append-only: inserting in the middle would change
/// every ID after it.
pub const SPANS: &[SpanDesc] = &[
    SpanDesc {
        name: spans::TICK,
        doc: "root span of one engine step",
    },
    SpanDesc {
        name: spans::PROPOSE,
        doc: "particle proposal/stepping phase",
    },
    SpanDesc {
        name: spans::SCORE,
        doc: "weight materialization: score flush, non-finite scan, posterior assembly",
    },
    SpanDesc {
        name: spans::RECOVER,
        doc: "per-particle fault repair pass",
    },
    SpanDesc {
        name: spans::RESAMPLE,
        doc: "resampling pass over the particle cloud",
    },
    SpanDesc {
        name: spans::ADAPTIVE_DECISION,
        doc: "application of a deadline-controller decision",
    },
    SpanDesc {
        name: spans::POOL_JOB,
        doc: "one sharded stepping job on the worker pool (schedule span)",
    },
    SpanDesc {
        name: spans::EVAL,
        doc: "one driver tick of the muF interpreter",
    },
    SpanDesc {
        name: spans::EVAL_TAPE,
        doc: "one driver tick of the muF interpreter with tape-backed engines",
    },
];

/// Phase codes — positions in [`SPANS`] — as named constants, so hot
/// emission sites need no registry scan (and no fallible lookup).
pub mod phases {
    /// [`super::spans::TICK`].
    pub const TICK: u64 = 0;
    /// [`super::spans::PROPOSE`].
    pub const PROPOSE: u64 = 1;
    /// [`super::spans::SCORE`].
    pub const SCORE: u64 = 2;
    /// [`super::spans::RECOVER`].
    pub const RECOVER: u64 = 3;
    /// [`super::spans::RESAMPLE`].
    pub const RESAMPLE: u64 = 4;
    /// [`super::spans::ADAPTIVE_DECISION`].
    pub const ADAPTIVE_DECISION: u64 = 5;
    /// [`super::spans::POOL_JOB`].
    pub const POOL_JOB: u64 = 6;
    /// [`super::spans::EVAL`].
    pub const EVAL: u64 = 7;
    /// [`super::spans::EVAL_TAPE`].
    pub const EVAL_TAPE: u64 = 8;
}

/// Looks a span up in the registry.
pub fn span_desc(name: &str) -> Option<&'static SpanDesc> {
    SPANS.iter().find(|d| d.name == name)
}

/// The phase code of a registered span: its position in [`SPANS`].
pub fn phase_code(name: &str) -> Option<u64> {
    SPANS.iter().position(|d| d.name == name).map(|i| i as u64)
}

/// Derives a span ID from `(engine_seed, tick, phase, index)`. Pure and
/// clock-free, so replayed runs rebuild identical trees. `phase` is the
/// [`SPANS`] position; `index` distinguishes siblings of the same phase
/// (job index for `pool.job`, 0 elsewhere) and must stay below 2⁵⁶.
pub fn span_id(seed: u64, tick: u64, phase: u64, index: u64) -> u64 {
    stream_seed(seed, SPAN_DOMAIN, tick, (phase << 56) | index)
}

/// One completed span. The identity fields (`tick`, `name`, `id`,
/// `parent`, `index`) are deterministic; `dur_ms` is the one wall-clock
/// payload.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Engine step the span belongs to.
    pub tick: u64,
    /// Registered span name.
    pub name: &'static str,
    /// Deterministic span ID ([`span_id`]).
    pub id: u64,
    /// Parent span ID (`None` for roots).
    pub parent: Option<u64>,
    /// Sibling index for fan-out spans (`pool.job`), `None` elsewhere.
    pub index: Option<u64>,
    /// Measured duration in milliseconds.
    pub dur_ms: f64,
}

/// Incident labels used as the `reason` field of a `blackbox.dump` event.
pub mod incidents {
    /// At least one particle faulted this tick (`Health::faults`).
    pub const PARTICLE_FAULT: &str = "particle_fault";
    /// The collapse retry budget was exhausted
    /// (`RuntimeError::CollapseBudgetExhausted`).
    pub const COLLAPSE_EXHAUSTED: &str = "collapse_exhausted";
    /// The deadline controller degraded to the floor
    /// (`DeadlineAction::FloorDegraded`).
    pub const FLOOR_DEGRADED: &str = "floor_degraded";
}

/// A fixed-capacity ring of recent spans — the always-on black box.
///
/// Recording is one short `Mutex` hold and at most one `VecDeque`
/// rotation; there is no allocation after the ring fills. The lock
/// shrugs off poisoning (`PoisonError::into_inner`): a recorder that
/// stopped recording *because* something panicked would be useless as a
/// black box.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<VecDeque<SpanRecord>>,
    capacity: usize,
}

impl FlightRecorder {
    /// Default ring capacity. A tick produces ~6 semantic spans plus one
    /// `pool.job` per shard, so 1024 slots hold the last ~170 sequential
    /// ticks (or ~70 ticks with an 8-worker pool) — dozens of complete
    /// tick trees around any incident.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// A recorder holding at most `capacity` spans (minimum 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    /// Ring capacity in spans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one span, evicting the oldest when full.
    pub fn record(&self, span: &SpanRecord) {
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(span.clone());
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True iff nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the ring contents, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Empties the ring.
    pub fn clear(&self) {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Writes the black box: one `blackbox.dump` event line carrying the
    /// incident `reason` and span count, then every held span as a JSONL
    /// span line (oldest first) — the exact wire format `WriterSink`
    /// emits, so the dump validates under `obsreport --check`. Returns
    /// the number of spans written.
    pub fn dump_to<W: Write>(
        &self,
        out: &mut W,
        scope: Option<&str>,
        reason: &str,
        tick: u64,
    ) -> std::io::Result<usize> {
        let spans = self.snapshot();
        let header = event_json_line(
            scope,
            tick,
            crate::obs::events::BLACKBOX_DUMP,
            &[
                ("reason", FieldValue::Text(reason)),
                ("spans", FieldValue::Int(spans.len() as i64)),
            ],
        );
        out.write_all(header.as_bytes())?;
        out.write_all(b"\n")?;
        for span in &spans {
            out.write_all(span_json_line(scope, span).as_bytes())?;
            out.write_all(b"\n")?;
        }
        out.flush()?;
        Ok(spans.len())
    }

    /// [`Self::dump_to`] into a freshly created (truncated) file: the
    /// black box always holds the latest incident.
    pub fn dump(
        &self,
        path: &Path,
        scope: Option<&str>,
        reason: &str,
        tick: u64,
    ) -> std::io::Result<usize> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.dump_to(&mut file, scope, reason, tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        for (i, d) in SPANS.iter().enumerate() {
            assert!(!d.doc.is_empty(), "{} lacks a doc", d.name);
            assert_eq!(phase_code(d.name), Some(i as u64), "{}", d.name);
            assert_eq!(span_desc(d.name).map(|x| x.name), Some(d.name));
            for other in &SPANS[i + 1..] {
                assert_ne!(d.name, other.name, "duplicate span name");
            }
        }
        assert!(span_desc("tick.imaginary").is_none());
    }

    #[test]
    fn phase_constants_match_registry_positions() {
        for (code, name) in [
            (phases::TICK, spans::TICK),
            (phases::PROPOSE, spans::PROPOSE),
            (phases::SCORE, spans::SCORE),
            (phases::RECOVER, spans::RECOVER),
            (phases::RESAMPLE, spans::RESAMPLE),
            (phases::ADAPTIVE_DECISION, spans::ADAPTIVE_DECISION),
            (phases::POOL_JOB, spans::POOL_JOB),
            (phases::EVAL, spans::EVAL),
            (phases::EVAL_TAPE, spans::EVAL_TAPE),
        ] {
            assert_eq!(phase_code(name), Some(code), "{name}");
        }
    }

    #[test]
    fn span_ids_are_deterministic_and_distinct() {
        assert_eq!(span_id(7, 3, 1, 0), span_id(7, 3, 1, 0));
        let mut seen = std::collections::HashSet::new();
        for tick in 0..32u64 {
            for phase in 0..SPANS.len() as u64 {
                for index in 0..4u64 {
                    assert!(
                        seen.insert(span_id(42, tick, phase, index)),
                        "collision at ({tick}, {phase}, {index})"
                    );
                }
            }
        }
        assert_ne!(span_id(1, 0, 0, 0), span_id(2, 0, 0, 0), "seed ignored");
    }

    fn span(tick: u64, id: u64) -> SpanRecord {
        SpanRecord {
            tick,
            name: spans::TICK,
            id,
            parent: None,
            index: None,
            dur_ms: 0.5,
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_spans() {
        let rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.record(&span(i, i));
        }
        let held: Vec<u64> = rec.snapshot().iter().map(|s| s.id).collect();
        assert_eq!(held, vec![2, 3, 4]);
        assert_eq!(rec.len(), 3);
        rec.clear();
        assert!(rec.is_empty());
    }

    #[test]
    fn dump_emits_header_then_spans_oldest_first() {
        let rec = FlightRecorder::new(8);
        rec.record(&span(1, 10));
        rec.record(&span(2, 11));
        let mut out = Vec::new();
        let n = rec
            .dump_to(&mut out, Some("SDS"), incidents::PARTICLE_FAULT, 2)
            .expect("vec write");
        assert_eq!(n, 2);
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].contains("\"type\":\"event\"")
                && lines[0].contains("\"name\":\"blackbox.dump\"")
                && lines[0].contains("\"reason\":\"particle_fault\"")
                && lines[0].contains("\"spans\":2"),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"type\":\"span\""), "{}", lines[1]);
        assert!(lines[1].contains("\"tick\":1") && lines[2].contains("\"tick\":2"));
    }
}
