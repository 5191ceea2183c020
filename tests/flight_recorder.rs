//! The black-box flight recorder end to end: a scheduled chaos fault on
//! the Kalman/hmm engine must dump the span ring, and the dump must hold
//! the faulting tick's complete span tree with parent/child IDs intact.
//! Compiled only with `--features chaos`.
#![cfg(feature = "chaos")]

use probzelus::core::chaos::{ChaosFault, ChaosModel};
use probzelus::core::infer::{Infer, Method};
use probzelus::core::supervisor::RecoveryPolicy;
use probzelus::core::trace::{self, incidents, phases, spans};
use probzelus::models::Kalman;
use std::path::PathBuf;

const SEED: u64 = 17;
const FAULT_TICK: u64 = 6;

/// Where the dump lands: `PZ_BLACKBOX_OUT` if set (CI collects it as an
/// artifact), a temp file otherwise.
fn black_box_path() -> PathBuf {
    match std::env::var("PZ_BLACKBOX_OUT") {
        Ok(p) if !p.is_empty() => PathBuf::from(p),
        _ => std::env::temp_dir().join("pz_flight_recorder_blackbox.jsonl"),
    }
}

/// Pulls a `"key":"text"` field out of a JSONL line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Pulls a `"key":123` numeric field out of a JSONL line.
fn num_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn hex_id(seed: u64, tick: u64, phase: u64) -> String {
    format!("{:016x}", trace::span_id(seed, tick, phase, 0))
}

#[test]
fn chaos_fault_dumps_the_faulting_ticks_complete_span_tree() {
    let path = black_box_path();
    std::fs::remove_file(&path).ok();

    // Every particle hits an injected host error at FAULT_TICK; with a
    // non-FailFast policy the tick completes, the fault counts as an
    // incident, and the recorder dumps the ring.
    let model = ChaosModel::new(
        Kalman::default(),
        vec![(FAULT_TICK, ChaosFault::HostError { prob: 1.0 })],
    );
    let mut engine = Infer::with_seed(Method::ParticleFilter, 8, model, SEED)
        .with_recovery_policy(RecoveryPolicy::Rejuvenate)
        .with_black_box(&path);
    for t in 0..=FAULT_TICK {
        engine
            .step(&(t as f64 * 0.1).sin())
            .expect("non-FailFast recovery keeps the stream alive");
    }

    let text = std::fs::read_to_string(&path).expect("incident dumped a black box");
    let mut lines = text.lines();

    // Header: a blackbox.dump event naming the incident and span count.
    let header = lines.next().expect("dump has a header line");
    assert_eq!(str_field(header, "type").as_deref(), Some("event"));
    assert_eq!(
        str_field(header, "name").as_deref(),
        Some("blackbox.dump"),
        "header: {header}"
    );
    assert_eq!(
        str_field(header, "reason").as_deref(),
        Some(incidents::PARTICLE_FAULT),
        "header: {header}"
    );
    assert_eq!(num_field(header, "tick"), Some(FAULT_TICK));
    let body: Vec<&str> = lines.collect();
    assert_eq!(
        num_field(header, "spans").map(|n| n as usize),
        Some(body.len()),
        "span count in the header matches the body"
    );

    // Body: every line is a span; the ring covers every tick up to and
    // including the faulting one (well under ring capacity here).
    for line in &body {
        assert_eq!(
            str_field(line, "type").as_deref(),
            Some("span"),
            "body line: {line}"
        );
        assert_eq!(str_field(line, "engine").as_deref(), Some("PF"));
    }
    for t in 0..=FAULT_TICK {
        assert!(
            body.iter().any(|l| num_field(l, "tick") == Some(t)
                && str_field(l, "name").as_deref() == Some(spans::TICK)),
            "ring holds tick {t}'s root span"
        );
    }

    // The faulting tick's tree: the root id is the deterministic
    // span_id(seed, tick, TICK, 0), and every phase span of that tick is
    // parented under it. A fault tick must show propose (the work that
    // faulted), recover (the repair), and score.
    let tick_id = hex_id(SEED, FAULT_TICK, phases::TICK);
    let fault_spans: Vec<&&str> = body
        .iter()
        .filter(|l| num_field(l, "tick") == Some(FAULT_TICK))
        .collect();
    let root = fault_spans
        .iter()
        .find(|l| str_field(l, "name").as_deref() == Some(spans::TICK))
        .expect("fault tick has a root span");
    assert_eq!(str_field(root, "id").as_deref(), Some(tick_id.as_str()));
    assert!(
        str_field(root, "parent").is_none(),
        "the tick root has no parent: {root}"
    );
    for (name, phase) in [
        (spans::PROPOSE, phases::PROPOSE),
        (spans::RECOVER, phases::RECOVER),
        (spans::SCORE, phases::SCORE),
    ] {
        let line = fault_spans
            .iter()
            .find(|l| str_field(l, "name").as_deref() == Some(name))
            .unwrap_or_else(|| panic!("fault tick is missing its {name} span"));
        assert_eq!(
            str_field(line, "id").as_deref(),
            Some(hex_id(SEED, FAULT_TICK, phase).as_str()),
            "{name} id is deterministic"
        );
        assert_eq!(
            str_field(line, "parent").as_deref(),
            Some(tick_id.as_str()),
            "{name} is parented under the tick root"
        );
    }
    // Tree closure: every non-root span of the fault tick points at the
    // root (sequential run — no pool.job spans interleave).
    for line in &fault_spans {
        if str_field(line, "name").as_deref() == Some(spans::TICK) {
            continue;
        }
        assert_eq!(
            str_field(line, "parent").as_deref(),
            Some(tick_id.as_str()),
            "orphan span in the fault tick: {line}"
        );
        assert!(
            str_field(line, "dur_ms").is_none() && line.contains("\"dur_ms\":"),
            "span carries a numeric duration: {line}"
        );
    }

    if std::env::var("PZ_BLACKBOX_OUT").is_err() {
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn latest_incident_wins_and_ring_survives_reset() {
    let path = std::env::temp_dir().join("pz_flight_recorder_latest.jsonl");
    std::fs::remove_file(&path).ok();

    // Two scheduled partial faults (survivors donate rejuvenation
    // clones, so the particles' schedules stay aligned with the stream):
    // the dump on disk must describe the second incident.
    let model = ChaosModel::new(
        Kalman::default(),
        vec![
            (3, ChaosFault::HostError { prob: 0.5 }),
            (9, ChaosFault::HostError { prob: 0.5 }),
        ],
    );
    let mut engine = Infer::with_seed(Method::StreamingDs, 4, model, SEED)
        .with_recovery_policy(RecoveryPolicy::Rejuvenate)
        .with_black_box(&path);
    for t in 0..12 {
        engine.step(&(t as f64 * 0.1).sin()).unwrap();
    }

    let text = std::fs::read_to_string(&path).unwrap();
    let header = text.lines().next().unwrap();
    assert_eq!(num_field(header, "tick"), Some(9), "latest incident wins");
    assert_eq!(str_field(header, "engine").as_deref(), Some("SDS"));

    // The ring is an engine-lifetime artifact: reset() rewinds the
    // stream clock but keeps the recorded history for post-mortems.
    let held = engine.flight_recorder().expect("recorder armed").len();
    assert!(held > 0);
    engine.reset();
    assert_eq!(engine.flight_recorder().unwrap().len(), held);

    std::fs::remove_file(&path).ok();
}
