//! `perfbench` — the machine-readable perf-trajectory harness.
//!
//! Runs the PF / BDS / SDS engines over the `hmm` (Kalman) and `robot`
//! (GPS+accelerometer tracker) benchmarks with fixed seeds and appends one
//! schema-stable JSON object per run to `BENCH_step_latency.json`, so the
//! repository accumulates a perf trajectory across PRs that tooling can
//! diff without scraping logs.
//!
//! ```text
//! perfbench [--quick] [--label NAME] [--out PATH] [--fresh]
//! perfbench --dsl [--backend interp|tape|both]
//!                            # DSL hmm.zl + robot.zl: unopt vs opt µF
//!                            # interpreter vs compiled instruction tape
//! perfbench --check PATH     # validate an existing trajectory file
//! perfbench --compare A B    # diff two labels; fail on drift/regression
//! ```
//!
//! `--dsl` compiles `examples/zelus/hmm.zl` and `examples/zelus/robot.zl`
//! twice — through the plain pipeline and through the optimizing pass
//! pipeline (`pzc opt`) — and drives the µF engines over the same
//! observations: the unoptimized interpreter, the optimized interpreter,
//! and (per `--backend`) the optimized program on the flat instruction
//! tape. It asserts the posteriors are **bit-identical at every tick**
//! across every engine pair before recording the rows, so a throughput
//! win in the trajectory is guaranteed to come from the optimizer or the
//! tape backend and not from a semantic drift.
//!
//! `--compare A B` reads the trajectory file back, matches label-A rows
//! against label-B rows by (bench, method), prints the per-row
//! speedup, and exits nonzero when a posterior differs by a single bit or
//! B regresses by more than 5% — the CI gate for backend claims.
//!
//! Timing numbers are machine-dependent; everything else in an entry —
//! seeds, counts, the final posterior mean, clones avoided — is
//! deterministic, which is what makes before/after rows comparable.

use probzelus::models::{generate_kalman, Kalman};
use probzelus::robot::{GpsAccTracker, TrackerInput};
use probzelus_bench::json::{self, Json};
use probzelus_bench::DATA_SEED;
use probzelus_core::infer::{Infer, Method};
use probzelus_core::json::json_escape;
use probzelus_core::model::Model;
use probzelus_core::LogHistogram;
use std::time::Instant;

/// Engine seed, distinct from the data seed so neither masks the other.
const ENGINE_SEED: u64 = 0xbe_a5;

/// Keys a trajectory entry may carry, in emission order. `--check`
/// enforces this exact set: the schema is closed, so a new field is a
/// deliberate schema bump, not drift. Fields in [`OPTIONAL`] may be
/// absent — `strategy` and `layout` appear only on the history rows
/// written while the engine had resampling-strategy and particle-layout
/// knobs, and only deadline-harness rows carry the `deadline_*` pair — so
/// the trajectory file stays append-only.
const SCHEMA: [(&str, Kind); 17] = [
    ("label", Kind::Str),
    ("bench", Kind::Str),
    ("method", Kind::Str),
    ("strategy", Kind::Str),
    ("layout", Kind::Str),
    ("particles", Kind::Num),
    ("ticks", Kind::Num),
    ("data_seed", Kind::Num),
    ("engine_seed", Kind::Num),
    ("ticks_per_sec", Kind::Num),
    ("p50_ms", Kind::Num),
    ("p99_ms", Kind::Num),
    ("peak_live_bytes", Kind::Num),
    ("clones_avoided", Kind::Num),
    ("posterior_mean_final", Kind::Num),
    ("deadline_ms", Kind::Num),
    ("deadline_misses", Kind::Num),
];

/// Schema fields an entry may omit. Present fields must still appear in
/// schema order with the schema type.
const OPTIONAL: [&str; 4] = ["strategy", "layout", "deadline_ms", "deadline_misses"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Str,
    Num,
}

struct Entry {
    label: String,
    bench: &'static str,
    method: Method,
    particles: usize,
    ticks: usize,
    ticks_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    peak_live_bytes: usize,
    clones_avoided: u64,
    posterior_mean_final: f64,
    /// Per-tick budget of a deadline-harness run (absent on plain rows).
    deadline_ms: Option<f64>,
    /// Deadline misses observed by the harness clock (absent on plain
    /// rows; present exactly when `deadline_ms` is).
    deadline_misses: Option<u64>,
}

impl Entry {
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"label\":\"{label}\",\"bench\":\"{bench}\",\"method\":\"{method}\",\
             \"particles\":{particles},\"ticks\":{ticks},\
             \"data_seed\":{data_seed},\"engine_seed\":{engine_seed},\
             \"ticks_per_sec\":{tps:?},\"p50_ms\":{p50:?},\"p99_ms\":{p99:?},\
             \"peak_live_bytes\":{peak},\"clones_avoided\":{avoided},\
             \"posterior_mean_final\":{mean:?}",
            label = json_escape(&self.label),
            bench = self.bench,
            method = self.method,
            particles = self.particles,
            ticks = self.ticks,
            data_seed = DATA_SEED,
            engine_seed = ENGINE_SEED,
            tps = self.ticks_per_sec,
            p50 = self.p50_ms,
            p99 = self.p99_ms,
            peak = self.peak_live_bytes,
            avoided = self.clones_avoided,
            mean = self.posterior_mean_final,
        );
        if let (Some(budget), Some(misses)) = (self.deadline_ms, self.deadline_misses) {
            out.push_str(&format!(
                ",\"deadline_ms\":{budget:?},\"deadline_misses\":{misses}"
            ));
        }
        out.push('}');
        out
    }
}

/// Drives one engine over a fixed input stream and measures the step loop.
fn drive<M: Model>(
    template: M,
    inputs: &[M::Input],
    bench: &'static str,
    method: Method,
    particles: usize,
    label: &str,
) -> Entry {
    let mut engine = Infer::with_seed(method, particles, template, ENGINE_SEED);
    // The shared log-bucketed histogram (`LogHistogram`) is the one
    // quantile implementation workspace-wide; reported quantiles are
    // bucket lower bounds.
    let mut latencies = LogHistogram::new();
    let mut peak_live_bytes = 0usize;
    let mut mean = f64::NAN;
    let t_all = Instant::now();
    for y in inputs {
        let t0 = Instant::now();
        let posterior = engine.step(y).expect("benchmark models do not fail");
        latencies.record(t0.elapsed().as_secs_f64() * 1e3);
        peak_live_bytes = peak_live_bytes.max(engine.memory().live_bytes);
        mean = posterior.mean_float();
    }
    let wall = t_all.elapsed().as_secs_f64();
    let q = |p: f64| latencies.quantile(p).unwrap_or(0.0);
    Entry {
        label: label.to_owned(),
        bench,
        method,
        particles,
        ticks: inputs.len(),
        ticks_per_sec: inputs.len() as f64 / wall,
        p50_ms: q(0.50),
        p99_ms: q(0.99),
        peak_live_bytes,
        clones_avoided: engine.resample_stats().clones_avoided,
        posterior_mean_final: mean,
        deadline_ms: None,
        deadline_misses: None,
    }
}

/// Synthetic robot sensor stream: sinusoidal accelerometer, a GPS fix
/// every four ticks, constant command — same shape as the fault-tolerance
/// suite so numbers line up across harnesses.
fn robot_inputs(steps: usize) -> Vec<TrackerInput> {
    (0..steps)
        .map(|t| TrackerInput {
            a_obs: (t as f64 * 0.1).sin(),
            gps: (t % 4 == 0).then_some(t as f64 * 0.05),
            cmd: 0.1,
        })
        .collect()
}

fn run_suite(quick: bool, label: &str) -> Vec<Entry> {
    let (ticks, particles) = if quick { (200, 32) } else { (1_000, 100) };
    let methods = [
        Method::ParticleFilter,
        Method::BoundedDs,
        Method::StreamingDs,
    ];
    let hmm = generate_kalman(DATA_SEED, ticks);
    let robot = robot_inputs(ticks);
    let mut out = Vec::new();
    for method in methods {
        out.push(drive(
            Kalman::default(),
            &hmm.obs,
            "hmm",
            method,
            particles,
            label,
        ));
        out.push(drive(
            GpsAccTracker::default(),
            &robot,
            "robot",
            method,
            particles,
            label,
        ));
    }
    out
}

// ---------------------------------------------------------------------
// DSL mode: optimized vs unoptimized µF, interpreter vs instruction
// tape, with a built-in bit-identity oracle. Slower than the
// native-model suite (it runs the µF evaluator), so it uses smaller
// clouds, but the comparisons are at the same size, which is the
// quantity of interest.
// ---------------------------------------------------------------------

/// Which µF execution backends `--dsl` measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackendSel {
    /// Interpreter only: the classic `{label}-unopt` / `{label}-opt` pair.
    Interp,
    /// Instruction tape only: one `{label}-tape` row per method.
    Tape,
    /// All three rows, with the posterior bits of every pair asserted
    /// identical.
    Both,
}

/// Times one compiled DSL engine over `inputs`, recording posterior bits
/// for the cross-engine oracle. Under the tape backend the run also
/// asserts the tape actually engaged — a silent interpreter fallback
/// would make the row's claim a lie.
#[allow(clippy::too_many_arguments)]
fn drive_dsl(
    compiled: &probzelus::lang::Compiled,
    node: &str,
    bench: &'static str,
    inputs: &[probzelus_core::Value],
    method: Method,
    particles: usize,
    backend: probzelus::lang::ExecBackend,
    label: String,
) -> (Entry, Vec<u64>) {
    use probzelus::lang::Options;
    let mut engine = compiled
        .infer_node(
            node,
            particles,
            Options {
                method,
                seed: ENGINE_SEED,
                backend,
            },
        )
        .unwrap_or_else(|e| panic!("{bench}: {e}"));
    let mut latencies = LogHistogram::new();
    let mut bits = Vec::with_capacity(inputs.len());
    let mut peak_live_bytes = 0usize;
    let mut mean = f64::NAN;
    let t_all = Instant::now();
    for y in inputs {
        let t0 = Instant::now();
        let posterior = engine.step(y).expect("benchmark models do not fail");
        latencies.record(t0.elapsed().as_secs_f64() * 1e3);
        peak_live_bytes = peak_live_bytes.max(engine.memory().live_bytes);
        mean = posterior.mean_float();
        bits.push(mean.to_bits());
    }
    if backend == probzelus::lang::ExecBackend::Tape {
        assert_eq!(
            engine.tape_status(),
            Some(Ok(())),
            "{bench}/{method:?}: the tape backend fell back to the interpreter"
        );
    }
    let wall = t_all.elapsed().as_secs_f64();
    let q = |p: f64| latencies.quantile(p).unwrap_or(0.0);
    let entry = Entry {
        label,
        bench,
        method,
        particles,
        ticks: inputs.len(),
        ticks_per_sec: inputs.len() as f64 / wall,
        p50_ms: q(0.50),
        p99_ms: q(0.99),
        peak_live_bytes,
        clones_avoided: engine.resample_stats().clones_avoided,
        posterior_mean_final: mean,
        deadline_ms: None,
        deadline_misses: None,
    };
    (entry, bits)
}

/// Synthetic robot sensor stream as nested pairs — the
/// `(a_obs, (has_gps, (p_obs, cmd)))` input of `gps_acc_tracker`.
fn robot_dsl_inputs(steps: usize) -> Vec<probzelus_core::Value> {
    use probzelus_core::Value;
    (0..steps)
        .map(|t| {
            Value::pair(
                Value::Float((t as f64 * 0.1).sin()),
                Value::pair(
                    Value::Bool(t % 4 == 0),
                    Value::pair(Value::Float(t as f64 * 0.05), Value::Float(0.1)),
                ),
            )
        })
        .collect()
}

/// Runs one DSL benchmark for every method under the selected backends,
/// asserting bit-identity across every engine pair it ran.
#[allow(clippy::too_many_arguments)]
fn dsl_bench(
    file: &str,
    node: &str,
    bench: &'static str,
    inputs: &[probzelus_core::Value],
    particles: usize,
    sel: BackendSel,
    label: &str,
) -> Vec<Entry> {
    use probzelus::lang::{compile_source, compile_source_opt, ExecBackend};
    let src_path = format!("{}/../../examples/zelus/{file}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&src_path).unwrap_or_else(|e| panic!("{src_path}: {e}"));
    let base = compile_source(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
    let opt = compile_source_opt(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
    if file == "hmm.zl" {
        assert!(
            opt.plans.contains_key("hmm"),
            "the optimizer should hoist hmm's particle-invariant equations"
        );
    }
    let methods = [
        Method::ParticleFilter,
        Method::BoundedDs,
        Method::StreamingDs,
    ];
    let mut out = Vec::new();
    for method in methods {
        let mut runs: Vec<(Entry, Vec<u64>, &'static str)> = Vec::new();
        if sel != BackendSel::Tape {
            let (row, bits) = drive_dsl(
                &base,
                node,
                bench,
                inputs,
                method,
                particles,
                ExecBackend::Interp,
                format!("{label}-unopt"),
            );
            runs.push((row, bits, "unopt"));
            let (row, bits) = drive_dsl(
                &opt,
                node,
                bench,
                inputs,
                method,
                particles,
                ExecBackend::Interp,
                format!("{label}-opt"),
            );
            runs.push((row, bits, "opt"));
        }
        if sel != BackendSel::Interp {
            let (row, bits) = drive_dsl(
                &opt,
                node,
                bench,
                inputs,
                method,
                particles,
                ExecBackend::Tape,
                format!("{label}-tape"),
            );
            runs.push((row, bits, "tape"));
        }
        // Every engine pair this invocation ran must agree bit-for-bit:
        // neither the optimizer nor the tape backend may shift a
        // posterior before its speedup counts for anything.
        for pair in runs.windows(2) {
            assert_eq!(
                pair[0].1, pair[1].1,
                "{bench} {method:?}: {} vs {} posterior drifted",
                pair[0].2, pair[1].2
            );
        }
        let report: Vec<String> = runs
            .iter()
            .map(|(row, _, kind)| format!("{kind} {tps:.0} ticks/s", tps = row.ticks_per_sec))
            .collect();
        println!(
            "{bench} {method:>3}: {}, posteriors bit-identical",
            report.join(" vs ")
        );
        out.extend(runs.into_iter().map(|(row, _, _)| row));
    }
    out
}

fn run_dsl_suite(quick: bool, label: &str, sel: BackendSel) -> Vec<Entry> {
    let (ticks, particles) = if quick { (150, 32) } else { (500, 64) };
    let hmm_inputs: Vec<probzelus_core::Value> = generate_kalman(DATA_SEED, ticks)
        .obs
        .into_iter()
        .map(probzelus_core::Value::Float)
        .collect();
    let mut out = dsl_bench(
        "hmm.zl",
        "hmm",
        "hmm-dsl",
        &hmm_inputs,
        particles,
        sel,
        label,
    );
    out.extend(dsl_bench(
        "robot.zl",
        "gps_acc_tracker",
        "robot-dsl",
        &robot_dsl_inputs(ticks),
        particles,
        sel,
        label,
    ));
    out
}

// ---------------------------------------------------------------------
// `--compare A B`: the trajectory-diff gate. Matches rows of two labels
// by (bench, method), reports per-row speedups, and fails on a
// posterior-bit mismatch or a >5% throughput regression of B against A.
// ---------------------------------------------------------------------

/// A row projection sufficient for comparison. Floats survive the JSON
/// round trip bit-exactly (`{:?}` emits the shortest representation that
/// re-parses to the same bits), so `mean` equality is bit equality.
struct CmpRow {
    tps: f64,
    mean: f64,
}

fn cmp_rows(entries: &[String], label: &str) -> Result<Vec<(String, CmpRow)>, String> {
    let mut out: Vec<(String, CmpRow)> = Vec::new();
    for raw in entries {
        let Json::Object(fields) = json::parse(raw)? else {
            return Err("entry is not a JSON object".into());
        };
        let get_str = |k: &str| {
            fields.iter().find_map(|(key, v)| match v {
                Json::Str(s) if key == k => Some(s.clone()),
                _ => None,
            })
        };
        let get_num = |k: &str| {
            fields.iter().find_map(|(key, v)| match v {
                Json::Num(n) if key == k => Some(*n),
                _ => None,
            })
        };
        if get_str("label").as_deref() != Some(label) {
            continue;
        }
        let key = format!(
            "{}/{}",
            get_str("bench").ok_or("row without bench")?,
            get_str("method").ok_or("row without method")?,
        );
        let row = CmpRow {
            tps: get_num("ticks_per_sec").ok_or("row without ticks_per_sec")?,
            mean: get_num("posterior_mean_final").ok_or("row without posterior_mean_final")?,
        };
        // Keep the most recent row per key: the file is append-only.
        if let Some(slot) = out.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = row;
        } else {
            out.push((key, row));
        }
    }
    if out.is_empty() {
        return Err(format!("no rows with label '{label}'"));
    }
    Ok(out)
}

/// Tolerated throughput loss of B against A before `--compare` fails.
const COMPARE_TOLERANCE: f64 = 0.05;

fn compare_labels(path: &str, label_a: &str, label_b: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let entries = read_entries(&text)?;
    let rows_a = cmp_rows(&entries, label_a)?;
    let rows_b = cmp_rows(&entries, label_b)?;
    let mut failures = Vec::new();
    let mut matched = 0usize;
    for (key, a) in &rows_a {
        let Some((_, b)) = rows_b.iter().find(|(k, _)| k == key) else {
            continue;
        };
        matched += 1;
        let speedup = b.tps / a.tps;
        println!(
            "{key}: {a_tps:.0} -> {b_tps:.0} ticks/s ({speedup:.2}x)",
            a_tps = a.tps,
            b_tps = b.tps,
        );
        if a.mean.to_bits() != b.mean.to_bits() {
            failures.push(format!(
                "{key}: posterior_mean_final differs ({} vs {})",
                a.mean, b.mean
            ));
        }
        if speedup < 1.0 - COMPARE_TOLERANCE {
            failures.push(format!(
                "{key}: '{label_b}' is {loss:.1}% slower than '{label_a}'",
                loss = 100.0 * (1.0 - speedup),
            ));
        }
    }
    if matched == 0 {
        return Err(format!(
            "labels '{label_a}' and '{label_b}' share no (bench, method) rows"
        ));
    }
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }
    println!("compare OK: {matched} row pair(s), posteriors bit-identical, no regression >5%");
    Ok(())
}

// ---------------------------------------------------------------------
// Trajectory file: a JSON array with one entry object per line, so
// appending a run is a textual line insert and diffs stay line-per-run.
// ---------------------------------------------------------------------

/// Reads the raw entry lines of an existing trajectory file.
fn read_entries(text: &str) -> Result<Vec<String>, String> {
    let lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    if lines.first() != Some(&"[") || lines.last() != Some(&"]") {
        return Err("trajectory file must be a one-entry-per-line JSON array".into());
    }
    Ok(lines[1..lines.len() - 1]
        .iter()
        .map(|l| l.trim_end_matches(',').to_owned())
        .collect())
}

fn render(entries: &[String]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(e);
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Validates one entry against the closed schema. Fields in [`OPTIONAL`]
/// may be absent (rows without `layout`, plain rows without the
/// `deadline_*` pair); every field the entry does carry must appear in
/// schema order with the schema type, and nothing outside the schema is
/// admitted — the trajectory file is append-only, so history keeps its
/// original shape while new rows can say more.
fn check_entry(raw: &str) -> Result<(), String> {
    let Json::Object(fields) = json::parse(raw)? else {
        return Err("entry is not a JSON object".into());
    };
    let schema: Vec<(&str, Kind)> = SCHEMA
        .iter()
        .filter(|(k, _)| !OPTIONAL.contains(k) || fields.iter().any(|(fk, _)| fk == k))
        .copied()
        .collect();
    if fields.len() != schema.len() {
        return Err(format!(
            "entry has {} fields, schema has {}",
            fields.len(),
            schema.len()
        ));
    }
    for ((key, value), (want_key, want_kind)) in fields.iter().zip(schema) {
        if key != want_key {
            return Err(format!("field '{key}' where schema wants '{want_key}'"));
        }
        match (want_kind, value) {
            (Kind::Str, Json::Str(_)) => {}
            (Kind::Num, Json::Num(n)) if n.is_finite() => {}
            _ => return Err(format!("field '{key}' has the wrong type")),
        }
    }
    let num = |k: &str| {
        fields
            .iter()
            .find_map(|(key, v)| match v {
                Json::Num(n) if key == k => Some(*n),
                _ => None,
            })
            .expect("validated above")
    };
    if num("ticks_per_sec") <= 0.0 || num("p50_ms") < 0.0 || num("p99_ms") < num("p50_ms") {
        return Err("implausible latency numbers".into());
    }
    let has = |k: &str| fields.iter().any(|(key, _)| key == k);
    if has("deadline_ms") != has("deadline_misses") {
        return Err("deadline_ms and deadline_misses must appear together".into());
    }
    Ok(())
}

fn check_file(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let entries = read_entries(&text)?;
    if entries.is_empty() {
        return Err("trajectory file has no entries".into());
    }
    for (i, e) in entries.iter().enumerate() {
        check_entry(e).map_err(|err| format!("entry {i}: {err}"))?;
    }
    Ok(entries.len())
}

/// The soft-real-time deadline harness (`--deadline`, `chaos` feature).
///
/// For each benchmark it runs the same chaos-spiked input stream at a
/// fixed tick rate three times: uncontrolled (no adaptation), controlled
/// (the [`AdaptiveController`] degradation ladder), and a clock-free
/// replay of the controlled run's decision trace, asserting the replayed
/// posterior is bit-identical. The
/// uncontrolled and controlled rows land in the trajectory file with the
/// `deadline_ms`/`deadline_misses` pair filled in.
///
/// [`AdaptiveController`]: probzelus_core::adaptive::AdaptiveController
#[cfg(feature = "chaos")]
mod deadline {
    use super::{robot_inputs, Cli, DeadlineSpec, Entry, ENGINE_SEED};
    use probzelus::models::{generate_kalman, Kalman};
    use probzelus::robot::GpsAccTracker;
    use probzelus_bench::DATA_SEED;
    use probzelus_core::adaptive::{DeadlineConfig, DecisionTrace};
    use probzelus_core::chaos::{busy_spin, ChaosFault, ChaosModel};
    use probzelus_core::infer::{Infer, Method};
    use probzelus_core::model::Model;
    use std::time::Instant;

    /// Iterations of [`busy_spin`] that take roughly `ms` milliseconds,
    /// calibrated by timing the exact loop the fault will run.
    fn spin_iters_for_ms(ms: f64) -> u64 {
        let mut iters = 1_000_000u64;
        let iters_per_ms = loop {
            let t = Instant::now();
            busy_spin(iters);
            let elapsed = t.elapsed().as_secs_f64() * 1e3;
            if elapsed > 5.0 {
                break iters as f64 / elapsed;
            }
            iters *= 4;
        };
        (ms * iters_per_ms).max(1.0) as u64
    }

    /// Three spike windows, each ~10% of the run, at 1/4, 1/2, and 3/4
    /// of the stream; every spiked tick burns ~5 budgets of CPU across
    /// the full cloud, so only a shrunk cloud can meet the deadline.
    fn spike_schedule(ticks: usize, budget_ms: f64, particles: usize) -> Vec<(u64, ChaosFault)> {
        let iters = spin_iters_for_ms(5.0 * budget_ms / particles as f64);
        let width = (ticks / 10).max(1);
        let mut schedule = Vec::new();
        for quarter in [1usize, 2, 3] {
            let start = ticks * quarter / 4;
            for t in start..(start + width).min(ticks) {
                schedule.push((t as u64, ChaosFault::BusySpin { iters }));
            }
        }
        schedule
    }

    /// Median plain-run step latency, for `--deadline auto` calibration.
    fn plain_p50_ms<M: Model + Clone>(template: M, inputs: &[M::Input], particles: usize) -> f64 {
        let mut engine = Infer::with_seed(Method::StreamingDs, particles, template, ENGINE_SEED);
        let mut lats: Vec<f64> = inputs
            .iter()
            .map(|y| {
                let t0 = Instant::now();
                engine.step(y).expect("benchmark models do not fail");
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        lats.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        lats[lats.len() / 2]
    }

    struct RunOutput {
        entry: Entry,
        posterior_bits: Vec<(u64, u64)>,
        trace: Option<DecisionTrace>,
    }

    /// Drives one fixed-tick-rate run: each tick steps the engine, counts
    /// a miss when the step overruns the budget, then sleeps out the rest
    /// of the tick. `cfg` attaches the adaptive controller; `floor` (only
    /// meaningful with it) is asserted as a lower bound on the cloud every
    /// tick.
    #[allow(clippy::too_many_arguments)]
    fn timed_run<M: Model + Clone>(
        label: String,
        bench: &'static str,
        template: M,
        inputs: &[M::Input],
        schedule: &[(u64, ChaosFault)],
        budget_ms: f64,
        cfg: Option<DeadlineConfig>,
        floor: usize,
        particles: usize,
        obs_out: Option<&str>,
    ) -> RunOutput {
        let controlled = cfg.is_some();
        let mut engine = Infer::with_seed(
            Method::StreamingDs,
            particles,
            ChaosModel::new(template, schedule.to_vec()),
            ENGINE_SEED,
        );
        if let Some(cfg) = cfg {
            engine = engine.with_deadline(cfg);
        }
        #[cfg(feature = "obs")]
        let obs = obs_out.map(|path| {
            use probzelus_core::obs::{Obs, WriterSink};
            let sink =
                std::sync::Arc::new(WriterSink::create(path).expect("obs export path is writable"));
            let obs = Obs::to(sink);
            engine.set_obs(obs.clone());
            obs
        });
        #[cfg(not(feature = "obs"))]
        let _ = obs_out;
        let mut latencies = super::LogHistogram::new();
        let mut posterior_bits = Vec::with_capacity(inputs.len());
        let mut misses = 0u64;
        let mut peak_live_bytes = 0usize;
        let mut mean = f64::NAN;
        let t_all = Instant::now();
        for y in inputs {
            let t0 = Instant::now();
            let posterior = engine.step(y).expect("benchmark models do not fail");
            let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
            if elapsed_ms > budget_ms {
                misses += 1;
            }
            latencies.record(elapsed_ms);
            posterior_bits.push((
                posterior.mean_float().to_bits(),
                posterior.variance_float().to_bits(),
            ));
            peak_live_bytes = peak_live_bytes.max(engine.memory().live_bytes);
            mean = posterior.mean_float();
            if controlled {
                assert!(
                    engine.num_particles() >= floor,
                    "controller dropped the cloud below the floor"
                );
            }
            let remaining_ms = budget_ms - elapsed_ms;
            if remaining_ms > 0.05 {
                std::thread::sleep(std::time::Duration::from_secs_f64(remaining_ms / 1e3));
            }
        }
        let wall = t_all.elapsed().as_secs_f64();
        #[cfg(feature = "obs")]
        if let Some(obs) = obs {
            obs.flush().expect("obs export flushes");
        }
        let q = |p: f64| latencies.quantile(p).unwrap_or(0.0);
        RunOutput {
            entry: Entry {
                label,
                bench,
                method: Method::StreamingDs,
                particles,
                ticks: inputs.len(),
                ticks_per_sec: inputs.len() as f64 / wall,
                p50_ms: q(0.50),
                p99_ms: q(0.99),
                peak_live_bytes,
                clones_avoided: engine.resample_stats().clones_avoided,
                posterior_mean_final: mean,
                deadline_ms: Some(budget_ms),
                deadline_misses: Some(misses),
            },
            trace: engine.decision_trace().cloned(),
            posterior_bits,
        }
    }

    /// Uncontrolled vs controlled vs replay on one benchmark; returns the
    /// two trajectory rows.
    #[allow(clippy::too_many_arguments)]
    fn bench_trio<M: Model + Clone>(
        bench: &'static str,
        template: M,
        inputs: &[M::Input],
        cli: &Cli,
        spec: DeadlineSpec,
        particles: usize,
        floor: usize,
    ) -> Vec<Entry> {
        let budget_ms = match spec {
            DeadlineSpec::Ms(ms) => ms,
            // 2.5 medians of headroom, but never below 1ms: tighter
            // budgets drown in scheduler noise and make miss counts
            // meaningless.
            DeadlineSpec::Auto => {
                (2.5 * plain_p50_ms(template.clone(), inputs, particles)).max(1.0)
            }
        };
        let schedule = spike_schedule(inputs.len(), budget_ms, particles);
        let uncontrolled = timed_run(
            format!("{}-uncontrolled", cli.label),
            bench,
            template.clone(),
            inputs,
            &schedule,
            budget_ms,
            None,
            floor,
            particles,
            None,
        );
        let mut cfg = DeadlineConfig::new(budget_ms);
        cfg.floor = floor;
        cfg.window = 4;
        cfg.cooldown = 2;
        cfg.shrink_factor = 0.5;
        let controlled = timed_run(
            format!("{}-controlled", cli.label),
            bench,
            template.clone(),
            inputs,
            &schedule,
            budget_ms,
            Some(cfg),
            floor,
            particles,
            // One obs export is enough for `obsreport --check`.
            cli.obs_out.as_deref().filter(|_| bench == "hmm"),
        );
        let trace = controlled.trace.clone().expect("controlled runs trace");
        // The decision trace must survive its wire format bit-for-bit.
        let roundtrip = DecisionTrace::from_jsonl(&trace.to_jsonl()).expect("trace round-trips");
        assert_eq!(roundtrip, trace, "trace JSONL round-trip changed it");
        if let Some(path) = cli.trace_out.as_deref().filter(|_| bench == "hmm") {
            std::fs::write(path, trace.to_jsonl()).expect("trace path is writable");
        }
        // Replay witness: same seed and spikes, no clock — the trace
        // alone must reproduce the posterior bits.
        let mut replay = Infer::with_seed(
            Method::StreamingDs,
            particles,
            ChaosModel::new(template, schedule.clone()),
            ENGINE_SEED,
        )
        .with_decision_replay(trace);
        for (y, (mean_bits, var_bits)) in inputs.iter().zip(&controlled.posterior_bits) {
            let p = replay.step(y).expect("benchmark models do not fail");
            assert_eq!(
                p.mean_float().to_bits(),
                *mean_bits,
                "{bench}: replayed posterior mean diverged"
            );
            assert_eq!(
                p.variance_float().to_bits(),
                *var_bits,
                "{bench}: replayed posterior variance diverged"
            );
        }
        let (u_misses, c_misses) = (
            uncontrolled.entry.deadline_misses.expect("set above"),
            controlled.entry.deadline_misses.expect("set above"),
        );
        println!(
            "{bench}: replay bit-identical; misses {u_misses} uncontrolled \
             -> {c_misses} controlled (budget {budget_ms:.3}ms)"
        );
        if cli.assert_improves && c_misses >= u_misses {
            eprintln!(
                "perfbench: --assert-improves failed on {bench}: controlled run missed \
                 {c_misses} deadlines, uncontrolled {u_misses}"
            );
            std::process::exit(1);
        }
        vec![uncontrolled.entry, controlled.entry]
    }

    pub(super) fn run_harness(cli: &Cli, spec: DeadlineSpec) -> Vec<Entry> {
        let (ticks, particles) = if cli.quick { (240, 32) } else { (600, 64) };
        let floor = cli.floor.unwrap_or_else(|| (particles / 8).max(1));
        assert!(
            floor <= particles,
            "--floor {floor} exceeds the particle count {particles}"
        );
        let hmm = generate_kalman(DATA_SEED, ticks);
        let mut rows = bench_trio(
            "hmm",
            Kalman::default(),
            &hmm.obs,
            cli,
            spec,
            particles,
            floor,
        );
        let robot = robot_inputs(ticks);
        rows.extend(bench_trio(
            "robot",
            GpsAccTracker::default(),
            &robot,
            cli,
            spec,
            particles,
            floor,
        ));
        rows
    }
}

const USAGE: &str = "usage: perfbench [--quick] [--label NAME] [--out PATH] [--fresh]
       perfbench --dsl [--backend interp|tape|both]
                                  # hmm.zl + robot.zl via the DSL pipeline:
                                  # unoptimized vs optimized interpreter vs
                                  # instruction tape, bit-identity asserted
       perfbench --deadline MS|auto [--floor N] [--assert-improves]
                 [--trace-out PATH] [--obs-out PATH] [other flags as above]
                 (requires the `chaos` feature; --obs-out also `obs`)
       perfbench --check PATH     # validate an existing trajectory file
       perfbench --compare A B    # diff label A vs B rows: per-row speedup;
                                  # fails on posterior drift or >5% regression";

/// How the deadline harness picks its per-tick budget.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DeadlineSpec {
    /// Calibrate from the uncontrolled p50 of each benchmark.
    Auto,
    /// A fixed budget in milliseconds.
    Ms(f64),
}

/// Parsed command line. Deadline flags parse everywhere so the errors
/// are uniform; `main` rejects them when the needed features are absent.
#[derive(Debug)]
struct Cli {
    quick: bool,
    fresh: bool,
    dsl: bool,
    label: String,
    out: String,
    backend: BackendSel,
    check: Option<String>,
    compare: Option<(String, String)>,
    deadline: Option<DeadlineSpec>,
    floor: Option<usize>,
    assert_improves: bool,
    trace_out: Option<String>,
    obs_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        quick: false,
        fresh: false,
        dsl: false,
        label: String::from("run"),
        out: String::from("BENCH_step_latency.json"),
        backend: BackendSel::Both,
        check: None,
        compare: None,
        deadline: None,
        floor: None,
        assert_improves: false,
        trace_out: None,
        obs_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--quick" => cli.quick = true,
            "--fresh" => cli.fresh = true,
            "--dsl" => cli.dsl = true,
            "--assert-improves" => cli.assert_improves = true,
            "--label" => cli.label = take()?,
            "--out" => cli.out = take()?,
            "--check" => cli.check = Some(take()?),
            "--compare" => {
                let a = take()?;
                let b = take()?;
                cli.compare = Some((a, b));
            }
            "--backend" => {
                cli.backend = match take()?.as_str() {
                    "interp" => BackendSel::Interp,
                    "tape" => BackendSel::Tape,
                    "both" => BackendSel::Both,
                    other => return Err(format!("unknown backend '{other}'")),
                }
            }
            "--trace-out" => cli.trace_out = Some(take()?),
            "--obs-out" => cli.obs_out = Some(take()?),
            "--floor" => {
                let v = take()?;
                cli.floor = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--floor wants a positive integer, got '{v}'"))?,
                );
            }
            "--deadline" => {
                let v = take()?;
                cli.deadline = Some(if v == "auto" {
                    DeadlineSpec::Auto
                } else {
                    DeadlineSpec::Ms(
                        v.parse::<f64>()
                            .ok()
                            .filter(|ms| ms.is_finite() && *ms > 0.0)
                            .ok_or_else(|| {
                                format!(
                                    "--deadline wants a positive budget in ms or 'auto', got '{v}'"
                                )
                            })?,
                    )
                });
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    if let Some(path) = &cli.check {
        match check_file(path) {
            Ok(n) => println!("{path}: {n} entries, schema OK"),
            Err(e) => {
                eprintln!("{path}: schema violation: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some((a, b)) = &cli.compare {
        if let Err(e) = compare_labels(&cli.out, a, b) {
            eprintln!("perfbench: compare failed:\n{e}");
            std::process::exit(1);
        }
        return;
    }

    #[cfg(not(feature = "chaos"))]
    if cli.deadline.is_some() {
        eprintln!("perfbench: --deadline needs the `chaos` feature (load spikes are chaos faults)");
        std::process::exit(2);
    }
    #[cfg(not(feature = "obs"))]
    if cli.obs_out.is_some() {
        eprintln!("perfbench: --obs-out needs the `obs` feature");
        std::process::exit(2);
    }

    let mut entries = if cli.fresh {
        Vec::new()
    } else {
        match std::fs::read_to_string(&cli.out) {
            Ok(text) => read_entries(&text).expect("existing trajectory file is well-formed"),
            Err(_) => Vec::new(),
        }
    };

    #[cfg(feature = "chaos")]
    if let Some(spec) = cli.deadline {
        let rows = deadline::run_harness(&cli, spec);
        for entry in rows {
            println!(
                "{label:>24} {bench:>5} {method:>3} budget {budget:.3}ms  misses {misses}  \
                 p99 {p99:.4}ms",
                label = entry.label,
                bench = entry.bench,
                method = entry.method,
                budget = entry.deadline_ms.expect("deadline rows carry a budget"),
                misses = entry.deadline_misses.expect("deadline rows carry misses"),
                p99 = entry.p99_ms,
            );
            entries.push(entry.to_json());
        }
        std::fs::write(&cli.out, render(&entries)).expect("trajectory file is writable");
        for e in &entries {
            check_entry(e).expect("emitted entries satisfy the schema");
        }
        println!("wrote {} ({} entries)", cli.out, entries.len());
        return;
    }

    let rows = if cli.dsl {
        run_dsl_suite(cli.quick, &cli.label, cli.backend)
    } else {
        run_suite(cli.quick, &cli.label)
    };
    for entry in rows {
        println!(
            "{label:>12} {bench:>5} {method:>3} {tps:>9.0} ticks/s  p50 {p50:.4}ms  p99 {p99:.4}ms  \
             peak {peak}B  avoided {avoided}",
            label = entry.label,
            bench = entry.bench,
            method = entry.method,
            tps = entry.ticks_per_sec,
            p50 = entry.p50_ms,
            p99 = entry.p99_ms,
            peak = entry.peak_live_bytes,
            avoided = entry.clones_avoided,
        );
        entries.push(entry.to_json());
    }
    std::fs::write(&cli.out, render(&entries)).expect("trajectory file is writable");
    for e in &entries {
        check_entry(e).expect("emitted entries satisfy the schema");
    }
    println!("wrote {} ({} entries)", cli.out, entries.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitted_entries_satisfy_the_closed_schema() {
        for entry in run_suite(true, "test") {
            check_entry(&entry.to_json()).expect("schema-valid");
        }
    }

    #[test]
    fn dsl_rows_satisfy_the_schema() {
        // `run_dsl_suite` asserts unopt-vs-opt-vs-tape bit-identity
        // internally; this also guards the rows against schema drift.
        for entry in run_dsl_suite(true, "test", BackendSel::Both) {
            check_entry(&entry.to_json()).expect("schema-valid");
        }
    }

    #[test]
    fn compare_gate_flags_drift_and_regression() {
        fn row(label: &str, tps: f64, mean: f64) -> String {
            format!(
                "{{\"label\":\"{label}\",\"bench\":\"hmm\",\"method\":\"SDS\",\
                 \"ticks_per_sec\":{tps:?},\
                 \"posterior_mean_final\":{mean:?}}}"
            )
        }
        let dir = std::env::temp_dir().join("perfbench_compare_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traj.json");
        let write = |rows: &[String]| {
            std::fs::write(&path, render(rows)).unwrap();
        };
        let p = path.to_str().unwrap();
        // Identical posteriors, faster B: passes.
        write(&[row("a", 100.0, 1.25), row("b", 500.0, 1.25)]);
        compare_labels(p, "a", "b").expect("clean speedup passes");
        // Within tolerance: passes.
        write(&[row("a", 100.0, 1.25), row("b", 97.0, 1.25)]);
        compare_labels(p, "a", "b").expect("3% loss is within tolerance");
        // Posterior drift by one ULP: fails.
        write(&[
            row("a", 100.0, 1.25),
            row("b", 500.0, f64::from_bits(1.25f64.to_bits() + 1)),
        ]);
        let err = compare_labels(p, "a", "b").unwrap_err();
        assert!(err.contains("posterior_mean_final differs"), "{err}");
        // >5% regression: fails.
        write(&[row("a", 100.0, 1.25), row("b", 90.0, 1.25)]);
        let err = compare_labels(p, "a", "b").unwrap_err();
        assert!(err.contains("slower"), "{err}");
        // Disjoint labels: fails.
        write(&[row("a", 100.0, 1.25)]);
        assert!(compare_labels(p, "a", "b").is_err());
    }

    #[test]
    fn schema_rejects_missing_and_extra_fields() {
        let good = run_suite(true, "t")[0].to_json();
        check_entry(&good).unwrap();
        let missing = good.replacen("\"bench\":\"hmm\",", "", 1);
        assert!(check_entry(&missing).is_err());
        let extra = good.replacen('{', "{\"surprise\":1,", 1);
        assert!(check_entry(&extra).is_err());
        let retyped = good.replacen("\"bench\":\"hmm\"", "\"bench\":3", 1);
        assert!(check_entry(&retyped).is_err());
    }

    #[test]
    fn schema_accepts_rows_with_and_without_strategy_and_layout() {
        // New rows carry neither field; history rows written while the
        // engine had those knobs carry them, and must keep validating.
        let good = run_suite(true, "t")[0].to_json();
        assert!(!good.contains("\"strategy\""), "new rows carry no strategy");
        assert!(!good.contains("\"layout\""), "new rows carry no layout");
        check_entry(&good).expect("row without strategy or layout validates");
        for knobs in [
            "\"strategy\":\"clone-minimal\",",
            "\"strategy\":\"clone-minimal\",\"layout\":\"aos\",",
        ] {
            let historic = good.replacen(
                "\"method\":\"PF\",",
                &format!("\"method\":\"PF\",{knobs}"),
                1,
            );
            assert_ne!(historic, good, "method field was not present to extend");
            check_entry(&historic).expect("historic row validates");
        }
        // But a row with a field missing is still rejected.
        let broken = good.replacen("\"bench\":\"hmm\",", "", 1);
        assert!(check_entry(&broken).is_err());
    }

    #[test]
    fn parse_args_rejects_unknown_flags_and_missing_values() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let err = parse_args(&args(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("unknown argument '--frobnicate'"), "{err}");
        for flag in [
            "--label",
            "--out",
            "--check",
            "--compare",
            "--backend",
            "--deadline",
            "--floor",
            "--trace-out",
            "--obs-out",
        ] {
            let err = parse_args(&args(&[flag])).unwrap_err();
            assert!(err.contains("needs a value"), "{flag}: {err}");
        }
        // --compare wants two labels, not one.
        let err = parse_args(&args(&["--compare", "a"])).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        let err = parse_args(&args(&["--backend", "jit"])).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        let err = parse_args(&args(&["--deadline", "-3"])).unwrap_err();
        assert!(err.contains("positive budget"), "{err}");
        let err = parse_args(&args(&["--floor", "0"])).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
    }

    #[test]
    fn parse_args_accepts_the_full_flag_set() {
        let args: Vec<String> = [
            "--quick",
            "--fresh",
            "--label",
            "l",
            "--out",
            "o.json",
            "--backend",
            "tape",
            "--compare",
            "x",
            "y",
            "--deadline",
            "auto",
            "--floor",
            "4",
            "--assert-improves",
            "--trace-out",
            "t.jsonl",
            "--obs-out",
            "m.jsonl",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cli = parse_args(&args).unwrap();
        assert!(cli.quick && cli.fresh && cli.assert_improves);
        assert_eq!(cli.label, "l");
        assert_eq!(cli.backend, BackendSel::Tape);
        assert_eq!(cli.compare, Some(("x".into(), "y".into())));
        assert_eq!(cli.deadline, Some(DeadlineSpec::Auto));
        assert_eq!(cli.floor, Some(4));
        assert_eq!(cli.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(cli.obs_out.as_deref(), Some("m.jsonl"));
        let fixed = parse_args(&["--deadline".to_string(), "2.5".to_string()]).unwrap();
        assert_eq!(fixed.deadline, Some(DeadlineSpec::Ms(2.5)));
    }

    #[test]
    fn schema_accepts_deadline_rows_and_rejects_a_lone_half_of_the_pair() {
        let mut entry = run_suite(true, "d").remove(0);
        entry.deadline_ms = Some(1.5);
        entry.deadline_misses = Some(7);
        let row = entry.to_json();
        assert!(row.ends_with("\"deadline_ms\":1.5,\"deadline_misses\":7}"));
        check_entry(&row).expect("deadline row validates");
        let half = row.replacen(",\"deadline_misses\":7", "", 1);
        assert!(check_entry(&half).is_err(), "lone deadline_ms accepted");
        let swapped = row.replacen(
            "\"deadline_ms\":1.5,\"deadline_misses\":7",
            "\"deadline_misses\":7,\"deadline_ms\":1.5",
            1,
        );
        assert!(
            check_entry(&swapped).is_err(),
            "out-of-order fields accepted"
        );
    }

    #[test]
    fn render_and_read_roundtrip() {
        let entries = vec!["{\"a\":1}".to_owned(), "{\"b\":2}".to_owned()];
        assert_eq!(read_entries(&render(&entries)).unwrap(), entries);
        assert_eq!(read_entries("[\n]\n").unwrap(), Vec::<String>::new());
    }
}
