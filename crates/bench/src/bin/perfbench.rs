//! `perfbench` — the soft-real-time deadline witness and the checker of
//! the perf-trajectory file `BENCH_step_latency.json`.
//!
//! ```text
//! perfbench --check PATH     # validate a trajectory file
//! perfbench --deadline MS|auto [--quick] [--floor N] [--assert-improves]
//!           [--label NAME] [--out PATH] [--fresh]
//!           [--trace-out PATH] [--obs-out PATH]
//! ```
//!
//! `--check` validates every entry of a trajectory file against the
//! closed schema below. `--deadline` (needs the `chaos` feature) runs the
//! SDS engine over the `hmm` (Kalman) and `robot` (GPS+accelerometer
//! tracker) benchmarks at a fixed tick rate under injected load spikes,
//! uncontrolled and under the adaptive controller, checks that the
//! controller's decision trace replays the posterior bit-for-bit, and
//! appends the two rows per benchmark to the trajectory file.
//!
//! The trajectory file is append-only history: its rows without the
//! `deadline_*` pair came from timing suites since replaced by rpbench
//! (`crates/bench/src/bin/rpbench`), which gates speed claims; the
//! paper's latency figures come from the `figures` binary. Timing
//! numbers are machine-dependent; everything else in an entry — seeds,
//! counts, the final posterior mean, clones avoided — is deterministic.

use probzelus_bench::json::{self, Json};
use probzelus_bench::DATA_SEED;
use probzelus_core::infer::Method;
use probzelus_core::json::json_escape;

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

/// One trajectory row. Only the chaos-gated deadline harness emits rows;
/// without `chaos` the row writer is unused.
#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
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

#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
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

#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
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

/// Parses a trajectory file and checks every entry against the schema.
fn parse_trajectory(text: &str) -> Result<Vec<String>, String> {
    let entries = read_entries(text)?;
    for (i, e) in entries.iter().enumerate() {
        check_entry(e).map_err(|err| format!("entry {i}: {err}"))?;
    }
    Ok(entries)
}

fn check_file(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let entries = parse_trajectory(&text)?;
    if entries.is_empty() {
        return Err("trajectory file has no entries".into());
    }
    Ok(entries.len())
}

/// Ticks and particle count of a deadline run.
fn deadline_size(quick: bool) -> (usize, usize) {
    if quick {
        (240, 32)
    } else {
        (600, 64)
    }
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
    use super::{deadline_size, Cli, DeadlineSpec, Entry, ENGINE_SEED};
    use probzelus::models::{generate_kalman, Kalman};
    use probzelus::robot::{GpsAccTracker, TrackerInput};
    use probzelus_bench::DATA_SEED;
    use probzelus_core::adaptive::{DeadlineConfig, DecisionTrace};
    use probzelus_core::chaos::{busy_spin, ChaosFault, ChaosModel};
    use probzelus_core::infer::{Infer, Method};
    use probzelus_core::model::Model;
    use probzelus_core::LogHistogram;
    use std::time::Instant;

    /// Synthetic robot sensor stream: sinusoidal accelerometer, a GPS fix
    /// every four ticks, constant command — same shape as the
    /// fault-tolerance suite so numbers line up across harnesses.
    fn robot_inputs(steps: usize) -> Vec<TrackerInput> {
        (0..steps)
            .map(|t| TrackerInput {
                a_obs: (t as f64 * 0.1).sin(),
                gps: (t % 4 == 0).then_some(t as f64 * 0.05),
                cmd: 0.1,
            })
            .collect()
    }

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
    ) -> Result<RunOutput, String> {
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
        let obs = match obs_out {
            Some(path) => {
                use probzelus_core::obs::{Obs, WriterSink};
                let sink = WriterSink::create(path).map_err(|e| format!("{path}: {e}"))?;
                let obs = Obs::to(std::sync::Arc::new(sink));
                engine.set_obs(obs.clone());
                Some((path, obs))
            }
            None => None,
        };
        #[cfg(not(feature = "obs"))]
        let _ = obs_out;
        let mut latencies = LogHistogram::new();
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
        if let Some((path, obs)) = obs {
            obs.flush().map_err(|e| format!("{path}: {e}"))?;
        }
        let q = |p: f64| latencies.quantile(p).unwrap_or(0.0);
        Ok(RunOutput {
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
        })
    }

    /// Uncontrolled vs controlled vs replay on one benchmark; returns the
    /// two trajectory rows.
    fn bench_trio<M: Model + Clone>(
        bench: &'static str,
        template: M,
        inputs: &[M::Input],
        cli: &Cli,
        spec: DeadlineSpec,
        particles: usize,
        floor: usize,
    ) -> Result<Vec<Entry>, String> {
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
        )?;
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
        )?;
        let trace = controlled.trace.clone().expect("controlled runs trace");
        // The decision trace must survive its wire format bit-for-bit.
        let roundtrip = DecisionTrace::from_jsonl(&trace.to_jsonl()).expect("trace round-trips");
        assert_eq!(roundtrip, trace, "trace JSONL round-trip changed it");
        if let Some(path) = cli.trace_out.as_deref().filter(|_| bench == "hmm") {
            std::fs::write(path, trace.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
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
            return Err(format!(
                "--assert-improves failed on {bench}: controlled run missed \
                 {c_misses} deadlines, uncontrolled {u_misses}"
            ));
        }
        Ok(vec![uncontrolled.entry, controlled.entry])
    }

    /// Runs the trio on both benchmarks. `parse_args` has already checked
    /// `--floor` against the particle count.
    pub(super) fn run_harness(cli: &Cli, spec: DeadlineSpec) -> Result<Vec<Entry>, String> {
        let (ticks, particles) = deadline_size(cli.quick);
        let floor = cli.floor.unwrap_or_else(|| (particles / 8).max(1));
        let hmm = generate_kalman(DATA_SEED, ticks);
        let mut rows = bench_trio(
            "hmm",
            Kalman::default(),
            &hmm.obs,
            cli,
            spec,
            particles,
            floor,
        )?;
        let robot = robot_inputs(ticks);
        rows.extend(bench_trio(
            "robot",
            GpsAccTracker::default(),
            &robot,
            cli,
            spec,
            particles,
            floor,
        )?);
        Ok(rows)
    }
}

const USAGE: &str = "usage: perfbench --check PATH     # validate a trajectory file
       perfbench --deadline MS|auto [--quick] [--floor N] [--assert-improves]
                 [--label NAME] [--out PATH] [--fresh]
                 [--trace-out PATH] [--obs-out PATH]
                 (requires the `chaos` feature; --obs-out also `obs`)";

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
    label: String,
    out: String,
    check: Option<String>,
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
        label: String::from("run"),
        out: String::from("BENCH_step_latency.json"),
        check: None,
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
            "--assert-improves" => cli.assert_improves = true,
            "--label" => cli.label = take()?,
            "--out" => cli.out = take()?,
            "--check" => cli.check = Some(take()?),
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
    if cli.check.is_none() && cli.deadline.is_none() {
        return Err("no mode given: pass --check PATH or --deadline MS|auto".into());
    }
    let particles = deadline_size(cli.quick).1;
    if let Some(floor) = cli.floor.filter(|&floor| floor > particles) {
        return Err(format!(
            "--floor {floor} exceeds the particle count {particles}"
        ));
    }
    Ok(cli)
}

/// `--deadline`: runs the harness and appends its rows to `--out`,
/// starting from an empty trajectory under `--fresh` or when the file
/// does not exist yet.
#[cfg(feature = "chaos")]
fn run_deadline(cli: &Cli, spec: DeadlineSpec) -> Result<(), String> {
    let mut entries = if cli.fresh {
        Vec::new()
    } else {
        match std::fs::read_to_string(&cli.out) {
            Ok(text) => parse_trajectory(&text).map_err(|e| format!("{}: {e}", cli.out))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("{}: {e}", cli.out)),
        }
    };
    for entry in deadline::run_harness(cli, spec)? {
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
        let row = entry.to_json();
        check_entry(&row).map_err(|e| format!("emitted row violates the schema: {e}"))?;
        entries.push(row);
    }
    std::fs::write(&cli.out, render(&entries)).map_err(|e| format!("{}: {e}", cli.out))?;
    println!("wrote {} ({} entries)", cli.out, entries.len());
    Ok(())
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

    #[cfg(not(feature = "obs"))]
    if cli.obs_out.is_some() {
        eprintln!("perfbench: --obs-out needs the `obs` feature");
        std::process::exit(2);
    }
    #[cfg(not(feature = "chaos"))]
    {
        eprintln!("perfbench: --deadline needs the `chaos` feature (load spikes are chaos faults)");
        std::process::exit(2);
    }
    #[cfg(feature = "chaos")]
    if let Some(spec) = cli.deadline {
        if let Err(e) = run_deadline(&cli, spec) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row without the deadline pair, the shape of the file's history.
    fn plain_row() -> Entry {
        Entry {
            label: "t".to_owned(),
            bench: "hmm",
            method: Method::ParticleFilter,
            particles: 32,
            ticks: 200,
            ticks_per_sec: 4250.5,
            p50_ms: 0.125,
            p99_ms: 0.5,
            peak_live_bytes: 0,
            clones_avoided: 0,
            posterior_mean_final: -1.375,
            deadline_ms: None,
            deadline_misses: None,
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn schema_rejects_missing_and_extra_fields() {
        let good = plain_row().to_json();
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
        let good = plain_row().to_json();
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
    fn schema_accepts_deadline_rows_and_rejects_a_lone_half_of_the_pair() {
        let mut entry = plain_row();
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
    fn checked_in_trajectory_satisfies_the_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_step_latency.json");
        let n = check_file(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(n > 0);
    }

    #[test]
    fn malformed_trajectories_are_errors() {
        assert!(parse_trajectory("not a trajectory").is_err());
        assert!(parse_trajectory("[\n{\"label\":\"x\"}\n]\n").is_err());
        let good = render(&[plain_row().to_json()]);
        assert_eq!(parse_trajectory(&good).unwrap().len(), 1);
    }

    #[test]
    fn parse_args_rejects_unknown_flags_and_missing_values() {
        let err = parse_args(&args(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("unknown argument '--frobnicate'"), "{err}");
        for flag in [
            "--label",
            "--out",
            "--check",
            "--deadline",
            "--floor",
            "--trace-out",
            "--obs-out",
        ] {
            let err = parse_args(&args(&[flag])).unwrap_err();
            assert!(err.contains("needs a value"), "{flag}: {err}");
        }
        let err = parse_args(&args(&["--deadline", "-3"])).unwrap_err();
        assert!(err.contains("positive budget"), "{err}");
        let err = parse_args(&args(&["--floor", "0"])).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
    }

    #[test]
    fn parse_args_accepts_the_full_flag_set() {
        let cli = parse_args(&args(&[
            "--quick",
            "--fresh",
            "--label",
            "l",
            "--out",
            "o.json",
            "--check",
            "c.json",
            "--deadline",
            "auto",
            "--floor",
            "4",
            "--assert-improves",
            "--trace-out",
            "t.jsonl",
            "--obs-out",
            "m.jsonl",
        ]))
        .unwrap();
        assert!(cli.quick && cli.fresh && cli.assert_improves);
        assert_eq!(cli.label, "l");
        assert_eq!(cli.out, "o.json");
        assert_eq!(cli.check.as_deref(), Some("c.json"));
        assert_eq!(cli.deadline, Some(DeadlineSpec::Auto));
        assert_eq!(cli.floor, Some(4));
        assert_eq!(cli.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(cli.obs_out.as_deref(), Some("m.jsonl"));
        let fixed = parse_args(&args(&["--deadline", "2.5"])).unwrap();
        assert_eq!(fixed.deadline, Some(DeadlineSpec::Ms(2.5)));
    }

    #[test]
    fn parse_args_wants_a_mode() {
        for list in [&[][..], &["--quick", "--label", "x"][..]] {
            let err = parse_args(&args(list)).unwrap_err();
            assert!(err.contains("no mode given"), "{list:?}: {err}");
        }
        assert!(parse_args(&args(&["--check", "f.json"])).is_ok());
    }

    #[test]
    fn floor_above_the_particle_count_is_a_usage_error() {
        let err =
            parse_args(&args(&["--deadline", "auto", "--quick", "--floor", "100"])).unwrap_err();
        assert!(
            err.contains("--floor 100 exceeds the particle count 32"),
            "{err}"
        );
        let (_, quick_particles) = deadline_size(true);
        let (_, full_particles) = deadline_size(false);
        let floor = |n: usize, quick: bool| {
            let n = n.to_string();
            let mut list = vec!["--deadline", "auto", "--floor", &n];
            if quick {
                list.push("--quick");
            }
            parse_args(&args(&list))
        };
        assert!(floor(quick_particles, true).is_ok());
        assert!(floor(quick_particles + 1, true).is_err());
        assert!(floor(full_particles, false).is_ok());
    }

    #[test]
    fn render_and_read_roundtrip() {
        let entries = vec!["{\"a\":1}".to_owned(), "{\"b\":2}".to_owned()];
        assert_eq!(read_entries(&render(&entries)).unwrap(), entries);
        assert_eq!(read_entries("[\n]\n").unwrap(), Vec::<String>::new());
    }
}
