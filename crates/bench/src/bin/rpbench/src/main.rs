//! `rpbench` — one seeded benchmark of the reactive inference stack.
//!
//! ```text
//! rpbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!         [--quick] [--out PATH]
//! ```
//!
//! Four workloads (see `README.md`): `hmm-native`, `hmm-dsl`,
//! `robot-dsl-pf` and `robot-loop-rt`. Without `--workload` every one
//! runs in turn. Each run generates its inputs from `--seed`, sets the
//! system up several times (`setup_s` is the median), warms it up
//! untimed, times ticks for `--seconds` (closed loop) or on a fixed input
//! schedule (open loop), checks every output against an oracle, and
//! prints one `workload metric value unit` line per metric, then one JSON
//! object as the last line of standard output. It exits 1 when any check
//! fails and 2 on a bad command line.
//!
//! The gated time metrics are scaled to the uncontended host by a
//! yardstick kernel timed between ticks (see `yardstick.rs`); the times
//! as measured are printed next to them as `measured_*`.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` (a build with
//! `--features obs`) reports the per-layer metrics instead: a quarter of
//! the time runs untraced as a reference, the rest with the layers
//! instrumented. `--quick` runs 150 timed ticks per workload, after set-up
//! and warm-up, with every check on.

mod alloc;
#[cfg(feature = "obs")]
mod layers;
mod runner;
mod stats;
mod workloads;
mod yardstick;

use runner::{Pacing, Timed};
use stats::{median, quantile_ns, windowed_rate};
use std::time::Duration;
use workloads::{Digests, Driver, Inputs, Load, Workload};
use yardstick::Yardstick;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: rpbench [--workload hmm-native|hmm-dsl|robot-dsl-pf|robot-loop-rt]
               [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out PATH]";

/// Fresh set-ups are timed in two blocks, one before the timed phase and
/// one after it, each of at least this many set-ups and this much time;
/// `setup_s` is the median of both. A few milliseconds of set-ups would
/// see one moment of a shared host; two blocks 20 s apart see two.
const SETUP_REPS: usize = 11;
const SETUP_BLOCK: Duration = Duration::from_millis(250);
/// Equal tick windows `ticks_per_s` takes its median over.
const RATE_WINDOWS: usize = 20;
/// Timed ticks per workload under `--quick` (plus set-up and warm-up).
const QUICK_TICKS: usize = 150;
/// Share of a traced run spent on the untraced reference.
#[cfg(feature = "obs")]
const REFERENCE_SHARE: f64 = 0.25;

/// How long the timed phase runs.
#[derive(Debug, Clone, Copy)]
enum Length {
    Seconds(f64),
    Quick,
}

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    length: Length,
    trace: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut cli = Args {
        workload: None,
        seed: 1,
        length: Length::Seconds(20.0),
        trace: false,
        out: None,
    };
    let mut quick = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                cli.seed = v
                    .parse()
                    .map_err(|_| format!("--seed wants an integer, got '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.length = Length::Seconds(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                        .ok_or_else(|| format!("--seconds wants a positive number, got '{v}'"))?,
                );
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
                }
            }
            "--quick" => quick = true,
            "--out" => cli.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if quick {
        cli.length = Length::Quick;
    }
    Ok(cli)
}

/// One timed phase of a workload: its set-ups, warm-up and pacing.
struct Phase {
    /// Set-ups per block; 1 means a single set-up and no timing blocks.
    reps: usize,
    /// Least time per block of set-ups.
    block: Duration,
    warmup: usize,
    window: usize,
    pacing: Pacing,
}

impl Phase {
    /// The phase of workload `w` that takes `share` of the run length,
    /// with `setup_s` measured or not.
    fn plan(w: Workload, length: Length, share: f64, time_setups: bool) -> Phase {
        let pacing = match (w.load(), length) {
            (Load::Closed { .. }, Length::Quick) => Pacing::Closed {
                budget: Duration::MAX,
                cap: QUICK_TICKS,
            },
            (Load::Closed { max_rate }, Length::Seconds(s)) => Pacing::Closed {
                budget: Duration::from_secs_f64(s * share),
                cap: (s * share * max_rate).ceil() as usize,
            },
            (Load::Open { period_ms }, length) => Pacing::Open {
                ticks: match length {
                    Length::Quick => QUICK_TICKS,
                    Length::Seconds(s) => (s * share * 1e3 / period_ms) as usize,
                },
                period: Duration::from_secs_f64(period_ms / 1e3),
            },
        };
        let (reps, block) = match (time_setups, length) {
            (false, _) => (1, Duration::ZERO),
            (true, Length::Quick) => (3, Duration::ZERO),
            (true, Length::Seconds(_)) => (SETUP_REPS, SETUP_BLOCK),
        };
        Phase {
            reps,
            block,
            warmup: w.warmup(),
            window: w.window().min(pacing.max_ticks()),
            pacing,
        }
    }

    fn inputs(&self, w: Workload, seed: u64) -> Inputs {
        let first_timed = 1 + self.warmup;
        Inputs::generate(
            w,
            seed,
            first_timed + self.pacing.max_ticks(),
            first_timed + self.window,
        )
    }
}

/// What one phase produced.
struct PhaseOut {
    /// Every set-up's time as measured, and scaled to the quiet host.
    setup_s: Vec<f64>,
    setup_scaled: Vec<f64>,
    /// Live heap before the kept set-up.
    baseline: i64,
    timed: Timed,
    attempted: u64,
    driver: Option<Box<dyn Driver>>,
    error: Option<String>,
}

impl PhaseOut {
    /// Runs the driver's end-of-run checks.
    fn finish(&mut self) {
        if let (None, Some(d)) = (&self.error, self.driver.as_mut()) {
            self.error = d.finish().err();
        }
    }
}

/// A block of set-ups, the set-up tick's check, warm-up, the timed phase,
/// then a second block of set-ups. `before_timed` runs after warm-up and
/// `after_tick` after every timed tick, both untimed.
fn run_phase(
    phase: &Phase,
    mut setup: impl FnMut() -> Result<Box<dyn Driver>, String>,
    before_timed: impl FnOnce(&dyn Driver),
    after_tick: impl FnMut(&dyn Driver),
) -> PhaseOut {
    let mut timed = Timed::for_pacing(phase.pacing);
    let mut yardstick = Yardstick::default();
    let mut out = PhaseOut {
        setup_s: Vec::new(),
        setup_scaled: Vec::new(),
        baseline: 0,
        timed: Timed::default(),
        attempted: 0,
        driver: None,
        error: None,
    };
    // The first block's readings are scaled after the timed phase: a
    // buffer allocated now would count in its heap peak.
    let (mut d, first_readings) =
        match runner::set_up(phase.reps, phase.block, &mut yardstick, &mut setup) {
            Ok(kept) => {
                (out.setup_s, out.baseline) = (kept.times, kept.baseline);
                (kept.driver, kept.readings)
            }
            Err(e) => {
                out.error = Some(format!("set-up: {e}"));
                return out;
            }
        };
    let warm = d
        .check(0)
        .and_then(|()| runner::warm_up(&mut *d, 1..1 + phase.warmup));
    out.attempted = 1 + phase.warmup as u64;
    if let Err(e) = warm {
        out.error = Some(format!("warm-up: {e}"));
        return out;
    }
    before_timed(&*d);
    runner::run_timed(
        &mut *d,
        1 + phase.warmup,
        phase.pacing,
        phase.window,
        &mut yardstick,
        &mut timed,
        after_tick,
    );
    out.attempted += timed.durs.len() as u64;
    out.error = timed.error.take();
    out.timed = timed;
    out.driver = Some(d);
    out.setup_scaled = yardstick::scale_setups(&out.setup_s, &first_readings);
    if phase.reps > 1 {
        match runner::set_up(phase.reps, phase.block, &mut yardstick, setup) {
            Ok(more) => {
                let scaled = yardstick::scale_setups(&more.times, &more.readings);
                out.setup_scaled.extend(scaled);
                out.setup_s.extend(more.times);
            }
            Err(e) => out.error = out.error.take().or(Some(format!("set-up: {e}"))),
        }
    }
    out
}

/// One metric as reported.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// One workload's result.
struct Report {
    workload: Workload,
    attempted: u64,
    failed: u64,
    error: Option<String>,
    /// The gated metrics: the JSON result carries exactly these.
    metrics: Vec<Metric>,
    /// Extra lines printed for the reader only.
    notes: Vec<Metric>,
    digests: Digests,
}

impl Report {
    fn new(w: Workload, out: &PhaseOut) -> Report {
        Report {
            workload: w,
            attempted: out.attempted,
            failed: out.timed.failed,
            error: out.error.clone(),
            metrics: Vec::new(),
            notes: Vec::new(),
            digests: out.driver.as_ref().map(|d| d.digests()).unwrap_or_default(),
        }
    }

    fn correct(&self) -> bool {
        self.error.is_none() && self.failed == 0
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() && self.error.is_none() {
            self.error = Some(format!("metric {name} is {value}"));
        }
        self.metrics.push(Metric {
            name: name.to_owned(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn us(ns: u32) -> f64 {
    f64::from(ns) / 1e3
}

fn ms(ns: u32) -> f64 {
    f64::from(ns) / 1e6
}

/// Deadline misses over ticks, on open-loop runs (0 in a closed loop).
fn miss_ratio(w: Workload, t: &Timed) -> f64 {
    match w.load() {
        Load::Open { period_ms } => {
            let misses = t.late.iter().filter(|&&l| ms(l) > period_ms).count();
            misses as f64 / t.late.len().max(1) as f64
        }
        Load::Closed { .. } => 0.0,
    }
}

/// The end-to-end metrics of workload `w` (`--trace 0`).
fn measure(w: Workload, seed: u64, length: Length) -> Report {
    let phase = Phase::plan(w, length, 1.0, true);
    let inputs = phase.inputs(w, seed);
    let mut out = run_phase(&phase, || workloads::setup(w, &inputs), |_| {}, |_| {});
    out.finish();
    let mut r = Report::new(w, &out);
    let t = &out.timed;
    if t.durs.is_empty() {
        return r;
    }
    // Every time metric is scaled to the quiet host by the yardstick.
    let durs = yardstick::scale(&t.durs, &t.readings);
    let late = yardstick::scale(&t.late, &t.readings);
    r.metric("setup_s", median(&out.setup_scaled), "s");
    r.metric("ticks_per_s", windowed_rate(&durs, RATE_WINDOWS), "1/s");
    r.metric("tick_p50_us", us(quantile_ns(&durs, 0.50)), "us");
    r.metric(
        "allocs_per_tick",
        t.window_allocs as f64 / t.window_ticks.max(1) as f64,
        "count",
    );
    r.metric(
        "heap_peak_bytes",
        (t.heap_peak - out.baseline) as f64,
        "bytes",
    );
    r.metric("lateness_p50_ms", ms(quantile_ns(&late, 0.50)), "ms");
    // The tails are printed, not gated: on a shared host the share of
    // ticks caught in another tenant's bursts changes from run to run, and
    // p99 then moves by more than any bound could allow (see README).
    r.note("timed_ticks", t.durs.len() as f64, "count");
    r.note("tick_p99_us", us(quantile_ns(&durs, 0.99)), "us");
    r.note("lateness_p99_ms", ms(quantile_ns(&late, 0.99)), "ms");
    r.note(
        "failed_ratio",
        t.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
    );
    r.note("deadline_miss_ratio", miss_ratio(w, t), "ratio");
    // The same times as measured, and how much slower than quiet the
    // host ran the yardstick.
    r.note("measured_setup_s", median(&out.setup_s), "s");
    r.note(
        "measured_ticks_per_s",
        windowed_rate(&t.durs, RATE_WINDOWS),
        "1/s",
    );
    r.note("measured_tick_p50_us", us(quantile_ns(&t.durs, 0.50)), "us");
    r.note(
        "measured_lateness_p50_ms",
        ms(quantile_ns(&t.late, 0.50)),
        "ms",
    );
    let readings: Vec<f64> = t.readings.iter().map(|r| f64::from(r.ns)).collect();
    r.note(
        "yardstick_slowdown",
        median(&readings) / yardstick::QUIET_NS,
        "ratio",
    );
    r.note("yardstick_readings", readings.len() as f64, "count");
    r
}

/// Ticks per second of a phase, scaled to the quiet host.
#[cfg(feature = "obs")]
fn scaled_rate(t: &Timed) -> f64 {
    windowed_rate(&yardstick::scale(&t.durs, &t.readings), RATE_WINDOWS)
}

/// Means and maxima of a per-tick series.
#[cfg(feature = "obs")]
#[derive(Default)]
struct Series {
    sum: f64,
    n: u64,
    max: f64,
}

#[cfg(feature = "obs")]
impl Series {
    fn add(&mut self, x: f64) {
        self.sum += x;
        self.n += 1;
        self.max = self.max.max(x);
    }
    fn mean(&self) -> f64 {
        self.sum / self.n.max(1) as f64
    }
}

/// The per-layer metrics of workload `w` (`--trace 1`).
#[cfg(feature = "obs")]
fn measure_traced(w: Workload, seed: u64, length: Length) -> Report {
    // Untraced reference: the plain set-up, warm-up and timed loop.
    let phase = Phase::plan(w, length, REFERENCE_SHARE, true);
    let inputs = phase.inputs(w, seed);
    let mut reference = run_phase(&phase, || workloads::setup(w, &inputs), |_| {}, |_| {});
    reference.finish();

    // The front end, pass by pass (DSL workloads).
    let (src, lowered) = match w {
        Workload::HmmNative => (None, None),
        Workload::HmmDsl => (Some(workloads::HMM_SRC), Some("hmm")),
        Workload::RobotDslPf => (Some(workloads::ROBOT_SRC), Some("gps_acc_tracker")),
        // The embedded engine lowers lazily during the first tick; that
        // time stays in `lang.setup_other.ms`.
        Workload::RobotLoopRt => (Some(workloads::ROBOT_SRC), None),
    };
    let mut passes = vec![Vec::new(); layers::PASSES.len()];
    let mut tape = None;
    let mut front_err = None;
    if let Some(src) = src {
        let opts = workloads::options(
            probzelus::core::Method::StreamingDs,
            probzelus::lang::ExecBackend::Tape,
            seed,
        );
        for _ in 0..phase.reps {
            match layers::front_end(src, lowered, opts) {
                Ok((times, counts)) => {
                    times.iter().zip(&mut passes).for_each(|(t, p)| p.push(*t));
                    tape = counts;
                }
                Err(e) => front_err = Some(format!("front end: {e}")),
            }
        }
    }

    // The traced phase.
    let phase = Phase::plan(w, length, 1.0 - REFERENCE_SHARE, false);
    let inputs = phase.inputs(w, seed);
    let mut before = None;
    let mut nodes = Series::default();
    let mut bytes = Series::default();
    let mut out = run_phase(
        &phase,
        || layers::setup_traced(w, &inputs),
        |d| {
            layers::reset();
            before = d.resample_stats();
        },
        |d| {
            if let Some(m) = d.memory() {
                nodes.add(m.live_nodes as f64);
                bytes.add(m.live_bytes as f64);
            }
        },
    );
    let (spans, prob) = layers::totals();
    let after = out.driver.as_ref().and_then(|d| d.resample_stats());
    let scratch = out.driver.as_ref().and_then(|d| d.tape_scratch_bytes());
    out.finish();

    let mut r = Report::new(w, &out);
    r.attempted += reference.attempted;
    r.failed += reference.timed.failed;
    r.error = r.error.or(reference.error.take()).or(front_err);
    let t = &out.timed;
    if t.durs.is_empty() || reference.timed.durs.is_empty() {
        return r;
    }
    let n = t.durs.len() as f64;
    let per_tick_us = |ms_total: f64| ms_total * 1e3 / n;

    let medians: Vec<f64> = passes.iter().map(|p| median(p)).collect();
    for (name, m) in layers::PASSES.iter().zip(&medians) {
        r.metric(name, *m, "ms");
    }
    let setup_other = match src {
        Some(_) => median(&reference.setup_s) * 1e3 - medians.iter().sum::<f64>(),
        None => 0.0,
    };
    r.metric("lang.setup_other.ms", setup_other, "ms");

    let tape = tape.unwrap_or_default();
    r.metric("tape.ops", tape.ops as f64, "count");
    r.metric("tape.mk_tuple_ops", tape.mk_tuple_ops as f64, "count");
    r.metric("tape.state_slots", tape.state_slots as f64, "count");
    r.metric("tape.regs", f64::from(tape.regs), "count");
    r.metric("tape.scratch_bytes", scratch.unwrap_or(0) as f64, "bytes");

    let tick_us = stats::mean_us(&t.durs);
    let driver_us = if spans.eval_ms > 0.0 {
        per_tick_us(spans.eval_ms - spans.tick_ms)
    } else {
        0.0
    };
    let (propose, score, resample) = (
        per_tick_us(spans.propose_ms),
        per_tick_us(spans.score_ms),
        per_tick_us(spans.resample_ms),
    );
    r.metric("eval.driver_us", driver_us, "us");
    r.metric("infer.tick_us", tick_us, "us");
    r.metric("infer.propose_us", propose, "us");
    r.metric("infer.score_us", score, "us");
    r.metric("infer.resample_us", resample, "us");
    r.metric(
        "infer.unattributed_us",
        tick_us - propose - score - resample - driver_us,
        "us",
    );
    let (passes_n, clones, avoided) = match (before, after) {
        (Some(b), Some(a)) => (
            (a.passes - b.passes) as f64,
            (a.clones - b.clones) as f64,
            (a.clones_avoided - b.clones_avoided) as f64,
        ),
        // Engines inside a µF instance: every output slot of a pass is
        // either moved (a clone avoided) or cloned.
        _ => (
            spans.resample_passes,
            spans.resample_passes * spans.particles - spans.clones_avoided,
            spans.clones_avoided,
        ),
    };
    r.metric("infer.resample_passes_per_tick", passes_n / n, "count");
    r.metric("infer.clones_per_tick", clones / n, "count");
    let attempts = clones + avoided;
    r.metric(
        "infer.clone_ratio",
        if attempts > 0.0 {
            clones / attempts
        } else {
            0.0
        },
        "ratio",
    );

    let prob_ns = prob.sample_ns + prob.observe_ns + prob.other_ns;
    r.metric("prob.sample_us", prob.sample_ns as f64 / 1e3 / n, "us");
    r.metric("prob.observe_us", prob.observe_ns as f64 / 1e3 / n, "us");
    r.metric(
        "prob.calls_per_particle_tick",
        prob.calls as f64 / (n * workloads::PARTICLES as f64),
        "count",
    );
    r.metric(
        "model.self_us",
        prob.step_ns.saturating_sub(prob_ns) as f64 / 1e3 / n,
        "us",
    );
    let (live_nodes, live_bytes_peak) = if nodes.n > 0 {
        (nodes.mean(), bytes.max)
    } else {
        (
            spans.ds_nodes_sum / spans.ds_nodes_n.max(1) as f64,
            spans.ds_bytes_max,
        )
    };
    r.metric("ds.graph_nodes_live", live_nodes, "count");
    r.metric("ds.live_bytes_peak", live_bytes_peak, "bytes");

    r.metric(
        "alloc.model_step",
        prob.step_allocs.saturating_sub(prob.prob_allocs) as f64 / n,
        "count",
    );
    r.metric("alloc.prob_calls", prob.prob_allocs as f64 / n, "count");
    r.metric(
        "alloc.engine_other",
        t.allocs.saturating_sub(prob.step_allocs) as f64 / n,
        "count",
    );

    r.metric("rt.service_p50_ms", ms(quantile_ns(&t.durs, 0.50)), "ms");
    r.metric("rt.queue_wait_p99_ms", ms(quantile_ns(&t.wait, 0.99)), "ms");
    r.metric(
        "rt.generator_late_max_ms",
        t.generator_late_max as f64 / 1e6,
        "ms",
    );
    r.metric("rt.deadline_miss_ratio", miss_ratio(w, t), "ratio");
    r.metric(
        "trace.overhead_ratio",
        scaled_rate(&reference.timed) / scaled_rate(t),
        "ratio",
    );
    r.note("timed_ticks", n, "count");
    r.note(
        "reference_ticks",
        reference.timed.durs.len() as f64,
        "count",
    );
    r
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
fn json_metrics<'a>(metrics: impl Iterator<Item = (String, &'a Metric)>) -> String {
    let fields: Vec<String> = metrics
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn print_report(r: &Report) {
    let w = r.workload.name();
    for m in r.metrics.iter().chain(&r.notes) {
        println!("{w} {} {} {}", m.name, m.value, m.unit);
    }
    println!("{w} input_digest {:016x} fnv64", r.digests.inputs.0);
    println!("{w} output_digest {:016x} fnv64", r.digests.outputs.0);
    println!(
        "{w} checks {} ({} ticks attempted, {} failed)",
        if r.correct() { "pass" } else { "FAIL" },
        r.attempted,
        r.failed
    );
    if let Some(e) = &r.error {
        eprintln!("rpbench: {w}: {e}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("rpbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if cli.trace && !cfg!(feature = "obs") {
        eprintln!("rpbench: --trace 1 needs a build with --features obs (see run.sh)");
        std::process::exit(2);
    }
    let workloads: Vec<Workload> = match cli.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut reports = Vec::new();
    for w in workloads {
        #[cfg(feature = "obs")]
        let report = if cli.trace {
            measure_traced(w, cli.seed, cli.length)
        } else {
            measure(w, cli.seed, cli.length)
        };
        #[cfg(not(feature = "obs"))]
        let report = measure(w, cli.seed, cli.length);
        print_report(&report);
        reports.push(report);
    }

    let single = reports.len() == 1;
    let mut derived = Vec::new();
    let rate = |name: Workload| {
        reports
            .iter()
            .find(|r| r.workload == name)
            .and_then(|r| r.get("ticks_per_s"))
    };
    if let (Some(native), Some(dsl)) = (rate(Workload::HmmNative), rate(Workload::HmmDsl)) {
        // Same model, observations, method and particle count: the ratio
        // is the cost of the language path. Derived, not gated.
        println!("lang_cost_ratio {} ratio", native / dsl);
        derived.push(format!("\"lang_cost_ratio\": {}", native / dsl));
    }

    let correct = reports.iter().all(Report::correct);
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    // A single workload's metrics keep their names; a run of every
    // workload prefixes each with its workload.
    let metrics = json_metrics(reports.iter().flat_map(|r| {
        r.metrics.iter().map(move |m| match single {
            true => (m.name.clone(), m),
            false => (format!("{}.{}", r.workload.name(), m.name), m),
        })
    }));

    if let Some(path) = &cli.out {
        let entries: Vec<String> = reports
            .iter()
            .map(|r| {
                format!(
                    "\"{}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \
                     \"input_digest\": \"{:016x}\", \"output_digest\": \"{:016x}\", \
                     \"metrics\": {}}}",
                    r.workload.name(),
                    r.correct(),
                    r.attempted,
                    r.failed,
                    r.digests.inputs.0,
                    r.digests.outputs.0,
                    json_metrics(r.metrics.iter().map(|m| (m.name.clone(), m))),
                )
            })
            .collect();
        let mut body = vec![
            format!("\"seed\": {}", cli.seed),
            format!("\"trace\": {}", cli.trace),
            format!("\"workloads\": {{{}}}", entries.join(", ")),
        ];
        body.extend(derived);
        if let Err(e) = std::fs::write(path, format!("{{{}}}\n", body.join(", "))) {
            eprintln!("rpbench: {path}: {e}");
            std::process::exit(1);
        }
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics}}}"
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names a section of `BENCHMARK.json` declares, in order.
    fn declared(section: &str) -> Vec<String> {
        const BENCH: &str = include_str!("../../../../../../BENCHMARK.json");
        let body = &BENCH[BENCH.find(&format!("\"{section}\"")).expect("section")..];
        body[..body.find(']').expect("section end")]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
            .collect()
    }

    fn names(r: &Report) -> Vec<String> {
        r.metrics.iter().map(|m| m.name.clone()).collect()
    }

    fn quick_twice_and_reseeded(w: Workload) {
        let a = measure(w, 7, Length::Quick);
        assert!(a.correct(), "{}: {:?}", w.name(), a.error);
        assert_eq!(a.failed, 0);
        assert_eq!(names(&a), declared("end_to_end"));
        let b = measure(w, 7, Length::Quick);
        assert_eq!(a.digests, b.digests, "{}: same seed, same run", w.name());
        assert_eq!(a.get("allocs_per_tick"), b.get("allocs_per_tick"));
        let c = measure(w, 8, Length::Quick);
        assert_ne!(
            a.digests.inputs,
            c.digests.inputs,
            "{}: seed ignored",
            w.name()
        );
    }

    #[test]
    fn quick_hmm_native() {
        quick_twice_and_reseeded(Workload::HmmNative);
    }

    #[test]
    fn quick_hmm_dsl() {
        quick_twice_and_reseeded(Workload::HmmDsl);
    }

    #[test]
    fn quick_robot_dsl_pf() {
        quick_twice_and_reseeded(Workload::RobotDslPf);
    }

    #[test]
    fn quick_robot_loop_rt() {
        quick_twice_and_reseeded(Workload::RobotLoopRt);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn traced_quick_runs_report_every_per_layer_metric() {
        for w in Workload::ALL {
            let r = measure_traced(w, 7, Length::Quick);
            assert!(r.correct(), "{}: {:?}", w.name(), r.error);
            assert_eq!(names(&r), declared("per_layer"), "{}", w.name());
        }
    }

    #[test]
    fn parse_args_reads_the_driver_command_line() {
        let args = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let cli = parse_args(&args(&[
            "--workload",
            "robot-loop-rt",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workload, Some(Workload::RobotLoopRt));
        assert_eq!(cli.seed, 42);
        assert!(matches!(cli.length, Length::Seconds(s) if s == 10.0));
        assert!(cli.trace);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
