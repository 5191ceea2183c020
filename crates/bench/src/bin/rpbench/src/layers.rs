//! Per-layer attribution for the traced run (`--trace 1`, `obs` build).
//!
//! Three sources, all through public APIs:
//!
//! * the runtime's span layer, folded by [`FoldSink`] into running
//!   totals as spans arrive (a long run would not fit in `MemorySink`);
//! * [`Timed`] and [`TimedCtx`], bench-side wrappers around a native
//!   [`Model`] and its [`ProbCtx`] that clock and count every
//!   `sample`/`observe` and the allocations inside them;
//! * [`front_end`], which runs the compiler's public passes one by one in
//!   the order `compile_source_opt` runs them, timing each.

use crate::alloc;
use crate::workloads::{self, Driver, Hmm, Inputs, RobotLoop, Workload, PARTICLES};
use probzelus::core::error::RuntimeError;
use probzelus::core::infer::{Infer, Method};
use probzelus::core::obs::{names, FieldValue, Obs, Sample, Sink};
use probzelus::core::posterior::ValueDist;
use probzelus::core::trace::{spans, SpanRecord};
use probzelus::core::{DistExpr, Model, ProbCtx, Value};
use probzelus::lang::analysis::{bounded, effects};
use probzelus::lang::automata::expand_program;
use probzelus::lang::compile::{compile_program, compile_program_with};
use probzelus::lang::parser::parse_program;
use probzelus::lang::schedule::schedule_program;
use probzelus::lang::tape::{Op, TapeProgram};
use probzelus::lang::transform::desugar_program;
use probzelus::lang::transform::opt::optimize_program;
use probzelus::lang::{initcheck, kinds, types, Compiled, ExecBackend, OptConfig, Options};
use probzelus::models::Kalman;
use std::cell::Cell;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Span and metric totals folded since the last [`reset`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Engine `tick` spans, and their summed duration (ms).
    pub ticks: u64,
    pub tick_ms: f64,
    pub propose_ms: f64,
    pub score_ms: f64,
    pub resample_ms: f64,
    /// Driver ticks (`eval.tick`, `eval.tick.tape`) of a µF instance.
    pub eval_ms: f64,
    /// `step.resamples` and `resample.clones_avoided` counter totals.
    pub resample_passes: f64,
    pub clones_avoided: f64,
    /// Last `step.particles` gauge.
    pub particles: f64,
    /// `ds.live_nodes` gauge sum and count, and `ds.live_bytes` maximum.
    pub ds_nodes_sum: f64,
    pub ds_nodes_n: u64,
    pub ds_bytes_max: f64,
}

/// A sink folding spans and the few metrics the report needs into
/// [`SpanTotals`]; everything else is dropped.
#[derive(Debug, Default)]
pub struct FoldSink(Mutex<SpanTotals>);

impl FoldSink {
    fn fold(&self, f: impl FnOnce(&mut SpanTotals)) {
        f(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner));
    }
}

impl Sink for FoldSink {
    fn record(&self, s: &Sample) {
        self.fold(|t| match s.name {
            names::STEP_RESAMPLES => t.resample_passes += s.value,
            names::RESAMPLE_CLONES_AVOIDED => t.clones_avoided += s.value,
            names::STEP_PARTICLES => t.particles = s.value,
            names::DS_LIVE_NODES => {
                t.ds_nodes_sum += s.value;
                t.ds_nodes_n += 1;
            }
            names::DS_LIVE_BYTES => t.ds_bytes_max = t.ds_bytes_max.max(s.value),
            _ => {}
        });
    }

    fn event(&self, _: Option<&str>, _: u64, _: &str, _: &[(&str, FieldValue)]) {}

    fn span(&self, _: Option<&str>, span: &SpanRecord) {
        self.fold(|t| match span.name {
            spans::TICK => {
                t.ticks += 1;
                t.tick_ms += span.dur_ms;
            }
            spans::PROPOSE => t.propose_ms += span.dur_ms,
            spans::SCORE => t.score_ms += span.dur_ms,
            spans::RESAMPLE => t.resample_ms += span.dur_ms,
            spans::EVAL | spans::EVAL_TAPE => t.eval_ms += span.dur_ms,
            _ => {}
        });
    }
}

fn sink() -> &'static Arc<FoldSink> {
    static SINK: OnceLock<Arc<FoldSink>> = OnceLock::new();
    SINK.get_or_init(Arc::default)
}

/// Clock and allocation totals of the [`Timed`] wrappers since the last
/// [`reset`], summed over particles.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbTotals {
    /// Nanoseconds inside `sample`, inside `observe`, and inside the other
    /// `ProbCtx` calls.
    pub sample_ns: u64,
    pub observe_ns: u64,
    pub other_ns: u64,
    /// `ProbCtx` calls of every kind.
    pub calls: u64,
    /// Nanoseconds and allocation events inside `Model::step`, and the
    /// allocation events inside its `ProbCtx` calls.
    pub step_ns: u64,
    pub step_allocs: u64,
    pub prob_allocs: u64,
}

thread_local! {
    static PROB: Cell<ProbTotals> = Cell::new(ProbTotals::default());
}

fn add_prob(f: impl FnOnce(&mut ProbTotals)) {
    PROB.with(|p| {
        let mut t = p.get();
        f(&mut t);
        p.set(t);
    });
}

/// Zeroes the span and wrapper totals.
pub fn reset() {
    sink().fold(|t| *t = SpanTotals::default());
    PROB.with(|p| p.set(ProbTotals::default()));
}

/// The span and wrapper totals since the last [`reset`].
pub fn totals() -> (SpanTotals, ProbTotals) {
    let mut spans = SpanTotals::default();
    sink().fold(|t| spans = *t);
    (spans, PROB.with(Cell::get))
}

/// A native model whose steps and `ProbCtx` calls are clocked.
#[derive(Debug, Clone, Default)]
pub struct Timed<M>(pub M);

impl<M: Model> Model for Timed<M> {
    type Input = M::Input;

    fn step(&mut self, ctx: &mut dyn ProbCtx, input: &M::Input) -> Result<Value, RuntimeError> {
        let a0 = alloc::allocs();
        let t0 = Instant::now();
        let out = self.0.step(&mut TimedCtx(ctx), input);
        let dt = t0.elapsed().as_nanos() as u64;
        let allocs = alloc::allocs() - a0;
        add_prob(|t| {
            t.step_ns += dt;
            t.step_allocs += allocs;
        });
        out
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn for_each_state_value(&mut self, f: &mut dyn FnMut(&mut Value)) {
        self.0.for_each_state_value(f);
    }
}

#[derive(Clone, Copy)]
enum Call {
    Sample,
    Observe,
    Other,
}

/// The `ProbCtx` a [`Timed`] model sees: every call is forwarded to the
/// engine's context between two clock reads.
pub struct TimedCtx<'a>(&'a mut dyn ProbCtx);

impl TimedCtx<'_> {
    fn timed<T>(&mut self, call: Call, f: impl FnOnce(&mut dyn ProbCtx) -> T) -> T {
        let a0 = alloc::allocs();
        let t0 = Instant::now();
        let out = f(&mut *self.0);
        let dt = t0.elapsed().as_nanos() as u64;
        let allocs = alloc::allocs() - a0;
        add_prob(|t| {
            t.calls += 1;
            t.prob_allocs += allocs;
            match call {
                Call::Sample => t.sample_ns += dt,
                Call::Observe => t.observe_ns += dt,
                Call::Other => t.other_ns += dt,
            }
        });
        out
    }
}

impl ProbCtx for TimedCtx<'_> {
    fn sample(&mut self, d: &DistExpr) -> Result<Value, RuntimeError> {
        self.timed(Call::Sample, |c| c.sample(d))
    }
    fn observe(&mut self, d: &DistExpr, v: &Value) -> Result<(), RuntimeError> {
        self.timed(Call::Observe, |c| c.observe(d, v))
    }
    fn factor(&mut self, log_w: f64) {
        self.timed(Call::Other, |c| c.factor(log_w));
    }
    fn force(&mut self, v: &Value) -> Result<Value, RuntimeError> {
        self.timed(Call::Other, |c| c.force(v))
    }
    fn dist_of(&mut self, v: &Value) -> Result<ValueDist, RuntimeError> {
        self.timed(Call::Other, |c| c.dist_of(v))
    }
    fn simplify(&mut self, v: &Value) -> Value {
        self.timed(Call::Other, |c| c.simplify(v))
    }
    fn log_weight(&self) -> f64 {
        self.0.log_weight()
    }
}

/// Sets workload `w` up with its layers instrumented: the native model
/// wrapped in [`Timed`], and every engine that has a public telemetry hook
/// reporting to [`FoldSink`]. Engines built by `infer_node` have none and
/// run as in the plain set-up.
pub fn setup_traced(w: Workload, inputs: &Inputs) -> Result<Box<dyn Driver>, String> {
    let obs = Obs::to(sink().clone());
    let mut d: Box<dyn Driver> = match w {
        Workload::HmmNative => Box::new(Hmm::new(
            inputs,
            Infer::with_seed(
                Method::StreamingDs,
                PARTICLES,
                Timed(Kalman::default()),
                workloads::engine_seed(inputs.seed),
            )
            .with_obs(obs),
        )),
        Workload::RobotLoopRt => Box::new(RobotLoop::new(
            inputs,
            probzelus::lang::compile_source_opt(workloads::ROBOT_SRC)
                .and_then(|c| {
                    let opts =
                        workloads::options(Method::StreamingDs, ExecBackend::Tape, inputs.seed);
                    c.instantiate_with_obs("robot", opts, obs)
                })
                .map_err(|e| format!("robot: {e}"))?,
        )),
        Workload::HmmDsl | Workload::RobotDslPf => return workloads::setup(w, inputs),
    };
    d.prepare(0);
    d.step()?;
    Ok(d)
}

/// The front-end passes in `compile_source_opt` order, as metric names.
pub const PASSES: [&str; 11] = [
    "lang.parser.ms",
    "lang.automata.ms",
    "lang.kinds.ms",
    "lang.types.ms",
    "lang.initcheck.ms",
    "lang.desugar.ms",
    "lang.schedule.ms",
    "lang.compile.ms",
    "lang.analysis.ms",
    "lang.opt.ms",
    "lang.lower.ms",
];

/// Static counts of a lowered tape.
#[derive(Debug, Clone, Copy, Default)]
pub struct TapeCounts {
    pub ops: usize,
    pub mk_tuple_ops: usize,
    pub state_slots: usize,
    pub regs: u32,
}

impl TapeCounts {
    fn of(tape: &TapeProgram) -> TapeCounts {
        TapeCounts {
            ops: tape.ops.len(),
            mk_tuple_ops: tape
                .ops
                .iter()
                .filter(|op| matches!(op, Op::MkTuple { .. }))
                .count(),
            state_slots: tape.state_in.len(),
            regs: tape.num_regs,
        }
    }
}

/// One pass-by-pass compilation of `src` with the optimizing pipeline,
/// then `lower_node(node)` when a node is given. Returns each pass's
/// milliseconds in [`PASSES`] order and the lowered tape's counts.
pub fn front_end(
    src: &str,
    node: Option<&str>,
    options: Options,
) -> Result<([f64; 11], Option<TapeCounts>), String> {
    let err = |e: probzelus::lang::LangError| e.to_string();
    let mut ms = [0.0; 11];
    let mut clock = Instant::now();
    let mut lap = |slot: usize| {
        let now = Instant::now();
        ms[slot] += (now - clock).as_secs_f64() * 1e3;
        clock = now;
    };
    let program = parse_program(src).map_err(err)?;
    lap(0);
    let mut program = expand_program(&program).map_err(err)?;
    lap(1);
    let kinds = kinds::check_program(&program).map_err(err)?;
    lap(2);
    let sigs = types::check_program(&mut program).map_err(err)?;
    lap(3);
    initcheck::check_program(&program).map_err(err)?;
    lap(4);
    let kernel = desugar_program(&program);
    lap(5);
    let kernel = schedule_program(&kernel).map_err(err)?;
    lap(6);
    // `compile_source_opt` compiles the baseline kernel too.
    compile_program(&kernel).map_err(err)?;
    lap(7);
    let bounded = bounded::analyze_program(&kernel, &kinds);
    effects::analyze_program(&kernel);
    lap(8);
    let (kernel, report) = optimize_program(&kernel, &OptConfig::default()).map_err(err)?;
    lap(9);
    let muf = compile_program_with(&kernel, &report.plans).map_err(err)?;
    lap(7);
    let effects = effects::analyze_program(&kernel);
    lap(8);
    let compiled = Compiled {
        kernel,
        muf,
        kinds,
        sigs,
        bounded: bounded.verdicts,
        effects,
        plans: report.plans,
    };
    let Some(node) = node else {
        return Ok((ms, None));
    };
    let clock_lower = Instant::now();
    let tape = compiled.lower_node(node, options).map_err(err)??;
    ms[10] = clock_lower.elapsed().as_secs_f64() * 1e3;
    Ok((ms, Some(TapeCounts::of(&tape))))
}
