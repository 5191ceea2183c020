//! Differential oracle for the flat instruction tape: every committed
//! example program must produce **bit-identical** posteriors (and
//! deterministic outputs) under `ExecBackend::Tape` vs. the tree-walking
//! interpreter, across every inference method. The interpreter is the
//! semantic oracle; the tape's claim is that lowering changes only
//! the cost model, never a bit of the posterior.
//!
//! Worker-pool counts are deliberately not a test axis: `MufModel` holds
//! `Rc` state and is not `Send`, so DSL engines always step particles
//! sequentially regardless of the configured parallelism.

use probzelus_core::infer::Method;
use probzelus_core::{Posterior, Value};
use probzelus_lang::eval::Interp;
use probzelus_lang::muf::{MufDef, MufExpr, MufPat, MufProgram};
use probzelus_lang::pipeline::{compile_source, Compiled};
use probzelus_lang::tape::{Op, StateOut, TapeProgram};
use probzelus_lang::transform::lower::lower_closure;
use probzelus_lang::{Const, ExecBackend, Instance, MufEngine, MufValue, OpName, Options};
use std::rc::Rc;

const METHODS: [Method; 4] = [
    Method::ParticleFilter,
    Method::BoundedDs,
    Method::StreamingDs,
    Method::ClassicDs,
];

fn example(file: &str) -> String {
    let path = format!("{}/../../examples/zelus/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A tiny deterministic float stream (LCG), so the oracle needs no RNG
/// dependency and every run sees the same inputs.
fn float_inputs(n: usize) -> Vec<f64> {
    let mut state: u64 = 0x9e3779b97f4a7c15;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        })
        .collect()
}

fn engine(
    compiled: &Compiled,
    node: &str,
    particles: usize,
    method: Method,
    backend: ExecBackend,
) -> MufEngine {
    let options = Options {
        method,
        seed: 42,
        backend,
    };
    compiled
        .infer_node(node, particles, options)
        .unwrap_or_else(|e| panic!("{node} ({backend:?}): {e}"))
}

/// Drives `node` on the interpreter and on the tape and asserts
/// bit-identical posteriors at every tick, for every method,
/// including after a reset. Also asserts the tape actually lowered —
/// a silent fallback to the interpreter would make this test vacuous.
fn assert_backends_identical(
    file: &str,
    compiled: &Compiled,
    node: &str,
    particles: usize,
    inputs: &[Value],
) {
    for method in METHODS {
        let mut interp = engine(compiled, node, particles, method, ExecBackend::Interp);
        let mut tape = engine(compiled, node, particles, method, ExecBackend::Tape);
        assert_eq!(
            interp.tape_status(),
            None,
            "{file}/{node}: interpreter backend must not hold a tape"
        );
        let mut first_run = Vec::new();
        for (t, input) in inputs.iter().enumerate() {
            let p_interp = interp.step(input).expect("interp step");
            let p_tape = tape.step(input).expect("tape step");
            assert_eq!(
                p_interp.mean_float().to_bits(),
                p_tape.mean_float().to_bits(),
                "{file}/{node} {method:?} tick {t}: mean drifted \
                 ({} vs {})",
                p_interp.mean_float(),
                p_tape.mean_float()
            );
            assert_eq!(
                p_interp, p_tape,
                "{file}/{node} {method:?} tick {t}: posterior drifted"
            );
            first_run.push(p_tape);
        }
        assert_eq!(
            tape.tape_status(),
            Some(Ok(())),
            "{file}/{node} {method:?}: tape did not lower"
        );
        // Reset must rebuild the register-file state slots from the
        // initial state: a second run replays the first bit-for-bit.
        tape.reset();
        for (t, input) in inputs.iter().enumerate() {
            let p = tape.step(input).expect("tape replay step");
            assert_eq!(
                p, first_run[t],
                "{file}/{node} {method:?} tick {t}: reset diverged"
            );
        }
    }
}

/// Drives a deterministic node (embedded `infer` sites and all) with both
/// backends and asserts identical outputs at every tick. Embedded engines
/// inherit the instance's backend, so this exercises the tape through the
/// EngineInit/Infer path rather than the driver path.
fn assert_instance_identical(file: &str, compiled: &Compiled, node: &str, inputs: &[Value]) {
    for method in METHODS {
        let mk = |backend| {
            compiled
                .instantiate(
                    node,
                    Options {
                        method,
                        seed: 7,
                        backend,
                    },
                )
                .unwrap_or_else(|e| panic!("{file}/{node} ({backend:?}): {e}"))
        };
        let mut inst_interp = mk(ExecBackend::Interp);
        let mut inst_tape = mk(ExecBackend::Tape);
        for (t, input) in inputs.iter().enumerate() {
            let v_interp = inst_interp.step(input.clone()).expect("interp step");
            let v_tape = inst_tape.step(input.clone()).expect("tape step");
            assert_eq!(
                format!("{v_interp:?}"),
                format!("{v_tape:?}"),
                "{file}/{node} {method:?} tick {t}: output drifted"
            );
        }
    }
}

/// Runs a file's probabilistic node on both backends, all methods.
fn check_infer(file: &str, node: &str, particles: usize, inputs: &[Value]) {
    let compiled = compile_source(&example(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert_backends_identical(file, &compiled, node, particles, inputs);
}

fn check_instance(file: &str, node: &str, inputs: &[Value]) {
    let compiled = compile_source(&example(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert_instance_identical(file, &compiled, node, inputs);
}

#[test]
fn hmm_posteriors_are_bit_identical() {
    let inputs: Vec<Value> = float_inputs(40).into_iter().map(Value::Float).collect();
    check_infer("hmm.zl", "hmm", 50, &inputs);
}

#[test]
fn coin_posteriors_are_bit_identical() {
    let inputs: Vec<Value> = float_inputs(40)
        .into_iter()
        .map(|x| Value::Bool(x > 0.0))
        .collect();
    check_infer("coin.zl", "coin", 50, &inputs);
}

fn robot_inputs(n: usize) -> Vec<Value> {
    // (a_obs, (has_gps, (p_obs, prev_cmd))) — the gps_acc_tracker input.
    float_inputs(n)
        .iter()
        .enumerate()
        .map(|(t, &x)| {
            Value::pair(
                Value::Float(x * 0.1),
                Value::pair(
                    Value::Bool(t % 5 == 0),
                    Value::pair(Value::Float(x.abs()), Value::Float(0.0)),
                ),
            )
        })
        .collect()
}

#[test]
fn robot_tracker_posteriors_are_bit_identical() {
    check_infer("robot.zl", "gps_acc_tracker", 30, &robot_inputs(25));
}

#[test]
fn hmm_embedded_main_is_identical() {
    let inputs: Vec<Value> = float_inputs(15).into_iter().map(Value::Float).collect();
    check_instance("hmm.zl", "main", &inputs);
}

#[test]
fn coin_embedded_main_is_identical() {
    let inputs: Vec<Value> = float_inputs(15)
        .into_iter()
        .map(|x| Value::Bool(x > 0.0))
        .collect();
    check_instance("coin.zl", "main", &inputs);
}

#[test]
fn counter_is_identical() {
    let inputs: Vec<Value> = float_inputs(20).into_iter().map(Value::Float).collect();
    check_instance("counter.zl", "counter", &inputs);
}

#[test]
fn robot_drivers_are_identical() {
    let inputs = robot_inputs(12);
    check_instance("robot.zl", "robot", &inputs);
    check_instance("robot.zl", "task_bot", &inputs);
}

/// A kernel whose successor state holds a constant leaf (the `->` first
/// flag, `false` after the first tick) and a captured variable (`pre y`
/// inside the embedded `infer`, where `y` is the driver's stream captured
/// by the transition closure). Neither register is written by the tape,
/// so stepping must copy them out, not take them: a taken constant or
/// environment register is `nil` for the next particle.
const KEEP: &str = r#"
    let node keep y = z where
      rec z = sample (gaussian (0. -> pre y, 1.))
      and () = observe (gaussian (z, 1.), y)

    let node main y = infer 3 keep y
"#;

#[test]
fn constant_and_captured_state_leaves_survive_every_particle() {
    let inputs: Vec<Value> = float_inputs(6).into_iter().map(Value::Float).collect();
    let compiled = compile_source(KEEP).expect("keep compiles");
    assert_instance_identical("keep", &compiled, "main", &inputs);
    assert_backends_identical("keep", &compiled, "keep", 3, &inputs);
}

/// The steady-state allocation claim, witnessed the same way the engine
/// scratch is in `tests/memory_bounds.rs`: the tape's register file plus
/// flattened state slots reach a fixed footprint by the first tick and
/// never change again over 300 ticks — the per-particle hot loop neither
/// grows a register nor reallocates one.
#[test]
fn tape_scratch_plateaus_after_warmup() {
    let src = example("hmm.zl");
    let compiled = compile_source(&src).expect("hmm compiles");
    for method in [Method::ParticleFilter, Method::StreamingDs] {
        let mut engine = engine(&compiled, "hmm", 64, method, ExecBackend::Tape);
        let inputs = float_inputs(300);
        for x in &inputs[..5] {
            engine.step(&Value::Float(*x)).expect("warmup step");
        }
        assert_eq!(engine.tape_status(), Some(Ok(())), "{method:?}: no tape");
        let warm = engine
            .tape_scratch_bytes()
            .expect("tape backend reports scratch");
        assert!(warm > 0, "{method:?}: tape scratch never warmed up");
        for (t, x) in inputs[5..].iter().enumerate() {
            engine.step(&Value::Float(*x)).expect("steady-state step");
            assert_eq!(
                engine.tape_scratch_bytes(),
                Some(warm),
                "{method:?}: tape scratch changed at tick {}",
                t + 5
            );
        }
    }
}

/// An interpreter-backed engine reports no tape at all — the accessors
/// are how drivers audit which backend actually ran.
#[test]
fn interp_backend_reports_no_tape() {
    let src = example("hmm.zl");
    let compiled = compile_source(&src).expect("hmm compiles");
    let mut eng = engine(
        &compiled,
        "hmm",
        8,
        Method::StreamingDs,
        ExecBackend::Interp,
    );
    eng.step(&Value::Float(0.5)).expect("step");
    assert_eq!(eng.tape_status(), None);
    assert_eq!(eng.tape_scratch_bytes(), None);
}

/// One tick as `MufEngine::step` reports it: the posterior, or the
/// error's text.
type Outcome = Result<Posterior, String>;

/// Steps an interpreter engine and a tape engine, both made by `mk`,
/// through `inputs` under PF and SDS. At every tick both must give the
/// same outcome: bit-identical posteriors or the same error text. The
/// tape must have lowered, and after a reset it must replay its
/// outcomes. Returns the outcomes per method.
fn assert_outcomes_identical(
    what: &str,
    mk: impl Fn(Method, ExecBackend) -> MufEngine,
    inputs: &[Value],
) -> Vec<Vec<Outcome>> {
    assert_outcomes_identical_under(
        &[Method::ParticleFilter, Method::StreamingDs],
        what,
        mk,
        inputs,
    )
}

/// [`assert_outcomes_identical`] under each of `methods`.
fn assert_outcomes_identical_under(
    methods: &[Method],
    what: &str,
    mk: impl Fn(Method, ExecBackend) -> MufEngine,
    inputs: &[Value],
) -> Vec<Vec<Outcome>> {
    methods
        .iter()
        .map(|&method| {
            let mut interp = mk(method, ExecBackend::Interp);
            let mut tape = mk(method, ExecBackend::Tape);
            let run = |engine: &mut MufEngine| -> Vec<Outcome> {
                inputs
                    .iter()
                    .map(|x| engine.step(x).map_err(|e| e.to_string()))
                    .collect()
            };
            let expected = run(&mut interp);
            let got = run(&mut tape);
            for (t, (e, g)) in expected.iter().zip(&got).enumerate() {
                assert_eq!(e, g, "{what} {method:?} tick {t}: backends differ");
            }
            assert_eq!(
                tape.tape_status(),
                Some(Ok(())),
                "{what} {method:?}: tape did not lower"
            );
            tape.reset();
            assert_eq!(run(&mut tape), got, "{what} {method:?}: reset diverged");
            got
        })
        .collect()
}

/// A runtime error raised in a particle step, on either backend and
/// through either pipeline, prints its stage once: the error
/// crosses the engine as a `RuntimeError` and back into a `LangError`.
#[test]
fn runtime_errors_carry_one_stage_prefix() {
    const WANT: &str = "evaluation error: type mismatch: expected float, got int";
    let compiled = compile_source(&example("hmm.zl")).expect("hmm compiles");
    for backend in [ExecBackend::Interp, ExecBackend::Tape] {
        let mut hmm = engine(&compiled, "hmm", 4, Method::StreamingDs, backend);
        let err = hmm.step(&Value::Int(1)).unwrap_err();
        assert_eq!(err.to_string(), WANT, "hmm ({backend:?})");
        let options = Options {
            method: Method::StreamingDs,
            seed: 7,
            backend,
        };
        let mut main = compiled.instantiate("main", options).expect("instantiate");
        let err = main.step(Value::Int(1)).unwrap_err();
        assert_eq!(err.to_string(), WANT, "main ({backend:?})");
    }
}

fn lowered(compiled: &Compiled, node: &str) -> TapeProgram {
    let options = Options {
        method: Method::StreamingDs,
        seed: 0,
        backend: ExecBackend::Tape,
    };
    compiled
        .lower_node(node, options)
        .expect("lower_node runs")
        .unwrap_or_else(|e| panic!("{node} does not lower: {e}"))
}

/// A distribution that escapes to a value: `d` is both sampled and
/// observed in `escape`, and both sampled and returned in `returned`.
const ESCAPE: &str = r#"
    let node escape y = x where
      rec d = gaussian (0. -> pre x, 1.)
      and x = sample (d)
      and () = observe (d, y)

    let node returned y = d where
      rec d = gaussian (y, 1.)
      and x = sample (d)
      and () = observe (gaussian (x, 1.), y)
"#;

/// An escaping distribution keeps its boxed constructor and boxed
/// `sample`/`observe`, and the tape stays bit-identical to the
/// interpreter.
#[test]
fn escaping_distribution_stays_boxed() {
    let inputs: Vec<Value> = float_inputs(8).into_iter().map(Value::Float).collect();
    let compiled = compile_source(ESCAPE).expect("compiles");
    for node in ["escape", "returned"] {
        assert_outcomes_identical(
            node,
            |method, backend| engine(&compiled, node, 7, method, backend),
            &inputs,
        )
        .iter()
        .flatten()
        .for_each(|o| assert!(o.is_ok(), "{node}: {o:?}"));
    }
    let ops = lowered(&compiled, "escape").ops;
    assert!(
        ops.iter().any(|op| matches!(op, Op::Sample { .. }))
            && ops.iter().any(|op| matches!(op, Op::Observe { .. })),
        "escape: the shared distribution was fused: {ops:?}"
    );
    let ops = lowered(&compiled, "returned").ops;
    assert!(
        ops.iter().any(|op| matches!(op, Op::Sample { .. })),
        "returned: the returned distribution was fused: {ops:?}"
    );
}

/// Hand-written µF transitions `name = fun pat -> body`, all over the
/// same initial state.
struct Muf {
    program: MufProgram,
    init: MufValue,
}

impl Muf {
    fn new(init: MufValue, defs: Vec<(&str, MufPat, MufExpr)>) -> Muf {
        let defs = defs
            .into_iter()
            .map(|(name, pat, body)| MufDef {
                name: name.into(),
                expr: MufExpr::Fun(pat, Rc::new(body)),
            })
            .collect();
        Muf {
            program: MufProgram { defs },
            init,
        }
    }

    /// Appends the global `name = expr`, evaluated after the transitions.
    fn def(mut self, name: &str, expr: MufExpr) -> Muf {
        self.program.defs.push(MufDef {
            name: name.into(),
            expr,
        });
        self
    }

    /// The interpreter holding the transitions, and transition `name`.
    fn closure(&self, name: &str, options: Options) -> (Rc<Interp>, MufValue) {
        let interp = Interp::new(&self.program, options).expect("interp builds");
        let step = interp.global(name).expect("transition defined");
        (interp, step)
    }

    /// An engine of 4 particles over transition `name`.
    fn engine(&self, name: &str, method: Method, backend: ExecBackend) -> MufEngine {
        let options = Options {
            method,
            seed: 42,
            backend,
        };
        let (interp, step) = self.closure(name, options);
        MufEngine::new(interp, method, 4, self.init.clone(), step, true, 42).unwrap()
    }

    /// Transition `name` lowered to the tape.
    fn tape(&self, name: &str) -> TapeProgram {
        let (interp, step) = self.closure(name, Options::default());
        let MufValue::Closure(step) = step else {
            panic!("{name} is not a closure");
        };
        lower_closure(&interp, &step, &self.init, true).expect("lowers")
    }
}

fn var(x: &str) -> MufExpr {
    MufExpr::Var(x.into())
}

fn float(x: f64) -> MufExpr {
    MufExpr::Const(Const::Float(x))
}

fn gaussian(mean: MufExpr) -> MufExpr {
    MufExpr::Op(OpName::Gaussian, vec![mean, float(1.0)])
}

fn app(f: MufExpr, x: MufExpr) -> MufExpr {
    MufExpr::App(Box::new(f), Box::new(x))
}

/// Steps an interpreter engine and a tape engine over transition `name`
/// through `inputs` under PF and SDS: both give bit-identical outcomes,
/// every tick succeeds, and the tape engine reports that lowering
/// refused with `reason` (it interprets instead).
fn assert_refused_and_identical(muf: &Muf, name: &str, reason: &str, inputs: &[Value]) {
    for method in [Method::ParticleFilter, Method::StreamingDs] {
        let run = |backend| {
            let mut engine = muf.engine(name, method, backend);
            let outcomes: Vec<Outcome> = inputs
                .iter()
                .map(|x| engine.step(x).map_err(|e| e.to_string()))
                .collect();
            (outcomes, engine.tape_status())
        };
        let (expected, _) = run(ExecBackend::Interp);
        let (got, status) = run(ExecBackend::Tape);
        assert!(expected.iter().all(Result::is_ok), "{name}: {expected:?}");
        assert_eq!(got, expected, "{name} {method:?}: backends differ");
        assert_eq!(status, Some(Err(reason.to_string())), "{name} {method:?}");
    }
}

/// A transition closed over a closure refuses to lower: `step = mk inc`,
/// with `mk = fun f -> fun (s, x) -> (sample (gaussian (f x)), s)`, holds
/// `f` in its captured environment, so it applies a closure from a
/// register.
#[test]
fn closure_applied_from_a_register_refuses_to_lower() {
    let body = MufExpr::Tuple(vec![
        MufExpr::Sample(Box::new(gaussian(app(var("f"), var("x"))))),
        var("s"),
    ]);
    let muf = Muf::new(
        MufValue::unit(),
        vec![
            (
                "inc",
                MufPat::var("y"),
                MufExpr::Op(OpName::Add, vec![var("y"), float(1.0)]),
            ),
            (
                "mk",
                MufPat::var("f"),
                MufExpr::Fun(
                    MufPat::pair(MufPat::var("s"), MufPat::var("x")),
                    Rc::new(body),
                ),
            ),
        ],
    )
    .def("step", app(var("mk"), var("inc")));
    let inputs: Vec<Value> = float_inputs(6).into_iter().map(Value::Float).collect();
    assert_refused_and_identical(
        &muf,
        "step",
        "a closure is applied from a register",
        &inputs,
    );
}

/// A transition closed over a value lowers, with the value in an env
/// slot: `step = mk 2.`, with `mk = fun c -> fun (s, x) -> (sample
/// (gaussian (c + x)), s)`. The engine is built over that closure and
/// never re-closed, so only the per-tick load fills the env slot.
#[test]
fn captured_value_loads_into_its_env_slot() {
    let body = MufExpr::Tuple(vec![
        MufExpr::Sample(Box::new(gaussian(MufExpr::Op(
            OpName::Add,
            vec![var("c"), var("x")],
        )))),
        var("s"),
    ]);
    let muf = Muf::new(
        MufValue::unit(),
        vec![(
            "mk",
            MufPat::var("c"),
            MufExpr::Fun(
                MufPat::pair(MufPat::var("s"), MufPat::var("x")),
                Rc::new(body),
            ),
        )],
    )
    .def("step", app(var("mk"), float(2.0)));
    assert_eq!(muf.tape("step").env_slots.len(), 1, "c is an env slot");
    let inputs: Vec<Value> = float_inputs(6).into_iter().map(Value::Float).collect();
    assert_outcomes_identical(
        "step",
        |method, backend| muf.engine("step", method, backend),
        &inputs,
    )
    .iter()
    .flatten()
    .for_each(|o| assert!(o.is_ok(), "step: {o:?}"));
}

/// A call to a global closure that captured an environment refuses to
/// lower: `step = fun (s, x) -> (sample (gaussian (g x)), s)` calls
/// `g = (fun a -> fun b -> a + b) 1.`, whose body reads `a` from its
/// environment.
#[test]
fn call_to_a_closure_with_an_environment_refuses_to_lower() {
    let adder = MufExpr::Fun(
        MufPat::var("a"),
        Rc::new(MufExpr::Fun(
            MufPat::var("b"),
            Rc::new(MufExpr::Op(OpName::Add, vec![var("a"), var("b")])),
        )),
    );
    let body = MufExpr::Tuple(vec![
        MufExpr::Sample(Box::new(gaussian(app(var("g"), var("x"))))),
        var("s"),
    ]);
    let muf = Muf::new(
        MufValue::unit(),
        vec![(
            "step",
            MufPat::pair(MufPat::var("s"), MufPat::var("x")),
            body,
        )],
    )
    .def("g", app(adder, float(1.0)));
    let inputs: Vec<Value> = float_inputs(6).into_iter().map(Value::Float).collect();
    assert_refused_and_identical(
        &muf,
        "step",
        "a called closure captures an environment",
        &inputs,
    );
}

/// A `nil` argument reaching a fused op fails the tick with the
/// interpreter's error text, and ticks whose arguments are defined run
/// bit-identically. The initialization analysis keeps compiled programs
/// from getting there, so the transitions are written in µF directly:
/// over a unit state, with `gaussian(y > 0. ? y : nil, 1.)` for input
/// `y`, `sample` samples the distribution and `observe` observes it.
#[test]
fn nil_distribution_argument_errors_like_the_interpreter() {
    let maybe_nil = || {
        gaussian(MufExpr::Select(
            Box::new(MufExpr::Op(OpName::Gt, vec![var("y"), float(0.0)])),
            Box::new(var("y")),
            Box::new(MufExpr::Const(Const::Nil)),
        ))
    };
    let unit = || MufExpr::Const(Const::Unit);
    let pat = || MufPat::pair(MufPat::Wildcard, MufPat::var("y"));
    let muf = Muf::new(
        MufValue::unit(),
        vec![
            (
                "sample",
                pat(),
                MufExpr::Tuple(vec![MufExpr::Sample(Box::new(maybe_nil())), unit()]),
            ),
            (
                "observe",
                pat(),
                MufExpr::Let(
                    MufPat::Unit,
                    Box::new(MufExpr::Observe(
                        Box::new(maybe_nil()),
                        Box::new(float(0.5)),
                    )),
                    Box::new(MufExpr::Tuple(vec![var("y"), unit()])),
                ),
            ),
        ],
    );
    let inputs: Vec<Value> = float_inputs(10).into_iter().map(Value::Float).collect();
    for what in ["sample", "observe"] {
        let ops = muf.tape(what).ops;
        assert!(
            ops.iter()
                .any(|op| matches!(op, Op::SampleDist { .. } | Op::ObserveDist { .. })),
            "{what}: no fused op: {ops:?}"
        );
        let outcomes = assert_outcomes_identical(
            what,
            |method, backend| muf.engine(what, method, backend),
            &inputs,
        );
        for run in outcomes {
            for (x, o) in inputs.iter().zip(run) {
                let positive = x.as_float().expect("float input") > 0.0;
                match o {
                    Ok(_) => assert!(positive, "{what}: nil mean did not fail at {x:?}"),
                    Err(e) => {
                        assert!(!positive, "{what}: failed at {x:?}: {e}");
                        assert!(
                            e.contains("uninitialized distribution; guard delays with `->`"),
                            "{what}: unexpected error {e}"
                        );
                    }
                }
            }
        }
    }
}

/// A fused constructor whose arguments are not all plain data fails the
/// tick with the tree walker's error text under PF and SDS, whether it
/// feeds a `sample` or an `observe`. The transitions are µF over a unit
/// state with input `y`, each fusing `gaussian(mean, var)` or
/// `bernoulli(p)`:
///
/// - a `nil` argument poisons the constructor (as in
///   `nil_distribution_argument_errors_like_the_interpreter`), and that
///   check runs before any argument converts: with a closure mean and a
///   `nil` variance the error is the `nil` one, not the closure's;
/// - a tuple argument converts to a core pair, and so fails in the
///   distribution, or in its conversion when it holds a `nil`;
/// - a closure argument fails to convert;
/// - an invalid parameter (a negative variance, a probability above 1)
///   builds a distribution that `sample`/`observe` reject.
#[test]
fn fused_distribution_errors_match_the_interpreter() {
    let nil = || MufExpr::Const(Const::Nil);
    let pair = |a, b| MufExpr::Tuple(vec![a, b]);
    let gaussian2 = |mean, var| MufExpr::Op(OpName::Gaussian, vec![mean, var]);
    let cases: Vec<(&str, MufExpr, &str)> = vec![
        (
            "closure_and_nil",
            gaussian2(var("id"), nil()),
            "uninitialized distribution; guard delays with `->`",
        ),
        ("tuple", gaussian2(pair(var("y"), var("y")), float(1.0)), ""),
        (
            "tuple_with_nil",
            gaussian2(pair(var("y"), nil()), float(1.0)),
            "uninitialized value (`nil`) observed",
        ),
        (
            "closure",
            gaussian2(var("id"), float(1.0)),
            "expected a data value, found a closure",
        ),
        ("negative_variance", gaussian2(var("y"), float(-1.0)), ""),
        (
            "probability_above_one",
            MufExpr::Op(OpName::Bernoulli, vec![float(1.5)]),
            "",
        ),
    ];
    let pat = || MufPat::pair(MufPat::Wildcard, MufPat::var("y"));
    let unit = || MufExpr::Const(Const::Unit);
    let mut defs = Vec::new();
    for (name, dist, _) in &cases {
        defs.push((
            format!("sample_{name}"),
            MufExpr::Tuple(vec![MufExpr::Sample(Box::new(dist.clone())), unit()]),
        ));
        defs.push((
            format!("observe_{name}"),
            MufExpr::Let(
                MufPat::Unit,
                Box::new(MufExpr::Observe(
                    Box::new(dist.clone()),
                    Box::new(float(1.0)),
                )),
                Box::new(MufExpr::Tuple(vec![var("y"), unit()])),
            ),
        ));
    }
    let muf = Muf::new(
        MufValue::unit(),
        defs.iter()
            .map(|(name, body)| (name.as_str(), pat(), body.clone()))
            .collect(),
    )
    .def("id", MufExpr::Fun(MufPat::var("x"), Rc::new(var("x"))));
    let inputs: Vec<Value> = float_inputs(4).into_iter().map(Value::Float).collect();
    for (name, _, error) in &cases {
        for what in [format!("sample_{name}"), format!("observe_{name}")] {
            let ops = muf.tape(&what).ops;
            assert!(
                ops.iter()
                    .any(|op| matches!(op, Op::SampleDist { .. } | Op::ObserveDist { .. })),
                "{what}: no fused op: {ops:?}"
            );
            let outcomes = assert_outcomes_identical(
                &what,
                |method, backend| muf.engine(&what, method, backend),
                &inputs,
            );
            for o in outcomes.iter().flatten() {
                assert!(
                    o.as_ref().is_err_and(|e| e.contains(error)),
                    "{what}: expected an error with {error:?}, got {o:?}"
                );
            }
        }
    }
}

/// A node whose output and one state leaf (`pre b`) are components of
/// its input: on the tape both are prologue registers, loaded once per
/// tick and read by every particle, so stepping must clone them out,
/// never take them.
const PASS: &str = r#"
    let node pass (a, b) = a where
      rec x = sample (gaussian (0. -> pre b, 1.))
      and () = observe (gaussian (x, 1.), a)
"#;

fn pair_inputs(n: usize) -> Vec<Value> {
    float_inputs(2 * n)
        .chunks(2)
        .map(|ab| Value::pair(Value::Float(ab[0]), Value::Float(ab[1])))
        .collect()
}

#[test]
fn input_components_in_output_and_state_survive_every_particle() {
    let inputs = pair_inputs(6);
    let compiled = compile_source(PASS).expect("compiles");
    assert_outcomes_identical(
        "pass",
        |method, backend| engine(&compiled, "pass", 4, method, backend),
        &inputs,
    )
    .iter()
    .flatten()
    .for_each(|o| assert!(o.is_ok(), "pass: {o:?}"));
    // The `pre b` leaf is the prologue register of `b` itself.
    let prog = lowered(&compiled, "pass");
    let prologue: Vec<_> = prog.ops[..prog.prologue]
        .iter()
        .filter_map(|op| match op {
            Op::Proj { dst, .. } => Some(*dst),
            _ => None,
        })
        .collect();
    assert!(
        prog.state_out
            .iter()
            .any(|o| matches!(o, StateOut::Clone(r) if prologue.contains(r))),
        "pass: no state leaf is a prologue register: {:?}",
        prog.state_out
    );
}

/// A node that destructures its input and keeps no state of its own.
const NOISY: &str = r#"
    let node noisy (m, y) = x where
      rec x = sample (gaussian (m, 1.))
      and () = observe (gaussian (x, 1.), y)
"#;

/// A tick whose input is not the pair the node destructures fails with
/// the same error on both backends (on the tape, in the prologue), and
/// the next well-formed tick runs normally.
#[test]
fn misshaped_input_errors_like_the_interpreter_and_recovers() {
    let mut inputs = pair_inputs(6);
    inputs[2] = Value::Float(1.0);
    let compiled = compile_source(NOISY).expect("compiles");
    for run in assert_outcomes_identical(
        "noisy",
        |method, backend| engine(&compiled, "noisy", 4, method, backend),
        &inputs,
    ) {
        for (t, o) in run.iter().enumerate() {
            assert_eq!(o.is_err(), t == 2, "noisy tick {t}: {o:?}");
        }
    }
}

/// One transition over the state `(a, k)`, initially `(0., 5.)`, with
/// input `(read, (m, obs))`. Both arms carry `k` through unchanged: when
/// `read` is false it samples around `m`, observes `obs` and never reads
/// `k`; when `read` is true it outputs `k`.
fn keep_or_read() -> Muf {
    let state = MufPat::pair(MufPat::var("a"), MufPat::var("k"));
    let input = MufPat::pair(
        MufPat::var("read"),
        MufPat::pair(MufPat::var("m"), MufPat::var("obs")),
    );
    let keep = MufExpr::Let(
        MufPat::var("x"),
        Box::new(MufExpr::Sample(Box::new(gaussian(var("m"))))),
        Box::new(MufExpr::Let(
            MufPat::Unit,
            Box::new(MufExpr::Observe(
                Box::new(gaussian(var("x"))),
                Box::new(var("obs")),
            )),
            Box::new(MufExpr::Tuple(vec![
                var("x"),
                MufExpr::Tuple(vec![var("x"), var("k")]),
            ])),
        )),
    );
    let read = MufExpr::Tuple(vec![var("k"), MufExpr::Tuple(vec![var("a"), var("k")])]);
    Muf::new(
        MufValue::Tuple(vec![
            MufValue::V(Value::Float(0.0)),
            MufValue::V(Value::Float(5.0)),
        ]),
        vec![(
            "step",
            MufPat::pair(state, input),
            MufExpr::If(Box::new(var("read")), Box::new(read), Box::new(keep)),
        )],
    )
}

/// A failed step leaves the particle no state, as on the interpreter,
/// including a leaf the step only carries through (`k`). The tick after
/// the failure reads that leaf, so a kept value would show.
#[test]
fn failed_step_clears_kept_state_slots() {
    let muf = keep_or_read();
    let tick = |read| {
        Value::pair(
            Value::Bool(read),
            Value::pair(Value::Float(0.3), Value::Float(0.1)),
        )
    };
    let inputs = [tick(false), Value::Float(1.0), tick(true)];
    for method in [Method::ParticleFilter, Method::StreamingDs] {
        let run = |backend| -> Vec<Outcome> {
            let mut engine = muf.engine("step", method, backend);
            let outcomes = inputs
                .iter()
                .map(|x| engine.step(x).map_err(|e| e.to_string()))
                .collect();
            assert_eq!(
                engine.tape_status(),
                (backend == ExecBackend::Tape).then_some(Ok(())),
                "{method:?} {backend:?}: tape status"
            );
            outcomes
        };
        let expected = run(ExecBackend::Interp);
        assert!(expected[0].is_ok() && expected[1].is_err(), "{expected:?}");
        assert!(
            expected[2]
                .as_ref()
                .is_err_and(|e| e.contains("uninitialized value")),
            "{method:?}: the failed step kept state on the interpreter: {:?}",
            expected[2]
        );
        assert_eq!(run(ExecBackend::Tape), expected, "{method:?}");
    }
}

/// Products fused into the sum that reads them ([`Op::AddMul`]), in every
/// operand order, over the operands the tape runs inline (floats and
/// affine terms) and those it hands to the interpreter's operator: a
/// `nil` `pre` at the first tick, integers, and symbolic × symbolic,
/// which realizes both factors (so the RNG order must match). `join`
/// takes a `Select`'s chosen branch and moves it into an `if` join
/// register.
const ADD_MUL: &str = r#"
    let node xyk y = x where
      rec a = sample (gaussian (0., 1.))
      and x = 0. -> pre x + a * 0.5
      and () = observe (gaussian (x, 1.), y)

    let node ykx y = x where
      rec a = sample (gaussian (0., 1.))
      and x = 0. -> a * 0.5 + pre x
      and () = observe (gaussian (x, 1.), y)

    let node kyx y = x where
      rec a = sample (gaussian (0., 1.))
      and x = 0. -> 0.5 * a + pre x
      and () = observe (gaussian (x, 1.), y)

    let node xxk y = x where
      rec a = sample (gaussian (0., 1.))
      and m = 0. -> pre x
      and x = m + m * 0.5 + a
      and () = observe (gaussian (x, 1.), y)

    let node ints y = x where
      rec c = 0 -> pre c + 3 * 2
      and x = sample (gaussian (float_of_int (c) * 0.01, 1.))
      and () = observe (gaussian (x, 1.), y)

    let node symsym y = x where
      rec a = sample (gaussian (0., 1.))
      and b = sample (gaussian (1., 1.))
      and x = 0. -> pre x + a * b
      and () = observe (gaussian (x, 1.), y)

    let node join y = x where
      rec a = sample (gaussian (0., 1.))
      and x = present (y > 0.) -> (0. -> pre x + a * 0.5) else a
      and () = observe (gaussian (x, 1.), y)
"#;

/// The first `AddMul` of a tape: its addend and left factor registers,
/// its `product_first` and its take mask.
fn add_mul(prog: &TapeProgram) -> (u32, u32, bool, u8) {
    prog.ops
        .iter()
        .zip(&prog.takes)
        .find_map(|(op, &mask)| match *op {
            Op::AddMul {
                x,
                a,
                product_first,
                ..
            } => Some((x, a, product_first, mask)),
            _ => None,
        })
        .expect("a fused product")
}

/// Every fused product runs bit-identically to the interpreter under
/// all five methods, on every tick and after a reset.
#[test]
fn fused_products_match_the_interpreter() {
    let inputs: Vec<Value> = float_inputs(12).into_iter().map(Value::Float).collect();
    let compiled = compile_source(ADD_MUL).expect("compiles");
    for (node, product_first) in [
        ("xyk", false),
        ("ykx", true),
        ("kyx", true),
        ("xxk", false),
        ("ints", false),
        ("symsym", false),
        ("join", false),
    ] {
        let prog = lowered(&compiled, node);
        let (x, a, first, mask) = add_mul(&prog);
        assert_eq!(first, product_first, "{node}: operand order");
        if node == "xxk" {
            // `m + m * 0.5`: the register read twice is never taken.
            assert_eq!(x, a, "xxk: one register twice");
            assert_eq!(mask & 0b011, 0, "xxk: a twice-read register was taken");
        } else {
            // The addend is `pre x`, a state register read once.
            assert_ne!(mask & 1, 0, "{node}: `pre x` is not taken");
        }
        assert_outcomes_identical_under(
            &Method::ALL,
            node,
            |method, backend| engine(&compiled, node, 7, method, backend),
            &inputs,
        )
        .iter()
        .flatten()
        .for_each(|o| assert!(o.is_ok(), "{node}: {o:?}"));
    }
    // In `join`, the `Select` takes the fused sum, and the join's `Move`
    // takes the `Select`.
    let prog = lowered(&compiled, "join");
    let at = |want: fn(&Op) -> bool| {
        let i = prog.ops.iter().position(want).expect("op present");
        prog.takes[i]
    };
    assert_ne!(at(|op| matches!(op, Op::Select { .. })) & 0b100, 0);
    assert_ne!(at(|op| matches!(op, Op::Move { .. })) & 1, 0);
}

/// A fused product whose sum or product is a type error fails the tick
/// with the interpreter's message, under all five methods. Compiled
/// programs cannot get there (the type checker rejects them), so the
/// transitions are µF over a unit state: `true + y * 2.` fails in the
/// sum and `y + true * 2.` in the product; in `true + 2 * 3` and
/// `2 * 3 + true` both operands of the sum are wrong, and the error names
/// the left one, so the sum keeps its operand order.
#[test]
fn fused_product_type_errors_match_the_interpreter() {
    let pat = || MufPat::pair(MufPat::Wildcard, MufPat::var("y"));
    let bool_ = || MufExpr::Const(Const::Bool(true));
    let int = |n| MufExpr::Const(Const::Int(n));
    let op = |op, a, b| MufExpr::Op(op, vec![a, b]);
    let body = |sum| {
        MufExpr::Tuple(vec![
            MufExpr::Sample(Box::new(gaussian(sum))),
            MufExpr::Const(Const::Unit),
        ])
    };
    let cases = [
        (
            "sum",
            op(OpName::Add, bool_(), op(OpName::Mul, var("y"), float(2.0))),
            "bool",
        ),
        (
            "product",
            op(OpName::Add, var("y"), op(OpName::Mul, bool_(), float(2.0))),
            "bool",
        ),
        (
            "sum_first",
            op(OpName::Add, bool_(), op(OpName::Mul, int(2), int(3))),
            "bool",
        ),
        (
            "product_first",
            op(OpName::Add, op(OpName::Mul, int(2), int(3)), bool_()),
            "int",
        ),
    ];
    let muf = Muf::new(
        MufValue::unit(),
        cases
            .iter()
            .map(|(name, sum, _)| (*name, pat(), body(sum.clone())))
            .collect(),
    );
    let inputs: Vec<Value> = float_inputs(3).into_iter().map(Value::Float).collect();
    for (what, _, got) in cases {
        assert!(
            muf.tape(what)
                .ops
                .iter()
                .any(|op| matches!(op, Op::AddMul { .. })),
            "{what}: no fused product"
        );
        for run in assert_outcomes_identical_under(
            &Method::ALL,
            what,
            |method, backend| muf.engine(what, method, backend),
            &inputs,
        ) {
            for o in run {
                let e = o.expect_err("a type error");
                let want = format!("type mismatch: expected number, got {got}");
                assert!(e.contains(&want), "{what}: {e}");
            }
        }
    }
}

/// An instance's output as the differential checks compare it: the
/// value's `Debug` text, with the mean and variance bits of every
/// posterior in it.
fn digest(v: &MufValue) -> String {
    match v {
        MufValue::Posterior(p) => format!(
            "posterior(mean {:#x}, var {:#x}) {p:?}",
            p.mean_float().to_bits(),
            p.variance_float().to_bits()
        ),
        MufValue::Tuple(xs) => {
            let parts: Vec<String> = xs.iter().map(digest).collect();
            format!("({})", parts.join(", "))
        }
        other => format!("{other:?}"),
    }
}

/// One tick as `Instance::step` reports it: the output's [`digest`], or
/// the error's text.
type DriverOutcome = Result<String, String>;

/// Steps a tree-walking and a driver-tape instance, both made by `mk`,
/// under every inference method: `ticks` ticks, a reset of both, then
/// `ticks` more. `input(t, last)` gives the input of tick `t` (counted
/// from the reset) from the interpreter instance's last output, so a
/// closed loop feeds both instances the same inputs. At every tick both
/// give the same outcome; the tape instance must have lowered. Returns
/// the outcomes per method.
fn assert_drivers_identical(
    what: &str,
    mk: impl Fn(Method, ExecBackend) -> Instance,
    ticks: usize,
    mut input: impl FnMut(usize, Option<&MufValue>) -> Value,
) -> Vec<Vec<DriverOutcome>> {
    Method::ALL
        .iter()
        .map(|&method| {
            let mut interp = mk(method, ExecBackend::Interp);
            let mut tape = mk(method, ExecBackend::Tape);
            assert_eq!(interp.tape_status(), None, "{what}: interpreter tape");
            let mut outcomes = Vec::new();
            for run in 0..2 {
                let mut last = None;
                for t in 0..ticks {
                    let x = input(t, last.as_ref());
                    let expected = interp.step(x.clone());
                    let got = tape.step(x).map(|v| digest(&v)).map_err(|e| e.to_string());
                    let expected_digest = expected.as_ref().map(digest).map_err(|e| e.to_string());
                    assert_eq!(
                        expected_digest, got,
                        "{what} {method:?} run {run} tick {t}: backends differ"
                    );
                    outcomes.push(got);
                    last = expected.ok();
                }
                interp.reset();
                tape.reset();
            }
            assert_eq!(
                tape.tape_status(),
                Some(Ok(())),
                "{what} {method:?}: no driver tape"
            );
            outcomes
        })
        .collect()
}

/// Instantiates `node` of `compiled` under `method` on `backend`.
fn instance(compiled: &Compiled, node: &str, method: Method, backend: ExecBackend) -> Instance {
    let options = Options {
        method,
        seed: 7,
        backend,
    };
    compiled
        .instantiate(node, options)
        .unwrap_or_else(|e| panic!("{node} ({backend:?}): {e}"))
}

/// A simulated robot for `robot.zl`'s drivers: a double integrator
/// driven by the last command, with an accelerometer every tick and a
/// GPS fix every fourth, noised by the LCG stream. Restarts at tick 0.
fn robot_loop() -> impl FnMut(usize, Option<&MufValue>) -> Value {
    let noise = float_inputs(64);
    let (mut pos, mut vel) = (0.0, 0.0);
    move |t, last| {
        let cmd = match last {
            Some(MufValue::Tuple(out)) => out[0].as_core().expect("cmd").as_float().expect("cmd"),
            _ => 0.0,
        };
        if t == 0 {
            (pos, vel) = (0.0, 0.0);
        }
        vel += cmd * 0.1;
        pos += vel * 0.1;
        let e = noise[t % noise.len()];
        Value::pair(
            Value::Float(cmd + 0.05 * e),
            Value::pair(
                Value::Bool(t % 4 == 0),
                Value::pair(Value::Float(pos + 0.01 * e), Value::Float(cmd)),
            ),
        )
    }
}

/// Every deterministic node of every committed example runs on its
/// driver tape exactly as on the tree walker, under every method and
/// across a reset. `task_bot` runs until its automaton has switched to
/// `Task` under every method: `at_target` turns true.
#[test]
fn driver_tapes_match_the_interpreter() {
    let floats = |t: usize, _: Option<&MufValue>| Value::Float(float_inputs(t + 1)[t]);
    let bools = |t: usize, _: Option<&MufValue>| Value::Bool(float_inputs(t + 1)[t] > 0.0);
    let pairs = |t: usize, _: Option<&MufValue>| pair_inputs(t + 1)[t].clone();
    for (file, node, ticks) in [
        ("counter.zl", "counter", 12),
        ("coin.zl", "main", 12),
        ("hmm.zl", "main", 12),
        ("robot.zl", "integr", 12),
        ("robot.zl", "tracker", 12),
        ("robot.zl", "robot", 12),
        ("robot.zl", "task_bot", 60),
    ] {
        let compiled = compile_source(&example(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(compiled.kinds[node], probzelus_lang::Kind::D, "{node}");
        let mk = |method, backend| instance(&compiled, node, method, backend);
        let what = format!("{file}/{node}");
        let outcomes = match node {
            "robot" | "task_bot" => assert_drivers_identical(&what, mk, ticks, robot_loop()),
            "main" if file == "coin.zl" => assert_drivers_identical(&what, mk, ticks, bools),
            "integr" => assert_drivers_identical(&what, mk, ticks, pairs),
            _ => assert_drivers_identical(&what, mk, ticks, floats),
        };
        for (method, run) in Method::ALL.iter().zip(&outcomes) {
            assert!(run.iter().all(Result::is_ok), "{what} {method:?}: {run:?}");
            if node == "task_bot" {
                assert!(
                    run.iter()
                        .any(|o| o.as_deref().is_ok_and(|o| o.ends_with("V(Bool(true)))"))),
                    "{what} {method:?}: never reached Task"
                );
            }
        }
    }
}

/// A driver that restarts an embedded engine: `reset` over an `infer`
/// deep-copies the pristine engine (`freshen`) whenever `c` holds, on the
/// tape as on the tree walker.
const RESTART: &str = r#"
    let node hmm y = x where
      rec x = sample (gaussian ((0. -> pre x), (100. -> 1.)))
      and () = observe (gaussian (x, 1.), y)

    let node restart (y, c) = reset (infer 5 hmm y) every c
"#;

#[test]
fn restarted_engines_match_the_interpreter() {
    let compiled = compile_source(RESTART).expect("restart compiles");
    let prog = lowered(&compiled, "restart");
    assert!(
        prog.ops.iter().any(|op| matches!(op, Op::Freshen { .. })),
        "restart: no freshen: {:?}",
        prog.ops
    );
    let input = |t: usize, _: Option<&MufValue>| {
        Value::pair(
            Value::Float(float_inputs(t + 1)[t]),
            Value::Bool(t % 3 == 2),
        )
    };
    for run in assert_drivers_identical(
        "restart",
        |method, backend| instance(&compiled, "restart", method, backend),
        9,
        input,
    ) {
        assert!(run.iter().all(Result::is_ok), "restart: {run:?}");
    }
}

/// After `Instance::reset`, a driver gives exactly a fresh instance's
/// outputs: its embedded engines restart from their initial state, not
/// from where the running ones are.
#[test]
fn reset_restores_embedded_engines() {
    for (file, node) in [("hmm.zl", "main"), ("robot.zl", "robot")] {
        let compiled = compile_source(&example(file)).expect("example compiles");
        let inputs: Vec<Value> = match node {
            "robot" => robot_inputs(8),
            _ => [5.0, 6.0, 7.0, 8.0, 1.0, 1.5, 2.0, 2.5]
                .into_iter()
                .map(Value::Float)
                .collect(),
        };
        for backend in [ExecBackend::Interp, ExecBackend::Tape] {
            let run = |inst: &mut Instance, xs: &[Value]| -> Vec<String> {
                xs.iter()
                    .map(|x| digest(&inst.step(x.clone()).expect("step")))
                    .collect()
            };
            let fresh = run(
                &mut instance(&compiled, node, Method::StreamingDs, backend),
                &inputs,
            );
            let mut inst = instance(&compiled, node, Method::StreamingDs, backend);
            run(&mut inst, &inputs[..4]);
            inst.reset();
            assert_eq!(
                run(&mut inst, &inputs),
                fresh,
                "{file}/{node} ({backend:?}): reset is not a fresh start"
            );
        }
    }
}

/// Hand-written µF drivers `name_step = fun (s, x) -> (body, s)` over a
/// float state, one per ill-typed body: each lowers to a driver tape,
/// and every tick fails with the tree walker's error.
#[test]
fn ill_typed_drivers_error_like_the_interpreter() {
    let pat = || MufPat::pair(MufPat::var("s"), MufPat::var("x"));
    let dist = || gaussian(var("x"));
    let cases: Vec<(&str, MufExpr, &str)> = vec![
        (
            "sample",
            MufExpr::Sample(Box::new(dist())),
            "`sample` used outside",
        ),
        (
            "observe",
            MufExpr::Observe(Box::new(dist()), Box::new(var("x"))),
            "`observe` used outside",
        ),
        (
            "factor",
            MufExpr::Factor(Box::new(var("x"))),
            "`factor` used outside",
        ),
        (
            "value",
            MufExpr::ValueOp(Box::new(var("x"))),
            "`value` used outside",
        ),
        (
            "infer",
            MufExpr::Let(
                MufPat::pair(MufPat::var("d"), MufPat::Wildcard),
                Box::new(MufExpr::Infer {
                    particles: 1,
                    body: Box::new(MufExpr::Fun(
                        MufPat::var("q"),
                        Rc::new(MufExpr::Tuple(vec![var("x"), var("q")])),
                    )),
                    state: Box::new(var("s")),
                }),
                Box::new(var("d")),
            ),
            "infer state must be an engine, found",
        ),
        (
            "types",
            MufExpr::Op(
                OpName::Add,
                vec![var("x"), MufExpr::Const(Const::Bool(true))],
            ),
            "type mismatch",
        ),
        (
            "destructure",
            MufExpr::Let(
                MufPat::pair(MufPat::var("a"), MufPat::var("b")),
                Box::new(var("x")),
                Box::new(var("a")),
            ),
            "cannot destructure",
        ),
    ];
    let defs: Vec<MufDef> = cases
        .iter()
        .flat_map(|(name, body, _)| {
            let step = MufExpr::Fun(pat(), Rc::new(MufExpr::Tuple(vec![body.clone(), var("s")])));
            let init = MufExpr::Fun(MufPat::Unit, Rc::new(float(0.0)));
            [
                MufDef {
                    name: format!("{name}_step"),
                    expr: step,
                },
                MufDef {
                    name: format!("{name}_init"),
                    expr: init,
                },
            ]
        })
        .collect();
    let program = MufProgram { defs };
    for (name, _, want) in &cases {
        let mk = |method, backend| {
            let options = Options {
                method,
                seed: 7,
                backend,
            };
            let interp = Interp::new(&program, options).expect("interp builds");
            Instance::new(interp, name).expect("instantiates")
        };
        for run in
            assert_drivers_identical(name, mk, 3, |t, _| Value::Float(float_inputs(t + 1)[t]))
        {
            for o in run {
                let e = o.expect_err(name);
                assert!(e.contains(want), "{name}: {e}");
            }
        }
    }
}

/// A value of type `ty`: every scalar a fixed one, and `()` for a type
/// the node leaves open.
fn value_of(ty: &probzelus_lang::Ty) -> Value {
    use probzelus_lang::Ty;
    match ty {
        Ty::Float => Value::Float(0.5),
        Ty::Int => Value::Int(1),
        Ty::Bool => Value::Bool(true),
        Ty::Unit | Ty::Var(_) => Value::Unit,
        Ty::Pair(a, b) => Value::pair(value_of(a), value_of(b)),
        Ty::Dist(_) => panic!("no input of type {ty}"),
    }
}

/// Every node of every committed example runs on the tape after one
/// tick: a probabilistic node's engine reports its tape through
/// `MufEngine::tape_status`, a deterministic node's instance its driver
/// tape through `Instance::tape_status`. Nothing falls back to the tree
/// walker.
#[test]
fn every_example_node_runs_on_the_tape() {
    let dir = format!("{}/../../examples/zelus", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "zl"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 4, "{files:?}");
    for path in files {
        let src = std::fs::read_to_string(&path).expect("example reads");
        let compiled = compile_source(&src).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        for (node, kind) in &compiled.kinds {
            let input = value_of(&compiled.sigs[node].input);
            let status = match kind {
                probzelus_lang::Kind::P => {
                    let mut e = engine(&compiled, node, 4, Method::StreamingDs, ExecBackend::Tape);
                    e.step(&input).unwrap_or_else(|e| panic!("{node}: {e}"));
                    e.tape_status()
                }
                probzelus_lang::Kind::D => {
                    let mut i = instance(&compiled, node, Method::StreamingDs, ExecBackend::Tape);
                    i.step(input).unwrap_or_else(|e| panic!("{node}: {e}"));
                    i.tape_status()
                }
            };
            assert_eq!(status, Some(Ok(())), "{path:?}: {node} is not on the tape");
        }
    }
}

/// Steps an interpreter engine and a tape engine, both made by `mk`,
/// through `inputs` under all five methods, resetting both before tick
/// `reset_at`, so the ticks after the reset step particles on the tape's
/// first-instant program again and then on its steady one. At every tick
/// both must give the same outcome: the same error text, or identical
/// posteriors with bit-identical means and variances.
fn assert_reset_mid_stream_identical(
    what: &str,
    mk: impl Fn(Method, ExecBackend) -> MufEngine,
    inputs: &[Value],
    reset_at: usize,
) {
    for method in Method::ALL {
        let run = |backend| -> Vec<Outcome> {
            let mut engine = mk(method, backend);
            let outcomes = inputs
                .iter()
                .enumerate()
                .map(|(t, x)| {
                    if t == reset_at {
                        engine.reset();
                    }
                    engine.step(x).map_err(|e| e.to_string())
                })
                .collect();
            if backend == ExecBackend::Tape {
                assert_eq!(engine.tape_status(), Some(Ok(())), "{what} {method:?}");
            }
            outcomes
        };
        let expected = run(ExecBackend::Interp);
        let got = run(ExecBackend::Tape);
        for (t, (e, g)) in expected.iter().zip(&got).enumerate() {
            assert_eq!(e, g, "{what} {method:?} tick {t}: backends differ");
            if let (Ok(e), Ok(g)) = (e, g) {
                let moments =
                    |p: &Posterior| (p.mean_float().to_bits(), p.variance_float().to_bits());
                assert_eq!(
                    moments(e),
                    moments(g),
                    "{what} {method:?} tick {t}: moments"
                );
            }
        }
    }
}

/// A mid-stream `MufEngine::reset` puts every particle back on its
/// initial slots: the next tick runs the first-instant program, the ones
/// after it the steady program, bit for bit as the tree walker runs them.
#[test]
fn reset_mid_stream_matches_the_interpreter() {
    let floats: Vec<Value> = float_inputs(14).into_iter().map(Value::Float).collect();
    for (file, node, inputs) in [
        ("hmm.zl", "hmm", floats),
        ("robot.zl", "gps_acc_tracker", robot_inputs(14)),
    ] {
        let compiled = compile_source(&example(file)).expect("example compiles");
        assert!(
            lowered(&compiled, node).steady.is_some(),
            "{node}: no steady program"
        );
        assert_reset_mid_stream_identical(
            node,
            |method, backend| engine(&compiled, node, 20, method, backend),
            &inputs,
            6,
        );
    }
}

/// Flags that the program can re-arm. Under `reset … every c`, the
/// `->` of `rst` is re-armed from a copy of its initial state that the
/// particle keeps (its running flag alone is `false` after every step);
/// an automaton re-arms each state's flags on entry, so none of `auto`'s
/// slots has a constant successor. `flagonly`'s whole state is one flag.
const REARMED: &str = r#"
    let node rst (y, c) = x where
      rec a = sample (gaussian (0., 1.))
      and x = reset (0. -> pre x + a) every c
      and () = observe (gaussian (x, 1.), y)

    let node auto y = x where
      rec automaton
          | Low -> do x = sample (gaussian ((0. -> pre x), 1.)) until y > 1. then High
          | High -> do x = sample (gaussian ((5. -> pre x), 1.)) until y < 0. - 1. then Low
      and () = observe (gaussian (x, 1.), y)

    let node flagonly y = x where
      rec c = 0. -> 1.
      and x = sample (gaussian (c, 1.))
      and () = observe (gaussian (x, 1.), y)
"#;

/// A `->` under `reset … every c` keeps the slot it is re-armed from,
/// and the select on it, in the steady program; the node runs as on the
/// tree walker under all five methods, across resets of both kinds.
#[test]
fn flags_under_reset_keep_their_slots() {
    let compiled = compile_source(REARMED).expect("rearmed compiles");
    let prog = lowered(&compiled, "rst");
    let steady = prog
        .steady
        .as_ref()
        .expect("rst: the running flag is constant");
    let kept_flags = prog
        .init_slots
        .iter()
        .zip(&steady.keep)
        .filter(|&(v, &keep)| keep && matches!(v, MufValue::V(Value::Bool(true))))
        .count();
    assert_eq!(
        kept_flags,
        1,
        "rst: the re-armed flag's slot: {}",
        prog.render()
    );
    assert!(
        steady.ops.iter().any(|op| matches!(op, Op::Select { .. })),
        "rst: the re-armed select is gone: {}",
        prog.render()
    );
    let inputs: Vec<Value> = float_inputs(14)
        .into_iter()
        .enumerate()
        .map(|(t, y)| Value::pair(Value::Float(y), Value::Bool(t % 4 == 2)))
        .collect();
    assert_reset_mid_stream_identical(
        "rst",
        |method, backend| engine(&compiled, "rst", 10, method, backend),
        &inputs,
        7,
    );
}

/// An automaton re-arms its states' flags, so no slot of its state is
/// constant and the tape has no steady program; it runs as on the tree
/// walker under all five methods, switching states both ways.
#[test]
fn automaton_flags_keep_their_slots() {
    let compiled = compile_source(REARMED).expect("rearmed compiles");
    assert!(lowered(&compiled, "auto").steady.is_none(), "auto");
    let inputs: Vec<Value> = float_inputs(20).into_iter().map(Value::Float).collect();
    assert!(
        inputs.iter().any(|y| y.as_float().unwrap() > 1.0)
            && inputs.iter().any(|y| y.as_float().unwrap() < -1.0),
        "the inputs switch states both ways"
    );
    assert_reset_mid_stream_identical(
        "auto",
        |method, backend| engine(&compiled, "auto", 10, method, backend),
        &inputs,
        11,
    );
}

/// A failed step leaves the particle no state on the tree walker, so its
/// flags read `nil` at the next tick. On the tape a failed steady step
/// gives the particle back the first-instant program's slots, all `nil`,
/// so the next tick fails as the tree walker's does instead of reading
/// the pinned `false`.
#[test]
fn failed_steady_step_leaves_no_flags() {
    let compiled = compile_source(REARMED).expect("rearmed compiles");
    let steady = lowered(&compiled, "flagonly").steady.expect("flagonly");
    assert!(
        steady.state_in.is_empty(),
        "flagonly: {:?}",
        steady.state_in
    );
    let inputs = [
        Value::Float(0.5),
        Value::Float(0.2),
        Value::Bool(true),
        Value::Float(0.3),
    ];
    for run in assert_outcomes_identical_under(
        &Method::ALL,
        "flagonly",
        |method, backend| engine(&compiled, "flagonly", 4, method, backend),
        &inputs,
    ) {
        assert!(run[1].is_ok() && run[2].is_err(), "{run:?}");
        assert!(
            run[3]
                .as_ref()
                .is_err_and(|e| e.contains("uninitialized distribution")),
            "the failed step left a flag: {:?}",
            run[3]
        );
    }
}

/// Copy propagation in a steady program next to what it must leave alone:
/// the `present` join `z` feeds the output and its own `pre z` slot, and
/// is written in both arms, so its moves stay; the `->` inside the `else`
/// arm is re-armed only when that arm runs, so it keeps its slot; and
/// `pre (0. -> pre x)` passes the `pre x` slot to the next one unchanged
/// once its flag is constant (`gps_acc_tracker`'s slot 0 to slot 3).
const JOINS: &str = r#"
    let node joins (y, c) = z where
      rec x = sample (gaussian (0. -> pre x, 1.))
      and z = present c -> x else (0. -> pre z)
      and w = 0. -> pre (0. -> pre x)
      and () = observe (gaussian (z + w, 1.), y)
"#;

/// The steady program of `joins` reads through its copies, keeps its join
/// moves, passes a state-in register straight to the successor state, and
/// runs as on the tree walker under all five methods, across a reset.
#[test]
fn copy_propagation_keeps_joins_and_passes_slots_through() {
    let compiled = compile_source(JOINS).expect("joins compiles");
    let prog = lowered(&compiled, "joins");
    let steady = prog.steady.as_ref().expect("joins has a steady program");
    let probzelus_lang::tape::OutSpec::Reg(z) = prog.out else {
        panic!("joins: output {:?}", prog.out);
    };
    let writes = |r| steady.ops.iter().filter(|op| op.dst() == Some(r)).count();
    assert_eq!(writes(z), 2, "joins: the join's moves: {}", prog.render());
    let outs: Vec<u32> = steady
        .state_out
        .iter()
        .map(|o| match *o {
            StateOut::Move(r) | StateOut::Clone(r) => r,
        })
        .collect();
    assert!(outs.contains(&z), "joins: `pre z` reads the join: {outs:?}");
    assert!(
        outs.iter().any(|r| steady.state_in.contains(r)),
        "joins: no slot passes through: {}",
        prog.render()
    );
    // `c` holds for the first ticks after the start and after the reset,
    // so steady steps carry the `else` arm's flag through the `then` arm
    // before the `else` arm first reads it.
    let inputs: Vec<Value> = float_inputs(16)
        .into_iter()
        .enumerate()
        .map(|(t, y)| Value::pair(Value::Float(y), Value::Bool(!matches!(t % 7, 3 | 5))))
        .collect();
    assert_reset_mid_stream_identical(
        "joins",
        |method, backend| engine(&compiled, "joins", 10, method, backend),
        &inputs,
        7,
    );
}
