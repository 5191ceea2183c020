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
use probzelus_lang::{Const, ExecBackend, MufEngine, MufValue, OpName, Options};
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
    [Method::ParticleFilter, Method::StreamingDs]
        .into_iter()
        .map(|method| {
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
