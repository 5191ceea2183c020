//! Differential oracle for the flat instruction tape: every committed
//! example program must produce **bit-identical** posteriors (and
//! deterministic outputs) under `ExecBackend::Tape` vs. the tree-walking
//! interpreter, across every inference method and both the plain and
//! the optimizing pipeline. The interpreter is
//! the semantic oracle; the tape's claim is that lowering changes only
//! the cost model, never a bit of the posterior.
//!
//! Worker-pool counts are deliberately not a test axis: `MufModel` holds
//! `Rc` state and is not `Send`, so DSL engines always step particles
//! sequentially regardless of the configured parallelism.

use probzelus_core::infer::Method;
use probzelus_core::Value;
use probzelus_lang::pipeline::{compile_source, compile_source_opt, Compiled};
use probzelus_lang::{ExecBackend, MufEngine, Options};

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

/// Runs a file's probabilistic node through both pipelines (plain and
/// optimizing), both backends, all methods.
fn check_infer(file: &str, node: &str, particles: usize, inputs: &[Value]) {
    let src = example(file);
    let base = compile_source(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
    let opt = compile_source_opt(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert_backends_identical(file, &base, node, particles, inputs);
    assert_backends_identical(file, &opt, node, particles, inputs);
}

fn check_instance(file: &str, node: &str, inputs: &[Value]) {
    let src = example(file);
    let base = compile_source(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
    let opt = compile_source_opt(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert_instance_identical(file, &base, node, inputs);
    assert_instance_identical(file, &opt, node, inputs);
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

/// The steady-state allocation claim, witnessed the same way the engine
/// scratch is in `tests/memory_bounds.rs`: the tape's register file plus
/// flattened state slots reach a fixed footprint by the first tick and
/// never change again over 300 ticks — the per-particle hot loop neither
/// grows a register nor reallocates one.
#[test]
fn tape_scratch_plateaus_after_warmup() {
    let src = example("hmm.zl");
    let compiled = compile_source_opt(&src).expect("hmm compiles");
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
