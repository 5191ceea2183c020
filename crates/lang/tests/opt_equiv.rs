//! Differential oracle for the optimizing µF pass pipeline: every
//! committed example program must produce **bit-identical** posteriors
//! (and deterministic outputs) optimized vs. unoptimized, across every
//! inference method. The optimizer's claim is
//! semantic transparency — any drift here is a bug in a pass, not noise.

use probzelus_core::infer::Method;
use probzelus_core::Value;
use probzelus_lang::pipeline::{compile_source, compile_source_opt, Compiled};
use probzelus_lang::{ExecBackend, Options};

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

fn both(file: &str) -> (Compiled, Compiled) {
    let src = example(file);
    let base = compile_source(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
    let opt = compile_source_opt(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
    (base, opt)
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

/// Drives `node` through `infer_node` on both compilations and asserts
/// bit-identical posteriors at every tick, for every method.
fn assert_infer_node_identical(file: &str, node: &str, particles: usize, inputs: &[Value]) {
    let (base, opt) = both(file);
    for method in METHODS {
        let options = Options {
            method,
            seed: 42,
            backend: ExecBackend::Interp,
        };
        let mut eng_base = base
            .infer_node(node, particles, options)
            .unwrap_or_else(|e| panic!("{file}/{node} base: {e}"));
        let mut eng_opt = opt
            .infer_node(node, particles, options)
            .unwrap_or_else(|e| panic!("{file}/{node} opt: {e}"));
        let mut first_run = Vec::new();
        for (t, input) in inputs.iter().enumerate() {
            let p_base = eng_base.step(input).unwrap();
            let p_opt = eng_opt.step(input).unwrap();
            assert_eq!(
                p_base.mean_float().to_bits(),
                p_opt.mean_float().to_bits(),
                "{file}/{node} {method:?} tick {t}: mean drifted \
                 ({} vs {})",
                p_base.mean_float(),
                p_opt.mean_float()
            );
            assert_eq!(
                p_base, p_opt,
                "{file}/{node} {method:?} tick {t}: posterior drifted"
            );
            first_run.push(p_opt);
        }
        // Reset must also restore the hoisted prelude's state: a
        // second run replays the first bit-for-bit.
        eng_opt.reset();
        for (t, input) in inputs.iter().enumerate() {
            let p = eng_opt.step(input).unwrap();
            assert_eq!(
                p, first_run[t],
                "{file}/{node} {method:?} tick {t}: reset diverged"
            );
        }
    }
}

/// Drives a deterministic node (embedded `infer` sites and all) on both
/// compilations and asserts identical outputs at every tick.
fn assert_instance_identical(file: &str, node: &str, inputs: &[Value]) {
    let (base, opt) = both(file);
    for method in METHODS {
        let options = Options {
            method,
            seed: 7,
            backend: ExecBackend::Interp,
        };
        let mut inst_base = base
            .instantiate(node, options)
            .unwrap_or_else(|e| panic!("{file}/{node} base: {e}"));
        let mut inst_opt = opt
            .instantiate(node, options)
            .unwrap_or_else(|e| panic!("{file}/{node} opt: {e}"));
        for (t, input) in inputs.iter().enumerate() {
            let v_base = inst_base.step(input.clone()).unwrap();
            let v_opt = inst_opt.step(input.clone()).unwrap();
            assert_eq!(
                format!("{v_base:?}"),
                format!("{v_opt:?}"),
                "{file}/{node} {method:?} tick {t}: output drifted"
            );
        }
    }
}

#[test]
fn hmm_gets_a_hoist_plan() {
    let (_, opt) = both("hmm.zl");
    let plan = opt
        .plans
        .get("hmm")
        .expect("hmm should hoist its arrow flags");
    assert!(
        !plan.hoisted.is_empty(),
        "plan should name hoisted equations"
    );
    assert!(opt.kernel.node(&plan.prelude_node).is_some());
    assert!(opt.kernel.node(&plan.main_node).is_some());
}

#[test]
fn coin_gets_a_hoist_plan() {
    let (_, opt) = both("coin.zl");
    assert!(opt.plans.contains_key("coin"), "coin should hoist its flag");
}

#[test]
fn hmm_posteriors_are_bit_identical() {
    let inputs: Vec<Value> = float_inputs(40).into_iter().map(Value::Float).collect();
    assert_infer_node_identical("hmm.zl", "hmm", 50, &inputs);
}

#[test]
fn coin_posteriors_are_bit_identical() {
    let inputs: Vec<Value> = float_inputs(40)
        .into_iter()
        .map(|x| Value::Bool(x > 0.0))
        .collect();
    assert_infer_node_identical("coin.zl", "coin", 50, &inputs);
}

#[test]
fn hmm_embedded_main_is_identical() {
    // `main` runs `infer 1000 hmm y` as an embedded engine: this is the
    // EngineInit/Infer prelude path rather than the driver path.
    let inputs: Vec<Value> = float_inputs(15).into_iter().map(Value::Float).collect();
    assert_instance_identical("hmm.zl", "main", &inputs);
}

#[test]
fn coin_embedded_main_is_identical() {
    let inputs: Vec<Value> = float_inputs(15)
        .into_iter()
        .map(|x| Value::Bool(x > 0.0))
        .collect();
    assert_instance_identical("coin.zl", "main", &inputs);
}

#[test]
fn counter_is_identical() {
    let inputs: Vec<Value> = float_inputs(20).into_iter().map(Value::Float).collect();
    assert_instance_identical("counter.zl", "counter", &inputs);
}

/// `(a_obs, (has_gps, (p_obs, cmd)))` tuples: the sensor input of
/// `robot.zl`'s `gps_acc_tracker` and the closed-loop input of `robot`.
fn robot_inputs(n: usize) -> Vec<Value> {
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
fn robot_outputs_are_identical() {
    // The inferred node has no invariant equations, so this checks that
    // the *other* passes (fold/DSE/CSE) stay transparent on a big program.
    let inputs = robot_inputs(12);
    assert_instance_identical("robot.zl", "robot", &inputs);
    assert_instance_identical("robot.zl", "task_bot", &inputs);
}

#[test]
fn gps_acc_tracker_posteriors_are_bit_identical() {
    // The tracker driven directly through `infer_node`, with the GPS
    // `present` branch taken every fifth tick.
    assert_infer_node_identical("robot.zl", "gps_acc_tracker", 20, &robot_inputs(12));
}
