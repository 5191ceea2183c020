//! Golden-file coverage of the tape lowering: the rendered instruction
//! tapes of the committed example programs are checked in under
//! `tests/golden/` and must reproduce byte-for-byte. Lowering is fully
//! deterministic (names are interned in scope order, registers allocated
//! sequentially), so any diff here is a real change to the emitted code —
//! re-bless with `pzc emit --tape examples/zelus/<file>` after
//! reviewing it.

use probzelus_core::infer::Method;
use probzelus_core::Value;
use probzelus_lang::compile::init_name;
use probzelus_lang::eval::{ExecBackend, Interp, Options, ProbSlot};
use probzelus_lang::pipeline::{compile_source, Compiled};
use probzelus_lang::tape::Op;
use probzelus_lang::{MufValue, OpName};

fn example(file: &str) -> String {
    let path = format!("{}/../../examples/zelus/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn golden(file: &str) -> String {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn options() -> Options {
    Options {
        method: Method::StreamingDs,
        seed: 0,
        backend: ExecBackend::Tape,
    }
}

/// Renders every node of a compilation the way `pzc emit --tape` does.
fn render_all(compiled: &Compiled) -> String {
    let mut names: Vec<&String> = compiled.kinds.keys().collect();
    names.sort();
    let mut out = String::new();
    for name in names {
        out.push_str(&format!("=== {name} ===\n"));
        match compiled
            .lower_node(name, options())
            .unwrap_or_else(|e| panic!("{name}: {e}"))
        {
            Ok(prog) => out.push_str(&prog.render()),
            Err(reason) => out.push_str(&format!("not lowered: {reason}\n")),
        }
    }
    out
}

#[test]
fn hmm_tape_matches_golden() {
    let compiled = compile_source(&example("hmm.zl")).expect("hmm compiles");
    assert_eq!(
        render_all(&compiled),
        golden("hmm_tape.txt"),
        "hmm tape drifted from tests/golden/hmm_tape.txt"
    );
}

#[test]
fn robot_tape_matches_golden() {
    let compiled = compile_source(&example("robot.zl")).expect("robot compiles");
    assert_eq!(
        render_all(&compiled),
        golden("robot_tape.txt"),
        "robot tape drifted from tests/golden/robot_tape.txt"
    );
}

/// A distribution-constructor operator (`gaussian(..)` and friends): its
/// value is a boxed distribution.
fn builds_dist(op: &Op) -> bool {
    use OpName::*;
    matches!(
        op,
        Op::UnOp {
            op: Bernoulli | Poisson | Exponential | Dirac,
            ..
        } | Op::BinOp {
            op: Gaussian | Beta | Uniform | Gamma | Binomial,
            ..
        }
    )
}

/// Counts a tape's fused `(sample, observe)` ops after checking that it
/// boxes no distribution (no boxed `Sample`/`Observe`, no constructor
/// op).
fn fused_counts(node: &str, ops: &[Op]) -> (usize, usize) {
    let (mut samples, mut observes) = (0, 0);
    for op in ops {
        match op {
            Op::SampleDist { .. } => samples += 1,
            Op::ObserveDist { .. } => observes += 1,
            Op::Sample { .. } | Op::Observe { .. } => {
                panic!("{node}: boxed sample/observe in the tape: {op:?}")
            }
            op if builds_dist(op) => panic!("{node}: the tape boxes a distribution: {op:?}"),
            _ => {}
        }
    }
    (samples, observes)
}

/// Structural invariants of the hmm tape that the golden file implies but
/// a reviewer should not have to read opcodes to trust: the hot loop has
/// exactly the model's one sample and one observe, both fused with their
/// distribution constructors, and it is fully flattened.
#[test]
fn hmm_tape_is_fully_flattened() {
    let compiled = compile_source(&example("hmm.zl")).expect("hmm compiles");
    let prog = compiled
        .lower_node("hmm", options())
        .expect("lower_node runs")
        .expect("hmm lowers");
    assert_eq!(
        fused_counts("hmm", &prog.ops),
        (1, 1),
        "hmm samples and observes once per tick"
    );
    // The input is a float: there is nothing to project once per tick.
    assert_eq!(prog.prologue, 0, "hmm prologue");
    // The state is the memory of `pre x` and the two `->` flags.
    assert_eq!(prog.state_in.len(), 3, "hmm state slots");
    // The transition captures nothing from its environment.
    assert!(prog.env_slots.is_empty(), "hmm env slots");
    // The driver node embeds `infer` and must stay on the interpreter.
    let main = compiled
        .lower_node("main", options())
        .expect("lower_node runs");
    let reason = main.expect_err("main must not lower");
    assert!(
        reason.contains("nested inference"),
        "unexpected refusal reason: {reason}"
    );
}

/// The robot tracker — the largest committed probabilistic node — also
/// flattens completely, with its conditional GPS observation lowered to
/// branches rather than closure calls, and fuses every distribution:
/// one sample, the accelerometer observation and the GPS observation.
#[test]
fn robot_tracker_tape_is_fully_flattened() {
    let compiled = compile_source(&example("robot.zl")).expect("robot compiles");
    let prog = compiled
        .lower_node("gps_acc_tracker", options())
        .expect("lower_node runs")
        .expect("gps_acc_tracker lowers");
    assert_eq!(fused_counts("gps_acc_tracker", &prog.ops), (1, 2));
    // The six projections destructuring `(a_obs, (has_gps, (p_obs,
    // cmd)))` run once per tick.
    assert_eq!(prog.prologue, 6, "gps_acc_tracker prologue");
    // The state is the nine memories and `->` flags of the tracker and
    // its integrators.
    assert_eq!(prog.state_in.len(), 9, "gps_acc_tracker state slots");
}

/// The initial state a node's particles start from, computed the way the
/// engine does.
fn init_state(compiled: &Compiled, node: &str) -> MufValue {
    let interp = Interp::new(&compiled.muf, options()).expect("interp builds");
    let init = interp.global(&init_name(node)).expect("init compiled");
    interp
        .apply(&init, MufValue::unit(), &mut ProbSlot::Det)
        .expect("init runs")
}

fn leaves(v: &MufValue) -> Vec<&MufValue> {
    match v {
        MufValue::Tuple(xs) => xs.iter().flat_map(leaves).collect(),
        leaf => vec![leaf],
    }
}

/// Flat state, checked structurally: the lowered hmm and robot nodes keep
/// one state register per leaf of their initial state, every leaf is
/// live state (no stateless `()` placeholder), and their tapes neither
/// rebuild the state tree nor build any other tuple (`MkTuple`) on the
/// per-particle path.
#[test]
fn benched_tapes_keep_state_flat() {
    for (file, nodes) in [
        ("hmm.zl", &["hmm"][..]),
        (
            "robot.zl",
            &["integr", "tracker", "acc_tracker", "gps_acc_tracker"][..],
        ),
    ] {
        let compiled = compile_source(&example(file)).expect("example compiles");
        for node in nodes {
            let prog = compiled
                .lower_node(node, options())
                .expect("lower_node runs")
                .unwrap_or_else(|e| panic!("{node} does not lower: {e}"));
            assert!(
                !prog.ops.iter().any(|op| matches!(op, Op::MkTuple { .. })),
                "{file}/{node}: the tape builds a tuple"
            );
            let init = init_state(&compiled, node);
            let leaves = leaves(&init);
            assert!(
                !leaves.iter().any(|l| matches!(l, MufValue::V(Value::Unit))),
                "{file}/{node}: a `()` state leaf"
            );
            assert_eq!(
                prog.state_in.len(),
                leaves.len(),
                "{file}/{node}: state slots vs leaves of the initial state"
            );
        }
    }
}
