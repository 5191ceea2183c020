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
use probzelus_lang::tape::{Op, Reg, StateOut};
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

/// Asserts that `pzc emit --tape examples/zelus/<file>` reproduces
/// `tests/golden/<golden>`.
fn assert_matches_golden(file: &str, golden_file: &str) {
    let compiled = compile_source(&example(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert_eq!(
        render_all(&compiled),
        golden(golden_file),
        "{file}: tape drifted from tests/golden/{golden_file}"
    );
}

#[test]
fn hmm_tape_matches_golden() {
    assert_matches_golden("hmm.zl", "hmm_tape.txt");
}

#[test]
fn robot_tape_matches_golden() {
    assert_matches_golden("robot.zl", "robot_tape.txt");
}

#[test]
fn coin_tape_matches_golden() {
    assert_matches_golden("coin.zl", "coin_tape.txt");
}

#[test]
fn counter_tape_matches_golden() {
    assert_matches_golden("counter.zl", "counter_tape.txt");
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
    // After a particle's first step the flags are `false` for good: the
    // steady program keeps only the memory, and its tape is the model's
    // sample and observe alone. The flag selects became moves, and copy
    // propagation hands the fused sample their sources: `pre x` and the
    // constant variance.
    let steady = prog.steady.as_ref().expect("hmm has a steady program");
    assert_eq!(steady.state_in, [0], "hmm steady state slots");
    assert_eq!(steady.keep, [true, false, false], "hmm kept slots");
    assert_ops(
        "hmm steady",
        &steady.ops,
        &[
            Op::SampleDist {
                op: OpName::Gaussian,
                dst: 10,
                args: vec![0, 7],
            },
            Op::ObserveDist {
                op: OpName::Gaussian,
                args: vec![10, 11],
                obs: 3,
            },
            Op::Halt,
        ],
    );
    assert_eq!(
        steady.state_out,
        [StateOut::Move(10)],
        "hmm steady state_out"
    );
    // The transition captures nothing from its environment.
    assert!(prog.env_slots.is_empty(), "hmm env slots");
    // The driver node hosts the `infer`: its tape is one op that steps
    // the engine in its one state slot, capturing the input.
    let main = compiled
        .lower_node("main", options())
        .expect("lower_node runs")
        .expect("main lowers as a driver");
    assert!(
        matches!(&main.ops[..], [Op::Infer { site, .. }, Op::Halt]
            if site.captures.len() == 1 && Some(site.captures[0].1) == main.input),
        "main: {:?}",
        main.ops
    );
    assert_eq!(main.state_in.len(), 1, "main state slots");
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
    // Five of them are flags, constant after the first step: the steady
    // program keeps the four memories, and its selects on the flags are
    // gone. Copy propagation leaves one move, into the output register,
    // which the first-instant program shares. The fused ops and the
    // integrators read the sample and the sums directly, `value` reads
    // `pre (pre a)` from its slot, slot 0 (`pre a`) passes to slot 3
    // unchanged, and the `present`'s unread join moves and the jump over
    // them are gone.
    let steady = prog
        .steady
        .as_ref()
        .expect("gps_acc_tracker has a steady program");
    let proj = |dst, src, idx| Op::Proj {
        dst,
        src,
        idx,
        arity: 2,
    };
    let add_mul = |dst, x, a, b| Op::AddMul {
        dst,
        x,
        a,
        b,
        product_first: false,
    };
    assert_ops(
        "gps_acc_tracker steady",
        &steady.ops,
        &[
            proj(10, 9, 0),
            proj(11, 9, 1),
            proj(12, 11, 0),
            proj(13, 11, 1),
            proj(14, 13, 0),
            proj(15, 13, 1),
            Op::SampleDist {
                op: OpName::Gaussian,
                dst: 19,
                args: vec![15, 17],
            },
            Op::ObserveDist {
                op: OpName::Gaussian,
                args: vec![19, 21],
                obs: 10,
            },
            add_mul(27, 5, 19, 25),
            add_mul(33, 7, 27, 31),
            Op::Move { dst: 34, src: 33 },
            Op::Value { dst: 38, src: 3 },
            Op::JmpIfNot {
                cond: 12,
                target: 14,
            },
            Op::ObserveDist {
                op: OpName::Gaussian,
                args: vec![34, 44],
                obs: 14,
            },
            Op::Halt,
        ],
    );
    let pinned: Vec<Reg> = steady.pins.iter().map(|(r, _)| *r).collect();
    assert_eq!(pinned, [1, 2, 4, 6, 8], "gps_acc_tracker pinned flags");
    assert_eq!(steady.state_in, [0, 3, 5, 7], "gps_acc_tracker steady in");
    assert_eq!(
        steady.state_out,
        [19, 0, 27, 34].map(StateOut::Move),
        "gps_acc_tracker steady out"
    );
}

/// An engine's particles step on the first-instant program at their
/// first tick, and on the steady program at every later one, after a
/// reset too.
#[test]
fn engines_switch_to_the_steady_program_after_the_first_tick() {
    for (file, node, input) in [
        ("hmm.zl", "hmm", Value::Float(0.5)),
        (
            "robot.zl",
            "gps_acc_tracker",
            Value::pair(
                Value::Float(0.1),
                Value::pair(
                    Value::Bool(true),
                    Value::pair(Value::Float(0.2), Value::Float(0.0)),
                ),
            ),
        ),
    ] {
        let compiled = compile_source(&example(file)).expect("example compiles");
        for method in Method::ALL {
            let options = Options {
                method,
                ..options()
            };
            let mut engine = compiled
                .infer_node(node, 20, options)
                .unwrap_or_else(|e| panic!("{node}: {e}"));
            assert_eq!(engine.tape_programs_run(), None, "{node}: not lowered yet");
            for round in 0..2 {
                let mut ran = Vec::new();
                for _ in 0..3 {
                    engine.step(&input).expect("step");
                    ran.push(engine.tape_programs_run());
                }
                let (first, steady) = (Some((true, false)), Some((false, true)));
                assert_eq!(
                    ran,
                    [first, steady, steady],
                    "{node} {method:?} round {round}: programs per tick"
                );
                engine.reset();
            }
        }
    }
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

/// The driver-only `infer` op keeps its payload behind one pointer, so
/// an op is no larger than the constant-pool op and the particle loop
/// reads no more bytes per op than before drivers lowered.
#[test]
fn ops_stay_forty_bytes() {
    assert!(
        std::mem::size_of::<Op>() <= 40,
        "{}",
        std::mem::size_of::<Op>()
    );
}

/// Asserts that a tape's ops are exactly `expected` (compared through
/// their `Debug` text, as `Op` has no `PartialEq`).
fn assert_ops(what: &str, ops: &[Op], expected: &[Op]) {
    assert_eq!(format!("{ops:#?}"), format!("{expected:#?}"), "{what}");
}

/// The committed examples' `.zl` files.
fn example_files() -> Vec<String> {
    let dir = format!("{}/../../examples/zelus", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("examples directory")
        .map(|entry| entry.expect("directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.ends_with(".zl"))
        .collect();
    files.sort();
    files
}

/// Copy propagation leaves no copy it could have removed in any steady
/// program of the committed examples: no `Move` reads a constant or a
/// pinned register (its readers could read that register), no `Jmp`
/// targets the next op, and no `Move` writes a register that no op, no
/// output and no successor-state slot reads.
#[test]
fn steady_programs_hold_no_removable_copies() {
    let mut checked = Vec::new();
    for file in example_files() {
        let compiled = compile_source(&example(&file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let mut nodes: Vec<&String> = compiled.kinds.keys().collect();
        nodes.sort();
        for node in nodes {
            let prog = compiled
                .lower_node(node, options())
                .expect("lower_node runs")
                .unwrap_or_else(|e| panic!("{file}/{node} does not lower: {e}"));
            let Some(steady) = &prog.steady else {
                continue;
            };
            let constant: Vec<Reg> = prog
                .consts
                .iter()
                .filter_map(Op::dst)
                .chain(steady.pins.iter().map(|(r, _)| *r))
                .collect();
            let mut read: Vec<Reg> = steady.ops.iter().flat_map(Op::reads).collect();
            read.extend(prog.out.regs());
            read.extend(steady.state_out.iter().map(|o| match *o {
                StateOut::Move(r) | StateOut::Clone(r) => r,
            }));
            for (pc, op) in steady.ops.iter().enumerate() {
                let at = format!("{file}/{node} steady op {pc}: {op:?}");
                match *op {
                    Op::Move { dst, src } => {
                        assert!(!constant.contains(&src), "{at}: moves a constant");
                        assert!(read.contains(&dst), "{at}: nothing reads the move");
                    }
                    Op::Jmp { target } => {
                        assert_ne!(target as usize, pc + 1, "{at}: jumps to the next op")
                    }
                    _ => {}
                }
            }
            checked.push(node.clone());
        }
    }
    checked.sort();
    assert_eq!(
        checked,
        [
            "acc_tracker",
            "coin",
            "counter",
            "gps_acc_tracker",
            "hmm",
            "integr",
            "tracker"
        ],
        "the nodes with a steady program"
    );
}
