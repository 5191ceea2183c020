//! Flat instruction tape for µF transition functions.
//!
//! The tree-walking interpreter ([`crate::eval`]) re-traverses the µF AST
//! of the transition closure for every particle at every tick — an
//! overhead of roughly 50× over the native models on small kernels. This
//! module holds the runtime half of the tape backend: a transition
//! closure is lowered once (see [`crate::transform::lower`]) to a
//! preallocated `Vec<Op>` of register-indexed opcodes over a dense
//! register file of [`MufValue`] slots. All names are interned to `u32`
//! register indices during lowering, so the steady state performs zero
//! `HashMap` lookups and zero `Env` clones.
//!
//! A steady-state particle step allocates nothing: operator operands
//! live on the stack, a distribution that only feeds a `sample` or
//! `observe` is built on the stack by a fused op instead of boxed into a
//! register, and the tick's load (the captured environment, the input
//! and the prologue that destructures it) runs once per tick, not once
//! per particle. What a tick still allocates is per tick (the input,
//! the engine's own bookkeeping): the prologue moves the input's
//! components out instead of copying them, and a resampling copy writes
//! a survivor's flat state into the slot vector of a particle the
//! resampler drops. The state holds only live state: the compiler
//! gives stateless expressions none (see [`crate::compile`]), so every
//! slot is a memory, a flag or a node's state that the step loads and
//! stores back.
//!
//! A particle's first step runs the whole program. After it, every `->`
//! flag that nothing re-arms is `false` for good, so each later step runs
//! the tape's steady program ([`Steady`]) on a register file of its own,
//! where the flags are constants: the particle drops their slots, the
//! selects on them are moves, and copy propagation then points the moves'
//! readers at their sources, so the moves go.
//!
//! Registers are copied when read, except on their last read: lowering
//! marks the operands no later op reads ([`TapeProgram::takes`]), and
//! `Move`, `Select`, arithmetic and the fused `x + a * b`
//! ([`Op::AddMul`]) take those, leaving `nil`. Taken float and affine
//! operands go to the owned arithmetic of `probzelus_core::ops`, which
//! writes a multi-term result into a term slice it now holds alone, so
//! under delayed sampling `pre x + xp * 0.1` allocates nothing once its
//! slice has room.
//!
//! A deterministic node's step runs on a tape too, the driver tape of an
//! [`crate::eval::Instance`] (`step_driver`): it runs once per tick in
//! a deterministic context, where `sample`, `observe`, `factor` and
//! `value` fail as on the interpreter, and its [`Op::Infer`] steps an
//! embedded engine. It owns its tick input, so projecting the input moves
//! the components out instead of copying them.
//!
//! The tape is the default backend, and the interpreter is its semantic
//! oracle: every opcode mirrors the corresponding `eval` branch
//! bit-for-bit (including error messages and RNG consumption order), and
//! the executor never applies a closure through the interpreter. The tape hands
//! work to the interpreter one way only: lowering is tried once, at an
//! engine's first particle step or an instance's first step, and a
//! refusal leaves that engine or instance interpreting for its lifetime,
//! indistinguishable except for speed.

use crate::ast::OpName;
use crate::error::{LangError, Stage};
use crate::eval::{dist_expr, outside_infer, uninitialized_dist, Interp, ModelState, ProbSlot};
use crate::muf::{Closure, MufExpr, MufPat, MufValue};
use probzelus_core::ops;
use probzelus_core::prob::ProbCtx;
use probzelus_core::value::{DistExpr, Value};
use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;

/// A register index into the tape's dense register file.
pub type Reg = u32;

/// One tape instruction. An op copies the registers it reads, except
/// where [`TapeProgram::takes`] marks its last read of one: `Move`,
/// `Proj`, `Select` (the chosen branch), arithmetic `BinOp`s and `AddMul`
/// then take the value, leaving `nil`, so affine arithmetic can write
/// into a term slice nothing else holds and a projection moves its
/// component out. A program's register file is reused by
/// every particle and every tick.
#[derive(Debug, Clone)]
pub enum Op {
    /// `dst <- v` (constant pool; executed once when the tape is built).
    Const {
        /// Destination register.
        dst: Reg,
        /// The constant value.
        v: MufValue,
    },
    /// `dst <- src` (join-point copies for `if` branches).
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Unary operator.
    UnOp {
        /// Operator.
        op: OpName,
        /// Destination register.
        dst: Reg,
        /// Operand.
        a: Reg,
    },
    /// Binary operator.
    BinOp {
        /// Operator.
        op: OpName,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst <- x + a * b`, or `dst <- a * b + x` when `product_first`:
    /// a `mul` fused with the `add` that is the only reader of its
    /// product, so a product that scales an affine term is never built.
    AddMul {
        /// Destination register.
        dst: Reg,
        /// The addend.
        x: Reg,
        /// Left factor.
        a: Reg,
        /// Right factor.
        b: Reg,
        /// Whether the product is the left operand of the sum.
        product_first: bool,
    },
    /// Ternary operator (`prob`).
    TernOp {
        /// Operator.
        op: OpName,
        /// Destination register.
        dst: Reg,
        /// First operand.
        a: Reg,
        /// Second operand.
        b: Reg,
        /// Third operand.
        c: Reg,
    },
    /// `dst <- (r1, .., rn)` — materializes a tuple value.
    MkTuple {
        /// Destination register.
        dst: Reg,
        /// Element registers.
        items: Vec<Reg>,
    },
    /// `dst <- src[idx/arity]` — runtime tuple destructuring with the
    /// exact semantics of the interpreter's pattern binding (core pairs
    /// for arity 2, `nil` poison spreading, arity checking).
    Proj {
        /// Destination register.
        dst: Reg,
        /// Tuple register.
        src: Reg,
        /// Element index.
        idx: u32,
        /// Expected tuple arity.
        arity: u32,
    },
    /// Strict conditional value selection (`Select` semantics: `nil`
    /// condition yields `nil`).
    Select {
        /// Destination register.
        dst: Reg,
        /// Condition register.
        cond: Reg,
        /// Then-value register.
        t: Reg,
        /// Else-value register.
        f: Reg,
    },
    /// `dst <- sample(dist)` through the engine's [`ProbCtx`].
    Sample {
        /// Destination register.
        dst: Reg,
        /// Distribution register.
        dist: Reg,
    },
    /// `observe(dist, obs)` through the engine's [`ProbCtx`].
    Observe {
        /// Distribution register.
        dist: Reg,
        /// Observation register.
        obs: Reg,
    },
    /// `dst <- sample(op(args))` for a distribution constructor `op`:
    /// the fusion of a constructor with the `sample` that is the only
    /// reader of its value, so the distribution is built on the stack
    /// instead of boxed into a register.
    SampleDist {
        /// Distribution constructor.
        op: OpName,
        /// Destination register.
        dst: Reg,
        /// Constructor argument registers.
        args: Vec<Reg>,
    },
    /// `observe(op(args), obs)`, fused like [`Op::SampleDist`].
    ObserveDist {
        /// Distribution constructor.
        op: OpName,
        /// Constructor argument registers.
        args: Vec<Reg>,
        /// Observation register.
        obs: Reg,
    },
    /// `factor(w)` through the engine's [`ProbCtx`].
    Factor {
        /// Log-weight register.
        w: Reg,
    },
    /// `dst <- value(src)` — force realization (§5.3).
    Value {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst <- deep_clone(src)` (the µF `Freshen` of compiled `reset`).
    Freshen {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Unconditional jump to an op index.
    Jmp {
        /// Target op index.
        target: u32,
    },
    /// Jump when the condition is false; errors on `nil` exactly like the
    /// lazy `If` form.
    JmpIfNot {
        /// Condition register.
        cond: Reg,
        /// Target op index.
        target: u32,
    },
    /// `dst <- infer(engine)`: steps the engine in register `engine`
    /// once, after re-closing its transition over the registers the
    /// site captures (the tree walker's `set_closure`). Only a driver's
    /// tape has it: particle code refuses nested inference. The payload
    /// is boxed, so the op is no larger than the others.
    Infer {
        /// Destination register (the posterior).
        dst: Reg,
        /// The engine register; the engine handle stays in it.
        engine: Reg,
        /// The transition and the registers it captures.
        site: Box<InferSite>,
    },
    /// End of tape.
    Halt,
}

/// An `infer` site of a driver tape: the transition `fun pat -> body` and
/// the bindings its body reads from the driver, each from a register.
#[derive(Debug, Clone)]
pub struct InferSite {
    /// The transition's parameter pattern.
    pub pat: MufPat,
    /// The transition's body, shared with the µF it was lowered from (the
    /// engine's tape checks it by pointer).
    pub body: Rc<MufExpr>,
    /// The free names of the transition bound in the driver, innermost
    /// first, and the registers holding their values.
    pub captures: Vec<(String, Reg)>,
}

impl Op {
    /// The register this op writes, if any.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Op::Const { dst, .. }
            | Op::Move { dst, .. }
            | Op::UnOp { dst, .. }
            | Op::BinOp { dst, .. }
            | Op::AddMul { dst, .. }
            | Op::TernOp { dst, .. }
            | Op::MkTuple { dst, .. }
            | Op::Proj { dst, .. }
            | Op::Select { dst, .. }
            | Op::Sample { dst, .. }
            | Op::SampleDist { dst, .. }
            | Op::Value { dst, .. }
            | Op::Freshen { dst, .. }
            | Op::Infer { dst, .. } => Some(*dst),
            Op::Observe { .. }
            | Op::ObserveDist { .. }
            | Op::Factor { .. }
            | Op::Jmp { .. }
            | Op::JmpIfNot { .. }
            | Op::Halt => None,
        }
    }

    /// The registers this op reads, in the order of [`Op::rename_reads`]
    /// (bit `i` of a [`TapeProgram::takes`] mask stands for the `i`-th).
    pub fn reads(&self) -> Vec<Reg> {
        let mut reads = Vec::new();
        self.clone().rename_reads(|r| {
            reads.push(r);
            r
        });
        reads
    }

    /// Rewrites every register this op reads through `map`, operands in
    /// order: `Move`, `Proj`: `src`; `Select`: `cond`, `t`, `f`; `BinOp`:
    /// `a`, `b`; `AddMul`: `x`, `a`, `b`; a fused op its arguments, then
    /// the observation; `Infer` its captures, then the engine.
    pub(crate) fn rename_reads(&mut self, mut map: impl FnMut(Reg) -> Reg) {
        let mut one = |r: &mut Reg| *r = map(*r);
        match self {
            Op::Const { .. } | Op::Jmp { .. } | Op::Halt => {}
            Op::Move { src, .. }
            | Op::Proj { src, .. }
            | Op::Value { src, .. }
            | Op::Freshen { src, .. } => one(src),
            Op::UnOp { a, .. } => one(a),
            Op::BinOp { a, b, .. } => [a, b].into_iter().for_each(&mut one),
            Op::AddMul { x, a, b, .. } => [x, a, b].into_iter().for_each(&mut one),
            Op::TernOp { a, b, c, .. } => [a, b, c].into_iter().for_each(&mut one),
            Op::MkTuple { items, .. } | Op::SampleDist { args: items, .. } => {
                items.iter_mut().for_each(&mut one)
            }
            Op::Select { cond, t, f, .. } => [cond, t, f].into_iter().for_each(&mut one),
            Op::Sample { dist, .. } => one(dist),
            Op::Observe { dist, obs } => [dist, obs].into_iter().for_each(&mut one),
            Op::ObserveDist { args, obs, .. } => args.iter_mut().chain([obs]).for_each(&mut one),
            Op::Factor { w } => one(w),
            Op::JmpIfNot { cond, .. } => one(cond),
            Op::Infer { engine, site, .. } => site
                .captures
                .iter_mut()
                .map(|(_, r)| r)
                .chain([engine])
                .for_each(&mut one),
        }
    }
}

/// Where the tick's output value lives: tuple outputs are kept unpacked
/// in their element registers and folded to nested core pairs only at the
/// very end (mirroring [`MufValue::as_core`]).
#[derive(Debug, Clone)]
pub enum OutSpec {
    /// A single register.
    Reg(Reg),
    /// A tuple of sub-outputs.
    Tuple(Vec<OutSpec>),
}

impl OutSpec {
    /// Every register the output reads.
    pub fn regs(&self) -> Vec<Reg> {
        match self {
            OutSpec::Reg(r) => vec![*r],
            OutSpec::Tuple(items) => items.iter().flat_map(OutSpec::regs).collect(),
        }
    }
}

/// The tuple structure of the externalized state. State is stored as one
/// flat slot per leaf, so each leaf of the state tree lives in its own
/// register while the tape runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateShape {
    /// An opaque state slot.
    Leaf,
    /// A state tuple.
    Node(Vec<StateShape>),
}

impl StateShape {
    /// The shape of a state value: every tuple is a node, anything else
    /// a leaf. Lowering derives it from the initial state (and then trims
    /// it to what the successor state rebuilds), so compiled transitions,
    /// which bind the whole state to one variable, still get one slot per
    /// leaf.
    pub fn of(v: &MufValue) -> StateShape {
        match v {
            MufValue::Tuple(xs) => StateShape::Node(xs.iter().map(StateShape::of).collect()),
            _ => StateShape::Leaf,
        }
    }

    /// Number of leaf slots.
    pub fn leaves(&self) -> usize {
        match self {
            StateShape::Leaf => 1,
            StateShape::Node(xs) => xs.iter().map(StateShape::leaves).sum(),
        }
    }
}

/// A lowered transition function: the instruction tape plus its register
/// conventions.
#[derive(Debug, Clone)]
pub struct TapeProgram {
    /// Constant pool, run once into the register file when the tape is
    /// installed (every `Const` op lives here; the body never re-executes
    /// them).
    pub consts: Vec<Op>,
    /// The instruction stream, ending in [`Op::Halt`].
    pub ops: Vec<Op>,
    /// Per op, the operands it reads for the last time: bit `i` stands
    /// for the `i`-th register of the op's reads (`Move`, `Proj`: `src`;
    /// `Select`: `cond`, `t`, `f`; `BinOp`: `a`, `b`; `AddMul`: `x`, `a`,
    /// `b`). Only `Move`, `Proj`, `Select`, arithmetic `BinOp`s and
    /// `AddMul` take a marked operand, leaving `nil`; every other op
    /// copies.
    pub takes: Vec<u8>,
    /// Length of the prologue: the leading `Proj` ops of `ops` that
    /// destructure the tick input and the captured environment. They
    /// read nothing per-particle, so a step runs them only at the first
    /// particle of a tick, and every particle then runs `ops[prologue..]`.
    /// A driver tape, which runs once per tick, has none.
    pub prologue: usize,
    /// Total number of registers.
    pub num_regs: u32,
    /// Register receiving the tick input (driver-facing transitions).
    pub input: Option<Reg>,
    /// Registers the flat state slots are moved into before execution
    /// (depth-first leaves of `shape`).
    pub state_in: Vec<Reg>,
    /// Where each successor-state slot comes from after execution, and
    /// whether it is moved or cloned out.
    pub state_out: Vec<StateOut>,
    /// Where the output value lives.
    pub out: OutSpec,
    /// Captured-environment registers, reloaded from the engine's
    /// closure slot at the first particle of every tick: `(name, reg)`.
    pub env_slots: Vec<(String, Reg)>,
    /// The initial state, pre-split into flat slots.
    pub init_slots: Vec<MufValue>,
    /// State tuple structure.
    pub shape: StateShape,
    /// `Rc::as_ptr` of the lowered closure body — per-tick re-closing
    /// evaluates the same `fun` node, so pointer equality certifies the
    /// tape still matches the installed closure (checked once per tick).
    pub body_ptr: usize,
    /// Debug names per register (empty string when unnamed).
    pub reg_names: Vec<String>,
    /// The steady program a particle runs after its first step (see
    /// [`Steady`]): `None` for a driver tape, and for a particle tape none
    /// of whose slots is constant after the first step.
    pub steady: Option<Steady>,
}

/// A particle tape's steady program. A state slot whose successor is a
/// constant-pool register that no op writes, which is every `->` flag
/// that nothing re-arms (`false` after the first instant), holds that
/// constant from a particle's second step on. The steady program pins the
/// slot's register to the constant in a register file of its own, so no
/// step loads or stores it, and each `Select` on a constant condition is
/// a `Move` of the branch it picks, whose readers then read that branch
/// directly (copy propagation). It shares the first-instant program's register
/// numbering, constant pool, environment slots, input, prologue length
/// and output; only its code and state conventions are its own.
#[derive(Debug, Clone)]
pub struct Steady {
    /// The dropped slots' state-in registers, each with the constant it
    /// is pinned to when the steady register file is built.
    pub pins: Vec<(Reg, MufValue)>,
    /// Per slot of the first-instant state, whether the particle keeps it
    /// after its first step.
    pub keep: Vec<bool>,
    /// The instruction stream: the first-instant program's, with each
    /// `Select` on a constant condition turned into a `Move`, then copies
    /// propagated: the moves whose readers can read their source instead
    /// are gone, and so are the unread moves and the jumps over nothing.
    pub ops: Vec<Op>,
    /// Per op, the operands it reads for the last time, derived for
    /// `ops` as [`TapeProgram::takes`] is.
    pub takes: Vec<u8>,
    /// The kept slots' state-in registers.
    pub state_in: Vec<Reg>,
    /// The kept slots' successor-state sources, after copy propagation
    /// (a slot may take another slot's state-in register unchanged).
    pub state_out: Vec<StateOut>,
}

/// The code one step runs: a tape's first-instant program or its steady
/// one.
#[derive(Clone, Copy)]
struct Code<'p> {
    ops: &'p [Op],
    takes: &'p [u8],
    state_in: &'p [Reg],
    state_out: &'p [StateOut],
}

impl TapeProgram {
    fn code(&self) -> Code<'_> {
        Code {
            ops: &self.ops,
            takes: &self.takes,
            state_in: &self.state_in,
            state_out: &self.state_out,
        }
    }
}

impl Steady {
    fn code(&self) -> Code<'_> {
        Code {
            ops: &self.ops,
            takes: &self.takes,
            state_in: &self.state_in,
            state_out: &self.state_out,
        }
    }
}

/// How one successor-state slot leaves the register file after a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateOut {
    /// Taken out, leaving `nil`: the register is written by the tape or
    /// loaded by the step before it is next read, and no later slot
    /// reads it.
    Move(Reg),
    /// Copied out: the register is a constant, a captured-environment
    /// slot, the tick input or a prologue register, or feeds a later
    /// slot too, so it must keep its value for the next particle.
    Clone(Reg),
}

/// A register file, and the tick whose once-per-tick load (see [`load`])
/// it last completed: while that matches the engine's tick, its
/// environment, input and prologue registers hold this tick's values.
#[derive(Debug)]
struct RegFile {
    regs: RefCell<Vec<MufValue>>,
    loaded: Cell<Option<u64>>,
}

impl RegFile {
    /// A file of `num_regs` registers with the constant pool `consts` run
    /// into it, and each pinned register set to its constant.
    fn new(num_regs: u32, consts: &[Op], pins: &[(Reg, MufValue)]) -> RegFile {
        let mut regs = vec![MufValue::Nil; num_regs as usize];
        for op in consts {
            if let Op::Const { dst, v } = op {
                regs[*dst as usize] = v.clone();
            }
        }
        for (r, v) in pins {
            regs[*r as usize] = v.clone();
        }
        RegFile {
            regs: RefCell::new(regs),
            loaded: Cell::new(None),
        }
    }

    /// Bytes held by the register vector and its embedded tuple spines.
    fn scratch_bytes(&self) -> usize {
        fn held(v: &MufValue) -> usize {
            match v {
                MufValue::Tuple(xs) => {
                    xs.capacity() * std::mem::size_of::<MufValue>()
                        + xs.iter().map(held).sum::<usize>()
                }
                _ => 0,
            }
        }
        let regs = self.regs.borrow();
        regs.capacity() * std::mem::size_of::<MufValue>() + regs.iter().map(held).sum::<usize>()
    }
}

/// The shared runtime state of one engine's tape: the program plus the
/// register files every particle reuses (particles run sequentially, so
/// one file per program suffices; values are moved in and out per step).
/// The steady program has a file of its own because it pins the dropped
/// slots' registers to their constants, where the first-instant program
/// loads those registers from the particle and may take them.
#[derive(Debug)]
pub struct TapeShared {
    /// The lowered program.
    pub prog: TapeProgram,
    first: RegFile,
    steady: Option<RegFile>,
}

impl TapeShared {
    fn new(prog: TapeProgram) -> TapeShared {
        let first = RegFile::new(prog.num_regs, &prog.consts, &[]);
        let steady = prog
            .steady
            .as_ref()
            .map(|s| RegFile::new(prog.num_regs, &prog.consts, &s.pins));
        TapeShared {
            prog,
            first,
            steady,
        }
    }

    /// Bytes of scratch currently held by the register files (the vectors
    /// themselves plus embedded tuple spines). Constant across steady-state
    /// ticks for Bounded(k) programs — the scratch-plateau witness.
    pub fn scratch_bytes(&self) -> usize {
        self.first.scratch_bytes() + self.steady.as_ref().map_or(0, RegFile::scratch_bytes)
    }

    /// Which programs particle steps ran on in tick `tick`, as
    /// `(first_instant, steady)`: a program ran when its register file
    /// completed that tick's load.
    pub(crate) fn programs_run(&self, tick: u64) -> (bool, bool) {
        let ran = |f: &RegFile| f.loaded.get() == Some(tick);
        (ran(&self.first), self.steady.as_ref().is_some_and(ran))
    }
}

/// Per-engine lowering cell, shared between a [`crate::eval::MufEngine`]
/// and its particle models (an [`crate::eval::Instance`] holds one for its
/// driver tape). Lowering happens lazily at the first particle step, from
/// the closure in the engine's slot at that point (an embedded `infer`
/// site re-closes it over the driver environment at every step), and is
/// attempted exactly once: its result holds for the engine's lifetime. A
/// refusal leaves the engine interpreting; a lowered engine never goes
/// back. An engine that is never stepped never lowers.
#[derive(Debug, Default)]
pub struct TapeCell {
    attempt: OnceCell<Result<TapeShared, String>>,
    /// Bumped by the engine at the start of every tick.
    tick: Cell<u64>,
}

impl TapeCell {
    /// Signals a new tick (the next execution on each register file
    /// reloads the environment, the input and the prologue).
    pub(crate) fn next_tick(&self) {
        self.tick.set(self.tick.get().wrapping_add(1));
    }

    /// The current tick.
    pub(crate) fn tick(&self) -> u64 {
        self.tick.get()
    }

    /// The installed tape, if lowering has succeeded.
    pub fn ready(&self) -> Option<&TapeShared> {
        self.attempt.get()?.as_ref().ok()
    }

    /// Human-readable status: `Ok(())` when lowered, `Err(reason)` when
    /// pending or refused.
    pub fn status(&self) -> Result<(), String> {
        match self.attempt.get() {
            None => Err("tape not lowered yet (no step taken)".into()),
            Some(Ok(_)) => Ok(()),
            Some(Err(e)) => Err(e.clone()),
        }
    }

    /// Returns the tape, running `lower` on first use. `None` means the
    /// engine or instance executes on the interpreter.
    pub(crate) fn ensure(
        &self,
        lower: impl FnOnce() -> Result<TapeProgram, String>,
    ) -> Option<&TapeShared> {
        self.attempt
            .get_or_init(|| lower().map(TapeShared::new))
            .as_ref()
            .ok()
    }
}

/// The closure a transition value must be to lower.
pub(crate) fn closure_of(v: &MufValue) -> Result<&Rc<Closure>, String> {
    match v {
        MufValue::Closure(c) => Ok(c),
        other => Err(format!("transition is not a closure: {}", other.kind())),
    }
}

/// Splits a whole state value into flat slots following `shape`. Only
/// genuine `Tuple` nodes are accepted at interior positions, so the slots
/// hold exactly the leaves of the value the interpreter would hold.
pub(crate) fn split_state(v: &MufValue, shape: &StateShape) -> Result<Vec<MufValue>, String> {
    fn go(v: &MufValue, shape: &StateShape, out: &mut Vec<MufValue>) -> Result<(), String> {
        match shape {
            StateShape::Leaf => {
                out.push(v.clone());
                Ok(())
            }
            StateShape::Node(children) => match v {
                MufValue::Tuple(xs) if xs.len() == children.len() => {
                    for (x, s) in xs.iter().zip(children) {
                        go(x, s, out)?;
                    }
                    Ok(())
                }
                other => Err(format!(
                    "state shape mismatch: expected a {}-tuple, found {}",
                    children.len(),
                    other.kind()
                )),
            },
        }
    }
    let mut out = Vec::with_capacity(shape.leaves());
    go(v, shape, &mut out)?;
    Ok(out)
}

/// A state's flat slots, split from the whole value at its first tape
/// step. This and the two helpers below are inlined always: they are
/// `step_model`'s per-particle body, shared with `step_driver`.
#[inline(always)]
fn flat_slots<'s>(
    state: &'s mut ModelState,
    prog: &TapeProgram,
) -> Result<&'s mut Vec<MufValue>, LangError> {
    if let ModelState::Whole(whole) = &*state {
        let slots = split_state(whole, &prog.shape).map_err(|e| {
            LangError::new(Stage::Eval, format!("state does not fit the tape: {e}"))
        })?;
        *state = ModelState::Flat(slots);
    }
    match state {
        ModelState::Flat(slots) => Ok(slots),
        ModelState::Whole(_) => Err(LangError::new(Stage::Eval, "tape state must be flat")),
    }
}

/// Moves the state slots into their registers. A failed step then leaves
/// the state no value, as the interpreter's does.
#[inline(always)]
fn load_state(code: Code<'_>, slots: &mut [MufValue], regs: &mut [MufValue]) {
    for (slot, &r) in slots.iter_mut().zip(code.state_in) {
        regs[r as usize] = std::mem::replace(slot, MufValue::Nil);
    }
}

/// Moves or copies the successor state out of the registers.
#[inline(always)]
fn store_state(code: Code<'_>, slots: &mut [MufValue], regs: &mut [MufValue]) {
    for (slot, out) in slots.iter_mut().zip(code.state_out) {
        *slot = match *out {
            StateOut::Move(r) => std::mem::replace(&mut regs[r as usize], MufValue::Nil),
            StateOut::Clone(r) => regs[r as usize].clone(),
        };
    }
}

/// One particle step on the tape. Mirrors `MufModel::step`'s interpreter
/// path: state slots move into their registers, the tape executes, the
/// output is folded to a core value, and the successor state moves back
/// out. The load (see [`load`]) runs at the first particle of a tick on
/// each register file only; an error there is this particle's error, and
/// the next particle retries the load.
///
/// The state's slot count picks the program. A particle whose state has
/// the steady program's slots runs that program on its register file;
/// any other runs the first-instant program, and after a successful step
/// drops the slots that are constant from then on (`Vec::retain`, which
/// allocates nothing). A failed steady step leaves the particle the
/// first-instant program's slots, every one `nil`, so the next step sees
/// the stateless particle the interpreter's failed step leaves.
pub(crate) fn step_model(
    interp: &Rc<Interp>,
    cell: &TapeCell,
    shared: &TapeShared,
    closure_slot: &RefCell<MufValue>,
    state: &mut ModelState,
    ctx: &mut dyn ProbCtx,
    input: &Value,
) -> Result<Value, LangError> {
    let prog = &shared.prog;
    let slots = flat_slots(state, prog)?;
    let steady = prog
        .steady
        .as_ref()
        .zip(shared.steady.as_ref())
        .filter(|(s, _)| slots.len() == s.state_in.len());
    let (code, file) = match steady {
        Some((s, file)) => (s.code(), file),
        None => (prog.code(), &shared.first),
    };
    let mut run = || {
        let mut regs = file.regs.borrow_mut();
        load_state(code, slots, &mut regs);
        let mut prob = ProbSlot::Prob(&mut *ctx);
        if file.loaded.get() != Some(cell.tick()) {
            load(
                interp,
                prog,
                code,
                &closure_slot.borrow(),
                &mut regs,
                &mut prob,
                input,
            )?;
            file.loaded.set(Some(cell.tick()));
        }
        exec(
            interp,
            code,
            prog.prologue,
            code.ops.len(),
            &mut regs,
            &mut prob,
        )?;
        // Fold the output before moving state out: an output register may
        // alias a state register.
        let out = fold_out(&prog.out, &regs)?;
        store_state(code, slots, &mut regs);
        Ok(out)
    };
    let out = run();
    match (steady, &prog.steady) {
        (Some(_), _) if out.is_err() => {
            slots.clear();
            slots.resize(prog.state_in.len(), MufValue::Nil);
        }
        (None, Some(s)) if out.is_ok() => {
            let mut keep = s.keep.iter();
            slots.retain(|_| keep.next().copied().unwrap_or(true));
        }
        _ => {}
    }
    out
}

/// One tick of a deterministic node on its driver tape: the state slots
/// move into their registers, the step closure's captured environment and
/// the input (owned, so the tape's projections move out of it) load, the
/// whole tape runs in a deterministic context, and the output is built as
/// the interpreter's value, tuples and all.
pub(crate) fn step_driver(
    interp: &Rc<Interp>,
    shared: &TapeShared,
    step: &MufValue,
    state: &mut ModelState,
    input: Value,
) -> Result<MufValue, LangError> {
    let prog = &shared.prog;
    let code = prog.code();
    let slots = flat_slots(state, prog)?;
    let mut regs = shared.first.regs.borrow_mut();
    load_state(code, slots, &mut regs);
    load_env(prog, step, &mut regs)?;
    if let Some(r) = prog.input {
        regs[r as usize] = MufValue::V(input);
    }
    exec(
        interp,
        code,
        0,
        code.ops.len(),
        &mut regs,
        &mut ProbSlot::Det,
    )?;
    let out = out_value(&prog.out, &regs);
    store_state(code, slots, &mut regs);
    Ok(out)
}

/// The once-per-tick load, run at the first particle of a tick on a
/// register file: loads the captured environment (see [`load_env`]) and
/// the tick input, and runs the prologue of `code`. Kept out of line: it
/// runs once per tick, and inlined it slows every particle step.
#[inline(never)]
fn load(
    interp: &Rc<Interp>,
    prog: &TapeProgram,
    code: Code<'_>,
    closure: &MufValue,
    regs: &mut [MufValue],
    prob: &mut ProbSlot<'_>,
    input: &Value,
) -> Result<(), LangError> {
    load_env(prog, closure, regs)?;
    if let Some(r) = prog.input {
        regs[r as usize] = MufValue::V(input.clone());
    }
    exec(interp, code, 0, prog.prologue, regs, prob)
}

/// Checks that `closure` is still the closure the tape was lowered from
/// and copies its captured environment into the env registers (an
/// embedded `infer` site re-closes the transition every tick).
fn load_env(
    prog: &TapeProgram,
    closure: &MufValue,
    regs: &mut [MufValue],
) -> Result<(), LangError> {
    let c = match closure {
        MufValue::Closure(c) if Rc::as_ptr(&c.body) as usize == prog.body_ptr => c,
        _ => {
            return Err(LangError::new(
                Stage::Eval,
                "the transition is no longer the closure the tape was lowered from",
            ))
        }
    };
    for (name, reg) in &prog.env_slots {
        let v = c.env.lookup(name).ok_or_else(|| {
            LangError::new(
                Stage::Eval,
                format!("captured variable `{name}` is missing"),
            )
        })?;
        regs[*reg as usize] = v.clone();
    }
    Ok(())
}

/// Folds an [`OutSpec`] to a core value, mirroring [`MufValue::as_core`]
/// (tuples become right-nested pairs).
fn fold_out(spec: &OutSpec, regs: &[MufValue]) -> Result<Value, LangError> {
    match spec {
        OutSpec::Reg(r) => regs[*r as usize].as_core(),
        OutSpec::Tuple(items) => {
            let parts: Vec<Value> = items
                .iter()
                .map(|s| fold_out(s, regs))
                .collect::<Result<_, _>>()?;
            Ok(parts
                .into_iter()
                .rev()
                .reduce(|acc, v| Value::pair(v, acc))
                .unwrap_or(Value::Unit))
        }
    }
}

/// A driver's output as the interpreter builds it: a tuple place is a
/// µF tuple, a register its value.
fn out_value(spec: &OutSpec, regs: &[MufValue]) -> MufValue {
    match spec {
        OutSpec::Reg(r) => regs[*r as usize].clone(),
        OutSpec::Tuple(items) => {
            MufValue::Tuple(items.iter().map(|s| out_value(s, regs)).collect())
        }
    }
}

/// The inference context of the effect ops `sample`, `observe`, `factor`
/// and `value`; in a driver's deterministic context, the interpreter's
/// error for `what` outside `infer`.
fn prob_ctx<'s>(prob: &'s mut ProbSlot<'_>, what: &str) -> Result<&'s mut dyn ProbCtx, LangError> {
    match prob {
        ProbSlot::Prob(ctx) => Ok(&mut **ctx),
        ProbSlot::Det => Err(outside_infer(what)),
    }
}

/// Runs the instruction stream from op `pc` until `end` or a `Halt`, in
/// a particle's inference context or a driver's deterministic one.
/// Every opcode matches the corresponding `Interp::eval` branch exactly —
/// same evaluation order, same error messages, same RNG draws — so
/// posteriors agree bit-for-bit with the interpreter.
fn exec(
    interp: &Rc<Interp>,
    code: Code<'_>,
    mut pc: usize,
    end: usize,
    regs: &mut [MufValue],
    prob: &mut ProbSlot<'_>,
) -> Result<(), LangError> {
    let ops = code.ops;
    while pc < end {
        let mask = code.takes[pc];
        let take = |i: u32| mask >> i & 1 != 0;
        match &ops[pc] {
            Op::Halt => break,
            Op::Const { dst, v } => regs[*dst as usize] = v.clone(),
            Op::Move { dst, src } => regs[*dst as usize] = operand(regs, *src, take(0)),
            Op::UnOp { op, dst, a } => {
                let v = interp.apply_op(*op, &[&regs[*a as usize]], prob)?;
                regs[*dst as usize] = v;
            }
            Op::BinOp {
                op: op @ (OpName::Add | OpName::Sub | OpName::Mul),
                dst,
                a,
                b,
            } => {
                let (a, b) = (operand(regs, *a, take(0)), operand(regs, *b, take(1)));
                let v = match (a, b) {
                    (MufValue::V(a), MufValue::V(b)) if runs_inline(*op, &a, &b) => {
                        MufValue::V(match op {
                            OpName::Add => ops::add_owned(a, b),
                            OpName::Sub => ops::sub_owned(a, b),
                            _ => ops::mul_owned(a, b),
                        }?)
                    }
                    (a, b) => interp.apply_op(*op, &[a, b], prob)?,
                };
                regs[*dst as usize] = v;
            }
            Op::BinOp { op, dst, a, b } => {
                let v = interp.apply_op(*op, &[&regs[*a as usize], &regs[*b as usize]], prob)?;
                regs[*dst as usize] = v;
            }
            Op::AddMul {
                dst,
                x,
                a,
                b,
                product_first,
            } => {
                let (x, a, b) = (
                    operand(regs, *x, take(0)),
                    operand(regs, *a, take(1)),
                    operand(regs, *b, take(2)),
                );
                let v = match (x, a, b) {
                    (MufValue::V(x), MufValue::V(a), MufValue::V(b))
                        if numeric(&x) && runs_inline(OpName::Mul, &a, &b) =>
                    {
                        MufValue::V(ops::add_mul_owned(x, a, b, *product_first)?)
                    }
                    (x, a, b) => {
                        let t = interp.apply_op(OpName::Mul, &[a, b], prob)?;
                        let sum = if *product_first { [t, x] } else { [x, t] };
                        interp.apply_op(OpName::Add, &sum, prob)?
                    }
                };
                regs[*dst as usize] = v;
            }
            Op::TernOp { op, dst, a, b, c } => {
                let v = interp.apply_op(
                    *op,
                    &[&regs[*a as usize], &regs[*b as usize], &regs[*c as usize]],
                    prob,
                )?;
                regs[*dst as usize] = v;
            }
            Op::MkTuple { dst, items } => {
                let v = MufValue::Tuple(items.iter().map(|&r| regs[r as usize].clone()).collect());
                regs[*dst as usize] = v;
            }
            Op::Proj {
                dst,
                src,
                idx,
                arity,
            } => {
                let v = if take(0) {
                    project_owned(operand(regs, *src, true), *idx, *arity)?
                } else {
                    project(&regs[*src as usize], *idx, *arity)?
                };
                regs[*dst as usize] = v;
            }
            Op::Select { dst, cond, t, f } => {
                let c = regs[*cond as usize].clone();
                let v = match interp.condition_value(c, prob)? {
                    None => MufValue::Nil,
                    Some(true) => operand(regs, *t, take(1)),
                    Some(false) => operand(regs, *f, take(2)),
                };
                regs[*dst as usize] = v;
            }
            Op::Sample { dst, dist } => {
                let d = dist_of(&regs[*dist as usize])?;
                let v = prob_ctx(prob, "sample")?.sample(d)?;
                regs[*dst as usize] = MufValue::V(v);
            }
            Op::Observe { dist, obs } => {
                let d = dist_of(&regs[*dist as usize])?;
                let o = regs[*obs as usize].as_core()?;
                prob_ctx(prob, "observe")?.observe(d, &o)?;
            }
            Op::SampleDist { op, dst, args } => {
                let d = fused_dist(*op, args, regs)?;
                let v = prob_ctx(prob, "sample")?.sample(&d)?;
                regs[*dst as usize] = MufValue::V(v);
            }
            Op::ObserveDist { op, args, obs } => {
                let d = fused_dist(*op, args, regs)?;
                let o = regs[*obs as usize].as_core()?;
                prob_ctx(prob, "observe")?.observe(&d, &o)?;
            }
            Op::Factor { w } => {
                let v = regs[*w as usize].as_core()?;
                let ctx = prob_ctx(prob, "factor")?;
                let v = ctx.force(&v)?;
                ctx.factor(v.as_float()?);
            }
            Op::Value { dst, src } => {
                let v = regs[*src as usize].as_core()?;
                let v = prob_ctx(prob, "value")?.force(&v)?;
                regs[*dst as usize] = MufValue::V(v);
            }
            Op::Freshen { dst, src } => {
                regs[*dst as usize] = regs[*src as usize].deep_clone();
            }
            Op::Infer { dst, engine, site } => infer_step(regs, *dst, *engine, site)?,
            Op::Jmp { target } => {
                pc = *target as usize;
                continue;
            }
            Op::JmpIfNot { cond, target } => {
                let c = regs[*cond as usize].clone();
                match interp.condition_value(c, prob)? {
                    None => {
                        return Err(LangError::new(
                            Stage::Eval,
                            "uninitialized condition; guard delays with `->`",
                        ));
                    }
                    Some(true) => {}
                    Some(false) => {
                        pc = *target as usize;
                        continue;
                    }
                }
            }
        }
        pc += 1;
    }
    Ok(())
}

/// Register `r` as an op's operand: taken, leaving `nil`, where the op
/// reads it for the last time, else copied.
fn operand(regs: &mut [MufValue], r: Reg, take: bool) -> MufValue {
    let slot = &mut regs[r as usize];
    if take {
        std::mem::replace(slot, MufValue::Nil)
    } else {
        slot.clone()
    }
}

/// A float or an affine term.
fn numeric(v: &Value) -> bool {
    matches!(v, Value::Float(_) | Value::Aff(_))
}

/// Whether arithmetic `op` on `a` and `b` runs inline on owned operands
/// (`ops::add_owned` and its siblings): both are numeric, and a product
/// is not symbolic × symbolic, which realizes through `Interp::apply_op`.
/// Every other pair (`nil` poison, integers, type errors) goes through
/// `apply_op` as the interpreter's operator does.
fn runs_inline(op: OpName, a: &Value, b: &Value) -> bool {
    numeric(a)
        && numeric(b)
        && !(op == OpName::Mul && matches!((a, b), (Value::Aff(_), Value::Aff(_))))
}

/// Steps the engine in register `engine` for an `infer` site, as the
/// interpreter's `infer` does: the transition re-closed over the site's
/// captured registers, then one step on a unit input, whose posterior
/// goes to `dst`. Out of line, so this driver-only op adds little to the
/// `exec` that particles run too.
#[inline(never)]
fn infer_step(
    regs: &mut [MufValue],
    dst: Reg,
    engine: Reg,
    site: &InferSite,
) -> Result<(), LangError> {
    // The last tick's posterior goes before the engine builds this
    // tick's, as on the interpreter, so the two are never held at once.
    regs[dst as usize] = MufValue::Nil;
    let MufValue::Engine(e) = &regs[engine as usize] else {
        return Err(LangError::new(
            Stage::Eval,
            format!(
                "infer state must be an engine, found {}",
                regs[engine as usize].kind()
            ),
        ));
    };
    let posterior = {
        let mut eng = e.0.borrow_mut();
        let bindings = site
            .captures
            .iter()
            .map(|(name, r)| (name.as_str(), &regs[*r as usize]));
        eng.reclose(&site.pat, &site.body, bindings);
        eng.step(&Value::Unit)?
    };
    regs[dst as usize] = MufValue::Posterior(Rc::new(posterior));
    Ok(())
}

/// [`project`] of a value the op owns: the element moves out of a tuple
/// or a core pair instead of being copied, so projecting a driver's input,
/// or a particle tape's input in its prologue, allocates nothing. Out of
/// line like [`infer_step`]: it runs once per tick, not once per particle,
/// since no committed example's particle tape projects past its prologue.
#[inline(never)]
fn project_owned(v: MufValue, idx: u32, arity: u32) -> Result<MufValue, LangError> {
    match v {
        MufValue::Tuple(mut xs) if xs.len() == arity as usize => Ok(xs.swap_remove(idx as usize)),
        MufValue::V(Value::Pair(a, b)) if arity == 2 => {
            Ok(MufValue::V(if idx == 0 { *a } else { *b }))
        }
        other => project(&other, idx, arity),
    }
}

/// Runtime tuple projection with the interpreter's pattern-binding
/// semantics (core pairs at arity 2, `nil` spreads, arity checking).
fn project(v: &MufValue, idx: u32, arity: u32) -> Result<MufValue, LangError> {
    match v {
        MufValue::Tuple(xs) => {
            if xs.len() != arity as usize {
                return Err(LangError::new(
                    Stage::Eval,
                    format!(
                        "tuple arity mismatch: pattern {} vs value {}",
                        arity,
                        xs.len()
                    ),
                ));
            }
            Ok(xs[idx as usize].clone())
        }
        MufValue::V(Value::Pair(a, b)) if arity == 2 => Ok(MufValue::V(if idx == 0 {
            (**a).clone()
        } else {
            (**b).clone()
        })),
        MufValue::Nil => Ok(MufValue::Nil),
        other => Err(LangError::new(
            Stage::Eval,
            format!("cannot destructure a {}", other.kind()),
        )),
    }
}

/// Resolves a register to a distribution, mirroring `Interp::eval_dist`.
fn dist_of(v: &MufValue) -> Result<&DistExpr, LangError> {
    match v {
        MufValue::V(Value::Dist(d)) => Ok(d),
        MufValue::Nil => Err(uninitialized_dist()),
        other => Err(LangError::new(
            Stage::Eval,
            format!("expected a distribution, found {}", other.kind()),
        )),
    }
}

/// Builds a fused op's distribution on the stack with the semantics of
/// the constructor op followed by `Interp::eval_dist`: a `nil` argument
/// poisons the constructor to `nil`, which `sample`/`observe` reject, and
/// only then is any argument converted. Each parameter is built straight
/// from its register: a data value is cloned (the distribution owns its
/// parameters), anything else converts as the interpreter's operands do
/// ([`MufValue::as_core`]: a tuple becomes nested pairs, a closure fails).
/// Lowering fuses only unary and binary constructors, so `args` has at
/// most two registers.
fn fused_dist(op: OpName, args: &[Reg], regs: &[MufValue]) -> Result<DistExpr, LangError> {
    if args.iter().any(|&r| regs[r as usize].is_nil()) {
        return Err(uninitialized_dist());
    }
    let mut vals: [Value; 3] = Default::default();
    for (val, &r) in vals.iter_mut().zip(args) {
        *val = match &regs[r as usize] {
            MufValue::V(v) => v.clone(),
            other => other.as_core()?,
        };
    }
    dist_expr(op, vals)
        .ok_or_else(|| LangError::new(Stage::Eval, format!("{op:?} builds no distribution")))
}

impl TapeProgram {
    /// Pretty-prints the tape (the `pzc emit --tape` rendering and the
    /// golden-test surface). The format is stable: header, environment
    /// and state register conventions, constant pool, then one line per
    /// op as `NNNN mnemonic  dst <- operands`. A particle tape with a
    /// steady program ends in a `steady:` block: its header, state
    /// conventions, the pinned slot registers as constants, and its ops.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "regs: {}  ops: {}  state: {} slot(s)",
            self.num_regs,
            self.ops.len(),
            self.state_in.len()
        );
        let _ = writeln!(s, "prologue: {} op(s)", self.prologue);
        if let Some(r) = self.input {
            let _ = writeln!(s, "input: r{r}");
        }
        for (name, reg) in &self.env_slots {
            let _ = writeln!(s, "env: {name} -> r{reg}");
        }
        render_state(&mut s, self.code());
        let _ = writeln!(s, "out: {}", render_out(&self.out));
        for op in &self.consts {
            if let Op::Const { dst, v } = op {
                let _ = writeln!(s, "const r{dst} <- {}", render_value(v));
            }
        }
        render_ops(&mut s, &self.ops, &self.reg_names);
        if let Some(steady) = &self.steady {
            let _ = writeln!(
                s,
                "steady: ops: {}  state: {} slot(s)",
                steady.ops.len(),
                steady.state_in.len()
            );
            render_state(&mut s, steady.code());
            for (r, v) in &steady.pins {
                let _ = writeln!(s, "const r{r} <- {}", render_value(v));
            }
            render_ops(&mut s, &steady.ops, &self.reg_names);
        }
        s
    }
}

/// The `state_in` and `state_out` lines of a rendering.
fn render_state(s: &mut String, code: Code<'_>) {
    use std::fmt::Write as _;
    let ins: Vec<String> = code.state_in.iter().map(|r| format!("r{r}")).collect();
    let outs: Vec<String> = code
        .state_out
        .iter()
        .map(|o| match o {
            StateOut::Move(r) => format!("r{r}"),
            StateOut::Clone(r) => format!("clone(r{r})"),
        })
        .collect();
    let _ = writeln!(s, "state_in: {}", ins.join(" "));
    let _ = writeln!(s, "state_out: {}", outs.join(" "));
}

/// The op lines of a rendering.
fn render_ops(s: &mut String, ops: &[Op], names: &[String]) {
    use std::fmt::Write as _;
    for (i, op) in ops.iter().enumerate() {
        let _ = writeln!(s, "{i:04} {}", render_op(op, names));
    }
}

fn render_out(spec: &OutSpec) -> String {
    match spec {
        OutSpec::Reg(r) => format!("r{r}"),
        OutSpec::Tuple(items) => {
            let parts: Vec<String> = items.iter().map(render_out).collect();
            format!("({})", parts.join(", "))
        }
    }
}

fn render_value(v: &MufValue) -> String {
    match v {
        MufValue::V(val) => format!("{val:?}"),
        MufValue::Nil => "nil".into(),
        MufValue::Tuple(xs) => format!("tuple[{}]", xs.len()),
        MufValue::Closure(_) => "closure".into(),
        MufValue::Engine(_) => "engine".into(),
        MufValue::Posterior(_) => "posterior".into(),
    }
}

fn render_op(op: &Op, names: &[String]) -> String {
    let named = |r: Reg| -> String {
        match names.get(r as usize) {
            Some(n) if !n.is_empty() => format!("r{r}({n})"),
            _ => format!("r{r}"),
        }
    };
    match op {
        Op::Const { dst, v } => format!("const       {} <- {}", named(*dst), render_value(v)),
        Op::Move { dst, src } => format!("move        {} <- {}", named(*dst), named(*src)),
        Op::UnOp { op, dst, a } => {
            format!("unop.{:<6} {} <- {}", mnemonic(*op), named(*dst), named(*a))
        }
        Op::BinOp { op, dst, a, b } => format!(
            "binop.{:<5} {} <- {}, {}",
            mnemonic(*op),
            named(*dst),
            named(*a),
            named(*b)
        ),
        Op::AddMul {
            dst,
            x,
            a,
            b,
            product_first,
        } => {
            let (x, product) = (named(*x), format!("{} * {}", named(*a), named(*b)));
            let (l, r) = if *product_first {
                (product, x)
            } else {
                (x, product)
            };
            format!("addmul      {} <- {l} + {r}", named(*dst))
        }
        Op::TernOp { op, dst, a, b, c } => format!(
            "ternop.{:<4} {} <- {}, {}, {}",
            mnemonic(*op),
            named(*dst),
            named(*a),
            named(*b),
            named(*c)
        ),
        Op::MkTuple { dst, items } => {
            let parts: Vec<String> = items.iter().map(|&r| named(r)).collect();
            format!("mk_tuple    {} <- ({})", named(*dst), parts.join(", "))
        }
        Op::Proj {
            dst,
            src,
            idx,
            arity,
        } => format!(
            "proj        {} <- {}[{idx}/{arity}]",
            named(*dst),
            named(*src)
        ),
        Op::Select { dst, cond, t, f } => format!(
            "select      {} <- {} ? {} : {}",
            named(*dst),
            named(*cond),
            named(*t),
            named(*f)
        ),
        Op::Sample { dst, dist } => format!("sample      {} <- {}", named(*dst), named(*dist)),
        Op::Observe { dist, obs } => format!("observe     {}, {}", named(*dist), named(*obs)),
        Op::SampleDist { op, dst, args } => {
            let args: Vec<String> = args.iter().map(|&r| named(r)).collect();
            format!(
                "sample.{:<5} {} <- ({})",
                mnemonic(*op),
                named(*dst),
                args.join(", ")
            )
        }
        Op::ObserveDist { op, args, obs } => {
            let args: Vec<String> = args.iter().map(|&r| named(r)).collect();
            format!(
                "observe.{:<4} ({}), {}",
                mnemonic(*op),
                args.join(", "),
                named(*obs)
            )
        }
        Op::Factor { w } => format!("factor      {}", named(*w)),
        Op::Value { dst, src } => format!("value       {} <- {}", named(*dst), named(*src)),
        Op::Freshen { dst, src } => format!("freshen     {} <- {}", named(*dst), named(*src)),
        Op::Infer { dst, engine, site } => {
            let env: Vec<String> = site
                .captures
                .iter()
                .map(|(name, r)| format!("{name}=r{r}"))
                .collect();
            format!(
                "infer       {} <- {} with {}",
                named(*dst),
                named(*engine),
                env.join(", ")
            )
        }
        Op::Jmp { target } => format!("jmp         @{target:04}"),
        Op::JmpIfNot { cond, target } => {
            format!("jmp_if_not  {} @{target:04}", named(*cond))
        }
        Op::Halt => "halt".into(),
    }
}

fn mnemonic(op: OpName) -> String {
    format!("{op:?}").to_lowercase()
}
