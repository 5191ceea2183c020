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
//! register, and the tick input is loaded and destructured by the
//! tape's prologue once per tick, not once per particle. What a tick
//! still allocates is per tick (the input, the prologue's values, the
//! engine's own bookkeeping) or per resampling clone (the flat state).
//! The state holds only live state: the compiler gives stateless
//! expressions none (see [`crate::compile`]), so every slot is a memory,
//! a flag or a node's state that the step loads and stores back.
//!
//! The interpreter remains the semantic oracle: lowering is
//! total-or-nothing per engine, every opcode mirrors the corresponding
//! `eval` branch bit-for-bit (including error messages and RNG
//! consumption order), and any construct the lowering does not support
//! leaves the engine interpreting, indistinguishable except for speed.

use crate::ast::OpName;
use crate::error::{LangError, Stage};
use crate::eval::{core_args, dist_expr, uninitialized_dist, Interp, ModelState, ProbSlot};
use crate::muf::MufValue;
use probzelus_core::prob::ProbCtx;
use probzelus_core::value::{DistExpr, Value};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A register index into the tape's dense register file.
pub type Reg = u32;

/// One tape instruction. Registers are read non-destructively (values are
/// cloned out where semantics require ownership), so the same register
/// file is reused by every particle and every tick.
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
    /// Out-of-line call to a statically-known closure the lowering chose
    /// not to inline (recursion-depth or op budget): dispatches back into
    /// the interpreter for the callee only.
    CallSummary {
        /// Destination register.
        dst: Reg,
        /// The closure value (stable: resolved from globals at lowering).
        f: MufValue,
        /// Argument register.
        arg: Reg,
    },
    /// Dynamic application of a register-held closure (escapes to the
    /// interpreter, like [`Op::CallSummary`] but with a runtime callee).
    Eval {
        /// Destination register.
        dst: Reg,
        /// Closure register.
        f: Reg,
        /// Argument register.
        arg: Reg,
    },
    /// End of tape.
    Halt,
}

impl Op {
    /// The register this op writes, if any.
    pub(crate) fn dst(&self) -> Option<Reg> {
        match self {
            Op::Const { dst, .. }
            | Op::Move { dst, .. }
            | Op::UnOp { dst, .. }
            | Op::BinOp { dst, .. }
            | Op::TernOp { dst, .. }
            | Op::MkTuple { dst, .. }
            | Op::Proj { dst, .. }
            | Op::Select { dst, .. }
            | Op::Sample { dst, .. }
            | Op::SampleDist { dst, .. }
            | Op::Value { dst, .. }
            | Op::Freshen { dst, .. }
            | Op::CallSummary { dst, .. }
            | Op::Eval { dst, .. } => Some(*dst),
            Op::Observe { .. }
            | Op::ObserveDist { .. }
            | Op::Factor { .. }
            | Op::Jmp { .. }
            | Op::JmpIfNot { .. }
            | Op::Halt => None,
        }
    }

    /// The registers this op reads.
    pub(crate) fn reads(&self) -> Vec<Reg> {
        match self {
            Op::Const { .. } | Op::Jmp { .. } | Op::Halt => vec![],
            Op::Move { src, .. }
            | Op::Proj { src, .. }
            | Op::Value { src, .. }
            | Op::Freshen { src, .. } => vec![*src],
            Op::UnOp { a, .. } => vec![*a],
            Op::BinOp { a, b, .. } => vec![*a, *b],
            Op::TernOp { a, b, c, .. } => vec![*a, *b, *c],
            Op::MkTuple { items, .. } => items.clone(),
            Op::Select { cond, t, f, .. } => vec![*cond, *t, *f],
            Op::Sample { dist, .. } => vec![*dist],
            Op::Observe { dist, obs } => vec![*dist, *obs],
            Op::SampleDist { args, .. } => args.clone(),
            Op::ObserveDist { args, obs, .. } => args.iter().chain([obs]).copied().collect(),
            Op::Factor { w } => vec![*w],
            Op::JmpIfNot { cond, .. } => vec![*cond],
            Op::CallSummary { arg, .. } => vec![*arg],
            Op::Eval { f, arg, .. } => vec![*f, *arg],
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
    pub(crate) fn regs(&self) -> Vec<Reg> {
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
    /// Length of the prologue: the leading `Proj` ops of `ops` that
    /// destructure the tick input and the captured environment. They
    /// read nothing per-particle, so a step runs them only at the first
    /// particle of a tick (or after the environment was refreshed), and
    /// every particle then runs `ops[prologue..]`.
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
    /// Captured-environment registers, refreshed from the engine's
    /// closure slot whenever it is rewritten: `(name, reg)`.
    pub env_slots: Vec<(String, Reg)>,
    /// The initial state, pre-split into flat slots.
    pub init_slots: Vec<MufValue>,
    /// State tuple structure.
    pub shape: StateShape,
    /// `Rc::as_ptr` of the lowered closure body — per-tick re-closing
    /// evaluates the same `fun` node, so pointer equality certifies the
    /// tape still matches the installed closure.
    pub body_ptr: usize,
    /// Debug names per register (empty string when unnamed).
    pub reg_names: Vec<String>,
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

/// The shared runtime state of one engine's tape: the program plus the
/// register file every particle reuses (particles run sequentially, so a
/// single file suffices; values are moved in and out per step).
#[derive(Debug)]
pub struct TapeShared {
    /// The lowered program.
    pub prog: TapeProgram,
    regs: RefCell<Vec<MufValue>>,
}

impl TapeShared {
    fn new(prog: TapeProgram) -> TapeShared {
        let mut regs = vec![MufValue::Nil; prog.num_regs as usize];
        for op in &prog.consts {
            if let Op::Const { dst, v } = op {
                regs[*dst as usize] = v.clone();
            }
        }
        TapeShared {
            prog,
            regs: RefCell::new(regs),
        }
    }

    /// Bytes of scratch currently held by the register file (the vector
    /// itself plus embedded tuple spines). Constant across steady-state
    /// ticks for Bounded(k) programs — the scratch-plateau witness.
    pub fn scratch_bytes(&self) -> usize {
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

/// Per-engine lowering cell, shared between a [`crate::eval::MufEngine`]
/// and its particle models. Lowering happens lazily at the first particle
/// step, from the closure in the engine's slot at that point (an embedded
/// `infer` site re-closes it over the driver environment at every step),
/// and is attempted exactly once; failure pins the engine to the
/// interpreter. An engine that is never stepped never lowers.
#[derive(Debug, Default)]
pub struct TapeCell {
    attempt: RefCell<Option<Result<Rc<TapeShared>, String>>>,
    /// Bumped by the engine whenever the closure slot is rewritten.
    epoch: Cell<u64>,
    /// Last epoch whose environment was copied into the register file.
    synced: Cell<u64>,
    /// Bumped by the engine at the start of every tick.
    tick: Cell<u64>,
    /// `(tick, epoch)` at the last successful input load and prologue
    /// run: while it matches, the input and prologue registers hold this
    /// tick's values.
    loaded: Cell<Option<(u64, u64)>>,
}

impl TapeCell {
    /// Signals that the engine's closure slot changed (environment
    /// registers must be refreshed before the next execution).
    pub fn bump(&self) {
        self.epoch.set(self.epoch.get().wrapping_add(1));
    }

    /// Signals a new tick input (the input and prologue registers must
    /// be reloaded before the next execution).
    pub(crate) fn next_tick(&self) {
        self.tick.set(self.tick.get().wrapping_add(1));
    }

    /// The installed tape, if lowering has succeeded.
    pub fn ready(&self) -> Option<Rc<TapeShared>> {
        match &*self.attempt.borrow() {
            Some(Ok(shared)) => Some(shared.clone()),
            _ => None,
        }
    }

    /// Human-readable status: `Ok(())` when lowered, `Err(reason)` when
    /// pending or fallen back.
    pub fn status(&self) -> Result<(), String> {
        match &*self.attempt.borrow() {
            None => Err("tape not lowered yet (no step taken)".into()),
            Some(Ok(_)) => Ok(()),
            Some(Err(e)) => Err(e.clone()),
        }
    }

    /// Pins the engine to the interpreter with the given reason (used on
    /// mid-run closure shape changes).
    fn poison(&self, reason: String) {
        *self.attempt.borrow_mut() = Some(Err(reason));
    }

    /// Returns the tape, lowering the current closure on first use.
    /// `None` means this engine executes on the interpreter.
    pub(crate) fn ensure(
        &self,
        interp: &Rc<Interp>,
        closure_slot: &RefCell<MufValue>,
        init_state: &MufValue,
        takes_input: bool,
    ) -> Option<Rc<TapeShared>> {
        let mut attempt = self.attempt.borrow_mut();
        if attempt.is_none() {
            let slot = closure_slot.borrow();
            *attempt = Some(match &*slot {
                MufValue::Closure(c) => {
                    crate::transform::lower::lower_closure(interp, c, init_state, takes_input)
                        .map(|prog| Rc::new(TapeShared::new(prog)))
                }
                other => Err(format!("transition is not a closure: {}", other.kind())),
            });
        }
        match attempt.as_ref() {
            Some(Ok(shared)) => Some(shared.clone()),
            _ => None,
        }
    }
}

/// Splits a whole state value into flat slots following `shape`. Only
/// genuine `Tuple` nodes are accepted at interior positions so the flat
/// form joins back to the identical value (bit-for-bit) if the engine
/// ever has to fall back mid-run.
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

/// Rebuilds the whole state value from flat slots (mid-run interpreter
/// fallback). Inverse of [`split_state`] by construction.
pub(crate) fn join_state(slots: &mut std::vec::IntoIter<MufValue>, shape: &StateShape) -> MufValue {
    match shape {
        StateShape::Leaf => slots.next().unwrap_or(MufValue::Nil),
        StateShape::Node(children) => {
            MufValue::Tuple(children.iter().map(|s| join_state(slots, s)).collect())
        }
    }
}

/// Outcome of a tape step: either the tick output, or an instruction to
/// fall back to the interpreter for this and all future ticks (the
/// installed closure no longer matches the lowered body).
pub(crate) enum TapeStep {
    Done(Value),
    FallBack,
}

/// One particle step on the tape. Mirrors `MufModel::step`'s interpreter
/// path: state slots move into their registers, the tape executes, the
/// output is folded to a core value, and the successor state moves back
/// out. The input load and the prologue run
/// at the first particle of a tick only; an error there is this
/// particle's error, and the next particle retries the load.
pub(crate) fn step_model(
    interp: &Rc<Interp>,
    cell: &TapeCell,
    shared: &Rc<TapeShared>,
    closure_slot: &RefCell<MufValue>,
    state: &mut ModelState,
    ctx: &mut dyn ProbCtx,
    input: &Value,
) -> Result<TapeStep, LangError> {
    let prog = &shared.prog;
    // Refresh captured-environment registers when the closure slot was
    // rewritten since the last sync (every tick for re-closing `infer`
    // sites; once for driver engines with a static closure).
    if cell.synced.get() != cell.epoch.get() {
        let slot = closure_slot.borrow();
        let MufValue::Closure(c) = &*slot else {
            cell.poison(format!("transition became a non-closure: {}", slot.kind()));
            return Ok(TapeStep::FallBack);
        };
        if Rc::as_ptr(&c.body) as usize != prog.body_ptr {
            cell.poison("transition closure changed shape mid-run".into());
            return Ok(TapeStep::FallBack);
        }
        let mut regs = shared.regs.borrow_mut();
        for (name, reg) in &prog.env_slots {
            let Some(v) = c.env.lookup(name) else {
                cell.poison(format!("captured variable `{name}` disappeared"));
                return Ok(TapeStep::FallBack);
            };
            regs[*reg as usize] = v.clone();
        }
        drop(regs);
        cell.synced.set(cell.epoch.get());
    }
    // First tape step: split the whole state into flat slots.
    if let ModelState::Whole(whole) = &*state {
        match split_state(whole, &prog.shape) {
            Ok(slots) => *state = ModelState::Flat(slots),
            Err(e) => {
                cell.poison(format!("state does not fit the tape shape: {e}"));
                return Ok(TapeStep::FallBack);
            }
        }
    }
    let ModelState::Flat(slots) = state else {
        return Err(LangError::new(Stage::Eval, "tape state must be flat"));
    };
    let mut regs = shared.regs.borrow_mut();
    for (slot, &r) in slots.iter_mut().zip(&prog.state_in) {
        regs[r as usize] = std::mem::replace(slot, MufValue::Nil);
    }
    // A failed step leaves the particle no state (every slot was moved
    // out above), as the interpreter's does.
    let out = run(interp, cell, prog, &mut regs, ctx, input)?;
    for (slot, out) in slots.iter_mut().zip(&prog.state_out) {
        *slot = match *out {
            StateOut::Move(r) => std::mem::replace(&mut regs[r as usize], MufValue::Nil),
            StateOut::Clone(r) => regs[r as usize].clone(),
        };
    }
    Ok(TapeStep::Done(out))
}

/// Runs the tape over a register file holding the particle's state:
/// the input load and the prologue when this tick has not loaded them
/// yet, then the body, and folds the output.
fn run(
    interp: &Rc<Interp>,
    cell: &TapeCell,
    prog: &TapeProgram,
    regs: &mut [MufValue],
    ctx: &mut dyn ProbCtx,
    input: &Value,
) -> Result<Value, LangError> {
    let now = (cell.tick.get(), cell.epoch.get());
    if cell.loaded.get() != Some(now) {
        if let Some(r) = prog.input {
            regs[r as usize] = MufValue::V(input.clone());
        }
        exec(interp, &prog.ops, 0, prog.prologue, regs, ctx)?;
        cell.loaded.set(Some(now));
    }
    exec(interp, &prog.ops, prog.prologue, prog.ops.len(), regs, ctx)?;
    // Fold the output before moving state out: an output register may
    // alias a state register.
    fold_out(&prog.out, regs)
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

/// Runs the instruction stream from op `pc` until `end` or a `Halt`.
/// Every opcode matches the corresponding `Interp::eval` branch exactly —
/// same evaluation order, same error messages, same RNG draws — so
/// posteriors agree bit-for-bit with the interpreter.
fn exec(
    interp: &Rc<Interp>,
    ops: &[Op],
    mut pc: usize,
    end: usize,
    regs: &mut [MufValue],
    ctx: &mut dyn ProbCtx,
) -> Result<(), LangError> {
    while pc < end {
        match &ops[pc] {
            Op::Halt => break,
            Op::Const { dst, v } => regs[*dst as usize] = v.clone(),
            Op::Move { dst, src } => regs[*dst as usize] = regs[*src as usize].clone(),
            Op::UnOp { op, dst, a } => {
                let v =
                    interp.apply_op(*op, &[&regs[*a as usize]], &mut ProbSlot::Prob(&mut *ctx))?;
                regs[*dst as usize] = v;
            }
            Op::BinOp { op, dst, a, b } => {
                let v = interp.apply_op(
                    *op,
                    &[&regs[*a as usize], &regs[*b as usize]],
                    &mut ProbSlot::Prob(&mut *ctx),
                )?;
                regs[*dst as usize] = v;
            }
            Op::TernOp { op, dst, a, b, c } => {
                let v = interp.apply_op(
                    *op,
                    &[&regs[*a as usize], &regs[*b as usize], &regs[*c as usize]],
                    &mut ProbSlot::Prob(&mut *ctx),
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
                let v = project(&regs[*src as usize], *idx, *arity)?;
                regs[*dst as usize] = v;
            }
            Op::Select { dst, cond, t, f } => {
                let c = regs[*cond as usize].clone();
                let v = match interp.condition_value(c, &mut ProbSlot::Prob(&mut *ctx))? {
                    None => MufValue::Nil,
                    Some(true) => regs[*t as usize].clone(),
                    Some(false) => regs[*f as usize].clone(),
                };
                regs[*dst as usize] = v;
            }
            Op::Sample { dst, dist } => {
                let d = dist_of(&regs[*dist as usize])?;
                let v = ctx.sample(d)?;
                regs[*dst as usize] = MufValue::V(v);
            }
            Op::Observe { dist, obs } => {
                let d = dist_of(&regs[*dist as usize])?;
                let o = regs[*obs as usize].as_core()?;
                ctx.observe(d, &o)?;
            }
            Op::SampleDist { op, dst, args } => {
                let d = fused_dist(*op, args, regs)?;
                let v = ctx.sample(&d)?;
                regs[*dst as usize] = MufValue::V(v);
            }
            Op::ObserveDist { op, args, obs } => {
                let d = fused_dist(*op, args, regs)?;
                let o = regs[*obs as usize].as_core()?;
                ctx.observe(&d, &o)?;
            }
            Op::Factor { w } => {
                let v = regs[*w as usize].as_core()?;
                let v = ctx.force(&v)?;
                ctx.factor(v.as_float()?);
            }
            Op::Value { dst, src } => {
                let v = regs[*src as usize].as_core()?;
                let v = ctx.force(&v)?;
                regs[*dst as usize] = MufValue::V(v);
            }
            Op::Freshen { dst, src } => {
                regs[*dst as usize] = regs[*src as usize].deep_clone();
            }
            Op::Jmp { target } => {
                pc = *target as usize;
                continue;
            }
            Op::JmpIfNot { cond, target } => {
                let c = regs[*cond as usize].clone();
                match interp.condition_value(c, &mut ProbSlot::Prob(&mut *ctx))? {
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
            Op::CallSummary { dst, f, arg } => {
                let a = regs[*arg as usize].clone();
                let v = interp.apply(f, a, &mut ProbSlot::Prob(&mut *ctx))?;
                regs[*dst as usize] = v;
            }
            Op::Eval { dst, f, arg } => {
                let fv = regs[*f as usize].clone();
                let a = regs[*arg as usize].clone();
                let v = interp.apply(&fv, a, &mut ProbSlot::Prob(&mut *ctx))?;
                regs[*dst as usize] = v;
            }
        }
        pc += 1;
    }
    Ok(())
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
/// poisons the constructor to `nil`, which `sample`/`observe` reject.
fn fused_dist(op: OpName, args: &[Reg], regs: &[MufValue]) -> Result<DistExpr, LangError> {
    let args = args.iter().map(|&r| &regs[r as usize]);
    if args.clone().any(MufValue::is_nil) {
        return Err(uninitialized_dist());
    }
    let (vals, _) = core_args(args)?;
    dist_expr(op, vals.map(Cow::into_owned))
        .ok_or_else(|| LangError::new(Stage::Eval, format!("{op:?} builds no distribution")))
}

impl TapeProgram {
    /// Pretty-prints the tape (the `pzc emit --tape` rendering and the
    /// golden-test surface). The format is stable: header, environment
    /// and state register conventions, constant pool, then one line per
    /// op as `NNNN mnemonic  dst <- operands`.
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
        let ins: Vec<String> = self.state_in.iter().map(|r| format!("r{r}")).collect();
        let outs: Vec<String> = self
            .state_out
            .iter()
            .map(|o| match o {
                StateOut::Move(r) => format!("r{r}"),
                StateOut::Clone(r) => format!("clone(r{r})"),
            })
            .collect();
        let _ = writeln!(s, "state_in: {}", ins.join(" "));
        let _ = writeln!(s, "state_out: {}", outs.join(" "));
        let _ = writeln!(s, "out: {}", render_out(&self.out));
        for op in &self.consts {
            if let Op::Const { dst, v } = op {
                let _ = writeln!(s, "const r{dst} <- {}", render_value(v));
            }
        }
        for (i, op) in self.ops.iter().enumerate() {
            let _ = writeln!(s, "{i:04} {}", render_op(op, &self.reg_names));
        }
        s
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
        Op::Jmp { target } => format!("jmp         @{target:04}"),
        Op::JmpIfNot { cond, target } => {
            format!("jmp_if_not  {} @{target:04}", named(*cond))
        }
        Op::CallSummary { dst, arg, .. } => {
            format!("call_summary {} <- closure({})", named(*dst), named(*arg))
        }
        Op::Eval { dst, f, arg } => {
            format!(
                "eval        {} <- {}({})",
                named(*dst),
                named(*f),
                named(*arg)
            )
        }
        Op::Halt => "halt".into(),
    }
}

fn mnemonic(op: OpName) -> String {
    format!("{op:?}").to_lowercase()
}
