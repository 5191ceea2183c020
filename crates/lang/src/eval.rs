//! The µF interpreter.
//!
//! Deterministic expressions get the classic strict-functional semantics;
//! probabilistic operators are routed through a
//! [`probzelus_core::prob::ProbCtx`], so the same compiled code runs under
//! every inference engine (Figs. 12–14). The `infer` forms are backed by
//! [`probzelus_core::infer::Infer`] over [`MufModel`]s — the state of a
//! compiled `infer` *is* the engine (the σ distribution over model states
//! of §3.3), and it is threaded linearly through the transition functions
//! like any other state.
//!
//! Uninitialized delays produce the `nil` poison value, which propagates
//! through strict operators and errors only at observation sinks — the
//! initialization analysis guarantees accepted programs never get there.

use crate::ast::{Const, OpName};
use crate::error::{LangError, Stage};
use crate::muf::{Closure, EngineRef, Env, MufDef, MufExpr, MufPat, MufProgram, MufValue};
use probzelus_core::adaptive::{DeadlineConfig, DeadlineStatus, DecisionTrace};
use probzelus_core::infer::{Infer, MemoryStats, Method, ResampleStats};
use probzelus_core::model::Model;
use probzelus_core::prob::ProbCtx;
use probzelus_core::supervisor::Health;
use probzelus_core::value::{DistExpr, Value};
use probzelus_core::{ops as vops, Posterior, RuntimeError};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Execution backend for per-particle transition functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// Tree-walking µF interpreter — the semantic oracle the tape is
    /// checked against.
    Interp,
    /// Flat instruction tape (see [`crate::tape`]), the default: each
    /// engine lowers its transition closure to register-indexed opcodes
    /// at its first particle step, once, and each [`Instance`] its
    /// node's step at its first step. Lowering is total-or-nothing: any
    /// unsupported construct makes that engine or instance interpret for
    /// its lifetime (bit-identical by design), and
    /// [`MufEngine::tape_status`] and [`Instance::tape_status`] report
    /// which happened.
    #[default]
    Tape,
}

/// Evaluation options shared by every engine an instance allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Inference method used by every `infer` site.
    pub method: Method,
    /// RNG seed (engines derive their own seeds from it).
    pub seed: u64,
    /// How per-particle transition functions execute.
    pub backend: ExecBackend,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            method: Method::StreamingDs,
            seed: rand::random(),
            backend: ExecBackend::Tape,
        }
    }
}

/// The probabilistic capability threaded through evaluation.
pub enum ProbSlot<'a> {
    /// Deterministic context (driver code).
    Det,
    /// Probabilistic context (inside a particle).
    Prob(&'a mut dyn ProbCtx),
}

/// The interpreter: global definitions plus evaluation options.
pub struct Interp {
    globals: RefCell<HashMap<String, MufValue>>,
    method: Method,
    backend: ExecBackend,
    rng: RefCell<SmallRng>,
    /// Telemetry handle inherited by every engine an `infer` site
    /// allocates; off unless built via [`Interp::new_with_obs`].
    obs: probzelus_core::obs::Obs,
    /// The options seed, kept so driver-tick span IDs (`eval.tick`) are a
    /// pure function of `(seed, tick)` like the engine-side spans.
    seed: u64,
}

impl std::fmt::Debug for Interp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Interp({} globals, {})",
            self.globals.borrow().len(),
            self.method
        )
    }
}

impl Interp {
    /// Builds an interpreter over a compiled program, with telemetry off.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from top-level definitions.
    pub fn new(program: &MufProgram, options: Options) -> Result<Rc<Interp>, LangError> {
        Interp::new_with_obs(program, options, probzelus_core::obs::Obs::off())
    }

    /// Like [`Interp::new`], but every engine allocated by the program's
    /// `infer` sites reports through `obs` (scoped per engine to its
    /// inference-method label).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from top-level definitions.
    pub fn new_with_obs(
        program: &MufProgram,
        options: Options,
        obs: probzelus_core::obs::Obs,
    ) -> Result<Rc<Interp>, LangError> {
        let interp = Rc::new(Interp {
            globals: RefCell::new(HashMap::new()),
            method: options.method,
            backend: options.backend,
            rng: RefCell::new(SmallRng::seed_from_u64(options.seed)),
            obs,
            seed: options.seed,
        });
        for MufDef { name, expr } in &program.defs {
            let v = interp.eval(&Env::empty(), expr, &mut ProbSlot::Det)?;
            interp.globals.borrow_mut().insert(name.clone(), v);
        }
        Ok(interp)
    }

    /// The telemetry handle engines inherit.
    pub fn obs(&self) -> &probzelus_core::obs::Obs {
        &self.obs
    }

    /// The configured inference method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The configured execution backend.
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// Looks up a global definition.
    pub fn global(&self, name: &str) -> Option<MufValue> {
        self.globals.borrow().get(name).cloned()
    }

    fn next_seed(&self) -> u64 {
        self.rng.borrow_mut().gen()
    }

    /// Applies a closure value to an argument.
    ///
    /// # Errors
    ///
    /// Type errors if `f` is not a closure; propagates body errors.
    pub fn apply(
        self: &Rc<Self>,
        f: &MufValue,
        arg: MufValue,
        prob: &mut ProbSlot<'_>,
    ) -> Result<MufValue, LangError> {
        match f {
            MufValue::Closure(c) => {
                let env = bind_pattern(&c.pat, arg, &c.env)?;
                self.eval(&env, &c.body, prob)
            }
            other => Err(LangError::new(
                Stage::Eval,
                format!("cannot apply a {}", other.kind()),
            )),
        }
    }

    /// Evaluates an expression.
    ///
    /// # Errors
    ///
    /// All runtime errors are reported at [`Stage::Eval`].
    pub fn eval(
        self: &Rc<Self>,
        env: &Env,
        e: &MufExpr,
        prob: &mut ProbSlot<'_>,
    ) -> Result<MufValue, LangError> {
        match e {
            MufExpr::Const(c) => Ok(const_value(c)),
            MufExpr::Var(x) => env
                .lookup(x)
                .cloned()
                .or_else(|| self.global(x))
                .ok_or_else(|| LangError::new(Stage::Eval, format!("unbound variable `{x}`"))),
            MufExpr::Tuple(xs) => Ok(MufValue::Tuple(
                xs.iter()
                    .map(|x| self.eval(env, x, prob))
                    .collect::<Result<_, _>>()?,
            )),
            MufExpr::Op(op, args) => {
                // On the stack, as in `core_args`: a `Vec` would cost one
                // allocation per operator of a tree-walked step.
                let n = args.len();
                if n > 3 {
                    return Err(too_many_operands(n));
                }
                let mut vals = [MufValue::Nil, MufValue::Nil, MufValue::Nil];
                for (slot, a) in vals.iter_mut().zip(args) {
                    *slot = self.eval(env, a, prob)?;
                }
                self.eval_op(*op, &mut vals[..n], prob)
            }
            MufExpr::If(c, t, f) => {
                let vc = self.eval(env, c, prob)?;
                match self.condition_value(vc, prob)? {
                    None => Err(LangError::new(
                        Stage::Eval,
                        "uninitialized condition; guard delays with `->`",
                    )),
                    Some(true) => self.eval(env, t, prob),
                    Some(false) => self.eval(env, f, prob),
                }
            }
            MufExpr::Select(c, t, f) => {
                let vc = self.eval(env, c, prob)?;
                let vt = self.eval(env, t, prob)?;
                let vf = self.eval(env, f, prob)?;
                match self.condition_value(vc, prob)? {
                    None => Ok(MufValue::Nil),
                    Some(true) => Ok(vt),
                    Some(false) => Ok(vf),
                }
            }
            MufExpr::App(f, arg) => {
                let vf = self.eval(env, f, prob)?;
                let va = self.eval(env, arg, prob)?;
                self.apply(&vf, va, prob)
            }
            MufExpr::Let(pat, bound, body) => {
                let vb = self.eval(env, bound, prob)?;
                let env = bind_pattern(pat, vb, env)?;
                self.eval(&env, body, prob)
            }
            MufExpr::Fun(pat, body) => Ok(MufValue::Closure(Rc::new(Closure {
                pat: pat.clone(),
                body: Rc::clone(body),
                env: env.clone(),
            }))),
            MufExpr::Sample(d) => {
                let dist = self.eval_dist(env, d, prob)?;
                match prob {
                    ProbSlot::Prob(ctx) => Ok(MufValue::V(ctx.sample(&dist)?)),
                    ProbSlot::Det => Err(outside_infer("sample")),
                }
            }
            MufExpr::Observe(d, o) => {
                let dist = self.eval_dist(env, d, prob)?;
                let obs = self.eval(env, o, prob)?.as_core()?;
                match prob {
                    ProbSlot::Prob(ctx) => {
                        ctx.observe(&dist, &obs)?;
                        Ok(MufValue::unit())
                    }
                    ProbSlot::Det => Err(outside_infer("observe")),
                }
            }
            MufExpr::Factor(w) => {
                let v = self.eval(env, w, prob)?.as_core()?;
                match prob {
                    ProbSlot::Prob(ctx) => {
                        let v = ctx.force(&v)?;
                        ctx.factor(v.as_float()?);
                        Ok(MufValue::unit())
                    }
                    ProbSlot::Det => Err(outside_infer("factor")),
                }
            }
            MufExpr::ValueOp(x) => {
                let v = self.eval(env, x, prob)?.as_core()?;
                match prob {
                    ProbSlot::Prob(ctx) => Ok(MufValue::V(ctx.force(&v)?)),
                    ProbSlot::Det => Err(outside_infer("value")),
                }
            }
            MufExpr::Freshen(inner) => Ok(self.eval(env, inner, prob)?.deep_clone()),
            MufExpr::Infer { body, state, .. } => {
                let closure = self.eval(env, body, prob)?;
                let engine_val = self.eval(env, state, prob)?;
                let MufValue::Engine(engine) = engine_val else {
                    return Err(LangError::new(
                        Stage::Eval,
                        format!("infer state must be an engine, found {}", engine_val.kind()),
                    ));
                };
                let posterior = {
                    let mut eng = engine.0.borrow_mut();
                    eng.set_closure(closure);
                    eng.step(&Value::Unit)?
                };
                Ok(MufValue::Tuple(vec![
                    MufValue::Posterior(Rc::new(posterior)),
                    MufValue::Engine(engine),
                ]))
            }
            MufExpr::EngineInit {
                particles,
                init,
                body,
            } => {
                let init_state = self.eval(env, init, prob)?;
                let closure = self.eval(env, body, prob)?;
                let engine = MufEngine::new(
                    self.clone(),
                    self.method,
                    *particles,
                    init_state,
                    closure,
                    false,
                    self.next_seed(),
                )?;
                Ok(MufValue::Engine(EngineRef(Rc::new(RefCell::new(engine)))))
            }
        }
    }

    /// Resolves a conditional's scrutinee: concrete booleans pass through,
    /// symbolic booleans are realized ("the condition must be a concrete
    /// value", Fig. 14), `nil` yields `None`.
    pub(crate) fn condition_value(
        self: &Rc<Self>,
        v: MufValue,
        prob: &mut ProbSlot<'_>,
    ) -> Result<Option<bool>, LangError> {
        match v {
            MufValue::V(Value::Bool(b)) => Ok(Some(b)),
            MufValue::Nil => Ok(None),
            MufValue::V(sym @ (Value::Rv(_) | Value::Aff(_))) => match prob {
                ProbSlot::Prob(ctx) => Ok(Some(ctx.force(&sym)?.as_bool()?)),
                ProbSlot::Det => Err(LangError::new(
                    Stage::Eval,
                    "symbolic condition outside of `infer`",
                )),
            },
            other => Err(LangError::new(
                Stage::Eval,
                format!("condition must be a boolean, found {}", other.kind()),
            )),
        }
    }

    fn eval_dist(
        self: &Rc<Self>,
        env: &Env,
        e: &MufExpr,
        prob: &mut ProbSlot<'_>,
    ) -> Result<DistExpr, LangError> {
        let v = self.eval(env, e, prob)?;
        match v {
            MufValue::V(Value::Dist(d)) => Ok(*d),
            MufValue::Nil => Err(uninitialized_dist()),
            other => Err(LangError::new(
                Stage::Eval,
                format!("expected a distribution, found {}", other.kind()),
            )),
        }
    }

    /// [`Interp::apply_op`] over operands the caller gives up. Projections
    /// own their tuple here, so the projected element moves out instead of
    /// cloning; every other operator goes through the shared body.
    fn eval_op(
        self: &Rc<Self>,
        op: OpName,
        args: &mut [MufValue],
        prob: &mut ProbSlot<'_>,
    ) -> Result<MufValue, LangError> {
        if matches!(op, OpName::Fst | OpName::Snd) {
            if let Some(MufValue::Tuple(xs)) = args.first_mut() {
                let mut xs = std::mem::take(xs);
                return match (op, xs.len()) {
                    (OpName::Fst, n) if n >= 1 => Ok(xs.swap_remove(0)),
                    (OpName::Snd, 2) => Ok(xs.swap_remove(1)),
                    (OpName::Snd, n) if n > 2 => {
                        xs.remove(0);
                        Ok(MufValue::Tuple(xs))
                    }
                    _ => Err(LangError::new(Stage::Eval, "projection from empty tuple")),
                };
            }
        }
        self.apply_op(op, args, prob)
    }

    /// Applies a µF operator: the one body behind the interpreter's
    /// [`Interp::eval_op`] (owned arguments) and the tape executor
    /// (borrowed registers, which keep their values).
    pub(crate) fn apply_op<A: std::borrow::Borrow<MufValue>>(
        self: &Rc<Self>,
        op: OpName,
        args: &[A],
        prob: &mut ProbSlot<'_>,
    ) -> Result<MufValue, LangError> {
        // Nil poison propagates through strict operators.
        if args.iter().any(|a| a.borrow().is_nil()) {
            return Ok(MufValue::Nil);
        }
        // Posterior-level operators.
        match (op, args.first().map(|a| a.borrow())) {
            (OpName::MeanFloat, Some(MufValue::Posterior(p))) => {
                return Ok(MufValue::V(Value::Float(p.mean_float())));
            }
            (OpName::VarianceFloat, Some(MufValue::Posterior(p))) => {
                return Ok(MufValue::V(Value::Float(p.variance_float())));
            }
            (OpName::Prob, Some(MufValue::Posterior(p))) => {
                let lo = args[1].borrow().as_core()?.as_float()?;
                let hi = args[2].borrow().as_core()?.as_float()?;
                return Ok(MufValue::V(Value::Float(p.prob_interval(lo, hi))));
            }
            (OpName::DrawDist, Some(MufValue::Posterior(p))) => {
                let v = p.sample(&mut *self.rng.borrow_mut());
                return Ok(MufValue::V(v));
            }
            (OpName::Fst | OpName::Snd, Some(MufValue::Tuple(xs))) => {
                // Projections work on interpreter tuples directly.
                return match (op, xs.as_slice()) {
                    (OpName::Fst, [a, ..]) => Ok(a.clone()),
                    (OpName::Snd, [_, b]) => Ok(b.clone()),
                    (OpName::Snd, [_, rest @ ..]) if rest.len() > 1 => {
                        Ok(MufValue::Tuple(rest.to_vec()))
                    }
                    _ => Err(LangError::new(Stage::Eval, "projection from empty tuple")),
                };
            }
            _ => {}
        }
        // Core value operators.
        let (vals, n) = core_args(args.iter().map(|a| a.borrow()))?;
        let vals: [&Value; 3] = std::array::from_fn(|i| &*vals[i]);
        let vals = &vals[..n];
        match core_op(op, vals, self) {
            Ok(v) => Ok(MufValue::V(v)),
            Err(RuntimeError::NeedsValue(_)) => {
                // Symbolic operand where a concrete one is needed: realize
                // (this is the semantics of Fig. 14 for partially evaluated
                // constructs like conditions) and retry once.
                if let ProbSlot::Prob(ctx) = prob {
                    let mut forced = <[Value; 3]>::default();
                    for (f, v) in forced.iter_mut().zip(vals) {
                        *f = ctx.force(v)?;
                    }
                    let forced: [&Value; 3] = std::array::from_fn(|i| &forced[i]);
                    core_op(op, &forced[..n], self)
                        .map(MufValue::V)
                        .map_err(LangError::from)
                } else {
                    Err(LangError::new(
                        Stage::Eval,
                        "symbolic value reached a deterministic operator",
                    ))
                }
            }
            Err(e) => Err(e.into()),
        }
    }
}

/// An operator's operands as core values, in a stack buffer sliced to
/// the first `n` (every operator has arity at most 3): the tape applies
/// an operator per op per particle, where a `Vec` would cost one
/// allocation each time. A data operand is borrowed where it lies (a
/// clone of a distribution or an array would allocate); only a tuple is
/// converted.
fn core_args<'a>(
    args: impl ExactSizeIterator<Item = &'a MufValue>,
) -> Result<([Cow<'a, Value>; 3], usize), LangError> {
    let n = args.len();
    if n > 3 {
        return Err(too_many_operands(n));
    }
    let mut vals: [Cow<'a, Value>; 3] = Default::default();
    for (slot, a) in vals.iter_mut().zip(args) {
        *slot = match a {
            MufValue::V(v) => Cow::Borrowed(v),
            other => Cow::Owned(other.as_core()?),
        };
    }
    Ok((vals, n))
}

/// The error of an operator applied to more than three operands.
fn too_many_operands(n: usize) -> LangError {
    LangError::new(Stage::Eval, format!("operator with {n} arguments"))
}

/// The error of `sample`/`observe` on a `nil` distribution.
pub(crate) fn uninitialized_dist() -> LangError {
    LangError::new(
        Stage::Eval,
        "uninitialized distribution; guard delays with `->`",
    )
}

/// The distribution a constructor operator builds from its operands
/// (unused trailing slots are ignored), `None` for every other operator.
/// The one body behind [`core_op`]'s boxed distribution values and the
/// tape's fused `sample`/`observe` ops, which build it on the stack.
pub(crate) fn dist_expr(op: OpName, [a, b, _]: [Value; 3]) -> Option<DistExpr> {
    use OpName::*;
    Some(match op {
        Gaussian => DistExpr::gaussian(a, b),
        Beta => DistExpr::beta(a, b),
        Bernoulli => DistExpr::bernoulli(a),
        Uniform => DistExpr::uniform(a, b),
        Gamma => DistExpr::gamma(a, b),
        Poisson => DistExpr::poisson(a),
        Exponential => DistExpr::exponential(a),
        Binomial => DistExpr::binomial(a, b),
        Dirac => DistExpr::dirac(a),
        _ => return None,
    })
}

pub(crate) fn outside_infer(what: &str) -> LangError {
    LangError::new(
        Stage::Eval,
        format!("`{what}` used outside of `infer` (probabilistic code needs an inference context)"),
    )
}

pub(crate) fn const_value(c: &Const) -> MufValue {
    match c {
        Const::Unit => MufValue::V(Value::Unit),
        Const::Bool(b) => MufValue::V(Value::Bool(*b)),
        Const::Int(n) => MufValue::V(Value::Int(*n)),
        Const::Float(x) => MufValue::V(Value::Float(*x)),
        Const::Nil => MufValue::Nil,
    }
}

/// Binds a pattern against a value, extending `env`.
///
/// Destructuring `nil` binds every variable to `nil` (poison spreads
/// through structure); destructuring core pairs works for two-element
/// tuples.
fn bind_pattern(pat: &MufPat, value: MufValue, env: &Env) -> Result<Env, LangError> {
    bind_pattern_owned(pat, value, env.clone())
}

/// [`bind_pattern`] over an owned environment: nested tuple patterns
/// thread one environment through instead of cloning the `Rc` spine at
/// every binder.
fn bind_pattern_owned(pat: &MufPat, value: MufValue, env: Env) -> Result<Env, LangError> {
    match (pat, value) {
        (MufPat::Wildcard, _) | (MufPat::Unit, _) => Ok(env),
        (MufPat::Var(x), v) => Ok(env.bind_owned(x.clone(), v)),
        (MufPat::Tuple(ps), MufValue::Tuple(vs)) => {
            if ps.len() != vs.len() {
                return Err(LangError::new(
                    Stage::Eval,
                    format!(
                        "tuple arity mismatch: pattern {} vs value {}",
                        ps.len(),
                        vs.len()
                    ),
                ));
            }
            let mut env = env;
            for (p, v) in ps.iter().zip(vs) {
                env = bind_pattern_owned(p, v, env)?;
            }
            Ok(env)
        }
        (MufPat::Tuple(ps), MufValue::V(Value::Pair(a, b))) if ps.len() == 2 => {
            let env = bind_pattern_owned(&ps[0], MufValue::V(*a), env)?;
            bind_pattern_owned(&ps[1], MufValue::V(*b), env)
        }
        (MufPat::Tuple(ps), MufValue::Nil) => {
            let mut env = env;
            for p in ps {
                env = bind_pattern_owned(p, MufValue::Nil, env)?;
            }
            Ok(env)
        }
        (MufPat::Tuple(_), other) => Err(LangError::new(
            Stage::Eval,
            format!("cannot destructure a {}", other.kind()),
        )),
    }
}

pub(crate) fn core_op(
    op: OpName,
    v: &[&Value],
    interp: &Rc<Interp>,
) -> Result<Value, RuntimeError> {
    use OpName::*;
    match op {
        Add => vops::add(v[0], v[1]),
        Sub => vops::sub(v[0], v[1]),
        Mul => vops::mul(v[0], v[1]),
        Div => vops::div(v[0], v[1]),
        Neg => vops::neg(v[0]),
        Lt => vops::lt(v[0], v[1]),
        Le => vops::le(v[0], v[1]),
        Gt => vops::gt(v[0], v[1]),
        Ge => vops::ge(v[0], v[1]),
        Eq => vops::eq(v[0], v[1]),
        Ne => vops::not(&vops::eq(v[0], v[1])?),
        And => vops::and(v[0], v[1]),
        Or => vops::or(v[0], v[1]),
        Not => vops::not(v[0]),
        Fst => vops::fst(v[0]),
        Snd => vops::snd(v[0]),
        Exp => vops::float_fn(v[0], f64::exp),
        Log => vops::float_fn(v[0], f64::ln),
        Sqrt => vops::float_fn(v[0], f64::sqrt),
        Abs => vops::float_fn(v[0], f64::abs),
        Min => vops::float_fn2(v[0], v[1], f64::min),
        Max => vops::float_fn2(v[0], v[1], f64::max),
        FloatOfInt => Ok(Value::Float(v[0].as_int()? as f64)),
        MeanFloat | VarianceFloat | Prob | DrawDist => {
            // Distribution-valued (not posterior-valued) arguments.
            let d = v[0].as_dist()?.concrete()?;
            match op {
                MeanFloat => {
                    d.mean_float()
                        .map(Value::Float)
                        .ok_or_else(|| RuntimeError::TypeMismatch {
                            expected: "numeric distribution",
                            got: format!("{d}"),
                        })
                }
                VarianceFloat => {
                    d.variance_float()
                        .map(Value::Float)
                        .ok_or_else(|| RuntimeError::TypeMismatch {
                            expected: "numeric distribution",
                            got: format!("{d}"),
                        })
                }
                Prob => {
                    let lo = v[1].as_float()?;
                    let hi = v[2].as_float()?;
                    d.prob_interval(lo, hi).map(Value::Float).ok_or_else(|| {
                        RuntimeError::TypeMismatch {
                            expected: "interval-capable distribution",
                            got: format!("{d}"),
                        }
                    })
                }
                DrawDist => Ok(d.sample(&mut *interp.rng.borrow_mut())),
                _ => unreachable!(),
            }
        }
        Gaussian | Beta | Bernoulli | Uniform | Gamma | Poisson | Exponential | Binomial
        | Dirac => {
            let args =
                std::array::from_fn(|i| v.get(i).map_or_else(Value::default, |x| (*x).clone()));
            dist_expr(op, args)
                .map(Value::dist)
                .ok_or_else(|| RuntimeError::Host(format!("{op:?} builds no distribution")))
        }
    }
}

/// The externalized particle state: held whole while the interpreter runs
/// the transition, split into the tape's flat state slots (depth-first
/// leaves of the tape's state shape) once an engine's tape is ready.
#[derive(Debug)]
pub(crate) enum ModelState {
    Whole(MufValue),
    Flat(Vec<MufValue>),
}

impl ModelState {
    /// A fresh copy of the initial state `init`: flat slots once `tape`
    /// is lowered, else the whole value.
    fn initial(tape: Option<&crate::tape::TapeCell>, init: &MufValue) -> ModelState {
        match tape.and_then(crate::tape::TapeCell::ready) {
            Some(shared) => ModelState::Flat(
                shared
                    .prog
                    .init_slots
                    .iter()
                    .map(MufValue::deep_clone)
                    .collect(),
            ),
            None => ModelState::Whole(init.deep_clone()),
        }
    }

    fn deep_clone(&self) -> ModelState {
        match self {
            ModelState::Whole(v) => ModelState::Whole(v.deep_clone()),
            ModelState::Flat(vs) => ModelState::Flat(vs.iter().map(MufValue::deep_clone).collect()),
        }
    }

    /// [`ModelState::deep_clone`] into `self`, reusing its slot vector
    /// when both are flat.
    fn deep_clone_from(&mut self, source: &ModelState) {
        match (self, source) {
            (ModelState::Flat(to), ModelState::Flat(from)) => {
                to.clear();
                to.extend(from.iter().map(MufValue::deep_clone));
            }
            (to, from) => *to = from.deep_clone(),
        }
    }
}

/// A probabilistic µF model driven by an inference engine: a transition
/// closure plus its externalized state.
pub struct MufModel {
    interp: Rc<Interp>,
    closure: Rc<RefCell<MufValue>>,
    state: ModelState,
    /// Shared by every particle clone; nothing mutates it.
    init_state: Rc<MufValue>,
    takes_input: bool,
    /// Lazily-lowered instruction tape shared by every particle of the
    /// engine (`None` under [`ExecBackend::Interp`]).
    tape: Option<Rc<crate::tape::TapeCell>>,
}

impl std::fmt::Debug for MufModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MufModel(takes_input: {})", self.takes_input)
    }
}

impl Clone for MufModel {
    fn clone(&self) -> Self {
        MufModel {
            interp: self.interp.clone(),
            closure: self.closure.clone(),
            state: self.state.deep_clone(),
            init_state: self.init_state.clone(),
            takes_input: self.takes_input,
            tape: self.tape.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.interp.clone_from(&source.interp);
        self.closure.clone_from(&source.closure);
        self.state.deep_clone_from(&source.state);
        self.init_state.clone_from(&source.init_state);
        self.takes_input = source.takes_input;
        self.tape.clone_from(&source.tape);
    }
}

impl Model for MufModel {
    type Input = Value;

    fn step(&mut self, ctx: &mut dyn ProbCtx, input: &Value) -> Result<Value, RuntimeError> {
        if let Some(cell) = &self.tape {
            if let Some(shared) = cell.ensure(|| {
                let closure = self.closure.borrow();
                crate::transform::lower::lower_closure(
                    &self.interp,
                    crate::tape::closure_of(&closure)?,
                    &self.init_state,
                    self.takes_input,
                )
            }) {
                return Ok(crate::tape::step_model(
                    &self.interp,
                    cell,
                    shared,
                    &self.closure,
                    &mut self.state,
                    ctx,
                    input,
                )?);
            }
        }
        let closure = self.closure.borrow().clone();
        let ModelState::Whole(whole) = &mut self.state else {
            return Err(RuntimeError::Host(
                "tape state observed on the interpreter path".into(),
            ));
        };
        let state = std::mem::replace(whole, MufValue::Nil);
        let arg = if self.takes_input {
            MufValue::Tuple(vec![state, MufValue::V(input.clone())])
        } else {
            state
        };
        let mut prob = ProbSlot::Prob(ctx);
        let result = self.interp.apply(&closure, arg, &mut prob)?;
        match result {
            MufValue::Tuple(mut vs) if vs.len() == 2 => {
                let next = vs.pop().expect("length checked");
                let out = vs.pop().expect("length checked");
                self.state = ModelState::Whole(next);
                Ok(out.as_core()?)
            }
            other => Err(RuntimeError::Host(format!(
                "transition function must return (value, state), got {}",
                other.kind()
            ))),
        }
    }

    fn reset(&mut self) {
        self.state = ModelState::initial(self.tape.as_deref(), &self.init_state);
    }

    fn for_each_state_value(&mut self, f: &mut dyn FnMut(&mut Value)) {
        match &mut self.state {
            ModelState::Whole(s) => s.for_each_value_mut(f),
            ModelState::Flat(slots) => {
                for s in slots {
                    s.for_each_value_mut(f);
                }
            }
        }
    }
}

/// An inference engine over µF models (the runtime value of a compiled
/// `infer`'s state).
#[derive(Clone)]
pub struct MufEngine {
    inner: Infer<MufModel>,
    closure: Rc<RefCell<MufValue>>,
    /// Shared with every particle model under [`ExecBackend::Tape`]; the
    /// engine bumps its tick at every step so the tape reloads the
    /// closure's environment and the input.
    tape: Option<Rc<crate::tape::TapeCell>>,
}

impl std::fmt::Debug for MufEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MufEngine({}, {} particles)",
            self.inner.method(),
            self.inner.num_particles()
        )
    }
}

impl MufEngine {
    /// Allocates an engine whose particles start from (deep clones of)
    /// `init_state`, with `closure` as the transition function.
    ///
    /// # Errors
    ///
    /// The particle cloud cannot be allocated (the count overflows the
    /// address space or the allocator refuses it).
    pub fn new(
        interp: Rc<Interp>,
        method: Method,
        particles: usize,
        init_state: MufValue,
        closure: MufValue,
        takes_input: bool,
        seed: u64,
    ) -> Result<MufEngine, LangError> {
        let slot = Rc::new(RefCell::new(closure));
        let tape = (interp.backend == ExecBackend::Tape)
            .then(|| Rc::new(crate::tape::TapeCell::default()));
        let obs = interp.obs.clone();
        let model = MufModel {
            interp,
            closure: slot.clone(),
            state: ModelState::Whole(init_state.deep_clone()),
            init_state: Rc::new(init_state),
            takes_input,
            tape: tape.clone(),
        };
        let inner = Infer::try_with_seed(method, particles, model, seed)
            .map_err(|e| {
                LangError::new(
                    Stage::Eval,
                    format!("cannot allocate {particles} particles: {e}"),
                )
            })?
            .with_obs(obs);
        Ok(MufEngine {
            inner,
            closure: slot,
            tape,
        })
    }

    /// Replaces the transition closure (the compiled `infer` re-closes the
    /// transition over the current environment at every step, which is how
    /// deterministic inputs flow into the model). Its one caller always
    /// passes a closure over the same body, as the tape requires.
    pub(crate) fn set_closure(&mut self, closure: MufValue) {
        *self.closure.borrow_mut() = closure;
    }

    /// Re-closes the transition over `bindings`, innermost first: the
    /// driver tape's [`MufEngine::set_closure`]. The closure is `fun pat
    /// -> body` over exactly the driver bindings the body reads, which
    /// resolves every name as the interpreter's closure over the whole
    /// driver environment does. A closure only the slot holds, over the
    /// same body and names, is rebound in place, so a steady-state tick
    /// allocates nothing here.
    pub(crate) fn reclose<'a>(
        &mut self,
        pat: &MufPat,
        body: &Rc<MufExpr>,
        bindings: impl DoubleEndedIterator<Item = (&'a str, &'a MufValue)> + Clone,
    ) {
        let mut slot = self.closure.borrow_mut();
        if let MufValue::Closure(c) = &mut *slot {
            if Rc::ptr_eq(&c.body, body) {
                if let Some(c) = Rc::get_mut(c) {
                    if c.env.rebind(bindings.clone()) {
                        return;
                    }
                }
            }
        }
        let env = bindings.rev().fold(Env::empty(), |env, (name, v)| {
            env.bind_owned(name, v.clone())
        });
        *slot = MufValue::Closure(Rc::new(Closure {
            pat: pat.clone(),
            body: Rc::clone(body),
            env,
        }));
    }

    /// One inference step.
    ///
    /// # Errors
    ///
    /// Propagates model evaluation errors.
    pub fn step(&mut self, input: &Value) -> Result<Posterior, LangError> {
        // A new tick: the tape reloads the closure's environment and the
        // input (and reruns its prologue) at the first particle step.
        if let Some(cell) = &self.tape {
            cell.next_tick();
        }
        self.inner.step(input).map_err(|e| e.into())
    }

    /// Tape-backend status: `None` under [`ExecBackend::Interp`]; under
    /// [`ExecBackend::Tape`], `Ok(())` once the transition is lowered and
    /// running on the tape, `Err(reason)` while lowering is pending (no
    /// step taken yet) or after it refused (the engine interprets).
    pub fn tape_status(&self) -> Option<Result<(), String>> {
        self.tape.as_ref().map(|c| c.status())
    }

    /// Bytes of tape scratch (the register file) currently held, when the
    /// tape is active — the allocation-plateau witness for Bounded(k)
    /// programs.
    pub fn tape_scratch_bytes(&self) -> Option<usize> {
        self.tape
            .as_ref()
            .and_then(|c| c.ready())
            .map(|s| s.scratch_bytes())
    }

    /// Which of the tape's programs particle steps ran on in the last
    /// tick, as `(first_instant, steady)`, once the tape is lowered: a
    /// particle's first step runs the first-instant program, every later
    /// one the steady program, when the tape has one
    /// ([`crate::tape::Steady`]).
    pub fn tape_programs_run(&self) -> Option<(bool, bool)> {
        let cell = self.tape.as_ref()?;
        Some(cell.ready()?.programs_run(cell.tick()))
    }

    /// Aggregate graph memory statistics (Fig. 4 / Fig. 19).
    pub fn memory(&self) -> MemoryStats {
        self.inner.memory()
    }

    /// Effective sample size at the last step.
    pub fn last_ess(&self) -> f64 {
        self.inner.last_ess()
    }

    /// Number of particles.
    pub fn num_particles(&self) -> usize {
        self.inner.num_particles()
    }

    /// Inference method.
    pub fn method(&self) -> Method {
        self.inner.method()
    }

    /// Restarts inference from the initial model state.
    pub fn reset(&mut self) {
        self.inner.reset();
    }

    /// Cumulative resampling statistics since the last reset.
    pub fn resample_stats(&self) -> ResampleStats {
        self.inner.resample_stats()
    }

    /// Attaches a per-tick deadline budget and adaptive controller (see
    /// [`Infer::with_deadline`]). Attach after other builder knobs so the
    /// controller captures the intended resampling policy as its baseline.
    #[must_use]
    pub fn with_deadline(mut self, cfg: DeadlineConfig) -> Self {
        self.inner = self.inner.with_deadline(cfg);
        self
    }

    /// Replays a previously recorded decision trace instead of measuring
    /// the clock (see [`Infer::with_decision_replay`]).
    #[must_use]
    pub fn with_decision_replay(mut self, trace: DecisionTrace) -> Self {
        self.inner = self.inner.with_decision_replay(trace);
        self
    }

    /// Updates the deadline budget mid-stream. Returns `false`, changing
    /// nothing, when no controller is attached, the engine is replaying a
    /// trace, or the budget is NaN or infinite.
    pub fn set_deadline_budget(&mut self, budget_ms: f64) -> bool {
        self.inner.set_deadline_budget(budget_ms)
    }

    /// The adaptive controller's decision trace so far (measuring or
    /// replaying), or `None` when no deadline is attached. This is the
    /// pzserve-facing query surface: serialize with
    /// [`DecisionTrace::to_jsonl`].
    pub fn decision_trace(&self) -> Option<&DecisionTrace> {
        self.inner.decision_trace()
    }

    /// Deadline misses observed so far (0 without a measuring controller).
    pub fn deadline_misses(&self) -> u64 {
        self.inner.deadline_misses()
    }

    /// Current deadline status, when a measuring controller is attached.
    pub fn deadline_status(&self) -> Option<DeadlineStatus> {
        self.inner.deadline_status()
    }

    /// Health of the most recent step, including deadline pressure.
    pub fn last_health(&self) -> Option<&Health> {
        self.inner.last_health()
    }
}

/// An instantiated deterministic node: the driver-facing stream function.
///
/// Under [`ExecBackend::Tape`] the node's step is lowered to a driver
/// tape at the first [`Instance::step`], once, as an engine lowers its
/// transition: its `infer` sites step their engines from the tape, and a
/// refusal leaves the instance interpreting for its lifetime
/// ([`Instance::tape_status`] reports which happened).
///
/// When the interpreter carries a live telemetry handle (built via
/// [`Interp::new_with_obs`]), each [`Instance::step`] emits an `eval.tick`
/// root span covering the whole driver tick — engine-side `tick` trees from
/// embedded `infer` sites appear alongside it in the sink stream.
#[derive(Debug)]
pub struct Instance {
    interp: Rc<Interp>,
    step: MufValue,
    state: ModelState,
    /// The state the node starts from. Until the first reset it shares
    /// its engines with the running state, which steps them in place, so
    /// [`Instance::reset`] restarts them before copying.
    init_state: MufValue,
    /// The driver tape (`None` under [`ExecBackend::Interp`]).
    tape: Option<crate::tape::TapeCell>,
    /// Monotonic driver-tick counter (not rewound by [`Instance::reset`],
    /// so every emitted span ID is unique within a run).
    tick: u64,
}

impl Instance {
    /// Instantiates node `name` from the interpreter's globals.
    ///
    /// # Errors
    ///
    /// Unknown node, or initialization failure.
    pub fn new(interp: Rc<Interp>, name: &str) -> Result<Instance, LangError> {
        let step = interp
            .global(&crate::compile::step_name(name))
            .ok_or_else(|| LangError::new(Stage::Eval, format!("unknown node `{name}`")))?;
        let init_thunk = interp
            .global(&crate::compile::init_name(name))
            .ok_or_else(|| LangError::new(Stage::Eval, format!("unknown node `{name}`")))?;
        let state = interp.apply(&init_thunk, MufValue::unit(), &mut ProbSlot::Det)?;
        let tape = (interp.backend == ExecBackend::Tape).then(crate::tape::TapeCell::default);
        Ok(Instance {
            interp,
            step,
            init_state: state.clone(),
            state: ModelState::Whole(state),
            tape,
            tick: 0,
        })
    }

    /// Executes one synchronous step with the given input.
    ///
    /// # Errors
    ///
    /// Evaluation errors (including errors from embedded `infer` engines).
    pub fn step(&mut self, input: Value) -> Result<MufValue, LangError> {
        let t0 = self.interp.obs.enabled().then(std::time::Instant::now);
        let tape = self.tape.as_ref().and_then(|cell| {
            cell.ensure(|| {
                crate::transform::lower::lower_driver(
                    &self.interp,
                    crate::tape::closure_of(&self.step)?,
                    &self.init_state,
                )
            })
        });
        let out = match tape {
            Some(shared) => {
                crate::tape::step_driver(&self.interp, shared, &self.step, &mut self.state, input)
            }
            None => self.step_interp(input),
        };
        if let Some(t0) = t0 {
            use probzelus_core::trace::{self, SpanRecord};
            let tick = self.tick;
            self.tick += 1;
            // The span name distinguishes the execution backend so trace
            // consumers can attribute driver-tick time to the interpreter
            // or the instruction tape without a separate field.
            let (name, phase) = match self.interp.backend {
                ExecBackend::Interp => (trace::spans::EVAL, trace::phases::EVAL),
                ExecBackend::Tape => (trace::spans::EVAL_TAPE, trace::phases::EVAL_TAPE),
            };
            let rec = SpanRecord {
                tick,
                name,
                id: trace::span_id(self.interp.seed, tick, phase, 0),
                parent: None,
                index: None,
                dur_ms: t0.elapsed().as_secs_f64() * 1e3,
            };
            self.interp.obs.span(&rec);
        }
        out
    }

    /// A tick on the tree-walking interpreter.
    fn step_interp(&mut self, input: Value) -> Result<MufValue, LangError> {
        let ModelState::Whole(state) = &mut self.state else {
            return Err(LangError::new(
                Stage::Eval,
                "tape state observed on the interpreter path",
            ));
        };
        let state = std::mem::replace(state, MufValue::Nil);
        let arg = MufValue::Tuple(vec![state, MufValue::V(input)]);
        let result = self
            .interp
            .apply(&self.step.clone(), arg, &mut ProbSlot::Det)?;
        match result {
            MufValue::Tuple(mut vs) if vs.len() == 2 => {
                let next = vs.pop().expect("length checked");
                let out = vs.pop().expect("length checked");
                self.state = ModelState::Whole(next);
                Ok(out)
            }
            other => Err(LangError::new(
                Stage::Eval,
                format!("node step must return (value, state), got {}", other.kind()),
            )),
        }
    }

    /// Restores the initial state, embedded engines included: the
    /// initial state's engines restart from their initial particles (see
    /// [`MufEngine::reset`]) before the copy, so the instance replays a
    /// fresh instance's outputs.
    pub fn reset(&mut self) {
        fn restart_engines(v: &MufValue) {
            match v {
                MufValue::Tuple(xs) => xs.iter().for_each(restart_engines),
                MufValue::Engine(e) => e.0.borrow_mut().reset(),
                _ => {}
            }
        }
        restart_engines(&self.init_state);
        self.state = ModelState::initial(self.tape.as_ref(), &self.init_state);
    }

    /// Driver-tape status: `None` under [`ExecBackend::Interp`]; under
    /// [`ExecBackend::Tape`], `Ok(())` once the step is lowered and
    /// running on the tape, `Err(reason)` while lowering is pending (no
    /// step taken yet) or after it refused (the instance interprets).
    pub fn tape_status(&self) -> Option<Result<(), String>> {
        self.tape.as_ref().map(crate::tape::TapeCell::status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_program;
    use crate::parser::parse_program;
    use crate::schedule::schedule_program;
    use crate::transform::desugar_program;

    fn build(src: &str, options: Options) -> (Rc<Interp>, MufProgram) {
        let p = parse_program(src).unwrap();
        let p = desugar_program(&p);
        let p = schedule_program(&p).unwrap();
        let muf = compile_program(&p).unwrap();
        let interp = Interp::new(&muf, options).unwrap();
        (interp, muf)
    }

    use crate::muf::MufProgram;

    fn det_instance(src: &str, node: &str) -> Instance {
        let (interp, _) = build(
            src,
            Options {
                method: Method::StreamingDs,
                seed: 0,
                backend: ExecBackend::Interp,
            },
        );
        Instance::new(interp, node).unwrap()
    }

    fn float_out(v: &MufValue) -> f64 {
        v.as_core().unwrap().as_float().unwrap()
    }

    #[test]
    fn deterministic_counter_steps() {
        let mut inst = det_instance(
            "let node count x = n where rec n = 0. -> pre n + x",
            "count",
        );
        let outs: Vec<f64> = (0..5)
            .map(|_| float_out(&inst.step(Value::Float(2.0)).unwrap()))
            .collect();
        assert_eq!(outs, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
        inst.reset();
        assert_eq!(float_out(&inst.step(Value::Float(2.0)).unwrap()), 0.0);
    }

    #[test]
    fn integr_from_the_paper_intro() {
        // Backward Euler with h = 1: x = xo -> pre x + x' * h.
        let src = r#"
            let node integr (xo, x') = x where
              rec x = xo -> pre x + x' * 1.0
        "#;
        let mut inst = det_instance(src, "integr");
        let step = |inst: &mut Instance, xo: f64, dx: f64| {
            float_out(
                &inst
                    .step(Value::pair(Value::Float(xo), Value::Float(dx)))
                    .unwrap(),
            )
        };
        assert_eq!(step(&mut inst, 1.0, 2.0), 1.0);
        assert_eq!(step(&mut inst, 9.0, 2.0), 3.0);
        assert_eq!(step(&mut inst, 9.0, 2.0), 5.0);
    }

    #[test]
    fn node_application_keeps_separate_state() {
        let src = r#"
            let node count x = n where rec n = x -> pre n + x
            let node two x = (count(x), count(x + x))
        "#;
        let mut inst = det_instance(src, "two");
        let out = inst.step(Value::Float(1.0)).unwrap().as_core().unwrap();
        assert_eq!(out, Value::pair(Value::Float(1.0), Value::Float(2.0)));
        let out = inst.step(Value::Float(1.0)).unwrap().as_core().unwrap();
        assert_eq!(out, Value::pair(Value::Float(2.0), Value::Float(4.0)));
    }

    #[test]
    fn present_is_lazy_in_state() {
        // The `then` branch counts activations only.
        let src = r#"
            let node f c = present c -> (1. -> pre y + 1.) else 0. where
              rec y = 0.0
        "#;
        // y is unused inside present; use a self-contained counter instead.
        let src2 = r#"
            let node f c = present c -> k else 0. where
              rec k = reset (1. -> pre k + 1.) every false
        "#;
        let _ = src;
        let mut inst = det_instance(src2, "f");
        let step = |i: &mut Instance, c: bool| float_out(&i.step(Value::Bool(c)).unwrap());
        assert_eq!(step(&mut inst, true), 1.0);
        assert_eq!(step(&mut inst, false), 0.0);
        assert_eq!(step(&mut inst, true), 3.0);
    }

    #[test]
    fn reset_reinitializes_state() {
        let _src = r#"
            let node f c = reset (0. -> pre n + 1.) every c where rec n = 0.0
        "#;
        // n unused; simpler: count inside reset.
        let src = r#"
            let node f c = n where rec n = reset (0. -> pre n + 1.) every c
        "#;
        let mut inst = det_instance(src, "f");
        let step = |i: &mut Instance, c: bool| float_out(&i.step(Value::Bool(c)).unwrap());
        assert_eq!(step(&mut inst, false), 0.0);
        assert_eq!(step(&mut inst, false), 1.0);
        assert_eq!(step(&mut inst, false), 2.0);
        assert_eq!(step(&mut inst, true), 0.0);
        assert_eq!(step(&mut inst, false), 1.0);
    }

    #[test]
    fn dsl_kalman_matches_closed_form() {
        let src = r#"
            let node kalman yobs = x where
              rec x = sample (gaussian ((0. -> pre x), (100. -> 1.)))
              and () = observe (gaussian (x, 1.), yobs)
            let node main y = infer 1 kalman y
        "#;
        let (interp, _) = build(
            src,
            Options {
                method: Method::StreamingDs,
                seed: 7,
                backend: ExecBackend::Interp,
            },
        );
        let mut inst = Instance::new(interp, "main").unwrap();
        let obs = [1.3, 0.7, -0.2, 2.5];
        let (mut km, mut kv) = (0.0f64, 100.0f64);
        for (t, &y) in obs.iter().enumerate() {
            if t > 0 {
                kv += 1.0;
            }
            let gain = kv / (kv + 1.0);
            km += gain * (y - km);
            kv *= 1.0 - gain;
            let out = inst.step(Value::Float(y)).unwrap();
            match out {
                MufValue::Posterior(p) => {
                    assert!(
                        (p.mean_float() - km).abs() < 1e-9,
                        "step {t}: {} vs {km}",
                        p.mean_float()
                    );
                }
                other => panic!("expected posterior, got {:?}", other.kind()),
            }
        }
    }

    /// A particle model reset to its initial slots, as the engine's
    /// `blank_particle` makes one for a reset or a `ReseedPrior` restart,
    /// steps in the same tick as a sibling on the steady program, in
    /// either order: each runs its own program on its own register file,
    /// with its own once-per-tick load, and both give the tree walker's
    /// outputs and log weights bit for bit.
    #[test]
    fn first_instant_and_steady_particles_share_a_tick() {
        use probzelus_core::prob::SampleCtx;
        const SRC: &str = r#"
            let node walk (y, d) = x where
              rec x = sample (gaussian ((0. -> pre x + d), (100. -> 1.)))
              and () = observe (gaussian (x, 1.), y)
        "#;
        // Per tick: the particle reset before it, and the step order.
        const TICKS: [(Option<usize>, [usize; 2]); 4] = [
            (None, [0, 1]),
            (Some(1), [0, 1]),
            (Some(0), [0, 1]),
            (None, [1, 0]),
        ];
        let run = |backend| {
            let options = Options {
                method: Method::ParticleFilter,
                seed: 0,
                backend,
            };
            let (interp, _) = build(SRC, options);
            let global = |name: &str| interp.global(name).unwrap();
            let init = interp
                .apply(
                    &global(&crate::compile::init_name("walk")),
                    MufValue::unit(),
                    &mut ProbSlot::Det,
                )
                .unwrap();
            let tape = (backend == ExecBackend::Tape).then(Rc::<crate::tape::TapeCell>::default);
            let model = MufModel {
                interp: interp.clone(),
                closure: Rc::new(RefCell::new(global(&crate::compile::step_name("walk")))),
                state: ModelState::Whole(init.deep_clone()),
                init_state: Rc::new(init),
                takes_input: true,
                tape: tape.clone(),
            };
            let mut particles = [model.clone(), model];
            let mut bits = Vec::new();
            let mut slots = Vec::new();
            for (t, (reset, order)) in TICKS.into_iter().enumerate() {
                if let Some(cell) = &tape {
                    cell.next_tick();
                }
                if let Some(i) = reset {
                    particles[i].reset();
                }
                let input = Value::pair(Value::Float(0.3 * t as f64), Value::Float(0.5));
                for i in order {
                    let mut rng = SmallRng::seed_from_u64((2 * t + i) as u64);
                    let mut ctx = SampleCtx::new(&mut rng);
                    let out = particles[i].step(&mut ctx, &input).unwrap();
                    bits.push((
                        out.as_float().unwrap().to_bits(),
                        ctx.log_weight().to_bits(),
                    ));
                }
                if let Some(cell) = &tape {
                    let ran = cell.ready().unwrap().programs_run(cell.tick());
                    let counts = particles.each_ref().map(|p| match &p.state {
                        ModelState::Flat(s) => s.len(),
                        ModelState::Whole(_) => panic!("tick {t}: whole state on the tape"),
                    });
                    slots.push((ran, counts));
                }
            }
            (bits, slots)
        };
        let (expected, _) = run(ExecBackend::Interp);
        let (got, slots) = run(ExecBackend::Tape);
        assert_eq!(got, expected, "tape vs tree walker");
        // The memory of `pre x` stays; the two `->` flags leave after a
        // particle's first step.
        let (first, steady, both) = ((true, false), (false, true), (true, true));
        assert_eq!(
            slots,
            [
                (first, [1, 1]),
                (both, [1, 1]),
                (both, [1, 1]),
                (steady, [1, 1])
            ],
            "programs run and slots kept per tick"
        );
    }

    #[test]
    fn probabilistic_op_outside_infer_errors() {
        let src = "let node f x = sample(gaussian(x, 1.))";
        let (interp, _) = build(
            src,
            Options {
                method: Method::StreamingDs,
                seed: 0,
                backend: ExecBackend::Interp,
            },
        );
        let mut inst = Instance::new(interp, "f").unwrap();
        let err = inst.step(Value::Float(0.0)).unwrap_err();
        assert!(err.message.contains("outside"));
    }
}
