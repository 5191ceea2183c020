//! Compilation of the (kernel, scheduled) language to µF: the functions
//! C(·) and A(·) of Fig. 11 / Fig. 20 / Fig. 21.
//!
//! Every expression compiles to a µF transition function `fun s -> (v, s')`
//! and an allocation expression for its initial state. A node `f` yields
//! two globals: `f_step = fun (s, x) -> C(body)(s)` and `f_init = fun () ->
//! A(body)` (a thunk, so each instantiation gets fresh state — in
//! particular a fresh inference engine for each `infer` site).
//!
//! Two deliberate deviations from the paper's Figs. 20–21:
//!
//! * We allocate `A(f(e)) = (A(e), f_init)` — argument state first — to
//!   match the destructuring order of Fig. 20's `C(f(e))`, whose printed
//!   allocation `(f_init, A(e))` appears to be a typo.
//! * Figs. 20–21 give every subexpression a state, so constants,
//!   variables and `last x` reads get a `()` leaf passed through
//!   unchanged. Here an expression whose A(·) would hold only such leaves
//!   compiles to its plain µF value and has no state; a parent's state
//!   holds only the parts that have one — memories, node applications,
//!   `infer` engines and what contains them — as one part alone or a
//!   tuple of several. A stateless node keeps the `(s, x) -> (v, s)`
//!   interface over a `()` state. Stateless parts are evaluated exactly
//!   where C(·) would have evaluated them, and A(·) allocates the
//!   remaining parts in the same order, so effects and engine seeds are
//!   unchanged.

use crate::ast::{Const, Eq, Expr, NodeDecl, Pattern, Program};
use crate::error::{LangError, Stage};
use crate::muf::{MufDef, MufExpr, MufPat, MufProgram};
use crate::transform::is_kernel;
use crate::transform::opt::HoistPlan;
use std::collections::{HashMap, HashSet};

/// Compiles a kernel, scheduled program to µF.
///
/// # Errors
///
/// Rejects programs containing derived forms (compile after
/// [`crate::transform::desugar_program`]) or duplicate definitions.
pub fn compile_program(p: &Program) -> Result<MufProgram, LangError> {
    compile_program_with(p, &HashMap::new())
}

/// Like [`compile_program`], but compiles each `infer` site whose target
/// node has a [`HoistPlan`] into the split prelude/main form: the
/// particle-invariant prelude (including the site argument) runs once per
/// tick on the coordinator, and every particle steps the residual
/// `{node}#main` with the broadcast prelude output. The program must
/// already contain the plan's generated `{node}#prelude` / `{node}#main`
/// nodes (the optimizer inserts them).
///
/// # Errors
///
/// As for [`compile_program`].
pub fn compile_program_with(
    p: &Program,
    plans: &HashMap<String, HoistPlan>,
) -> Result<MufProgram, LangError> {
    let mut c = Compiler {
        fresh: 0,
        plans,
        stateless: HashSet::new(),
    };
    let mut defs = Vec::new();
    for node in &p.nodes {
        if !is_kernel(&node.body) {
            return Err(LangError::new(
                Stage::Compile,
                format!("node `{}` contains derived forms; desugar first", node.name),
            ));
        }
        let (step, init) = c.compile_node(node)?;
        defs.push(MufDef {
            name: step_name(&node.name),
            expr: step,
        });
        defs.push(MufDef {
            name: init_name(&node.name),
            expr: init,
        });
    }
    // One wrap global per planned node, for driver-facing engines
    // (`infer_node`): maps this tick's prelude output to the per-particle
    // transition closure, `fun hv -> fun (s, x) -> main_step (s, (x, hv))`.
    for node in &p.nodes {
        if let Some(plan) = plans.get(&node.name) {
            let (hv, s, x) = (c.fresh("v"), c.fresh("s"), c.fresh("x"));
            defs.push(MufDef {
                name: wrap_name(&node.name),
                expr: fun(
                    MufPat::var(&hv),
                    fun(
                        MufPat::pair(MufPat::var(&s), MufPat::var(&x)),
                        app(
                            var(step_name(&plan.main_node)),
                            tuple(vec![var(&s), tuple(vec![var(&x), var(&hv)])]),
                        ),
                    ),
                ),
            });
        }
    }
    Ok(MufProgram { defs })
}

/// The global name of a node's transition function.
pub fn step_name(node: &str) -> String {
    format!("{node}_step")
}

/// The global name of a node's allocation thunk.
pub fn init_name(node: &str) -> String {
    format!("{node}_init")
}

/// The global name of a planned node's driver-side wrap function (takes
/// the original node's name, not `{node}#main`).
pub fn wrap_name(node: &str) -> String {
    format!("{node}#wrap")
}

/// The variable carrying `last x` values in compiled code. The `#` cannot
/// appear in source identifiers, so there is no capture risk.
fn last_var(x: &str) -> String {
    format!("{x}#last")
}

struct Compiler<'p> {
    fresh: u32,
    plans: &'p HashMap<String, HoistPlan>,
    /// Nodes compiled so far whose body is stateless: their state is
    /// `()`, so an application passes `()` and allocates nothing.
    stateless: HashSet<String>,
}

fn var(name: impl Into<String>) -> MufExpr {
    MufExpr::Var(name.into())
}

fn app(f: MufExpr, x: MufExpr) -> MufExpr {
    MufExpr::App(Box::new(f), Box::new(x))
}

fn let_(pat: MufPat, bound: MufExpr, body: MufExpr) -> MufExpr {
    MufExpr::Let(pat, Box::new(bound), Box::new(body))
}

fn fun(pat: MufPat, body: MufExpr) -> MufExpr {
    MufExpr::Fun(pat, std::rc::Rc::new(body))
}

fn tuple(items: Vec<MufExpr>) -> MufExpr {
    MufExpr::Tuple(items)
}

/// Initialized variables and defining equations of a normalized `where`
/// block.
type NormalizedEqs = (Vec<(String, Const)>, Vec<(String, Expr)>);

/// Adds `x = last x` for initialized variables without a defining
/// equation, preserving scheduling (the added equations depend on nothing
/// instantaneous). Returns `(inits, defs)`.
fn normalize_where(eqs: &[Eq]) -> Result<NormalizedEqs, LangError> {
    let mut inits = Vec::new();
    let mut defs = Vec::new();
    let mut seen_init = HashSet::new();
    let mut seen_def = HashSet::new();
    for eq in eqs {
        match eq {
            Eq::Init { name, value } => {
                if !seen_init.insert(name.clone()) {
                    return Err(LangError::new(
                        Stage::Compile,
                        format!("duplicate `init {name}`"),
                    ));
                }
                inits.push((name.clone(), value.clone()));
            }
            Eq::Def { name, expr } => {
                if !seen_def.insert(name.clone()) {
                    return Err(LangError::new(
                        Stage::Compile,
                        format!("duplicate definition of `{name}`"),
                    ));
                }
                defs.push((name.clone(), expr.clone()));
            }
            Eq::Automaton { .. } => {
                return Err(LangError::new(
                    Stage::Compile,
                    "automaton must be expanded before compilation",
                ))
            }
        }
    }
    for (name, _) in &inits {
        if !seen_def.contains(name) {
            defs.push((name.clone(), Expr::Last(name.clone())));
        }
    }
    Ok((inits, defs))
}

/// What C(·) makes of an expression.
enum Code {
    /// A stateless expression — one whose A(·) would hold only `()`
    /// leaves — as a plain µF value expression. It gets no state.
    Pure(MufExpr),
    /// A transition function `fun s -> (v, s')` over the state A(·)
    /// allocates.
    Step(MufExpr),
}

/// A transition under construction: the state components its parts step
/// (in evaluation order), their successors, and the bindings that
/// compute them.
#[derive(Default)]
struct Seq {
    ins: Vec<String>,
    outs: Vec<MufExpr>,
    lets: Vec<(MufPat, MufExpr)>,
}

impl Seq {
    /// `value` under the bindings: pure when no part has state, else the
    /// transition `fun ins -> lets in (value, outs)`.
    fn finish(self, value: MufExpr) -> Code {
        if self.ins.is_empty() {
            Code::Pure(lets_in(self.lets, value))
        } else {
            Code::Step(self.finish_step(value))
        }
    }

    /// The transition `fun ins -> lets in (value, outs)`.
    fn finish_step(self, value: MufExpr) -> MufExpr {
        let body = tuple(vec![value, state_expr(self.outs)]);
        fun(state_pat(&self.ins), lets_in(self.lets, body))
    }
}

/// `let p1 = e1 in .. let pn = en in body`.
fn lets_in(lets: Vec<(MufPat, MufExpr)>, body: MufExpr) -> MufExpr {
    lets.into_iter()
        .rev()
        .fold(body, |acc, (p, e)| let_(p, e, acc))
}

/// A state made of `parts`: a single part is the state itself, several
/// form a tuple. Used only with at least one part.
fn state_expr(mut parts: Vec<MufExpr>) -> MufExpr {
    if parts.len() == 1 {
        parts.swap_remove(0)
    } else {
        tuple(parts)
    }
}

/// The pattern matching [`state_expr`] over state variables.
fn state_pat(vars: &[String]) -> MufPat {
    match vars {
        [one] => MufPat::var(one),
        _ => MufPat::Tuple(vars.iter().map(MufPat::var).collect()),
    }
}

/// A state of `parts` allocated by A(·), or `None` without parts.
fn state_alloc(parts: Vec<Option<MufExpr>>) -> Option<MufExpr> {
    let parts: Vec<MufExpr> = parts.into_iter().flatten().collect();
    (!parts.is_empty()).then(|| state_expr(parts))
}

fn unit() -> MufExpr {
    MufExpr::Const(Const::Unit)
}

impl Compiler<'_> {
    fn fresh(&mut self, hint: &str) -> String {
        self.fresh += 1;
        format!("{hint}%{}", self.fresh)
    }

    fn compile_node(&mut self, node: &NodeDecl) -> Result<(MufExpr, MufExpr), LangError> {
        let s = self.fresh("s");
        let result = match self.c(&node.body)? {
            Code::Step(f) => app(f, var(&s)),
            Code::Pure(v) => {
                self.stateless.insert(node.name.clone());
                tuple(vec![v, var(&s)])
            }
        };
        let step = fun(
            MufPat::pair(MufPat::var(&s), pattern_to_pat(&node.param)),
            result,
        );
        let init = fun(MufPat::Unit, self.a(&node.body)?.unwrap_or_else(unit));
        Ok((step, init))
    }

    /// C(·) as a transition function, for an `infer` body: a stateless
    /// model steps a `()` state.
    fn transition(&mut self, e: &Expr) -> Result<MufExpr, LangError> {
        Ok(match self.c(e)? {
            Code::Step(f) => f,
            Code::Pure(v) => {
                let s = self.fresh("s");
                fun(MufPat::var(&s), tuple(vec![v, var(&s)]))
            }
        })
    }

    /// Adds a part to `seq` and returns the expression of its value. A
    /// stateful part steps a state component of its own; a stateless one
    /// is its value expression, bound to a fresh variable when `bind`
    /// asks for it (a later part steps state, so evaluating the value in
    /// place would reorder its effects, or the value is read twice) and
    /// it is more than a constant or a variable.
    fn sequence(&mut self, seq: &mut Seq, code: Code, bind: bool) -> MufExpr {
        match code {
            Code::Step(f) => {
                let v = self.fresh("v");
                self.step_into(seq, MufPat::var(&v), |s| app(f, s));
                var(v)
            }
            Code::Pure(x) if bind && !matches!(x, MufExpr::Const(_) | MufExpr::Var(_)) => {
                let v = self.fresh("v");
                seq.lets.push((MufPat::var(&v), x));
                var(v)
            }
            Code::Pure(x) => x,
        }
    }

    /// Adds a fresh state component to `seq`: `call` steps it (given the
    /// state, it returns `(v, s')`), binding `v` to `value`.
    fn step_into(&mut self, seq: &mut Seq, value: MufPat, call: impl FnOnce(MufExpr) -> MufExpr) {
        let (s, n) = (self.fresh("s"), self.fresh("s"));
        seq.lets
            .push((MufPat::pair(value, MufPat::var(&n)), call(var(&s))));
        seq.ins.push(s);
        seq.outs.push(var(n));
    }

    /// Compiles strictly evaluated parts, in order, into `seq`.
    fn parts(&mut self, seq: &mut Seq, es: &[&Expr]) -> Result<Vec<MufExpr>, LangError> {
        let codes: Vec<Code> = es.iter().map(|e| self.c(e)).collect::<Result<_, _>>()?;
        let last_step = codes.iter().rposition(|c| matches!(c, Code::Step(_)));
        Ok(codes
            .into_iter()
            .enumerate()
            .map(|(i, code)| self.sequence(seq, code, last_step.is_some_and(|l| i < l)))
            .collect())
    }

    /// C(·) (Fig. 20), except that stateless expressions compile to
    /// their value and allocate no state (see the module docs).
    fn c(&mut self, e: &Expr) -> Result<Code, LangError> {
        let mut seq = Seq::default();
        let value = match e {
            Expr::At(inner, _) => return self.c(inner),
            Expr::Const(c) => MufExpr::Const(c.clone()),
            Expr::Var(x) => var(x.clone()),
            Expr::Last(x) => var(last_var(x)),
            Expr::Pair(e1, e2) => tuple(self.parts(&mut seq, &[e1, e2])?),
            Expr::Op(op, args) => {
                let args: Vec<&Expr> = args.iter().collect();
                MufExpr::Op(*op, self.parts(&mut seq, &args)?)
            }
            Expr::App(f, arg) => {
                let [v] = self.parts_array(&mut seq, [arg])?;
                if self.stateless.contains(f) {
                    // A stateless node steps a `()` state.
                    let r = self.fresh("v");
                    let_(
                        MufPat::pair(MufPat::var(&r), MufPat::Wildcard),
                        app(var(step_name(f)), tuple(vec![unit(), v])),
                        var(r),
                    )
                } else {
                    let r = self.fresh("v");
                    self.step_into(&mut seq, MufPat::var(&r), |s| {
                        app(var(step_name(f)), tuple(vec![s, v]))
                    });
                    var(r)
                }
            }
            Expr::Where { body, eqs } => return self.c_where(body, eqs),
            Expr::If { cond, then, els } => {
                let [c, t, f] = self.parts_array(&mut seq, [cond, then, els])?;
                MufExpr::Select(Box::new(c), Box::new(t), Box::new(f))
            }
            Expr::Present { cond, then, els } => return self.c_present(cond, then, els),
            Expr::Reset { body, every } => return self.c_reset(body, every),
            Expr::Sample(d) => {
                let [d] = self.parts_array(&mut seq, [d])?;
                MufExpr::Sample(Box::new(d))
            }
            Expr::Observe(d, o) => {
                let [d, o] = self.parts_array(&mut seq, [d, o])?;
                MufExpr::Observe(Box::new(d), Box::new(o))
            }
            Expr::Factor(w) => {
                let [w] = self.parts_array(&mut seq, [w])?;
                MufExpr::Factor(Box::new(w))
            }
            Expr::ValueOp(x) => {
                let [x] = self.parts_array(&mut seq, [x])?;
                MufExpr::ValueOp(Box::new(x))
            }
            Expr::Infer {
                particles,
                node,
                arg,
            } => {
                let sigma = self.fresh("sigma");
                let plans = self.plans;
                let (body, prelude) = match plans.get(node) {
                    Some(plan) => {
                        let wrap = self.wrap_embedded(plan);
                        (wrap, Some(Box::new(self.prelude_transition(plan, arg)?)))
                    }
                    None => (
                        self.transition(&Expr::App(node.clone(), arg.clone()))?,
                        None,
                    ),
                };
                return Ok(Code::Step(fun(
                    MufPat::var(&sigma),
                    MufExpr::Infer {
                        particles: *particles,
                        body: Box::new(body),
                        state: Box::new(var(&sigma)),
                        prelude,
                    },
                )));
            }
            Expr::Arrow(_, _) | Expr::Pre(_) | Expr::Fby(_, _) => return Err(derived_form()),
        };
        Ok(seq.finish(value))
    }

    /// [`Compiler::parts`] over a fixed number of boxed parts.
    fn parts_array<const N: usize>(
        &mut self,
        seq: &mut Seq,
        es: [&Expr; N],
    ) -> Result<[MufExpr; N], LangError> {
        let vals = self.parts(seq, &es)?;
        vals.try_into()
            .map_err(|_| LangError::new(Stage::Compile, "part count mismatch"))
    }

    /// `present`: the condition, then only the selected branch steps its
    /// state; the other branch's state passes through.
    fn c_present(&mut self, cond: &Expr, then: &Expr, els: &Expr) -> Result<Code, LangError> {
        let mut seq = Seq::default();
        let code = self.c(cond)?;
        let vc = self.sequence(&mut seq, code, false);
        let (mut t, mut f) = (Seq::default(), Seq::default());
        let code = self.c(then)?;
        let vt = self.sequence(&mut t, code, false);
        let code = self.c(els)?;
        let vf = self.sequence(&mut f, code, false);
        if seq.ins.is_empty() && t.ins.is_empty() && f.ins.is_empty() {
            return Ok(Code::Pure(MufExpr::If(
                Box::new(vc),
                Box::new(vt),
                Box::new(vf),
            )));
        }
        let unchanged = |vars: &[String]| -> Vec<MufExpr> { vars.iter().map(var).collect() };
        let then_next = [seq.outs.clone(), t.outs, unchanged(&f.ins)].concat();
        let else_next = [seq.outs, unchanged(&t.ins), f.outs].concat();
        let ins = [seq.ins, t.ins, f.ins].concat();
        let body = MufExpr::If(
            Box::new(vc),
            Box::new(lets_in(t.lets, tuple(vec![vt, state_expr(then_next)]))),
            Box::new(lets_in(f.lets, tuple(vec![vf, state_expr(else_next)]))),
        );
        Ok(Code::Step(fun(state_pat(&ins), lets_in(seq.lets, body))))
    }

    /// `reset body every c`: the condition first, then the body, from a
    /// fresh copy of its initial state `s0` when `c` holds. A stateless
    /// body has nothing to restart, but `c` is still tested as a
    /// condition (forced when symbolic, an error when `nil`).
    fn c_reset(&mut self, body: &Expr, every: &Expr) -> Result<Code, LangError> {
        let mut seq = Seq::default();
        let code = self.c(every)?;
        let vc = self.sequence(&mut seq, code, false);
        match self.c(body)? {
            Code::Pure(v) => {
                let test = MufExpr::If(Box::new(vc), Box::new(unit()), Box::new(unit()));
                seq.lets.push((MufPat::Wildcard, test));
                Ok(seq.finish(v))
            }
            Code::Step(f) => {
                let (s0, s1) = (self.fresh("s"), self.fresh("s"));
                let (v, n) = (self.fresh("v"), self.fresh("s"));
                let restart = MufExpr::If(
                    Box::new(vc),
                    Box::new(MufExpr::Freshen(Box::new(var(&s0)))),
                    Box::new(var(&s1)),
                );
                seq.lets.push((
                    MufPat::pair(MufPat::var(&v), MufPat::var(&n)),
                    app(f, restart),
                ));
                // The body's state comes first, as A(·) allocates it.
                seq.outs.splice(0..0, [var(&s0), var(n)]);
                seq.ins.splice(0..0, [s0, s1]);
                Ok(seq.finish(var(v)))
            }
        }
    }

    /// The per-tick prelude transition of an optimized `infer` site:
    /// `fun (sa, sp) -> let (va, na) = C(arg)(sa) in
    ///                  let (vp, np) = prelude_step (sp, va) in
    ///                  ((va, vp), (na, np))` —
    /// advances the site argument and the hoisted equations once on the
    /// coordinator, yielding the broadcast value `(va, vp)`. A stateless
    /// argument has no `sa`.
    fn prelude_transition(&mut self, plan: &HoistPlan, arg: &Expr) -> Result<MufExpr, LangError> {
        let mut seq = Seq::default();
        let code = self.c(arg)?;
        let va = self.sequence(&mut seq, code, true);
        let (vp, pre) = (self.fresh("v"), var(step_name(&plan.prelude_node)));
        let arg = va.clone();
        self.step_into(&mut seq, MufPat::var(&vp), |s| {
            app(pre, tuple(vec![s, arg]))
        });
        Ok(seq.finish_step(tuple(vec![va, var(vp)])))
    }

    /// The wrap function of an embedded optimized site: maps this tick's
    /// broadcast prelude output to the per-particle transition closure,
    /// `fun hv -> fun s -> main_step (s, hv)`.
    fn wrap_embedded(&mut self, plan: &HoistPlan) -> MufExpr {
        let (hv, s) = (self.fresh("v"), self.fresh("s"));
        fun(
            MufPat::var(&hv),
            fun(
                MufPat::var(&s),
                app(
                    var(step_name(&plan.main_node)),
                    tuple(vec![var(&s), var(&hv)]),
                ),
            ),
        )
    }

    /// `body where rec eqs`: its state holds the memories of the
    /// initialized variables, then the states of the equations and of the
    /// body that have one.
    fn c_where(&mut self, body: &Expr, eqs: &[Eq]) -> Result<Code, LangError> {
        let (inits, defs) = normalize_where(eqs)?;
        let mut seq = Seq::default();
        for (x, _) in &inits {
            let m = self.fresh("m");
            seq.lets.push((MufPat::var(last_var(x)), var(&m)));
            seq.ins.push(m);
            seq.outs.push(var(x.clone()));
        }
        for (name, expr) in &defs {
            match self.c(expr)? {
                Code::Pure(v) => seq.lets.push((MufPat::var(name.clone()), v)),
                Code::Step(f) => self.step_into(&mut seq, MufPat::var(name.clone()), |s| app(f, s)),
            }
        }
        let code = self.c(body)?;
        let value = self.sequence(&mut seq, code, false);
        Ok(seq.finish(value))
    }

    /// A(·) (Fig. 21): the initial state of an expression, `None` for a
    /// stateless one. Parts allocate in evaluation order, so nested
    /// engines draw their seeds in the same order as under Fig. 21.
    fn a(&mut self, e: &Expr) -> Result<Option<MufExpr>, LangError> {
        let parts = match e {
            Expr::At(inner, _) => return self.a(inner),
            Expr::Const(_) | Expr::Var(_) | Expr::Last(_) => vec![],
            Expr::Pair(e1, e2) => vec![self.a(e1)?, self.a(e2)?],
            Expr::Op(_, args) => args.iter().map(|a| self.a(a)).collect::<Result<_, _>>()?,
            Expr::App(f, arg) => {
                let node = (!self.stateless.contains(f)).then(|| app(var(init_name(f)), unit()));
                vec![self.a(arg)?, node]
            }
            Expr::Where { body, eqs } => {
                let (inits, defs) = normalize_where(eqs)?;
                let mut parts: Vec<Option<MufExpr>> = inits
                    .iter()
                    .map(|(_, c)| Some(MufExpr::Const(c.clone())))
                    .collect();
                for (_, e) in &defs {
                    parts.push(self.a(e)?);
                }
                parts.push(self.a(body)?);
                parts
            }
            Expr::If { cond, then, els } | Expr::Present { cond, then, els } => {
                vec![self.a(cond)?, self.a(then)?, self.a(els)?]
            }
            Expr::Reset { body, every } => vec![self.a(body)?, self.a(body)?, self.a(every)?],
            Expr::Sample(x) | Expr::Factor(x) | Expr::ValueOp(x) => vec![self.a(x)?],
            Expr::Observe(d, o) => vec![self.a(d)?, self.a(o)?],
            Expr::Infer {
                particles,
                node,
                arg,
            } => {
                let plans = self.plans;
                let engine = if let Some(plan) = plans.get(node) {
                    // Prelude state first so nested engine allocations in
                    // `A(arg)` draw seeds in the same order as the
                    // unoptimized `(A(arg), f_init ())` form.
                    let pre_init = app(var(init_name(&plan.prelude_node)), unit());
                    let pre_state = state_alloc(vec![self.a(arg)?, Some(pre_init)]);
                    let pre = self.prelude_transition(plan, arg)?;
                    MufExpr::EngineInit {
                        particles: *particles,
                        init: Box::new(app(var(init_name(&plan.main_node)), unit())),
                        body: Box::new(self.wrap_embedded(plan)),
                        prelude: Some(Box::new(tuple(vec![pre_state.unwrap_or_else(unit), pre]))),
                    }
                } else {
                    let inner_app = Expr::App(node.clone(), arg.clone());
                    MufExpr::EngineInit {
                        particles: *particles,
                        init: Box::new(self.a(&inner_app)?.unwrap_or_else(unit)),
                        body: Box::new(self.transition(&inner_app)?),
                        prelude: None,
                    }
                };
                return Ok(Some(engine));
            }
            Expr::Arrow(_, _) | Expr::Pre(_) | Expr::Fby(_, _) => return Err(derived_form()),
        };
        Ok(state_alloc(parts))
    }
}

fn derived_form() -> LangError {
    LangError::new(
        Stage::Compile,
        "derived form reached the compiler; desugar first",
    )
}

fn pattern_to_pat(p: &Pattern) -> MufPat {
    match p {
        Pattern::Var(x) => MufPat::var(x),
        Pattern::Unit => MufPat::Unit,
        Pattern::Pair(a, b) => MufPat::pair(pattern_to_pat(a), pattern_to_pat(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{ExecBackend, Interp, Options, ProbSlot};
    use crate::muf::MufValue;
    use crate::parser::parse_program;
    use crate::schedule::schedule_program;
    use crate::transform::desugar_program;
    use probzelus_core::{Method, Value};

    fn compile(src: &str) -> Result<MufProgram, LangError> {
        let p = parse_program(src).unwrap();
        let p = desugar_program(&p);
        let p = schedule_program(&p).unwrap();
        compile_program(&p)
    }

    #[test]
    fn produces_step_and_init_per_node() {
        let m = compile("let node f x = x + 1.").unwrap();
        let names: Vec<&str> = m.defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["f_step", "f_init"]);
        assert!(matches!(m.defs[0].expr, MufExpr::Fun(_, _)));
        assert!(matches!(m.defs[1].expr, MufExpr::Fun(_, _)));
    }

    #[test]
    fn rejects_sugared_programs() {
        let p = parse_program("let node f x = 0. -> x").unwrap();
        assert!(compile_program(&p).is_err());
    }

    #[test]
    fn missing_definition_for_init_gets_last_equation() {
        let (inits, defs) = normalize_where(&[Eq::Init {
            name: "x".into(),
            value: Const::Float(0.0),
        }])
        .unwrap();
        assert_eq!(inits.len(), 1);
        assert_eq!(defs.len(), 1);
        assert!(matches!(&defs[0].1, Expr::Last(x) if x == "x"));
    }

    #[test]
    fn duplicate_definitions_rejected() {
        let err = compile("let node f x = y where rec y = x and y = x").unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    /// The leaves of a node's initial state, from its compiled `_init`.
    fn init_leaves(m: &MufProgram, node: &str) -> Vec<MufValue> {
        fn go(v: MufValue, out: &mut Vec<MufValue>) {
            match v {
                MufValue::Tuple(xs) => xs.into_iter().for_each(|x| go(x, out)),
                leaf => out.push(leaf),
            }
        }
        let options = Options {
            method: Method::StreamingDs,
            seed: 0,
            backend: ExecBackend::Interp,
        };
        let interp = Interp::new(m, options).unwrap();
        let init = interp.global(&init_name(node)).unwrap();
        let state = interp
            .apply(&init, MufValue::unit(), &mut ProbSlot::Det)
            .unwrap();
        let mut out = Vec::new();
        go(state, &mut out);
        out
    }

    fn is_unit(v: &MufValue) -> bool {
        matches!(v, MufValue::V(Value::Unit))
    }

    /// Constants, variables and `last` reads get no state: a stateless
    /// node's whole state is `()`, and a node applying it keeps only its
    /// own memory.
    #[test]
    fn stateless_expressions_allocate_no_state() {
        let m = compile(
            r#"
            let node g x = if x > 0. then x * 2. else fst (x, 1.)
            let node f x = y where
              rec init m = 0.
              and y = g(x) + last m
              and m = y
            "#,
        )
        .unwrap();
        assert!(matches!(&init_leaves(&m, "g")[..], [u] if is_unit(u)));
        assert!(matches!(
            &init_leaves(&m, "f")[..],
            [MufValue::V(Value::Float(z))] if *z == 0.0
        ));
    }

    /// The optimized particle states the benchmarks clone hold only live
    /// state: hmm's residual node keeps the `nil` memory of `pre x`, and
    /// the robot tracker its nine memories and `->` flags.
    #[test]
    fn optimized_particle_states_hold_only_live_leaves() {
        for (src, node, n) in [
            (
                include_str!("../../../examples/zelus/hmm.zl"),
                "hmm#main",
                1,
            ),
            (
                include_str!("../../../examples/zelus/robot.zl"),
                "gps_acc_tracker",
                9,
            ),
        ] {
            let compiled = crate::pipeline::compile_source_opt(src).unwrap();
            let leaves = init_leaves(&compiled.muf, node);
            assert_eq!(leaves.len(), n, "{node}: state leaves");
            assert!(!leaves.iter().any(is_unit), "{node}: a `()` leaf");
        }
    }

    #[test]
    fn infer_compiles_to_engine_forms() {
        let m = compile(
            r#"
            let node m y = sample(gaussian(y, 1.))
            let node main y = infer 10 m y
            "#,
        )
        .unwrap();
        fn contains_infer(e: &MufExpr) -> bool {
            match e {
                MufExpr::Infer { .. } => true,
                MufExpr::Fun(_, b) => contains_infer(b),
                MufExpr::App(a, b) => contains_infer(a) || contains_infer(b),
                MufExpr::Let(_, a, b) => contains_infer(a) || contains_infer(b),
                MufExpr::Tuple(xs) => xs.iter().any(contains_infer),
                _ => false,
            }
        }
        fn contains_engine_init(e: &MufExpr) -> bool {
            match e {
                MufExpr::EngineInit { .. } => true,
                MufExpr::Fun(_, b) => contains_engine_init(b),
                MufExpr::Tuple(xs) => xs.iter().any(contains_engine_init),
                MufExpr::App(a, b) => contains_engine_init(a) || contains_engine_init(b),
                _ => false,
            }
        }
        let main_step = &m.defs.iter().find(|d| d.name == "main_step").unwrap().expr;
        let main_init = &m.defs.iter().find(|d| d.name == "main_init").unwrap().expr;
        assert!(contains_infer(main_step));
        assert!(contains_engine_init(main_init));
    }
}
