//! The optimizing µF pass pipeline (DESIGN.md §2.12).
//!
//! Runs on the scheduled kernel, after every checking pass has accepted
//! the program, and is driven by the effect analysis
//! ([`crate::analysis::effects`]):
//!
//! 1. **Constant propagation & folding** — strict deterministic operators
//!    over literals are evaluated at compile time with the runtime's own
//!    value operators, so folded floats are bit-identical to evaluation;
//!    `if` on a constant condition selects its branch when the dead
//!    branch is effect-free.
//! 2. **Dead-stream elimination** — the transform counterpart of lint
//!    PZ0601: equations read by nothing are deleted, *except* anything
//!    that can reach `sample`/`observe`/`factor` or allocate an engine
//!    (deleting those would change posteriors or the engine seed order).
//! 3. **Common-subexpression elimination** — pure stateless operator
//!    trees computed more than once in an equation set are factored into
//!    a fresh equation.
//!
//! Every pass reports what it did through spanned [`Diagnostic`]s
//! (PZ0604–PZ0606), surfaced by `pzc opt`. Correctness is pinned by the
//! differential oracle in `tests/opt_equiv.rs`: optimized and unoptimized
//! programs must produce bit-identical posteriors under every method.

use crate::analysis::effects::{self, Effect, Summaries};
use crate::ast::{Const, Eq, Expr, NodeDecl, OpName, Program};
use crate::diag::{Code, Diagnostic};
use crate::error::LangError;
use crate::schedule::schedule_program;
use probzelus_core::ops as vops;
use probzelus_core::value::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Optimizer configuration. It has no settings: every pass (constant
/// folding, dead-stream elimination, CSE) always runs. The type stays so
/// the signatures of [`optimize_program`] and `optimize_source` do not
/// change for their callers, who build it with `OptConfig::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct OptConfig {}

/// No settings and no content. The optimizer no longer splits nodes, so
/// [`OptReport::plans`] is always empty; the type stays only because the
/// benchmark (`crates/bench/src/bin/rpbench/`) names
/// `compile_program_with(&kernel, &report.plans)` and `Compiled { .., plans }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct HoistPlan {}

/// What the optimizer did: diagnostics for `pzc opt` and pass counters.
#[derive(Debug, Clone, Default)]
pub struct OptReport {
    /// Spanned PZ0604/PZ0605/PZ0606 diagnostics.
    pub diagnostics: Vec<Diagnostic>,
    /// Always empty (see [`HoistPlan`]).
    pub plans: HashMap<String, HoistPlan>,
    /// Equations folded to a constant.
    pub folded: usize,
    /// Dead equations removed.
    pub removed: usize,
    /// Common subexpressions factored out.
    pub cse: usize,
}

impl OptReport {
    /// Total number of rewrites across all passes.
    pub fn total(&self) -> usize {
        self.folded + self.removed + self.cse
    }
}

/// Optimizes a scheduled kernel program. Returns the rewritten program
/// (re-scheduled) and the report. The input must already be in kernel
/// form; nodes are never removed or renamed, so `infer` sites and node
/// applications stay valid.
pub fn optimize_program(p: &Program, _cfg: &OptConfig) -> Result<(Program, OptReport), LangError> {
    let mut report = OptReport::default();
    let base = effects::analyze_program(p);
    let mut fresh = FreshCse::scan(p);
    let nodes = p
        .nodes
        .iter()
        .map(|n| NodeDecl {
            name: n.name.clone(),
            param: n.param.clone(),
            body: rewrite(&n.body, base.summaries(), &mut report, &mut fresh),
        })
        .collect();
    Ok((schedule_program(&Program { nodes })?, report))
}

// ---------------------------------------------------------------------
// Constant folding, dead-stream elimination, CSE (per equation set)
// ---------------------------------------------------------------------

/// Fresh `_cseN` names, starting above anything already in the program.
struct FreshCse(u32);

impl FreshCse {
    fn scan(p: &Program) -> FreshCse {
        let mut max = 0;
        for node in &p.nodes {
            crate::analysis::each_eq(&node.body, &mut |eq| {
                if let Eq::Def { name, .. } = eq {
                    if let Some(n) = name.strip_prefix("_cse").and_then(|s| s.parse().ok()) {
                        max = u32::max(max, n);
                    }
                }
            });
        }
        FreshCse(max)
    }

    fn next(&mut self) -> String {
        self.0 += 1;
        format!("_cse{}", self.0)
    }
}

/// Bottom-up rewrite: children first, then expression-level folding,
/// then the block-level passes on every equation set encountered.
fn rewrite(e: &Expr, s: Summaries<'_>, report: &mut OptReport, fresh: &mut FreshCse) -> Expr {
    let rewritten = match e {
        Expr::At(inner, p) => Expr::at(rewrite(inner, s, report, fresh), *p),
        Expr::Const(_) | Expr::Var(_) | Expr::Last(_) => e.clone(),
        Expr::Pair(a, b) => Expr::pair(rewrite(a, s, report, fresh), rewrite(b, s, report, fresh)),
        Expr::Op(op, args) => Expr::Op(
            *op,
            args.iter().map(|a| rewrite(a, s, report, fresh)).collect(),
        ),
        Expr::App(f, arg) => Expr::App(f.clone(), Box::new(rewrite(arg, s, report, fresh))),
        Expr::Where { body, eqs } => {
            // Snapshot which right-hand sides were literals *before*
            // rewriting, so folding reports only real reductions.
            let was_const: HashSet<String> = eqs
                .iter()
                .filter_map(|eq| match eq {
                    Eq::Def { name, expr } if as_const(expr).is_some() => Some(name.clone()),
                    _ => None,
                })
                .collect();
            let eqs: Vec<Eq> = eqs
                .iter()
                .map(|eq| match eq {
                    Eq::Def { name, expr } => Eq::Def {
                        name: name.clone(),
                        expr: rewrite(expr, s, report, fresh),
                    },
                    other => other.clone(),
                })
                .collect();
            let body = rewrite(body, s, report, fresh);
            return optimize_block(body, eqs, was_const, s, report, fresh);
        }
        Expr::Present { cond, then, els } => Expr::Present {
            cond: Box::new(rewrite(cond, s, report, fresh)),
            then: Box::new(rewrite(then, s, report, fresh)),
            els: Box::new(rewrite(els, s, report, fresh)),
        },
        Expr::Reset { body, every } => Expr::Reset {
            body: Box::new(rewrite(body, s, report, fresh)),
            every: Box::new(rewrite(every, s, report, fresh)),
        },
        Expr::If { cond, then, els } => Expr::If {
            cond: Box::new(rewrite(cond, s, report, fresh)),
            then: Box::new(rewrite(then, s, report, fresh)),
            els: Box::new(rewrite(els, s, report, fresh)),
        },
        Expr::Sample(d) => Expr::Sample(Box::new(rewrite(d, s, report, fresh))),
        Expr::Observe(d, v) => Expr::Observe(
            Box::new(rewrite(d, s, report, fresh)),
            Box::new(rewrite(v, s, report, fresh)),
        ),
        Expr::Factor(w) => Expr::Factor(Box::new(rewrite(w, s, report, fresh))),
        Expr::ValueOp(x) => Expr::ValueOp(Box::new(rewrite(x, s, report, fresh))),
        Expr::Infer {
            particles,
            node,
            arg,
        } => Expr::Infer {
            particles: *particles,
            node: node.clone(),
            arg: Box::new(rewrite(arg, s, report, fresh)),
        },
        // Derived forms never reach the optimizer (it runs on the
        // kernel); passed through untouched for safety.
        Expr::Arrow(..) | Expr::Pre(..) | Expr::Fby(..) => e.clone(),
    };
    fold_here(&rewritten, s)
}

/// Tries to fold a single expression whose children are already
/// rewritten. Only strict deterministic operators over literals fold,
/// evaluated with the runtime's own [`vops`] so results are
/// bit-identical; anything that would error at run time stays unfolded
/// to preserve the error.
fn fold_here(e: &Expr, s: Summaries<'_>) -> Expr {
    match e {
        Expr::Op(op, args) if foldable_op(*op) => {
            let consts: Option<Vec<Const>> = args.iter().map(as_const).collect();
            let Some(consts) = consts else {
                return e.clone();
            };
            // Nil poison: strict operators propagate `nil` (eval_op).
            if consts.iter().any(|c| matches!(c, Const::Nil)) {
                return Expr::Const(Const::Nil);
            }
            let vals: Vec<Value> = consts.iter().map(const_to_value).collect();
            match fold_op(*op, &vals) {
                Some(v) => value_to_const(&v)
                    .map(Expr::Const)
                    .unwrap_or_else(|| e.clone()),
                None => e.clone(),
            }
        }
        // `fst`/`snd` of a literal pair: drop the other component only
        // when it is pure (no effect may be discarded).
        Expr::Op(op @ (OpName::Fst | OpName::Snd), args) if args.len() == 1 => {
            if let Expr::Pair(a, b) = args[0].peel() {
                let (keep, drop) = match op {
                    OpName::Fst => (a, b),
                    _ => (b, a),
                };
                if effects::effect_of(drop, s) == Effect::Pure {
                    return (**keep).clone();
                }
            }
            e.clone()
        }
        // A constant condition selects its branch; the dead branch may
        // only be discarded when doing so cannot change posteriors or
        // seed order.
        Expr::If { cond, then, els } => match as_const(cond) {
            Some(Const::Bool(b)) => {
                let (live, dead) = if b { (then, els) } else { (els, then) };
                if effects::effect_of(dead, s) <= Effect::Det && !effects::uses_engine(dead, s) {
                    (**live).clone()
                } else {
                    e.clone()
                }
            }
            Some(Const::Nil) => e.clone(), // nil condition errors at run time
            _ => e.clone(),
        },
        _ => e.clone(),
    }
}

/// Strict deterministic operators safe to evaluate at compile time.
fn foldable_op(op: OpName) -> bool {
    use OpName::*;
    matches!(
        op,
        Add | Sub
            | Mul
            | Div
            | Neg
            | Lt
            | Le
            | Gt
            | Ge
            | Eq
            | Ne
            | And
            | Or
            | Not
            | Exp
            | Log
            | Sqrt
            | Abs
            | Min
            | Max
            | FloatOfInt
    )
}

/// Mirrors the foldable arm of the interpreter's `core_op` dispatch.
fn fold_op(op: OpName, v: &[Value]) -> Option<Value> {
    use OpName::*;
    let r = match op {
        Add => vops::add(&v[0], &v[1]),
        Sub => vops::sub(&v[0], &v[1]),
        Mul => vops::mul(&v[0], &v[1]),
        Div => vops::div(&v[0], &v[1]),
        Neg => vops::neg(&v[0]),
        Lt => vops::lt(&v[0], &v[1]),
        Le => vops::le(&v[0], &v[1]),
        Gt => vops::gt(&v[0], &v[1]),
        Ge => vops::ge(&v[0], &v[1]),
        Eq => vops::eq(&v[0], &v[1]),
        Ne => vops::eq(&v[0], &v[1]).and_then(|x| vops::not(&x)),
        And => vops::and(&v[0], &v[1]),
        Or => vops::or(&v[0], &v[1]),
        Not => vops::not(&v[0]),
        Exp => vops::float_fn(&v[0], f64::exp),
        Log => vops::float_fn(&v[0], f64::ln),
        Sqrt => vops::float_fn(&v[0], f64::sqrt),
        Abs => vops::float_fn(&v[0], f64::abs),
        Min => vops::float_fn2(&v[0], &v[1], f64::min),
        Max => vops::float_fn2(&v[0], &v[1], f64::max),
        FloatOfInt => v[0].as_int().map(|n| Value::Float(n as f64)),
        _ => return None,
    };
    r.ok()
}

fn as_const(e: &Expr) -> Option<Const> {
    match e.peel() {
        Expr::Const(c) => Some(c.clone()),
        _ => None,
    }
}

fn const_to_value(c: &Const) -> Value {
    match c {
        Const::Unit => Value::Unit,
        Const::Bool(b) => Value::Bool(*b),
        Const::Int(n) => Value::Int(*n),
        Const::Float(x) => Value::Float(*x),
        Const::Nil => Value::Unit, // filtered out before reaching here
    }
}

fn value_to_const(v: &Value) -> Option<Const> {
    match v {
        Value::Unit => Some(Const::Unit),
        Value::Bool(b) => Some(Const::Bool(*b)),
        Value::Int(n) => Some(Const::Int(*n)),
        Value::Float(x) => Some(Const::Float(*x)),
        _ => None,
    }
}

/// Block-level passes over one (already child-rewritten) equation set:
/// constant propagation to fixpoint, dead-stream elimination, CSE.
fn optimize_block(
    body: Expr,
    eqs: Vec<Eq>,
    was_const: HashSet<String>,
    s: Summaries<'_>,
    report: &mut OptReport,
    fresh: &mut FreshCse,
) -> Expr {
    // Automaton equations are expanded long before this pass; a block
    // still carrying one is left untouched.
    if eqs.iter().any(|eq| matches!(eq, Eq::Automaton { .. })) {
        return Expr::Where {
            body: Box::new(body),
            eqs,
        };
    }
    let mut body = body;
    let mut eqs = eqs;

    propagate_constants(&mut body, &mut eqs, s);
    // Report equations that the fold/prop rounds reduced to literals.
    for eq in &eqs {
        if let Eq::Def { name, expr } = eq {
            if as_const(expr).is_some() && !was_const.contains(name) {
                report.folded += 1;
                report.diagnostics.push(
                    Diagnostic::lint(
                        Code::OPT_CONST_FOLD,
                        format!("`{name}` folds to the constant `{}`", print_const(expr)),
                    )
                    .with_pos(expr.span()),
                );
            }
        }
    }
    eliminate_dead_streams(&body, &mut eqs, s, report);
    factor_common_subexpressions(&mut body, &mut eqs, fresh, report);
    if eqs.is_empty() {
        body
    } else {
        Expr::Where {
            body: Box::new(body),
            eqs,
        }
    }
}

fn print_const(e: &Expr) -> String {
    match e.peel() {
        Expr::Const(c) => format!("{c}"),
        _ => String::new(),
    }
}

/// Substitutes constant definitions into their readers and re-folds, to
/// fixpoint. A definition `x = c` only propagates when `x` has no
/// `init` and is never read through `last` (both would read state, not
/// the constant).
fn propagate_constants(body: &mut Expr, eqs: &mut [Eq], s: Summaries<'_>) {
    for _ in 0..8 {
        let inits: HashSet<&str> = eqs
            .iter()
            .filter_map(|eq| match eq {
                Eq::Init { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        let mut last_read: BTreeSet<String> = BTreeSet::new();
        for eq in eqs.iter() {
            if let Eq::Def { expr, .. } = eq {
                last_read.extend(effects::last_reads(expr));
            }
        }
        last_read.extend(effects::last_reads(body));
        let consts: BTreeMap<String, Const> = eqs
            .iter()
            .filter_map(|eq| match eq {
                Eq::Def { name, expr }
                    if !inits.contains(name.as_str()) && !last_read.contains(name) =>
                {
                    as_const(expr).map(|c| (name.clone(), c))
                }
                _ => None,
            })
            .collect();
        if consts.is_empty() {
            return;
        }
        let mut changed = false;
        for eq in eqs.iter_mut() {
            if let Eq::Def { name, expr } = eq {
                if consts.contains_key(name) {
                    continue; // already a literal
                }
                let new = subst_consts(expr, &consts, s);
                if new != *expr {
                    *expr = new;
                    changed = true;
                }
            }
        }
        let new_body = subst_consts(body, &consts, s);
        if new_body != *body {
            *body = new_body;
            changed = true;
        }
        if !changed {
            return;
        }
    }
}

/// Replaces reads of constant streams with their literal and re-folds
/// on the way out. Does not descend into nested `where` blocks that
/// rebind a substituted name.
fn subst_consts(e: &Expr, consts: &BTreeMap<String, Const>, s: Summaries<'_>) -> Expr {
    if consts.is_empty() {
        return e.clone();
    }
    let rebuilt = match e {
        Expr::Var(x) => match consts.get(x) {
            Some(c) => Expr::Const(c.clone()),
            None => e.clone(),
        },
        Expr::At(inner, p) => Expr::at(subst_consts(inner, consts, s), *p),
        Expr::Const(_) | Expr::Last(_) => e.clone(),
        Expr::Pair(a, b) => Expr::pair(subst_consts(a, consts, s), subst_consts(b, consts, s)),
        Expr::Op(op, args) => Expr::Op(
            *op,
            args.iter().map(|a| subst_consts(a, consts, s)).collect(),
        ),
        Expr::App(f, arg) => Expr::App(f.clone(), Box::new(subst_consts(arg, consts, s))),
        Expr::Where { body, eqs } => {
            // Shadowing: drop rebound names from the substitution.
            let bound: HashSet<&str> = eqs
                .iter()
                .filter_map(|eq| match eq {
                    Eq::Def { name, .. } | Eq::Init { name, .. } => Some(name.as_str()),
                    Eq::Automaton { .. } => None,
                })
                .collect();
            let narrowed: BTreeMap<String, Const> = consts
                .iter()
                .filter(|(k, _)| !bound.contains(k.as_str()))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            Expr::Where {
                body: Box::new(subst_consts(body, &narrowed, s)),
                eqs: eqs
                    .iter()
                    .map(|eq| match eq {
                        Eq::Def { name, expr } => Eq::Def {
                            name: name.clone(),
                            expr: subst_consts(expr, &narrowed, s),
                        },
                        other => other.clone(),
                    })
                    .collect(),
            }
        }
        Expr::Present { cond, then, els } => Expr::Present {
            cond: Box::new(subst_consts(cond, consts, s)),
            then: Box::new(subst_consts(then, consts, s)),
            els: Box::new(subst_consts(els, consts, s)),
        },
        Expr::Reset { body, every } => Expr::Reset {
            body: Box::new(subst_consts(body, consts, s)),
            every: Box::new(subst_consts(every, consts, s)),
        },
        Expr::If { cond, then, els } => Expr::If {
            cond: Box::new(subst_consts(cond, consts, s)),
            then: Box::new(subst_consts(then, consts, s)),
            els: Box::new(subst_consts(els, consts, s)),
        },
        Expr::Sample(d) => Expr::Sample(Box::new(subst_consts(d, consts, s))),
        Expr::Observe(d, v) => Expr::Observe(
            Box::new(subst_consts(d, consts, s)),
            Box::new(subst_consts(v, consts, s)),
        ),
        Expr::Factor(w) => Expr::Factor(Box::new(subst_consts(w, consts, s))),
        Expr::ValueOp(x) => Expr::ValueOp(Box::new(subst_consts(x, consts, s))),
        Expr::Infer {
            particles,
            node,
            arg,
        } => Expr::Infer {
            particles: *particles,
            node: node.clone(),
            arg: Box::new(subst_consts(arg, consts, s)),
        },
        Expr::Arrow(..) | Expr::Pre(..) | Expr::Fby(..) => e.clone(),
    };
    fold_here(&rebuilt, s)
}

/// Removes equations whose stream is read by nothing (not by another
/// equation, not by the body), iterating until stable. Only effect-free
/// equations go: anything ≥ `Prob` or allocating an engine stays, so
/// posteriors and seed order cannot change.
fn eliminate_dead_streams(
    body: &Expr,
    eqs: &mut Vec<Eq>,
    s: Summaries<'_>,
    report: &mut OptReport,
) {
    loop {
        let mut read: HashSet<String> = HashSet::new();
        let mut reads = Vec::new();
        crate::analysis::collect_reads(body, &mut reads);
        read.extend(reads);
        for eq in eqs.iter() {
            if let Eq::Def { name, expr } = eq {
                let mut reads = Vec::new();
                crate::analysis::collect_reads(expr, &mut reads);
                // Self-reads (e.g. `x = last x + 1`) keep nothing alive.
                read.extend(reads.into_iter().filter(|r| r != name));
            }
        }
        let dead: Vec<(String, Option<crate::error::Pos>)> = eqs
            .iter()
            .filter_map(|eq| match eq {
                Eq::Def { name, expr }
                    if !read.contains(name)
                        && effects::effect_of(expr, s) <= Effect::Det
                        && !effects::uses_engine(expr, s) =>
                {
                    Some((name.clone(), expr.span()))
                }
                Eq::Init { name, .. }
                    if !read.contains(name)
                        && !eqs
                            .iter()
                            .any(|q| matches!(q, Eq::Def { name: d, .. } if d == name)) =>
                {
                    Some((name.clone(), None))
                }
                _ => None,
            })
            .collect();
        if dead.is_empty() {
            return;
        }
        for (name, pos) in &dead {
            report.removed += 1;
            report.diagnostics.push(
                Diagnostic::lint(
                    Code::OPT_DEAD_STREAM,
                    format!("dead stream `{name}` removed (read by nothing)"),
                )
                .with_pos(*pos),
            );
        }
        let dead_names: HashSet<String> = dead.into_iter().map(|(n, _)| n).collect();
        eqs.retain(|eq| match eq {
            Eq::Def { name, .. } | Eq::Init { name, .. } => !dead_names.contains(name),
            Eq::Automaton { .. } => true,
        });
    }
}

// ---------------------------------------------------------------------
// Common-subexpression elimination
// ---------------------------------------------------------------------

/// Is the expression a pure stateless operator tree (safe to compute
/// once and share)? Leaves are constants, stream reads, and `last`
/// reads; interior nodes are strict deterministic operators and `if`.
fn pure_tree(e: &Expr) -> bool {
    match e.peel() {
        Expr::Const(_) | Expr::Var(_) | Expr::Last(_) => true,
        Expr::Op(OpName::DrawDist, _) => false,
        Expr::Op(_, args) => args.iter().all(pure_tree),
        Expr::Pair(a, b) => pure_tree(a) && pure_tree(b),
        Expr::If { cond, then, els } => pure_tree(cond) && pure_tree(then) && pure_tree(els),
        _ => false,
    }
}

/// Number of interior nodes: a tree must be big enough to be worth a
/// fresh stream.
fn tree_size(e: &Expr) -> usize {
    match e.peel() {
        Expr::Const(_) | Expr::Var(_) | Expr::Last(_) => 0,
        Expr::Op(_, args) => 1 + args.iter().map(tree_size).sum::<usize>(),
        Expr::Pair(a, b) => 1 + tree_size(a) + tree_size(b),
        Expr::If { cond, then, els } => 1 + tree_size(cond) + tree_size(then) + tree_size(els),
        _ => 0,
    }
}

/// Visits maximal pure subtrees in strict evaluation positions only —
/// never inside `present` branches, `reset` bodies, nested `where`
/// blocks, or `infer` arguments (their evaluation context differs from
/// the equation set's).
fn each_strict_pure<'e>(e: &'e Expr, f: &mut impl FnMut(&'e Expr)) {
    if pure_tree(e) {
        if tree_size(e) >= 2 {
            f(e);
        }
        return;
    }
    match e {
        Expr::At(inner, _) => each_strict_pure(inner, f),
        Expr::Const(_) | Expr::Var(_) | Expr::Last(_) => {}
        Expr::Pair(a, b) | Expr::Observe(a, b) => {
            each_strict_pure(a, f);
            each_strict_pure(b, f);
        }
        Expr::Op(_, args) => {
            for a in args {
                each_strict_pure(a, f);
            }
        }
        Expr::App(_, arg) => each_strict_pure(arg, f),
        Expr::Sample(x) | Expr::Factor(x) | Expr::ValueOp(x) => each_strict_pure(x, f),
        Expr::If { cond, then, els } => {
            each_strict_pure(cond, f);
            each_strict_pure(then, f);
            each_strict_pure(els, f);
        }
        Expr::Present { cond, .. } => each_strict_pure(cond, f),
        Expr::Reset { every, .. } => each_strict_pure(every, f),
        Expr::Where { .. } | Expr::Infer { .. } => {}
        Expr::Arrow(..) | Expr::Pre(..) | Expr::Fby(..) => {}
    }
}

/// Replaces every strict occurrence of `target` (modulo spans) with a
/// variable read.
fn replace_strict(e: &Expr, target: &Expr, var: &str) -> Expr {
    if pure_tree(e) {
        if e.strip_spans() == *target {
            return Expr::Var(var.to_string());
        }
        // Smaller pure trees may still contain the target only if the
        // target is a subtree; pure trees are traversed structurally.
        return match e {
            Expr::At(inner, p) => Expr::at(replace_strict(inner, target, var), *p),
            Expr::Op(op, args) => Expr::Op(
                *op,
                args.iter()
                    .map(|a| replace_strict(a, target, var))
                    .collect(),
            ),
            Expr::Pair(a, b) => Expr::pair(
                replace_strict(a, target, var),
                replace_strict(b, target, var),
            ),
            Expr::If { cond, then, els } => Expr::If {
                cond: Box::new(replace_strict(cond, target, var)),
                then: Box::new(replace_strict(then, target, var)),
                els: Box::new(replace_strict(els, target, var)),
            },
            _ => e.clone(),
        };
    }
    match e {
        Expr::At(inner, p) => Expr::at(replace_strict(inner, target, var), *p),
        Expr::Const(_) | Expr::Var(_) | Expr::Last(_) => e.clone(),
        Expr::Pair(a, b) => Expr::pair(
            replace_strict(a, target, var),
            replace_strict(b, target, var),
        ),
        Expr::Op(op, args) => Expr::Op(
            *op,
            args.iter()
                .map(|a| replace_strict(a, target, var))
                .collect(),
        ),
        Expr::App(f, arg) => Expr::App(f.clone(), Box::new(replace_strict(arg, target, var))),
        Expr::Sample(x) => Expr::Sample(Box::new(replace_strict(x, target, var))),
        Expr::Observe(a, b) => Expr::Observe(
            Box::new(replace_strict(a, target, var)),
            Box::new(replace_strict(b, target, var)),
        ),
        Expr::Factor(x) => Expr::Factor(Box::new(replace_strict(x, target, var))),
        Expr::ValueOp(x) => Expr::ValueOp(Box::new(replace_strict(x, target, var))),
        Expr::If { cond, then, els } => Expr::If {
            cond: Box::new(replace_strict(cond, target, var)),
            then: Box::new(replace_strict(then, target, var)),
            els: Box::new(replace_strict(els, target, var)),
        },
        Expr::Present { cond, then, els } => Expr::Present {
            cond: Box::new(replace_strict(cond, target, var)),
            then: then.clone(),
            els: els.clone(),
        },
        Expr::Reset { body, every } => Expr::Reset {
            body: body.clone(),
            every: Box::new(replace_strict(every, target, var)),
        },
        Expr::Where { .. } | Expr::Infer { .. } => e.clone(),
        Expr::Arrow(..) | Expr::Pre(..) | Expr::Fby(..) => e.clone(),
    }
}

/// Factors pure operator trees computed more than once into fresh
/// `_cseN` equations (one CSE round per block).
fn factor_common_subexpressions(
    body: &mut Expr,
    eqs: &mut Vec<Eq>,
    fresh: &mut FreshCse,
    report: &mut OptReport,
) {
    // Count candidate subtrees across the whole block (keyed modulo
    // spans, deterministic order of first sighting).
    let mut order: Vec<Expr> = Vec::new();
    let mut counts: HashMap<String, (usize, Option<crate::error::Pos>)> = HashMap::new();
    {
        let mut see = |e: &Expr| {
            let stripped = e.strip_spans();
            let key = format!("{stripped:?}");
            let entry = counts.entry(key).or_insert_with(|| {
                order.push(stripped);
                (0, e.span())
            });
            entry.0 += 1;
        };
        for eq in eqs.iter() {
            if let Eq::Def { expr, .. } = eq {
                each_strict_pure(expr, &mut see);
            }
        }
        each_strict_pure(body, &mut see);
    }
    let mut new_eqs: Vec<Eq> = Vec::new();
    // Largest trees first so a shared tree absorbs its shared subtrees.
    let mut shared: Vec<Expr> = order
        .into_iter()
        .filter(|e| counts[&format!("{e:?}")].0 >= 2)
        .collect();
    shared.sort_by_key(|e| std::cmp::Reverse(tree_size(e)));
    for target in shared {
        // Re-count after earlier replacements may have removed copies.
        let mut n = 0;
        {
            let mut see = |e: &Expr| {
                if e.strip_spans() == target {
                    n += 1;
                }
            };
            for eq in eqs.iter() {
                if let Eq::Def { expr, .. } = eq {
                    each_strict_pure(expr, &mut see);
                }
            }
            for eq in new_eqs.iter() {
                if let Eq::Def { expr, .. } = eq {
                    each_strict_pure(expr, &mut see);
                }
            }
            each_strict_pure(body, &mut see);
        }
        if n < 2 {
            continue;
        }
        let name = fresh.next();
        for eq in eqs.iter_mut().chain(new_eqs.iter_mut()) {
            if let Eq::Def { expr, .. } = eq {
                *expr = replace_strict(expr, &target, &name);
            }
        }
        *body = replace_strict(body, &target, &name);
        let pos = counts[&format!("{target:?}")].1;
        report.cse += 1;
        report.diagnostics.push(
            Diagnostic::lint(
                Code::OPT_CSE,
                format!("common subexpression computed {n} times factored into `{name}`"),
            )
            .with_pos(pos),
        );
        new_eqs.push(Eq::Def { name, expr: target });
    }
    eqs.extend(new_eqs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::transform::desugar_program;

    fn optimized(src: &str) -> (Program, OptReport) {
        let p = parse_program(src).unwrap();
        let kernel = schedule_program(&desugar_program(&p)).unwrap();
        optimize_program(&kernel, &OptConfig::default()).unwrap()
    }

    fn eq_expr<'p>(p: &'p Program, node: &str, name: &str) -> &'p Expr {
        let decl = p.node(node).unwrap();
        let Expr::Where { eqs, .. } = decl.body.peel() else {
            panic!("body is not a where: {:?}", decl.body)
        };
        eqs.iter()
            .find_map(|eq| match eq {
                Eq::Def { name: n, expr } if n == name => Some(expr),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no eq `{name}` in `{node}`"))
    }

    #[test]
    fn folds_arithmetic_to_a_bit_identical_literal() {
        // The whole node collapses: `x` folds to a literal, propagates
        // into the body, and the now-dead equation set disappears.
        let (p, r) = optimized("let node k u = x where rec x = 1. +. 2. *. 3.");
        assert_eq!(
            p.node("k").unwrap().body.peel(),
            &Expr::Const(Const::Float(1.0 + 2.0 * 3.0))
        );
        assert_eq!(r.folded, 1);
        assert!(r.diagnostics.iter().any(|d| d.code == Code::OPT_CONST_FOLD));
    }

    #[test]
    fn division_by_zero_stays_unfolded() {
        let (p, r) = optimized("let node k u = x where rec x = 1. /. 0.");
        assert!(matches!(eq_expr(&p, "k", "x").peel(), Expr::Op(..)));
        assert_eq!(r.folded, 0);
    }

    #[test]
    fn constants_propagate_and_the_source_stream_dies() {
        let (p, r) = optimized("let node k u = b where rec a = 2. and b = a *. 3.");
        assert_eq!(
            p.node("k").unwrap().body.peel(),
            &Expr::Const(Const::Float(6.0))
        );
        assert!(r.removed >= 1);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == Code::OPT_DEAD_STREAM));
    }

    #[test]
    fn effectful_equations_survive_dse() {
        let (p, _) = optimized(
            "let node f y = x where
               rec x = sample (gaussian (0., 1.))
               and dead = y *. 2.
               and () = observe (gaussian (x, 1.), y)",
        );
        let Expr::Where { eqs, .. } = p.node("f").unwrap().body.peel() else {
            panic!()
        };
        assert!(!eqs.iter().any(|e| e.name() == "dead"));
        // The observe equation is Prob: kept even though `_unit1` is
        // read by nothing.
        assert!(eqs.iter().any(|e| e.name().starts_with("_unit")), "{eqs:?}");
    }

    #[test]
    fn repeated_pure_trees_are_factored_once() {
        let (p, r) = optimized(
            "let node f y = a +. b where
               rec a = y *. y +. 1.
               and b = y *. y +. 1.",
        );
        let Expr::Where { eqs, .. } = p.node("f").unwrap().body.peel() else {
            panic!()
        };
        assert!(eqs.iter().any(|e| e.name().starts_with("_cse")), "{eqs:?}");
        assert_eq!(r.cse, 1);
        assert_eq!(eq_expr(&p, "f", "a").peel(), &Expr::Var("_cse1".into()));
        assert_eq!(eq_expr(&p, "f", "b").peel(), &Expr::Var("_cse1".into()));
    }
}
