//! µF: the first-order functional target language (Fig. 10), extended with
//! the engine-backed `infer` forms the compilation of §4 produces.
//!
//! µF values ([`MufValue`]) are a superset of the runtime [`Value`]s:
//! tuples (for the externalized transition states), closures, inference
//! engines (the σ state of a compiled `infer`), posteriors (the `T dist`
//! values the driver consumes), and the `nil` poison value of uninitialized
//! delays.

use crate::ast::{Const, OpName};
use crate::error::{LangError, Stage};
use probzelus_core::{Posterior, Value};
use std::cell::RefCell;
use std::rc::Rc;

/// µF expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum MufExpr {
    /// Constant.
    Const(Const),
    /// Variable.
    Var(String),
    /// Tuple (used both for data pairs and transition-state vectors).
    Tuple(Vec<MufExpr>),
    /// External operator.
    Op(OpName, Vec<MufExpr>),
    /// Lazy conditional (only the selected branch is evaluated); errors on
    /// an uninitialized condition — used for `present`.
    If(Box<MufExpr>, Box<MufExpr>, Box<MufExpr>),
    /// Strict value selection; propagates `nil` conditions as `nil` — used
    /// for the kernel's strict `if` after both branches were evaluated.
    Select(Box<MufExpr>, Box<MufExpr>, Box<MufExpr>),
    /// Application `e1 (e2)`.
    App(Box<MufExpr>, Box<MufExpr>),
    /// `let p = e1 in e2`.
    Let(MufPat, Box<MufExpr>, Box<MufExpr>),
    /// `fun p -> e`. The body is reference-counted so closure creation in
    /// the evaluator shares it instead of deep-cloning the expression tree
    /// (the old per-application clone dominated small-kernel profiles), and
    /// so the tape backend can use pointer identity to detect a transition
    /// closure changing shape between ticks.
    Fun(MufPat, Rc<MufExpr>),
    /// `sample(e)`.
    Sample(Box<MufExpr>),
    /// `observe(e1, e2)`.
    Observe(Box<MufExpr>, Box<MufExpr>),
    /// `factor(e)`.
    Factor(Box<MufExpr>),
    /// `value(e)` — force realization (§5.3).
    ValueOp(Box<MufExpr>),
    /// One `infer` step: `body` evaluates (under the current environment)
    /// to the transition closure, `state` to the engine; yields
    /// `(posterior, engine')` — the µF `infer(C(e), sigma)` of Fig. 20.
    Infer {
        /// Particle count (display only; the engine was sized at init).
        particles: usize,
        /// Transition-function expression.
        body: Box<MufExpr>,
        /// Engine-state expression.
        state: Box<MufExpr>,
    },
    /// Deep-copies the value of the inner expression. Used by the
    /// compilation of `reset`: the pristine initial state `s0` must stay
    /// pristine, but inference engines mutate in place, so restarting from
    /// `s0` hands out an independent copy.
    Freshen(Box<MufExpr>),
    /// Allocates a fresh engine whose particles start from `init` — the
    /// `A(infer ...)` initial state.
    EngineInit {
        /// Number of particles.
        particles: usize,
        /// Initial per-particle state expression.
        init: Box<MufExpr>,
        /// Transition-function expression (evaluated once at allocation so
        /// the engine can also be driven directly).
        body: Box<MufExpr>,
    },
}

/// µF patterns.
#[derive(Debug, Clone, PartialEq)]
pub enum MufPat {
    /// Variable binder.
    Var(String),
    /// Wildcard.
    Wildcard,
    /// Unit.
    Unit,
    /// Tuple of sub-patterns.
    Tuple(Vec<MufPat>),
}

impl MufPat {
    /// A fresh two-element tuple pattern (the common `(v, s)` shape).
    pub fn pair(a: MufPat, b: MufPat) -> MufPat {
        MufPat::Tuple(vec![a, b])
    }

    /// Variable pattern helper.
    pub fn var(name: impl Into<String>) -> MufPat {
        MufPat::Var(name.into())
    }
}

/// A top-level µF definition (`let f = e`).
#[derive(Debug, Clone, PartialEq)]
pub struct MufDef {
    /// Global name (`f_step` / `f_init`).
    pub name: String,
    /// Defining expression.
    pub expr: MufExpr,
}

/// A compiled µF program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MufProgram {
    /// Definitions in dependency order.
    pub defs: Vec<MufDef>,
}

/// Runtime values of the µF interpreter.
#[derive(Debug, Clone)]
pub enum MufValue {
    /// A core data value (possibly symbolic under delayed sampling).
    V(Value),
    /// The uninitialized poison value of an unguarded delay.
    Nil,
    /// Tuple (data or transition state).
    Tuple(Vec<MufValue>),
    /// A closure.
    Closure(Rc<Closure>),
    /// An inference-engine state (the σ of a compiled `infer`).
    Engine(EngineRef),
    /// A posterior distribution (the value of `infer` at each step).
    Posterior(Rc<Posterior>),
}

/// A µF closure.
#[derive(Debug)]
pub struct Closure {
    /// Parameter pattern.
    pub pat: MufPat,
    /// Body, shared with the `MufExpr::Fun` it was created from.
    pub body: Rc<MufExpr>,
    /// Captured environment.
    pub env: Env,
}

/// Shared reference to an engine over µF models. The concrete engine type
/// lives in [`crate::eval`]; it is type-erased here to keep the value type
/// independent of the interpreter internals.
#[derive(Debug, Clone)]
pub struct EngineRef(pub Rc<RefCell<crate::eval::MufEngine>>);

impl MufValue {
    /// Unit value.
    pub fn unit() -> MufValue {
        MufValue::V(Value::Unit)
    }

    /// A short kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            MufValue::V(_) => "value",
            MufValue::Nil => "nil",
            MufValue::Tuple(_) => "tuple",
            MufValue::Closure(_) => "closure",
            MufValue::Engine(_) => "engine",
            MufValue::Posterior(_) => "distribution",
        }
    }

    /// Whether this is the nil poison value.
    pub fn is_nil(&self) -> bool {
        matches!(self, MufValue::Nil)
    }

    /// Converts into a core data [`Value`] (model outputs, op arguments).
    ///
    /// # Errors
    ///
    /// Fails on nil (uninitialized), closures, engines, and posteriors.
    pub fn as_core(&self) -> Result<Value, LangError> {
        match self {
            MufValue::V(v) => Ok(v.clone()),
            MufValue::Tuple(xs) => {
                let parts: Vec<Value> = xs.iter().map(|x| x.as_core()).collect::<Result<_, _>>()?;
                Ok(parts
                    .into_iter()
                    .rev()
                    .reduce(|acc, v| Value::pair(v, acc))
                    .unwrap_or(Value::Unit))
            }
            MufValue::Nil => Err(LangError::new(
                Stage::Eval,
                "uninitialized value (`nil`) observed; guard delays with `->`",
            )),
            other => Err(LangError::new(
                Stage::Eval,
                format!("expected a data value, found a {}", other.kind()),
            )),
        }
    }

    /// Deep copy: engines are duplicated (fresh, independent inference
    /// state) — required when an outer particle filter clones a state that
    /// embeds a nested engine.
    pub fn deep_clone(&self) -> MufValue {
        match self {
            MufValue::Tuple(xs) => MufValue::Tuple(xs.iter().map(MufValue::deep_clone).collect()),
            MufValue::Engine(e) => {
                MufValue::Engine(EngineRef(Rc::new(RefCell::new(e.0.borrow().clone()))))
            }
            other => other.clone(),
        }
    }

    /// Visits every embedded core [`Value`] mutably (GC-root reporting and
    /// end-of-instant forcing for the delayed-sampling engines).
    pub fn for_each_value_mut(&mut self, f: &mut dyn FnMut(&mut Value)) {
        match self {
            MufValue::V(v) => f(v),
            MufValue::Tuple(xs) => {
                for x in xs {
                    x.for_each_value_mut(f);
                }
            }
            MufValue::Nil | MufValue::Closure(_) | MufValue::Engine(_) | MufValue::Posterior(_) => {
            }
        }
    }
}

/// Persistent environment (immutable linked list, cheap to extend and
/// capture in closures).
#[derive(Debug, Clone, Default)]
pub struct Env(Option<Rc<EnvNode>>);

#[derive(Debug)]
struct EnvNode {
    name: String,
    value: MufValue,
    next: Env,
}

impl Env {
    /// The empty environment.
    pub fn empty() -> Env {
        Env(None)
    }

    /// Extends with one binding.
    pub fn bind(&self, name: impl Into<String>, value: MufValue) -> Env {
        self.clone().bind_owned(name, value)
    }

    /// Extends with one binding, consuming the tail — avoids the `Rc`
    /// clone per binding when the caller already owns the environment.
    pub fn bind_owned(self, name: impl Into<String>, value: MufValue) -> Env {
        Env(Some(Rc::new(EnvNode {
            name: name.into(),
            value,
            next: self,
        })))
    }

    /// Whether the environment has no bindings.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Rebinds, in place, an environment of exactly `bindings`' names in
    /// their order (innermost first) to `bindings`' values. Returns
    /// `false` when the names differ or a binding is shared with another
    /// environment; the bindings written so far are then this
    /// environment's alone, and the caller builds a new one.
    pub(crate) fn rebind<'a>(
        &mut self,
        bindings: impl IntoIterator<Item = (&'a str, &'a MufValue)>,
    ) -> bool {
        let mut cur = self;
        for (name, value) in bindings {
            let Some(node) = cur.0.as_mut().and_then(Rc::get_mut) else {
                return false;
            };
            if node.name != name {
                return false;
            }
            node.value.clone_from(value);
            cur = &mut node.next;
        }
        cur.is_empty()
    }

    /// Looks a name up.
    pub fn lookup(&self, name: &str) -> Option<&MufValue> {
        let mut cur = self;
        while let Env(Some(node)) = cur {
            if node.name == name {
                return Some(&node.value);
            }
            cur = &node.next;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_shadows_and_persists() {
        let e0 = Env::empty();
        let e1 = e0.bind("x", MufValue::V(Value::Int(1)));
        let e2 = e1.bind("x", MufValue::V(Value::Int(2)));
        assert!(matches!(e2.lookup("x"), Some(MufValue::V(Value::Int(2)))));
        assert!(matches!(e1.lookup("x"), Some(MufValue::V(Value::Int(1)))));
        assert!(e0.lookup("x").is_none());
    }

    #[test]
    fn as_core_converts_tuples_to_pairs() {
        let t = MufValue::Tuple(vec![
            MufValue::V(Value::Int(1)),
            MufValue::V(Value::Int(2)),
            MufValue::V(Value::Int(3)),
        ]);
        let v = t.as_core().unwrap();
        assert_eq!(
            v,
            Value::pair(Value::Int(1), Value::pair(Value::Int(2), Value::Int(3)))
        );
    }

    #[test]
    fn as_core_rejects_nil_and_closures() {
        assert!(MufValue::Nil.as_core().is_err());
        let c = MufValue::Closure(Rc::new(Closure {
            pat: MufPat::Wildcard,
            body: Rc::new(MufExpr::Const(Const::Unit)),
            env: Env::empty(),
        }));
        assert!(c.as_core().is_err());
    }

    #[test]
    fn for_each_value_mut_visits_nested() {
        let mut t = MufValue::Tuple(vec![
            MufValue::V(Value::Float(1.0)),
            MufValue::Tuple(vec![MufValue::V(Value::Float(2.0)), MufValue::Nil]),
        ]);
        let mut n = 0;
        t.for_each_value_mut(&mut |_| n += 1);
        assert_eq!(n, 2);
    }
}
