//! Effect analysis (the second static-analysis layer, DESIGN.md §2.12).
//!
//! The **effect analysis** classifies every node and subexpression of
//! the scheduled kernel on a three-point lattice
//!
//! ```text
//! Pure  <  Det  <  Prob
//! ```
//!
//! * [`Effect::Pure`] — a closed expression: no variable or state reads,
//!   no node applications, no effects. Constant-foldable at compile time.
//! * [`Effect::Det`] — deterministic dataflow: may read streams, `last`
//!   state, apply deterministic nodes, or allocate engines (`infer`), but
//!   never touches the particle RNG or the particle weight.
//! * [`Effect::Prob`] — reaches `sample`, `observe`, `factor`, `value`,
//!   a driver-level draw, or applies a node that does.
//!
//! Like [`super::bounded`], node summaries are computed in declaration
//! order so applications join the callee's summary. `pzc check` reports
//! each node's summary in its effect column.

use crate::ast::{Eq, Expr, OpName, Program};
use std::collections::HashMap;

/// Three-point effect lattice; the derived order is the lattice order,
/// so `a.max(b)` is the join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Effect {
    /// Closed, constant-foldable expression.
    Pure,
    /// Deterministic dataflow (streams, state, engine allocation).
    Det,
    /// Reaches `sample`/`observe`/`factor`/`value` or a stochastic op.
    Prob,
}

impl std::fmt::Display for Effect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Effect::Pure => write!(f, "pure"),
            Effect::Det => write!(f, "det"),
            Effect::Prob => write!(f, "prob"),
        }
    }
}

/// Whole-program result of the effect analysis.
#[derive(Debug, Clone, Default)]
pub struct EffectReport {
    /// Per-node effect summary (the join over the node body).
    pub node_effects: HashMap<String, Effect>,
}

impl EffectReport {
    /// The effect of `node`, defaulting to `Prob` for unknown names
    /// (soundness: assume the worst of what we cannot see).
    pub fn node_effect(&self, node: &str) -> Effect {
        self.node_effects.get(node).copied().unwrap_or(Effect::Prob)
    }

    /// Callee summaries for per-subexpression [`effect_of`] queries.
    pub fn summaries(&self) -> Summaries<'_> {
        Summaries {
            effects: &self.node_effects,
        }
    }
}

/// Per-node callee summaries threaded through expression classification.
#[derive(Debug, Clone, Copy)]
pub struct Summaries<'a> {
    effects: &'a HashMap<String, Effect>,
}

impl Summaries<'_> {
    fn effect(&self, node: &str) -> Effect {
        self.effects.get(node).copied().unwrap_or(Effect::Prob)
    }
}

/// Join of the effect lattice over one expression, given callee
/// summaries.
pub fn effect_of(e: &Expr, s: Summaries<'_>) -> Effect {
    match e {
        Expr::Const(_) => Effect::Pure,
        // Stream and state reads are deterministic.
        Expr::Var(_) | Expr::Last(_) => Effect::Det,
        Expr::At(inner, _) => effect_of(inner, s),
        Expr::Pair(a, b) => effect_of(a, s).max(effect_of(b, s)),
        // A driver-level draw consumes the shared interpreter RNG: moving
        // or deleting it would shift every later draw.
        Expr::Op(OpName::DrawDist, args) => args
            .iter()
            .fold(Effect::Prob, |acc, a| acc.max(effect_of(a, s))),
        Expr::Op(_, args) => args
            .iter()
            .fold(Effect::Pure, |acc, a| acc.max(effect_of(a, s))),
        Expr::App(f, arg) => s.effect(f).max(Effect::Det).max(effect_of(arg, s)),
        // Engine allocation and stepping is deterministic (dedicated
        // seed domain) but stateful.
        Expr::Infer { arg, .. } => Effect::Det.max(effect_of(arg, s)),
        Expr::Where { body, eqs } => {
            let mut acc = effect_of(body, s);
            for eq in eqs {
                acc = acc.max(match eq {
                    Eq::Def { expr, .. } => effect_of(expr, s),
                    // `init` introduces state.
                    Eq::Init { .. } => Effect::Det,
                    Eq::Automaton { .. } => Effect::Det,
                });
            }
            acc
        }
        // Activation conditions gate *state advancement*, which makes
        // them stateful even when every part is pure.
        Expr::Present { cond, then, els } => Effect::Det
            .max(effect_of(cond, s))
            .max(effect_of(then, s))
            .max(effect_of(els, s)),
        Expr::Reset { body, every } => Effect::Det.max(effect_of(body, s)).max(effect_of(every, s)),
        Expr::If { cond, then, els } => effect_of(cond, s)
            .max(effect_of(then, s))
            .max(effect_of(els, s)),
        Expr::Sample(_) | Expr::Observe(..) | Expr::Factor(_) | Expr::ValueOp(_) => Effect::Prob,
        // Derived forms (gone after desugaring, classified for safety).
        Expr::Arrow(a, b) | Expr::Fby(a, b) => {
            Effect::Det.max(effect_of(a, s)).max(effect_of(b, s))
        }
        Expr::Pre(inner) => Effect::Det.max(effect_of(inner, s)),
    }
}

/// Analyzes a whole (scheduled, desugared) kernel program.
pub fn analyze_program(p: &Program) -> EffectReport {
    let mut report = EffectReport::default();
    for node in &p.nodes {
        let node_effect = effect_of(&node.body, report.summaries());
        report.node_effects.insert(node.name.clone(), node_effect);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::schedule::schedule_program;
    use crate::transform::desugar_program;

    fn kernel(src: &str) -> Program {
        schedule_program(&desugar_program(&parse_program(src).unwrap())).unwrap()
    }

    fn analyzed(src: &str) -> EffectReport {
        analyze_program(&kernel(src))
    }

    /// The effect of each top-level equation of `node`, in scheduled order.
    fn eq_effects(src: &str, node: &str) -> Vec<(String, Effect)> {
        let p = kernel(src);
        let r = analyze_program(&p);
        let Expr::Where { eqs, .. } = p.node(node).unwrap().body.peel() else {
            panic!("`{node}` is not a where");
        };
        eqs.iter()
            .filter_map(|eq| match eq {
                Eq::Def { name, expr } => Some((name.clone(), effect_of(expr, r.summaries()))),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn lattice_order_and_join() {
        assert!(Effect::Pure < Effect::Det && Effect::Det < Effect::Prob);
        assert_eq!(Effect::Pure.max(Effect::Prob), Effect::Prob);
        assert_eq!(format!("{}", Effect::Det), "det");
    }

    #[test]
    fn counter_is_det() {
        let src = "let node counter u = n where rec n = 0 -> pre n + 1";
        assert_eq!(analyzed(src).node_effect("counter"), Effect::Det);
        // The counter and the desugared arrow flag are both at most Det.
        let eqs = eq_effects(src, "counter");
        assert!(!eqs.is_empty());
        assert!(eqs.iter().all(|(_, e)| *e <= Effect::Det), "{eqs:?}");
    }

    #[test]
    fn hmm_samples_are_prob_and_flags_pure() {
        let src = "let node hmm y = x where
               rec x = sample (gaussian ((0. -> pre x), (100. -> 1.)))
               and () = observe (gaussian (x, 1.), y)";
        assert_eq!(analyzed(src).node_effect("hmm"), Effect::Prob);
        let eqs = eq_effects(src, "hmm");
        let by_name = |n: &str| eqs.iter().find(|(name, _)| name == n).unwrap().1;
        assert_eq!(by_name("x"), Effect::Prob);
        let flags: Vec<_> = eqs
            .iter()
            .filter(|(name, _)| name.starts_with("_first"))
            .collect();
        assert_eq!(flags.len(), 2, "{eqs:?}");
        for (_, e) in flags {
            // `_firstN = false` is a constant right-hand side.
            assert_eq!(*e, Effect::Pure);
        }
        // The observe equation (parser-named `_unitN`) is effectful.
        assert!(eqs
            .iter()
            .any(|(name, e)| name.starts_with("_unit") && *e == Effect::Prob));
    }

    #[test]
    fn callee_summaries_propagate_prob() {
        let src = "let node m y = sample (gaussian (y, 1.))
             let node caller y = x where rec x = m(y)";
        let r = analyzed(src);
        assert_eq!(r.node_effect("m"), Effect::Prob);
        assert_eq!(r.node_effect("caller"), Effect::Prob);
        assert_eq!(eq_effects(src, "caller")[0].1, Effect::Prob);
    }

    #[test]
    fn engine_users_are_det_and_flagged() {
        let r = analyzed(
            "let node m y = sample (gaussian (y, 1.))
             let node top y = e where rec e = mean_float(infer 4 m y)",
        );
        assert_eq!(r.node_effect("top"), Effect::Det);
    }
}
