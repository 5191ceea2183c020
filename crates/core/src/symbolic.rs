//! Symbolic affine expressions over random variables.
//!
//! Delayed sampling (§5.2 of the paper) manipulates *symbolic terms* in
//! which random variables are references into the delayed-sampling graph.
//! For the conjugacy relations this implementation supports, the useful
//! closed class of float-valued symbolic terms is **affine expressions**
//! `b + Σ aᵢ·Xᵢ`: affine images of Gaussians stay Gaussian, which is what
//! lets the robot tracker of Fig. 5 integrate a random acceleration twice
//! and still condition exactly on GPS fixes.
//!
//! # Representation
//!
//! Affine expressions sit on the per-particle hot path: every model step
//! clones, substitutes, and rebuilds them several times per particle. The
//! overwhelmingly common cases on the paper's models are the constant and
//! the single-term `a·x + b`, so those are stored inline ([`Terms::Zero`],
//! [`Terms::One`]) with no heap allocation at all. An expression over two
//! or more distinct variables holds an immutable, shared slice of terms
//! ([`Terms::Many`], an `Arc<[(RvId, f64)]>`): copying it bumps a
//! reference count, and each arithmetic result of up to eight terms is
//! built with exactly one allocation (a merge into a stack buffer, then
//! one copy into the `Arc`). `Arc` rather than `Rc` because native models step particles on
//! worker threads. The representation is kept canonical — `Many` holds
//! at least two terms, zero coefficients are dropped, term order is always
//! ascending by variable id — so structural equality holds and every
//! operation folds coefficients and constants in ascending variable order.

use std::sync::Arc;

/// Identifier of a random variable in a per-particle delayed-sampling
/// graph. Indices are slab slots; they are only meaningful together with
/// the graph that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RvId(pub(crate) usize);

impl RvId {
    /// The raw slab index (for diagnostics and tests).
    pub fn index(&self) -> usize {
        self.0
    }
}

impl std::fmt::Display for RvId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "X{}", self.0)
    }
}

/// The variable terms of an affine expression, inline for arity ≤ 1.
///
/// Invariant (canonicality): `Many` always holds ≥ 2 entries, strictly
/// ascending by variable id, and no stored coefficient is `0.0` (dropped
/// on cancellation or underflow).
#[derive(Debug, Clone, PartialEq, Default)]
enum Terms {
    /// No variables (a constant expression).
    #[default]
    Zero,
    /// Exactly one term `a·x`.
    One((RvId, f64)),
    /// Two or more terms, ascending by variable id, shared between copies.
    Many(Arc<[(RvId, f64)]>),
}

impl Terms {
    /// The terms as a slice, ascending by variable id.
    fn as_slice(&self) -> &[(RvId, f64)] {
        match self {
            Terms::Zero => &[],
            Terms::One(t) => std::slice::from_ref(t),
            Terms::Many(ts) => ts,
        }
    }

    /// The canonical terms of an ascending, zero-free term list: inline
    /// below two terms, one allocation otherwise.
    fn from_slice(ts: &[(RvId, f64)]) -> Terms {
        match ts {
            [] => Terms::Zero,
            &[t] => Terms::One(t),
            _ => Terms::Many(Arc::from(ts)),
        }
    }
}

/// Scratch space for building a term list: up to [`TermBuf::INLINE`]
/// terms on the stack, spilling to the heap only beyond that. Pushing a
/// `0.0` coefficient is a no-op, so every builder drops zeros the same way.
struct TermBuf {
    inline: [(RvId, f64); TermBuf::INLINE],
    len: usize,
    spill: Vec<(RvId, f64)>,
}

impl TermBuf {
    const INLINE: usize = 8;

    fn new() -> TermBuf {
        TermBuf {
            inline: [(RvId(0), 0.0); TermBuf::INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, x: RvId, a: f64) {
        if a == 0.0 {
            return;
        }
        if self.len < TermBuf::INLINE {
            self.inline[self.len] = (x, a);
        } else {
            if self.len == TermBuf::INLINE {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push((x, a));
        }
        self.len += 1;
    }

    /// The canonical terms pushed so far.
    fn finish(&self) -> Terms {
        if self.len <= TermBuf::INLINE {
            Terms::from_slice(&self.inline[..self.len])
        } else {
            Terms::from_slice(&self.spill)
        }
    }
}

/// A float-valued affine expression `konst + Σ coeff·rv` over graph random
/// variables.
///
/// The representation is canonical: terms are ordered by variable, zero
/// coefficients are dropped. Two equal expressions therefore compare equal
/// with `==`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AffExpr {
    terms: Terms,
    konst: f64,
}

impl AffExpr {
    /// The constant expression `c`.
    pub fn constant(c: f64) -> Self {
        AffExpr {
            terms: Terms::Zero,
            konst: c,
        }
    }

    /// The bare variable `x`.
    pub fn var(x: RvId) -> Self {
        AffExpr {
            terms: Terms::One((x, 1.0)),
            konst: 0.0,
        }
    }

    /// The constant offset.
    pub fn konst(&self) -> f64 {
        self.konst
    }

    /// Iterates over `(variable, coefficient)` pairs (coefficients are
    /// nonzero), ascending by variable id.
    pub fn terms(&self) -> impl Iterator<Item = (RvId, f64)> + '_ {
        self.terms.as_slice().iter().copied()
    }

    /// Number of distinct variables.
    pub fn num_vars(&self) -> usize {
        self.terms.as_slice().len()
    }

    /// Whether the expression mentions no random variable.
    pub fn is_constant(&self) -> bool {
        matches!(self.terms, Terms::Zero)
    }

    /// If the expression is a constant, its value.
    pub fn as_constant(&self) -> Option<f64> {
        self.is_constant().then_some(self.konst)
    }

    /// If the expression has the form `a·x + b` with exactly one variable,
    /// returns `(x, a, b)`.
    pub fn as_single(&self) -> Option<(RvId, f64, f64)> {
        match self.terms {
            Terms::One((x, a)) => Some((x, a, self.konst)),
            _ => None,
        }
    }

    /// If the expression is exactly one variable (`1·x + 0`), returns it.
    pub fn as_var(&self) -> Option<RvId> {
        match self.as_single() {
            Some((x, a, b)) if a == 1.0 && b == 0.0 => Some(x),
            _ => None,
        }
    }

    /// Adds two affine expressions.
    ///
    /// A linear merge of the two ascending term lists: a variable of both
    /// gets `a + a'` (in that order), a variable of one side keeps its
    /// coefficient, and a zero sum is dropped.
    pub fn add(&self, other: &AffExpr) -> AffExpr {
        let konst = self.konst + other.konst;
        let terms = match (&self.terms, &other.terms) {
            (Terms::Zero, t) | (t, Terms::Zero) => t.clone(),
            _ => {
                let (mut xs, mut ys) = (self.terms.as_slice(), other.terms.as_slice());
                let mut out = TermBuf::new();
                while let (Some(&(x, a)), Some(&(y, b))) = (xs.first(), ys.first()) {
                    if x < y {
                        out.push(x, a);
                        xs = &xs[1..];
                    } else if y < x {
                        out.push(y, b);
                        ys = &ys[1..];
                    } else {
                        out.push(x, a + b);
                        xs = &xs[1..];
                        ys = &ys[1..];
                    }
                }
                for &(x, a) in xs.iter().chain(ys) {
                    out.push(x, a);
                }
                out.finish()
            }
        };
        AffExpr { terms, konst }
    }

    /// Subtracts `other` from `self`.
    pub fn sub(&self, other: &AffExpr) -> AffExpr {
        self.add(&other.scale(-1.0))
    }

    /// Multiplies by a scalar. A coefficient whose product underflows to
    /// `0.0` is dropped like any other zero.
    pub fn scale(&self, k: f64) -> AffExpr {
        if k == 0.0 {
            return AffExpr::constant(0.0);
        }
        let konst = self.konst * k;
        let terms = match self.terms {
            Terms::Zero => Terms::Zero,
            Terms::One((x, a)) if a * k != 0.0 => Terms::One((x, a * k)),
            Terms::One(_) => Terms::Zero,
            Terms::Many(ref ts) => {
                let mut out = TermBuf::new();
                for &(x, a) in ts.iter() {
                    out.push(x, a * k);
                }
                out.finish()
            }
        };
        AffExpr { terms, konst }
    }

    /// Adds a scalar offset.
    pub fn offset(&self, c: f64) -> AffExpr {
        let mut out = self.clone();
        out.konst += c;
        out
    }

    /// Substitutes concrete values for variables, using `lookup` to resolve
    /// a variable to a value when available. Variables that `lookup` does
    /// not resolve remain symbolic.
    ///
    /// Terms are visited ascending by variable id and resolved values are
    /// folded into the constant in that order. When no variable resolves
    /// the result shares `self`'s terms.
    pub fn substitute(&self, mut lookup: impl FnMut(RvId) -> Option<f64>) -> AffExpr {
        match self.terms {
            Terms::Zero => self.clone(),
            Terms::One((x, a)) => match lookup(x) {
                Some(v) => AffExpr::constant(self.konst + a * v),
                None => self.clone(),
            },
            Terms::Many(ref ts) => self.substitute_many(ts, lookup),
        }
    }

    /// [`AffExpr::substitute`] on two or more terms. Out of line, so that
    /// the inline cases stay small enough to inline at the delayed-sampling
    /// graph's call sites (hmm-native's SDS step slowed 2–3% with the
    /// stack buffer inlined there).
    #[inline(never)]
    fn substitute_many(
        &self,
        ts: &[(RvId, f64)],
        mut lookup: impl FnMut(RvId) -> Option<f64>,
    ) -> AffExpr {
        let mut konst = self.konst;
        let mut out = TermBuf::new();
        for &(x, a) in ts {
            match lookup(x) {
                Some(v) => konst += a * v,
                None => out.push(x, a),
            }
        }
        if out.len == ts.len() {
            return self.clone();
        }
        AffExpr {
            terms: out.finish(),
            konst,
        }
    }

    /// All variables mentioned, in ascending id order.
    pub fn vars(&self) -> Vec<RvId> {
        self.terms().map(|(x, _)| x).collect()
    }
}

impl std::fmt::Display for AffExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (x, a) in self.terms() {
            if first {
                if a == 1.0 {
                    write!(f, "{x}")?;
                } else {
                    write!(f, "{a}·{x}")?;
                }
                first = false;
            } else if a == 1.0 {
                write!(f, " + {x}")?;
            } else {
                write!(f, " + {a}·{x}")?;
            }
        }
        if first {
            write!(f, "{}", self.konst)
        } else if self.konst != 0.0 {
            write!(f, " + {}", self.konst)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> RvId {
        RvId(0)
    }
    fn y() -> RvId {
        RvId(1)
    }

    #[test]
    fn constants_and_vars() {
        assert_eq!(AffExpr::constant(3.0).as_constant(), Some(3.0));
        assert_eq!(AffExpr::var(x()).as_var(), Some(x()));
        assert!(AffExpr::var(x()).as_constant().is_none());
    }

    #[test]
    fn add_merges_terms() {
        let e = AffExpr::var(x()).add(&AffExpr::var(x())).offset(1.0);
        assert_eq!(e.as_single(), Some((x(), 2.0, 1.0)));
    }

    #[test]
    fn cancellation_drops_terms() {
        let e = AffExpr::var(x()).sub(&AffExpr::var(x()));
        assert!(e.is_constant());
        assert_eq!(e.as_constant(), Some(0.0));
    }

    #[test]
    fn scale_by_zero_is_constant_zero() {
        let e = AffExpr::var(x()).offset(5.0).scale(0.0);
        assert_eq!(e.as_constant(), Some(0.0));
    }

    #[test]
    fn two_variable_expression_is_not_single() {
        let e = AffExpr::var(x()).add(&AffExpr::var(y()));
        assert!(e.as_single().is_none());
        assert_eq!(e.num_vars(), 2);
        assert_eq!(e.vars(), vec![x(), y()]);
    }

    #[test]
    fn substitute_resolves_and_keeps() {
        let e = AffExpr::var(x())
            .scale(2.0)
            .add(&AffExpr::var(y()))
            .offset(1.0);
        let s = e.substitute(|v| (v == x()).then_some(3.0));
        assert_eq!(s.as_single(), Some((y(), 1.0, 7.0)));
        let s2 = s.substitute(|v| (v == y()).then_some(-7.0));
        assert_eq!(s2.as_constant(), Some(0.0));
    }

    #[test]
    fn display_is_readable() {
        let e = AffExpr::var(x()).scale(2.0).offset(1.0);
        assert_eq!(e.to_string(), "2·X0 + 1");
        assert_eq!(AffExpr::constant(4.0).to_string(), "4");
        assert_eq!(AffExpr::var(y()).to_string(), "X1");
    }

    #[test]
    fn canonical_equality() {
        let a = AffExpr::var(x()).add(&AffExpr::var(y()));
        let b = AffExpr::var(y()).add(&AffExpr::var(x()));
        assert_eq!(a, b);
    }

    #[test]
    fn many_demotes_to_inline_on_cancellation() {
        // x + y − y must come back to the inline single-term form so the
        // canonical-equality contract survives the representation change.
        let e = AffExpr::var(x())
            .add(&AffExpr::var(y()))
            .sub(&AffExpr::var(y()));
        assert_eq!(e.as_single(), Some((x(), 1.0, 0.0)));
        assert_eq!(e, AffExpr::var(x()));
        // And substituting all but one variable of a Many demotes too.
        let m = AffExpr::var(x()).add(&AffExpr::var(y()));
        let s = m.substitute(|v| (v == x()).then_some(2.0));
        assert_eq!(s.as_single(), Some((y(), 1.0, 2.0)));
        assert_eq!(s, AffExpr::var(y()).offset(2.0));
    }

    #[test]
    fn scale_drops_underflowed_coefficients() {
        // 1e-200² underflows to 0.0: the term must go, not stay as a zero.
        let e = AffExpr::var(x()).scale(1e-200).scale(1e-200);
        assert!(e.is_constant());
        assert_eq!(e, AffExpr::constant(0.0));
        // In a Many, the underflowed term goes and the rest demotes.
        let m = AffExpr::var(x())
            .scale(1e-200)
            .add(&AffExpr::var(y()))
            .scale(1e-200);
        assert_eq!(m.as_single(), Some((y(), 1e-200, 0.0)));
        let z = RvId(2);
        let three = m
            .add(&AffExpr::var(x()).scale(1e-200))
            .add(&AffExpr::var(z).scale(1e-200))
            .scale(1e-200);
        assert!(three.is_constant());
    }

    #[test]
    fn clones_share_multi_term_storage() {
        let e = AffExpr::var(x()).add(&AffExpr::var(y()));
        let c = e.clone();
        match (&e.terms, &c.terms) {
            (Terms::Many(a), Terms::Many(b)) => assert!(Arc::ptr_eq(a, b)),
            other => panic!("expected two Many, got {other:?}"),
        }
        // A substitution that resolves nothing shares the terms too.
        let s = e.substitute(|_| None);
        match (&e.terms, &s.terms) {
            (Terms::Many(a), Terms::Many(b)) => assert!(Arc::ptr_eq(a, b)),
            other => panic!("expected two Many, got {other:?}"),
        }
    }

    #[test]
    fn long_sums_spill_past_the_stack_buffer() {
        // Interleaved ids so the merge alternates sides past 8 terms.
        let evens = (0..10).fold(AffExpr::constant(0.0), |e, i| {
            e.add(&AffExpr::var(RvId(2 * i)).scale(i as f64 + 1.0))
        });
        let odds = (0..10).fold(AffExpr::constant(0.0), |e, i| {
            e.add(&AffExpr::var(RvId(2 * i + 1)))
        });
        let all = evens.add(&odds);
        assert_eq!(all.num_vars(), 20);
        assert_eq!(all.vars(), (0..20).map(RvId).collect::<Vec<_>>());
        assert_eq!(all.sub(&odds), evens);
        assert!(all.sub(&evens).sub(&odds).is_constant());
    }

    #[test]
    fn three_term_spill_roundtrip() {
        let z = RvId(2);
        let e = AffExpr::var(x())
            .add(&AffExpr::var(y()))
            .add(&AffExpr::var(z).scale(3.0))
            .offset(-1.0);
        assert_eq!(e.num_vars(), 3);
        assert_eq!(e.vars(), vec![x(), y(), z]);
        let s = e.substitute(|v| (v == y()).then_some(0.5));
        assert_eq!(s.num_vars(), 2);
        assert_eq!(s.konst(), -0.5);
    }
}
