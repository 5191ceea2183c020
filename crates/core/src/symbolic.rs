//! Symbolic affine expressions over random variables.
//!
//! Delayed sampling (§5.2 of the paper) manipulates *symbolic terms* in
//! which random variables are references into the delayed-sampling graph.
//! For the conjugacy relations this implementation supports, the useful
//! closed class of float-valued symbolic terms is **affine expressions**
//! `b + Σ aᵢ·Xᵢ`: affine images of Gaussians stay Gaussian, which is what
//! lets the robot tracker of Fig. 5 integrate a random acceleration twice
//! and keep velocity and position symbolic. Conditioning on a term is exact
//! only where it has one unrealized variable, though. The tracker's GPS
//! observe has a mean `p` with two unrealized acceleration terms, so
//! `Graph::assume` realizes both (`force_aff`) and scores the fix against a
//! fresh root; the fix conditions the realized accelerations through the
//! particle weight, not in closed form.
//!
//! # Representation
//!
//! Affine expressions sit on the per-particle hot path: every model step
//! clones, substitutes, and rebuilds them several times per particle. The
//! overwhelmingly common cases on the paper's models are the constant and
//! the single-term `a·x + b`, so those are stored inline ([`Terms::Zero`],
//! [`Terms::One`]) with no heap allocation at all. An expression over two
//! or more distinct variables holds a shared slice of terms
//! ([`Terms::Many`], an `Arc<[(RvId, f64)]>` plus its live length): copying
//! it bumps a reference count. Only the first *live length* entries are
//! terms; the rest of the slice is room, so a slice can shrink in place and
//! grow in place up to its length. A new slice is made with room for at
//! least [`ROOM`] terms, so a two-term result can take on two more without
//! reallocating. `Arc` rather than `Rc` because native models step
//! particles on worker threads.
//!
//! Every operation merges into a stack buffer first, then writes the result
//! out. The owned operations ([`AffExpr::add_owned`],
//! [`AffExpr::sub_owned`], [`AffExpr::scale_owned`],
//! [`AffExpr::add_scaled`], [`AffExpr::substitute_in_place`]) write it into
//! an operand's slice when nothing else holds that slice
//! (`Arc::get_mut`) and it has room; only otherwise do they allocate, once.
//! A slice somebody else holds is never written, so a clone keeps reading
//! what it read before. The borrowed operations are the owned ones on
//! clones, so there is one copy of the arithmetic. A caller that only
//! inspects a substitution's result reads it from an [`AffView`] on the
//! stack instead.
//!
//! The representation is kept canonical — `Many` holds at least two live
//! terms, zero coefficients are dropped, term order is always ascending by
//! variable id — so structural equality (over live terms) holds and every
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

/// The room a new term slice is made with: a two-term result can grow to
/// three or four terms without reallocating.
const ROOM: usize = 4;

/// The variable terms of an affine expression, inline for arity ≤ 1.
///
/// Invariant (canonicality): `Many` always holds ≥ 2 live entries,
/// strictly ascending by variable id, and no stored coefficient is `0.0`
/// (dropped on cancellation or underflow).
#[derive(Clone, Default)]
enum Terms {
    /// No variables (a constant expression).
    #[default]
    Zero,
    /// Exactly one term `a·x`.
    One((RvId, f64)),
    /// Two or more terms, ascending by variable id: the first `live`
    /// entries of a slice shared between copies (a slice of 2³² terms,
    /// 64 GiB, cannot be built, so `u32` holds every length).
    Many(Arc<[(RvId, f64)]>, u32),
}

impl Terms {
    /// The live terms as a slice, ascending by variable id.
    fn as_slice(&self) -> &[(RvId, f64)] {
        match self {
            Terms::Zero => &[],
            Terms::One(t) => std::slice::from_ref(t),
            Terms::Many(ts, live) => &ts[..*live as usize],
        }
    }
}

/// Equal live terms: the room past them is not part of the value.
impl PartialEq for Terms {
    fn eq(&self, other: &Terms) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for Terms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Terms::Zero => f.write_str("Zero"),
            Terms::One(t) => f.debug_tuple("One").field(t).finish(),
            Terms::Many(..) => f.debug_tuple("Many").field(&self.as_slice()).finish(),
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

    /// The terms pushed so far.
    fn as_slice(&self) -> &[(RvId, f64)] {
        if self.len <= TermBuf::INLINE {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// The canonical terms pushed so far: inline below two terms; else
    /// written into the first `spare` slice that nothing else holds and
    /// that has room; else one new slice, with room for at least [`ROOM`].
    /// The step that finishes every operation.
    fn finish(&self, spare: [Terms; 2]) -> Terms {
        let ts = self.as_slice();
        match ts {
            [] => return Terms::Zero,
            &[t] => return Terms::One(t),
            _ => {}
        }
        let live = ts.len() as u32;
        for t in spare {
            if let Terms::Many(mut slice, _) = t {
                if let Some(room) = Arc::get_mut(&mut slice).filter(|r| r.len() >= ts.len()) {
                    room[..ts.len()].copy_from_slice(ts);
                    return Terms::Many(slice, live);
                }
            }
        }
        let slice = if self.len <= TermBuf::INLINE {
            Arc::from(&self.inline[..self.len.max(ROOM)])
        } else {
            Arc::from(&self.spill[..])
        };
        Terms::Many(slice, live)
    }
}

/// The one merge loop of every sum: the terms of `Σ a·x + Σ k·b·y` over
/// two ascending term lists. A variable of both gets `a + k·b`, a
/// variable of one side keeps its (scaled) coefficient, and a zero is
/// dropped. `k` is `None` for a plain sum, whose right terms enter
/// unscaled, and the caller handles `k == 0`.
///
/// `k·b` is the product `scale` would store, and adding it is the sum
/// `add` would take, so a fused `x + k·y` matches `x.add(&y.scale(k))`
/// bit for bit: where `scale` drops an underflowed `k·b`, the sum `a + 0`
/// is `a` (a stored `a` is never zero).
fn merge(xs: &[(RvId, f64)], ys: &[(RvId, f64)], k: Option<f64>) -> TermBuf {
    let scaled = |b: f64| k.map_or(b, |k| b * k);
    let (mut xs, mut ys) = (xs, ys);
    let mut out = TermBuf::new();
    while let (Some(&(x, a)), Some(&(y, b))) = (xs.first(), ys.first()) {
        if x < y {
            out.push(x, a);
            xs = &xs[1..];
        } else if y < x {
            out.push(y, scaled(b));
            ys = &ys[1..];
        } else {
            let b = scaled(b);
            out.push(x, a + b);
            xs = &xs[1..];
            ys = &ys[1..];
        }
    }
    for &(x, a) in xs {
        out.push(x, a);
    }
    for &(y, b) in ys {
        out.push(y, scaled(b));
    }
    out
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
        self.clone().add_owned(other.clone())
    }

    /// Subtracts `other` from `self`: `self + (-1)·other`, with the
    /// products and sums of [`AffExpr::scale`] then [`AffExpr::add`].
    pub fn sub(&self, other: &AffExpr) -> AffExpr {
        self.clone().sub_owned(other.clone())
    }

    /// Multiplies by a scalar. A coefficient whose product underflows to
    /// `0.0` is dropped like any other zero; `k == 0` gives the constant
    /// `0` whatever the expression (even an infinite or NaN one).
    pub fn scale(&self, k: f64) -> AffExpr {
        self.clone().scale_owned(k)
    }

    /// [`AffExpr::add`] on owned operands: the sum is written into the
    /// term slice of `self`, or else of `other`, when nothing else holds
    /// it and it has room.
    pub fn add_owned(self, other: AffExpr) -> AffExpr {
        self.combine(other, None)
    }

    /// [`AffExpr::sub`] on owned operands, reusing a slice as
    /// [`AffExpr::add_owned`] does.
    pub fn sub_owned(self, other: AffExpr) -> AffExpr {
        self.combine(other, Some(-1.0))
    }

    /// [`AffExpr::scale`] on an owned operand, scaling its slice in place
    /// when nothing else holds it.
    pub fn scale_owned(self, k: f64) -> AffExpr {
        if k == 0.0 {
            return AffExpr::constant(0.0);
        }
        let konst = self.konst * k;
        let terms = match self.terms {
            Terms::Zero => Terms::Zero,
            Terms::One((x, a)) if a * k != 0.0 => Terms::One((x, a * k)),
            Terms::One(_) => Terms::Zero,
            t => merge(&[], t.as_slice(), Some(k)).finish([t, Terms::Zero]),
        };
        AffExpr { terms, konst }
    }

    /// The fused `self + k·y`: bit for bit `self.add(&y.scale(k))`,
    /// without building the scaled `y`. As in [`AffExpr::scale`], `k == 0`
    /// makes the scaled part the constant `0` and an underflowed product
    /// is dropped. Every sum it takes has two operands, and IEEE-754
    /// addition of two operands is commutative, so `y.scale(k).add(&self)`
    /// has the same bits too. The result reuses a slice as
    /// [`AffExpr::add_owned`] does.
    pub fn add_scaled(self, y: AffExpr, k: f64) -> AffExpr {
        if k == 0.0 {
            return self.combine(AffExpr::constant(0.0), None);
        }
        self.combine(y, Some(k))
    }

    /// `self + k·y` (`self + y` when `k` is `None`): the one sum behind
    /// every owned entry point.
    fn combine(self, y: AffExpr, k: Option<f64>) -> AffExpr {
        let konst = self.konst + k.map_or(y.konst, |k| y.konst * k);
        let terms = match (self.terms, y.terms) {
            (t, Terms::Zero) => t,
            (Terms::Zero, t) if k.is_none() => t,
            (xt, yt) => merge(xt.as_slice(), yt.as_slice(), k).finish([xt, yt]),
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
    pub fn substitute(&self, lookup: impl FnMut(RvId) -> Option<f64>) -> AffExpr {
        let mut out = self.clone();
        out.substitute_in_place(lookup);
        out
    }

    /// [`AffExpr::substitute`] in place: the remaining terms are written
    /// back into `self`'s slice when nothing else holds it.
    pub fn substitute_in_place(&mut self, mut lookup: impl FnMut(RvId) -> Option<f64>) {
        match self.terms {
            Terms::Zero => {}
            Terms::One((x, a)) => {
                if let Some(v) = lookup(x) {
                    *self = AffExpr::constant(self.konst + a * v);
                }
            }
            Terms::Many(..) => self.substitute_many(lookup),
        }
    }

    /// [`AffExpr::substitute_in_place`] on two or more terms. Out of line,
    /// so that the inline cases stay small enough to inline at the
    /// delayed-sampling graph's call sites (hmm-native's SDS step slowed
    /// 2–3% with the stack buffer inlined there).
    #[inline(never)]
    fn substitute_many(&mut self, lookup: impl FnMut(RvId) -> Option<f64>) {
        let (out, konst) = self.substitute_terms(lookup);
        if out.len < self.num_vars() {
            self.terms = out.finish([std::mem::take(&mut self.terms), Terms::Zero]);
            self.konst = konst;
        }
    }

    /// The one substitution loop: the unresolved terms, on the stack, and
    /// the constant with every resolved term folded in, ascending by
    /// variable id.
    fn substitute_terms(&self, mut lookup: impl FnMut(RvId) -> Option<f64>) -> (TermBuf, f64) {
        let mut konst = self.konst;
        let mut out = TermBuf::new();
        for &(x, a) in self.terms.as_slice() {
            match lookup(x) {
                Some(v) => konst += a * v,
                None => out.push(x, a),
            }
        }
        (out, konst)
    }

    /// [`AffExpr::substitute`] for a caller that only inspects the result:
    /// the same terms and constant, bit for bit, held on the stack, so no
    /// slice is built (up to [`TermBuf::INLINE`] remaining terms).
    pub fn substitute_view(&self, lookup: impl FnMut(RvId) -> Option<f64>) -> AffView {
        if let Terms::Many(..) = self.terms {
            return self.view_many(lookup);
        }
        // At most one term: the copy is inline, and so is its result.
        let mut e = self.clone();
        e.substitute_in_place(lookup);
        AffView::inline(e)
    }

    /// [`AffExpr::substitute_view`] on two or more terms, out of line for
    /// the reason [`AffExpr::substitute_many`] is.
    #[inline(never)]
    fn view_many(&self, lookup: impl FnMut(RvId) -> Option<f64>) -> AffView {
        let (out, konst) = self.substitute_terms(lookup);
        AffView {
            terms: ViewTerms::Buf(out),
            konst,
        }
    }

    /// All variables mentioned, in ascending id order.
    pub fn vars(&self) -> Vec<RvId> {
        self.terms().map(|(x, _)| x).collect()
    }
}

/// The result of [`AffExpr::substitute_view`]: an affine expression held
/// by value, with its terms inline or in a stack buffer, never in a new
/// shared slice. It reads like an [`AffExpr`] and builds none.
pub struct AffView {
    terms: ViewTerms,
    konst: f64,
}

enum ViewTerms {
    /// At most one term, as an expression stores it.
    Inline(Terms),
    /// The remaining terms of a multi-term expression.
    Buf(TermBuf),
}

impl AffView {
    /// The constant `c`.
    pub fn constant(c: f64) -> AffView {
        AffView::inline(AffExpr::constant(c))
    }

    /// An expression of at most one term, whose terms are inline.
    fn inline(e: AffExpr) -> AffView {
        AffView {
            terms: ViewTerms::Inline(e.terms),
            konst: e.konst,
        }
    }

    fn as_slice(&self) -> &[(RvId, f64)] {
        match &self.terms {
            ViewTerms::Inline(t) => t.as_slice(),
            ViewTerms::Buf(b) => b.as_slice(),
        }
    }

    /// The constant offset.
    pub fn konst(&self) -> f64 {
        self.konst
    }

    /// Iterates over `(variable, coefficient)` pairs (coefficients are
    /// nonzero), ascending by variable id.
    pub fn terms(&self) -> impl Iterator<Item = (RvId, f64)> + '_ {
        self.as_slice().iter().copied()
    }

    /// If the expression is a constant, its value.
    pub fn as_constant(&self) -> Option<f64> {
        self.as_slice().is_empty().then_some(self.konst)
    }

    /// If the expression has the form `a·x + b` with exactly one variable,
    /// returns `(x, a, b)`.
    pub fn as_single(&self) -> Option<(RvId, f64, f64)> {
        match *self.as_slice() {
            [(x, a)] => Some((x, a, self.konst)),
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
        assert_eq!(slice_ptr(&e), slice_ptr(&c));
        // A substitution that resolves nothing shares the terms too.
        let s = e.substitute(|_| None);
        assert_eq!(slice_ptr(&e), slice_ptr(&s));
    }

    /// The address of an expression's term slice (panics on inline terms).
    fn slice_ptr(e: &AffExpr) -> *const (RvId, f64) {
        match &e.terms {
            Terms::Many(ts, _) => Arc::as_ptr(ts) as *const (RvId, f64),
            other => panic!("expected a term slice, got {other:?}"),
        }
    }

    /// `Σ (i + 1)·X_i` over `ids`.
    fn sum(ids: impl IntoIterator<Item = usize>) -> AffExpr {
        ids.into_iter().fold(AffExpr::constant(0.5), |e, i| {
            e.add_owned(AffExpr::var(RvId(i)).scale(i as f64 + 1.0))
        })
    }

    #[test]
    fn new_slices_have_room_to_grow_in_place() {
        let e = AffExpr::var(x()).add(&AffExpr::var(y()));
        let p = slice_ptr(&e);
        // Two terms grow to four in the room the slice was made with.
        let e = e.add_owned(AffExpr::var(RvId(2)));
        let e = e.add_owned(AffExpr::var(RvId(3)).scale(2.0));
        assert_eq!(slice_ptr(&e), p);
        assert_eq!(e.vars(), (0..4).map(RvId).collect::<Vec<_>>());
        // A fifth term does not fit: one new slice.
        let e = e.add_owned(AffExpr::var(RvId(4)));
        assert_ne!(slice_ptr(&e), p);
        assert_eq!(e.num_vars(), 5);
    }

    #[test]
    fn owned_ops_reuse_a_uniquely_owned_slice() {
        let e = sum(0..3);
        let p = slice_ptr(&e);
        let e = e.add_scaled(AffExpr::var(RvId(1)), 0.1);
        assert_eq!(slice_ptr(&e), p, "add_scaled");
        let e = e.scale_owned(3.0);
        assert_eq!(slice_ptr(&e), p, "scale_owned");
        let e = e.sub_owned(AffExpr::var(RvId(9)));
        assert_eq!(slice_ptr(&e), p, "sub_owned");
        // The slice of the right operand is reused when the left has none.
        let e = AffExpr::constant(1.0).add_owned(e);
        assert_eq!(slice_ptr(&e), p, "add_owned, right operand");
        // Shrinking in place keeps the slice, and equality reads live
        // terms only.
        let mut s = e;
        s.substitute_in_place(|v| (v == RvId(1)).then_some(2.0));
        assert_eq!(slice_ptr(&s), p, "substitute_in_place");
        assert_eq!(s.vars(), vec![RvId(0), RvId(2), RvId(9)]);
        let rebuilt = sum(0..3)
            .add_scaled(AffExpr::var(RvId(1)), 0.1)
            .scale(3.0)
            .sub(&AffExpr::var(RvId(9)))
            .offset(1.0)
            .substitute(|v| (v == RvId(1)).then_some(2.0));
        assert_eq!(s, rebuilt);
    }

    #[test]
    fn a_shared_slice_is_never_written() {
        let owner = sum(0..3);
        let clone = owner.clone();
        let before: Vec<(RvId, f64)> = clone.terms().collect();
        let p = slice_ptr(&owner);
        let mut owner = owner.add_scaled(AffExpr::var(RvId(1)), 4.0);
        owner.substitute_in_place(|v| (v == RvId(0)).then_some(1.0));
        let owner = owner.scale_owned(-2.0);
        assert_ne!(slice_ptr(&owner), p);
        assert_eq!(slice_ptr(&clone), p);
        assert_eq!(clone.terms().collect::<Vec<_>>(), before);
        assert_eq!(clone, sum(0..3));
    }

    /// Two threads scale, add to and substitute into clones of one shared
    /// slice through owned ops: each sees its own result, and the slice
    /// they started from is unchanged (run under ThreadSanitizer in CI).
    #[test]
    fn threads_mutate_clones_of_a_shared_slice_independently() {
        let shared = sum(0..6);
        let p = slice_ptr(&shared);
        let work = |k: f64| {
            let mut e = shared.clone().scale_owned(k);
            for _ in 0..1000 {
                e = e.add_scaled(AffExpr::var(RvId(2)), k);
                e.substitute_in_place(|v| (v == RvId(7)).then_some(k));
            }
            e
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| work(2.0));
            let b = s.spawn(|| work(-3.0));
            (a.join().expect("thread a"), b.join().expect("thread b"))
        });
        let serial = |k: f64| {
            let mut e = shared.scale(k);
            for _ in 0..1000 {
                e = e.add(&AffExpr::var(RvId(2)).scale(k));
                e = e.substitute(|v| (v == RvId(7)).then_some(k));
            }
            e
        };
        assert_eq!(a, serial(2.0));
        assert_eq!(b, serial(-3.0));
        assert_eq!(slice_ptr(&shared), p);
        assert_eq!(shared, sum(0..6));
    }

    #[test]
    fn substitute_view_reads_like_substitute() {
        let e = sum(0..12);
        for (resolve, want_vars) in [(vec![3, 5], 10), (vec![], 12), ((0..11).collect(), 1)] {
            let lookup = |v: RvId| {
                resolve
                    .contains(&v.index())
                    .then_some(0.25 * v.index() as f64)
            };
            let s = e.substitute(lookup);
            let view = e.substitute_view(lookup);
            assert_eq!(
                view.terms().collect::<Vec<_>>(),
                s.terms().collect::<Vec<_>>()
            );
            assert_eq!(view.konst().to_bits(), s.konst().to_bits());
            assert_eq!(view.as_single(), s.as_single());
            assert_eq!(s.num_vars(), want_vars);
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
