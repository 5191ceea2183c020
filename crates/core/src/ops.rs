//! Arithmetic and logic on runtime [`Value`]s.
//!
//! The fallible functions here implement the external operators `op(e)` of
//! the kernel language. They are *symbolic-aware*: operations that keep a
//! float expression affine (addition, subtraction, scaling) stay symbolic,
//! so delayed sampling can keep reasoning analytically; operations that
//! would leave the affine class return [`RuntimeError::NeedsValue`], which
//! evaluation contexts handle by realizing the operands and retrying.
//!
//! For ergonomic embedded models, `std::ops` impls are provided on
//! [`Value`]; they panic on errors (see each impl's documentation).

use crate::error::RuntimeError;
use crate::symbolic::AffExpr;
use crate::value::Value;
use std::borrow::Cow;

/// A numeric operand as an affine expression, borrowed where it already
/// is one.
fn as_aff(v: &Value) -> Option<Cow<'_, AffExpr>> {
    match v {
        Value::Float(x) => Some(Cow::Owned(AffExpr::constant(*x))),
        Value::Aff(e) => Some(Cow::Borrowed(e)),
        _ => None,
    }
}

fn needs_value(v: &Value) -> RuntimeError {
    RuntimeError::NeedsValue(v.to_string())
}

fn type_mismatch(expected: &'static str, v: &Value) -> RuntimeError {
    RuntimeError::TypeMismatch {
        expected,
        got: v.kind().to_string(),
    }
}

/// Addition: floats (symbolic-friendly) and integers.
pub fn add(a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(Value::Int(x + y)),
        _ => match (as_aff(a), as_aff(b)) {
            (Some(x), Some(y)) => Ok(Value::from(x.add(&y))),
            (None, _) => Err(type_mismatch("number", a)),
            (_, None) => Err(type_mismatch("number", b)),
        },
    }
}

/// Subtraction: floats (symbolic-friendly) and integers.
pub fn sub(a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(Value::Int(x - y)),
        _ => match (as_aff(a), as_aff(b)) {
            (Some(x), Some(y)) => Ok(Value::from(x.sub(&y))),
            (None, _) => Err(type_mismatch("number", a)),
            (_, None) => Err(type_mismatch("number", b)),
        },
    }
}

/// Multiplication. Symbolic × constant stays affine; symbolic × symbolic
/// requires realization.
pub fn mul(a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(Value::Int(x * y)),
        _ => match (as_aff(a), as_aff(b)) {
            (Some(x), Some(y)) => match (x.as_constant(), y.as_constant()) {
                (Some(c), _) => Ok(Value::from(y.scale(c))),
                (_, Some(c)) => Ok(Value::from(x.scale(c))),
                (None, None) => Err(needs_value(a)),
            },
            (None, _) => Err(type_mismatch("number", a)),
            (_, None) => Err(type_mismatch("number", b)),
        },
    }
}

/// Two numeric operands as owned affine expressions, or both operands
/// back unchanged.
fn owned_affs(a: Value, b: Value) -> Result<(AffExpr, AffExpr), (Value, Value)> {
    Ok(match (a, b) {
        (Value::Aff(x), Value::Aff(y)) => (x, y),
        (Value::Aff(x), Value::Float(c)) => (x, AffExpr::constant(c)),
        (Value::Float(c), Value::Aff(y)) => (AffExpr::constant(c), y),
        (Value::Float(c), Value::Float(d)) => (AffExpr::constant(c), AffExpr::constant(d)),
        pair => return Err(pair),
    })
}

/// [`add`] on owned operands: two numeric ones add as affine expressions
/// that may write the sum into an operand's term slice; any other pair
/// goes through [`add`].
pub fn add_owned(a: Value, b: Value) -> Result<Value, RuntimeError> {
    match owned_affs(a, b) {
        Ok((x, y)) => Ok(Value::from(x.add_owned(y))),
        Err((a, b)) => add(&a, &b),
    }
}

/// [`sub`] on owned operands, like [`add_owned`].
pub fn sub_owned(a: Value, b: Value) -> Result<Value, RuntimeError> {
    match owned_affs(a, b) {
        Ok((x, y)) => Ok(Value::from(x.sub_owned(y))),
        Err((a, b)) => sub(&a, &b),
    }
}

/// A numeric product as the expression and the scalar it scales by, as
/// [`mul`] picks them: the left operand is the scalar when it is constant.
/// Symbolic × symbolic needs realization.
fn scaling(x: AffExpr, y: AffExpr) -> Result<(AffExpr, f64), RuntimeError> {
    match (x.as_constant(), y.as_constant()) {
        (Some(c), _) => Ok((y, c)),
        (_, Some(c)) => Ok((x, c)),
        (None, None) => Err(needs_value(&Value::Aff(x))),
    }
}

/// [`mul`] on owned operands, like [`add_owned`].
pub fn mul_owned(a: Value, b: Value) -> Result<Value, RuntimeError> {
    match owned_affs(a, b) {
        Ok((x, y)) => {
            let (e, k) = scaling(x, y)?;
            Ok(Value::from(e.scale_owned(k)))
        }
        Err((a, b)) => mul(&a, &b),
    }
}

/// `x + a·b`, or `a·b + x` when `product_first`: the value of
/// `add(x, mul(a, b))` (operands in that order, which decides the operand
/// an error names), with the same errors. When all three are numeric and
/// the product stays affine the two are fused ([`AffExpr::add_scaled`]),
/// so the product is never built and the sum may be written into `x`'s
/// term slice.
pub fn add_mul_owned(
    x: Value,
    a: Value,
    b: Value,
    product_first: bool,
) -> Result<Value, RuntimeError> {
    let sum = |x: &Value, t: &Value| {
        if product_first {
            add(t, x)
        } else {
            add(x, t)
        }
    };
    let (y, k) = match owned_affs(a, b) {
        Ok((p, q)) => scaling(p, q)?,
        Err((a, b)) => return sum(&x, &mul(&a, &b)?),
    };
    let x = match x {
        Value::Aff(x) => x,
        Value::Float(c) => AffExpr::constant(c),
        x => return sum(&x, &Value::from(y.scale_owned(k))),
    };
    Ok(Value::from(x.add_scaled(y, k)))
}

/// Division. Symbolic ÷ constant stays affine; anything ÷ symbolic requires
/// realization.
///
/// Integer division truncates toward zero, like Rust's `/`.
pub fn div(a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => {
            if *y == 0 {
                Err(RuntimeError::DivisionByZero)
            } else {
                Ok(Value::Int(x / y))
            }
        }
        _ => match (as_aff(a), as_aff(b)) {
            (Some(x), Some(y)) => match y.as_constant() {
                Some(c) => {
                    if c == 0.0 {
                        Err(RuntimeError::DivisionByZero)
                    } else {
                        Ok(Value::from(x.scale(1.0 / c)))
                    }
                }
                None => Err(needs_value(b)),
            },
            (None, _) => Err(type_mismatch("number", a)),
            (_, None) => Err(type_mismatch("number", b)),
        },
    }
}

/// Arithmetic negation.
pub fn neg(a: &Value) -> Result<Value, RuntimeError> {
    match a {
        Value::Int(x) => Ok(Value::Int(-x)),
        _ => match as_aff(a) {
            Some(x) => Ok(Value::from(x.scale(-1.0))),
            None => Err(type_mismatch("number", a)),
        },
    }
}

/// Boolean negation.
pub fn not(a: &Value) -> Result<Value, RuntimeError> {
    Ok(Value::Bool(!a.as_bool()?))
}

/// Boolean conjunction (strict — both sides already evaluated).
pub fn and(a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    Ok(Value::Bool(a.as_bool()? && b.as_bool()?))
}

/// Boolean disjunction (strict).
pub fn or(a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    Ok(Value::Bool(a.as_bool()? || b.as_bool()?))
}

fn numeric_pair(a: &Value, b: &Value) -> Result<(f64, f64), RuntimeError> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok((*x as f64, *y as f64)),
        _ => Ok((a.as_float()?, b.as_float()?)),
    }
}

/// Strict less-than on numbers. Symbolic operands must be realized first.
pub fn lt(a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    let (x, y) = numeric_pair(a, b)?;
    Ok(Value::Bool(x < y))
}

/// Less-or-equal on numbers.
pub fn le(a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    let (x, y) = numeric_pair(a, b)?;
    Ok(Value::Bool(x <= y))
}

/// Greater-than on numbers.
pub fn gt(a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    let (x, y) = numeric_pair(a, b)?;
    Ok(Value::Bool(x > y))
}

/// Greater-or-equal on numbers.
pub fn ge(a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    let (x, y) = numeric_pair(a, b)?;
    Ok(Value::Bool(x >= y))
}

/// Structural equality. Symbolic operands must be realized first.
pub fn eq(a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    if a.is_symbolic() {
        return Err(needs_value(a));
    }
    if b.is_symbolic() {
        return Err(needs_value(b));
    }
    Ok(Value::Bool(a == b))
}

/// First projection of a pair.
pub fn fst(a: &Value) -> Result<Value, RuntimeError> {
    Ok(a.as_pair()?.0.clone())
}

/// Second projection of a pair.
pub fn snd(a: &Value) -> Result<Value, RuntimeError> {
    Ok(a.as_pair()?.1.clone())
}

/// Applies a float function (`exp`, `ln`, `sqrt`, …) to a concrete float.
pub fn float_fn(a: &Value, f: impl FnOnce(f64) -> f64) -> Result<Value, RuntimeError> {
    Ok(Value::Float(f(a.as_float()?)))
}

/// Binary float function (`min`, `max`, `pow`, …) on concrete floats.
pub fn float_fn2(
    a: &Value,
    b: &Value,
    f: impl FnOnce(f64, f64) -> f64,
) -> Result<Value, RuntimeError> {
    Ok(Value::Float(f(a.as_float()?, b.as_float()?)))
}

macro_rules! panicking_binop {
    ($trait_:ident, $method:ident, $func:ident) => {
        impl std::ops::$trait_ for Value {
            type Output = Value;

            /// # Panics
            ///
            /// Panics on type errors and on symbolic operands that would
            /// need realization; use the same-named fallible function in
            /// [`crate::ops`], or realize via `ProbCtx::force` first.
            fn $method(self, rhs: Value) -> Value {
                $func(&self, &rhs).unwrap_or_else(|e| panic!("Value::{}: {e}", stringify!($method)))
            }
        }

        impl std::ops::$trait_ for &Value {
            type Output = Value;

            /// Borrowed variant of the panicking operator.
            fn $method(self, rhs: &Value) -> Value {
                $func(self, rhs).unwrap_or_else(|e| panic!("Value::{}: {e}", stringify!($method)))
            }
        }
    };
}

panicking_binop!(Add, add, add);
panicking_binop!(Sub, sub, sub);
panicking_binop!(Mul, mul, mul);
panicking_binop!(Div, div, div);

impl std::ops::Neg for Value {
    type Output = Value;

    /// # Panics
    ///
    /// Panics if the value is not numeric.
    fn neg(self) -> Value {
        neg(&self).unwrap_or_else(|e| panic!("Value::neg: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::RvId;

    fn sym(i: usize) -> Value {
        Value::Aff(AffExpr::var(RvId(i)))
    }

    #[test]
    fn float_arithmetic() {
        assert_eq!(
            add(&Value::Float(1.0), &Value::Float(2.0)).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            mul(&Value::Float(3.0), &Value::Float(2.0)).unwrap(),
            Value::Float(6.0)
        );
        assert_eq!(
            div(&Value::Float(3.0), &Value::Float(2.0)).unwrap(),
            Value::Float(1.5)
        );
    }

    #[test]
    fn int_arithmetic_stays_int() {
        assert_eq!(add(&Value::Int(1), &Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(div(&Value::Int(7), &Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(
            div(&Value::Int(1), &Value::Int(0)),
            Err(RuntimeError::DivisionByZero)
        );
    }

    #[test]
    fn symbolic_affine_closure() {
        // x + 1 stays symbolic
        let e = add(&sym(0), &Value::Float(1.0)).unwrap();
        assert!(e.is_symbolic());
        // 2 * (x + 1) stays symbolic
        let e2 = mul(&Value::Float(2.0), &e).unwrap();
        match &e2 {
            Value::Aff(a) => assert_eq!(a.as_single(), Some((RvId(0), 2.0, 2.0))),
            other => panic!("expected affine, got {other}"),
        }
        // x - x collapses to the concrete 0
        let z = sub(&sym(0), &sym(0)).unwrap();
        assert_eq!(z, Value::Float(0.0));
    }

    #[test]
    fn nonaffine_combinations_need_values() {
        assert!(matches!(
            mul(&sym(0), &sym(1)),
            Err(RuntimeError::NeedsValue(_))
        ));
        assert!(matches!(
            div(&Value::Float(1.0), &sym(0)),
            Err(RuntimeError::NeedsValue(_))
        ));
        assert!(lt(&sym(0), &Value::Float(0.0)).is_err());
        assert!(eq(&sym(0), &sym(0)).is_err());
    }

    #[test]
    fn comparisons_mix_ints_and_stay_typed() {
        assert_eq!(
            lt(&Value::Int(1), &Value::Int(2)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            ge(&Value::Float(2.0), &Value::Float(2.0)).unwrap(),
            Value::Bool(true)
        );
        assert!(lt(&Value::Bool(true), &Value::Int(2)).is_err());
    }

    #[test]
    fn logic_ops() {
        assert_eq!(
            and(&Value::Bool(true), &Value::Bool(false)).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            or(&Value::Bool(true), &Value::Bool(false)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(not(&Value::Bool(true)).unwrap(), Value::Bool(false));
        assert!(not(&Value::Float(1.0)).is_err());
    }

    #[test]
    fn projections() {
        let p = Value::pair(Value::Int(1), Value::Bool(true));
        assert_eq!(fst(&p).unwrap(), Value::Int(1));
        assert_eq!(snd(&p).unwrap(), Value::Bool(true));
        assert!(fst(&Value::Unit).is_err());
    }

    #[test]
    fn std_ops_work_for_concrete_values() {
        let v = Value::Float(1.0) + Value::Float(2.0);
        assert_eq!(v, Value::Float(3.0));
        let v = &Value::Float(3.0) * &Value::Float(4.0);
        assert_eq!(v, Value::Float(12.0));
        assert_eq!(-Value::Float(2.0), Value::Float(-2.0));
    }

    #[test]
    #[should_panic(expected = "Value::mul")]
    fn std_ops_panic_on_nonaffine() {
        let _ = sym(0) * sym(1);
    }

    #[test]
    fn float_helpers() {
        assert_eq!(
            float_fn(&Value::Float(0.0), f64::exp).unwrap(),
            Value::Float(1.0)
        );
        assert_eq!(
            float_fn2(&Value::Float(1.0), &Value::Float(2.0), f64::max).unwrap(),
            Value::Float(2.0)
        );
    }
}
