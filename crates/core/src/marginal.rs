//! Concrete distributions as runtime objects.
//!
//! A [`Marginal`] is a fully-parameterized distribution: the marginal
//! attached to a delayed-sampling graph node, the result of evaluating a
//! [`crate::value::DistExpr`] with concrete parameters, and the component
//! type of inference posteriors.

use crate::error::RuntimeError;
use crate::value::Value;
use probzelus_distributions::{
    Bernoulli, Beta, BetaBinomial, Binomial, Distribution, Exponential, Gamma, Gaussian, Lomax,
    Moments, MvGaussian, NegativeBinomial, Poisson, Uniform, Vector,
};
use rand::Rng;

/// The family a marginal belongs to (used by the conjugacy detector to
/// decide whether a symbolic parent supports an analytic link).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Gaussian (float valued).
    Gaussian,
    /// Beta (float in `(0,1)`).
    Beta,
    /// Gamma (positive float).
    Gamma,
    /// Uniform (float).
    Uniform,
    /// Bernoulli (boolean valued).
    Bernoulli,
    /// Poisson (count valued).
    Poisson,
    /// Binomial (count valued).
    Binomial,
    /// Beta-binomial (count valued).
    BetaBinomial,
    /// Negative binomial (count valued).
    NegBinomial,
    /// Multivariate Gaussian (vector valued).
    MvGaussian,
    /// Exponential (non-negative float).
    Exponential,
    /// Lomax / Pareto-II (non-negative float; delayed exponential marginal).
    Lomax,
    /// Point mass.
    Dirac,
}

/// A concrete (fully parameterized) distribution over [`Value`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum Marginal {
    /// Point mass on a value (realized variables, lifted constants).
    Dirac(Box<Value>),
    /// Gaussian.
    Gaussian(Gaussian),
    /// Beta.
    Beta(Beta),
    /// Gamma.
    Gamma(Gamma),
    /// Uniform.
    Uniform(Uniform),
    /// Bernoulli over booleans.
    Bernoulli(Bernoulli),
    /// Poisson over counts.
    Poisson(Poisson),
    /// Binomial over counts.
    Binomial(Binomial),
    /// Beta-binomial over counts (delayed binomial marginal).
    BetaBinomial(BetaBinomial),
    /// Negative binomial over counts (delayed Poisson marginal).
    NegBinomial(NegativeBinomial),
    /// Multivariate Gaussian over float vectors (represented as
    /// [`Value::Array`] of floats). Boxed: the three matrices would
    /// otherwise dominate `size_of::<Marginal>()` (104 bytes vs 16 for
    /// the scalar families), and every delayed-sampling node-state write
    /// pays that size.
    MvGaussian(Box<MvGaussian>),
    /// Exponential over non-negative floats.
    Exponential(Exponential),
    /// Lomax over non-negative floats (delayed exponential marginal).
    Lomax(Lomax),
}

impl Marginal {
    /// The family tag.
    pub fn family(&self) -> Family {
        match self {
            Marginal::Dirac(_) => Family::Dirac,
            Marginal::Gaussian(_) => Family::Gaussian,
            Marginal::Beta(_) => Family::Beta,
            Marginal::Gamma(_) => Family::Gamma,
            Marginal::Uniform(_) => Family::Uniform,
            Marginal::Bernoulli(_) => Family::Bernoulli,
            Marginal::Poisson(_) => Family::Poisson,
            Marginal::Binomial(_) => Family::Binomial,
            Marginal::BetaBinomial(_) => Family::BetaBinomial,
            Marginal::NegBinomial(_) => Family::NegBinomial,
            Marginal::MvGaussian(_) => Family::MvGaussian,
            Marginal::Exponential(_) => Family::Exponential,
            Marginal::Lomax(_) => Family::Lomax,
        }
    }

    /// Whether this is a point mass.
    pub fn is_dirac(&self) -> bool {
        matches!(self, Marginal::Dirac(_))
    }

    /// Draws a sample as a [`Value`] (floats for continuous families,
    /// booleans for Bernoulli, integers for count families).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Value {
        match self {
            Marginal::Dirac(v) => (**v).clone(),
            Marginal::Gaussian(d) => Value::Float(d.sample(rng)),
            Marginal::Beta(d) => Value::Float(d.sample(rng)),
            Marginal::Gamma(d) => Value::Float(d.sample(rng)),
            Marginal::Uniform(d) => Value::Float(d.sample(rng)),
            Marginal::Bernoulli(d) => Value::Bool(d.sample(rng)),
            Marginal::Poisson(d) => Value::Int(d.sample(rng) as i64),
            Marginal::Binomial(d) => Value::Int(d.sample(rng) as i64),
            Marginal::BetaBinomial(d) => Value::Int(d.sample(rng) as i64),
            Marginal::NegBinomial(d) => Value::Int(d.sample(rng) as i64),
            Marginal::MvGaussian(d) => Value::from_vector(&d.sample(rng)),
            Marginal::Exponential(d) => Value::Float(d.sample(rng)),
            Marginal::Lomax(d) => Value::Float(d.sample(rng)),
        }
    }

    /// Log density (or mass) of an observed value.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::TypeMismatch`] if the observation's type does not
    /// match the distribution's support.
    pub fn log_pdf(&self, v: &Value) -> Result<f64, RuntimeError> {
        match self {
            Marginal::Dirac(point) => Ok(if **point == *v {
                0.0
            } else {
                f64::NEG_INFINITY
            }),
            Marginal::Gaussian(d) => Ok(d.log_pdf(&v.as_float()?)),
            Marginal::Beta(d) => Ok(d.log_pdf(&v.as_float()?)),
            Marginal::Gamma(d) => Ok(d.log_pdf(&v.as_float()?)),
            Marginal::Uniform(d) => Ok(d.log_pdf(&v.as_float()?)),
            Marginal::Bernoulli(d) => Ok(d.log_pdf(&v.as_bool()?)),
            Marginal::Poisson(d) => Ok(d.log_pdf(&v.as_count()?)),
            Marginal::Binomial(d) => Ok(d.log_pdf(&v.as_count()?)),
            Marginal::BetaBinomial(d) => Ok(d.log_pdf(&v.as_count()?)),
            Marginal::NegBinomial(d) => Ok(d.log_pdf(&v.as_count()?)),
            Marginal::MvGaussian(d) => {
                let x = v.as_vector()?;
                if x.dim() != d.dim() {
                    return Err(RuntimeError::InvalidObservation(format!(
                        "expected a {}-dimensional observation, got {}",
                        d.dim(),
                        x.dim()
                    )));
                }
                Ok(d.log_pdf(&x))
            }
            Marginal::Exponential(d) => Ok(d.log_pdf(&v.as_float()?)),
            Marginal::Lomax(d) => Ok(d.log_pdf(&v.as_float()?)),
        }
    }

    /// Mean, mapped into `f64` (booleans as 0/1, counts as floats).
    /// `None` for non-numeric Dirac points.
    pub fn mean_float(&self) -> Option<f64> {
        match self {
            Marginal::Dirac(v) => match &**v {
                Value::Float(x) => Some(*x),
                Value::Int(n) => Some(*n as f64),
                Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
                _ => None,
            },
            Marginal::Gaussian(d) => Some(d.mean()),
            Marginal::Beta(d) => Some(d.mean()),
            Marginal::Gamma(d) => Some(d.mean()),
            Marginal::Uniform(d) => Some(d.mean()),
            Marginal::Bernoulli(d) => Some(d.mean()),
            Marginal::Poisson(d) => Some(d.mean()),
            Marginal::Binomial(d) => Some(d.mean()),
            Marginal::BetaBinomial(d) => Some(d.mean()),
            Marginal::NegBinomial(d) => Some(d.mean()),
            Marginal::MvGaussian(_) => None,
            Marginal::Exponential(d) => Some(d.mean()),
            Marginal::Lomax(d) => Some(d.mean()),
        }
    }

    /// Variance, mapped into `f64` like [`Marginal::mean_float`].
    pub fn variance_float(&self) -> Option<f64> {
        match self {
            Marginal::Dirac(v) => match &**v {
                Value::Float(_) | Value::Int(_) | Value::Bool(_) => Some(0.0),
                _ => None,
            },
            Marginal::Gaussian(d) => Some(d.variance()),
            Marginal::Beta(d) => Some(d.variance()),
            Marginal::Gamma(d) => Some(d.variance()),
            Marginal::Uniform(d) => Some(d.variance()),
            Marginal::Bernoulli(d) => Some(d.variance()),
            Marginal::Poisson(d) => Some(d.variance()),
            Marginal::Binomial(d) => Some(d.variance()),
            Marginal::BetaBinomial(d) => Some(d.variance()),
            Marginal::NegBinomial(d) => Some(d.variance()),
            Marginal::MvGaussian(_) => None,
            Marginal::Exponential(d) => Some(d.variance()),
            Marginal::Lomax(d) => Some(d.variance()),
        }
    }

    /// Mean vector for vector-valued marginals (multivariate Gaussian or
    /// a Dirac on a float array); `None` otherwise.
    pub fn mean_vector(&self) -> Option<Vector> {
        match self {
            Marginal::MvGaussian(d) => Some(d.mean().clone()),
            Marginal::Dirac(v) => v.as_vector().ok(),
            _ => None,
        }
    }

    /// Probability that the value falls in the closed interval `[lo, hi]`,
    /// where closed forms exist (Gaussian, Uniform, numeric Dirac); `None`
    /// otherwise.
    pub fn prob_interval(&self, lo: f64, hi: f64) -> Option<f64> {
        if hi < lo {
            return Some(0.0);
        }
        match self {
            Marginal::Dirac(v) => point_prob_interval(v, lo, hi),
            Marginal::Gaussian(d) => Some(d.prob_interval(lo, hi)),
            Marginal::Exponential(d) => Some((d.cdf(hi) - d.cdf(lo)).max(0.0)),
            Marginal::Uniform(d) => {
                let a = lo.max(d.lo());
                let b = hi.min(d.hi());
                Some(((b - a) / (d.hi() - d.lo())).clamp(0.0, 1.0))
            }
            _ => None,
        }
    }

    /// The image of this marginal under the affine map `x ↦ a·x + b`.
    ///
    /// Closed under the map: Gaussian and numeric Dirac. Returns `None`
    /// for other families (caller should realize instead).
    pub fn affine_transform(&self, a: f64, b: f64) -> Option<Marginal> {
        match self {
            Marginal::Gaussian(d) => {
                if a == 0.0 {
                    return Some(Marginal::Dirac(Box::new(Value::Float(b))));
                }
                Some(Marginal::Gaussian(
                    Gaussian::new(a * d.mean_param() + b, a * a * d.var_param())
                        .expect("positive variance under nonzero scaling"),
                ))
            }
            Marginal::Dirac(v) => match &**v {
                Value::Float(x) => Some(Marginal::Dirac(Box::new(Value::Float(a * x + b)))),
                Value::Int(n) => Some(Marginal::Dirac(Box::new(Value::Float(a * *n as f64 + b)))),
                _ => None,
            },
            _ => None,
        }
    }
}

impl std::fmt::Display for Marginal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Marginal::Dirac(v) => write!(f, "δ({v})"),
            Marginal::Gaussian(d) => write!(f, "{d}"),
            Marginal::Beta(d) => write!(f, "{d}"),
            Marginal::Gamma(d) => write!(f, "{d}"),
            Marginal::Uniform(d) => write!(f, "{d}"),
            Marginal::Bernoulli(d) => write!(f, "{d}"),
            Marginal::Poisson(d) => write!(f, "{d}"),
            Marginal::Binomial(d) => write!(f, "{d}"),
            Marginal::BetaBinomial(d) => write!(f, "{d}"),
            Marginal::NegBinomial(d) => write!(f, "{d}"),
            Marginal::MvGaussian(d) => {
                write!(f, "MvN(dim {})", d.dim())
            }
            Marginal::Exponential(d) => write!(f, "{d}"),
            Marginal::Lomax(d) => write!(f, "{d}"),
        }
    }
}

/// [`Marginal::prob_interval`] of a point mass at `v`, answered in place
/// (no `Marginal::Dirac` box around a clone of `v`).
pub(crate) fn point_prob_interval(v: &Value, lo: f64, hi: f64) -> Option<f64> {
    if hi < lo {
        return Some(0.0);
    }
    let x = match v {
        Value::Float(x) => *x,
        Value::Int(n) => *n as f64,
        _ => return None,
    };
    Some(if (lo..=hi).contains(&x) { 1.0 } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn dirac_log_pdf_and_moments() {
        let m = Marginal::Dirac(Box::new(Value::Float(2.0)));
        assert_eq!(m.log_pdf(&Value::Float(2.0)).unwrap(), 0.0);
        assert_eq!(m.log_pdf(&Value::Float(2.1)).unwrap(), f64::NEG_INFINITY);
        assert_eq!(m.mean_float(), Some(2.0));
        assert_eq!(m.variance_float(), Some(0.0));
        assert_eq!(m.prob_interval(1.0, 3.0), Some(1.0));
        assert_eq!(m.prob_interval(3.0, 4.0), Some(0.0));
    }

    #[test]
    fn bool_dirac_maps_to_01() {
        let m = Marginal::Dirac(Box::new(Value::Bool(true)));
        assert_eq!(m.mean_float(), Some(1.0));
    }

    #[test]
    fn gaussian_marginal_roundtrip() {
        let m = Marginal::Gaussian(Gaussian::new(1.0, 4.0).unwrap());
        assert_eq!(m.family(), Family::Gaussian);
        assert_eq!(m.mean_float(), Some(1.0));
        assert_eq!(m.variance_float(), Some(4.0));
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(matches!(m.sample(&mut rng), Value::Float(_)));
    }

    #[test]
    fn log_pdf_type_checks() {
        let m = Marginal::Gaussian(Gaussian::standard());
        assert!(m.log_pdf(&Value::Bool(true)).is_err());
        let m = Marginal::Bernoulli(Bernoulli::new(0.5).unwrap());
        assert!(m.log_pdf(&Value::Float(0.5)).is_err());
        assert!(m.log_pdf(&Value::Bool(false)).is_ok());
    }

    #[test]
    fn affine_transform_gaussian() {
        let m = Marginal::Gaussian(Gaussian::new(1.0, 2.0).unwrap());
        let t = m.affine_transform(3.0, -1.0).unwrap();
        match t {
            Marginal::Gaussian(g) => {
                assert!((g.mean_param() - 2.0).abs() < 1e-12);
                assert!((g.var_param() - 18.0).abs() < 1e-12);
            }
            other => panic!("expected gaussian, got {other}"),
        }
        // Degenerate scaling produces a point mass.
        assert!(m.affine_transform(0.0, 5.0).unwrap().is_dirac());
        // Betas are not affine-closed.
        let b = Marginal::Beta(Beta::new(1.0, 1.0).unwrap());
        assert!(b.affine_transform(2.0, 0.0).is_none());
    }

    #[test]
    fn uniform_interval_probability() {
        let m = Marginal::Uniform(Uniform::new(0.0, 10.0).unwrap());
        assert_eq!(m.prob_interval(0.0, 5.0), Some(0.5));
        assert_eq!(m.prob_interval(-5.0, 20.0), Some(1.0));
        assert_eq!(m.prob_interval(20.0, 30.0), Some(0.0));
    }
}
