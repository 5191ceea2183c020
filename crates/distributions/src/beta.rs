//! Beta distribution.

use crate::gamma::Gamma;
use crate::special::ln_beta;
use crate::traits::{Distribution, Moments, ParamError};
use rand::Rng;

/// Beta distribution `Beta(alpha, beta)` on the open unit interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beta {
    alpha: f64,
    beta: f64,
}

/// The Beta log-density as a free scalar kernel with the parameters
/// unpacked, behind [`Distribution::log_pdf`].
#[inline(always)]
fn log_pdf_kernel(alpha: f64, beta: f64, x: f64) -> f64 {
    if x <= 0.0 || x >= 1.0 {
        return f64::NEG_INFINITY;
    }
    (alpha - 1.0) * x.ln() + (beta - 1.0) * (1.0 - x).ln() - ln_beta(alpha, beta)
}

impl Beta {
    /// Creates `Beta(alpha, beta)`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless both parameters are strictly positive
    /// and finite.
    pub fn new(alpha: f64, beta: f64) -> Result<Self, ParamError> {
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(ParamError::new(format!(
                "beta alpha must be positive and finite, got {alpha}"
            )));
        }
        if !(beta.is_finite() && beta > 0.0) {
            return Err(ParamError::new(format!(
                "beta beta must be positive and finite, got {beta}"
            )));
        }
        Ok(Beta { alpha, beta })
    }

    /// First shape parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Second shape parameter.
    pub fn beta(&self) -> f64 {
        self.beta
    }
}

impl Distribution for Beta {
    type Item = f64;

    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let x = Gamma::draw_with_shape(rng, self.alpha);
        let y = Gamma::draw_with_shape(rng, self.beta);
        // Clamp away from the boundary so downstream Bernoulli(p) stays valid.
        (x / (x + y)).clamp(f64::MIN_POSITIVE, 1.0 - f64::EPSILON)
    }

    #[inline]
    fn log_pdf(&self, x: &f64) -> f64 {
        log_pdf_kernel(self.alpha, self.beta, *x)
    }
}

impl Moments for Beta {
    fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    fn variance(&self) -> f64 {
        let s = self.alpha + self.beta;
        self.alpha * self.beta / (s * s * (s + 1.0))
    }
}

impl std::fmt::Display for Beta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Beta({}, {})", self.alpha, self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Beta::new(0.0, 1.0).is_err());
        assert!(Beta::new(1.0, 0.0).is_err());
        assert!(Beta::new(-1.0, 1.0).is_err());
        assert!(Beta::new(1.0, 1.0).is_ok());
    }

    #[test]
    fn uniform_special_case() {
        // Beta(1,1) is Uniform(0,1): density 1 on (0,1).
        let d = Beta::new(1.0, 1.0).unwrap();
        assert!((d.log_pdf(&0.3)).abs() < 1e-12);
        assert!((d.log_pdf(&0.9)).abs() < 1e-12);
        assert_eq!(d.log_pdf(&0.0), f64::NEG_INFINITY);
        assert_eq!(d.log_pdf(&1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn moments() {
        let d = Beta::new(2.0, 6.0).unwrap();
        assert!((d.mean() - 0.25).abs() < 1e-12);
        assert!((d.variance() - (2.0 * 6.0 / (64.0 * 9.0))).abs() < 1e-12);
    }

    #[test]
    fn sample_moments_match() {
        let d = Beta::new(3.0, 2.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        assert!((m - 0.6).abs() < 0.01, "mean {m}");
        assert!(xs.iter().all(|&x| x > 0.0 && x < 1.0));
    }

    #[test]
    fn paper_outlier_prior_mean() {
        // Beta(100, 1000): "invalid readings occur approximately 10% of the
        // time" (~0.0909 exactly).
        let d = Beta::new(100.0, 1000.0).unwrap();
        assert!((d.mean() - 100.0 / 1100.0).abs() < 1e-12);
    }
}
