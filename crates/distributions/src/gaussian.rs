//! Univariate Gaussian (normal) distribution.

use crate::special::std_normal_cdf;
use crate::traits::{Distribution, Moments, ParamError};
use rand::Rng;

/// Gaussian distribution `N(mean, var)` parameterized by mean and
/// **variance** (not standard deviation), following the convention used
/// throughout the ProbZelus paper (`gaussian(0., 100.)` is the wide prior of
/// the Kalman benchmark).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    var: f64,
}

/// `ln(2π)`, hoisted out of the `log_pdf` hot path. Bit-identical to the
/// runtime value `(2.0 * std::f64::consts::PI).ln()` (asserted in tests),
/// so hoisting it preserves the determinism contract.
const LN_2PI: f64 = 1.837_877_066_409_345_3_f64;

/// The Gaussian log-density as a free scalar kernel with the parameters
/// unpacked, behind [`Distribution::log_pdf`].
#[inline(always)]
fn log_pdf_kernel(mean: f64, var: f64, x: f64) -> f64 {
    let d = x - mean;
    -0.5 * (d * d / var + var.ln() + LN_2PI)
}

impl Gaussian {
    /// Creates `N(mean, var)`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `var` is not a strictly positive finite
    /// number or `mean` is not finite.
    pub fn new(mean: f64, var: f64) -> Result<Self, ParamError> {
        if !mean.is_finite() {
            return Err(ParamError::new(format!(
                "gaussian mean must be finite, got {mean}"
            )));
        }
        if !(var.is_finite() && var > 0.0) {
            return Err(ParamError::new(format!(
                "gaussian variance must be positive and finite, got {var}"
            )));
        }
        Ok(Gaussian { mean, var })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Gaussian {
            mean: 0.0,
            var: 1.0,
        }
    }

    /// Mean parameter.
    pub fn mean_param(&self) -> f64 {
        self.mean
    }

    /// Variance parameter.
    pub fn var_param(&self) -> f64 {
        self.var
    }

    /// Cumulative distribution function `P(X <= x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mean) / self.var.sqrt())
    }

    /// Probability that `X` lands in the closed interval `[lo, hi]`.
    ///
    /// Returns `0.0` if `hi < lo`.
    pub fn prob_interval(&self, lo: f64, hi: f64) -> f64 {
        if hi < lo {
            return 0.0;
        }
        (self.cdf(hi) - self.cdf(lo)).max(0.0)
    }

    /// Draws a standard-normal variate with the Marsaglia polar method.
    #[inline]
    pub(crate) fn draw_std<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

impl Distribution for Gaussian {
    type Item = f64;

    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.var.sqrt() * Self::draw_std(rng)
    }

    #[inline]
    fn log_pdf(&self, x: &f64) -> f64 {
        log_pdf_kernel(self.mean, self.var, *x)
    }
}

impl Moments for Gaussian {
    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.var
    }
}

impl std::fmt::Display for Gaussian {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N({}, {})", self.mean, self.var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Gaussian::new(0.0, 0.0).is_err());
        assert!(Gaussian::new(0.0, -1.0).is_err());
        assert!(Gaussian::new(f64::NAN, 1.0).is_err());
        assert!(Gaussian::new(0.0, f64::INFINITY).is_err());
        assert!(Gaussian::new(1.5, 2.5).is_ok());
    }

    #[test]
    fn log_pdf_standard_normal_at_zero() {
        let d = Gaussian::standard();
        let expected = -0.5 * (2.0 * std::f64::consts::PI).ln();
        assert!((d.log_pdf(&0.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn hoisted_ln_2pi_is_bit_identical_to_runtime() {
        let runtime = (2.0 * std::f64::consts::PI).ln();
        assert_eq!(LN_2PI.to_bits(), runtime.to_bits());
    }

    #[test]
    fn log_pdf_is_symmetric_about_mean() {
        let d = Gaussian::new(3.0, 4.0).unwrap();
        assert!((d.log_pdf(&5.0) - d.log_pdf(&1.0)).abs() < 1e-12);
    }

    #[test]
    fn sample_moments_match() {
        let d = Gaussian::new(-2.0, 9.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
        assert!((m - -2.0).abs() < 0.05, "mean {m}");
        assert!((v - 9.0).abs() < 0.2, "variance {v}");
    }

    #[test]
    fn cdf_and_interval() {
        let d = Gaussian::new(0.0, 1.0).unwrap();
        assert!((d.cdf(0.0) - 0.5).abs() < 1e-6);
        // ~68% within one std dev.
        let p = d.prob_interval(-1.0, 1.0);
        assert!((p - 0.6827).abs() < 1e-3, "got {p}");
        assert_eq!(d.prob_interval(1.0, -1.0), 0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Gaussian::standard().to_string(), "N(0, 1)");
    }
}
