//! Gamma distribution (shape/rate parameterization).

use crate::gaussian::Gaussian;
use crate::special::ln_gamma;
use crate::traits::{Distribution, Moments, ParamError};
use rand::Rng;

/// Gamma distribution with shape `k` and **rate** `r` (density
/// `r^k x^{k-1} e^{-r x} / Γ(k)` on `x > 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    rate: f64,
}

/// The Gamma log-density as a free scalar kernel with the parameters
/// unpacked, behind [`Distribution::log_pdf`].
#[inline(always)]
fn log_pdf_kernel(shape: f64, rate: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return f64::NEG_INFINITY;
    }
    shape * rate.ln() + (shape - 1.0) * x.ln() - rate * x - ln_gamma(shape)
}

impl Gamma {
    /// Creates `Gamma(shape, rate)`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless both parameters are strictly positive
    /// and finite.
    pub fn new(shape: f64, rate: f64) -> Result<Self, ParamError> {
        if !(shape.is_finite() && shape > 0.0) {
            return Err(ParamError::new(format!(
                "gamma shape must be positive and finite, got {shape}"
            )));
        }
        if !(rate.is_finite() && rate > 0.0) {
            return Err(ParamError::new(format!(
                "gamma rate must be positive and finite, got {rate}"
            )));
        }
        Ok(Gamma { shape, rate })
    }

    /// Shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Rate parameter `r`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Marsaglia–Tsang sampler for shape >= 1; boosted for shape < 1.
    pub(crate) fn draw_with_shape<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
        if shape < 1.0 {
            // Boost: if X ~ Gamma(shape + 1) and U ~ Uniform(0,1) then
            // X * U^{1/shape} ~ Gamma(shape).
            let x = Self::draw_with_shape(rng, shape + 1.0);
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            return x * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let z = Gaussian::draw_std(rng);
            let v = 1.0 + c * z;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u: f64 = rng.gen_range(0.0f64..1.0);
            if u < 1.0 - 0.0331 * z * z * z * z {
                return d * v3;
            }
            if u > 0.0 && u.ln() < 0.5 * z * z + d * (1.0 - v3 + v3.ln()) {
                return d * v3;
            }
        }
    }
}

impl Distribution for Gamma {
    type Item = f64;

    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        Self::draw_with_shape(rng, self.shape) / self.rate
    }

    #[inline]
    fn log_pdf(&self, x: &f64) -> f64 {
        log_pdf_kernel(self.shape, self.rate, *x)
    }
}

impl Moments for Gamma {
    fn mean(&self) -> f64 {
        self.shape / self.rate
    }

    fn variance(&self) -> f64 {
        self.shape / (self.rate * self.rate)
    }
}

impl std::fmt::Display for Gamma {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gamma({}, {})", self.shape, self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, -1.0).is_err());
        assert!(Gamma::new(f64::NAN, 1.0).is_err());
        assert!(Gamma::new(2.0, 3.0).is_ok());
    }

    #[test]
    fn log_pdf_exponential_special_case() {
        // Gamma(1, r) is Exponential(r): density r e^{-r x}.
        let d = Gamma::new(1.0, 2.0).unwrap();
        let x = 0.7;
        let expected = (2.0f64).ln() - 2.0 * x;
        assert!((d.log_pdf(&x) - expected).abs() < 1e-12);
        assert_eq!(d.log_pdf(&-1.0), f64::NEG_INFINITY);
        assert_eq!(d.log_pdf(&0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn sample_moments_match_large_shape() {
        let d = Gamma::new(4.0, 2.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
        assert!((m - 2.0).abs() < 0.02, "mean {m}");
        assert!((v - 1.0).abs() < 0.05, "variance {v}");
    }

    #[test]
    fn sample_moments_match_small_shape() {
        let d = Gamma::new(0.5, 1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(12);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        assert!((m - 0.5).abs() < 0.02, "mean {m}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }
}
