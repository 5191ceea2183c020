//! Inference results: per-particle output distributions and their weighted
//! mixture.
//!
//! At every step, `infer` returns the posterior of the model's output as a
//! [`Posterior`]: a normalized weighted mixture of per-particle
//! [`ValueDist`]s. Under a particle filter each component is a point mass;
//! under streaming delayed sampling components carry the analytic marginals
//! the graph maintained (§5.3), which is why a single SDS particle can be
//! exact.

use crate::error::RuntimeError;
use crate::marginal::Marginal;
use crate::value::Value;
use probzelus_distributions::stats;
use rand::Rng;

/// The distribution of one particle's output value.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueDist {
    /// A concrete output (particle filters; realized variables).
    Dirac(Value),
    /// An analytic marginal (delayed sampling).
    Marginal(Marginal),
    /// Componentwise distribution of a pair (the pushforward of the paper's
    /// semantics projects pairs into pairs of distributions).
    Pair(Box<ValueDist>, Box<ValueDist>),
}

impl ValueDist {
    /// Expected value mapped into `f64` (booleans as 0/1), if defined.
    pub fn mean_float(&self) -> Option<f64> {
        match self {
            ValueDist::Dirac(v) => match v {
                Value::Float(x) => Some(*x),
                Value::Int(n) => Some(*n as f64),
                Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
                _ => None,
            },
            ValueDist::Marginal(m) => m.mean_float(),
            ValueDist::Pair(_, _) => None,
        }
    }

    /// Variance mapped into `f64`, if defined.
    pub fn variance_float(&self) -> Option<f64> {
        match self {
            ValueDist::Dirac(v) => match v {
                Value::Float(_) | Value::Int(_) | Value::Bool(_) => Some(0.0),
                _ => None,
            },
            ValueDist::Marginal(m) => m.variance_float(),
            ValueDist::Pair(_, _) => None,
        }
    }

    /// Mean vector for vector-valued outputs, if defined.
    pub fn mean_vector(&self) -> Option<probzelus_distributions::Vector> {
        match self {
            ValueDist::Dirac(v) => v.as_vector().ok(),
            ValueDist::Marginal(m) => m.mean_vector(),
            ValueDist::Pair(_, _) => None,
        }
    }

    /// Probability of the closed interval `[lo, hi]`, if a closed form
    /// exists.
    pub fn prob_interval(&self, lo: f64, hi: f64) -> Option<f64> {
        match self {
            ValueDist::Dirac(v) => crate::marginal::point_prob_interval(v, lo, hi),
            ValueDist::Marginal(m) => m.prob_interval(lo, hi),
            ValueDist::Pair(_, _) => None,
        }
    }

    /// Draws a sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Value {
        match self {
            ValueDist::Dirac(v) => v.clone(),
            ValueDist::Marginal(m) => m.sample(rng),
            ValueDist::Pair(a, b) => Value::pair(a.sample(rng), b.sample(rng)),
        }
    }

    /// Splits a pair distribution into its components.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::TypeMismatch`] if the distribution is not over
    /// pairs.
    pub fn split_pair(&self) -> Result<(ValueDist, ValueDist), RuntimeError> {
        match self {
            ValueDist::Pair(a, b) => Ok(((**a).clone(), (**b).clone())),
            ValueDist::Dirac(Value::Pair(a, b)) => Ok((
                ValueDist::Dirac((**a).clone()),
                ValueDist::Dirac((**b).clone()),
            )),
            other => Err(RuntimeError::TypeMismatch {
                expected: "pair distribution",
                got: format!("{other:?}"),
            }),
        }
    }
}

/// A normalized weighted mixture of per-particle output distributions: the
/// per-step result of `infer`.
#[derive(Debug, Clone, PartialEq)]
pub struct Posterior {
    components: Vec<(f64, ValueDist)>,
}

impl Posterior {
    /// Builds a posterior from `(weight, distribution)` pairs; weights are
    /// normalized (uniform fallback when they sum to zero, mirroring a
    /// collapsed particle cloud).
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty — `infer` always has at least one
    /// particle.
    pub fn new(components: Vec<(f64, ValueDist)>) -> Self {
        assert!(
            !components.is_empty(),
            "posterior needs at least one component"
        );
        let total: f64 = components.iter().map(|(w, _)| w).sum();
        let components = if total > 0.0 && total.is_finite() {
            components
                .into_iter()
                .map(|(w, d)| (w / total, d))
                .collect()
        } else {
            let n = components.len() as f64;
            components.into_iter().map(|(_, d)| (1.0 / n, d)).collect()
        };
        Posterior { components }
    }

    /// A posterior concentrated on a single point (used for initial
    /// states and deterministic lifts).
    pub fn dirac(v: Value) -> Self {
        Posterior {
            components: vec![(1.0, ValueDist::Dirac(v))],
        }
    }

    /// The normalized `(weight, component)` pairs.
    pub fn components(&self) -> &[(f64, ValueDist)] {
        &self.components
    }

    /// Number of mixture components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether there are no components (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Posterior mean mapped into `f64` (the paper's `mean_float`).
    ///
    /// Components without a defined float mean are skipped, with their
    /// weight excluded from normalization.
    pub fn mean_float(&self) -> f64 {
        let pairs: Vec<(f64, f64)> = self
            .components
            .iter()
            .filter_map(|(w, d)| d.mean_float().map(|m| (m, *w)))
            .collect();
        stats::weighted_mean(&pairs)
    }

    /// Posterior mean vector (for vector-valued models): the weighted
    /// mean of component mean vectors. `None` if no component defines one.
    pub fn mean_vector(&self) -> Option<probzelus_distributions::Vector> {
        let mut acc: Option<probzelus_distributions::Vector> = None;
        let mut total = 0.0;
        for (w, d) in &self.components {
            if let Some(m) = d.mean_vector() {
                let scaled = m.scale(*w);
                acc = Some(match acc {
                    None => scaled,
                    Some(a) => a.add(&scaled),
                });
                total += w;
            }
        }
        acc.map(|a| a.scale(1.0 / total))
    }

    /// Posterior variance via the law of total variance.
    pub fn variance_float(&self) -> f64 {
        let mean = self.mean_float();
        let mut total_w = 0.0;
        let mut acc = 0.0;
        for (w, d) in &self.components {
            if let (Some(m), Some(v)) = (d.mean_float(), d.variance_float()) {
                acc += w * (v + (m - mean) * (m - mean));
                total_w += w;
            }
        }
        if total_w > 0.0 {
            acc / total_w
        } else {
            0.0
        }
    }

    /// Probability that the value lies in `[lo, hi]` (the paper's
    /// `probability(dist, target, eps)` used by the robot of Fig. 5).
    ///
    /// Components lacking a closed form contribute via a point-mass
    /// approximation at their mean.
    pub fn prob_interval(&self, lo: f64, hi: f64) -> f64 {
        self.components
            .iter()
            .map(|(w, d)| {
                let p = d.prob_interval(lo, hi).unwrap_or_else(|| {
                    d.mean_float()
                        .map(|m| if (lo..=hi).contains(&m) { 1.0 } else { 0.0 })
                        .unwrap_or(0.0)
                });
                w * p
            })
            .sum()
    }

    /// Draws a sample from the mixture.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Value {
        let u: f64 = rng.gen_range(0.0f64..1.0);
        let mut acc = 0.0;
        for (w, d) in &self.components {
            acc += w;
            if u < acc {
                return d.sample(rng);
            }
        }
        self.components
            .last()
            .expect("non-empty posterior")
            .1
            .sample(rng)
    }

    /// Splits a posterior over pairs into posteriors over the components
    /// (the `(π1∗(µ), π2∗(µ))` pushforward split of the semantics).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::TypeMismatch`] if a component is not over pairs.
    pub fn split_pair(&self) -> Result<(Posterior, Posterior), RuntimeError> {
        let mut left = Vec::with_capacity(self.components.len());
        let mut right = Vec::with_capacity(self.components.len());
        for (w, d) in &self.components {
            let (a, b) = d.split_pair()?;
            left.push((*w, a));
            right.push((*w, b));
        }
        Ok((Posterior::new(left), Posterior::new(right)))
    }
}

impl std::fmt::Display for Posterior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "posterior(mean={:.4}, var={:.4}, {} components)",
            self.mean_float(),
            self.variance_float(),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probzelus_distributions::Gaussian;

    fn gauss(mean: f64, var: f64) -> ValueDist {
        ValueDist::Marginal(Marginal::Gaussian(Gaussian::new(mean, var).unwrap()))
    }

    #[test]
    fn normalizes_weights() {
        let p = Posterior::new(vec![
            (2.0, ValueDist::Dirac(Value::Float(0.0))),
            (6.0, ValueDist::Dirac(Value::Float(4.0))),
        ]);
        assert!((p.mean_float() - 3.0).abs() < 1e-12);
        assert!((p.components()[0].0 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_weights_fall_back_to_uniform() {
        let p = Posterior::new(vec![
            (0.0, ValueDist::Dirac(Value::Float(0.0))),
            (0.0, ValueDist::Dirac(Value::Float(2.0))),
        ]);
        assert!((p.mean_float() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixture_variance_uses_total_variance() {
        let p = Posterior::new(vec![(0.5, gauss(-1.0, 1.0)), (0.5, gauss(1.0, 1.0))]);
        assert!(p.mean_float().abs() < 1e-12);
        assert!((p.variance_float() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn interval_probability_mixes() {
        let p = Posterior::new(vec![
            (0.5, ValueDist::Dirac(Value::Float(0.0))),
            (0.5, gauss(0.0, 1.0)),
        ]);
        let q = p.prob_interval(-0.5, 0.5);
        // 0.5·1 + 0.5·P(|Z|<0.5) ≈ 0.5 + 0.5·0.3829
        assert!((q - (0.5 + 0.5 * 0.3829)).abs() < 1e-3, "got {q}");
    }

    #[test]
    fn split_pair_posteriors() {
        let p = Posterior::new(vec![(
            1.0,
            ValueDist::Pair(
                Box::new(ValueDist::Dirac(Value::Float(1.0))),
                Box::new(gauss(2.0, 1.0)),
            ),
        )]);
        let (a, b) = p.split_pair().unwrap();
        assert!((a.mean_float() - 1.0).abs() < 1e-12);
        assert!((b.mean_float() - 2.0).abs() < 1e-12);
        // Dirac over a concrete pair also splits.
        let p = Posterior::dirac(Value::pair(Value::Float(3.0), Value::Float(4.0)));
        let (a, b) = p.split_pair().unwrap();
        assert!((a.mean_float() - 3.0).abs() < 1e-12);
        assert!((b.mean_float() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn bool_means_are_probabilities() {
        let p = Posterior::new(vec![
            (3.0, ValueDist::Dirac(Value::Bool(true))),
            (1.0, ValueDist::Dirac(Value::Bool(false))),
        ]);
        assert!((p.mean_float() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_posterior_panics() {
        let _ = Posterior::new(vec![]);
    }
}
