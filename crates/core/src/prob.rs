//! Probabilistic evaluation contexts.
//!
//! A [`ProbCtx`] is the capability handed to a probabilistic model's step
//! function — the `prob` argument threaded through every probabilistic node
//! in the paper's implementation. The operational meaning of `sample` /
//! `observe` / `factor` depends on the inference engine:
//!
//! * [`SampleCtx`] — the importance-sampling semantics of Fig. 13:
//!   `sample` draws eagerly, `observe` scores against a concrete density.
//! * [`DsCtx`] — the delayed-sampling semantics of Fig. 14: `sample`
//!   introduces a symbolic random variable, `observe` conditions the graph
//!   analytically; values are realized only when forced.

use crate::ds::graph::Graph;
use crate::error::RuntimeError;
use crate::posterior::ValueDist;
use crate::value::{DistExpr, Value};
use rand::rngs::SmallRng;

/// The probabilistic operations available to a model during one step.
pub trait ProbCtx {
    /// Draws from (or symbolically introduces) a random variable with the
    /// given distribution.
    ///
    /// # Errors
    ///
    /// Parameter-validation and typing errors.
    fn sample(&mut self, d: &DistExpr) -> Result<Value, RuntimeError>;

    /// Conditions the execution on observing `v` from distribution `d`,
    /// updating the particle's importance weight.
    ///
    /// # Errors
    ///
    /// Parameter-validation and typing errors.
    fn observe(&mut self, d: &DistExpr, v: &Value) -> Result<(), RuntimeError>;

    /// Multiplies the particle's importance weight by `exp(log_w)` —
    /// the paper's `factor` (scores are kept in log scale).
    fn factor(&mut self, log_w: f64);

    /// Realizes every random variable referenced by `v`, returning the
    /// concrete value — the paper's `value` operator, also available to
    /// programs (§5.3 uses it to bound the `walk` model's memory).
    ///
    /// # Errors
    ///
    /// Graph errors.
    fn force(&mut self, v: &Value) -> Result<Value, RuntimeError>;

    /// The distribution of `v` under the current particle, without
    /// realizing anything — the paper's `distribution` function.
    ///
    /// # Errors
    ///
    /// Graph errors.
    fn dist_of(&mut self, v: &Value) -> Result<ValueDist, RuntimeError>;

    /// Substitutes already-realized random variables in `v` without
    /// realizing anything new. Models that force variables with a sliding
    /// window (§5.3) call this on their stored state so symbolic affine
    /// expressions do not accumulate stale references.
    fn simplify(&mut self, v: &Value) -> Value {
        v.clone()
    }

    /// The log importance weight accumulated so far this step.
    fn log_weight(&self) -> f64;
}

/// Eager sampling context (importance sampling / particle filtering).
#[derive(Debug)]
pub struct SampleCtx<'a> {
    rng: &'a mut SmallRng,
    log_w: f64,
}

impl<'a> SampleCtx<'a> {
    /// Creates a context drawing randomness from `rng` with weight 1.
    pub fn new(rng: &'a mut SmallRng) -> Self {
        SampleCtx { rng, log_w: 0.0 }
    }
}

impl ProbCtx for SampleCtx<'_> {
    fn sample(&mut self, d: &DistExpr) -> Result<Value, RuntimeError> {
        Ok(d.concrete()?.sample(self.rng))
    }

    fn observe(&mut self, d: &DistExpr, v: &Value) -> Result<(), RuntimeError> {
        self.log_w += d.concrete()?.log_pdf(v)?;
        Ok(())
    }

    fn factor(&mut self, log_w: f64) {
        self.log_w += log_w;
    }

    fn force(&mut self, v: &Value) -> Result<Value, RuntimeError> {
        // Values are always concrete under eager sampling.
        if v.is_symbolic() {
            return Err(RuntimeError::NeedsValue(v.to_string()));
        }
        Ok(v.clone())
    }

    fn dist_of(&mut self, v: &Value) -> Result<ValueDist, RuntimeError> {
        Ok(ValueDist::Dirac(v.clone()))
    }

    fn log_weight(&self) -> f64 {
        self.log_w
    }
}

/// Delayed-sampling context: operations go through a per-particle
/// [`Graph`].
#[derive(Debug)]
pub struct DsCtx<'a> {
    graph: &'a mut Graph,
    rng: &'a mut SmallRng,
    log_w: f64,
}

impl<'a> DsCtx<'a> {
    /// Creates a context over the given particle graph. Weights accumulate
    /// in [`ProbCtx::log_weight`].
    pub fn new(graph: &'a mut Graph, rng: &'a mut SmallRng) -> Self {
        DsCtx {
            graph,
            rng,
            log_w: 0.0,
        }
    }

    /// The underlying graph (for metrics and tests).
    pub fn graph(&self) -> &Graph {
        self.graph
    }
}

impl ProbCtx for DsCtx<'_> {
    fn sample(&mut self, d: &DistExpr) -> Result<Value, RuntimeError> {
        self.graph.assume(d, self.rng)
    }

    fn observe(&mut self, d: &DistExpr, v: &Value) -> Result<(), RuntimeError> {
        self.log_w += self.graph.observe(d, v, self.rng)?;
        Ok(())
    }

    fn factor(&mut self, log_w: f64) {
        self.log_w += log_w;
    }

    fn force(&mut self, v: &Value) -> Result<Value, RuntimeError> {
        self.graph.force_value(v, self.rng)
    }

    fn dist_of(&mut self, v: &Value) -> Result<ValueDist, RuntimeError> {
        self.graph.dist_of(v, self.rng)
    }

    fn simplify(&mut self, v: &Value) -> Value {
        self.graph.simplify_value(v)
    }

    fn log_weight(&self) -> f64 {
        self.log_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ds::graph::Retention;
    use rand::SeedableRng;

    #[test]
    fn sample_ctx_draws_eagerly_and_scores() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = SampleCtx::new(&mut rng);
        let v = ctx.sample(&DistExpr::gaussian(0.0, 1.0)).unwrap();
        assert!(matches!(v, Value::Float(_)));
        assert_eq!(ctx.log_weight(), 0.0);
        ctx.observe(&DistExpr::gaussian(0.0, 1.0), &Value::Float(0.0))
            .unwrap();
        let expected = -0.5 * (2.0 * std::f64::consts::PI).ln();
        assert!((ctx.log_weight() - expected).abs() < 1e-12);
        ctx.factor(1.0);
        assert!((ctx.log_weight() - expected - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ds_ctx_stays_symbolic_until_forced() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut graph = Graph::new(Retention::PointerMinimal);
        let mut ctx = DsCtx::new(&mut graph, &mut rng);
        let x = ctx.sample(&DistExpr::gaussian(0.0, 1.0)).unwrap();
        assert!(x.is_symbolic());
        let forced = ctx.force(&x).unwrap();
        assert!(matches!(forced, Value::Float(_)));
        // Forcing again yields the same pinned value.
        assert_eq!(ctx.force(&x).unwrap(), forced);
    }

    #[test]
    fn ds_ctx_observe_scores_with_marginal_likelihood() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut graph = Graph::new(Retention::PointerMinimal);
        let mut ctx = DsCtx::new(&mut graph, &mut rng);
        let x = ctx.sample(&DistExpr::gaussian(0.0, 100.0)).unwrap();
        ctx.observe(&DistExpr::gaussian(x, 1.0), &Value::Float(5.0))
            .unwrap();
        // The evidence is the marginal N(0, 101) at 5 — not the
        // conditional N(x, 1) a particle filter would have used.
        use probzelus_distributions::{Distribution, Gaussian};
        let expected = Gaussian::new(0.0, 101.0).unwrap().log_pdf(&5.0);
        assert!((ctx.log_weight() - expected).abs() < 1e-10);
    }
}
