//! Statistics utilities shared by the inference engines: weight
//! normalization, effective sample size, resampling, and summary statistics.

use crate::special::log_sum_exp;
use rand::Rng;

/// Why a weight vector carries no usable probability mass.
///
/// Returned by [`try_normalize_log_weights_into`] so callers (the
/// inference supervisor in particular) can distinguish a *collapsed*
/// particle cloud from a healthy one instead of silently receiving a
/// uniformized fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightDegeneracy {
    /// Every log-weight is `-inf` (all particles have zero likelihood) —
    /// the "zero-density observation hit everyone" collapse.
    AllZero,
    /// At least one weight is `NaN` or `+inf`, so the normalization is
    /// undefined (e.g. a `factor(NaN)` or an overflowing score).
    NonFinite,
    /// The weight vector is empty.
    Empty,
}

impl std::fmt::Display for WeightDegeneracy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightDegeneracy::AllZero => f.write_str("all weights are zero (log-weights -inf)"),
            WeightDegeneracy::NonFinite => f.write_str("weights contain NaN or +inf"),
            WeightDegeneracy::Empty => f.write_str("empty weight vector"),
        }
    }
}

impl std::error::Error for WeightDegeneracy {}

/// Normalizes a slice of log-weights into linear-space probabilities
/// written to `out` (cleared first), reporting degeneracy as a typed
/// error instead of papering over it. Numerically stable (subtracts the
/// max before exponentiating). The steady-state inference hot loop calls
/// this every tick with a persistent scratch buffer, so normalization is
/// allocation-free once the buffer has warmed up.
///
/// Returns the log-normalizer `logsumexp(log_weights)` — callers that
/// need the log-evidence increment (`z - ln n`) get it for free instead
/// of re-scanning the weights. On error `out` is left empty.
///
/// # Errors
///
/// [`WeightDegeneracy`] if the slice is empty, contains `NaN`/`+inf`, or
/// carries zero total mass (all `-inf`).
pub fn try_normalize_log_weights_into(
    log_weights: &[f64],
    out: &mut Vec<f64>,
) -> Result<f64, WeightDegeneracy> {
    out.clear();
    if log_weights.is_empty() {
        return Err(WeightDegeneracy::Empty);
    }
    if log_weights
        .iter()
        .any(|w| w.is_nan() || *w == f64::INFINITY)
    {
        return Err(WeightDegeneracy::NonFinite);
    }
    let z = log_sum_exp(log_weights);
    if !z.is_finite() {
        return Err(WeightDegeneracy::AllZero);
    }
    out.extend(log_weights.iter().map(|&lw| (lw - z).exp()));
    Ok(z)
}

/// Effective sample size `1 / Σ w_i²` of normalized weights.
///
/// Equal weights give `n`; a single surviving particle gives `1`.
pub fn effective_sample_size(weights: &[f64]) -> f64 {
    let s: f64 = weights.iter().map(|w| w * w).sum();
    if s > 0.0 {
        1.0 / s
    } else {
        0.0
    }
}

/// Systematic resampling: draws `n` ancestor indices from `weights`
/// (normalized here, so they need only be nonnegative) into `out`
/// (cleared first), using a single uniform offset — the low-variance
/// scheme standard in particle filtering. Consumes exactly one RNG draw
/// and emits nondecreasing indices. Degenerate weights (zero total mass,
/// `NaN`, `±inf`) fall back to uniform ancestry.
///
/// # Panics
///
/// Panics if `weights` is empty.
pub fn systematic_resample_into<R: Rng + ?Sized>(
    rng: &mut R,
    weights: &[f64],
    n: usize,
    out: &mut Vec<usize>,
) {
    assert!(!weights.is_empty(), "cannot resample from empty weights");
    let healthy = weights.iter().all(|w| w.is_finite());
    // Every weight is finite here, so the sum cannot be NaN.
    let total: f64 = if healthy { weights.iter().sum() } else { 0.0 };
    if healthy && total > 0.0 {
        systematic_sweep_into(rng, |i| weights[i] / total, weights.len(), n, out);
    } else {
        let uniform = 1.0 / weights.len() as f64;
        systematic_sweep_into(rng, |_| uniform, weights.len(), n, out);
    }
}

/// Single-offset systematic sweep: one uniform draw, then `n` evenly
/// spaced pointers walked across the cumulative weights. `w(i)` must
/// yield the normalized weight of index `i` for `i < len`. The emitted
/// indices are nondecreasing, a property the clone-minimal resampler in
/// the core engine depends on.
fn systematic_sweep_into<R: Rng + ?Sized>(
    rng: &mut R,
    w: impl Fn(usize) -> f64,
    len: usize,
    n: usize,
    out: &mut Vec<usize>,
) {
    let step = 1.0 / n as f64;
    let mut u = rng.gen_range(0.0..step);
    out.clear();
    out.reserve(n);
    let mut acc = w(0);
    let mut i = 0usize;
    for _ in 0..n {
        while u > acc && i + 1 < len {
            i += 1;
            acc += w(i);
        }
        out.push(i);
        u += step;
    }
}

/// Weighted mean of `(value, weight)` pairs (weights need not be
/// normalized). Returns `0.0` for zero total weight.
pub fn weighted_mean(pairs: &[(f64, f64)]) -> f64 {
    let total: f64 = pairs.iter().map(|(_, w)| w).sum();
    if total <= 0.0 {
        return 0.0;
    }
    pairs.iter().map(|(v, w)| v * w).sum::<f64>() / total
}

/// Weighted variance around the weighted mean.
pub fn weighted_variance(pairs: &[(f64, f64)]) -> f64 {
    let total: f64 = pairs.iter().map(|(_, w)| w).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let m = weighted_mean(pairs);
    pairs
        .iter()
        .map(|(v, w)| w * (v - m) * (v - m))
        .sum::<f64>()
        / total
}

/// Empirical quantile (by sorting) of unweighted samples; `q` in `[0, 1]`.
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0, 1]");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in quantile input"));
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    v[idx]
}

/// Median, `quantile(xs, 0.5)`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn normalize_log_weights_basic() {
        let mut w = vec![9.0; 7]; // stale contents must be cleared
        let z = try_normalize_log_weights_into(&[0.0, 0.0], &mut w).unwrap();
        assert_eq!(w.len(), 2);
        assert!((w[0] - 0.5).abs() < 1e-12);
        assert!((z - 2f64.ln()).abs() < 1e-12, "log-normalizer {z}");
        try_normalize_log_weights_into(&[1000.0, 1000.0 - (3.0f64).ln()], &mut w).unwrap();
        assert!((w[0] - 0.75).abs() < 1e-12);
        assert!((w[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn try_normalize_reports_degeneracy_kinds() {
        let mut out = Vec::new();
        let mut norm = |lw: &[f64]| try_normalize_log_weights_into(lw, &mut out);
        assert_eq!(
            norm(&[f64::NEG_INFINITY; 3]),
            Err(WeightDegeneracy::AllZero)
        );
        assert_eq!(norm(&[0.0, f64::NAN]), Err(WeightDegeneracy::NonFinite));
        assert_eq!(
            norm(&[0.0, f64::INFINITY]),
            Err(WeightDegeneracy::NonFinite)
        );
        assert_eq!(norm(&[]), Err(WeightDegeneracy::Empty));
        try_normalize_log_weights_into(&[0.0, 0.0], &mut out).unwrap();
        try_normalize_log_weights_into(&[f64::NAN], &mut out).unwrap_err();
        assert!(out.is_empty(), "error path leaves the buffer empty");
        // A single -inf among finite weights is NOT degenerate: that
        // particle simply has zero weight.
        try_normalize_log_weights_into(&[0.0, f64::NEG_INFINITY], &mut out).unwrap();
        assert!((out[0] - 1.0).abs() < 1e-12);
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn systematic_resample_clears_its_buffer_and_is_nondecreasing() {
        for weights in [vec![0.1, 0.2, 0.3, 0.4], vec![0.0, 0.0, 0.0]] {
            let mut rng = SmallRng::seed_from_u64(17);
            let mut out = vec![99usize; 3];
            systematic_resample_into(&mut rng, &weights, 64, &mut out);
            assert_eq!(out.len(), 64);
            assert!(out.windows(2).all(|w| w[0] <= w[1]), "nondecreasing");
        }
    }

    #[test]
    fn degeneracy_display() {
        assert_eq!(
            WeightDegeneracy::AllZero.to_string(),
            "all weights are zero (log-weights -inf)"
        );
        assert_eq!(
            WeightDegeneracy::NonFinite.to_string(),
            "weights contain NaN or +inf"
        );
        assert_eq!(WeightDegeneracy::Empty.to_string(), "empty weight vector");
    }

    #[test]
    fn ess_bounds() {
        assert!((effective_sample_size(&[0.25; 4]) - 4.0).abs() < 1e-12);
        assert!((effective_sample_size(&[1.0, 0.0, 0.0]) - 1.0).abs() < 1e-12);
        assert_eq!(effective_sample_size(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn systematic_resample_is_unbiased_in_expectation() {
        let mut rng = SmallRng::seed_from_u64(4);
        let weights = [0.1, 0.2, 0.3, 0.4];
        let mut counts = [0usize; 4];
        let trials = 2_000;
        let n = 100;
        let mut idx = Vec::new();
        for _ in 0..trials {
            systematic_resample_into(&mut rng, &weights, n, &mut idx);
            for &i in &idx {
                counts[i] += 1;
            }
        }
        let total = (trials * n) as f64;
        for (i, &w) in weights.iter().enumerate() {
            let f = counts[i] as f64 / total;
            assert!((f - w).abs() < 0.01, "index {i}: {f} vs {w}");
        }
    }

    #[test]
    fn systematic_resample_handles_degenerate_weights() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut idx = Vec::new();
        systematic_resample_into(&mut rng, &[0.0, 0.0, 0.0], 30, &mut idx);
        assert_eq!(idx.len(), 30);
        // Uniform fallback touches every index with high probability.
        assert!(idx.contains(&0));
        assert!(idx.contains(&2));
    }

    #[test]
    fn weighted_stats() {
        let pairs = [(0.0, 1.0), (4.0, 3.0)];
        assert!((weighted_mean(&pairs) - 3.0).abs() < 1e-12);
        assert!((weighted_variance(&pairs) - 3.0).abs() < 1e-12);
        assert_eq!(weighted_mean(&[]), 0.0);
    }

    #[test]
    fn quantiles() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "quantile of empty sample")]
    fn quantile_rejects_empty() {
        quantile(&[], 0.5);
    }
}
