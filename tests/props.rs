//! Property-based tests (proptest) for the core invariants:
//! SDS-vs-closed-form exactness on randomized models, posterior
//! normalization, engine equivalences, and pipeline round-trips.

use probzelus::core::infer::{Infer, Method};
use probzelus::core::model::Model;
use probzelus::core::prob::ProbCtx;
use probzelus::core::{DistExpr, RuntimeError, Value};
use probzelus::lang::{compile_source, Options};
use proptest::prelude::*;

/// A Kalman-style state-space model with arbitrary (valid) parameters and
/// an affine state transition `x' ~ N(a·x + b, q)`.
#[derive(Clone, Debug)]
struct AffineSsm {
    a: f64,
    b: f64,
    q: f64,
    r: f64,
    p0_mean: f64,
    p0_var: f64,
    prev: Option<Value>,
}

impl Model for AffineSsm {
    type Input = f64;

    fn step(&mut self, ctx: &mut dyn ProbCtx, y: &f64) -> Result<Value, RuntimeError> {
        let prior = match &self.prev {
            None => DistExpr::gaussian(self.p0_mean, self.p0_var),
            Some(x) => {
                let mean = probzelus::core::ops::add(
                    &probzelus::core::ops::mul(x, &Value::Float(self.a))?,
                    &Value::Float(self.b),
                )?;
                DistExpr::gaussian(mean, self.q)
            }
        };
        let x = ctx.sample(&prior)?;
        ctx.observe(&DistExpr::gaussian(x.clone(), self.r), &Value::Float(*y))?;
        self.prev = Some(x.clone());
        Ok(x)
    }

    fn reset(&mut self) {
        self.prev = None;
    }

    fn for_each_state_value(&mut self, f: &mut dyn FnMut(&mut Value)) {
        if let Some(x) = &mut self.prev {
            f(x);
        }
    }
}

/// The textbook Kalman filter for [`AffineSsm`].
fn kalman_reference(m: &AffineSsm, obs: &[f64]) -> Vec<(f64, f64)> {
    let (mut mean, mut var) = (m.p0_mean, m.p0_var);
    let mut out = Vec::with_capacity(obs.len());
    for (t, &y) in obs.iter().enumerate() {
        if t > 0 {
            mean = m.a * mean + m.b;
            var = m.a * m.a * var + m.q;
        }
        let gain = var / (var + m.r);
        mean += gain * (y - mean);
        var *= 1.0 - gain;
        out.push((mean, var));
    }
    out
}

fn param() -> impl Strategy<Value = AffineSsm> {
    (
        -1.5f64..1.5,
        -2.0f64..2.0,
        0.05f64..5.0,
        0.05f64..5.0,
        -5.0f64..5.0,
        0.1f64..50.0,
    )
        .prop_map(|(a, b, q, r, p0_mean, p0_var)| AffineSsm {
            a,
            b,
            q,
            r,
            p0_mean,
            p0_var,
            prev: None,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One SDS particle equals the closed-form Kalman filter on any valid
    /// affine state-space model and observation sequence.
    #[test]
    fn sds_is_exact_for_random_affine_ssms(
        model in param(),
        obs in proptest::collection::vec(-10.0f64..10.0, 1..40),
        seed in any::<u64>(),
    ) {
        let mut engine = Infer::with_seed(Method::StreamingDs, 1, model.clone(), seed);
        let reference = kalman_reference(&model, &obs);
        for (y, (m, v)) in obs.iter().zip(reference) {
            let post = engine.step(y).unwrap();
            prop_assert!((post.mean_float() - m).abs() < 1e-7,
                "mean {} vs {m}", post.mean_float());
            prop_assert!((post.variance_float() - v).abs() < 1e-7,
                "var {} vs {v}", post.variance_float());
        }
        // And memory stays bounded regardless of the model parameters.
        prop_assert!(engine.memory().live_nodes <= 3);
    }

    /// The classic-DS engine computes the same posteriors as SDS (only its
    /// memory behaviour differs).
    #[test]
    fn classic_ds_posteriors_equal_sds(
        model in param(),
        obs in proptest::collection::vec(-10.0f64..10.0, 1..25),
    ) {
        let mut sds = Infer::with_seed(Method::StreamingDs, 1, model.clone(), 0);
        let mut ds = Infer::with_seed(Method::ClassicDs, 1, model.clone(), 0);
        for y in &obs {
            let a = sds.step(y).unwrap();
            let b = ds.step(y).unwrap();
            prop_assert!((a.mean_float() - b.mean_float()).abs() < 1e-9);
            prop_assert!((a.variance_float() - b.variance_float()).abs() < 1e-9);
        }
        prop_assert!(ds.memory().live_nodes >= obs.len());
    }

    /// Posterior component weights are always normalized, for every
    /// method.
    #[test]
    fn posterior_weights_are_normalized(
        model in param(),
        obs in proptest::collection::vec(-10.0f64..10.0, 1..10),
        method_idx in 0usize..4,
    ) {
        let method = [
            Method::ParticleFilter,
            Method::BoundedDs,
            Method::StreamingDs,
            Method::Importance,
        ][method_idx];
        let mut engine = Infer::with_seed(method, 13, model, 7);
        for y in &obs {
            let post = engine.step(y).unwrap();
            let total: f64 = post.components().iter().map(|(w, _)| w).sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
            prop_assert!(post.components().iter().all(|(w, _)| *w >= 0.0));
        }
    }

    /// Beta-Bernoulli streaming inference matches the analytic posterior
    /// for arbitrary flip sequences and priors.
    #[test]
    fn beta_bernoulli_counts_are_exact(
        alpha in 0.5f64..20.0,
        beta in 0.5f64..20.0,
        flips in proptest::collection::vec(any::<bool>(), 1..50),
    ) {
        #[derive(Clone)]
        struct CoinP {
            alpha: f64,
            beta: f64,
            p: Option<Value>,
        }
        impl Model for CoinP {
            type Input = bool;
            fn step(&mut self, ctx: &mut dyn ProbCtx, obs: &bool)
                -> Result<Value, RuntimeError> {
                if self.p.is_none() {
                    self.p = Some(ctx.sample(&DistExpr::beta(self.alpha, self.beta))?);
                }
                let p = self.p.clone().expect("set above");
                ctx.observe(&DistExpr::bernoulli(p.clone()), &Value::Bool(*obs))?;
                Ok(p)
            }
            fn reset(&mut self) {
                self.p = None;
            }
            fn for_each_state_value(&mut self, f: &mut dyn FnMut(&mut Value)) {
                if let Some(p) = &mut self.p {
                    f(p);
                }
            }
        }
        let mut engine = Infer::with_seed(
            Method::StreamingDs,
            1,
            CoinP { alpha, beta, p: None },
            0,
        );
        let (mut a, mut b) = (alpha, beta);
        for y in &flips {
            let post = engine.step(y).unwrap();
            if *y { a += 1.0; } else { b += 1.0; }
            prop_assert!((post.mean_float() - a / (a + b)).abs() < 1e-9);
        }
    }

    /// Pretty-printing a random-ish kernel program and re-parsing it is the
    /// identity on the reprint (parser/printer round-trip).
    #[test]
    fn pipeline_accepts_randomized_hmm_parameters(
        speed in 0.1f64..10.0,
        noise in 0.1f64..10.0,
        prior_var in 1.0f64..200.0,
        y in -5.0f64..5.0,
    ) {
        let src = format!(
            "let node hmm y = x where
               rec x = sample (gaussian ((0. -> pre x), ({prior_var:?} -> {speed:?})))
               and () = observe (gaussian (x, {noise:?}), y)"
        );
        let compiled = compile_source(&src).unwrap();
        let mut eng = compiled
            .infer_node("hmm", 1, Options { method: Method::StreamingDs, seed: 0, ..Default::default() })
            .unwrap();
        let post = eng.step(&Value::Float(y)).unwrap();
        // First step: exact conjugate update from the prior.
        let expected = y * prior_var / (prior_var + noise);
        prop_assert!((post.mean_float() - expected).abs() < 1e-7,
            "{} vs {expected}", post.mean_float());
    }
}

mod linalg_props {
    use probzelus_distributions::{Matrix, MvAffineGaussian, MvGaussian, Vector};
    use proptest::prelude::*;

    /// Random SPD matrix `B Bᵀ + εI` of dimension 2 or 3.
    fn spd(dim: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-2.0f64..2.0, dim * dim).prop_map(move |data| {
            let b = Matrix::new(dim, dim, data);
            b.mul(&b.transpose()).add(&Matrix::identity(dim).scale(0.1))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Cholesky reconstructs and SPD solves invert, for random SPD
        /// matrices.
        #[test]
        fn cholesky_and_solve_are_consistent(
            m in spd(3),
            b in proptest::collection::vec(-5.0f64..5.0, 3),
        ) {
            let l = m.cholesky().unwrap();
            let rec = l.mul(&l.transpose());
            for i in 0..3 {
                for j in 0..3 {
                    prop_assert!((rec.get(i, j) - m.get(i, j)).abs() < 1e-9);
                }
            }
            let b = Vector::new(b);
            let x = m.solve_spd(&b).unwrap();
            let back = m.mul_vec(&x);
            for i in 0..3 {
                prop_assert!((back.get(i) - b.get(i)).abs() < 1e-7);
            }
        }

        /// The matrix Kalman update never increases marginal variances and
        /// reproduces the observation when the noise is tiny.
        #[test]
        fn mv_condition_contracts_variance(
            cov in spd(2),
            mean in proptest::collection::vec(-3.0f64..3.0, 2),
            obs in -5.0f64..5.0,
        ) {
            let prior = MvGaussian::new(Vector::new(mean), cov).unwrap();
            let link = MvAffineGaussian::new(
                Matrix::from_rows(&[&[1.0, 0.0]]),
                Vector::zeros(1),
                Matrix::from_rows(&[&[1e-6]]),
            )
            .unwrap();
            let post = link.condition(&prior, &Vector::new(vec![obs])).unwrap();
            // Observed coordinate pinned to the observation.
            prop_assert!((post.mean().get(0) - obs).abs() < 1e-2);
            // No marginal variance grows.
            for i in 0..2 {
                prop_assert!(post.cov().get(i, i) <= prior.cov().get(i, i) + 1e-9);
            }
        }
    }
}

mod printer_props {
    use probzelus_lang::parser::parse_expr;
    use probzelus_lang::pretty::print_expr;
    use probzelus_lang::{Const, Expr, OpName};
    use proptest::prelude::*;

    /// Random kernel-ish expressions. Literals are non-negative: at the
    /// expression level `-1` parses as `Neg(1)` (negative *constants* only
    /// exist in `init` equations), so a negative literal would reparse as
    /// the semantically-equal negation.
    fn expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            (0i64..100).prop_map(Expr::int),
            (0.0f64..100.0).prop_map(|x| Expr::float((x * 8.0).round() / 8.0)),
            Just(Expr::Const(Const::Bool(true))),
            Just(Expr::Const(Const::Bool(false))),
            "[a-z][a-z0-9_]{0,6}"
                .prop_filter("not a keyword", |s| {
                    !matches!(
                        s.as_str(),
                        "let"
                            | "node"
                            | "where"
                            | "rec"
                            | "and"
                            | "init"
                            | "last"
                            | "pre"
                            | "fby"
                            | "present"
                            | "else"
                            | "reset"
                            | "every"
                            | "if"
                            | "then"
                            | "true"
                            | "false"
                            | "not"
                            | "sample"
                            | "observe"
                            | "factor"
                            | "infer"
                            | "value"
                            | "automaton"
                            | "do"
                            | "until"
                            | "done"
                            | "exp"
                            | "log"
                            | "sqrt"
                            | "abs"
                            | "min"
                            | "max"
                            | "fst"
                            | "snd"
                            | "prob"
                            | "draw"
                            | "gaussian"
                            | "beta"
                            | "bernoulli"
                            | "uniform"
                            | "gamma"
                            | "poisson"
                            | "binomial"
                            | "dirac"
                            | "exponential"
                            | "mean_float"
                            | "variance_float"
                            | "float_of_int"
                    )
                })
                .prop_map(Expr::var),
        ];
        leaf.prop_recursive(4, 48, 4, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Op(OpName::Add, vec![a, b])),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Op(OpName::Mul, vec![a, b])),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::pair(a, b)),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Expr::Arrow(Box::new(a), Box::new(b))),
                inner.clone().prop_map(|a| Expr::Pre(Box::new(a))),
                inner.clone().prop_map(|a| Expr::Sample(Box::new(a))),
                (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| {
                    Expr::If {
                        cond: Box::new(c),
                        then: Box::new(t),
                        els: Box::new(e),
                    }
                }),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// print → parse is the identity on arbitrary expression trees
        /// (modulo span annotations, which depend on layout).
        #[test]
        fn print_parse_round_trip(e in expr()) {
            let printed = print_expr(&e);
            let reparsed = parse_expr(&printed)
                .unwrap_or_else(|err| panic!("reparse of `{printed}` failed: {err}"));
            prop_assert_eq!(e.strip_spans(), reparsed.strip_spans(), "printed: {}", printed);
        }
    }
}

mod stats_props {
    use super::*;
    use probzelus::distributions::stats;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Positive un-normalized weights (length 1..64).
    fn weights() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(1e-6f64..1.0, 1..64)
    }

    fn normalized(raw: &[f64]) -> Vec<f64> {
        let total: f64 = raw.iter().sum();
        raw.iter().map(|x| x / total).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Systematic resampling is low-variance by construction: every
        /// ancestor count is within ±1 of its expectation `n·w_i`, and
        /// exactly `n` ancestors come back.
        #[test]
        fn systematic_resample_counts_are_within_one_of_expectation(
            raw in weights(),
            seed in any::<u64>(),
            n in 1usize..256,
        ) {
            let w = normalized(&raw);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut ancestors = Vec::new();
            stats::systematic_resample_into(&mut rng, &w, n, &mut ancestors);
            prop_assert_eq!(ancestors.len(), n);
            let mut counts = vec![0usize; w.len()];
            for &a in &ancestors {
                prop_assert!(a < w.len(), "ancestor {} out of range", a);
                counts[a] += 1;
            }
            for (i, (&c, &wi)) in counts.iter().zip(&w).enumerate() {
                let expect = n as f64 * wi;
                prop_assert!(
                    (c as f64 - expect).abs() <= 1.0 + 1e-9,
                    "particle {}: {} copies vs expectation {}", i, c, expect
                );
            }
        }

        /// The resampler's offspring counts are a faithful reformulation
        /// of the ancestor list: because the systematic sweep emits
        /// nondecreasing indices, expanding per-ancestor counts in
        /// ascending order rebuilds the ancestor layout slot for slot, and
        /// the move-one-clone-rest accounting always saves
        /// `survivors ≥ 1` clones out of `n`.
        #[test]
        fn clone_minimal_offspring_counts_match_naive_reference(
            raw in weights(),
            seed in any::<u64>(),
            n in 1usize..256,
        ) {
            let w = normalized(&raw);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut naive = Vec::new();
            stats::systematic_resample_into(&mut rng, &w, n, &mut naive);
            let mut offspring = vec![0usize; w.len()];
            for &a in &naive {
                offspring[a] += 1;
            }
            let expanded: Vec<usize> = offspring
                .iter()
                .enumerate()
                .flat_map(|(i, &k)| std::iter::repeat_n(i, k))
                .collect();
            prop_assert_eq!(&expanded, &naive);
            let survivors = offspring.iter().filter(|&&k| k > 0).count();
            let clones: usize = offspring.iter().map(|&k| k.saturating_sub(1)).sum();
            prop_assert_eq!(clones + survivors, n);
            prop_assert!(survivors >= 1);
            prop_assert!(clones < n, "fewer clones than slots");
        }

        /// Log-weight normalization produces a probability vector for any
        /// finite log-weights, however extreme.
        #[test]
        fn normalize_log_weights_sums_to_one(
            lw in proptest::collection::vec(-500.0f64..100.0, 1..64),
        ) {
            let mut w = Vec::new();
            stats::try_normalize_log_weights_into(&lw, &mut w).unwrap();
            prop_assert_eq!(w.len(), lw.len());
            let sum: f64 = w.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "sum {}", sum);
            prop_assert!(w.iter().all(|x| x.is_finite() && *x >= 0.0));
        }

        /// The degenerate cloud (every particle at `-inf`) is reported as
        /// a typed collapse, never normalized into NaN: this is the
        /// signal the supervisor's collapse recovery acts on.
        #[test]
        fn all_neg_inf_is_an_all_zero_collapse(n in 1usize..64) {
            let mut w = vec![0.5; 3];
            prop_assert_eq!(
                stats::try_normalize_log_weights_into(&vec![f64::NEG_INFINITY; n], &mut w),
                Err(stats::WeightDegeneracy::AllZero)
            );
            prop_assert!(w.is_empty());
        }

        /// A single particle always normalizes to exactly [1.0], even for
        /// extreme log-weights.
        #[test]
        fn single_particle_normalizes_without_nan(lw in -1e4f64..1e4) {
            let mut w = Vec::new();
            stats::try_normalize_log_weights_into(&[lw], &mut w).unwrap();
            prop_assert_eq!(w.len(), 1);
            prop_assert!(w[0].is_finite());
            prop_assert!((w[0] - 1.0).abs() < 1e-12, "{}", w[0]);
        }

        /// For normalized weights, `1 ≤ ESS ≤ n` (Cauchy–Schwarz at both
        /// ends: equality at a collapsed cloud resp. uniform weights).
        #[test]
        fn effective_sample_size_is_bounded(raw in weights()) {
            let w = normalized(&raw);
            let ess = stats::effective_sample_size(&w);
            let n = w.len() as f64;
            prop_assert!(ess >= 1.0 - 1e-9, "ess {} < 1", ess);
            prop_assert!(ess <= n + 1e-9, "ess {} > n {}", ess, n);
        }
    }
}

mod histogram_props {
    use super::*;
    use probzelus::core::LogHistogram;

    /// Arbitrary latency-like samples, spanning subnormals to huge values
    /// plus the non-finite edge cases the bucketing must absorb.
    fn samples() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(
            prop_oneof![
                1e-12f64..1e9,
                1e-12f64..1e9,
                1e-12f64..1e9,
                1e-12f64..1e9,
                Just(0.0),
                Just(-1.0),
                Just(f64::NAN),
                Just(f64::INFINITY),
            ],
            0..200,
        )
    }

    fn of(samples: &[f64]) -> LogHistogram {
        let mut h = LogHistogram::new();
        for &x in samples {
            h.record(x);
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Merging is bucket-exact: merge(A, B) has precisely the
        /// elementwise-summed counts of recording the two sample sets
        /// separately, and equals recording their concatenation.
        #[test]
        fn merge_is_bucket_exact(a in samples(), b in samples()) {
            let (ha, hb) = (of(&a), of(&b));
            let mut merged = ha.clone();
            merged.merge(&hb);
            for i in 0..probzelus::core::histo::BUCKETS {
                prop_assert_eq!(
                    merged.counts()[i],
                    ha.counts()[i] + hb.counts()[i],
                    "bucket {} not the elementwise sum", i
                );
            }
            let both: Vec<f64> = a.iter().chain(&b).copied().collect();
            prop_assert_eq!(merged.counts(), of(&both).counts());
            prop_assert_eq!(merged.count(), (a.len() + b.len()) as u64);
        }

        /// Merge is associative (and commutative): any grouping of three
        /// shards yields identical buckets, so distributed aggregation
        /// can combine partial histograms in any order.
        #[test]
        fn merge_is_associative_and_commutative(
            a in samples(),
            b in samples(),
            c in samples(),
        ) {
            let (ha, hb, hc) = (of(&a), of(&b), of(&c));
            // (a ⊕ b) ⊕ c
            let mut left = ha.clone();
            left.merge(&hb);
            left.merge(&hc);
            // a ⊕ (b ⊕ c)
            let mut bc = hb.clone();
            bc.merge(&hc);
            let mut right = ha.clone();
            right.merge(&bc);
            prop_assert_eq!(left.counts(), right.counts());
            // b ⊕ a
            let mut ab = ha.clone();
            ab.merge(&hb);
            let mut ba = hb.clone();
            ba.merge(&ha);
            prop_assert_eq!(ab.counts(), ba.counts());
        }

        /// Quantiles are monotone in q, always land on a bucket lower
        /// bound at or below the true value's bucket upper bound, and
        /// match across a merge-equivalent construction.
        #[test]
        fn quantiles_are_monotone_and_merge_stable(a in samples(), b in samples()) {
            let both: Vec<f64> = a.iter().chain(&b).copied().collect();
            let mut merged = of(&a);
            merged.merge(&of(&b));
            let direct = of(&both);
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(merged.quantile(q), direct.quantile(q));
            }
            if !both.is_empty() {
                let qs: Vec<f64> = [0.1, 0.5, 0.9, 0.99]
                    .iter()
                    .map(|&q| merged.quantile(q).expect("non-empty"))
                    .collect();
                for w in qs.windows(2) {
                    prop_assert!(w[0] <= w[1], "quantiles not monotone: {:?}", qs);
                }
            }
        }
    }
}

mod deadline_controller {
    use super::*;
    use probzelus::core::adaptive::{
        AdaptiveController, DeadlineAction, DeadlineConfig, DecisionTrace,
    };

    proptest! {
        /// Under any latency sequence — spikes, silence, alternation —
        /// the controller keeps the cloud inside `[floor, initial]`,
        /// walks one rung at a time, and records a well-formed,
        /// tick-ordered decision trace.
        #[test]
        fn cloud_stays_between_floor_and_initial(
            initial in 1usize..200,
            floor in 1usize..200,
            budget_ms in 0.01f64..10.0,
            latencies in proptest::collection::vec(0.0f64..50.0, 0..300),
        ) {
            let mut cfg = DeadlineConfig::new(budget_ms);
            cfg.floor = floor;
            cfg.window = 3;
            let mut ctrl = AdaptiveController::new(cfg, initial);
            let effective_floor = floor.clamp(1, initial);
            prop_assert_eq!(ctrl.floor(), effective_floor);
            for (tick, &ms) in latencies.iter().enumerate() {
                let decision = ctrl.observe(tick as u64, ms);
                let status = ctrl.status();
                prop_assert!(status.particles >= effective_floor,
                    "tick {}: {} below floor {}", tick, status.particles, effective_floor);
                prop_assert!(status.particles <= initial,
                    "tick {}: {} above initial {}", tick, status.particles, initial);
                if let Some(rec) = decision {
                    prop_assert_eq!(rec.tick, tick as u64);
                    prop_assert_eq!(rec.to, status.particles);
                    match rec.action {
                        DeadlineAction::Shrink => prop_assert!(rec.to < rec.from),
                        DeadlineAction::Grow => prop_assert!(rec.to > rec.from),
                        _ => prop_assert_eq!(rec.to, rec.from),
                    }
                }
            }
            let trace = ctrl.trace();
            for pair in trace.entries().windows(2) {
                prop_assert!(pair[0].tick < pair[1].tick, "trace out of order");
            }
            for rec in trace.entries() {
                prop_assert!(rec.to >= effective_floor && rec.to <= initial);
            }
        }

        /// Any recorded trace survives its JSONL wire format bit-for-bit
        /// (the property behind replayability: the file on disk IS the
        /// run).
        #[test]
        fn trace_jsonl_roundtrip_is_lossless(
            initial in 2usize..100,
            budget_ms in 0.01f64..5.0,
            latencies in proptest::collection::vec(0.0f64..20.0, 0..200),
        ) {
            let mut cfg = DeadlineConfig::new(budget_ms);
            cfg.floor = 1;
            cfg.window = 2;
            let mut ctrl = AdaptiveController::new(cfg, initial);
            for (tick, &ms) in latencies.iter().enumerate() {
                ctrl.observe(tick as u64, ms);
            }
            let trace = ctrl.trace().clone();
            let parsed = DecisionTrace::from_jsonl(&trace.to_jsonl());
            prop_assert_eq!(parsed.as_ref(), Ok(&trace));
        }
    }
}

mod affine_props {
    //! `AffExpr` arithmetic against a map-based reference model: the
    //! ascending `BTreeMap` representation the shared term slice
    //! replaced, with its exact folding order.
    use super::*;
    use probzelus::core::ds::{Graph, Retention};
    use probzelus::core::{AffExpr, RvId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    const VARS: usize = 6;

    /// `n` distinct variable ids, issued by a graph.
    fn var_ids(n: usize) -> Vec<RvId> {
        let mut g = Graph::new(Retention::RetainAll);
        let mut rng = SmallRng::seed_from_u64(0);
        (0..n)
            .map(|_| {
                let v = g
                    .assume(&DistExpr::gaussian(0.0, 1.0), &mut rng)
                    .expect("assume");
                match v {
                    Value::Aff(e) => e.as_var().expect("a bare variable"),
                    other => panic!("expected a symbolic float, got {other:?}"),
                }
            })
            .collect()
    }

    /// `konst + Σ a·x` as a map, with the fold order of the map-based
    /// implementation: a variable only in the right operand of `add`
    /// enters as `0.0 + b`, a zero sum or an underflowed product is
    /// removed, and substitution folds resolved terms in ascending order.
    #[derive(Debug, Clone)]
    struct Reference {
        terms: BTreeMap<RvId, f64>,
        konst: f64,
    }

    impl Reference {
        fn constant(c: f64) -> Reference {
            Reference {
                terms: BTreeMap::new(),
                konst: c,
            }
        }

        fn var(x: RvId) -> Reference {
            Reference {
                terms: BTreeMap::from([(x, 1.0)]),
                konst: 0.0,
            }
        }

        fn add(&self, other: &Reference) -> Reference {
            let mut terms = self.terms.clone();
            for (&x, &b) in &other.terms {
                let entry = terms.entry(x).or_insert(0.0);
                *entry += b;
                if *entry == 0.0 {
                    terms.remove(&x);
                }
            }
            Reference {
                terms,
                konst: self.konst + other.konst,
            }
        }

        fn scale(&self, k: f64) -> Reference {
            if k == 0.0 {
                return Reference::constant(0.0);
            }
            Reference {
                terms: self
                    .terms
                    .iter()
                    .map(|(&x, &a)| (x, a * k))
                    .filter(|&(_, a)| a != 0.0)
                    .collect(),
                konst: self.konst * k,
            }
        }

        fn substitute(&self, values: &BTreeMap<RvId, f64>) -> Reference {
            let mut out = Reference::constant(self.konst);
            for (&x, &a) in &self.terms {
                match values.get(&x) {
                    Some(v) => out.konst += a * v,
                    None => {
                        out.terms.insert(x, a);
                    }
                }
            }
            out
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Add(usize, usize),
        Sub(usize, usize),
        Scale(usize, f64),
        Offset(usize, f64),
        Substitute(usize, Vec<(usize, f64)>),
    }

    /// Coefficients that cancel, underflow (1e-200 twice) and scale to
    /// zero, beside arbitrary ones.
    fn scalar() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(1.0),
            Just(-1.0),
            Just(2.0),
            Just(-0.5),
            Just(0.0),
            Just(1e-200),
            -3.0f64..3.0,
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<usize>(), any::<usize>()).prop_map(|(i, j)| Op::Add(i, j)),
            (any::<usize>(), any::<usize>()).prop_map(|(i, j)| Op::Sub(i, j)),
            (any::<usize>(), scalar()).prop_map(|(i, k)| Op::Scale(i, k)),
            (any::<usize>(), scalar()).prop_map(|(i, c)| Op::Offset(i, c)),
            (
                any::<usize>(),
                proptest::collection::vec((0..VARS, scalar()), 0..VARS)
            )
                .prop_map(|(i, vs)| Op::Substitute(i, vs)),
        ]
    }

    /// The pool entry an operand index names: every other index the
    /// latest result, so chains of operations (a product that underflows
    /// only on the second scaling) come up often.
    fn pick(i: usize, n: usize) -> usize {
        if i.is_multiple_of(2) {
            n - 1
        } else {
            (i / 2) % n
        }
    }

    fn assert_matches(e: &AffExpr, r: &Reference) {
        let got: Vec<(RvId, u64)> = e.terms().map(|(x, a)| (x, a.to_bits())).collect();
        let want: Vec<(RvId, u64)> = r.terms.iter().map(|(&x, a)| (x, a.to_bits())).collect();
        prop_assert_eq!(&got, &want, "terms of {}", e);
        prop_assert_eq!(e.konst().to_bits(), r.konst.to_bits(), "constant of {}", e);
        prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "unsorted: {}", e);
        prop_assert!(e.terms().all(|(_, a)| a != 0.0), "zero coefficient: {}", e);
        prop_assert_eq!(e.num_vars(), want.len());
        // The variant follows the arity: inline below two terms.
        prop_assert_eq!(e.is_constant(), want.is_empty());
        prop_assert_eq!(e.as_single().is_some(), want.len() == 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every expression built by a random program of `add`, `sub`,
        /// `scale`, `offset` and `substitute` has the reference model's
        /// terms and constant, bit for bit, in canonical form.
        #[test]
        fn arithmetic_matches_the_map_reference(
            konsts in proptest::collection::vec(scalar(), VARS),
            ops in proptest::collection::vec(op(), 1..48),
        ) {
            let ids = var_ids(VARS);
            let mut pool: Vec<(AffExpr, Reference)> = ids
                .iter()
                .zip(&konsts)
                .map(|(&x, &c)| (AffExpr::var(x).offset(c), Reference::var(x).add(&Reference::constant(c))))
                .collect();
            for op in ops {
                let n = pool.len();
                let next = match op {
                    Op::Add(i, j) => {
                        let ((a, ra), (b, rb)) = (&pool[pick(i, n)], &pool[pick(j, n)]);
                        (a.add(b), ra.add(rb))
                    }
                    Op::Sub(i, j) => {
                        let ((a, ra), (b, rb)) = (&pool[pick(i, n)], &pool[pick(j, n)]);
                        (a.sub(b), ra.add(&rb.scale(-1.0)))
                    }
                    Op::Scale(i, k) => {
                        let (a, ra) = &pool[pick(i, n)];
                        (a.scale(k), ra.scale(k))
                    }
                    Op::Offset(i, c) => {
                        let (a, ra) = &pool[pick(i, n)];
                        (a.offset(c), Reference { konst: ra.konst + c, ..ra.clone() })
                    }
                    Op::Substitute(i, vs) => {
                        let values: BTreeMap<RvId, f64> =
                            vs.into_iter().map(|(v, x)| (ids[v], x)).collect();
                        let (a, ra) = &pool[pick(i, n)];
                        (a.substitute(|x| values.get(&x).copied()), ra.substitute(&values))
                    }
                };
                assert_matches(&next.0, &next.1);
                pool.push(next);
            }
        }
    }

    /// Variables of the owned-vs-borrowed checks: more than the stack
    /// buffer's 8, so results spill.
    const WIDE: usize = 12;

    /// An expression to build: `konst + Σ c·x` as a list of
    /// `(variable, coefficient)`, folded in list order.
    type Spec = (Vec<(usize, f64)>, f64);

    /// Constants beside [`scalar`]'s: signed zero, infinities and NaN.
    fn konst() -> impl Strategy<Value = f64> {
        prop_oneof![
            scalar(),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
        ]
    }

    /// Coefficients beside [`scalar`]'s: both signs of an underflowing
    /// factor and one whose square overflows.
    fn coeff() -> impl Strategy<Value = f64> {
        prop_oneof![scalar(), Just(-1e-200), Just(1e300), Just(-0.0)]
    }

    fn spec() -> impl Strategy<Value = Spec> {
        (
            proptest::collection::vec((0..WIDE, coeff()), 0..2 * WIDE),
            konst(),
        )
    }

    /// A fresh expression (its term slice held by nobody else).
    fn build(ids: &[RvId], (terms, c): &Spec) -> AffExpr {
        terms.iter().fold(AffExpr::constant(*c), |e, &(i, a)| {
            e.add(&AffExpr::var(ids[i]).scale(a))
        })
    }

    /// Every bit of an expression: each term's variable and coefficient
    /// bits, then the constant's bits.
    fn bits(e: &AffExpr) -> (Vec<(RvId, u64)>, u64) {
        (
            e.terms().map(|(x, a)| (x, a.to_bits())).collect(),
            e.konst().to_bits(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The owned operations, whose results are written into operand
        /// slices nothing else holds, give the borrowed operations'
        /// results bit for bit; a clone of an operand taken before
        /// still reads its old value; and the fused `x + k·y` is
        /// `scale` then `add` in either operand order, with the map
        /// reference agreeing.
        #[test]
        fn owned_and_fused_ops_match_borrowed_bit_for_bit(
            xs in spec(),
            ys in spec(),
            k in prop_oneof![coeff(), Just(0.0), Just(-0.0), Just(f64::NAN)],
            alias in any::<bool>(),
        ) {
            let ids = var_ids(WIDE);
            let fresh_x = || build(&ids, &xs);
            // With `alias`, `y` is `x` itself: `x + x·k`.
            let fresh_y = || if alias { fresh_x() } else { build(&ids, &ys) };
            let (x, y) = (fresh_x(), fresh_y());
            let held = fresh_x();
            let kept = held.clone();

            prop_assert_eq!(bits(&fresh_x().add_owned(fresh_y())), bits(&x.add(&y)));
            prop_assert_eq!(bits(&fresh_x().sub_owned(fresh_y())), bits(&x.sub(&y)));
            prop_assert_eq!(bits(&fresh_x().scale_owned(k)), bits(&x.scale(k)));
            prop_assert_eq!(bits(&held.add_owned(fresh_y())), bits(&x.add(&y)));
            prop_assert_eq!(bits(&kept), bits(&x), "a clone was written through");

            let scaled = y.scale(k);
            prop_assert_eq!(
                bits(&fresh_x().add_scaled(fresh_y(), k)),
                bits(&x.add(&scaled))
            );
            prop_assert_eq!(
                bits(&fresh_x().add_scaled(fresh_y(), k)),
                bits(&scaled.add(&x))
            );
            let x2 = fresh_x();
            prop_assert_eq!(
                bits(&x2.clone().add_scaled(x2, k)),
                bits(&x.add(&x.scale(k)))
            );
            // Against the map reference too (its `add` folds a term of
            // the right operand alone as `0 + b`, the same bits here).
            let reference = |e: &AffExpr| Reference {
                terms: e.terms().collect(),
                konst: e.konst(),
            };
            let want = reference(&x).add(&reference(&y).scale(k));
            let got = fresh_x().add_scaled(fresh_y(), k);
            prop_assert_eq!(
                bits(&got),
                (
                    want.terms.iter().map(|(&v, a)| (v, a.to_bits())).collect(),
                    want.konst.to_bits()
                )
            );
        }

        /// In-place substitution and the stack view give `substitute`'s
        /// terms and constant bit for bit, and the view builds nothing.
        #[test]
        fn in_place_and_view_substitution_match_substitute(
            xs in spec(),
            values in proptest::collection::vec((0..WIDE, konst()), 0..WIDE),
        ) {
            let ids = var_ids(WIDE);
            let values: BTreeMap<RvId, f64> =
                values.into_iter().map(|(v, c)| (ids[v], c)).collect();
            let lookup = |x: RvId| values.get(&x).copied();
            let e = build(&ids, &xs);
            let want = e.substitute(lookup);
            let mut in_place = build(&ids, &xs);
            in_place.substitute_in_place(lookup);
            prop_assert_eq!(bits(&in_place), bits(&want));
            let view = e.substitute_view(lookup);
            let view_bits: Vec<(RvId, u64)> =
                view.terms().map(|(x, a)| (x, a.to_bits())).collect();
            prop_assert_eq!((view_bits, view.konst().to_bits()), bits(&want));
            let single = |s: Option<(RvId, f64, f64)>| s.map(|(x, a, b)| (x, a.to_bits(), b.to_bits()));
            prop_assert_eq!(single(view.as_single()), single(want.as_single()));
            prop_assert_eq!(view.as_constant().map(f64::to_bits), want.as_constant().map(f64::to_bits));
        }
    }
}
