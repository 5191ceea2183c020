//! Determinism of the inference engines under counter-derived RNG
//! streams: for a fixed seed the posterior sequence is a pure function of
//! `(seed, method, num_particles, inputs)` — byte-identical across
//! execution modes, across thread counts, and across same-seed replays.

use probzelus::core::infer::{Infer, Method, Parallelism};
use probzelus::core::{ops, DistExpr, ProbCtx, RuntimeError, Value};
use probzelus::models::{generate_coin, generate_kalman, Coin, Kalman};
use probzelus::robot::{GpsAccTracker, RobotPhysics, TrackerInput, A_NOISE, A_VAR, H, P_NOISE};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Posterior means as raw bit patterns — equality here is bit-for-bit,
/// not approximate.
fn mean_bits<M, I>(engine: &mut Infer<M>, inputs: &[I]) -> Vec<u64>
where
    M: probzelus::core::model::Model<Input = I>,
{
    inputs
        .iter()
        .map(|i| engine.step(i).expect("step").mean_float().to_bits())
        .collect()
}

const SEED: u64 = 0xD5_CAFE;
const PARTICLES: usize = 50;
const STEPS: usize = 40;

#[test]
fn kalman_posteriors_identical_across_thread_counts() {
    let data = generate_kalman(7, STEPS);
    for method in Method::ALL {
        let mut seq = Infer::with_seed(method, PARTICLES, Kalman::default(), SEED);
        let mut t2 = Infer::with_seed(method, PARTICLES, Kalman::default(), SEED)
            .with_parallelism(Parallelism::Threads(2));
        let mut t8 = Infer::with_seed(method, PARTICLES, Kalman::default(), SEED)
            .with_parallelism(Parallelism::Threads(8));
        let a = mean_bits(&mut seq, &data.obs);
        let b = mean_bits(&mut t2, &data.obs);
        let c = mean_bits(&mut t8, &data.obs);
        assert_eq!(a, b, "{method}: Sequential vs Threads(2)");
        assert_eq!(a, c, "{method}: Sequential vs Threads(8)");
    }
}

#[test]
fn coin_posteriors_identical_across_thread_counts() {
    let data = generate_coin(11, STEPS);
    for method in Method::ALL {
        let mut seq = Infer::with_seed(method, PARTICLES, Coin::default(), SEED);
        let mut t2 = Infer::with_seed(method, PARTICLES, Coin::default(), SEED)
            .with_parallelism(Parallelism::Threads(2));
        let mut t8 = Infer::with_seed(method, PARTICLES, Coin::default(), SEED)
            .with_parallelism(Parallelism::Threads(8));
        let a = mean_bits(&mut seq, &data.obs);
        let b = mean_bits(&mut t2, &data.obs);
        let c = mean_bits(&mut t8, &data.obs);
        assert_eq!(a, b, "{method}: Sequential vs Threads(2)");
        assert_eq!(a, c, "{method}: Sequential vs Threads(8)");
    }
}

#[test]
fn reset_replays_the_same_posterior_sequence() {
    let data = generate_kalman(3, STEPS);
    for method in Method::ALL {
        let mut engine = Infer::with_seed(method, PARTICLES, Kalman::default(), SEED);
        let first = mean_bits(&mut engine, &data.obs);
        engine.reset();
        let replay = mean_bits(&mut engine, &data.obs);
        assert_eq!(first, replay, "{method}: reset replay diverged");
    }
}

#[test]
fn two_engines_with_same_seed_agree_even_when_stepped_interleaved() {
    // Stepping two engines in lockstep shares no hidden global state —
    // each is a closed system over its own seed.
    let data = generate_kalman(5, STEPS);
    let mut a = Infer::with_seed(Method::ParticleFilter, PARTICLES, Kalman::default(), SEED);
    let mut b = Infer::with_seed(Method::ParticleFilter, PARTICLES, Kalman::default(), SEED)
        .with_parallelism(Parallelism::Threads(4));
    for y in &data.obs {
        let pa = a.step(y).unwrap().mean_float().to_bits();
        let pb = b.step(y).unwrap().mean_float().to_bits();
        assert_eq!(pa, pb);
    }
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against the trivial way all the tests above could pass:
    // an engine that ignores its seed entirely.
    let data = generate_kalman(5, STEPS);
    let mut a = Infer::with_seed(Method::ParticleFilter, PARTICLES, Kalman::default(), 1);
    let mut b = Infer::with_seed(Method::ParticleFilter, PARTICLES, Kalman::default(), 2);
    assert_ne!(mean_bits(&mut a, &data.obs), mean_bits(&mut b, &data.obs));
}

/// Fault recovery is part of the determinism contract: a run through the
/// chaos harness — particle panics, NaN weights, zero-density
/// observations repaired by the supervisor — is still bit-for-bit
/// identical across execution modes, because every recovery decision is
/// made on the coordinator from counter-derived streams.
#[cfg(feature = "chaos")]
#[test]
fn chaos_recovery_is_identical_across_thread_counts() {
    use probzelus::core::chaos::{ChaosFault, ChaosModel};
    use probzelus::core::supervisor::RecoveryPolicy;

    let data = generate_kalman(13, STEPS);
    let schedule = vec![
        (5, ChaosFault::PanicParticles { prob: 0.4 }),
        (12, ChaosFault::NanWeight),
        (20, ChaosFault::ZeroDensityObservation),
        (28, ChaosFault::HostError { prob: 0.4 }),
    ];
    for policy in [
        RecoveryPolicy::SkipObservation,
        RecoveryPolicy::Rejuvenate,
        RecoveryPolicy::ReseedPrior,
    ] {
        for method in Method::ALL {
            let engine = |par: Option<Parallelism>| {
                let e = Infer::with_seed(
                    method,
                    PARTICLES,
                    ChaosModel::new(Kalman::default(), schedule.clone()),
                    SEED,
                )
                .with_recovery_policy(policy);
                match par {
                    Some(p) => e.with_parallelism(p),
                    None => e,
                }
            };
            let a = mean_bits(&mut engine(None), &data.obs);
            let b = mean_bits(&mut engine(Some(Parallelism::Threads(2))), &data.obs);
            let c = mean_bits(&mut engine(Some(Parallelism::Threads(8))), &data.obs);
            assert_eq!(a, b, "{method}/{policy:?}: Sequential vs Threads(2)");
            assert_eq!(a, c, "{method}/{policy:?}: Sequential vs Threads(8)");
        }
    }
}

/// Clone-minimality itself, witnessed without any telemetry sink: on
/// the hmm (Kalman) benchmark every resampling pass performs strictly
/// fewer deep clones than the particle count, and the avoided clones are
/// exactly the moved survivors.
#[test]
fn clone_minimal_does_strictly_fewer_clones_than_particle_count() {
    let data = generate_kalman(7, STEPS);
    let mut engine = Infer::with_seed(Method::ParticleFilter, PARTICLES, Kalman::default(), SEED);
    let mut prev = engine.resample_stats();
    for y in &data.obs {
        engine.step(y).unwrap();
        let s = engine.resample_stats();
        assert_eq!(s.passes, prev.passes + 1, "PF resamples every step");
        let clones = s.clones - prev.clones;
        let avoided = s.clones_avoided - prev.clones_avoided;
        let dropped = s.dropped - prev.dropped;
        assert!(
            clones < PARTICLES as u64,
            "pass did {clones} deep clones, not fewer than {PARTICLES}"
        );
        assert!(avoided > 0, "no clones avoided");
        // Every slot is either a moved survivor or a clone, and every
        // ancestor is either moved or dropped.
        assert_eq!(clones + avoided, PARTICLES as u64);
        assert_eq!(avoided + dropped, PARTICLES as u64);
        prev = s;
    }
}

/// The deadline controller's decision trace makes an adaptive run
/// replayable: a fresh engine fed the recorded trace — no clock, any
/// worker count — reproduces the live run's
/// posterior stream bit-for-bit. The live run uses a negative budget so
/// every tick misses and the full degradation ladder (shrink rungs,
/// resample relaxation, floor degradation) unrolls deterministically,
/// followed by a budget relief that drives the grow rungs too.
#[test]
fn decision_trace_replay_is_bitwise_identical_across_workers() {
    use probzelus::core::adaptive::DeadlineConfig;

    let data = generate_kalman(17, 2 * STEPS);
    let mut cfg = DeadlineConfig::new(-1.0);
    cfg.floor = 6;
    cfg.window = 4;
    let mut live = Infer::with_seed(Method::StreamingDs, PARTICLES, Kalman::default(), SEED)
        .with_deadline(cfg);
    let mut live_bits = Vec::new();
    for (t, y) in data.obs.iter().enumerate() {
        if t == STEPS {
            // Relief: massive headroom from here on, so the trace also
            // records restore and grow decisions.
            assert!(live.set_deadline_budget(1e12));
        }
        let p = live.step(y).unwrap();
        live_bits.push((p.mean_float().to_bits(), p.variance_float().to_bits()));
    }
    let trace = live.decision_trace().expect("live trace").clone();
    let shrinks = trace.entries().iter().filter(|r| r.to < r.from).count();
    let grows = trace.entries().iter().filter(|r| r.to > r.from).count();
    assert!(shrinks > 0 && grows > 0, "ladder did not unroll both ways");
    for par in [
        Parallelism::Sequential,
        Parallelism::Threads(2),
        Parallelism::Threads(5),
    ] {
        let mut replay = Infer::with_seed(Method::StreamingDs, PARTICLES, Kalman::default(), SEED)
            .with_parallelism(par)
            .with_decision_replay(trace.clone());
        for (y, (mean_bits, var_bits)) in data.obs.iter().zip(&live_bits) {
            let p = replay.step(y).unwrap();
            assert_eq!(
                p.mean_float().to_bits(),
                *mean_bits,
                "{par:?}: mean diverged"
            );
            assert_eq!(
                p.variance_float().to_bits(),
                *var_bits,
                "{par:?}: variance diverged"
            );
        }
        assert_eq!(replay.num_particles(), live.num_particles(), "{par:?}");
    }
}

#[test]
fn variance_and_ess_are_deterministic_too() {
    let data = generate_kalman(9, STEPS);
    let run = |par: Parallelism| {
        let mut e = Infer::with_seed(Method::BoundedDs, PARTICLES, Kalman::default(), SEED)
            .with_parallelism(par);
        let mut out = Vec::new();
        for y in &data.obs {
            let p = e.step(y).unwrap();
            out.push((p.variance_float().to_bits(), e.last_ess().to_bits()));
        }
        out
    };
    assert_eq!(run(Parallelism::Sequential), run(Parallelism::Threads(8)));
}

/// Tracker inputs from the simulated robot: a fix every fifth step and a
/// slowly alternating command.
fn tracker_inputs() -> Vec<TrackerInput> {
    let mut physics = RobotPhysics::new(17, 5);
    (0..STEPS)
        .map(|t| {
            let cmd = if (t / 8) % 2 == 0 { 0.5 } else { -0.5 };
            let s = physics.step(cmd);
            TrackerInput {
                a_obs: s.a_obs,
                gps: s.gps,
                cmd,
            }
        })
        .collect()
}

/// Sequential, `Threads(2)` and `Threads(8)` runs of `model` under SDS
/// and DS give bit-identical posterior means.
fn assert_tracker_identical_across_thread_counts<M>(model: M)
where
    M: probzelus::core::model::Model<Input = TrackerInput> + Clone + Send,
{
    let inputs = tracker_inputs();
    for method in [Method::StreamingDs, Method::ClassicDs] {
        let engine =
            |par| Infer::with_seed(method, PARTICLES, model.clone(), SEED).with_parallelism(par);
        let a = mean_bits(&mut engine(Parallelism::Sequential), &inputs);
        let b = mean_bits(&mut engine(Parallelism::Threads(2)), &inputs);
        let c = mean_bits(&mut engine(Parallelism::Threads(8)), &inputs);
        assert_eq!(a, b, "{method}: Sequential vs Threads(2)");
        assert_eq!(a, c, "{method}: Sequential vs Threads(8)");
    }
}

#[test]
fn robot_tracker_posteriors_identical_across_thread_counts() {
    assert_tracker_identical_across_thread_counts(GpsAccTracker::default());
}

/// Most terms seen in a [`LazyTracker`] position.
static LAZY_MAX_TERMS: AtomicUsize = AtomicUsize::new(0);

/// `gps_acc_tracker` without the per-step `force` of the native model,
/// the shape `robot.zl` has: velocity and position stay affine over the
/// accelerations sampled since the last GPS fix, so particle states hold
/// multi-term affine values whose term slices resampling shares between
/// particles, and so between worker threads.
#[derive(Debug, Clone)]
struct LazyTracker {
    v: Value,
    p: Value,
}

impl Default for LazyTracker {
    fn default() -> Self {
        LazyTracker {
            v: Value::Float(0.0),
            p: Value::Float(0.0),
        }
    }
}

impl probzelus::core::model::Model for LazyTracker {
    type Input = TrackerInput;

    fn step(&mut self, ctx: &mut dyn ProbCtx, input: &TrackerInput) -> Result<Value, RuntimeError> {
        let a = ctx.sample(&DistExpr::gaussian(input.cmd, A_VAR))?;
        ctx.observe(
            &DistExpr::gaussian(a.clone(), A_NOISE),
            &Value::Float(input.a_obs),
        )?;
        self.v = ops::add(&self.v, &ops::mul(&a, &Value::Float(H))?)?;
        self.p = ops::add(&self.p, &ops::mul(&self.v, &Value::Float(H))?)?;
        if let Value::Aff(e) = &self.p {
            LAZY_MAX_TERMS.fetch_max(e.num_vars(), Ordering::Relaxed);
        }
        if let Some(p_obs) = input.gps {
            ctx.observe(
                &DistExpr::gaussian(self.p.clone(), P_NOISE),
                &Value::Float(p_obs),
            )?;
        }
        self.v = ctx.simplify(&self.v);
        self.p = ctx.simplify(&self.p);
        Ok(self.p.clone())
    }

    fn reset(&mut self) {
        *self = LazyTracker::default();
    }

    fn for_each_state_value(&mut self, f: &mut dyn FnMut(&mut Value)) {
        f(&mut self.v);
        f(&mut self.p);
    }
}

#[test]
fn shared_multi_term_states_identical_across_thread_counts() {
    assert_tracker_identical_across_thread_counts(LazyTracker::default());
    assert!(
        LAZY_MAX_TERMS.load(Ordering::Relaxed) >= 3,
        "the lazy tracker never held a multi-term position"
    );
}
