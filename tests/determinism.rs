//! Determinism of the inference engines under counter-derived RNG
//! streams: for a fixed seed the posterior sequence is a pure function of
//! `(seed, method, num_particles, inputs)` — byte-identical across
//! execution modes, across thread counts, and across same-seed replays.

use probzelus::core::infer::{Infer, Method, Parallelism};
use probzelus::models::{generate_coin, generate_kalman, Coin, Kalman};

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
    cfg.cooldown = 2;
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
