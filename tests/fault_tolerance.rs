//! The fault-tolerant supervisor: every [`RecoveryPolicy`] exercised on
//! the coin, HMM (Kalman), and SDS robot models, plus weight-collapse
//! recovery, retry-budget exhaustion, and — under the `chaos` feature —
//! 500-tick runs of every engine through the fault-injection harness.

mod common;

use common::fnv1a;
use probzelus::core::infer::{Infer, Method};
use probzelus::core::model::Model;
use probzelus::core::prob::ProbCtx;
use probzelus::core::supervisor::{RecoveryAction, RecoveryPolicy};
use probzelus::core::value::{DistExpr, Value};
use probzelus::core::RuntimeError;
use probzelus::models::{generate_coin, generate_kalman, Coin, Kalman};
use probzelus::robot::{GpsAccTracker, TrackerInput};

const SEED: u64 = 0xFA_17;
const PARTICLES: usize = 40;

/// A fault the test harness injects at a scheduled tick. Probabilistic
/// variants draw their coin from the particle's own stream, so which
/// particles fault is deterministic for a fixed engine seed.
#[derive(Debug, Clone, Copy)]
enum Glitch {
    /// Each particle returns [`RuntimeError::Host`] with this probability.
    Error(f64),
    /// Each particle panics with this probability.
    Panic(f64),
    /// Every particle's weight is zeroed (`factor(-inf)`).
    ZeroWeight,
    /// Every particle's weight is poisoned (`factor(NaN)`).
    NanWeight,
}

/// Wraps a model and fires [`Glitch`]es at scheduled ticks.
#[derive(Debug, Clone)]
struct Glitchy<M> {
    inner: M,
    schedule: Vec<(u64, Glitch)>,
    tick: u64,
}

impl<M> Glitchy<M> {
    fn new(inner: M, schedule: Vec<(u64, Glitch)>) -> Self {
        Glitchy {
            inner,
            schedule,
            tick: 0,
        }
    }
}

fn coin_flip(ctx: &mut dyn ProbCtx) -> Result<f64, RuntimeError> {
    let u = ctx.sample(&DistExpr::uniform(0.0, 1.0))?;
    ctx.force(&u)?.as_float()
}

impl<M: Model> Model for Glitchy<M> {
    type Input = M::Input;

    fn step(&mut self, ctx: &mut dyn ProbCtx, input: &M::Input) -> Result<Value, RuntimeError> {
        let tick = self.tick;
        self.tick += 1;
        for &(at, glitch) in &self.schedule {
            if at != tick {
                continue;
            }
            match glitch {
                Glitch::Error(prob) => {
                    if coin_flip(ctx)? < prob {
                        return Err(RuntimeError::Host(format!("injected fault at tick {tick}")));
                    }
                }
                Glitch::Panic(prob) => {
                    if coin_flip(ctx)? < prob {
                        panic!("injected panic at tick {tick}");
                    }
                }
                Glitch::ZeroWeight => ctx.factor(f64::NEG_INFINITY),
                Glitch::NanWeight => ctx.factor(f64::NAN),
            }
        }
        self.inner.step(ctx, input)
    }

    fn reset(&mut self) {
        self.tick = 0;
        self.inner.reset();
    }

    fn for_each_state_value(&mut self, f: &mut dyn FnMut(&mut Value)) {
        self.inner.for_each_state_value(f);
    }
}

/// Synthetic robot sensor stream: constant acceleration command with a
/// GPS fix every four ticks.
fn robot_inputs(steps: usize) -> Vec<TrackerInput> {
    (0..steps)
        .map(|t| TrackerInput {
            a_obs: (t as f64 * 0.1).sin(),
            gps: (t % 4 == 0).then_some(t as f64 * 0.05),
            cmd: 0.1,
        })
        .collect()
}

#[test]
fn fail_fast_surfaces_typed_error_and_freezes_clock() {
    let data = generate_kalman(1, 10);
    let model = Glitchy::new(Kalman::default(), vec![(3, Glitch::Error(1.0))]);
    let mut engine = Infer::with_seed(Method::ParticleFilter, PARTICLES, model, SEED);
    assert_eq!(engine.recovery_policy(), RecoveryPolicy::FailFast);
    for y in &data.obs[..3] {
        engine.step(y).unwrap();
    }
    assert_eq!(engine.steps(), 3);
    let err = engine.step(&data.obs[3]).unwrap_err();
    assert!(matches!(err, RuntimeError::Host(_)), "got {err}");
    // A failed step does not advance the stream clock.
    assert_eq!(engine.steps(), 3);
}

#[test]
fn fail_fast_reports_lowest_indexed_particle_panic() {
    let model = Glitchy::new(Kalman::default(), vec![(0, Glitch::Panic(1.0))]);
    let mut engine = Infer::with_seed(Method::ParticleFilter, 8, model, SEED);
    let err = engine.step(&0.5).unwrap_err();
    match err {
        RuntimeError::ParticlePanic(msg) => {
            assert!(msg.contains("particle 0"), "msg: {msg}");
            assert!(msg.contains("injected panic at tick 0"), "msg: {msg}");
        }
        other => panic!("expected ParticlePanic, got {other}"),
    }
}

#[test]
fn fail_fast_treats_weight_collapse_as_degenerate() {
    let data = generate_kalman(2, 4);
    let model = Glitchy::new(Kalman::default(), vec![(1, Glitch::ZeroWeight)]);
    let mut engine = Infer::with_seed(Method::ParticleFilter, PARTICLES, model, SEED);
    engine.step(&data.obs[0]).unwrap();
    let err = engine.step(&data.obs[1]).unwrap_err();
    assert!(matches!(err, RuntimeError::Degenerate(_)), "got {err}");
}

/// Every non-failing policy keeps the stream alive through a mixed fault
/// schedule on all three reference models.
#[test]
fn recovery_policies_keep_coin_hmm_and_robot_streams_alive() {
    let policies = [
        RecoveryPolicy::SkipObservation,
        RecoveryPolicy::Rejuvenate,
        RecoveryPolicy::ReseedPrior,
    ];
    let schedule = vec![
        (5, Glitch::Error(0.4)),
        (9, Glitch::Panic(0.3)),
        (13, Glitch::NanWeight),
    ];
    for policy in policies {
        // Coin.
        let data = generate_coin(3, 30);
        let mut engine = Infer::with_seed(
            Method::ParticleFilter,
            PARTICLES,
            Glitchy::new(Coin::default(), schedule.clone()),
            SEED,
        )
        .with_recovery_policy(policy);
        let mut fault_ticks = Vec::new();
        for (t, obs) in data.obs.iter().enumerate() {
            let outcome = engine.step_outcome(obs).unwrap_or_else(|e| {
                panic!("{policy:?} coin died at tick {t}: {e}");
            });
            if !outcome.health.faults.is_empty() {
                fault_ticks.push(t);
            }
            assert!(outcome.posterior.mean_float().is_finite());
        }
        assert!(
            fault_ticks.contains(&5) || fault_ticks.contains(&9) || fault_ticks.contains(&13),
            "{policy:?}: no fault ever recorded ({fault_ticks:?})"
        );

        // HMM (Kalman).
        let data = generate_kalman(4, 30);
        let mut engine = Infer::with_seed(
            Method::ParticleFilter,
            PARTICLES,
            Glitchy::new(Kalman::default(), schedule.clone()),
            SEED,
        )
        .with_recovery_policy(policy);
        for (t, obs) in data.obs.iter().enumerate() {
            let outcome = engine.step_outcome(obs).unwrap_or_else(|e| {
                panic!("{policy:?} kalman died at tick {t}: {e}");
            });
            assert!(outcome.posterior.mean_float().is_finite());
        }

        // SDS robot tracker.
        let inputs = robot_inputs(30);
        let mut engine = Infer::with_seed(
            Method::StreamingDs,
            PARTICLES,
            Glitchy::new(GpsAccTracker::default(), schedule.clone()),
            SEED,
        )
        .with_recovery_policy(policy);
        for (t, input) in inputs.iter().enumerate() {
            let outcome = engine.step_outcome(input).unwrap_or_else(|e| {
                panic!("{policy:?} robot died at tick {t}: {e}");
            });
            assert!(outcome.posterior.mean_float().is_finite());
        }
    }
}

#[test]
fn skip_observation_rolls_back_and_reports_skipped() {
    let data = generate_kalman(5, 12);
    let model = Glitchy::new(Kalman::default(), vec![(4, Glitch::Error(0.5))]);
    let mut engine = Infer::with_seed(Method::ParticleFilter, PARTICLES, model, SEED)
        .with_recovery_policy(RecoveryPolicy::SkipObservation);
    for (t, y) in data.obs.iter().enumerate() {
        let outcome = engine.step_outcome(y).unwrap();
        if t < 4 {
            assert!(outcome.health.is_nominal(), "unexpected fault at tick {t}");
        } else {
            // Rolled-back particles replay their faulting tick on later
            // steps (the rollback restores the model's own clock), so
            // faults may recur after tick 4 — but every one is Skipped.
            if t == 4 {
                assert!(!outcome.health.faults.is_empty(), "no fault at tick 4");
            }
            for fault in &outcome.health.faults {
                assert_eq!(fault.recovery, RecoveryAction::Skipped);
            }
        }
    }
}

/// FNV-1a hash of the posterior-mean bits and the total skip count of the
/// run below, recorded while a clone-everything resampler still existed
/// to check it against.
const SKIP_STREAM_HASH: u64 = 0x783f_a1fe_0bb4_fd8b;
const SKIP_COUNT: usize = 475;

/// The `SkipObservation` rollback snapshot is taken before particles are
/// stepped — and therefore before the resampler moves (rather than
/// clones) survivors into the next cloud — so the chaos rollback path
/// composes with clone-minimal resampling: the repaired stream and its
/// skip count match the ones recorded when every resampled slot was a
/// fresh clone.
#[test]
fn skip_observation_composes_with_clone_minimal_resampling() {
    let data = generate_kalman(6, 30);
    let schedule = vec![
        (4, Glitch::Error(0.5)),
        (11, Glitch::Panic(0.3)),
        (19, Glitch::Error(1.0)),
    ];
    let model = Glitchy::new(Kalman::default(), schedule);
    let mut engine = Infer::with_seed(Method::ParticleFilter, PARTICLES, model, SEED)
        .with_recovery_policy(RecoveryPolicy::SkipObservation);
    let mut bits = Vec::new();
    let mut skipped = 0usize;
    for y in &data.obs {
        let outcome = engine.step_outcome(y).unwrap();
        skipped += outcome
            .health
            .faults
            .iter()
            .filter(|f| f.recovery == RecoveryAction::Skipped)
            .count();
        bits.push(outcome.posterior.mean_float().to_bits());
    }
    assert!(skipped > 0, "schedule injected no skipped faults");
    assert_eq!(
        (fnv1a(bits), skipped),
        (SKIP_STREAM_HASH, SKIP_COUNT),
        "SkipObservation stream moved"
    );
}

#[test]
fn rejuvenate_clones_survivors_and_reports_donors() {
    let data = generate_kalman(6, 12);
    let model = Glitchy::new(Kalman::default(), vec![(4, Glitch::Panic(0.4))]);
    let mut engine = Infer::with_seed(Method::ParticleFilter, PARTICLES, model, SEED)
        .with_recovery_policy(RecoveryPolicy::Rejuvenate);
    for (t, y) in data.obs.iter().enumerate() {
        let outcome = engine.step_outcome(y).unwrap();
        if t == 4 {
            assert!(!outcome.health.faults.is_empty(), "no fault at tick 4");
            for fault in &outcome.health.faults {
                match fault.recovery {
                    RecoveryAction::Rejuvenated { donor } => {
                        assert!(donor < PARTICLES);
                        // The donor itself survived.
                        assert!(outcome.health.faults.iter().all(|f| f.particle != donor));
                    }
                    other => panic!("expected Rejuvenated, got {other:?}"),
                }
            }
        }
    }
}

#[test]
fn reseed_prior_resteps_fresh_particles() {
    let data = generate_coin(7, 12);
    let model = Glitchy::new(Coin::default(), vec![(4, Glitch::Error(0.5))]);
    let mut engine = Infer::with_seed(Method::ParticleFilter, PARTICLES, model, SEED)
        .with_recovery_policy(RecoveryPolicy::ReseedPrior);
    for (t, obs) in data.obs.iter().enumerate() {
        let outcome = engine.step_outcome(obs).unwrap();
        if t == 4 {
            assert!(!outcome.health.faults.is_empty(), "no fault at tick 4");
            assert!(outcome
                .health
                .faults
                .iter()
                .any(|f| f.recovery == RecoveryAction::Reseeded));
        }
    }
}

#[test]
fn weight_collapse_falls_back_to_last_good_posterior() {
    let data = generate_kalman(8, 10);
    let model = Glitchy::new(
        Kalman::default(),
        vec![(3, Glitch::ZeroWeight), (4, Glitch::ZeroWeight)],
    );
    let mut engine = Infer::with_seed(Method::ParticleFilter, PARTICLES, model, SEED)
        .with_recovery_policy(RecoveryPolicy::Rejuvenate);
    let mut last_healthy_mean = f64::NAN;
    for (t, y) in data.obs.iter().enumerate() {
        let outcome = engine.step_outcome(y).unwrap();
        match t {
            3 | 4 => {
                assert!(outcome.health.weight_collapse, "no collapse at tick {t}");
                assert!(outcome.health.used_last_good);
                assert_eq!(outcome.health.consecutive_collapses, (t - 2) as u32);
                assert_eq!(outcome.health.ess, 0.0);
                // The reported posterior is the last healthy one.
                assert_eq!(
                    outcome.posterior.mean_float().to_bits(),
                    last_healthy_mean.to_bits()
                );
            }
            _ => {
                assert!(!outcome.health.weight_collapse);
                assert_eq!(outcome.health.consecutive_collapses, 0);
                last_healthy_mean = outcome.posterior.mean_float();
            }
        }
    }
}

#[test]
fn collapse_retry_budget_exhaustion_is_a_typed_error() {
    let data = generate_kalman(9, 10);
    let schedule = (2..8).map(|t| (t, Glitch::ZeroWeight)).collect();
    let model = Glitchy::new(Kalman::default(), schedule);
    let mut engine = Infer::with_seed(Method::ParticleFilter, PARTICLES, model, SEED)
        .with_recovery_policy(RecoveryPolicy::Rejuvenate)
        .with_collapse_retry_budget(2);
    let mut err = None;
    for y in &data.obs {
        match engine.step(y) {
            Ok(_) => {}
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    let err = err.expect("budget exhaustion never surfaced");
    // The structured variant carries the facts a dashboard needs without
    // string parsing; the budget allows 2 consecutive collapses, so the
    // third one (tick 4 of the 2..8 glitch window) exhausts it.
    assert!(
        matches!(
            err,
            RuntimeError::CollapseBudgetExhausted {
                tick: 4,
                consecutive: 3,
                budget: 2,
            }
        ),
        "got {err:?}"
    );
    assert!(err.to_string().contains("retry budget"), "got {err}");
}

#[test]
fn rejuvenate_reconverges_after_fault_burst() {
    // Acceptance: after a fault burst, the supervised posterior returns
    // to within 5% of the fault-free posterior mean within 50 ticks.
    let data = generate_coin(10, 80);
    let mut clean = Infer::with_seed(Method::ParticleFilter, PARTICLES, Coin::default(), SEED);
    let mut faulty = Infer::with_seed(
        Method::ParticleFilter,
        PARTICLES,
        Glitchy::new(Coin::default(), vec![(20, Glitch::Panic(0.5))]),
        SEED,
    )
    .with_recovery_policy(RecoveryPolicy::Rejuvenate);
    let mut clean_mean = 0.0;
    let mut faulty_mean = 0.0;
    for (t, obs) in data.obs.iter().enumerate() {
        clean_mean = clean.step(obs).unwrap().mean_float();
        faulty_mean = faulty.step(obs).unwrap().mean_float();
        assert!(faulty_mean.is_finite(), "non-finite mean at tick {t}");
    }
    let rel = (faulty_mean - clean_mean).abs() / clean_mean.abs();
    assert!(
        rel < 0.05,
        "posterior did not reconverge: clean {clean_mean}, faulty {faulty_mean}, rel {rel}"
    );
}

/// Wraps the Kalman model and fires [`Glitch`]es keyed on the *input
/// stream position* rather than a model-internal clock. The distinction
/// matters for `SkipObservation`: rollback restores the whole model
/// state, internal tick counters included, so a state-keyed glitch
/// re-fires against every subsequent observation — and because a skipped
/// particle also dodges that tick's likelihood penalty, resampling then
/// multiplies the stuck population until the filter is dominated by
/// stale state. Keying on the input ties each fault to one observation
/// (the realistic poisoned-sensor-reading scenario) and lets skipped
/// particles rejoin on the next tick.
#[derive(Debug, Clone)]
struct InputGlitchy {
    inner: Kalman,
    schedule: Vec<(u64, Glitch)>,
}

impl Model for InputGlitchy {
    type Input = f64;

    fn step(&mut self, ctx: &mut dyn ProbCtx, input: &f64) -> Result<Value, RuntimeError> {
        // The test drives the ramp `obs[t] = 0.1 * t`, so the stream
        // position is recoverable from the observation itself.
        let tick = (input * 10.0).round() as u64;
        for &(at, glitch) in &self.schedule {
            if at != tick {
                continue;
            }
            match glitch {
                Glitch::Error(prob) => {
                    if coin_flip(ctx)? < prob {
                        return Err(RuntimeError::Host(format!("injected fault at tick {tick}")));
                    }
                }
                Glitch::Panic(prob) => {
                    if coin_flip(ctx)? < prob {
                        panic!("injected panic at tick {tick}");
                    }
                }
                Glitch::ZeroWeight => ctx.factor(f64::NEG_INFINITY),
                Glitch::NanWeight => ctx.factor(f64::NAN),
            }
        }
        self.inner.step(ctx, input)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn for_each_state_value(&mut self, f: &mut dyn FnMut(&mut Value)) {
        self.inner.for_each_state_value(f);
    }
}

/// `Rejuvenate` and `SkipObservation` recovery replay bit-for-bit,
/// rerun-for-rerun, and still reconverge against the exact Kalman oracle
/// after a fault burst. Recovery snapshots, rollback, and donor cloning
/// all run here, so a recovery path that forgot to restore some particle
/// state would surface.
#[test]
fn recovery_is_deterministic_and_reconverges_to_the_kalman_oracle() {
    const TICKS: usize = 200;
    // Ramp observations keep the posterior mean large so the relative
    // reconvergence bound is meaningful (see the chaos acceptance run).
    let obs: Vec<f64> = (0..TICKS).map(|t| 0.1 * t as f64).collect();
    let schedule = vec![
        (40, Glitch::Panic(0.5)),
        (80, Glitch::Error(0.5)),
        (120, Glitch::Error(0.6)),
    ];
    for policy in [RecoveryPolicy::Rejuvenate, RecoveryPolicy::SkipObservation] {
        let trace = || -> (Vec<u64>, usize) {
            let mut engine = Infer::with_seed(
                Method::StreamingDs,
                PARTICLES,
                InputGlitchy {
                    inner: Kalman::default(),
                    schedule: schedule.clone(),
                },
                SEED,
            )
            .with_recovery_policy(policy);
            let mut faults = 0;
            let bits = obs
                .iter()
                .enumerate()
                .map(|(t, y)| {
                    let outcome = engine
                        .step_outcome(y)
                        .unwrap_or_else(|e| panic!("{policy:?} died at tick {t}: {e}"));
                    faults += outcome.health.faults.len();
                    outcome.posterior.mean_float().to_bits()
                })
                .collect();
            (bits, faults)
        };

        let (bits, faults) = trace();
        assert!(
            faults > 0,
            "{policy:?}: schedule never fired — the compose test is vacuous"
        );
        // Determinism: a fresh engine with the same seed replays the run
        // bit-for-bit, faults and recoveries included.
        assert_eq!(
            trace(),
            (bits.clone(), faults),
            "{policy:?}: recovery run is not deterministic"
        );

        // Reconvergence: over the final quarter (≥30 ticks after the
        // last injection) the recovered posterior tracks the exact
        // Kalman oracle to within 5% relative error on average.
        let mut oracle = probzelus::models::KalmanOracle::new();
        let exact: Vec<f64> = obs.iter().map(|y| oracle.step(*y).0).collect();
        let tail = TICKS - 50;
        let (mut err, mut scale) = (0.0, 0.0);
        for t in tail..TICKS {
            err += (f64::from_bits(bits[t]) - exact[t]).abs();
            scale += exact[t].abs();
        }
        assert!(
            err <= 0.05 * scale,
            "{policy:?}: recovery did not reconverge: tail error {err}, scale {scale}"
        );
    }
}

#[test]
fn last_health_is_queryable_between_steps() {
    let data = generate_kalman(11, 6);
    let model = Glitchy::new(Kalman::default(), vec![(2, Glitch::Error(0.5))]);
    let mut engine = Infer::with_seed(Method::ParticleFilter, PARTICLES, model, SEED)
        .with_recovery_policy(RecoveryPolicy::Rejuvenate);
    assert!(engine.last_health().is_none());
    for y in &data.obs[..3] {
        engine.step(y).unwrap();
    }
    let health = engine.last_health().expect("health after stepping");
    assert!(!health.faults.is_empty());
}

/// The 500-tick acceptance runs through the chaos harness: every engine
/// survives scheduled particle panics, an all-NaN weight step, and a
/// zero-density observation, reporting the faults in `Health` and
/// reconverging afterwards.
#[cfg(feature = "chaos")]
mod chaos_acceptance {
    use super::*;
    use probzelus::core::chaos::{ChaosFault, ChaosModel};
    use probzelus::core::infer::Parallelism;

    const TICKS: usize = 500;

    fn chaos_schedule() -> Vec<(u64, ChaosFault)> {
        vec![
            (50, ChaosFault::PanicParticles { prob: 0.3 }),
            (150, ChaosFault::NanWeight),
            (250, ChaosFault::ZeroDensityObservation),
            (350, ChaosFault::HostError { prob: 0.3 }),
        ]
    }

    #[test]
    fn every_engine_survives_a_500_tick_chaos_run() {
        // Ramp observations keep the posterior mean large and stable, so
        // a 5% relative reconvergence bound is meaningful (around zero it
        // would drown in Monte Carlo noise).
        let obs: Vec<f64> = (0..TICKS).map(|t| 0.1 * t as f64).collect();
        for method in Method::ALL {
            let mut clean = Infer::with_seed(method, PARTICLES, Kalman::default(), SEED);
            let mut chaotic = Infer::with_seed(
                method,
                PARTICLES,
                ChaosModel::new(Kalman::default(), chaos_schedule()),
                SEED,
            )
            .with_recovery_policy(RecoveryPolicy::Rejuvenate);
            let mut oracle = probzelus::models::KalmanOracle::new();
            let mut fault_ticks = Vec::new();
            let (mut clean_err, mut chaos_err, mut exact_scale) = (0.0, 0.0, 0.0);
            let mut tail = 0.0;
            for (t, y) in obs.iter().enumerate() {
                let (exact, _) = oracle.step(*y);
                let clean_mean = clean.step(y).unwrap().mean_float();
                let outcome = chaotic
                    .step_outcome(y)
                    .unwrap_or_else(|e| panic!("{method}: aborted at tick {t}: {e}"));
                let chaos_mean = outcome.posterior.mean_float();
                if !outcome.health.is_nominal() {
                    fault_ticks.push(t);
                }
                // Accumulate tail errors against the exact posterior,
                // starting 50 ticks after the last injection.
                if t >= 400 {
                    clean_err += (clean_mean - exact).abs();
                    chaos_err += (chaos_mean - exact).abs();
                    exact_scale += exact.abs();
                    tail += 1.0;
                }
            }
            assert_eq!(chaotic.steps(), TICKS as u64, "{method}");
            // Reconvergence: 50 ticks after the last injection, the
            // chaos posterior has returned to within 5% of the exact
            // one — or, for samplers whose fault-free run has itself
            // degenerated over 500 ticks (importance sampling never
            // resamples), to within a small factor of the fault-free
            // engine's own error.
            let (clean_err, chaos_err) = (clean_err / tail, chaos_err / tail);
            let scale = exact_scale / tail;
            assert!(
                chaos_err <= (0.05 * scale).max(3.0 * clean_err),
                "{method}: not reconverged: mean errors over final 100 ticks — \
                 clean {clean_err}, chaos {chaos_err}, posterior scale {scale}"
            );
            for expected in [50, 150, 250] {
                assert!(
                    fault_ticks.contains(&expected),
                    "{method}: no fault reported at tick {expected} (got {fault_ticks:?})"
                );
            }
        }
    }

    #[test]
    fn killed_worker_does_not_change_the_posterior_stream() {
        let data = generate_kalman(22, 60);
        let model = || ChaosModel::new(Kalman::default(), chaos_schedule());
        let mut seq = Infer::with_seed(Method::ParticleFilter, PARTICLES, model(), SEED)
            .with_recovery_policy(RecoveryPolicy::Rejuvenate);
        let mut par = Infer::with_seed(Method::ParticleFilter, PARTICLES, model(), SEED)
            .with_recovery_policy(RecoveryPolicy::Rejuvenate)
            .with_parallelism(Parallelism::Threads(4));
        for (t, y) in data.obs.iter().enumerate() {
            if t == 20 {
                // The pool exists after the first parallel step; kill a
                // worker mid-stream.
                assert!(par.chaos_kill_worker(1));
            }
            let a = seq.step(y).unwrap().mean_float();
            let b = par.step(y).unwrap().mean_float();
            assert_eq!(a.to_bits(), b.to_bits(), "diverged at tick {t}");
        }
    }
}
