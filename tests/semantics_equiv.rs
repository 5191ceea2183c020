//! Semantics preservation (Theorem 4.2): a model written against the
//! embedded API and the same model compiled from ProbZelus source through
//! µF produce the same inference results; deterministic nodes compiled
//! through µF match the hand-written co-iterative combinators.

use probzelus::core::infer::{Infer, Method};
use probzelus::core::stream::{Integrator, StreamNode};
use probzelus::core::Value;
use probzelus::lang::{compile_source, ExecBackend, MufValue, Options};
use probzelus::models::{generate_kalman, Kalman};
use probzelus::robot::{GpsAccTracker, RobotPhysics, TrackerInput};

const KALMAN_DSL: &str = r#"
    let node kalman y = x where
      rec x = sample (gaussian ((0. -> pre x), (100. -> 1.)))
      and () = observe (gaussian (x, 1.), y)
"#;

#[test]
fn dsl_and_embedded_kalman_agree_exactly_under_sds() {
    // Under SDS with one particle both compute the exact posterior, so
    // they must agree to floating-point precision regardless of seeds.
    let data = generate_kalman(5, 200);
    let compiled = compile_source(KALMAN_DSL).unwrap();
    let mut dsl = compiled
        .infer_node(
            "kalman",
            1,
            Options {
                method: Method::StreamingDs,
                seed: 123,
                ..Default::default()
            },
        )
        .unwrap();
    let mut embedded = Infer::with_seed(Method::StreamingDs, 1, Kalman::default(), 456);
    for y in &data.obs {
        let a = dsl.step(&Value::Float(*y)).unwrap();
        let b = embedded.step(y).unwrap();
        assert!(
            (a.mean_float() - b.mean_float()).abs() < 1e-10,
            "{} vs {}",
            a.mean_float(),
            b.mean_float()
        );
        assert!((a.variance_float() - b.variance_float()).abs() < 1e-10);
    }
}

#[test]
fn dsl_and_embedded_agree_under_every_engine_with_shared_seed() {
    // With the same seed and particle count, the sequence of random
    // choices is identical, so even the approximate engines agree.
    let data = generate_kalman(6, 50);
    let compiled = compile_source(KALMAN_DSL).unwrap();
    for method in [
        Method::ParticleFilter,
        Method::BoundedDs,
        Method::StreamingDs,
        Method::ClassicDs,
    ] {
        let mut dsl = compiled
            .infer_node(
                "kalman",
                20,
                Options {
                    method,
                    seed: 99,
                    ..Default::default()
                },
            )
            .unwrap();
        let mut embedded = Infer::with_seed(method, 20, Kalman::default(), 99);
        for (t, y) in data.obs.iter().enumerate() {
            let a = dsl.step(&Value::Float(*y)).unwrap();
            let b = embedded.step(y).unwrap();
            assert!(
                (a.mean_float() - b.mean_float()).abs() < 1e-9,
                "{method} step {t}: {} vs {}",
                a.mean_float(),
                b.mean_float()
            );
        }
    }
}

#[test]
fn compiled_integrator_matches_stream_combinator() {
    // The backward-Euler block from §1, compiled from source vs the
    // hand-written combinator.
    let src = r#"
        let node integr (xo, x') = x where
          rec x = xo -> pre x + x' * 0.5
    "#;
    let compiled = compile_source(src).unwrap();
    let mut inst = compiled
        .instantiate(
            "integr",
            Options {
                method: Method::StreamingDs,
                seed: 0,
                ..Default::default()
            },
        )
        .unwrap();
    let mut reference = Integrator::new(1.0, 0.5);
    for t in 0..100 {
        let dx = (t as f64 * 0.3).sin();
        let expected = reference.step(dx);
        let got = inst
            .step(Value::pair(Value::Float(1.0), Value::Float(dx)))
            .unwrap()
            .as_core()
            .unwrap()
            .as_float()
            .unwrap();
        assert!(
            (got - expected).abs() < 1e-12,
            "step {t}: {got} vs {expected}"
        );
    }
}

#[test]
fn driver_level_infer_equals_direct_engine() {
    // `main y = infer 1 kalman y` stepped as a deterministic driver must
    // equal running the probabilistic node directly.
    let src = format!("{KALMAN_DSL}\n let node main y = mean_float(infer 1 kalman y)");
    let compiled = compile_source(&src).unwrap();
    let mut driver = compiled
        .instantiate(
            "main",
            Options {
                method: Method::StreamingDs,
                seed: 1,
                ..Default::default()
            },
        )
        .unwrap();
    let mut direct = compiled
        .infer_node(
            "kalman",
            1,
            Options {
                method: Method::StreamingDs,
                seed: 2,
                ..Default::default()
            },
        )
        .unwrap();
    let data = generate_kalman(9, 60);
    for y in &data.obs {
        let a = match driver.step(Value::Float(*y)).unwrap() {
            MufValue::V(v) => v.as_float().unwrap(),
            other => panic!("expected float, got {}", other.kind()),
        };
        let b = direct.step(&Value::Float(*y)).unwrap().mean_float();
        assert!((a - b).abs() < 1e-10, "{a} vs {b}");
    }
}

#[test]
fn reset_in_dsl_restarts_inference_state() {
    // Wrapping the model body in `reset … every c` from the driver resets
    // the engine's prior.
    let src = r#"
        let node counter x = n where rec n = x -> pre n + x
        let node main c = reset counter(1.) every c
    "#;
    let compiled = compile_source(src).unwrap();
    let mut inst = compiled
        .instantiate(
            "main",
            Options {
                method: Method::StreamingDs,
                seed: 0,
                ..Default::default()
            },
        )
        .unwrap();
    let mut got = Vec::new();
    for c in [false, false, true, false, false] {
        let v = inst.step(Value::Bool(c)).unwrap();
        got.push(v.as_core().unwrap().as_float().unwrap());
    }
    assert_eq!(got, vec![1.0, 2.0, 1.0, 2.0, 3.0]);
}

#[test]
fn reset_over_infer_restarts_inference_cleanly_each_time() {
    // `reset` around an inference site must restore the engine to its
    // prior — repeatedly. (Regression test: the pristine initial state is
    // an engine that mutates in place; the compiled reset must hand out a
    // fresh copy, not alias it.)
    let src = r#"
        let node acc y = x where
          rec x = sample (gaussian ((0. -> pre x), (100. -> 1.)))
          and () = observe (gaussian (x, 1.), y)
        let node main (y, c) = reset mean_float(infer 1 acc y) every c
    "#;
    let compiled = compile_source(src).unwrap();
    let mut inst = compiled
        .instantiate(
            "main",
            Options {
                method: Method::StreamingDs,
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
    let mut step = |y: f64, c: bool| {
        inst.step(Value::pair(Value::Float(y), Value::Bool(c)))
            .unwrap()
            .as_core()
            .unwrap()
            .as_float()
            .unwrap()
    };
    let first_prior_update = 5.0 * 100.0 / 101.0;
    // Fresh engine: first observation from the wide prior.
    assert!((step(5.0, false) - first_prior_update).abs() < 1e-9);
    // A second observation narrows further (not the prior update).
    let second = step(5.0, false);
    assert!((second - first_prior_update).abs() > 1e-6);
    // First reset: back to the prior update.
    assert!((step(5.0, true) - first_prior_update).abs() < 1e-9);
    let _ = step(5.0, false);
    // Second reset must behave identically (s0 stayed pristine).
    assert!((step(5.0, true) - first_prior_update).abs() < 1e-9);
    // And a third.
    assert!((step(5.0, true) - first_prior_update).abs() < 1e-9);
}

/// The native `GpsAccTracker` is the same model as `robot.zl`'s
/// `gps_acc_tracker`: with the same seed and particle count, every tick's
/// posterior mean and variance agree bit for bit, on both execution
/// backends and under PF, BDS, SDS and classic DS. This holds although the DSL's strict `->` select also
/// evaluates `sample` at tick 0, where the `0.` branch is taken.
#[test]
fn native_robot_tracker_matches_robot_zl() {
    let compiled = compile_source(include_str!("../examples/zelus/robot.zl")).unwrap();
    let mut physics = RobotPhysics::new(5, 5);
    let inputs: Vec<TrackerInput> = (0..120)
        .map(|t| {
            let cmd = (t as f64 * 0.1).sin();
            let s = physics.step(cmd);
            TrackerInput {
                a_obs: s.a_obs,
                gps: s.gps,
                cmd,
            }
        })
        .collect();
    // `(a_obs, (has_gps, (p_obs, cmd)))`, the node's input.
    let dsl_input = |x: &TrackerInput| {
        Value::pair(
            Value::Float(x.a_obs),
            Value::pair(
                Value::Bool(x.gps.is_some()),
                Value::pair(Value::Float(x.gps.unwrap_or(0.0)), Value::Float(x.cmd)),
            ),
        )
    };
    for method in [
        Method::ParticleFilter,
        Method::BoundedDs,
        Method::StreamingDs,
        Method::ClassicDs,
    ] {
        for particles in [1, 20] {
            for backend in [ExecBackend::Interp, ExecBackend::Tape] {
                let seed = 31;
                let what = format!("{method:?}, {particles} particles, {backend:?}");
                let mut native =
                    Infer::with_seed(method, particles, GpsAccTracker::default(), seed);
                let options = Options {
                    method,
                    seed,
                    backend,
                };
                let mut dsl = compiled
                    .infer_node("gps_acc_tracker", particles, options)
                    .unwrap();
                for (t, x) in inputs.iter().enumerate() {
                    let a = native.step(x).unwrap();
                    let b = dsl.step(&dsl_input(x)).unwrap();
                    assert_eq!(
                        a.mean_float().to_bits(),
                        b.mean_float().to_bits(),
                        "{what}, tick {t}: mean {} vs {}",
                        a.mean_float(),
                        b.mean_float()
                    );
                    assert_eq!(
                        a.variance_float().to_bits(),
                        b.variance_float().to_bits(),
                        "{what}, tick {t}: variance {} vs {}",
                        a.variance_float(),
                        b.variance_float()
                    );
                }
                if backend == ExecBackend::Tape {
                    assert_eq!(dsl.tape_status(), Some(Ok(())), "{what}");
                }
            }
        }
    }
}
