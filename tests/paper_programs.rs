//! Every ProbZelus listing from the paper, compiled and run through the
//! full pipeline.

use probzelus::core::{Method, Value};
use probzelus::lang::{compile_source, ExecBackend, Kind, MufEngine, Options};
use probzelus::models::{generate_coin, generate_outlier, KalmanOracle};

fn opts(seed: u64) -> Options {
    Options {
        method: Method::StreamingDs,
        seed,
        ..Default::default()
    }
}

/// One engine over `node`, labelled with how it runs.
struct Path {
    label: String,
    method: Method,
    particles: usize,
    backend: ExecBackend,
    engine: MufEngine,
}

/// Engines for `node` on every path the closed forms hold on: streaming
/// and classic delayed sampling × 1 and 20 particles × both execution
/// backends. Both methods keep Kalman and Coin fully symbolic, so every
/// particle carries the exact posterior. Bounded delayed sampling is left
/// out: it realizes the `pre` values at the end of each step, so its
/// posterior is a sampled one (1.17 against 0 at step 0 on B.1).
fn every_path(src: &str, node: &str, seed: u64) -> Vec<Path> {
    let c = compile_source(src).unwrap();
    let mut paths = Vec::new();
    for method in [Method::StreamingDs, Method::ClassicDs] {
        for particles in [1, 20] {
            for backend in [ExecBackend::Interp, ExecBackend::Tape] {
                let options = Options {
                    method,
                    seed,
                    backend,
                };
                paths.push(Path {
                    label: format!("{method}/{particles}/{backend:?}"),
                    method,
                    particles,
                    backend,
                    engine: c.infer_node(node, particles, options).unwrap(),
                });
            }
        }
    }
    paths
}

impl Path {
    /// On the tape backend the engine really ran on the tape.
    fn assert_on_tape(&self) {
        if self.backend == ExecBackend::Tape {
            assert_eq!(self.engine.tape_status(), Some(Ok(())), "{}", self.label);
        }
    }
}

#[test]
fn section_2_hmm_and_driver() {
    // §2.2 (with the sensor stream supplied from the host).
    let src = r#"
        let node hmm y = x where
          rec x = sample (gaussian ((0. -> pre x), (100. -> 1.)))
          and () = observe (gaussian (x, 1.), y)
        let node main y = pos_dist where
          rec pos_dist = infer 1000 hmm y
    "#;
    let c = compile_source(src).unwrap();
    assert_eq!(c.kinds["hmm"], Kind::P);
    assert_eq!(c.kinds["main"], Kind::D);
}

#[test]
fn appendix_b1_kalman() {
    // Appendix B.1 (the `prob` argument is implicit in our embedding).
    let src = r#"
        let node delay_kalman yobs = xt where
          rec xt = sample (gaussian ((0. -> pre xt), (100. -> 1.)))
          and () = observe (gaussian (xt, 1.), yobs)
    "#;
    for mut path in every_path(src, "delay_kalman", 1) {
        let mut oracle = KalmanOracle::new();
        for t in 0..100 {
            let y = (t as f64 * 0.17).sin() * 3.0;
            let post = path.engine.step(&Value::Float(y)).unwrap();
            let (m, v) = oracle.step(y);
            let label = &path.label;
            assert!((post.mean_float() - m).abs() < 1e-9, "{label} step {t}");
            assert!((post.variance_float() - v).abs() < 1e-9, "{label} step {t}");
        }
        // Constant memory under SDS (Fig. 4); classic DS keeps the whole
        // chain by design (Fig. 19).
        if path.method == Method::StreamingDs {
            let live = path.engine.memory().live_nodes;
            assert!(live <= 3 * path.particles, "{}: {live}", path.label);
        }
        path.assert_on_tape();
    }
}

#[test]
fn appendix_b2_coin() {
    // Appendix B.2: `init xt = sample(beta(1,1))` — a constant parameter
    // learned from a stream of flips.
    let src = r#"
        let node coin yobs = xt where
          rec init xt = 0.5
          and xt = (sample (beta (1., 1.))) -> last xt
          and () = observe (bernoulli (xt), yobs)
    "#;
    // NOTE: the paper's `init xt = sample(...)` initializes by sampling;
    // our kernel's `init` takes constants (Fig. 6), so the sampled
    // initialization is expressed with `->` and `last`, which the paper
    // shows equivalent (§3.1).
    let data = generate_coin(5, 80);
    for mut path in every_path(src, "coin", 2) {
        let (mut a, mut b) = (1.0, 1.0);
        for y in &data.obs {
            let post = path.engine.step(&Value::Bool(*y)).unwrap();
            if *y {
                a += 1.0;
            } else {
                b += 1.0;
            }
            assert!(
                (post.mean_float() - a / (a + b)).abs() < 1e-9,
                "{}: {} vs {}",
                path.label,
                post.mean_float(),
                a / (a + b)
            );
        }
        path.assert_on_tape();
    }
}

#[test]
fn appendix_b3_outlier() {
    // Appendix B.3, with `present is_outlier -> … else …` on the sampled
    // indicator.
    let src = r#"
        let node outlier yobs = xt where
          rec xt = sample (gaussian ((0. -> pre xt), (100. -> 1.)))
          and op = (sample (beta (100., 1000.))) -> last op
          and init op = 0.1
          and is_outlier = sample (bernoulli (op))
          and () = present is_outlier
                   -> observe (gaussian (0., 100.), yobs)
                   else observe (gaussian (xt, 1.), yobs)
    "#;
    let c = compile_source(src).unwrap();
    let mut eng = c.infer_node("outlier", 100, opts(3)).unwrap();
    let data = generate_outlier(6, 120);
    let mut mse = probzelus::models::MseTracker::new();
    for (y, x) in data.obs.iter().zip(&data.truth) {
        let post = eng.step(&Value::Float(*y)).unwrap();
        mse.push(post.mean_float(), *x);
    }
    assert!(mse.mse() < 3.0, "MSE {}", mse.mse());
}

#[test]
fn section_3_1_counter_rewriting() {
    // The §3.1 example and its hand-rewritten kernel form compute the same
    // stream.
    let sugar = "let node f x = n where rec n = 0 -> pre n + 1";
    let kernel = r#"
        let node f x = n where
          rec init fst = true and init n = 0
          and fst = false
          and n = if last fst then 0 else last n + 1
    "#;
    let run = |src: &str| {
        let c = compile_source(src).unwrap();
        let mut inst = c.instantiate("f", opts(0)).unwrap();
        (0..6)
            .map(|_| {
                inst.step(Value::Unit)
                    .unwrap()
                    .as_core()
                    .unwrap()
                    .as_float()
                    .unwrap()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(sugar), run(kernel));
    assert_eq!(run(sugar), vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
}

#[test]
fn section_5_3_walk_needs_value_forcing() {
    // The unbounded `walk` and its §5.3 fix, at the language level.
    let unbounded = "let node walk u = x where rec x = sample(gaussian((0. -> pre x), 1.))";
    let bounded = r#"
        let node walk u = x where
          rec x = sample(gaussian((0. -> pre x), 1.))
          and () = value(0. -> pre (0. -> pre x))
    "#;
    let peak = |src: &str| {
        let c = compile_source(src).unwrap();
        let mut eng = c.infer_node("walk", 1, opts(4)).unwrap();
        let mut peak = 0;
        for _ in 0..80 {
            eng.step(&Value::Unit).unwrap();
            peak = peak.max(eng.memory().live_nodes);
        }
        peak
    };
    assert!(peak(unbounded) >= 80, "walk should grow");
    assert!(peak(bounded) <= 6, "forcing should bound the walk");
}

#[test]
fn ill_kinded_paper_style_programs_are_rejected() {
    // Probabilistic code outside infer, at the driver level.
    let src = r#"
        let node m y = sample(gaussian(y, 1.))
        let node main y = m(y) + 1.
    "#;
    let c = compile_source(src).unwrap();
    // `main` is P — it cannot be instantiated as a driver.
    assert!(c.instantiate("main", opts(0)).is_err());

    // And kind errors proper:
    assert!(compile_source("let node f y = observe(1.0, 1.0)").is_err()); // type
    assert!(
        compile_source("let node f y = sample(gaussian(sample(gaussian(y, 1.)), 1.))").is_err()
    ); // kind
}

#[test]
fn section_2_4_automaton_construct() {
    // The `task_bot`-style automaton (§2.4 / Fig. 5), exercised on a
    // deterministic controller: count up in `Go`, then count down in
    // `Stop` after the (weak) transition fires.
    let src = r#"
        let node counter u = n where rec n = 0. -> pre n + 1.
        let node f x = cmd where
          rec automaton
              | Go -> do cmd = counter(x) until cmd >= 3. then Stop
              | Stop -> do cmd = 0. -> pre cmd - 1. done
    "#;
    let c = compile_source(src).unwrap();
    let mut inst = c.instantiate("f", opts(0)).unwrap();
    let outs: Vec<f64> = (0..7)
        .map(|_| {
            inst.step(Value::Unit)
                .unwrap()
                .as_core()
                .unwrap()
                .as_float()
                .unwrap()
        })
        .collect();
    // Go emits 0,1,2,3 (the transition is weak: 3 is still emitted from
    // Go); Stop restarts at 0 and counts down.
    assert_eq!(outs, vec![0.0, 1.0, 2.0, 3.0, 0.0, -1.0, -2.0]);
}

#[test]
fn automaton_with_partially_defined_variable() {
    // `p_dist` exists only in `Go` (like Fig. 5); reading it in `Task`
    // yields the last Go-value.
    let src = r#"
        let node f x = (cmd, aux) where
          rec automaton
              | Go -> do cmd = 1. and aux = x until x > 2. then Task
              | Task -> do cmd = aux + 10. done
    "#;
    let c = compile_source(src).unwrap();
    let mut inst = c.instantiate("f", opts(0)).unwrap();
    let step = |inst: &mut probzelus::lang::Instance, x: f64| {
        let v = inst.step(Value::Float(x)).unwrap().as_core().unwrap();
        let (a, b) = v.as_pair().map(|(a, b)| (a.clone(), b.clone())).unwrap();
        (a.as_float().unwrap(), b.as_float().unwrap())
    };
    assert_eq!(step(&mut inst, 1.0), (1.0, 1.0));
    assert_eq!(step(&mut inst, 5.0), (1.0, 5.0)); // weak: still Go
                                                  // In Task, aux holds its last Go-value (5.0) and cmd uses it.
    assert_eq!(step(&mut inst, 9.0), (15.0, 5.0));
    assert_eq!(step(&mut inst, 0.0), (15.0, 5.0));
}

#[test]
fn automaton_rejects_reading_undefined_initials() {
    // If the *initial* state does not define a variable that the node
    // reads at the first instant, the initialization analysis objects.
    let src = r#"
        let node f x = aux where
          rec automaton
              | Go -> do cmd = 1. until x > 2. then Task
              | Task -> do cmd = 2. and aux = x done
    "#;
    let err = compile_source(src).unwrap_err();
    assert_eq!(err.stage, probzelus::lang::Stage::Init);
}
