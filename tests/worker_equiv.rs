//! Bit-identity harness for the particle store across worker counts and
//! against checked-in posterior digests.
//!
//! Two halves, because DSL engines hold `Rc`s and cannot cross threads:
//! every probabilistic `examples/zelus/` program, and the native Kalman
//! model, runs through every method × golden seed sequentially and must
//! reproduce its digest in `tests/fixtures/posterior_digests.txt`
//! (per-tick posterior bits plus the final resampling counters), while
//! the worker-count axis
//! (sequential vs `Threads(3)`) is exercised on the native benchmark
//! models, which are `Send`. Any drift here is a bug, never an acceptable
//! approximation.

mod common;

use common::fnv1a;
use probzelus::core::adaptive::DeadlineConfig;
use probzelus::core::infer::{Infer, Parallelism, ResampleStats};
use probzelus::core::{Method, Value};
use probzelus::lang::{compile_source, ExecBackend, MufEngine, Options};
use probzelus::models::{generate_coin, generate_kalman, Coin, Kalman};

const SEEDS: [u64; 2] = [0xA11CE, 0xB0B5EED];
/// The golden seeds of the native Kalman digest rows.
const NATIVE_SEEDS: [u64; 4] = [0xD5_CAFE, 1, 0x5eed_0005, 0xfeed_beef];
const PARTICLES: usize = 40;
const STEPS: usize = 60;

/// The two worker counts of the native-model matrix: sequential, and a
/// thread count that does not divide the particle count evenly (exercises
/// ragged shards).
const WORKERS: [Parallelism; 2] = [Parallelism::Sequential, Parallelism::Threads(3)];

fn read_example(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/zelus")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every good example with a probabilistic node, with a deterministic
/// input stream for it. (`counter.zl` is deterministic and covered by
/// `counter_counts_ticks` below.)
fn prob_examples() -> Vec<(&'static str, &'static str, Vec<Value>)> {
    let hmm_inputs: Vec<Value> = (0..STEPS)
        .map(|t| Value::Float((t as f64 * 0.17).sin() * 3.0))
        .collect();
    let coin_inputs: Vec<Value> = (0..STEPS).map(|t| Value::Bool(t % 3 != 0)).collect();
    let robot_inputs: Vec<Value> = (0..STEPS)
        .map(|t| {
            let tf = t as f64;
            let has_gps = t % 5 == 0;
            Value::pair(
                Value::Float((tf * 0.31).cos() * 0.5),
                Value::pair(
                    Value::Bool(has_gps),
                    Value::pair(
                        Value::Float(if has_gps { tf * 0.01 } else { 0.0 }),
                        Value::Float(0.2),
                    ),
                ),
            )
        })
        .collect();
    vec![
        ("hmm.zl", "hmm", hmm_inputs),
        ("coin.zl", "coin", coin_inputs),
        ("robot.zl", "gps_acc_tracker", robot_inputs),
    ]
}

/// The full posterior trace as raw bit patterns plus the final resampling
/// counters — the complete observable surface a digest pins.
fn dsl_trace(
    backend: ExecBackend,
    file: &str,
    node: &str,
    method: Method,
    seed: u64,
    inputs: &[Value],
) -> (Vec<(u64, u64)>, ResampleStats) {
    let compiled = compile_source(&read_example(file)).expect("example compiles");
    let mut engine: MufEngine = compiled
        .infer_node(
            node,
            PARTICLES,
            Options {
                method,
                seed,
                backend,
            },
        )
        .expect("probabilistic node instantiates");
    let trace = inputs
        .iter()
        .map(|y| {
            let post = engine.step(y).expect("step");
            (post.mean_float().to_bits(), post.variance_float().to_bits())
        })
        .collect();
    (trace, engine.resample_stats())
}

/// The input stream of the robot.zl driver rows: GPS fixes walk towards
/// the target at 4.0 and arrive on two ticks of three, so `present` takes
/// both branches and `task_bot`'s automaton leaves `Go` mid-run (its
/// `reset` then fires).
fn driver_inputs() -> Vec<Value> {
    (0..STEPS)
        .map(|t| {
            let tf = t as f64;
            let has_gps = t % 3 != 1;
            Value::pair(
                Value::Float((tf * 0.23).sin() * 0.4),
                Value::pair(
                    Value::Bool(has_gps),
                    Value::pair(
                        Value::Float(if has_gps { (tf * 0.1).min(4.0) } else { 0.0 }),
                        Value::Float((tf * 0.13).cos()),
                    ),
                ),
            )
        })
        .collect()
}

/// Every float and boolean leaf of a driver output, in order, as raw bits.
fn value_bits(v: &Value, out: &mut Vec<u64>) {
    match v {
        Value::Pair(a, b) => {
            value_bits(a, out);
            value_bits(b, out);
        }
        Value::Float(x) => out.push(x.to_bits()),
        Value::Bool(b) => out.push(u64::from(*b)),
        other => panic!("unexpected driver output {other:?}"),
    }
}

/// The digest lines of robot.zl's driver instances — `robot` (an `infer`
/// in the loop) and `task_bot` (an automaton around it: `present`,
/// `reset`, nested inference) — under SDS and PF for every golden seed,
/// run on `backend`. A driver hands out no engine, so a line pins the bits
/// of every output tick.
fn driver_lines(backend: ExecBackend) -> Vec<String> {
    let compiled = compile_source(&read_example("robot.zl")).expect("robot.zl compiles");
    let inputs = driver_inputs();
    let mut lines = Vec::new();
    for node in ["robot", "task_bot"] {
        for method in [Method::StreamingDs, Method::ParticleFilter] {
            for seed in SEEDS {
                let options = Options {
                    method,
                    seed,
                    backend,
                };
                let mut inst = compiled.instantiate(node, options).expect("instantiates");
                let mut bits = Vec::new();
                for x in &inputs {
                    let out = inst.step(x.clone()).expect("driver step");
                    value_bits(&out.as_core().expect("core output"), &mut bits);
                }
                lines.push(format!(
                    "driver robot.zl {node} {method} {seed:#x} {:016x} ticks={}",
                    fnv1a(bits),
                    inputs.len()
                ));
            }
        }
    }
    lines
}

/// Checked-in posterior digests: one line per method × probabilistic
/// example × golden seed.
const DIGESTS: &str = include_str!("fixtures/posterior_digests.txt");

/// One fixture line: the run's coordinates, a hash of every tick's
/// `(mean, variance)` bits and the final resampling counters, and the
/// counters themselves in the clear.
fn digest_line(coords: &str, (trace, s): (Vec<(u64, u64)>, ResampleStats)) -> String {
    let words = trace.iter().flat_map(|&(m, v)| [m, v]).chain([
        s.passes,
        s.clones,
        s.clones_avoided,
        s.dropped,
    ]);
    format!(
        "{coords} {:016x} passes={} clones={} avoided={} dropped={}",
        fnv1a(words),
        s.passes,
        s.clones,
        s.clones_avoided,
        s.dropped
    )
}

/// The digest lines of every method × probabilistic example × golden
/// seed, run on `backend`.
fn dsl_lines(backend: ExecBackend) -> Vec<String> {
    let mut lines = Vec::new();
    for (file, node, inputs) in prob_examples() {
        for method in Method::ALL {
            for seed in SEEDS {
                let trace = dsl_trace(backend, file, node, method, seed, &inputs);
                lines.push(digest_line(
                    &format!("{file} {node} {method} {seed:#x}"),
                    trace,
                ));
            }
        }
    }
    lines
}

/// Every method × probabilistic example × golden seed, then every method
/// × native golden seed on the Kalman model, plus one deadline-resized
/// particle-filter run, reproduces its checked-in digest: the posterior
/// stream has not moved by a bit. The digests were recorded on the
/// interpreter; the DSL rows are checked a second time on the tape, which
/// pins the tape's bits to the checked-in file, not only to the
/// interpreter.
#[test]
fn posteriors_match_checked_in_digests() {
    let mut lines = dsl_lines(ExecBackend::Interp);
    let kalman = generate_kalman(13, STEPS);
    for method in Method::ALL {
        for seed in NATIVE_SEEDS {
            let trace = native_trace(
                method,
                seed,
                Parallelism::Sequential,
                Kalman::default(),
                &kalman.obs,
            );
            lines.push(digest_line(
                &format!("native Kalman {method} {seed:#x}"),
                trace,
            ));
        }
    }
    // Every tick misses a negative budget, so the controller's shrink
    // ladder — and with it the resize pass — unrolls the same way on any
    // machine.
    let mut cfg = DeadlineConfig::new(-1.0);
    cfg.floor = 7;
    cfg.window = 4;
    let seed = NATIVE_SEEDS[0];
    let engine = Infer::with_seed(Method::ParticleFilter, PARTICLES, Kalman::default(), seed)
        .with_deadline(cfg);
    lines.push(digest_line(
        &format!(
            "native Kalman+deadline {} {seed:#x}",
            Method::ParticleFilter
        ),
        engine_trace(engine, &kalman.obs),
    ));
    lines.extend(driver_lines(ExecBackend::Interp));
    let actual = lines.join("\n") + "\n";
    let expected: Vec<&str> = DIGESTS
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let got: Vec<&str> = actual.lines().collect();
    assert!(
        expected == got,
        "posterior digests moved; recomputed lines:\n{actual}"
    );
    let tape = dsl_lines(ExecBackend::Tape);
    assert!(
        expected[..tape.len()] == tape,
        "tape posteriors differ from the digests; recomputed lines:\n{}",
        tape.join("\n")
    );
    let drivers = driver_lines(ExecBackend::Tape);
    assert!(
        expected[expected.len() - drivers.len()..] == drivers,
        "tape driver outputs differ from the digests; recomputed lines:\n{}",
        drivers.join("\n")
    );
}

/// A native engine's posterior trace as raw `(mean, variance)` bit
/// patterns plus its final resampling counters.
fn engine_trace<M, I>(mut engine: Infer<M>, inputs: &[I]) -> (Vec<(u64, u64)>, ResampleStats)
where
    M: probzelus::core::model::Model<Input = I>,
{
    let trace = inputs
        .iter()
        .map(|y| {
            let post = engine.step(y).expect("step");
            (post.mean_float().to_bits(), post.variance_float().to_bits())
        })
        .collect();
    (trace, engine.resample_stats())
}

fn native_trace<M, I>(
    method: Method,
    seed: u64,
    workers: Parallelism,
    model: M,
    inputs: &[I],
) -> (Vec<(u64, u64)>, ResampleStats)
where
    M: probzelus::core::model::Model<Input = I> + Send + Clone,
    I: Sync,
{
    engine_trace(
        Infer::with_seed(method, PARTICLES, model, seed).with_parallelism(workers),
        inputs,
    )
}

/// The worker-count axis (DSL engines are single-threaded, so this runs on
/// the native `Send` models): sequential and ragged `Threads(3)` stepping
/// are one equivalence class per (model, method, seed).
#[test]
fn worker_counts_agree_bitwise_on_native_models() {
    let kalman = generate_kalman(13, STEPS);
    let coin = generate_coin(17, STEPS);
    for method in Method::ALL {
        for seed in SEEDS {
            let [seq, par] = WORKERS;
            let (reference, ref_stats) =
                native_trace(method, seed, seq, Kalman::default(), &kalman.obs);
            let (trace, stats) = native_trace(method, seed, par, Kalman::default(), &kalman.obs);
            assert_eq!(reference, trace, "kalman {method} seed={seed:#x}");
            assert_eq!(ref_stats, stats, "kalman stats {method} seed={seed:#x}");
            let (reference, ref_stats) =
                native_trace(method, seed, seq, Coin::default(), &coin.obs);
            let (trace, stats) = native_trace(method, seed, par, Coin::default(), &coin.obs);
            assert_eq!(reference, trace, "coin {method} seed={seed:#x}");
            assert_eq!(ref_stats, stats, "coin stats {method} seed={seed:#x}");
        }
    }
}

/// The tracing layer rides the same harness: spans are pure
/// observation, so posteriors must be bit-identical with tracing on or
/// off, and the *semantic* span tree (everything except the `pool.job`
/// schedule spans) must be bit-identical across worker counts.
mod tracing_equiv {
    use super::*;
    use probzelus::core::obs::{MemorySink, Obs};
    use std::sync::Arc;

    /// The identity of a span, shorn of its wall-clock duration.
    type SpanKey = (u64, &'static str, u64, Option<u64>, Option<u64>);

    fn traced_native_trace(
        method: Method,
        seed: u64,
        workers: Parallelism,
        inputs: &[f64],
    ) -> (Vec<(u64, u64)>, Vec<SpanKey>) {
        let sink = Arc::new(MemorySink::new());
        let black_box = std::env::temp_dir().join(format!(
            "pz_worker_equiv_bb_{method}_{seed:x}_{workers:?}.jsonl"
        ));
        let engine = Infer::with_seed(method, PARTICLES, Kalman::default(), seed)
            .with_parallelism(workers)
            .with_obs(Obs::to(sink.clone()))
            .with_black_box(&black_box);
        let (trace, _) = engine_trace(engine, inputs);
        std::fs::remove_file(&black_box).ok();
        let spans = sink
            .spans()
            .into_iter()
            .map(|s| (s.tick, s.name, s.id, s.parent, s.index))
            .collect();
        (trace, spans)
    }

    /// Tracing on (sink + flight recorder attached) is a pure observer:
    /// posterior bits match the untraced reference for every method and
    /// golden seed.
    #[test]
    fn tracing_does_not_perturb_the_posterior() {
        let kalman = generate_kalman(13, STEPS);
        for method in Method::ALL {
            for seed in SEEDS {
                let (reference, _) = native_trace(
                    method,
                    seed,
                    Parallelism::Sequential,
                    Kalman::default(),
                    &kalman.obs,
                );
                let (traced, spans) =
                    traced_native_trace(method, seed, Parallelism::Sequential, &kalman.obs);
                assert_eq!(
                    reference, traced,
                    "kalman {method} seed={seed:#x}: tracing changed the posterior"
                );
                assert!(
                    spans.iter().filter(|s| s.1 == "tick").count() == STEPS,
                    "{method} seed={seed:#x}: expected one tick span per step"
                );
            }
        }
    }

    /// Semantic span IDs are a pure function of `(seed, tick)`: the span
    /// tree — names, IDs, parents, order — is bit-identical between
    /// sequential and multi-worker runs once the nondeterministically
    /// interleaved `pool.job` schedule spans are set aside.
    #[test]
    fn semantic_span_ids_are_identical_across_worker_counts() {
        let kalman = generate_kalman(13, STEPS);
        for method in [Method::ParticleFilter, Method::StreamingDs] {
            for seed in SEEDS {
                let semantic = |spans: Vec<SpanKey>| -> Vec<SpanKey> {
                    spans.into_iter().filter(|s| s.1 != "pool.job").collect()
                };
                let (seq_posterior, seq_spans) =
                    traced_native_trace(method, seed, Parallelism::Sequential, &kalman.obs);
                let (par_posterior, par_spans) =
                    traced_native_trace(method, seed, Parallelism::Threads(3), &kalman.obs);
                assert_eq!(
                    seq_posterior, par_posterior,
                    "{method} seed={seed:#x}: posterior diverged across worker counts"
                );
                assert_eq!(
                    semantic(seq_spans),
                    semantic(par_spans),
                    "{method} seed={seed:#x}: semantic span tree diverged across worker counts"
                );
            }
        }
    }
}

/// `counter.zl` has no probabilistic node; its deterministic instance
/// counts ticks whatever the particle machinery does. Driving it at all
/// keeps "every good example" honest in this suite.
#[test]
fn counter_counts_ticks() {
    let compiled = compile_source(&read_example("counter.zl")).expect("counter compiles");
    let mut inst = compiled
        .instantiate(
            "counter",
            Options {
                method: Method::StreamingDs,
                seed: 0,
                ..Default::default()
            },
        )
        .expect("counter instantiates");
    for t in 0..20 {
        let out = inst.step(Value::Unit).expect("step");
        let n = out
            .as_core()
            .expect("core value")
            .as_float()
            .expect("number");
        assert_eq!(n, f64::from(t), "counter output");
    }
}
