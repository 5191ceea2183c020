//! Experiment harness for the paper's evaluation (§6).
//!
//! Each public `experiment_*` function regenerates one figure family:
//!
//! | function | paper figure(s) | what it measures |
//! |---|---|---|
//! | [`experiment_accuracy`]      | Fig. 2a, Fig. 16 | final MSE vs #particles (PF/BDS/SDS) |
//! | [`experiment_latency`]       | Fig. 2b, Fig. 17 | step latency vs #particles (PF/BDS/SDS) |
//! | [`experiment_step_latency`]  | Fig. 18 | step latency vs step index (PF/BDS/SDS/DS) |
//! | [`experiment_memory`]        | Fig. 4, Fig. 19 | live graph memory vs step index |
//!
//! The functions return structured series; the `figures` binary renders
//! them as the tables recorded in `EXPERIMENTS.md`.

use probzelus::models::{
    generate_coin, generate_kalman, generate_outlier, Coin, Kalman, MseTracker, Outlier,
};
use probzelus_core::infer::{Infer, Method, Parallelism};
use probzelus_core::model::Model;
use probzelus_distributions::stats;
use std::time::Instant;

/// The three benchmarks of §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchModel {
    /// Appendix B.1.
    Kalman,
    /// Appendix B.2.
    Coin,
    /// Appendix B.3.
    Outlier,
}

impl BenchModel {
    /// All benchmarks, in the paper's order.
    pub const ALL: [BenchModel; 3] = [BenchModel::Kalman, BenchModel::Coin, BenchModel::Outlier];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            BenchModel::Kalman => "Kalman",
            BenchModel::Coin => "Coin",
            BenchModel::Outlier => "Outlier",
        }
    }
}

impl std::fmt::Display for BenchModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Seed for the shared benchmark data ("every run of each benchmark across
/// all experiments uses the same data as input", §6.1).
pub const DATA_SEED: u64 = 0x5eed_da7a;

/// Median with 10%/90% quantiles — the error bars of Figs. 16–18.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// 10% quantile.
    pub q10: f64,
    /// Median.
    pub median: f64,
    /// 90% quantile.
    pub q90: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(xs: &[f64]) -> Summary {
        Summary {
            q10: stats::quantile(xs, 0.1),
            median: stats::median(xs),
            q90: stats::quantile(xs, 0.9),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:10.4} [{:10.4}, {:10.4}]",
            self.median, self.q10, self.q90
        )
    }
}

/// One inference run over the fixed data: returns the final MSE and the
/// mean per-step latency in milliseconds.
fn run_once<M: Model + Send>(
    template: &M,
    method: Method,
    particles: usize,
    obs: &[M::Input],
    truth: &[f64],
    seed: u64,
    parallelism: Parallelism,
) -> (f64, Vec<f64>)
where
    M::Input: Sync,
{
    let mut engine =
        Infer::with_seed(method, particles, template.clone(), seed).with_parallelism(parallelism);
    let mut mse = MseTracker::new();
    let mut latencies = Vec::with_capacity(obs.len());
    for (y, x) in obs.iter().zip(truth) {
        let t0 = Instant::now();
        let posterior = engine.step(y).expect("benchmark models do not fail");
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        mse.push(posterior.mean_float(), *x);
    }
    (mse.mse(), latencies)
}

/// Dispatches a closure over the concrete benchmark model, supplying the
/// shared data.
fn with_model<R>(model: BenchModel, steps: usize, f: impl FnOnce(&dyn RunDyn) -> R) -> R {
    match model {
        BenchModel::Kalman => {
            let trace = generate_kalman(DATA_SEED, steps);
            f(&Runner {
                template: Kalman::default(),
                obs: trace.obs,
                truth: trace.truth,
            })
        }
        BenchModel::Coin => {
            let trace = generate_coin(DATA_SEED, steps);
            f(&Runner {
                template: Coin::default(),
                obs: trace.obs,
                truth: trace.truth,
            })
        }
        BenchModel::Outlier => {
            let trace = generate_outlier(DATA_SEED, steps);
            f(&Runner {
                template: Outlier::default(),
                obs: trace.obs,
                truth: trace.truth,
            })
        }
    }
}

struct Runner<M: Model> {
    template: M,
    obs: Vec<M::Input>,
    truth: Vec<f64>,
}

/// Object-safe view of a benchmark run (erases the model type).
trait RunDyn {
    fn run(&self, method: Method, particles: usize, seed: u64) -> (f64, Vec<f64>);
    fn run_par(
        &self,
        method: Method,
        particles: usize,
        seed: u64,
        parallelism: Parallelism,
    ) -> (f64, Vec<f64>);
    fn run_memory(&self, method: Method, particles: usize, seed: u64) -> Vec<usize>;
    fn run_obs(
        &self,
        method: Method,
        particles: usize,
        seed: u64,
        obs: probzelus_core::obs::Obs,
    ) -> Vec<f64>;
}

impl<M: Model + Send> RunDyn for Runner<M>
where
    M::Input: Sync,
{
    fn run(&self, method: Method, particles: usize, seed: u64) -> (f64, Vec<f64>) {
        self.run_par(method, particles, seed, Parallelism::Sequential)
    }

    fn run_par(
        &self,
        method: Method,
        particles: usize,
        seed: u64,
        parallelism: Parallelism,
    ) -> (f64, Vec<f64>) {
        run_once(
            &self.template,
            method,
            particles,
            &self.obs,
            &self.truth,
            seed,
            parallelism,
        )
    }

    fn run_memory(&self, method: Method, particles: usize, seed: u64) -> Vec<usize> {
        let mut engine = Infer::with_seed(method, particles, self.template.clone(), seed);
        self.obs
            .iter()
            .map(|y| {
                engine.step(y).expect("benchmark models do not fail");
                engine.memory().live_nodes
            })
            .collect()
    }

    fn run_obs(
        &self,
        method: Method,
        particles: usize,
        seed: u64,
        obs: probzelus_core::obs::Obs,
    ) -> Vec<f64> {
        let mut engine =
            Infer::with_seed(method, particles, self.template.clone(), seed).with_obs(obs);
        let mut latencies = Vec::with_capacity(self.obs.len());
        for y in &self.obs {
            let t0 = Instant::now();
            engine.step(y).expect("benchmark models do not fail");
            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        latencies
    }
}

/// One point of an accuracy sweep.
#[derive(Debug, Clone)]
pub struct AccuracyPoint {
    /// Benchmark.
    pub model: BenchModel,
    /// Inference method.
    pub method: Method,
    /// Particle count.
    pub particles: usize,
    /// Final-MSE summary over runs.
    pub mse: Summary,
}

/// Figs. 2a / 16: final MSE vs particle count for PF / BDS / SDS.
pub fn experiment_accuracy(
    models: &[BenchModel],
    particle_counts: &[usize],
    steps: usize,
    runs: usize,
) -> Vec<AccuracyPoint> {
    let methods = [
        Method::ParticleFilter,
        Method::BoundedDs,
        Method::StreamingDs,
    ];
    let mut out = Vec::new();
    for &model in models {
        with_model(model, steps, |runner| {
            for &method in &methods {
                for &particles in particle_counts {
                    let finals: Vec<f64> = (0..runs)
                        .map(|r| runner.run(method, particles, r as u64).0)
                        .collect();
                    out.push(AccuracyPoint {
                        model,
                        method,
                        particles,
                        mse: Summary::of(&finals),
                    });
                }
            }
        });
    }
    out
}

/// One point of a latency sweep.
#[derive(Debug, Clone)]
pub struct LatencyPoint {
    /// Benchmark.
    pub model: BenchModel,
    /// Inference method.
    pub method: Method,
    /// Particle count.
    pub particles: usize,
    /// Per-step latency summary in milliseconds.
    pub latency_ms: Summary,
}

/// Figs. 2b / 17: per-step latency vs particle count for PF / BDS / SDS.
pub fn experiment_latency(
    models: &[BenchModel],
    particle_counts: &[usize],
    steps: usize,
    runs: usize,
) -> Vec<LatencyPoint> {
    let methods = [
        Method::ParticleFilter,
        Method::BoundedDs,
        Method::StreamingDs,
    ];
    let mut out = Vec::new();
    for &model in models {
        with_model(model, steps, |runner| {
            for &method in &methods {
                for &particles in particle_counts {
                    let mut all = Vec::new();
                    for r in 0..runs {
                        // Warm-up of one run, as in §6.2.
                        if runs > 1 && r == 0 {
                            let _ = runner.run(method, particles, 0);
                        }
                        all.extend(runner.run(method, particles, r as u64).1);
                    }
                    out.push(LatencyPoint {
                        model,
                        method,
                        particles,
                        latency_ms: Summary::of(&all),
                    });
                }
            }
        });
    }
    out
}

/// A per-step series (latency or memory) for one method.
#[derive(Debug, Clone)]
pub struct StepSeries {
    /// Benchmark.
    pub model: BenchModel,
    /// Inference method.
    pub method: Method,
    /// Value at each step (milliseconds or live nodes).
    pub values: Vec<f64>,
}

/// Fig. 18: per-step latency over a long run, PF / BDS / SDS / DS at
/// `particles` particles.
pub fn experiment_step_latency(
    models: &[BenchModel],
    particles: usize,
    steps: usize,
) -> Vec<StepSeries> {
    let methods = [
        Method::ParticleFilter,
        Method::BoundedDs,
        Method::StreamingDs,
        Method::ClassicDs,
    ];
    let mut out = Vec::new();
    for &model in models {
        with_model(model, steps, |runner| {
            for &method in &methods {
                let (_, lat) = runner.run(method, particles, 1);
                out.push(StepSeries {
                    model,
                    method,
                    values: lat,
                });
            }
        });
    }
    out
}

/// One point of the thread-count latency sweep.
#[derive(Debug, Clone)]
pub struct ParallelLatencyPoint {
    /// Benchmark.
    pub model: BenchModel,
    /// Inference method.
    pub method: Method,
    /// Particle count.
    pub particles: usize,
    /// Worker threads (`0` = the sequential path, no pool).
    pub threads: usize,
    /// Per-step latency summary in milliseconds.
    pub latency_ms: Summary,
    /// Final MSE of one run — recorded to demonstrate that accuracy is
    /// unchanged by the execution mode (determinism by construction).
    pub mse: f64,
}

/// Beyond the paper: per-step latency vs worker-thread count at a fixed
/// particle count. Thread count `0` requests the sequential path; any
/// other value routes stepping through a [`Parallelism::Threads`] pool.
/// Because per-particle RNG streams are counter-derived, every row of the
/// sweep computes the identical posterior — the `mse` field makes that
/// visible in the rendered tables.
pub fn experiment_parallel_latency(
    models: &[BenchModel],
    particles: usize,
    thread_counts: &[usize],
    steps: usize,
    runs: usize,
) -> Vec<ParallelLatencyPoint> {
    let methods = [Method::ParticleFilter, Method::StreamingDs];
    let mut out = Vec::new();
    for &model in models {
        with_model(model, steps, |runner| {
            for &method in &methods {
                for &threads in thread_counts {
                    let parallelism = match threads {
                        0 => Parallelism::Sequential,
                        n => Parallelism::Threads(n),
                    };
                    let mut all = Vec::new();
                    let mut mse = f64::NAN;
                    for r in 0..runs {
                        // Warm-up run amortizes pool creation, as for §6.2.
                        if runs > 1 && r == 0 {
                            let _ = runner.run_par(method, particles, 0, parallelism);
                        }
                        let (m, lat) = runner.run_par(method, particles, r as u64, parallelism);
                        mse = m;
                        all.extend(lat);
                    }
                    out.push(ParallelLatencyPoint {
                        model,
                        method,
                        particles,
                        threads,
                        latency_ms: Summary::of(&all),
                        mse,
                    });
                }
            }
        });
    }
    out
}

/// Figs. 4 / 19: live delayed-sampling graph memory per step (nodes summed
/// over particles), PF / BDS / SDS / DS.
pub fn experiment_memory(models: &[BenchModel], particles: usize, steps: usize) -> Vec<StepSeries> {
    let methods = [
        Method::ParticleFilter,
        Method::BoundedDs,
        Method::StreamingDs,
        Method::ClassicDs,
    ];
    let mut out = Vec::new();
    for &model in models {
        with_model(model, steps, |runner| {
            for &method in &methods {
                let mem = runner.run_memory(method, particles, 1);
                out.push(StepSeries {
                    model,
                    method,
                    values: mem.into_iter().map(|n| n as f64).collect(),
                });
            }
        });
    }
    out
}

/// One row of the resampling-policy ablation.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Policy label.
    pub policy: &'static str,
    /// Final-MSE summary over runs.
    pub mse: Summary,
    /// Worst effective sample size seen over a run (median over runs).
    pub min_ess: f64,
}

/// Ablation (beyond the paper): how the resampling policy of §5.1 affects
/// the particle filter on the Kalman benchmark — always resample (the
/// paper's choice), adaptive ESS thresholds, and never (importance
/// sampling).
pub fn experiment_resampling_ablation(
    particles: usize,
    steps: usize,
    runs: usize,
) -> Vec<AblationPoint> {
    use probzelus_core::infer::ResamplePolicy;
    let trace = generate_kalman(DATA_SEED, steps);
    let policies: [(&'static str, ResamplePolicy); 4] = [
        ("always", ResamplePolicy::EveryStep),
        ("ess<0.5N", ResamplePolicy::EssBelow(0.5)),
        ("ess<0.1N", ResamplePolicy::EssBelow(0.1)),
        ("never", ResamplePolicy::Never),
    ];
    policies
        .iter()
        .map(|&(label, policy)| {
            let mut finals = Vec::with_capacity(runs);
            let mut worst_ess = Vec::with_capacity(runs);
            for r in 0..runs {
                let mut engine = Infer::with_seed(
                    Method::ParticleFilter,
                    particles,
                    Kalman::default(),
                    r as u64,
                )
                .with_resample_policy(policy);
                let mut mse = MseTracker::new();
                let mut worst = f64::INFINITY;
                for (y, x) in trace.obs.iter().zip(&trace.truth) {
                    let post = engine.step(y).expect("kalman does not fail");
                    mse.push(post.mean_float(), *x);
                    worst = worst.min(engine.last_ess());
                }
                finals.push(mse.mse());
                worst_ess.push(worst);
            }
            AblationPoint {
                policy: label,
                mse: Summary::of(&finals),
                min_ess: stats::median(&worst_ess),
            }
        })
        .collect()
}

/// One row of the instrumentation-overhead experiment.
#[derive(Debug, Clone)]
pub struct ObsOverheadPoint {
    /// Benchmark.
    pub model: BenchModel,
    /// Inference method.
    pub method: Method,
    /// Telemetry configuration label (`off` / `noop` / `memory` / `jsonl`).
    pub sink: &'static str,
    /// Per-step latency summary in milliseconds.
    pub latency_ms: Summary,
    /// Median-latency overhead relative to the `off` row, in percent.
    pub overhead_pct: f64,
}

/// Instrumentation-overhead experiment (beyond the paper): per-step
/// latency of PF and SDS with telemetry off, with an attached-but-
/// discarding [`NoopSink`](probzelus_core::obs::NoopSink) (the cost of
/// collection and dispatch alone), with an in-process
/// [`MemorySink`](probzelus_core::obs::MemorySink), and with JSONL export
/// to a temp file. The `noop` row is the number the "<2% when disabled"
/// acceptance bound refers to; `Obs::off` is cheaper still (one branch).
pub fn experiment_obs_overhead(
    models: &[BenchModel],
    particles: usize,
    steps: usize,
    runs: usize,
) -> Vec<ObsOverheadPoint> {
    use probzelus_core::obs::{MemorySink, NoopSink, Obs, WriterSink};
    use std::sync::Arc;

    let methods = [Method::ParticleFilter, Method::StreamingDs];
    let sinks = ["off", "noop", "memory", "jsonl"];
    let mut out = Vec::new();
    for &model in models {
        with_model(model, steps, |runner| {
            for &method in &methods {
                // Warm-up run, as in §6.2.
                if runs > 1 {
                    let _ = runner.run(method, particles, 0);
                }
                // Sink configurations are interleaved at the run level so
                // slow drift (CPU frequency, cache state, VM steal) hits
                // every configuration equally instead of biasing whole
                // blocks. Per-run sample sets are kept separate: the
                // overhead estimate pairs each configuration's run with
                // the `off` run of the same interleave cycle (milliseconds
                // apart) and takes the median of the per-cycle ratios, so
                // drift *between* cycles cancels instead of polluting a
                // pooled median. Within a cycle the ratio basis is the
                // *minimum* step latency: hypervisor steal only ever
                // inflates a sample, so min-of-steps is immune to it,
                // while a genuine fixed per-tick cost still lands on the
                // fastest step in full.
                let mut all: Vec<Vec<Vec<f64>>> = vec![Vec::new(); sinks.len()];
                for r in 0..runs {
                    for (si, &sink) in sinks.iter().enumerate() {
                        let obs = match sink {
                            "off" => Obs::off(),
                            "noop" => Obs::to(Arc::new(NoopSink)),
                            "memory" => Obs::to(Arc::new(MemorySink::new())),
                            "jsonl" => {
                                let path = std::env::temp_dir()
                                    .join(format!("pz_obs_overhead_{model}_{method}.jsonl"));
                                Obs::to(Arc::new(
                                    WriterSink::create(path).expect("temp dir is writable"),
                                ))
                            }
                            _ => unreachable!(),
                        };
                        all[si].push(runner.run_obs(method, particles, r as u64, obs));
                    }
                }
                let floor = |lat: &[f64]| lat.iter().copied().fold(f64::INFINITY, f64::min);
                let base_by_run: Vec<f64> = all[0].iter().map(|lat| floor(lat)).collect();
                for (si, &sink) in sinks.iter().enumerate() {
                    let pooled: Vec<f64> = all[si].iter().flatten().copied().collect();
                    let ratios: Vec<f64> = all[si]
                        .iter()
                        .zip(&base_by_run)
                        .map(|(lat, &base)| floor(lat) / base)
                        .collect();
                    out.push(ObsOverheadPoint {
                        model,
                        method,
                        sink,
                        latency_ms: Summary::of(&pooled),
                        overhead_pct: (stats::median(&ratios) - 1.0) * 100.0,
                    });
                }
            }
        });
    }
    out
}

/// One row of the chaos experiment: how one engine absorbed one injected
/// fault and how long the posterior took to return to the fault-free
/// trajectory.
#[cfg(feature = "chaos")]
#[derive(Debug, Clone)]
pub struct ChaosPoint {
    /// Inference engine.
    pub method: Method,
    /// Fault label.
    pub fault: &'static str,
    /// Tick the fault was injected at.
    pub injected_at: u64,
    /// Per-particle faults reported by `Health` over the whole run.
    pub faults_reported: usize,
    /// Steps that reported a weight collapse.
    pub collapsed_steps: usize,
    /// Ticks from injection until the posterior mean returned to within
    /// 2% of the fault-free engine's (`None` = never within the run).
    pub recovery_ticks: Option<u64>,
    /// Median step latency (ms) over fault-free ticks.
    pub nominal_ms: f64,
    /// Step latency (ms) of the injection tick — the recovery overhead.
    pub fault_ms: f64,
}

/// Chaos experiment (beyond the paper): injects one fault class per run
/// into a Kalman engine under `RecoveryPolicy::Rejuvenate` and measures
/// recovery latency — ticks until the posterior mean re-enters a 2% band
/// around the fault-free run — plus the wall-clock cost of the recovery
/// step itself. Observations ramp upward so the 2% band is meaningful.
#[cfg(feature = "chaos")]
pub fn experiment_chaos(particles: usize, steps: usize) -> Vec<ChaosPoint> {
    use probzelus_core::chaos::{ChaosFault, ChaosModel};
    use probzelus_core::supervisor::RecoveryPolicy;

    let obs: Vec<f64> = (0..steps).map(|t| 0.1 * t as f64).collect();
    let injected_at = (steps / 2) as u64;
    let faults: [(&'static str, ChaosFault); 4] = [
        ("panic 30%", ChaosFault::PanicParticles { prob: 0.3 }),
        ("NaN weights", ChaosFault::NanWeight),
        ("zero-density obs", ChaosFault::ZeroDensityObservation),
        ("host error 30%", ChaosFault::HostError { prob: 0.3 }),
    ];
    let mut points = Vec::new();
    for method in Method::ALL {
        // Fault-free reference trajectory.
        let mut clean = Infer::with_seed(method, particles, Kalman::default(), DATA_SEED);
        let clean_means: Vec<f64> = obs
            .iter()
            .map(|y| clean.step(y).expect("kalman does not fail").mean_float())
            .collect();
        for (label, fault) in faults {
            let mut engine = Infer::with_seed(
                method,
                particles,
                ChaosModel::new(Kalman::default(), vec![(injected_at, fault)]),
                DATA_SEED,
            )
            .with_recovery_policy(RecoveryPolicy::Rejuvenate);
            let mut faults_reported = 0;
            let mut collapsed_steps = 0;
            let mut recovery_ticks = None;
            let mut nominal_lat = Vec::with_capacity(steps);
            let mut fault_ms = 0.0;
            for (t, y) in obs.iter().enumerate() {
                let t0 = Instant::now();
                let outcome = engine
                    .step_outcome(y)
                    .expect("rejuvenation absorbs every injected fault");
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                if t as u64 == injected_at {
                    fault_ms = ms;
                } else {
                    nominal_lat.push(ms);
                }
                faults_reported += outcome.health.faults.len();
                collapsed_steps += usize::from(outcome.health.weight_collapse);
                if t as u64 >= injected_at && recovery_ticks.is_none() {
                    let clean_mean = clean_means[t];
                    let rel = (outcome.posterior.mean_float() - clean_mean).abs()
                        / clean_mean.abs().max(1e-9);
                    if rel < 0.02 {
                        recovery_ticks = Some(t as u64 - injected_at);
                    }
                }
            }
            points.push(ChaosPoint {
                method,
                fault: label,
                injected_at,
                faults_reported,
                collapsed_steps,
                recovery_ticks,
                nominal_ms: stats::median(&nominal_lat),
                fault_ms,
            });
        }
    }
    points
}

/// Least-squares slope of a series (used to assert constant-vs-linear
/// growth in tests and in `EXPERIMENTS.md` summaries).
pub fn slope(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mean_x = (n - 1.0) / 2.0;
    let mean_y = values.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &y) in values.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (y - mean_y);
        den += dx * dx;
    }
    num / den
}

/// The std-only JSON reader behind the bench tools (`perfbench`'s
/// trajectory checks, `obsreport`'s telemetry checks); the workspace
/// vendors no serde.
pub mod json {
    /// A parsed JSON value. Object fields keep their source order.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number.
        Num(f64),
        /// A string, escapes resolved.
        Str(String),
        /// An array.
        Array(Vec<Json>),
        /// An object, as `(key, value)` pairs in source order.
        Object(Vec<(String, Json)>),
    }

    impl Json {
        /// The first field named `key` of an object.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The string, if this is one.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The number, if this is one. `WriterSink` exports non-finite
        /// values as the strings `NaN`, `inf` and `-inf` to keep lines
        /// parseable; they are accepted back here.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(x) => Some(*x),
                Json::Str(s) => match s.as_str() {
                    "NaN" => Some(f64::NAN),
                    "inf" => Some(f64::INFINITY),
                    "-inf" => Some(f64::NEG_INFINITY),
                    _ => None,
                },
                _ => None,
            }
        }

        /// The number as an unsigned integer, if it is one exactly.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
                _ => None,
            }
        }
    }

    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    ///
    /// A description of the first syntax error and its byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }

    struct Parser<'a> {
        text: &'a str,
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at offset {}", b as char, self.pos))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'n') => self.literal("null", Json::Null),
                Some(_) => self.number(),
                None => Err("unexpected end of input".into()),
            }
        }

        fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(format!("invalid literal at offset {}", self.pos))
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Json, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self.peek().ok_or("unterminated escape")?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let code = self
                                    .text
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or("bad \\u escape")?;
                                self.pos += 4;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or("surrogate \\u escape unsupported")?,
                                );
                            }
                            other => return Err(format!("bad escape '\\{}'", other as char)),
                        }
                    }
                    Some(_) => {
                        // Copy one UTF-8 scalar, not one byte: `pos` only
                        // ever advances by whole scalars, so it is a char
                        // boundary here.
                        let c = self.text[self.pos..]
                            .chars()
                            .next()
                            .ok_or("unterminated string")?;
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.pos;
            while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.peek() {
                self.pos += 1;
            }
            let text = &self.text[start..self.pos];
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{text}' at offset {start}"))
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn parses_nested_arrays_and_literals() {
            let v = parse("{\"a\":[1,2.5,true,null,\"x\"],\"b\":{\"c\":-3e2}}").expect("parses");
            assert_eq!(
                v.get("a"),
                Some(&Json::Array(vec![
                    Json::Num(1.0),
                    Json::Num(2.5),
                    Json::Bool(true),
                    Json::Null,
                    Json::Str("x".into()),
                ]))
            );
            assert_eq!(
                v.get("b").and_then(|b| b.get("c")),
                Some(&Json::Num(-300.0))
            );
            assert!(parse("{\"a\":}").is_err());
            assert!(parse("{} trailing").is_err());
            assert!(parse("[1,2] trailing").is_err());
        }

        #[test]
        fn resolves_string_escapes() {
            assert_eq!(
                parse("\"s\\n\\t\\\"\\u00e9é\"").unwrap(),
                Json::Str("s\n\t\"éé".into())
            );
            assert!(parse("\"\\q\"").is_err());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_shapes_match_the_paper_kalman() {
        // SDS is exact (particle-count independent); PF with few particles
        // is markedly worse (Fig. 16 top).
        let pts = experiment_accuracy(&[BenchModel::Kalman], &[1, 50], 100, 7);
        let get = |m: Method, p: usize| {
            pts.iter()
                .find(|x| x.method == m && x.particles == p)
                .map(|x| x.mse.median)
                .expect("point exists")
        };
        let sds1 = get(Method::StreamingDs, 1);
        let sds50 = get(Method::StreamingDs, 50);
        let pf1 = get(Method::ParticleFilter, 1);
        assert!((sds1 - sds50).abs() < 1e-9, "SDS exact: {sds1} vs {sds50}");
        assert!(pf1 > 2.0 * sds1, "PF@1 {pf1} vs SDS {sds1}");
    }

    #[test]
    fn memory_shapes_match_the_paper() {
        let series = experiment_memory(&[BenchModel::Kalman], 5, 120);
        let of = |m: Method| {
            series
                .iter()
                .find(|s| s.method == m)
                .expect("series exists")
        };
        // SDS flat, DS linear (Fig. 4); the paper's Coin DS stays flat.
        let sds = slope(&of(Method::StreamingDs).values[20..]);
        let ds = slope(&of(Method::ClassicDs).values[20..]);
        assert!(sds.abs() < 0.05, "SDS slope {sds}");
        assert!(ds > 3.0, "DS slope {ds}");
        let coin = experiment_memory(&[BenchModel::Coin], 5, 120);
        let coin_ds = slope(
            &coin
                .iter()
                .find(|s| s.method == Method::ClassicDs)
                .expect("series exists")
                .values[20..],
        );
        assert!(coin_ds.abs() < 0.05, "Coin DS slope {coin_ds}");
    }

    #[test]
    fn resampling_ablation_shapes() {
        let pts = experiment_resampling_ablation(30, 120, 8);
        let by = |label: &str| pts.iter().find(|p| p.policy == label).expect("present");
        // Never-resampling collapses and is much worse.
        assert!(by("never").mse.median > 2.0 * by("always").mse.median);
        assert!(by("never").min_ess < by("always").min_ess);
        // Adaptive resampling stays in the same accuracy class as always.
        assert!(by("ess<0.5N").mse.median < 3.0 * by("always").mse.median);
    }

    #[test]
    fn parallel_sweep_preserves_accuracy_across_thread_counts() {
        let pts = experiment_parallel_latency(&[BenchModel::Kalman], 40, &[0, 2, 4], 60, 1);
        for method in [Method::ParticleFilter, Method::StreamingDs] {
            let mses: Vec<u64> = pts
                .iter()
                .filter(|p| p.method == method)
                .map(|p| p.mse.to_bits())
                .collect();
            assert_eq!(mses.len(), 3);
            assert!(
                mses.windows(2).all(|w| w[0] == w[1]),
                "{method}: MSE varies with thread count"
            );
        }
    }

    #[test]
    fn summary_orders_quantiles() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert!(s.q10 <= s.median && s.median <= s.q90);
    }

    #[test]
    fn slope_detects_trends() {
        assert!((slope(&[1.0, 1.0, 1.0]) - 0.0).abs() < 1e-12);
        assert!((slope(&[0.0, 2.0, 4.0, 6.0]) - 2.0).abs() < 1e-12);
    }
}
