//! Regenerates the paper's evaluation figures as text tables.
//!
//! ```text
//! figures accuracy      # Fig. 2a / Fig. 16
//! figures latency       # Fig. 2b / Fig. 17
//! figures step-latency  # Fig. 18
//! figures memory        # Fig. 4 / Fig. 19
//! figures parallel      # beyond the paper: latency vs worker threads
//! figures chaos         # beyond the paper: fault-recovery latency
//! figures obs           # beyond the paper: instrumentation overhead
//! figures all           # everything
//! ```
//!
//! `chaos` requires building with `--features chaos`.
//!
//! Each table is printed to stdout and also written to
//! `figures_out/<experiment>.txt` (the directory is gitignored; tables
//! worth keeping are excerpted into `EXPERIMENTS.md`).
//!
//! `--quick` shrinks runs/steps for a fast smoke pass (the defaults match
//! the shapes reported in `EXPERIMENTS.md`).

use probzelus_bench::{
    experiment_accuracy, experiment_latency, experiment_memory, experiment_parallel_latency,
    experiment_resampling_ablation, experiment_step_latency, slope, BenchModel,
};
use std::fmt::Write as _;

/// Appends a line to the table buffer (writing to a `String` cannot fail).
macro_rules! out {
    ($dst:expr) => { let _ = writeln!($dst); };
    ($dst:expr, $($arg:tt)*) => { let _ = writeln!($dst, $($arg)*); };
}

/// Appends without a newline.
macro_rules! outw {
    ($dst:expr, $($arg:tt)*) => { let _ = write!($dst, $($arg)*); };
}

struct Config {
    // Only the obs-overhead witness branches on the mode itself (its
    // acceptance bound is meaningless at --quick scale).
    quick: bool,
    particle_counts: Vec<usize>,
    accuracy_steps: usize,
    accuracy_runs: usize,
    latency_steps: usize,
    latency_runs: usize,
    long_steps: usize,
    long_particles: usize,
    thread_counts: Vec<usize>,
}

impl Config {
    fn full() -> Config {
        Config {
            quick: false,
            particle_counts: vec![1, 2, 5, 10, 20, 35, 50, 75, 100],
            accuracy_steps: 500,
            accuracy_runs: 100,
            latency_steps: 200,
            latency_runs: 5,
            long_steps: 1600,
            long_particles: 100,
            thread_counts: vec![0, 1, 2, 4, 8],
        }
    }

    fn quick() -> Config {
        Config {
            quick: true,
            particle_counts: vec![1, 10, 50],
            accuracy_steps: 100,
            accuracy_runs: 10,
            latency_steps: 50,
            latency_runs: 2,
            long_steps: 200,
            long_particles: 20,
            thread_counts: vec![0, 2, 4],
        }
    }
}

/// Prints a rendered table and mirrors it to `figures_out/<name>.txt`.
fn emit(name: &str, table: &str) {
    print!("{table}");
    let dir = std::path::Path::new("figures_out");
    let path = dir.join(format!("{name}.txt"));
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, table));
    match written {
        Ok(()) => eprintln!("[wrote {}]", path.display()),
        Err(e) => eprintln!("[could not write {}: {e}]", path.display()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let cfg = if quick {
        Config::quick()
    } else {
        Config::full()
    };
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    match what {
        "accuracy" => emit("accuracy", &accuracy(&cfg)),
        "latency" => emit("latency", &latency(&cfg)),
        "step-latency" => emit("step-latency", &step_latency(&cfg)),
        "memory" => emit("memory", &memory(&cfg)),
        "ablation" => emit("ablation", &ablation(&cfg)),
        "parallel" => emit("parallel", &parallel(&cfg)),
        "chaos" => emit("chaos", &chaos(&cfg)),
        "obs" => emit("obs", &obs_overhead(&cfg)),
        "all" => {
            emit("accuracy", &accuracy(&cfg));
            emit("latency", &latency(&cfg));
            emit("step-latency", &step_latency(&cfg));
            emit("memory", &memory(&cfg));
            emit("ablation", &ablation(&cfg));
            emit("parallel", &parallel(&cfg));
            #[cfg(feature = "chaos")]
            emit("chaos", &chaos(&cfg));
            emit("obs", &obs_overhead(&cfg));
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!(
                "usage: figures [accuracy|latency|step-latency|memory|ablation|parallel|chaos|obs|all] [--quick]"
            );
            std::process::exit(2);
        }
    }
}

#[cfg(not(feature = "chaos"))]
fn chaos(_cfg: &Config) -> String {
    eprintln!("the chaos experiment needs the fault-injection harness:");
    eprintln!("    cargo run -p probzelus-bench --features chaos --bin figures -- chaos");
    std::process::exit(2);
}

#[cfg(feature = "chaos")]
fn chaos(cfg: &Config) -> String {
    let mut t = String::new();
    out!(
        t,
        "== Beyond the paper: fault-recovery latency (chaos harness, Kalman) =="
    );
    let (particles, steps) = (cfg.long_particles, cfg.accuracy_steps);
    out!(
        t,
        "   ({particles} particles, {steps} steps, fault injected at tick {}; policy = rejuvenate)",
        steps / 2
    );
    // Injected particle panics are caught by the supervisor; keep the
    // default hook from spraying backtraces over the table.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let pts = probzelus_bench::experiment_chaos(particles, steps);
    std::panic::set_hook(hook);
    out!(
        t,
        "{:>4} {:>18} {:>8} {:>10} {:>10} {:>12} {:>12}",
        "alg",
        "fault",
        "faults",
        "collapses",
        "recovery",
        "nominal ms",
        "fault ms"
    );
    for p in &pts {
        let recovery = match p.recovery_ticks {
            Some(ticks) => format!("{ticks} ticks"),
            None => "—".to_string(),
        };
        out!(
            t,
            "{:>4} {:>18} {:>8} {:>10} {:>10} {:>12.4} {:>12.4}",
            p.method.label(),
            p.fault,
            p.faults_reported,
            p.collapsed_steps,
            recovery,
            p.nominal_ms,
            p.fault_ms
        );
    }
    out!(t);
    t
}

fn obs_overhead(cfg: &Config) -> String {
    let mut t = String::new();
    out!(
        t,
        "== Beyond the paper: instrumentation overhead (telemetry sinks, Kalman) =="
    );
    // Overhead deltas under 2% sit below this experiment's run-to-run
    // drift at the default run count; the acceptance bound needs more
    // interleave cycles than the latency figures so transient slowdowns
    // (CPU frequency, VM steal) hit every sink configuration equally.
    let runs = if cfg.quick {
        cfg.latency_runs
    } else {
        cfg.latency_runs.max(25)
    };
    let (particles, steps) = (cfg.long_particles, cfg.latency_steps);
    out!(
        t,
        "   ({particles} particles, {runs} runs of {steps} steps, 1 warm-up run)"
    );
    out!(
        t,
        "   (noop = attached-but-discarding sink: the cost of collection + dispatch alone)"
    );
    let pts =
        probzelus_bench::experiment_obs_overhead(&[BenchModel::Kalman], particles, steps, runs);
    out!(
        t,
        "{:>8} {:>4} {:>36} {:>10}",
        "sink",
        "alg",
        "latency ms median [q10, q90]",
        "overhead"
    );
    for p in &pts {
        out!(
            t,
            "{:>8} {:>4} {} {:>9.2}%",
            p.sink,
            p.method.label(),
            p.latency_ms,
            p.overhead_pct
        );
    }
    out!(t);
    // The acceptance bound the tracing layer is held to: with spans and
    // phase timers active but the sink discarding everything, the step
    // latency must stay within 2% of the fully-off baseline. The estimate
    // is the median over interleave cycles of the per-cycle min-latency
    // ratio (see `experiment_obs_overhead`), the most steal-resistant
    // statistic available here. Only meaningful at the documented
    // measurement scale — `--quick` shrinks the step into the microsecond
    // range where the fixed per-tick instrumentation cost dominates the
    // ratio.
    if cfg.quick {
        out!(t, "   (--quick: 2% noop acceptance bound not evaluated)");
    } else {
        // The bound is held on the PF row: its step is the shortest, so
        // it is the fixed per-tick span cost's worst case among the rows
        // whose per-tick telemetry is span-dominated. (The SDS noop row
        // also carries the pre-existing per-particle graph-statistics
        // walks, which the tracing layer neither added nor gates.)
        let breaches: Vec<String> = pts
            .iter()
            .filter(|p| p.sink == "noop" && p.method.label() == "PF" && p.overhead_pct >= 2.0)
            .map(|p| {
                format!(
                    "{}/{}: tracing-enabled noop overhead {:.2}% breaches the 2% bound \
                     (measured cost is ~1.3% on an idle host; sustained hypervisor \
                     steal can push the estimate over — rerun on a quiet machine \
                     before treating this as a regression)",
                    p.model,
                    p.method.label(),
                    p.overhead_pct
                )
            })
            .collect();
        if !breaches.is_empty() {
            eprint!("{t}");
            panic!("{}", breaches.join("\n"));
        }
    }
    t
}

fn ablation(cfg: &Config) -> String {
    let mut t = String::new();
    out!(
        t,
        "== Ablation (beyond the paper): resampling policy on Kalman/PF =="
    );
    let (particles, steps, runs) = (50, cfg.accuracy_steps, cfg.accuracy_runs.min(30));
    out!(t, "   ({particles} particles, {steps} steps, {runs} runs)");
    let pts = experiment_resampling_ablation(particles, steps, runs);
    out!(
        t,
        "{:>10} {:>36} {:>12}",
        "policy",
        "MSE median [q10, q90]",
        "min ESS"
    );
    for p in &pts {
        out!(t, "{:>10} {} {:>12.1}", p.policy, p.mse, p.min_ess);
    }
    out!(t);
    t
}

fn parallel(cfg: &Config) -> String {
    let mut t = String::new();
    out!(
        t,
        "== Beyond the paper: step latency (ms) vs worker threads =="
    );
    let (particles, steps, runs) = (100, cfg.latency_steps, cfg.latency_runs);
    out!(
        t,
        "   ({particles} particles, {runs} runs of {steps} steps, 1 warm-up run; 0 threads = sequential path)"
    );
    out!(
        t,
        "   (posterior MSE column is constant by construction: counter-derived RNG streams)"
    );
    let pts = experiment_parallel_latency(
        &[BenchModel::Kalman, BenchModel::Outlier],
        particles,
        &cfg.thread_counts,
        steps,
        runs,
    );
    for model in [BenchModel::Kalman, BenchModel::Outlier] {
        out!(t, "\n-- {model} Parallel Performance --");
        out!(
            t,
            "{:>8} {:>4} {:>36} {:>12}",
            "threads",
            "alg",
            "latency ms median [q10, q90]",
            "final MSE"
        );
        for p in &pts {
            if p.model == model {
                out!(
                    t,
                    "{:>8} {:>4} {} {:>12.6}",
                    p.threads,
                    p.method.label(),
                    p.latency_ms,
                    p.mse
                );
            }
        }
    }
    out!(t);
    t
}

fn accuracy(cfg: &Config) -> String {
    let mut t = String::new();
    out!(
        t,
        "== Figure 2a / Figure 16: accuracy (final MSE) vs number of particles =="
    );
    out!(
        t,
        "   ({} runs of {} steps each; median [q10, q90])",
        cfg.accuracy_runs,
        cfg.accuracy_steps
    );
    let pts = experiment_accuracy(
        &BenchModel::ALL,
        &cfg.particle_counts,
        cfg.accuracy_steps,
        cfg.accuracy_runs,
    );
    for model in BenchModel::ALL {
        out!(t, "\n-- {model} Accuracy --");
        out!(
            t,
            "{:>10} {:>4} {:>36}",
            "particles",
            "alg",
            "MSE median [q10, q90]"
        );
        for p in &pts {
            if p.model == model {
                out!(t, "{:>10} {:>4} {}", p.particles, p.method.label(), p.mse);
            }
        }
    }
    out!(t);
    t
}

fn latency(cfg: &Config) -> String {
    let mut t = String::new();
    out!(
        t,
        "== Figure 2b / Figure 17: step latency (ms) vs number of particles =="
    );
    out!(
        t,
        "   ({} runs of {} steps, 1 warm-up run; median [q10, q90])",
        cfg.latency_runs,
        cfg.latency_steps
    );
    let pts = experiment_latency(
        &BenchModel::ALL,
        &cfg.particle_counts,
        cfg.latency_steps,
        cfg.latency_runs,
    );
    for model in BenchModel::ALL {
        out!(t, "\n-- {model} Performance --");
        out!(
            t,
            "{:>10} {:>4} {:>36}",
            "particles",
            "alg",
            "latency ms median [q10, q90]"
        );
        for p in &pts {
            if p.model == model {
                out!(
                    t,
                    "{:>10} {:>4} {}",
                    p.particles,
                    p.method.label(),
                    p.latency_ms
                );
            }
        }
    }
    out!(t);
    t
}

fn sampled_indices(len: usize, points: usize) -> Vec<usize> {
    let stride = (len / points).max(1);
    (0..len).step_by(stride).chain([len - 1]).collect()
}

fn step_latency(cfg: &Config) -> String {
    let mut t = String::new();
    out!(t, "== Figure 18: step latency (ms) over a long run ==");
    out!(
        t,
        "   ({} particles, {} steps)",
        cfg.long_particles,
        cfg.long_steps
    );
    let series = experiment_step_latency(&BenchModel::ALL, cfg.long_particles, cfg.long_steps);
    for model in BenchModel::ALL {
        out!(t, "\n-- {model} Performance over steps --");
        let rows: Vec<_> = series.iter().filter(|s| s.model == model).collect();
        outw!(t, "{:>8}", "step");
        for s in &rows {
            outw!(t, " {:>12}", s.method.label());
        }
        out!(t);
        let len = rows[0].values.len();
        for &i in &sampled_indices(len, 8) {
            outw!(t, "{:>8}", i);
            for s in &rows {
                outw!(t, " {:>12.4}", s.values[i]);
            }
            out!(t);
        }
        outw!(t, "{:>8}", "slope");
        for s in &rows {
            outw!(t, " {:>12.6}", slope(&s.values[len / 10..]));
        }
        out!(t, "  (ms/step; DS grows, the rest stay flat)");
    }
    out!(t);
    t
}

fn memory(cfg: &Config) -> String {
    let mut t = String::new();
    out!(
        t,
        "== Figure 4 / Figure 19: live delayed-sampling nodes over a long run =="
    );
    out!(
        t,
        "   ({} particles, {} steps; summed over particles)",
        cfg.long_particles,
        cfg.long_steps
    );
    let series = experiment_memory(&BenchModel::ALL, cfg.long_particles, cfg.long_steps);
    for model in BenchModel::ALL {
        out!(t, "\n-- {model} Ideal Memory --");
        let rows: Vec<_> = series.iter().filter(|s| s.model == model).collect();
        outw!(t, "{:>8}", "step");
        for s in &rows {
            outw!(t, " {:>12}", s.method.label());
        }
        out!(t);
        let len = rows[0].values.len();
        for &i in &sampled_indices(len, 8) {
            outw!(t, "{:>8}", i);
            for s in &rows {
                outw!(t, " {:>12.0}", s.values[i]);
            }
            out!(t);
        }
        outw!(t, "{:>8}", "slope");
        for s in &rows {
            outw!(t, " {:>12.4}", slope(&s.values[len / 10..]));
        }
        out!(
            t,
            "  (nodes/step; DS grows on Kalman/Outlier, flat on Coin)"
        );
    }
    out!(t);
    t
}
