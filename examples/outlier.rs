//! The Outlier benchmark (Appendix B.3, after Minka 2001): position
//! tracking with a sensor that occasionally produces garbage readings from
//! `N(0, 100)`. Streaming delayed sampling turns the model into a
//! Rao-Blackwellized particle filter: the discrete outlier indicator is
//! sampled per particle while the position and the outlier rate stay
//! analytic.
//!
//! ```text
//! cargo run --release --example outlier
//! ```
//!
//! With `--metrics <path>` all three engines export per-tick JSONL
//! telemetry to `<path>` — each scoped to its method label — readable by
//! `obsreport`:
//!
//! ```text
//! cargo run --release --example outlier -- --metrics outlier.jsonl
//! ```

use probzelus::core::infer::{Infer, Method};
use probzelus::models::{generate_outlier, MseTracker, Outlier};

/// Parses `--metrics <path>` from the command line, if present.
fn metrics_path() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--metrics" {
            match args.next() {
                Some(path) => return Some(path),
                None => {
                    eprintln!("--metrics needs a file path");
                    std::process::exit(2);
                }
            }
        }
    }
    None
}

fn main() -> Result<(), probzelus::core::RuntimeError> {
    let metrics = metrics_path();
    let obs_export = metrics.as_deref().map(|path| {
        use probzelus::core::obs::{Obs, WriterSink};
        use std::sync::Arc;
        match WriterSink::create(path) {
            Ok(sink) => {
                println!("exporting telemetry to {path}");
                Obs::to(Arc::new(sink))
            }
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                std::process::exit(2);
            }
        }
    });
    let steps = 300;
    let data = generate_outlier(11, steps);

    let mut results = Vec::new();
    for (method, particles) in [
        (Method::ParticleFilter, 100),
        (Method::BoundedDs, 100),
        (Method::StreamingDs, 100),
    ] {
        let mut engine = Infer::with_seed(method, particles, Outlier::default(), 1);
        if let Some(obs) = &obs_export {
            engine.set_obs(obs.clone());
        }
        let mut mse = MseTracker::new();
        for (y, x) in data.obs.iter().zip(&data.truth) {
            let post = engine.step(y)?;
            mse.push(post.mean_float(), *x);
        }
        results.push((method, particles, mse.mse(), engine.memory().live_nodes));
    }

    println!("tracking through ~9% corrupted readings, {steps} steps\n");
    println!(
        "{:>5} {:>10} {:>12} {:>12}",
        "alg", "particles", "MSE", "live nodes"
    );
    for (method, particles, mse, nodes) in results {
        println!(
            "{:>5} {:>10} {:>12.4} {:>12}",
            method.label(),
            particles,
            mse,
            nodes
        );
    }
    println!(
        "\n(the observation noise floor is ~{:.1}; a non-robust filter is pulled far off by outliers)",
        probzelus::models::OBS_VAR
    );
    if let Some(obs) = &obs_export {
        if let Err(e) = obs.flush() {
            eprintln!("telemetry flush failed: {e}");
        }
    }
    Ok(())
}
