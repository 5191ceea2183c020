//! Multivariate tracking with the matrix-affine Gaussian conjugacy: a
//! constant-velocity model over the state vector `[position, velocity]`.
//! One streaming-delayed-sampling particle *is* the matrix Kalman filter —
//! the velocity is inferred exactly from position fixes alone.
//!
//! ```text
//! cargo run --release --example mv_tracker
//! ```
//!
//! With `--metrics <path>` the engine exports per-tick JSONL telemetry
//! to `<path>`, readable by `obsreport`:
//!
//! ```text
//! cargo run --release --example mv_tracker -- --metrics mv.jsonl
//! ```

use probzelus::core::infer::{Infer, Method};
use probzelus::mv_tracker::{generate_mv_trace, MvKalmanOracle, MvTracker, MvTrackerParams};

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
    let params = MvTrackerParams::default();
    // Accelerate, cruise, brake.
    let controls: Vec<f64> = (0..300)
        .map(|t| match t {
            0..=99 => 1.0,
            100..=199 => 0.0,
            _ => -1.0,
        })
        .collect();
    let (truth, inputs) = generate_mv_trace(&params, &controls, 10, 42);

    let mut engine = Infer::with_seed(Method::StreamingDs, 1, MvTracker::new(params.clone()), 0);
    let obs_export = metrics.as_deref().map(|path| {
        use probzelus::core::obs::{Obs, WriterSink};
        use std::sync::Arc;
        match WriterSink::create(path) {
            Ok(sink) => {
                let obs = Obs::to(Arc::new(sink));
                engine.set_obs(obs.clone());
                println!("exporting telemetry to {path}");
                obs
            }
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                std::process::exit(2);
            }
        }
    });
    let mut oracle = MvKalmanOracle::new(params);

    println!(
        "{:>6} {:>9} {:>9} {:>10} {:>10} {:>12}",
        "t", "true p", "true v", "est p", "est v", "gps?"
    );
    for (t, input) in inputs.iter().enumerate() {
        let post = engine.step(input)?;
        let exact = oracle.step(input);
        let mean = post.mean_vector().expect("vector posterior");
        // Sanity: the engine matches the textbook filter to 1e-8.
        for i in 0..2 {
            assert!((mean.get(i) - exact.mean().get(i)).abs() < 1e-8);
        }
        if t % 30 == 29 {
            println!(
                "{:>6} {:>9.3} {:>9.3} {:>10.3} {:>10.3} {:>12}",
                t,
                truth[t].get(0),
                truth[t].get(1),
                mean.get(0),
                mean.get(1),
                if input.obs.is_some() { "fix" } else { "-" }
            );
        }
    }
    println!(
        "\none particle, exact matrix Kalman posterior; live graph nodes: {}",
        engine.memory().live_nodes
    );
    if let Some(obs) = &obs_export {
        if let Err(e) = obs.flush() {
            eprintln!("telemetry flush failed: {e}");
        }
    }
    Ok(())
}
