//! The robot of Fig. 5: inference-in-the-loop control.
//!
//! The robot double-integrates a latent acceleration, fuses accelerometer
//! readings (every step) with GPS fixes (every second), drives toward a
//! target with a PD controller acting on the *inferred* position
//! distribution, and a two-state automaton performs its task once
//! `P(position ∈ target ± ε) > 0.9`.
//!
//! ```text
//! cargo run --release --example robot
//! ```
//!
//! With `--metrics <path>` the tracking engine exports per-tick JSONL
//! telemetry to `<path>`, readable by `obsreport`:
//!
//! ```text
//! cargo run --release --example robot -- --metrics robot.jsonl
//! ```

use probzelus::core::infer::Method;
use probzelus::robot::{BotMode, RobotPhysics, TaskBot, H};

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

/// A flusher for the telemetry sink, called once before each exit path.
type Flush = Box<dyn Fn()>;

fn attach_metrics(bot: TaskBot, path: &str) -> (TaskBot, Flush) {
    use probzelus::core::obs::{Obs, WriterSink};
    use std::sync::Arc;
    match WriterSink::create(path) {
        Ok(sink) => {
            let obs = Obs::to(Arc::new(sink));
            let bot = bot.with_obs(obs.clone());
            let flush = Box::new(move || {
                if let Err(e) = obs.flush() {
                    eprintln!("telemetry flush failed: {e}");
                }
            });
            (bot, flush)
        }
        Err(e) => {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() -> Result<(), probzelus::core::RuntimeError> {
    let target = 4.0;
    let eps = 0.25;
    let mut physics = RobotPhysics::new(2026, 10);
    let mut bot = TaskBot::new(Method::StreamingDs, 100, target, eps, 7);
    let mut flush_metrics: Option<Flush> = None;
    if let Some(path) = metrics_path() {
        let (instrumented, flush) = attach_metrics(bot, &path);
        bot = instrumented;
        flush_metrics = Some(flush);
        println!("exporting telemetry to {path}");
    }

    println!(
        "seeking target {target} ± {eps} (GPS every {}s)\n",
        10.0 * H
    );
    println!(
        "{:>7} {:>10} {:>10} {:>8}",
        "time", "true pos", "cmd", "mode"
    );

    let mut cmd = 0.0;
    for t in 0..2000 {
        let sensors = physics.step(cmd);
        cmd = bot.step(sensors)?;
        if t % 50 == 0 {
            println!(
                "{:>6.1}s {:>10.3} {:>10.3} {:>8}",
                t as f64 * H,
                physics.position(),
                cmd,
                match bot.mode() {
                    BotMode::Go => "Go",
                    BotMode::Task => "Task",
                }
            );
        }
        if bot.mode() == BotMode::Task {
            println!(
                "\nreached the target at t = {:.1}s (true position {:.3}); switching to Task",
                t as f64 * H,
                physics.position()
            );
            if let Some(flush) = flush_metrics {
                flush();
            }
            return Ok(());
        }
    }
    println!(
        "\nmission incomplete after 200s (final position {:.3})",
        physics.position()
    );
    if let Some(flush) = flush_metrics {
        flush();
    }
    Ok(())
}
