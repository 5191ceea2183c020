//! The ProbZelus *language* end to end: compile the paper's HMM source
//! (§2.2) through the full pipeline — parser, kind system, type checker,
//! initialization and causality analyses, desugaring, compilation to µF —
//! and run the compiled `main` driver, whose embedded `infer` is backed by
//! streaming delayed sampling.
//!
//! ```text
//! cargo run --release --example dsl_hmm
//! ```
//!
//! With `--metrics <path>` the embedded `infer` engine exports per-tick
//! JSONL telemetry to `<path>`, readable by `obsreport`:
//!
//! ```text
//! cargo run --release --example dsl_hmm -- --metrics hmm.jsonl
//! ```

use probzelus::core::{Method, Value};
use probzelus::lang::{compile_source, Compiled, Instance, Kind, LangError, MufValue, Options};
use probzelus::models::generate_kalman;

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

/// A flusher for the telemetry sink, called once at the end of the run
/// (the interpreter keeps its own handle alive, so the example must
/// flush explicitly rather than rely on drop order).
type Flush = Box<dyn Fn()>;

fn instantiate_exporting(
    compiled: &Compiled,
    options: Options,
    path: &str,
) -> Result<(Instance, Flush), LangError> {
    use probzelus::core::obs::{Obs, WriterSink};
    use std::sync::Arc;
    match WriterSink::create(path) {
        Ok(sink) => {
            let obs = Obs::to(Arc::new(sink));
            let instance = compiled.instantiate_with_obs("main", options, obs.clone())?;
            let flush = Box::new(move || {
                if let Err(e) = obs.flush() {
                    eprintln!("telemetry flush failed: {e}");
                }
            });
            Ok((instance, flush))
        }
        Err(e) => {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(2);
        }
    }
}

const SOURCE: &str = r#"
    (* The hidden Markov model of Section 2.2:
       x_t ~ N(x_{t-1}, speed)   with a wide prior at t = 0,
       y_t ~ N(x_t, noise).      *)
    let node hmm y = x where
      rec x = sample (gaussian ((0. -> pre x), (100. -> 1.)))
      and () = observe (gaussian (x, 1.), y)

    (* The driver: a stream of posteriors, plus its running mean. *)
    let node main y = (m, d) where
      rec d = infer 1 hmm y
      and m = mean_float(d)
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let compiled = compile_source(SOURCE)?;
    println!("compiled nodes:");
    for (name, kind) in &compiled.kinds {
        let sig = &compiled.sigs[name];
        println!("  {name} : {} -> {}   (kind {kind})", sig.input, sig.output);
    }
    assert_eq!(compiled.kinds["hmm"], Kind::P);
    assert_eq!(compiled.kinds["main"], Kind::D);

    let options = Options {
        method: Method::StreamingDs,
        seed: 4,
        ..Default::default()
    };
    let (mut instance, flush_metrics) = match metrics_path() {
        Some(path) => {
            let (instance, flush) = instantiate_exporting(&compiled, options, &path)?;
            println!("exporting telemetry to {path}");
            (instance, Some(flush))
        }
        None => (compiled.instantiate("main", options)?, None),
    };

    let data = generate_kalman(3, 30);
    println!(
        "\n{:>4} {:>9} {:>9} {:>12}",
        "t", "truth", "obs", "inferred"
    );
    for (t, (y, x)) in data.obs.iter().zip(&data.truth).enumerate() {
        let out = instance.step(Value::Float(*y))?;
        let MufValue::Tuple(parts) = &out else {
            panic!("driver returns a pair");
        };
        let mean = parts[0]
            .as_core()?
            .as_float()
            .map_err(probzelus::lang::LangError::from)?;
        if t % 3 == 0 {
            println!("{:>4} {:>9.3} {:>9.3} {:>12.3}", t, x, y, mean);
        }
    }
    println!("\n(one SDS particle: the inferred mean is the exact Kalman posterior)");
    if let Some(flush) = flush_metrics {
        flush();
    }
    Ok(())
}
