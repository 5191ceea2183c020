//! `pzc` — the ProbZelus compiler/runner CLI.
//!
//! ```text
//! pzc check FILE [--lint] [--json]        # full pipeline + static analyses
//! pzc explain PZ0xxx                      # long-form help for a diagnostic
//! pzc emit  FILE [--opt] [--tape]         # print the compiled µF code / tape
//! pzc opt   FILE [--json]                 # optimize; show before/after kernel
//! pzc run   FILE NODE [options]           # run a node over an input stream
//! pzc schema                              # the --json output contract (Markdown)
//!
//! check options:
//!   --lint               also run style lints (unused-stream, ...)
//!   --json               one JSON object per line: nodes, then diagnostics
//!   --explain PZ0xxx     alias for the explain subcommand
//!
//! run options:
//!   --inputs v1,v2,...   per-step inputs (floats, ints, bools, or () )
//!   --steps N            number of steps (default: #inputs, or 10)
//!   --method M           sds | bds | pf | ds | is      (default sds)
//!   --particles N        for probabilistic nodes       (default 1000)
//!   --seed S             RNG seed                      (default 0)
//!   --opt                run through the optimizing pass pipeline
//!   --backend B          interp | tape                 (default interp)
//! ```
//!
//! `emit --tape` lowers every node's per-particle transition to the flat
//! instruction tape of the `tape` execution backend and pretty-prints it.
//! Nodes that refuse to lower (drivers whose step embeds `infer`, or any
//! construct the tape cannot express) print the refusal reason instead —
//! those engines keep interpreting at runtime.
//!
//! `check` exits nonzero only on error-severity diagnostics; warnings and
//! lints are reported but do not fail the build. Deterministic nodes are
//! stepped directly by `run` (their embedded `infer` sites use the
//! selected method); probabilistic nodes are wrapped in an engine and
//! their per-step posterior mean/variance is printed.
//!
//! `opt` runs the optimizing µF pass pipeline (constant folding, dead
//! stream elimination, common-subexpression factoring), reports what each
//! pass did as `PZ06xx` lint diagnostics, and prints the scheduled kernel
//! before and after. The
//! passes are posterior-preserving: `run --opt` produces bit-identical
//! output.

use probzelus_core::infer::Method;
use probzelus_core::Value;
use probzelus_lang::diag;
use probzelus_lang::eval::{ExecBackend, Options};
use probzelus_lang::muf::MufValue;
use probzelus_lang::muf_pretty::print_muf_program;
use probzelus_lang::pipeline::{
    check_source, compile_source, compile_source_opt, optimize_source, Compiled,
};
use probzelus_lang::pretty::print_program;
use probzelus_lang::transform::opt::OptConfig;
use probzelus_lang::{Code, Kind, Severity};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("pzc: {msg}");
            ExitCode::from(1)
        }
    }
}

fn usage() -> String {
    "usage: pzc <check|explain|emit|opt|run|schema> FILE|CODE [NODE] [--lint] [--json] \
     [--explain PZ0xxx] [--inputs v1,v2,..] [--steps N] \
     [--method sds|bds|pf|ds|is] [--particles N] [--seed S] [--opt] [--tape] \
     [--backend interp|tape]"
        .to_string()
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut pos = Vec::new();
    let mut inputs: Option<String> = None;
    let mut steps: Option<usize> = None;
    let mut method = Method::StreamingDs;
    let mut particles = 1000usize;
    let mut seed = 0u64;
    let mut lint = false;
    let mut json = false;
    let mut optimize = false;
    let mut tape = false;
    let mut backend = ExecBackend::Interp;
    let mut explain: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut flag_value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--lint" => lint = true,
            "--json" => json = true,
            "--opt" => optimize = true,
            "--tape" => tape = true,
            "--backend" => {
                backend = match flag_value("--backend")?.as_str() {
                    "interp" => ExecBackend::Interp,
                    "tape" => ExecBackend::Tape,
                    other => return Err(format!("unknown backend `{other}`")),
                }
            }
            "--explain" => explain = Some(flag_value("--explain")?),
            "--inputs" => inputs = Some(flag_value("--inputs")?),
            "--steps" => {
                steps = Some(
                    flag_value("--steps")?
                        .parse()
                        .map_err(|e| format!("--steps: {e}"))?,
                )
            }
            "--particles" => {
                particles = flag_value("--particles")?
                    .parse()
                    .map_err(|e| format!("--particles: {e}"))?
            }
            "--seed" => {
                seed = flag_value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--method" => {
                method = match flag_value("--method")?.as_str() {
                    "sds" => Method::StreamingDs,
                    "bds" => Method::BoundedDs,
                    "pf" => Method::ParticleFilter,
                    "ds" => Method::ClassicDs,
                    "is" => Method::Importance,
                    other => return Err(format!("unknown method `{other}`")),
                }
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`\n{}", usage()))
            }
            other => pos.push(other.to_string()),
        }
    }

    if let Some(code) = explain {
        return explain_code(&code);
    }

    if pos.first().map(String::as_str) == Some("schema") {
        print!("{}", schema_md());
        return Ok(ExitCode::SUCCESS);
    }

    let (cmd, arg) = match (pos.first(), pos.get(1)) {
        (Some(c), Some(f)) => (c.clone(), f.clone()),
        _ => return Err(usage()),
    };

    if cmd == "explain" {
        return explain_code(&arg);
    }

    let file = arg;
    let src = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;

    let compile = |src: &str| -> Result<Compiled, String> {
        if optimize {
            compile_source_opt(src).map_err(|e| format!("{file}: {e}"))
        } else {
            compile_source(src).map_err(|e| format!("{file}: {e}"))
        }
    };

    match cmd.as_str() {
        "check" => Ok(check(&file, &src, lint, json)),
        "opt" => Ok(opt_cmd(&file, &src, json)),
        "emit" => {
            let compiled = compile(&src)?;
            if tape {
                let options = Options {
                    method,
                    seed,
                    backend: ExecBackend::Tape,
                };
                let mut names: Vec<&String> = compiled.kinds.keys().collect();
                names.sort();
                for name in names {
                    println!("=== {name} ===");
                    match compiled
                        .lower_node(name, options)
                        .map_err(|e| e.to_string())?
                    {
                        Ok(prog) => print!("{}", prog.render()),
                        Err(reason) => println!("not lowered: {reason}"),
                    }
                }
            } else {
                print!("{}", print_muf_program(&compiled.muf));
            }
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let compiled = compile(&src)?;
            let node = pos
                .get(2)
                .cloned()
                .ok_or_else(|| format!("run needs a node name\n{}", usage()))?;
            let parsed_inputs = parse_inputs(inputs.as_deref())?;
            let n = steps.unwrap_or_else(|| parsed_inputs.as_ref().map_or(10, Vec::len));
            let stream = |t: usize| -> Value {
                match &parsed_inputs {
                    Some(v) if !v.is_empty() => v[t % v.len()].clone(),
                    _ => Value::Unit,
                }
            };
            let options = Options {
                method,
                seed,
                backend,
            };
            match compiled.kinds.get(node.as_str()) {
                None => Err(format!("unknown node `{node}`")),
                Some(Kind::D) => {
                    let mut inst = compiled
                        .instantiate(&node, options)
                        .map_err(|e| e.to_string())?;
                    for t in 0..n {
                        let out = inst.step(stream(t)).map_err(|e| e.to_string())?;
                        println!("{t}: {}", render(&out));
                    }
                    Ok(ExitCode::SUCCESS)
                }
                Some(Kind::P) => {
                    let mut eng = compiled
                        .infer_node(&node, particles, options)
                        .map_err(|e| e.to_string())?;
                    println!("running {node} under {} with {particles} particles", method);
                    for t in 0..n {
                        let post = eng.step(&stream(t)).map_err(|e| e.to_string())?;
                        println!(
                            "{t}: mean {:.6}  var {:.6}",
                            post.mean_float(),
                            post.variance_float()
                        );
                    }
                    Ok(ExitCode::SUCCESS)
                }
            }
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// `pzc schema`: the machine-readable output contract, as Markdown.
/// `docs/CHECK_JSON.md` is the checked-in copy; CI regenerates this and
/// diffs, so the document cannot drift from the binary that emits the
/// lines (the same pattern as `obsreport --schema-md` / docs/METRICS.md).
/// The diagnostic-code list is read from the live catalog.
fn schema_md() -> String {
    let mut codes = String::new();
    for (i, code) in diag::ALL_CODES.iter().enumerate() {
        if i > 0 {
            codes.push_str(", ");
        }
        codes.push_str(&format!("`{code}`"));
    }
    format!(
        r#"# `pzc` machine-readable output

<!-- Generated by `pzc schema`. Do not edit by hand: CI diffs this file
     against the binary's output. Regenerate with
       cargo run --release -p probzelus-lang --bin pzc -- schema > docs/CHECK_JSON.md -->

`pzc check FILE [--lint] --json` prints one JSON object per line to
stdout: first one **node** object per compiled node (sorted by name) —
omitted entirely when the pipeline fails before compilation — then one
**diagnostic** object per diagnostic. `pzc opt FILE --json` prints the
optimizer's diagnostic objects followed by exactly one **opt-summary**
object. No other line shapes exist; a consumer can dispatch on the
`kind` field for node/opt-summary lines and on the presence of `code`
for diagnostics.

## `node` objects (`pzc check --json`)

| field | type | meaning |
|---|---|---|
| `kind` | string | always `"node"` |
| `name` | string | node name as written in the source |
| `node_kind` | string | `"D"` (deterministic) or `"P"` (probabilistic), Fig. 7 kinds |
| `input` | string | rendered input type |
| `output` | string | rendered output type |
| `verdict` | string | boundedness verdict: `Bounded(k)` or `Unbounded(witness)` |
| `effect` | string | effect-lattice analysis result: `"pure"`, `"det"`, or `"prob"` |

## diagnostic objects (`pzc check --json`, `pzc opt --json`)

| field | type | meaning |
|---|---|---|
| `code` | string | one of the catalog codes listed below |
| `severity` | string | `"error"`, `"warning"`, or `"lint"` |
| `stage` | string? | pipeline stage: `lex`, `parse`, `kind`, `type`, `init`, `schedule`, `compile`, `eval`; absent on stageless lints |
| `message` | string | human-readable one-liner |
| `pos` | object? | primary position `{{"line":N,"col":N}}` (1-based); absent when unknown |
| `labels` | array? | secondary positions `[{{"line":N,"col":N,"message":"..."}}]`; absent when empty |
| `notes` | array? | free-form follow-up strings; absent when empty |

Catalog codes ({n} today; `pzc explain CODE` gives the long form):
{codes}.

## `opt-summary` objects (`pzc opt --json`)

| field | type | meaning |
|---|---|---|
| `kind` | string | always `"opt-summary"` |
| `folded` | number | equations folded to compile-time constants |
| `removed` | number | dead streams eliminated |
| `cse` | number | common subexpressions factored into fresh streams |

## Exit status

`pzc check` exits nonzero only when at least one diagnostic has
severity `error`; warnings and lints report but pass. `pzc opt` never
fails on lints — its diagnostics describe transformations performed,
not defects.
"#,
        n = diag::ALL_CODES.len(),
    )
}

/// `pzc check`: pipeline + boundedness analysis (+ lints), diagnostics to
/// stderr, node summary to stdout. Exits nonzero only on hard errors.
fn check(file: &str, src: &str, lint: bool, json: bool) -> ExitCode {
    let checked = check_source(src, lint);
    if json {
        if let Some(compiled) = &checked.compiled {
            let mut names: Vec<&String> = compiled.kinds.keys().collect();
            names.sort();
            for name in names {
                let sig = &compiled.sigs[name];
                let verdict = compiled
                    .bounded
                    .get(name)
                    .map_or_else(|| "unknown".to_string(), |v| v.to_string());
                let effect = compiled.effects.node_effect(name);
                println!(
                    "{{\"kind\":\"node\",\"name\":\"{name}\",\"node_kind\":\"{}\",\
                     \"input\":\"{}\",\"output\":\"{}\",\"verdict\":\"{verdict}\",\
                     \"effect\":\"{effect}\"}}",
                    compiled.kinds[name], sig.input, sig.output
                );
            }
        }
        for d in &checked.diagnostics {
            println!("{}", d.to_json());
        }
    } else {
        for d in &checked.diagnostics {
            eprintln!("{}", d.render(file, src));
        }
        if let Some(compiled) = &checked.compiled {
            println!("{file}: ok ({} nodes)", compiled.kinds.len());
            let mut names: Vec<&String> = compiled.kinds.keys().collect();
            names.sort();
            for name in names {
                let sig = &compiled.sigs[name];
                let verdict = compiled
                    .bounded
                    .get(name)
                    .map_or_else(|| "unknown".to_string(), |v| v.to_string());
                let effect = compiled.effects.node_effect(name);
                println!(
                    "  {:<4} node {name} : {} -> {}  [{verdict}] [{effect}]",
                    compiled.kinds[name].to_string(),
                    sig.input,
                    sig.output
                );
            }
        }
        let (errors, warnings, lints) =
            checked
                .diagnostics
                .iter()
                .fold((0usize, 0usize, 0usize), |(e, w, l), d| match d.severity {
                    Severity::Error => (e + 1, w, l),
                    Severity::Warning => (e, w + 1, l),
                    Severity::Lint => (e, w, l + 1),
                });
        if errors + warnings + lints > 0 {
            eprintln!("{file}: {errors} error(s), {warnings} warning(s), {lints} lint(s)");
        }
    }
    if checked.has_errors() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `pzc opt`: run the optimizing pass pipeline and show its work — the
/// scheduled kernel before and after, every pass's diagnostic, and a
/// summary line. Never fails the build (the passes are advisory surface;
/// a program that optimizes to nothing is still a valid program).
fn opt_cmd(file: &str, src: &str, json: bool) -> ExitCode {
    let optimized = match optimize_source(src, &OptConfig::default()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{file}: {e}");
            return ExitCode::from(1);
        }
    };
    let report = &optimized.report;
    if json {
        for d in &report.diagnostics {
            println!("{}", d.to_json());
        }
        println!(
            "{{\"kind\":\"opt-summary\",\"folded\":{},\"removed\":{},\"cse\":{}}}",
            report.folded, report.removed, report.cse,
        );
    } else {
        println!("--- scheduled kernel (before) ---");
        print!("{}", print_program(&optimized.baseline.kernel));
        println!("--- optimized kernel (after) ---");
        print!("{}", print_program(&optimized.compiled.kernel));
        for d in &report.diagnostics {
            eprintln!("{}", d.render(file, src));
        }
        println!(
            "{file}: {} folded, {} dead stream(s) removed, {} subexpression(s) factored",
            report.folded, report.removed, report.cse
        );
    }
    ExitCode::SUCCESS
}

fn explain_code(spec: &str) -> Result<ExitCode, String> {
    let code = Code::parse(spec).ok_or_else(|| {
        format!(
            "unknown diagnostic code `{spec}` (known: {})",
            diag::ALL_CODES
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    let text = diag::explain(code).ok_or_else(|| format!("no explanation for `{code}`"))?;
    println!("{text}");
    Ok(ExitCode::SUCCESS)
}

fn parse_inputs(spec: Option<&str>) -> Result<Option<Vec<Value>>, String> {
    let Some(spec) = spec else { return Ok(None) };
    let mut out = Vec::new();
    for item in spec.split(',') {
        let item = item.trim();
        let v = if item == "()" {
            Value::Unit
        } else if item == "true" {
            Value::Bool(true)
        } else if item == "false" {
            Value::Bool(false)
        } else if let Ok(n) = item.parse::<i64>() {
            if item.contains('.') {
                Value::Float(n as f64)
            } else {
                Value::Int(n)
            }
        } else if let Ok(x) = item.parse::<f64>() {
            Value::Float(x)
        } else {
            return Err(format!("cannot parse input `{item}`"));
        };
        out.push(v);
    }
    Ok(Some(out))
}

fn render(v: &MufValue) -> String {
    match v {
        MufValue::V(v) => v.to_string(),
        MufValue::Nil => "nil".to_string(),
        MufValue::Posterior(p) => format!(
            "posterior(mean {:.6}, var {:.6})",
            p.mean_float(),
            p.variance_float()
        ),
        MufValue::Tuple(xs) => {
            format!("({})", xs.iter().map(render).collect::<Vec<_>>().join(", "))
        }
        other => format!("<{}>", other.kind()),
    }
}
