//! `pzc` — the ProbZelus compiler/runner CLI.
//!
//! ```text
//! pzc check FILE [--lint] [--json]        # full pipeline + static analyses
//! pzc explain PZ0xxx                      # long-form help for a diagnostic
//! pzc emit  FILE [--tape]                 # print the compiled µF code / tape
//! pzc run   FILE NODE [options]           # run a node over an input stream
//! pzc schema                              # the --json output contract (Markdown)
//!
//! check options:
//!   --lint               also run style lints (unused-stream, ...)
//!   --json               one JSON object per line: nodes, then diagnostics
//!   --explain PZ0xxx     alias for the explain subcommand
//!
//! run options:
//!   --inputs v1,v2,...   per-step inputs (floats, ints, bools, or () ),
//!                        read as the node's input type
//!   --steps N            number of steps (default: #inputs, or 10)
//!   --method M           sds | bds | pf | ds | is      (default sds)
//!   --particles N        for probabilistic nodes       (default 1000)
//!   --seed S             RNG seed                      (default 0)
//! ```
//!
//! `run` executes every engine and instance on the flat instruction tape,
//! the default backend. `emit --tape` lowers every node to the tape it
//! runs on and pretty-prints it: a probabilistic node as a per-particle
//! transition (an `infer` in it steps an engine per particle), a
//! deterministic node whose state holds engines as a driver, whose
//! `infer` op steps them, and every other deterministic node as a
//! per-particle transition. A particle tape is followed by its `steady:`
//! program when it has one (the program a particle runs after its first
//! step, with its `->` flags constant). A node that does not lower (only
//! hand-built µF should get there) prints the reason instead, and an
//! engine or instance over it fails to build with that reason.
//!
//! Every line goes to stdout through [`out`]. A reader that closes the
//! pipe early (`pzc run … | head -n1`) ends `pzc` quietly with exit 0;
//! any other write error is a `pzc: …` failure with exit 1.
//!
//! `check` exits nonzero only on error-severity diagnostics; warnings and
//! lints are reported but do not fail the build. Deterministic nodes are
//! stepped directly by `run` (their embedded `infer` sites use the
//! selected method); probabilistic nodes are wrapped in an engine and
//! their per-step posterior mean/variance is printed. `--inputs` gives
//! scalars only, so a node whose input type is a tuple cannot be run from
//! the command line; `run` says so before the first step.

use probzelus_core::infer::Method;
use probzelus_core::Value;
use probzelus_lang::diag;
use probzelus_lang::eval::{ExecBackend, Options};
use probzelus_lang::muf::MufValue;
use probzelus_lang::muf_pretty::print_muf_program;
use probzelus_lang::pipeline::{check_source, compile_source};
use probzelus_lang::{Code, Kind, Severity, Ty};
use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;

/// Why `pzc` stops before finishing its command.
enum Stop {
    /// Stdout's reader went away: there is nothing left to do.
    ClosedPipe,
    /// A failure, reported as `pzc: …` with exit 1.
    Fail(String),
}

impl From<String> for Stop {
    fn from(msg: String) -> Stop {
        Stop::Fail(msg)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(Stop::ClosedPipe) => ExitCode::SUCCESS,
        Err(Stop::Fail(msg)) => {
            eprintln!("pzc: {msg}");
            ExitCode::from(1)
        }
    }
}

/// Writes to stdout: everything `pzc` prints there goes through here.
fn out(args: std::fmt::Arguments) -> Result<(), Stop> {
    std::io::stdout()
        .write_fmt(args)
        .map_err(|e| match e.kind() {
            ErrorKind::BrokenPipe => Stop::ClosedPipe,
            _ => Stop::Fail(format!("writing stdout: {e}")),
        })
}

fn usage() -> String {
    "usage: pzc <check|explain|emit|run|schema> FILE|CODE [NODE] [--lint] [--json] \
     [--explain PZ0xxx] [--inputs v1,v2,..] [--steps N] \
     [--method sds|bds|pf|ds|is] [--particles N] [--seed S] [--tape]"
        .to_string()
}

fn run() -> Result<ExitCode, Stop> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut pos = Vec::new();
    let mut inputs: Option<String> = None;
    let mut steps: Option<usize> = None;
    let mut method = Method::StreamingDs;
    let mut particles = 1000usize;
    let mut seed = 0u64;
    let mut lint = false;
    let mut json = false;
    let mut tape = false;
    let mut explain: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut flag_value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--lint" => lint = true,
            "--json" => json = true,
            "--tape" => tape = true,
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
                    other => return Err(format!("unknown method `{other}`").into()),
                }
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`\n{}", usage()).into())
            }
            other => pos.push(other.to_string()),
        }
    }

    if let Some(code) = explain {
        return explain_code(&code);
    }

    if pos.first().map(String::as_str) == Some("schema") {
        out(format_args!("{}", schema_md()))?;
        return Ok(ExitCode::SUCCESS);
    }

    let (cmd, arg) = match (pos.first(), pos.get(1)) {
        (Some(c), Some(f)) => (c.clone(), f.clone()),
        _ => return Err(usage().into()),
    };

    if cmd == "explain" {
        return explain_code(&arg);
    }

    let file = arg;
    let src = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;

    let compile = |src: &str| compile_source(src).map_err(|e| format!("{file}: {e}"));

    match cmd.as_str() {
        "check" => check(&file, &src, lint, json),
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
                    out(format_args!("=== {name} ===\n"))?;
                    match compiled
                        .lower_node(name, options)
                        .map_err(|e| e.to_string())?
                    {
                        Ok(prog) => out(format_args!("{}", prog.render()))?,
                        Err(reason) => out(format_args!("not lowered: {reason}\n"))?,
                    }
                }
            } else {
                out(format_args!("{}", print_muf_program(&compiled.muf)))?;
            }
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let compiled = compile(&src)?;
            let node = pos
                .get(2)
                .cloned()
                .ok_or_else(|| format!("run needs a node name\n{}", usage()))?;
            let kind = *compiled
                .kinds
                .get(node.as_str())
                .ok_or_else(|| format!("unknown node `{node}`"))?;
            let given = parse_inputs(inputs.as_deref())?;
            let n = steps.unwrap_or_else(|| given.as_ref().map_or(10, Vec::len));
            let inputs = typed_inputs(
                &node,
                &compiled.sigs[&node].input,
                given.unwrap_or_else(|| vec![Value::Unit]),
            )?;
            let stream = |t: usize| inputs[t % inputs.len()].clone();
            let options = Options {
                method,
                seed,
                backend: ExecBackend::Tape,
            };
            match kind {
                Kind::D => {
                    let mut inst = compiled
                        .instantiate(&node, options)
                        .map_err(|e| e.to_string())?;
                    for t in 0..n {
                        let v = inst.step(stream(t)).map_err(|e| e.to_string())?;
                        out(format_args!("{t}: {}\n", render(&v)))?;
                    }
                    Ok(ExitCode::SUCCESS)
                }
                Kind::P => {
                    let mut eng = compiled
                        .infer_node(&node, particles, options)
                        .map_err(|e| e.to_string())?;
                    out(format_args!(
                        "running {node} under {method} with {particles} particles\n"
                    ))?;
                    for t in 0..n {
                        let post = eng.step(&stream(t)).map_err(|e| e.to_string())?;
                        out(format_args!(
                            "{t}: mean {:.6}  var {:.6}\n",
                            post.mean_float(),
                            post.variance_float()
                        ))?;
                    }
                    Ok(ExitCode::SUCCESS)
                }
            }
        }
        other => Err(format!("unknown command `{other}`\n{}", usage()).into()),
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
**diagnostic** object per diagnostic. No other line shapes exist; a
consumer can dispatch on the `kind` field for node lines and on the
presence of `code` for diagnostics.

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

## diagnostic objects (`pzc check --json`)

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

## Exit status

`pzc check` exits nonzero only when at least one diagnostic has
severity `error`; warnings and lints report but pass.
"#,
        n = diag::ALL_CODES.len(),
    )
}

/// `pzc check`: pipeline + boundedness analysis (+ lints), diagnostics to
/// stderr, node summary to stdout. Exits nonzero only on hard errors.
fn check(file: &str, src: &str, lint: bool, json: bool) -> Result<ExitCode, Stop> {
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
                out(format_args!(
                    "{{\"kind\":\"node\",\"name\":\"{name}\",\"node_kind\":\"{}\",\
                     \"input\":\"{}\",\"output\":\"{}\",\"verdict\":\"{verdict}\",\
                     \"effect\":\"{effect}\"}}\n",
                    compiled.kinds[name], sig.input, sig.output
                ))?;
            }
        }
        for d in &checked.diagnostics {
            out(format_args!("{}\n", d.to_json()))?;
        }
    } else {
        for d in &checked.diagnostics {
            eprintln!("{}", d.render(file, src));
        }
        if let Some(compiled) = &checked.compiled {
            out(format_args!(
                "{file}: ok ({} nodes)\n",
                compiled.kinds.len()
            ))?;
            let mut names: Vec<&String> = compiled.kinds.keys().collect();
            names.sort();
            for name in names {
                let sig = &compiled.sigs[name];
                let verdict = compiled
                    .bounded
                    .get(name)
                    .map_or_else(|| "unknown".to_string(), |v| v.to_string());
                let effect = compiled.effects.node_effect(name);
                out(format_args!(
                    "  {:<4} node {name} : {} -> {}  [{verdict}] [{effect}]\n",
                    compiled.kinds[name].to_string(),
                    sig.input,
                    sig.output
                ))?;
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
    Ok(if checked.has_errors() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn explain_code(spec: &str) -> Result<ExitCode, Stop> {
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
    out(format_args!("{text}\n"))?;
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
            Value::Int(n)
        } else if let Ok(x) = item.parse::<f64>() {
            Value::Float(x)
        } else {
            return Err(format!("cannot parse input `{item}`"));
        };
        out.push(v);
    }
    Ok(Some(out))
}

/// Reads the `--inputs` values (the unit value when none are given) as
/// `node`'s input type `ty`: an integer literal where a float is expected
/// is a float, as the type checker reads source literals, and a type
/// variable takes any scalar. `--inputs` gives scalars only, so a tuple
/// input type is refused whatever the values.
fn typed_inputs(node: &str, ty: &Ty, values: Vec<Value>) -> Result<Vec<Value>, String> {
    if matches!(ty, Ty::Pair(..)) {
        return Err(format!(
            "node `{node}` takes a tuple of type {ty}, and --inputs gives scalars only"
        ));
    }
    values
        .into_iter()
        .map(|v| match (ty, v) {
            (Ty::Float, Value::Int(n)) => Ok(Value::Float(n as f64)),
            (Ty::Var(_), v)
            | (Ty::Float, v @ Value::Float(_))
            | (Ty::Int, v @ Value::Int(_))
            | (Ty::Bool, v @ Value::Bool(_))
            | (Ty::Unit, v @ Value::Unit) => Ok(v),
            (_, v) => Err(format!(
                "node `{node}` takes input of type {ty}, not `{v}` (see --inputs)"
            )),
        })
        .collect()
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
