//! The end-to-end compilation pipeline and its driver-facing API.
//!
//! ```text
//! source ──parse──► AST ──automata──► AST ──kinds──► D/P ──types──► elaborated AST
//!        ──initcheck──► ✓ ──desugar──► kernel ──schedule──► scheduled
//!        ──compile──► µF ──Interp──► Instance / MufEngine
//! ```

use crate::analysis::bounded::{self, BoundedReport, Verdict};
use crate::analysis::effects::{self, EffectReport};
use crate::analysis::lints;
use crate::ast::Program;
use crate::automata::expand_program;
use crate::compile::{compile_program, init_name, step_name};
use crate::diag::{Code, Diagnostic};
use crate::error::{LangError, Stage};
use crate::eval::{Instance, Interp, MufEngine, Options, ProbSlot};
use crate::initcheck;
use crate::kinds::{self, Kind};
use crate::muf::{MufProgram, MufValue};
use crate::parser::parse_program;
use crate::schedule::schedule_program;
use crate::transform::desugar_program;
use crate::transform::opt::HoistPlan;
use crate::types::{self, NodeSig};
use probzelus_core::infer::Method;
use std::collections::HashMap;
use std::rc::Rc;

/// A fully checked and compiled program.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The scheduled kernel program (after desugaring).
    pub kernel: Program,
    /// The compiled µF definitions.
    pub muf: MufProgram,
    /// Each node's kind (deterministic / probabilistic).
    pub kinds: HashMap<String, Kind>,
    /// Each node's data-type signature.
    pub sigs: HashMap<String, NodeSig>,
    /// Each node's delayed-sampling boundedness verdict.
    pub bounded: HashMap<String, Verdict>,
    /// The effect analysis over the kernel.
    pub effects: EffectReport,
    /// Always empty (see [`HoistPlan`]); kept because the benchmark
    /// builds a `Compiled` by hand.
    pub plans: HashMap<String, HoistPlan>,
}

/// Runs the whole pipeline on source text.
///
/// # Errors
///
/// The first error of any stage, with stage and (for syntax errors)
/// position information.
///
/// # Examples
///
/// ```
/// let compiled = probzelus_lang::pipeline::compile_source(r#"
///     let node hmm y = x where
///       rec x = sample (gaussian ((0. -> pre x), (100. -> 1.)))
///       and () = observe (gaussian (x, 1.), y)
///     let node main y = infer 100 hmm y
/// "#)?;
/// assert_eq!(compiled.kinds["hmm"], probzelus_lang::Kind::P);
/// assert_eq!(compiled.kinds["main"], probzelus_lang::Kind::D);
/// # Ok::<(), probzelus_lang::LangError>(())
/// ```
pub fn compile_source(src: &str) -> Result<Compiled, LangError> {
    build(src).map(|(compiled, _, _)| compiled)
}

/// The pipeline plus the full analysis report and the expanded surface
/// program (which the lints need: its equations are the ones the user
/// wrote).
fn build(src: &str) -> Result<(Compiled, BoundedReport, Program), LangError> {
    let program = parse_program(src)?;
    let mut program = expand_program(&program)?;
    let kinds = kinds::check_program(&program)?;
    let sigs = types::check_program(&mut program)?;
    initcheck::check_program(&program)?;
    let kernel = desugar_program(&program);
    let kernel = schedule_program(&kernel)?;
    let muf = compile_program(&kernel)?;
    let report = bounded::analyze_program(&kernel, &kinds);
    let effects = effects::analyze_program(&kernel);
    Ok((
        Compiled {
            kernel,
            muf,
            kinds,
            sigs,
            bounded: report.verdicts.clone(),
            effects,
            plans: HashMap::new(),
        },
        report,
        program,
    ))
}

/// [`compile_source`], under the name of the deleted optimizing
/// pipeline. Kept only because the benchmark
/// (`crates/bench/src/bin/rpbench/`) calls it.
///
/// # Errors
///
/// As for [`compile_source`].
pub fn compile_source_opt(src: &str) -> Result<Compiled, LangError> {
    compile_source(src)
}

/// The result of [`check_source`]: diagnostics plus, when every pipeline
/// stage passed, the compiled program.
#[derive(Debug, Clone)]
pub struct Checked {
    /// Present when compilation succeeded (warnings and lints do not
    /// prevent compilation).
    pub compiled: Option<Compiled>,
    /// All diagnostics: the first hard error, or any warnings/lints on a
    /// successful compile, sorted by source position.
    pub diagnostics: Vec<Diagnostic>,
}

impl Checked {
    /// Whether any diagnostic is a hard error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == crate::diag::Severity::Error)
    }
}

/// Checks source without instantiating anything: runs the whole pipeline,
/// the boundedness analysis, and (when `lint` is set) the style lints.
/// Never returns `Err`: failures become error diagnostics.
pub fn check_source(src: &str, lint: bool) -> Checked {
    match build(src) {
        Err(e) => Checked {
            compiled: None,
            diagnostics: vec![Diagnostic::from_error(&e)],
        },
        Ok((compiled, report, expanded)) => {
            let mut diags = Vec::new();
            for node in &expanded.nodes {
                if compiled.kinds.get(&node.name) != Some(&Kind::P) {
                    continue;
                }
                if let Some(Verdict::Unbounded { witness }) = compiled.bounded.get(&node.name) {
                    diags.push(
                        Diagnostic::warning(
                            Code::UNBOUNDED_CHAIN,
                            format!(
                                "delayed-sampling chain of node `{}` can grow without bound \
                                 (cycle: {})",
                                node.name,
                                witness.join(" -> ")
                            ),
                        )
                        .with_pos(node.body.span())
                        .with_note(
                            "every `pre`-carried random variable must be consumed by \
                             `observe` or `value` on every path",
                        ),
                    );
                }
            }
            if lint {
                diags.extend(lints::lint_program(
                    src,
                    &expanded,
                    &compiled.kinds,
                    &report,
                ));
            }
            let diags = lints::filter_suppressed(src, diags);
            Checked {
                compiled: Some(compiled),
                diagnostics: diags,
            }
        }
    }
}

impl Compiled {
    /// Instantiates a **deterministic** node as a driver-facing stream
    /// function (its embedded `infer` sites allocate engines per
    /// `options`).
    ///
    /// # Errors
    ///
    /// Unknown or probabilistic nodes (use [`Compiled::infer_node`] for
    /// the latter), or initialization failures.
    pub fn instantiate(&self, node: &str, options: Options) -> Result<Instance, LangError> {
        self.instantiate_with_obs(node, options, probzelus_core::obs::Obs::off())
    }

    /// Like [`Compiled::instantiate`], but every engine the instance's
    /// embedded `infer` sites allocate exports telemetry through `obs`
    /// (scoped per engine to its inference-method label).
    ///
    /// Keep a clone of `obs` and call [`Obs::flush`](probzelus_core::obs::Obs::flush)
    /// when the run ends: the interpreter retains its own handle, so a
    /// buffered sink (e.g. `WriterSink`) cannot rely on drop order to
    /// flush.
    ///
    /// # Errors
    ///
    /// As for [`Compiled::instantiate`].
    pub fn instantiate_with_obs(
        &self,
        node: &str,
        options: Options,
        obs: probzelus_core::obs::Obs,
    ) -> Result<Instance, LangError> {
        self.check_deterministic(node)?;
        self.emit_advisories(node, options.method, &obs);
        let interp = Interp::new_with_obs(&self.muf, options, obs)?;
        Instance::new(interp, node)
    }

    /// Emits a `check.advisory` obs event for every embedded `infer` site
    /// whose method choice contradicts the boundedness verdict.
    fn emit_advisories(&self, node: &str, method: Method, obs: &probzelus_core::obs::Obs) {
        use probzelus_core::obs::{events, FieldValue};
        if !obs.enabled() {
            return;
        }
        let Some(decl) = self.kernel.node(node) else {
            return;
        };
        let mut inferred = Vec::new();
        crate::analysis::walk(&decl.body, &mut |e| {
            if let crate::ast::Expr::Infer { node: f, .. } = e {
                inferred.push(f.clone());
            }
        });
        inferred.sort();
        inferred.dedup();
        for f in inferred {
            if let Some(msg) = self.method_advisory(&f, method) {
                obs.event(
                    0,
                    events::CHECK_ADVISORY,
                    &[
                        ("node", FieldValue::Text(&f)),
                        ("method", FieldValue::Text(method.label())),
                        ("message", FieldValue::Text(&msg)),
                    ],
                );
            }
        }
    }

    /// A warning when the selected inference method contradicts the
    /// boundedness verdict ([`Code::METHOD_MISMATCH`]): classic DS on a
    /// node proved bounded (streaming DS gives the same posterior in
    /// constant memory), or a bounded-memory method on a node proved
    /// unbounded (the graph will still grow).
    pub fn method_advisory(&self, node: &str, method: Method) -> Option<String> {
        match (method, self.bounded.get(node)?) {
            (Method::ClassicDs, Verdict::Bounded(k)) if *k > 0 => Some(format!(
                "node `{node}` has a provably bounded delayed-sampling graph (Bounded({k})); \
                 streaming delayed sampling (`--method sds`) gives the same posterior in \
                 constant memory"
            )),
            (Method::StreamingDs | Method::BoundedDs, Verdict::Unbounded { witness }) => {
                Some(format!(
                    "node `{node}` has an unbounded delayed-sampling chain (cycle: {}); \
                     bounded-memory delayed sampling will grow its graph anyway",
                    witness.join(" -> ")
                ))
            }
            _ => None,
        }
    }

    fn check_deterministic(&self, node: &str) -> Result<(), LangError> {
        match self.kinds.get(node) {
            None => Err(LangError::new(
                Stage::Eval,
                format!("unknown node `{node}`"),
            )),
            Some(Kind::P) => Err(LangError::new(
                Stage::Eval,
                format!(
                    "node `{node}` is probabilistic; run it with `infer_node` or wrap it in `infer`"
                ),
            )),
            Some(Kind::D) => Ok(()),
        }
    }

    /// Runs a **probabilistic** node directly under an inference engine
    /// (equivalent to `infer particles node input` at the driver level,
    /// but feeding the input stream from Rust).
    ///
    /// # Errors
    ///
    /// Unknown nodes, a zero particle count, or initialization failures.
    pub fn infer_node(
        &self,
        node: &str,
        particles: usize,
        options: Options,
    ) -> Result<MufEngine, LangError> {
        let (interp, step, init_state) = self.transition(node, options)?;
        if particles == 0 {
            return Err(LangError::new(
                Stage::Eval,
                format!("`{node}` needs at least one particle to run under inference"),
            ));
        }
        if let Some(msg) = self.method_advisory(node, options.method) {
            eprintln!("warning[{}]: {msg}", Code::METHOD_MISMATCH);
        }
        MufEngine::new(
            interp,
            options.method,
            particles,
            init_state,
            step,
            true,
            options.seed,
        )
    }

    /// Lowers a node's step to the flat instruction tape, without running
    /// anything — the static view behind `pzc emit --tape`, showing the
    /// tape each node runs on: a probabilistic node's per-particle
    /// transition (it runs only under `infer`), a deterministic node's
    /// driver tape when its state holds an engine (its `infer` sites step
    /// them), and every other deterministic node's transition as a
    /// particle runs it.
    ///
    /// The inner `Err` is the lowering-refusal reason (an engine or
    /// instance over the node would fail to build with it).
    ///
    /// # Errors
    ///
    /// Unknown nodes or initialization failures.
    pub fn lower_node(
        &self,
        node: &str,
        options: Options,
    ) -> Result<Result<crate::tape::TapeProgram, String>, LangError> {
        use crate::transform::lower::{lower_closure, lower_driver};
        fn holds_engine(v: &MufValue) -> bool {
            match v {
                MufValue::Tuple(xs) => xs.iter().any(holds_engine),
                v => matches!(v, MufValue::Engine(_)),
            }
        }
        let (interp, transition, init_state) = self.transition(node, options)?;
        let driver = self.kinds[node] == Kind::D && holds_engine(&init_state);
        Ok(
            crate::tape::closure_of(&transition).and_then(|closure| match driver {
                true => lower_driver(&interp, closure, &init_state),
                false => lower_closure(&interp, closure, &init_state, true),
            }),
        )
    }

    /// What running or lowering `node` starts from: an interpreter over
    /// the program, the node's compiled transition and its initial state.
    fn transition(
        &self,
        node: &str,
        options: Options,
    ) -> Result<(Rc<Interp>, MufValue, MufValue), LangError> {
        if !self.kinds.contains_key(node) {
            return Err(LangError::new(
                Stage::Eval,
                format!("unknown node `{node}`"),
            ));
        }
        let interp = Interp::new(&self.muf, options)?;
        let global = |name: &str| {
            interp
                .global(name)
                .ok_or_else(|| LangError::new(Stage::Eval, format!("missing compiled `{name}`")))
        };
        let step = global(&step_name(node))?;
        let init_thunk = global(&init_name(node))?;
        let init_state = interp.apply(&init_thunk, MufValue::unit(), &mut ProbSlot::Det)?;
        Ok((interp, step, init_state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probzelus_core::infer::Method;
    use probzelus_core::Value;

    const HMM: &str = r#"
        let node hmm y = x where
          rec x = sample (gaussian ((0. -> pre x), (100. -> 1.)))
          and () = observe (gaussian (x, 1.), y)
        let node main y = infer 1 hmm y
    "#;

    #[test]
    fn pipeline_accepts_the_paper_programs() {
        let c = compile_source(HMM).unwrap();
        assert_eq!(c.kinds["hmm"], Kind::P);
        assert_eq!(c.kinds["main"], Kind::D);
    }

    #[test]
    fn instantiate_rejects_probabilistic_nodes() {
        let c = compile_source(HMM).unwrap();
        let err = c
            .instantiate(
                "hmm",
                Options {
                    method: Method::StreamingDs,
                    seed: 0,
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(err.message.contains("probabilistic"));
    }

    #[test]
    fn infer_node_runs_exact_kalman() {
        let c = compile_source(HMM).unwrap();
        let mut eng = c
            .infer_node(
                "hmm",
                1,
                Options {
                    method: Method::StreamingDs,
                    seed: 3,
                    ..Default::default()
                },
            )
            .unwrap();
        let post = eng.step(&Value::Float(5.0)).unwrap();
        assert!((post.mean_float() - 5.0 * 100.0 / 101.0).abs() < 1e-9);
    }

    /// A NaN or infinite deadline budget is refused, not a panic.
    #[test]
    fn non_finite_deadline_budget_is_refused() {
        let c = compile_source(HMM).unwrap();
        let mut eng = c
            .infer_node("hmm", 4, Options::default())
            .unwrap()
            .with_deadline(probzelus_core::adaptive::DeadlineConfig::new(5.0));
        eng.step(&Value::Float(1.0)).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!eng.set_deadline_budget(bad), "budget {bad} accepted");
        }
        assert_eq!(eng.deadline_status().unwrap().budget_ms, 5.0);
        assert!(eng.set_deadline_budget(2.0));
        eng.step(&Value::Float(1.0)).unwrap();
    }

    #[test]
    fn check_source_reports_errors_as_diagnostics() {
        let checked = check_source("let node f x = x + true", false);
        assert!(checked.compiled.is_none());
        assert!(checked.has_errors());
        assert_eq!(checked.diagnostics[0].code, Code::TYPE_MISMATCH);
    }

    #[test]
    fn check_source_warns_on_unbounded_chains() {
        let src = r#"
            let node drift () = x where
              rec x = sample (gaussian ((0. -> pre x), 1.))
        "#;
        let checked = check_source(src, false);
        assert!(!checked.has_errors(), "{:?}", checked.diagnostics);
        assert_eq!(checked.diagnostics.len(), 1);
        assert_eq!(checked.diagnostics[0].code, Code::UNBOUNDED_CHAIN);
        let compiled = checked.compiled.unwrap();
        assert!(matches!(
            compiled.bounded["drift"],
            Verdict::Unbounded { .. }
        ));
    }

    #[test]
    fn method_advisory_flags_contradictory_choices() {
        let c = compile_source(HMM).unwrap();
        let msg = c.method_advisory("hmm", Method::ClassicDs).unwrap();
        assert!(msg.contains("Bounded(1)"), "{msg}");
        assert!(msg.contains("--method sds"), "{msg}");
        assert!(c.method_advisory("hmm", Method::StreamingDs).is_none());
        assert!(c.method_advisory("hmm", Method::ParticleFilter).is_none());

        let c = compile_source(
            "let node drift () = x where rec x = sample (gaussian ((0. -> pre x), 1.))",
        )
        .unwrap();
        let msg = c.method_advisory("drift", Method::StreamingDs).unwrap();
        assert!(msg.contains("unbounded"), "{msg}");
        assert!(c.method_advisory("drift", Method::ClassicDs).is_none());
    }

    #[test]
    fn errors_carry_their_stage() {
        assert_eq!(
            compile_source("let node f = 3").unwrap_err().stage,
            Stage::Parse
        );
        assert_eq!(
            compile_source("let node f x = sample(sample(x))")
                .unwrap_err()
                .stage,
            Stage::Kind
        );
        assert_eq!(
            compile_source("let node f x = x + true").unwrap_err().stage,
            Stage::Type
        );
        assert_eq!(
            compile_source("let node f x = pre x").unwrap_err().stage,
            Stage::Init
        );
        assert_eq!(
            compile_source("let node f x = y where rec y = y + x")
                .unwrap_err()
                .stage,
            Stage::Schedule
        );
    }
}
