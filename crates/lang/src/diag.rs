//! Structured diagnostics for the language pipeline.
//!
//! Every pass reports through [`Diagnostic`]: a `PZ0xxx` [`Code`], a
//! [`Severity`], a primary source position, optional secondary labels and
//! notes. Diagnostics render two ways: a rustc-style text snippet
//! ([`Diagnostic::render`]) and a machine-readable JSON object
//! ([`Diagnostic::to_json`]) consumed by `pzc check --json`.
//!
//! The code catalog is closed: [`explain`] documents every code, and the
//! test suite asserts the table stays total.

use crate::error::{LangError, Pos, Stage};
use probzelus_core::json::json_escape;
use std::fmt;

/// A diagnostic code, displayed as `PZ0xxx`.
///
/// Numbering is by pass: `PZ00xx` lex/parse, `PZ01xx` kinds, `PZ02xx`
/// types, `PZ03xx` initialization, `PZ04xx` scheduling, `PZ05xx`
/// boundedness, `PZ06xx` lints, `PZ07xx` compile/runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Code(pub u16);

impl Code {
    /// Lexical error.
    pub const LEX: Code = Code(1);
    /// Syntax error.
    pub const PARSE: Code = Code(2);
    /// Expression nested deeper than the parser's budget.
    pub const NESTING: Code = Code(3);
    /// Probabilistic expression in a deterministic position.
    pub const KIND_PROB_IN_DET: Code = Code(101);
    /// Unknown node in an application (kind pass).
    pub const KIND_UNKNOWN_NODE: Code = Code(102);
    /// Type mismatch.
    pub const TYPE_MISMATCH: Code = Code(201);
    /// Unbound variable.
    pub const TYPE_UNBOUND: Code = Code(202);
    /// Unknown node in an application (type pass).
    pub const TYPE_UNKNOWN_NODE: Code = Code(203);
    /// Recursive (infinite) type.
    pub const TYPE_RECURSIVE: Code = Code(204);
    /// Value may be uninitialized at the first instant.
    pub const INIT_UNDEFINED: Code = Code(301);
    /// `last x` without a reaching `init x`.
    pub const INIT_NO_INIT: Code = Code(302);
    /// Instantaneous dependency cycle.
    pub const SCHED_CYCLE: Code = Code(401);
    /// Unbounded delayed-sampling chain.
    pub const UNBOUNDED_CHAIN: Code = Code(501);
    /// Inference method does not match the boundedness verdict.
    pub const METHOD_MISMATCH: Code = Code(502);
    /// Lint: stream defined but never read.
    pub const LINT_UNUSED_STREAM: Code = Code(601);
    /// Lint: observing a constant distribution.
    pub const LINT_OBSERVE_CONST: Code = Code(602);
    /// Lint: probabilistic node with no `observe`/`factor`.
    pub const LINT_RESAMPLE_FREE: Code = Code(603);
    /// Internal compilation error.
    pub const COMPILE: Code = Code(701);
    /// Runtime (µF evaluation) error.
    pub const EVAL: Code = Code(702);

    /// Parses `PZ0xxx` (case-insensitive, the `PZ` prefix optional).
    pub fn parse(s: &str) -> Option<Code> {
        let digits = s
            .strip_prefix("PZ")
            .or_else(|| s.strip_prefix("pz"))
            .unwrap_or(s);
        let n: u16 = digits.parse().ok()?;
        let code = Code(n);
        explain(code).map(|_| code)
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PZ{:04}", self.0)
    }
}

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Style / modeling advice; never fails a build unless `--lint`.
    Lint,
    /// Suspicious but legal; fails only under `--lint`.
    Warning,
    /// The program is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Lint => "lint",
        })
    }
}

/// A secondary position with an explanatory message.
#[derive(Debug, Clone, PartialEq)]
pub struct Label {
    /// Where the label points.
    pub pos: Pos,
    /// What it says.
    pub message: String,
}

/// A structured, renderable diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The catalog code.
    pub code: Code,
    /// Error, warning, or lint.
    pub severity: Severity,
    /// The pipeline stage that produced it, if any.
    pub stage: Option<Stage>,
    /// The headline message.
    pub message: String,
    /// Primary source position, when known.
    pub pos: Option<Pos>,
    /// Secondary labels.
    pub labels: Vec<Label>,
    /// Notes rendered after the snippet.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// An error diagnostic.
    pub fn error(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            stage: None,
            message: message.into(),
            pos: None,
            labels: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A warning diagnostic.
    pub fn warning(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// A lint diagnostic.
    pub fn lint(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Lint,
            ..Diagnostic::error(code, message)
        }
    }

    /// Sets the primary position.
    #[must_use]
    pub fn with_pos(mut self, pos: Option<Pos>) -> Diagnostic {
        self.pos = pos;
        self
    }

    /// Adds a secondary label.
    #[must_use]
    pub fn with_label(mut self, pos: Pos, message: impl Into<String>) -> Diagnostic {
        self.labels.push(Label {
            pos,
            message: message.into(),
        });
        self
    }

    /// Adds a note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Converts a pipeline error, using its code when set and the stage
    /// default otherwise.
    pub fn from_error(e: &LangError) -> Diagnostic {
        let mut d = Diagnostic::error(e.code.unwrap_or_else(|| stage_code(e.stage)), &e.message);
        d.stage = Some(e.stage);
        d.pos = e.pos;
        d.labels = e
            .labels
            .iter()
            .map(|(pos, message)| Label {
                pos: *pos,
                message: message.clone(),
            })
            .collect();
        d.notes = e.notes.clone();
        d
    }

    /// Renders in rustc style against the source text.
    ///
    /// ```text
    /// error[PZ0101]: probabilistic expression in deterministic position
    ///   --> examples/zelus/bad/kind.zl:2:30
    ///    |
    ///  2 | let node f x = sample(gaussian(sample(...), 1.))
    ///    |                                ^
    ///    = note: ...
    /// ```
    pub fn render(&self, file: &str, src: &str) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        let width = self
            .pos
            .iter()
            .chain(self.labels.iter().map(|l| &l.pos))
            .map(|p| digits(p.line))
            .max()
            .unwrap_or(1);
        match self.pos {
            Some(pos) => {
                out.push_str(&format!("{:width$}--> {file}:{pos}\n", ""));
                snippet(&mut out, src, pos, "^", width);
            }
            None => out.push_str(&format!("{:width$}--> {file}\n", "")),
        }
        for label in &self.labels {
            out.push_str(&format!(
                "{:width$}--> {file}:{}: {}\n",
                "", label.pos, label.message
            ));
            snippet(&mut out, src, label.pos, "-", width);
        }
        for note in &self.notes {
            out.push_str(&format!("{:width$} = note: {note}\n", ""));
        }
        out
    }

    /// Renders as one JSON object (stable key order, no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            r#"{{"code":"{}","severity":"{}","#,
            self.code, self.severity
        );
        if let Some(stage) = self.stage {
            s.push_str(&format!(r#""stage":"{}","#, stage_name(stage)));
        }
        s.push_str(&format!(r#""message":"{}""#, json_escape(&self.message)));
        if let Some(pos) = self.pos {
            s.push_str(&format!(
                r#","pos":{{"line":{},"col":{}}}"#,
                pos.line, pos.col
            ));
        }
        if !self.labels.is_empty() {
            s.push_str(r#","labels":["#);
            for (i, l) in self.labels.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    r#"{{"line":{},"col":{},"message":"{}"}}"#,
                    l.pos.line,
                    l.pos.col,
                    json_escape(&l.message)
                ));
            }
            s.push(']');
        }
        if !self.notes.is_empty() {
            s.push_str(r#","notes":["#);
            for (i, n) in self.notes.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(r#""{}""#, json_escape(n)));
            }
            s.push(']');
        }
        s.push('}');
        s
    }
}

fn digits(n: u32) -> usize {
    (n.checked_ilog10().unwrap_or(0) + 1) as usize
}

/// Appends the `| source line` + caret block for one position.
fn snippet(out: &mut String, src: &str, pos: Pos, mark: &str, width: usize) {
    let Some(line) = src.lines().nth(pos.line.saturating_sub(1) as usize) else {
        return;
    };
    let line = line.replace('\t', " ");
    out.push_str(&format!("{:width$} |\n", ""));
    out.push_str(&format!("{:width$} | {line}\n", pos.line));
    let caret_col = (pos.col.max(1) as usize).min(line.len() + 1);
    out.push_str(&format!("{:width$} | {:>caret_col$}\n", "", mark));
}

/// The default code for errors a stage reports without a specific one.
pub fn stage_code(stage: Stage) -> Code {
    match stage {
        Stage::Lex => Code::LEX,
        Stage::Parse => Code::PARSE,
        Stage::Kind => Code::KIND_PROB_IN_DET,
        Stage::Type => Code::TYPE_MISMATCH,
        Stage::Init => Code::INIT_UNDEFINED,
        Stage::Schedule => Code::SCHED_CYCLE,
        Stage::Compile => Code::COMPILE,
        Stage::Eval => Code::EVAL,
    }
}

fn stage_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Lex => "lex",
        Stage::Parse => "parse",
        Stage::Kind => "kind",
        Stage::Type => "type",
        Stage::Init => "init",
        Stage::Schedule => "schedule",
        Stage::Compile => "compile",
        Stage::Eval => "eval",
    }
}

/// Every code in the catalog, for `--explain` enumeration and the
/// totality test.
pub const ALL_CODES: &[Code] = &[
    Code::LEX,
    Code::PARSE,
    Code::NESTING,
    Code::KIND_PROB_IN_DET,
    Code::KIND_UNKNOWN_NODE,
    Code::TYPE_MISMATCH,
    Code::TYPE_UNBOUND,
    Code::TYPE_UNKNOWN_NODE,
    Code::TYPE_RECURSIVE,
    Code::INIT_UNDEFINED,
    Code::INIT_NO_INIT,
    Code::SCHED_CYCLE,
    Code::UNBOUNDED_CHAIN,
    Code::METHOD_MISMATCH,
    Code::LINT_UNUSED_STREAM,
    Code::LINT_OBSERVE_CONST,
    Code::LINT_RESAMPLE_FREE,
    Code::COMPILE,
    Code::EVAL,
];

/// The lint name used by `(*@ allow name *)` suppression comments, for
/// suppressible codes.
pub fn lint_name(code: Code) -> Option<&'static str> {
    match code {
        Code::UNBOUNDED_CHAIN => Some("unbounded-chain"),
        Code::LINT_UNUSED_STREAM => Some("unused-stream"),
        Code::LINT_OBSERVE_CONST => Some("observe-constant"),
        Code::LINT_RESAMPLE_FREE => Some("resample-free-infer"),
        _ => None,
    }
}

/// Long-form `pzc --explain` text. Total over [`ALL_CODES`].
pub fn explain(code: Code) -> Option<&'static str> {
    Some(match code {
        Code::LEX => {
            "PZ0001: lexical error.\n\nThe source text contains a character or token the lexer does \
             not recognize, or an unterminated `(* ... *)` comment."
        }
        Code::PARSE => {
            "PZ0002: syntax error.\n\nThe token stream does not form a valid program. The message \
             names the token found and what was expected."
        }
        Code::NESTING => {
            "PZ0003: expression nested too deeply.\n\nAn expression nests more levels deep than \
             the parser accepts (`parser::MAX_NESTING`). Every compiler pass recurses over the \
             expression tree, so the parser bounds its depth once instead of letting a later pass \
             overflow the stack. A level is a parenthesis, an operand of an operator chain, a \
             prefix operator, a tuple component, a `->`/`fby` link, or a keyword form (`if`, \
             `present`, `reset`, `observe`, `automaton`); a `where` block and a function \
             application each count one more. Name intermediate results with equations to \
             flatten the expression."
        }
        Code::KIND_PROB_IN_DET => {
            "PZ0101: probabilistic expression in a deterministic position.\n\nThe kind system \
             (Fig. 7 of the paper) separates deterministic (D) from probabilistic (P) \
             expressions. Arguments of `sample`, `observe`, `factor`, conditions, and `infer` \
             inputs must be deterministic; `sample`/`observe`/`factor` may only appear inside a \
             probabilistic node run under `infer`."
        }
        Code::KIND_UNKNOWN_NODE => {
            "PZ0102: application of an unknown node.\n\nThe applied name is neither a declared \
             node (in scope, i.e. declared earlier) nor a built-in operator."
        }
        Code::TYPE_MISMATCH => {
            "PZ0201: type mismatch.\n\nTwo types that must be equal cannot be unified. The \
             message shows both, after resolving what is known."
        }
        Code::TYPE_UNBOUND => {
            "PZ0202: unbound variable.\n\nThe variable is neither a node parameter, nor defined \
             by an equation in scope, nor initialized by `init`."
        }
        Code::TYPE_UNKNOWN_NODE => {
            "PZ0203: application of an unknown node (type pass).\n\nThe applied name has no \
             recorded signature. Nodes must be declared before use."
        }
        Code::TYPE_RECURSIVE => {
            "PZ0204: recursive type.\n\nUnification would build an infinite type (the occurs \
             check failed), e.g. a stream that would have to contain itself."
        }
        Code::INIT_UNDEFINED => {
            "PZ0301: value may be undefined at the first instant.\n\nAn uninitialized delay \
             (`pre`) can reach an effectful position (an output, `sample`, `observe`, a \
             condition) at instant 0. Give it an initial value with `->` or `init`/`last`."
        }
        Code::INIT_NO_INIT => {
            "PZ0302: `last x` without `init x`.\n\n`last x` reads the previous value of `x`; at \
             the first instant that value must come from an `init x = c` equation in the same \
             `where` block."
        }
        Code::SCHED_CYCLE => {
            "PZ0401: instantaneous dependency cycle.\n\nA set of equations depends on itself \
             within one instant, so no execution order exists. Break the cycle with a delay: \
             `pre`, `fby`, or `last`."
        }
        Code::UNBOUNDED_CHAIN => {
            "PZ0501: unbounded delayed-sampling chain.\n\nThe boundedness analysis (an abstract \
             interpretation over delayed-sampling shapes Const < Det < Sampled < Marginal(k)) \
             found a random variable carried across instants by `pre`/`last` whose marginal \
             chain depth grows every tick: some sampled parent is never consumed by `observe` \
             or `value` on every path. Under streaming delayed sampling the runtime graph then \
             grows without bound. The witness cycle names the variables involved. Observe or \
             `value` the chain, or run the node under a particle filter.\n\nSuppress per node \
             with `(*@ allow unbounded-chain *)`."
        }
        Code::METHOD_MISMATCH => {
            "PZ0502: inference method contradicts the boundedness verdict.\n\nEither classic \
             delayed sampling was selected for a node the analyzer proved bounded (streaming \
             delayed sampling would give the same posterior in bounded memory), or streaming \
             delayed sampling was selected for a node it proved unbounded (the runtime graph \
             will still grow). Reported at run time, and on the `obs` event stream as \
             `check.advisory` when telemetry is enabled."
        }
        Code::LINT_UNUSED_STREAM => {
            "PZ0601: stream defined but never read.\n\nThe equation's variable is read by no \
             other equation and not returned by the node body, so the stream (and any \
             probabilistic choices in it) is dead. Prefix the name with `_` or remove the \
             equation.\n\nSuppress per node with `(*@ allow unused-stream *)`."
        }
        Code::LINT_OBSERVE_CONST => {
            "PZ0602: observing a constant distribution.\n\nThe first argument of `observe` has \
             shape Const: it depends on no sampled variable, so the observation reweights \
             nothing and conditions nothing — a common modeling bug (e.g. observing a prior \
             literal instead of the stream carrying the latent state).\n\nSuppress per node \
             with `(*@ allow observe-constant *)`."
        }
        Code::LINT_RESAMPLE_FREE => {
            "PZ0603: probabilistic node with no `observe`/`factor`.\n\nNo path through the node \
             updates particle weights, so inference degenerates to forward sampling and \
             `infer` pays for particles that are never reweighted.\n\nSuppress per node with \
             `(*@ allow resample-free-infer *)`."
        }
        Code::COMPILE => {
            "PZ0701: internal compilation error.\n\nThe kernel-to-µF compiler rejected the \
             program (e.g. a derived form survived desugaring, or duplicate definitions), or \
             an engine's or instance's transition did not lower to the instruction tape when \
             it was built (the message names the construct). These indicate a pipeline bug if \
             reached from `pzc`."
        }
        Code::EVAL => {
            "PZ0702: runtime error.\n\nµF evaluation failed (division by zero, invalid \
             distribution parameters, engine errors)."
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_display_and_parse() {
        assert_eq!(Code::UNBOUNDED_CHAIN.to_string(), "PZ0501");
        assert_eq!(Code::parse("PZ0501"), Some(Code::UNBOUNDED_CHAIN));
        assert_eq!(Code::parse("pz0101"), Some(Code::KIND_PROB_IN_DET));
        assert_eq!(Code::parse("0401"), Some(Code::SCHED_CYCLE));
        assert_eq!(Code::parse("PZ9999"), None);
        assert_eq!(Code::parse("garbage"), None);
    }

    #[test]
    fn explain_is_total_over_the_catalog() {
        for &code in ALL_CODES {
            let text = explain(code).unwrap_or_else(|| panic!("no --explain text for {code}"));
            assert!(
                text.starts_with(&code.to_string()),
                "{code} explain text must start with its code"
            );
        }
    }

    #[test]
    fn render_includes_snippet_and_caret() {
        let src = "let node f x = x\nlet node g y = sample(y)\n";
        let d = Diagnostic::error(Code::KIND_PROB_IN_DET, "sample outside infer")
            .with_pos(Some(Pos { line: 2, col: 16 }))
            .with_note("wrap the node in `infer`");
        let r = d.render("f.zl", src);
        assert!(r.contains("error[PZ0101]: sample outside infer"));
        assert!(r.contains("--> f.zl:2:16"));
        assert!(r.contains("2 | let node g y = sample(y)"));
        assert!(r.contains("= note: wrap the node in `infer`"));
        // Caret lands under the `s` of `sample` (column 16).
        let caret_line = r.lines().find(|l| l.trim_end().ends_with('^')).unwrap();
        assert_eq!(caret_line.find('^').unwrap(), "2 | ".len() + 15);
    }

    #[test]
    fn json_shape_is_stable() {
        let d = Diagnostic::warning(Code::UNBOUNDED_CHAIN, "chain grows: \"x\"")
            .with_pos(Some(Pos { line: 3, col: 9 }))
            .with_label(Pos { line: 1, col: 1 }, "defined here")
            .with_note("observe the chain");
        assert_eq!(
            d.to_json(),
            r#"{"code":"PZ0501","severity":"warning","message":"chain grows: \"x\"","pos":{"line":3,"col":9},"labels":[{"line":1,"col":1,"message":"defined here"}],"notes":["observe the chain"]}"#
        );
    }

    #[test]
    fn from_error_uses_stage_default_code() {
        let e = LangError::new(Stage::Schedule, "cycle");
        let d = Diagnostic::from_error(&e);
        assert_eq!(d.code, Code::SCHED_CYCLE);
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.stage, Some(Stage::Schedule));
    }

    #[test]
    fn lint_names_cover_the_suppressible_codes() {
        assert_eq!(lint_name(Code::LINT_UNUSED_STREAM), Some("unused-stream"));
        assert_eq!(lint_name(Code::TYPE_MISMATCH), None);
    }
}
