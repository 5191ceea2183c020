//! Compilation-pipeline errors with source positions.

/// A position in the source text (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl std::fmt::Display for Pos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Which pipeline stage rejected the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Lexical analysis.
    Lex,
    /// Parsing.
    Parse,
    /// Kind checking (deterministic vs probabilistic, Fig. 7).
    Kind,
    /// Data-type checking.
    Type,
    /// Initialization analysis.
    Init,
    /// Scheduling / causality analysis.
    Schedule,
    /// Compilation to muF.
    Compile,
    /// muF evaluation.
    Eval,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Stage::Lex => "lexical error",
            Stage::Parse => "parse error",
            Stage::Kind => "kind error",
            Stage::Type => "type error",
            Stage::Init => "initialization error",
            Stage::Schedule => "causality error",
            Stage::Compile => "compilation error",
            Stage::Eval => "evaluation error",
        };
        f.write_str(s)
    }
}

/// An error from any stage of the language pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct LangError {
    /// The failing stage.
    pub stage: Stage,
    /// Human-readable description.
    pub message: String,
    /// Source position, when known.
    pub pos: Option<Pos>,
    /// Diagnostic code (`PZ0xxx`); stage-default when `None`.
    pub code: Option<crate::diag::Code>,
    /// Secondary positions with explanatory messages.
    pub labels: Vec<(Pos, String)>,
    /// Free-form notes rendered after the snippet.
    pub notes: Vec<String>,
}

impl LangError {
    /// Creates an error without position information.
    pub fn new(stage: Stage, message: impl Into<String>) -> Self {
        LangError {
            stage,
            message: message.into(),
            pos: None,
            code: None,
            labels: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Creates an error at a source position.
    pub fn at(stage: Stage, pos: Pos, message: impl Into<String>) -> Self {
        LangError {
            pos: Some(pos),
            ..LangError::new(stage, message)
        }
    }

    /// Sets the diagnostic code.
    #[must_use]
    pub fn with_code(mut self, code: crate::diag::Code) -> Self {
        self.code = Some(code);
        self
    }

    /// Sets the primary position if not already known.
    #[must_use]
    pub fn with_pos(mut self, pos: Option<Pos>) -> Self {
        if self.pos.is_none() {
            self.pos = pos;
        }
        self
    }

    /// Adds a secondary label.
    #[must_use]
    pub fn with_label(mut self, pos: Pos, message: impl Into<String>) -> Self {
        self.labels.push((pos, message.into()));
        self
    }

    /// Adds a note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

impl std::fmt::Display for LangError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.pos {
            Some(p) => write!(f, "{} at {}: {}", self.stage, p, self.message),
            None => write!(f, "{}: {}", self.stage, self.message),
        }
    }
}

impl std::error::Error for LangError {}

impl From<probzelus_core::RuntimeError> for LangError {
    fn from(e: probzelus_core::RuntimeError) -> Self {
        LangError::new(Stage::Eval, e.to_string())
    }
}

/// Carries a language error into an engine step as
/// [`RuntimeError::Host`](probzelus_core::RuntimeError::Host). The impl
/// above puts the evaluation stage back on the way out, so an evaluation
/// error crosses with its message alone and prints one stage prefix.
impl From<LangError> for probzelus_core::RuntimeError {
    fn from(e: LangError) -> Self {
        probzelus_core::RuntimeError::Host(match (e.stage, e.pos) {
            (Stage::Eval, None) => e.message,
            _ => e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_with_and_without_position() {
        let e = LangError::at(Stage::Parse, Pos { line: 3, col: 7 }, "unexpected token");
        assert_eq!(e.to_string(), "parse error at 3:7: unexpected token");
        let e = LangError::new(Stage::Kind, "sample outside infer");
        assert_eq!(e.to_string(), "kind error: sample outside infer");
    }

    #[test]
    fn runtime_errors_convert() {
        let re = probzelus_core::RuntimeError::DivisionByZero;
        let le: LangError = re.into();
        assert_eq!(le.stage, Stage::Eval);
    }
}
