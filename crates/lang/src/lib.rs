//! # probzelus-lang
//!
//! The ProbZelus language front end and µF back end (§3–§4 of the paper):
//! lexer, parser, kind system (D/P, Fig. 7), data-type checker,
//! initialization analysis, scheduling/causality analysis, desugaring to
//! the kernel of Fig. 6, compilation C(·)/A(·) to the first-order
//! functional language µF (Fig. 10/20/21), and a µF interpreter whose
//! probabilistic operators are routed through the inference engines of
//! [`probzelus_core`].

pub mod analysis;
pub mod ast;
pub mod automata;
pub mod compile;
pub mod diag;
pub mod error;
pub mod eval;
pub mod initcheck;
pub mod kinds;
pub mod lexer;
pub mod muf;
pub mod muf_pretty;
pub mod parser;
pub mod pipeline;
pub mod pretty;
pub mod schedule;
pub mod tape;
pub mod transform;
pub mod types;

pub use analysis::bounded::Verdict;
pub use analysis::effects::{Effect, EffectReport};
pub use ast::{Const, Eq, Expr, NodeDecl, OpName, Pattern, Program};
pub use diag::{Code, Diagnostic, Severity};
pub use error::{LangError, Pos, Stage};
pub use eval::{ExecBackend, Instance, MufEngine, Options};
pub use kinds::Kind;
pub use muf::{MufProgram, MufValue};
pub use pipeline::{check_source, compile_source, compile_source_opt, Checked, Compiled};
pub use transform::opt::{HoistPlan, OptConfig, OptReport};
pub use types::{NodeSig, Ty};
