//! What is left of the µF optimizer: the identity, under its old names.
//!
//! The paper compiles each node straight to µF transition functions
//! (§4.2, Fig. 11), and so does this compiler. The optimizing pass
//! pipeline (constant folding, dead-stream elimination, CSE) is gone: its
//! output lowered to the same tape as its input. The benchmark
//! (`crates/bench/src/bin/rpbench/`) still calls
//! `optimize_program(&kernel, &OptConfig::default())` and reads
//! `report.plans`, so these names stay until it drops them.

use crate::ast::Program;
use crate::error::LangError;
use std::collections::HashMap;

/// No settings; see the module documentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct OptConfig {}

/// No settings and no content. [`OptReport::plans`] is always empty; the
/// type stays only because the benchmark names
/// `compile_program_with(&kernel, &report.plans)` and `Compiled { .., plans }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct HoistPlan {}

/// Always empty; see the module documentation.
#[derive(Debug, Clone, Default)]
pub struct OptReport {
    /// Always empty (see [`HoistPlan`]).
    pub plans: HashMap<String, HoistPlan>,
}

/// Returns the program unchanged, with an empty report.
///
/// # Errors
///
/// Never; the `Result` is the benchmark's signature.
pub fn optimize_program(p: &Program, _cfg: &OptConfig) -> Result<(Program, OptReport), LangError> {
    Ok((p.clone(), OptReport::default()))
}
