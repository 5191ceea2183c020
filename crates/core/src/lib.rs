//! # probzelus-core
//!
//! Co-iterative runtime and streaming inference engines for the ProbZelus
//! reproduction (Baudart et al., *Reactive Probabilistic Programming*,
//! PLDI 2020).
//!
//! The crate provides:
//!
//! * a dynamic [`value::Value`] algebra with symbolic (delayed) random
//!   variables, and first-class distributions ([`value::DistExpr`]);
//! * the delayed-sampling graph ([`ds::Graph`]) in the paper's
//!   pointer-minimal formulation (§5.3), with a retain-all mode that
//!   reproduces the original algorithm's unbounded memory;
//! * probabilistic evaluation contexts ([`prob::ProbCtx`]) giving `sample`
//!   / `observe` / `factor` / `value` / `distribution` their
//!   engine-specific semantics (Figs. 13–14);
//! * the streaming inference engines ([`infer::Infer`]): importance
//!   sampling, particle filter, bounded delayed sampling, streaming
//!   delayed sampling, and the classic delayed-sampling baseline;
//! * deterministic synchronous combinators ([`stream`]) for the
//!   controller half of reactive probabilistic programs.
//!
//! ## Quick example
//!
//! One exact Kalman step with a single streaming-delayed-sampling particle:
//!
//! ```
//! use probzelus_core::infer::{Infer, Method};
//! use probzelus_core::model::Model;
//! use probzelus_core::prob::ProbCtx;
//! use probzelus_core::value::{DistExpr, Value};
//!
//! #[derive(Clone, Default)]
//! struct Hmm { prev: Option<Value> }
//!
//! impl Model for Hmm {
//!     type Input = f64;
//!     fn step(&mut self, ctx: &mut dyn ProbCtx, y: &f64)
//!         -> Result<Value, probzelus_core::error::RuntimeError> {
//!         let prior = match &self.prev {
//!             None => DistExpr::gaussian(0.0, 100.0),
//!             Some(x) => DistExpr::gaussian(x.clone(), 1.0),
//!         };
//!         let x = ctx.sample(&prior)?;
//!         ctx.observe(&DistExpr::gaussian(x.clone(), 1.0), &Value::Float(*y))?;
//!         self.prev = Some(x.clone());
//!         Ok(x)
//!     }
//!     fn reset(&mut self) { self.prev = None; }
//!     fn for_each_state_value(&mut self, f: &mut dyn FnMut(&mut Value)) {
//!         if let Some(x) = &mut self.prev { f(x); }
//!     }
//! }
//!
//! let mut engine = Infer::with_seed(Method::StreamingDs, 1, Hmm::default(), 0);
//! let post = engine.step(&5.0).unwrap();
//! assert!((post.mean_float() - 5.0 * 100.0 / 101.0).abs() < 1e-9);
//! ```

pub mod adaptive;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod ds;
pub mod error;
pub mod histo;
pub mod infer;
pub mod json;
pub mod marginal;
pub mod model;
pub mod obs;
pub mod ops;
pub mod pool;
pub mod posterior;
pub mod prob;
pub mod rngstream;
pub mod stream;
pub mod supervisor;
pub mod symbolic;
pub mod trace;
pub mod value;

pub use adaptive::{
    AdaptiveController, DeadlineAction, DeadlineConfig, DeadlineStatus, DecisionRecord,
    DecisionTrace,
};
pub use error::RuntimeError;
pub use histo::LogHistogram;
pub use infer::{Infer, MemoryStats, Method, Parallelism, ResamplePolicy};
pub use marginal::{Family, Marginal};
pub use model::{FnModel, Model};
pub use posterior::{Posterior, ValueDist};
pub use prob::{DsCtx, ProbCtx, SampleCtx};
pub use supervisor::{
    FaultKind, Health, ParticleFault, RecoveryAction, RecoveryPolicy, StepOutcome,
};
pub use symbolic::{AffExpr, AffView, RvId};
pub use trace::{FlightRecorder, SpanRecord};
pub use value::{DistExpr, Value};
