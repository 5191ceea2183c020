//! # probzelus-distributions
//!
//! Probability distributions, special functions, statistics utilities, and
//! the closed-form conjugacy algebra underlying the delayed-sampling
//! inference engines of [ProbZelus] (Baudart et al., *Reactive Probabilistic
//! Programming*, PLDI 2020).
//!
//! This crate is deliberately self-contained: samplers (Marsaglia polar,
//! Marsaglia–Tsang, Knuth, …) and special functions (`ln Γ`, `erf`, …) are
//! implemented from scratch on top of a uniform [`rand`] source so the whole
//! workspace depends only on the approved crate set.
//!
//! ## Quick example
//!
//! ```
//! use probzelus_distributions::{Distribution, Moments, Gaussian};
//! use probzelus_distributions::conjugacy::AffineGaussian;
//!
//! # fn main() -> Result<(), probzelus_distributions::ParamError> {
//! // A Kalman step in closed form: prior N(0, 100), identity dynamics,
//! // unit observation noise, observation y = 5.
//! let prior = Gaussian::new(0.0, 100.0)?;
//! let obs_link = AffineGaussian::new(1.0, 0.0, 1.0)?;
//! let posterior = obs_link.condition(prior, 5.0)?;
//! assert!(posterior.variance() < prior.variance());
//! # Ok(())
//! # }
//! ```
//!
//! [ProbZelus]: https://arxiv.org/abs/1908.07563

pub mod bernoulli;
pub mod beta;
pub mod binomial;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod conjugacy;
pub mod delta;
pub mod empirical;
pub mod exponential;
pub mod gamma;
pub mod gaussian;
pub mod linalg;
pub mod lomax;
pub mod mixture;
pub mod mv_gaussian;
pub mod negative_binomial;
pub mod poisson;
pub mod special;
pub mod stats;
pub mod traits;
pub mod uniform;

pub use bernoulli::Bernoulli;
pub use beta::Beta;
pub use binomial::{BetaBinomial, Binomial};
pub use delta::Delta;
pub use empirical::Empirical;
pub use exponential::Exponential;
pub use gamma::Gamma;
pub use gaussian::Gaussian;
pub use linalg::{Matrix, Vector};
pub use lomax::Lomax;
pub use mixture::Mixture;
pub use mv_gaussian::{MvAffineGaussian, MvGaussian};
pub use negative_binomial::NegativeBinomial;
pub use poisson::Poisson;
pub use traits::{Distribution, Moments, ParamError};
pub use uniform::Uniform;
