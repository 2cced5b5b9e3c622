//! Multi-objective Bayesian optimization substrate (§III.B).
//!
//! The paper builds its NAS on Dragonfly's MOBO; this crate is a
//! from-scratch Rust equivalent of the pieces LENS uses:
//!
//! * [`kernel`] — stationary covariance functions (squared-exponential and
//!   Matérn-5/2) over the unit-cube architecture embeddings.
//! * [`gp`] — exact Gaussian-process regression: a Cholesky factor grown
//!   one row per observation, posterior mean/variance for one point or a
//!   block of points, log marginal likelihood, and ML-II hyperparameter
//!   selection on a small grid.
//! * [`acquisition`] — UCB/EI/Thompson acquisition scores for minimization,
//!   applied to a posterior `(mean, variance)`.
//! * [`mobo`] — the multi-objective driver: one GP per objective and
//!   randomly scalarized acquisitions (Dragonfly's approach), exposed as an
//!   ask/tell interface so the caller owns candidate generation — which is
//!   how Algorithm 2 plugs in search-space-aware proposals. Objectives
//!   with equal hyperparameters share one factor, and an iteration between
//!   refits costs `O(n²)`.
//!
//! # Examples
//!
//! ```
//! use lens_gp::gp::GpRegressor;
//! use lens_gp::kernel::Matern52;
//!
//! # fn main() -> Result<(), lens_gp::GpError> {
//! let xs = vec![vec![0.0], vec![0.5], vec![1.0]];
//! let ys = vec![0.0, 0.25, 1.0];
//! let gp = GpRegressor::fit(xs, ys, Matern52::new(0.5, 1.0), 1e-6)?;
//! let (mean, var) = gp.predict(&[0.5]);
//! assert!((mean - 0.25).abs() < 1e-3); // interpolates training data
//! assert!(var >= 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod acquisition;
pub mod gp;
pub mod kernel;
pub mod mobo;

pub use acquisition::{Acquisition, AcquisitionKind};
pub use gp::GpRegressor;
pub use kernel::{Kernel, Matern52, SquaredExponential};
pub use mobo::{MoboConfig, MultiObjectiveOptimizer};

use std::error::Error;
use std::fmt;

/// Errors produced by the Bayesian-optimization substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GpError {
    /// Training inputs were empty or inconsistent.
    InvalidTrainingData(String),
    /// The kernel matrix could not be factorized.
    Numeric(lens_num::NumError),
}

impl fmt::Display for GpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::InvalidTrainingData(why) => write!(f, "invalid training data: {why}"),
            GpError::Numeric(e) => write!(f, "numeric failure: {e}"),
        }
    }
}

impl Error for GpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GpError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<lens_num::NumError> for GpError {
    fn from(e: lens_num::NumError) -> Self {
        GpError::Numeric(e)
    }
}
