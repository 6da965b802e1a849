#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index loops mirror the paper's kernel notation; reference constants keep full printed precision
#![allow(clippy::excessive_precision)] // index loops mirror the paper's kernel notation; reference constants keep full printed precision
//! Statistical models of sequence evolution.
//!
//! Implements the model stack the paper's kernels evaluate under:
//!
//! * the general time-reversible (GTR) substitution model for DNA
//!   ([`gtr`]), including its eigendecomposition via symmetrization and
//!   a from-scratch Jacobi eigensolver ([`math::jacobi`]),
//! * transition probability matrices `P(t) = U exp(Λ r t) U⁻¹`
//!   ([`pmatrix`]),
//! * the Γ model of rate heterogeneity with discrete rate categories
//!   (Yang 1994), built on from-scratch implementations of `lgamma`,
//!   the regularized incomplete gamma function and its inverse
//!   ([`math::gammafn`], [`rates`]),
//! * Brent's 1-D minimizer used for model-parameter optimization
//!   ([`math::brent`]).

pub mod gtr;
pub mod math;
pub mod pmatrix;
pub mod rates;

pub use gtr::{Gtr, GtrParams};
pub use pmatrix::{Eigensystem, ProbMatrix};
pub use rates::DiscreteGamma;

/// Number of DNA states, re-exported for convenience.
pub const NUM_STATES: usize = phylo_bio::NUM_STATES;

/// Number of Γ rate categories used throughout the paper (fixed at 4).
pub const NUM_RATES: usize = 4;

/// CLA stride per site: `NUM_STATES * NUM_RATES` doubles (= 128 bytes),
/// the alignment unit discussed in §V-B2 of the paper.
pub const SITE_STRIDE: usize = NUM_STATES * NUM_RATES;
