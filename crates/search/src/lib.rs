#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Maximum-likelihood tree search — the RAxML-Light workload.
//!
//! This crate rebuilds the search layer the paper integrates its
//! kernels into: Newton-Raphson branch-length optimization driven by
//! the `derivativeSum`/`derivativeCore` kernels ([`newton`]), Brent
//! optimization of the Γ shape and GTR exchangeabilities
//! ([`model_opt`]), lazy SPR rounds with bounded regraft radius
//! ([`spr`]), and the full search driver ([`search`]).
//!
//! Everything is written against the [`Evaluator`] abstraction rather
//! than a concrete engine, so the identical search code runs
//! single-threaded, under the fork-join worker scheme, or under the
//! ExaML replicated scheme (where every rank executes this code in
//! lockstep and reductions hide inside `Evaluator::log_likelihood`).

pub mod bootstrap;
pub mod branch_opt;
pub mod checkpoint;
pub mod model_opt;
pub mod newton;
pub mod nni;
pub mod parsimony;
pub mod search;
pub mod spr;
#[cfg(test)]
mod test_dir;

pub use search::{MlSearch, SearchConfig, SearchResult};

use phylo_models::GtrParams;
use phylo_tree::{EdgeId, Tree};
use plf_core::LikelihoodEngine;

/// The likelihood services the search needs. Implemented by a single
/// [`LikelihoodEngine`] here, and by the parallel schemes in
/// `phylo-parallel`.
pub trait Evaluator {
    /// Log-likelihood with the virtual root on `root_edge`.
    fn log_likelihood(&mut self, tree: &Tree, root_edge: EdgeId) -> f64;
    /// Prepares derivative computation for `edge` (the
    /// `derivativeSum` precomputation).
    fn prepare_branch(&mut self, tree: &Tree, edge: EdgeId);
    /// First/second log-likelihood derivative at branch length `t` for
    /// the prepared edge (the `derivativeCore` kernel).
    fn branch_derivatives(&mut self, t: f64) -> (f64, f64);
    /// Replaces the Γ shape parameter.
    fn set_alpha(&mut self, alpha: f64);
    /// Replaces the GTR parameters.
    fn set_model(&mut self, params: GtrParams);
    /// Current Γ shape.
    fn alpha(&self) -> f64;
    /// Current GTR parameters.
    fn model(&self) -> GtrParams;
}

impl Evaluator for LikelihoodEngine {
    fn log_likelihood(&mut self, tree: &Tree, root_edge: EdgeId) -> f64 {
        LikelihoodEngine::log_likelihood(self, tree, root_edge)
    }
    fn prepare_branch(&mut self, tree: &Tree, edge: EdgeId) {
        LikelihoodEngine::prepare_branch(self, tree, edge)
    }
    fn branch_derivatives(&mut self, t: f64) -> (f64, f64) {
        LikelihoodEngine::branch_derivatives(self, t)
    }
    fn set_alpha(&mut self, alpha: f64) {
        LikelihoodEngine::set_alpha(self, alpha)
    }
    fn set_model(&mut self, params: GtrParams) {
        LikelihoodEngine::set_model(self, params)
    }
    fn alpha(&self) -> f64 {
        LikelihoodEngine::alpha(self)
    }
    fn model(&self) -> GtrParams {
        *LikelihoodEngine::model(self)
    }
}
