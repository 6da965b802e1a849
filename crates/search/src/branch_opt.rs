//! Whole-tree branch-length smoothing.

use crate::newton::optimize_branch;
use crate::Evaluator;
use phylo_tree::traverse::edges_depth_first;
use phylo_tree::Tree;

/// Result of a smoothing pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SmoothResult {
    /// Log-likelihood after the final pass.
    pub log_likelihood: f64,
    /// Number of full passes over all edges.
    pub passes: usize,
}

/// Optimizes every branch length by repeated Newton passes over all
/// edges until a full pass improves the log-likelihood by less than
/// `epsilon`, or `max_passes` is reached (RAxML's "smoothTree").
///
/// A pass walks the edges depth-first from edge 0, as `smoothTree`
/// recurses: consecutive branches are adjacent, so re-rooting from one
/// to the next recomputes the one inner node between them instead of
/// the path between two edge ids that happen to be consecutive.
pub fn smooth_branches<E: Evaluator + ?Sized>(
    evaluator: &mut E,
    tree: &mut Tree,
    epsilon: f64,
    max_passes: usize,
) -> SmoothResult {
    let _span = plf_core::span::enter("smooth_branches");
    assert!(epsilon > 0.0 && max_passes > 0);
    let mut current = evaluator.log_likelihood(tree, 0);
    let tour = edges_depth_first(tree, 0);
    let mut passes = 0;
    for _ in 0..max_passes {
        passes += 1;
        for &edge in &tour {
            optimize_branch(evaluator, tree, edge);
        }
        let next = evaluator.log_likelihood(tree, 0);
        let gain = next - current;
        current = next;
        if gain.abs() < epsilon {
            break;
        }
    }
    plf_core::metrics::counter("smooth.passes").add(passes as u64);
    plf_core::metrics::counter("smooth.branches").add((passes * tour.len()) as u64);
    SmoothResult {
        log_likelihood: current,
        passes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_bio::CompressedAlignment;
    use phylo_models::{DiscreteGamma, Gtr, GtrParams};
    use phylo_tree::build::{default_names, random_tree};
    use plf_core::{EngineConfig, LikelihoodEngine};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn smoothing_beats_single_edge_optimization_and_converges() {
        let mut rng = SmallRng::seed_from_u64(21);
        let names = default_names(7);
        let true_tree = random_tree(&names, 0.2, &mut rng).unwrap();
        let g = Gtr::new(GtrParams::jc69());
        let gamma = DiscreteGamma::new(1.0);
        let aln = phylo_seqgen::simulate_alignment(&true_tree, g.eigen(), &gamma, 2000, &mut rng);
        let ca = CompressedAlignment::from_alignment(&aln);

        // Start from the right topology but uniform branch lengths.
        let mut tree = true_tree.clone();
        for e in 0..tree.num_edges() {
            tree.set_length(e, 0.05).unwrap();
        }
        let mut engine = LikelihoodEngine::new(&tree, &ca, EngineConfig::default());
        let before = engine.log_likelihood(&tree, 0);
        let r = smooth_branches(&mut engine, &mut tree, 1e-4, 16);
        assert!(
            r.log_likelihood > before,
            "{} !> {before}",
            r.log_likelihood
        );
        // A second smoothing changes almost nothing (converged).
        let r2 = smooth_branches(&mut engine, &mut tree, 1e-4, 16);
        assert!((r2.log_likelihood - r.log_likelihood).abs() < 1e-2);
        assert!(r2.passes <= 2);
    }
}
