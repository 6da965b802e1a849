//! Newton-Raphson optimization of a single branch length.
//!
//! This is the consumer of the paper's `derivativeSum` /
//! `derivativeCore` kernels: `derivativeSum` runs once per branch
//! (the site table is invariant in the branch length), then each
//! Newton iteration costs one `derivativeCore` call (§IV).

use crate::Evaluator;
use phylo_tree::tree::{BL_MAX, BL_MIN};
use phylo_tree::{EdgeId, Tree};

/// Outcome of one branch optimization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NewtonResult {
    /// The optimized branch length (already written into the tree).
    pub length: f64,
    /// Newton iterations performed.
    pub iterations: usize,
    /// Whether |dL/dt| fell under the tolerance.
    pub converged: bool,
}

/// Maximum Newton iterations per branch (RAxML uses 30).
pub const MAX_ITER: usize = 30;

/// Convergence tolerance on the branch-length step.
pub const TOL: f64 = 1e-9;

/// Optimizes the length of `edge` in place by safeguarded
/// Newton-Raphson on `d logL / dt`, exactly the RAxML `makenewz`
/// scheme: a Newton step when the second derivative is negative
/// (concave), otherwise a slope-following fallback step; all iterates
/// clamped to `[BL_MIN, BL_MAX]`.
pub fn optimize_branch<E: Evaluator + ?Sized>(
    evaluator: &mut E,
    tree: &mut Tree,
    edge: EdgeId,
) -> NewtonResult {
    let _span = plf_core::span::enter("branch_opt");
    evaluator.prepare_branch(tree, edge);
    let mut t = tree.length(edge);
    let mut converged = false;
    let mut iterations = 0;

    for _ in 0..MAX_ITER {
        iterations += 1;
        let (d1, d2) = evaluator.branch_derivatives(t);
        if !d1.is_finite() || !d2.is_finite() {
            break;
        }
        if d1.abs() < TOL {
            converged = true;
            break;
        }
        // At a boundary with the gradient pointing outward, the
        // constrained optimum is the boundary itself.
        if (t <= BL_MIN && d1 < 0.0) || (t >= BL_MAX && d1 > 0.0) {
            converged = true;
            break;
        }
        let mut next = if d2 < 0.0 {
            // Proper Newton step toward the stationary point.
            t - d1 / d2
        } else if d1 < 0.0 {
            // Convex region, likelihood decreasing: halve the branch
            // (RAxML's fallback).
            t * 0.5
        } else {
            // Convex region, likelihood increasing: double it.
            t * 2.0
        };
        if !(BL_MIN..=BL_MAX).contains(&next) {
            next = next.clamp(BL_MIN, BL_MAX);
        }
        if (next - t).abs() < TOL {
            t = next;
            converged = true;
            break;
        }
        t = next;
    }

    newton_iterations_counter().add(iterations as u64);
    tree.set_length(edge, t).expect("clamped length is valid");
    NewtonResult {
        length: tree.length(edge),
        iterations,
        converged,
    }
}

/// Cached handle for the `newton.iterations` counter — `optimize_branch`
/// runs once per edge per smoothing pass, so skip the registry lookup.
fn newton_iterations_counter() -> &'static plf_core::metrics::Counter {
    static C: std::sync::OnceLock<plf_core::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| plf_core::metrics::counter("newton.iterations"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_bio::{Alignment, CompressedAlignment, Sequence};
    use phylo_models::DiscreteGamma;
    use phylo_tree::build::{default_names, random_tree};
    use phylo_tree::newick;
    use plf_core::{EngineConfig, LikelihoodEngine};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup() -> (phylo_tree::Tree, CompressedAlignment) {
        let mut rng = SmallRng::seed_from_u64(99);
        let names = default_names(8);
        let true_tree = random_tree(&names, 0.15, &mut rng).unwrap();
        let g = phylo_models::Gtr::new(phylo_models::GtrParams::jc69());
        let gamma = DiscreteGamma::new(1.0);
        let aln = phylo_seqgen::simulate_alignment(&true_tree, g.eigen(), &gamma, 1500, &mut rng);
        let ca = CompressedAlignment::from_alignment(&aln);
        (true_tree, ca)
    }

    #[test]
    fn optimizing_improves_loglikelihood() {
        let (mut tree, aln) = setup();
        let mut engine = LikelihoodEngine::new(&tree, &aln, EngineConfig::default());
        for edge in 0..tree.num_edges() {
            let before = engine.log_likelihood(&tree, edge);
            // Perturb, then re-optimize.
            tree.set_length(edge, 1.5).unwrap();
            let r = optimize_branch(&mut engine, &mut tree, edge);
            let after = engine.log_likelihood(&tree, edge);
            assert!(
                after >= before - 1e-6,
                "edge {edge}: {after} < {before} (result {r:?})"
            );
        }
    }

    #[test]
    fn derivative_vanishes_at_optimum() {
        let (mut tree, aln) = setup();
        let mut engine = LikelihoodEngine::new(&tree, &aln, EngineConfig::default());
        let edge = 3;
        let r = optimize_branch(&mut engine, &mut tree, edge);
        assert!(r.converged, "{r:?}");
        engine.prepare_branch(&tree, edge);
        let (d1, d2) = engine.branch_derivatives(r.length);
        // Interior optimum: zero slope, negative curvature.
        if r.length > BL_MIN * 2.0 && r.length < BL_MAX / 2.0 {
            assert!(d1.abs() < 1e-4, "d1 = {d1}");
            assert!(d2 < 0.0, "d2 = {d2}");
        }
    }

    #[test]
    fn recovers_known_branch_length_roughly() {
        // Simulate on a fixed 4-taxon tree with a distinctive inner
        // branch, then re-optimize that branch from a wrong start.
        let true_tree = newick::parse("((a:0.1,b:0.1):0.4,c:0.1,d:0.1);").unwrap();
        let g = phylo_models::Gtr::new(phylo_models::GtrParams::jc69());
        let gamma = DiscreteGamma::new(10.0);
        let mut rng = SmallRng::seed_from_u64(5);
        let aln = phylo_seqgen::simulate_alignment(&true_tree, g.eigen(), &gamma, 60_000, &mut rng);
        let ca = CompressedAlignment::from_alignment(&aln);
        let mut tree = true_tree.clone();
        let inner = tree.internal_edges().next().unwrap();
        tree.set_length(inner, 0.05).unwrap();
        let mut engine = LikelihoodEngine::new(&tree, &ca, EngineConfig::default());
        engine.set_alpha(10.0);
        let r = optimize_branch(&mut engine, &mut tree, inner);
        assert!(
            (r.length - 0.4).abs() < 0.05,
            "recovered {} expected ~0.4",
            r.length
        );
    }

    #[test]
    fn zero_information_branch_hits_minimum() {
        // Identical sequences: the ML branch length is 0 (clamped to
        // BL_MIN).
        let tree = newick::parse("(a:0.2,b:0.2,c:0.2);").unwrap();
        let a = Alignment::new(vec![
            Sequence::from_str_named("a", "ACGTACGTAC").unwrap(),
            Sequence::from_str_named("b", "ACGTACGTAC").unwrap(),
            Sequence::from_str_named("c", "ACGTACGTAC").unwrap(),
        ])
        .unwrap();
        let ca = CompressedAlignment::from_alignment(&a);
        let mut tree = tree;
        let mut engine = LikelihoodEngine::new(&tree, &ca, EngineConfig::default());
        let r = optimize_branch(&mut engine, &mut tree, 0);
        assert!(r.length <= BL_MIN * 10.0, "length {}", r.length);
    }
}
