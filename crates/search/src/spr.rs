//! Lazy SPR rounds with bounded regraft radius.
//!
//! The RAxML-Light strategy: for every candidate subtree, try regraft
//! positions within a hop radius of its current location, score each
//! with a *lazy* evaluation (no branch re-optimization during
//! scoring), keep the best improvement, and re-smooth branch lengths
//! once per round. Scoring a candidate is exactly one `evaluate` plus
//! the `newview`s invalidated by the rearrangement — the invocation
//! pattern whose latency sensitivity §V-C analyzes.

use crate::Evaluator;
use phylo_tree::moves::{spr, spr_undo};
use phylo_tree::traverse::edges_within_dist;
use phylo_tree::{EdgeId, NodeId, Tree};

/// Result of one SPR improvement round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SprRoundResult {
    /// Best log-likelihood after the round.
    pub log_likelihood: f64,
    /// Number of accepted rearrangements.
    pub accepted: usize,
    /// Number of candidate rearrangements scored.
    pub evaluated: usize,
}

/// All (prune_edge, subtree_root) candidates: every directed edge
/// whose far end is an inner node (so there is an attachment point to
/// travel with the subtree).
fn prune_candidates(tree: &Tree) -> Vec<(EdgeId, NodeId)> {
    let mut out = Vec::new();
    for e in tree.edge_ids() {
        let (a, b) = tree.endpoints(e);
        if !tree.is_tip(b) {
            out.push((e, a));
        }
        if !tree.is_tip(a) {
            out.push((e, b));
        }
    }
    out
}

/// Performs one SPR round over all prune candidates with the given
/// regraft `radius`. Each candidate's best regraft is applied
/// immediately when it improves the current score by more than
/// `epsilon` (first-improvement hill climbing, as in RAxML's fast
/// phase).
pub fn spr_round<E: Evaluator + ?Sized>(
    evaluator: &mut E,
    tree: &mut Tree,
    radius: usize,
    epsilon: f64,
) -> SprRoundResult {
    spr_round_over(evaluator, tree, epsilon, |tree, prune_edge| {
        edges_within_dist(tree, prune_edge, radius)
    })
}

/// [`spr_round`] over the regraft targets `targets(tree, prune_edge)`
/// lists, each with its distance from the prune edge. The order decides
/// what scoring costs, never which move is chosen.
fn spr_round_over<E: Evaluator + ?Sized>(
    evaluator: &mut E,
    tree: &mut Tree,
    epsilon: f64,
    targets: impl Fn(&Tree, EdgeId) -> Vec<(EdgeId, usize)>,
) -> SprRoundResult {
    let _span = plf_core::span::enter("spr_round");
    let mut current = evaluator.log_likelihood(tree, 0);
    let mut accepted = 0;
    let mut evaluated = 0;

    for (prune_edge, subtree_root) in prune_candidates(tree) {
        // Accepted moves re-wire edges, so a candidate computed at
        // round start may have gone stale: re-validate it against the
        // current tree before use.
        {
            let (a, b) = tree.endpoints(prune_edge);
            if a != subtree_root && b != subtree_root {
                continue;
            }
            let far = if a == subtree_root { b } else { a };
            if tree.is_tip(far) {
                continue;
            }
        }
        // Targets come depth-first, so that consecutive candidates
        // re-root across one node; among equal scores the one a
        // breadth-first enumeration meets first wins — the nearer one,
        // and of two equally near the earlier.
        let mut best: Option<(f64, usize, EdgeId)> = None;
        for (target, dist) in targets(tree, prune_edge) {
            let undo = match spr(tree, prune_edge, subtree_root, target) {
                Ok(u) => u,
                Err(_) => continue, // invalid placement, skip
            };
            let ll = evaluator.log_likelihood(tree, prune_edge);
            evaluated += 1;
            spr_undo(tree, undo).expect("undo of a just-applied SPR");
            let (best_ll, best_dist) = best.map_or((f64::NEG_INFINITY, 0), |(l, d, _)| (l, d));
            let better = match ll.partial_cmp(&best_ll) {
                Some(std::cmp::Ordering::Greater) => true,
                Some(std::cmp::Ordering::Equal) => dist < best_dist,
                _ => false,
            };
            if better {
                best = Some((ll, dist, target));
            }
        }
        // Apply the best lazy candidate, then re-optimize the three
        // branches around the new attachment point (RAxML's local
        // smoothing): the lazy score underestimates good placements
        // because the regraft splits its target edge naively.
        if let Some((lazy_ll, _, target)) = best {
            if lazy_ll <= current - 2.0 {
                continue; // hopeless even before local smoothing
            }
            let undo = spr(tree, prune_edge, subtree_root, target)
                .expect("best candidate was applicable during scoring");
            let p = {
                let (a, b) = tree.endpoints(prune_edge);
                if a == subtree_root {
                    b
                } else {
                    a
                }
            };
            let local: Vec<EdgeId> = tree.incident(p).to_vec();
            let saved: Vec<(EdgeId, f64)> = local.iter().map(|&e| (e, tree.length(e))).collect();
            for &e in &local {
                crate::newton::optimize_branch(evaluator, tree, e);
            }
            let ll = evaluator.log_likelihood(tree, prune_edge);
            evaluated += 1;
            if ll > current + epsilon {
                current = ll;
                accepted += 1;
            } else {
                for (e, len) in saved {
                    tree.set_length(e, len).expect("restoring a valid length");
                }
                spr_undo(tree, undo).expect("undo of a just-applied SPR");
            }
        }
    }

    plf_core::metrics::counter("spr.moves.evaluated").add(evaluated as u64);
    plf_core::metrics::counter("spr.moves.accepted").add(accepted as u64);
    plf_core::metrics::counter("spr.moves.rejected").add((evaluated - accepted) as u64);
    SprRoundResult {
        log_likelihood: current,
        accepted,
        evaluated,
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
    fn prune_candidates_cover_directed_inner_edges() {
        let t = phylo_tree::newick::parse("((a:0.1,b:0.1):0.1,c:0.1,(d:0.1,e:0.1):0.1);").unwrap();
        let cands = prune_candidates(&t);
        // Every edge has ≥1 inner endpoint in a binary tree, pendant
        // edges contribute 1 candidate, internal edges 2.
        let internal = t.internal_edges().count();
        let pendant = t.num_edges() - internal;
        assert_eq!(cands.len(), pendant + 2 * internal);
    }

    /// The breadth-first enumeration `spr_round` scored its targets in
    /// before it moved to the depth-first one: the same targets sorted
    /// stably by distance (`traverse.rs` holds that sequence to a
    /// breadth-first walk). Distances never fall along it, so the
    /// distance tie-break cannot fire: the first of the best-scoring
    /// targets wins, as under the old strict `>`.
    fn bfs_targets(tree: &Tree, start: EdgeId, radius: usize) -> Vec<(EdgeId, usize)> {
        let mut targets = edges_within_dist(tree, start, radius);
        targets.sort_by_key(|&(_, dist)| dist);
        targets
    }

    #[test]
    fn depth_first_scoring_chooses_the_breadth_first_moves() {
        let mut rng = SmallRng::seed_from_u64(99);
        let names = default_names(16);
        let true_tree = random_tree(&names, 0.12, &mut rng).unwrap();
        let g = Gtr::new(GtrParams::jc69());
        let gamma = DiscreteGamma::new(0.8);
        let aln = phylo_seqgen::simulate_alignment(&true_tree, g.eigen(), &gamma, 600, &mut rng);
        let ca = CompressedAlignment::from_alignment(&aln);
        let start = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(8)).unwrap();
        let calls = |e: &LikelihoodEngine| e.stats().get(plf_core::KernelId::Newview).calls;

        let mut t_bfs = start.clone();
        let mut e_bfs = LikelihoodEngine::new(&t_bfs, &ca, EngineConfig::default());
        let r_bfs = spr_round_over(&mut e_bfs, &mut t_bfs, 1e-3, |t, e| bfs_targets(t, e, 5));
        let mut t_dfs = start.clone();
        let mut e_dfs = LikelihoodEngine::new(&t_dfs, &ca, EngineConfig::default());
        let r_dfs = spr_round(&mut e_dfs, &mut t_dfs, 5, 1e-3);

        assert!(r_bfs.accepted > 0, "the round must edit the tree");
        assert_eq!(r_dfs.accepted, r_bfs.accepted);
        assert_eq!(r_dfs.evaluated, r_bfs.evaluated);
        assert_eq!(
            r_dfs.log_likelihood.to_bits(),
            r_bfs.log_likelihood.to_bits()
        );
        assert_eq!(
            phylo_tree::newick::to_newick(&t_dfs),
            phylo_tree::newick::to_newick(&t_bfs)
        );
        // Same moves for fewer re-rooting steps.
        assert!(
            calls(&e_dfs) < calls(&e_bfs),
            "{} vs {} newviews",
            calls(&e_dfs),
            calls(&e_bfs)
        );
    }

    /// A score with three values, scattered over the topologies (the
    /// summed split sizes modulo three): the best score of a candidate
    /// is shared by targets at several distances, so which one wins is
    /// pure tie-breaking.
    struct ThreeValued;

    impl Evaluator for ThreeValued {
        fn log_likelihood(&mut self, tree: &Tree, _root_edge: EdgeId) -> f64 {
            -((tree.splits().iter().map(Vec::len).sum::<usize>() % 3) as f64)
        }
        fn prepare_branch(&mut self, _tree: &Tree, _edge: EdgeId) {}
        fn branch_derivatives(&mut self, _t: f64) -> (f64, f64) {
            (0.0, -1.0) // every length is already optimal
        }
        fn set_alpha(&mut self, _alpha: f64) {}
        fn set_model(&mut self, _params: GtrParams) {}
        fn alpha(&self) -> f64 {
            1.0
        }
        fn model(&self) -> GtrParams {
            GtrParams::jc69()
        }
    }

    #[test]
    fn equal_scores_go_to_the_nearer_then_the_earlier_target() {
        let names = default_names(20);
        for seed in 0..4 {
            let start = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(seed)).unwrap();
            // A threshold under every score difference: each
            // candidate's choice is applied, so a different choice
            // shows in the tree.
            let mut t_bfs = start.clone();
            let r_bfs = spr_round_over(&mut ThreeValued, &mut t_bfs, -10.0, |t, e| {
                bfs_targets(t, e, 5)
            });
            let mut t_dfs = start.clone();
            let r_dfs = spr_round(&mut ThreeValued, &mut t_dfs, 5, -10.0);
            assert!(r_bfs.accepted > 10, "seed {seed}");
            assert_eq!(r_dfs, r_bfs, "seed {seed}");
            assert_eq!(
                phylo_tree::newick::to_newick(&t_dfs),
                phylo_tree::newick::to_newick(&t_bfs),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn spr_round_recovers_true_topology_on_easy_data() {
        // Simulate clean data on a known tree, start from a random
        // topology, and check that SPR rounds reach the true topology
        // (or at least strictly improve and leave a valid tree).
        let mut rng = SmallRng::seed_from_u64(77);
        let names = default_names(7);
        let true_tree = random_tree(&names, 0.12, &mut rng).unwrap();
        let g = Gtr::new(GtrParams::jc69());
        let gamma = DiscreteGamma::new(5.0);
        let aln = phylo_seqgen::simulate_alignment(&true_tree, g.eigen(), &gamma, 5000, &mut rng);
        let ca = CompressedAlignment::from_alignment(&aln);

        let mut tree = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(123)).unwrap();
        let mut engine = LikelihoodEngine::new(&tree, &ca, EngineConfig::default());
        let start = engine.log_likelihood(&tree, 0);

        let mut last = start;
        for _ in 0..6 {
            let r = spr_round(&mut engine, &mut tree, 5, 1e-3);
            crate::branch_opt::smooth_branches(&mut engine, &mut tree, 1e-2, 4);
            let n = crate::nni::nni_round(&mut engine, &mut tree, 1e-3);
            let now = engine.log_likelihood(&tree, 0);
            assert!(now >= last - 1e-6);
            if r.accepted == 0 && n.accepted == 0 {
                break;
            }
            last = now;
        }
        tree.validate().unwrap();
        assert!(last > start, "no improvement from SPR search");
        assert_eq!(
            tree.rf_distance(&true_tree),
            0,
            "did not recover the true topology (got RF {})",
            tree.rf_distance(&true_tree)
        );
    }
}
