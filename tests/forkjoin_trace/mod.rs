//! The instrumented fork-join run shared by `tests/trace_calibration.rs`
//! and `tests/region_waits.rs` (`mod forkjoin_trace;`).

use phylomic::models::{DiscreteGamma, Gtr, GtrParams};
use phylomic::parallel::ForkJoinEvaluator;
use phylomic::plf::trace::TraceEvent;
use phylomic::plf::EngineConfig;
use phylomic::search::Evaluator;
use phylomic::tree::build::{default_names, random_tree};
use phylomic::tree::Tree;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// 8 taxa on a random tree, 1200 simulated columns, fixed seed.
pub fn dataset() -> (Tree, phylomic::bio::CompressedAlignment) {
    let mut rng = SmallRng::seed_from_u64(77);
    let names = default_names(8);
    let tree = random_tree(&names, 0.15, &mut rng).unwrap();
    let g = Gtr::new(GtrParams::jc69());
    let gamma = DiscreteGamma::new(0.9);
    let aln = phylomic::seqgen::simulate_alignment(&tree, g.eigen(), &gamma, 1200, &mut rng);
    (
        tree,
        phylomic::bio::CompressedAlignment::from_alignment(&aln),
    )
}

/// Runs an instrumented fork-join workload and exports it exactly the
/// way `phylomic search --trace-out` does: one op-event block per
/// team member (the computing master's slice 0 first) plus the
/// master's region block.
pub fn record_forkjoin_trace(workers: usize) -> Vec<TraceEvent> {
    let (tree, aln) = dataset();
    let mut fj = ForkJoinEvaluator::new(&tree, &aln, EngineConfig::default(), workers);
    for e in 0..tree.num_edges().min(6) {
        fj.log_likelihood(&tree, e);
    }
    fj.prepare_branch(&tree, 1);
    fj.branch_derivatives(tree.length(1));
    fj.take_trace_events()
}
