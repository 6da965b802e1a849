//! The `phylo-parallel` API the end-to-end benchmark compiles against,
//! used here the way `plf_e2e/src/schemes.rs` uses it (`run_forkjoin`,
//! `run_replicated`). `plf_e2e/` is its own workspace and tier-1 does
//! not build it, so a change to one of these names would otherwise
//! first fail in the benchmark run.

use phylo_bio::{Alignment, CompressedAlignment, Sequence};
use phylo_parallel::{run_replicated_ft, CommStats, ForkJoinEvaluator, FtConfig, WireStats};
use phylo_search::{MlSearch, SearchConfig};
use phylo_tree::{newick, Tree};
use plf_core::{EngineConfig, KernelOp, KernelStats};

fn inputs() -> (Tree, CompressedAlignment, MlSearch) {
    let tree = newick::parse("((a:0.1,b:0.12):0.1,c:0.15,(d:0.1,e:0.11):0.13);").unwrap();
    let rows = [
        "ACGTACGTAC",
        "ACGTTCGAAC",
        "ACGAACGTTC",
        "TCGTACGTAG",
        "ACGTACTTAG",
    ];
    let seqs = ["a", "b", "c", "d", "e"].into_iter().zip(rows);
    let seqs = seqs.map(|(n, s)| Sequence::from_str_named(n, s).unwrap());
    let aln = CompressedAlignment::from_alignment(&Alignment::new(seqs.collect()).unwrap());
    let search = MlSearch::new(SearchConfig {
        max_rounds: 1,
        optimize_model: false,
        ..Default::default()
    });
    (tree, aln, search)
}

fn kernel_calls(stats: &KernelStats) -> u64 {
    KernelOp::ALL.iter().map(|&op| stats.op(op).calls).sum()
}

#[test]
fn replicated_surface_holds() {
    let (tree, aln, search) = inputs();
    let out = run_replicated_ft(
        &tree,
        &aln,
        EngineConfig::default(),
        search,
        &FtConfig::new(2),
    )
    .map_err(|e| e.to_string())
    .unwrap();
    // The lockstep check, then the five fields the benchmark reads.
    assert_eq!(out.rank_likelihoods.len(), 2);
    assert!(!out
        .rank_likelihoods
        .iter()
        .any(|l| l.to_bits() != out.result.log_likelihood.to_bits()));
    let (comm, wire): (CommStats, WireStats) = (out.comm_stats, out.wire);
    assert!(comm.allreduces > 0 && comm.bytes >= 8 * comm.allreduces);
    assert_eq!(wire.ops, 2 * (comm.allreduces + comm.barriers));
    assert!(kernel_calls(&out.kernel_stats) > 0);
    assert!(out.result.rounds <= 1 && !out.result.newick.is_empty());
}

#[test]
fn forkjoin_surface_holds() {
    let (mut tree, aln, search) = inputs();
    let mut fj = ForkJoinEvaluator::new(&tree, &aln, EngineConfig::default(), 1);
    let result = search.run(&mut fj, &mut tree);
    assert!(result.log_likelihood.is_finite());
    // The count comes first: collecting the workers' stats is a region.
    let regions: u64 = fj.regions();
    let master = *fj.master_stats().regions();
    let mut workers = KernelStats::new();
    for s in fj.take_stats_per_worker() {
        workers.merge(&s);
    }
    assert!(regions > 0 && kernel_calls(&workers) > 0);
    let _waits: u64 = master.fork.total_ns() + master.join.total_ns();
}
