//! Quickstart: parse an alignment, build a tree, compute its
//! likelihood, and optimize branch lengths.
//!
//! Run: `cargo run --release --example quickstart`

use phylomic::bio::{fasta, CompressedAlignment};
use phylomic::plf::{EngineConfig, LikelihoodEngine};
use phylomic::search::branch_opt::smooth_branches;
use phylomic::tree::newick;

const FASTA: &str = "\
>human
ACGTACGTTACGTAACGGTAACGTTAGCTAGCTAGCTGATCGATCGTAGCTACGTACGAT
>chimp
ACGTACGTTACGTAACGGTAACGTTAGCTAGCTAGCTGATCGATCGTAGCTACGTACGTT
>gorilla
ACGAACGTTACGTAACGGTAACGTTAGCTAGCAAGCTGATCGATCGTAGCTACGTACGTT
>orang
ACGAACGTTACGAAACGGTCACGTTAGCTAGCAAGCTGTTCGATCGTAGCTACCTACGTT
>gibbon
TCGAACGTTACGAAACGGTCACGTAAGCTAGCAAGCTGTTCGATCGAAGCTACCTACGTA
";

fn main() {
    // 1. Load sequence data and compress identical columns into
    //    weighted patterns (the unit the kernels work in).
    let alignment = fasta::parse_str(FASTA).expect("valid FASTA");
    let compressed = CompressedAlignment::from_alignment(&alignment);
    println!(
        "alignment: {} taxa x {} sites -> {} unique patterns",
        alignment.num_taxa(),
        alignment.num_sites(),
        compressed.num_patterns()
    );

    // 2. A starting topology (any Newick over the same taxon names).
    let mut tree =
        newick::parse("((human:0.05,chimp:0.05):0.02,(gorilla:0.06,orang:0.09):0.02,gibbon:0.12);")
            .expect("valid newick");

    // 3. A likelihood engine: GTR with empirical base frequencies,
    //    Gamma rate heterogeneity (4 categories), the default kernels
    //    (explicit SIMD where the CPU has AVX2+FMA).
    let mut engine = LikelihoodEngine::new(
        &tree,
        &compressed,
        EngineConfig {
            alpha: 0.8,
            ..EngineConfig::default()
        },
    );

    // 4. Log-likelihood with the virtual root on edge 0 — any edge
    //    gives the same value under a time-reversible model.
    let ll = engine.log_likelihood(&tree, 0);
    println!("initial log-likelihood: {ll:.4}");

    // 5. Newton-Raphson branch-length optimization over all edges
    //    (driven by the derivativeSum/derivativeCore kernels).
    let smoothed = smooth_branches(&mut engine, &mut tree, 1e-4, 16);
    println!(
        "after branch optimization: {:.4} ({} passes)",
        smoothed.log_likelihood, smoothed.passes
    );
    println!("optimized tree: {}", newick::to_newick(&tree));

    // 6. Kernel work performed, as the instrumentation sees it.
    let stats = engine.stats();
    for k in phylomic::plf::KernelId::ALL {
        let c = stats.get(k);
        println!(
            "  {:<16} {:>6} calls, {:>8} pattern-sites",
            k.paper_name(),
            c.calls,
            c.sites
        );
    }
}
