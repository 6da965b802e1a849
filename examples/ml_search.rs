//! Full maximum-likelihood tree search on simulated data — the
//! RAxML-Light/ExaML workload the paper benchmarks — run three ways:
//! single-threaded, fork-join (RAxML-Light scheme), and replicated
//! (ExaML scheme). All three must find the same tree.
//!
//! Run: `cargo run --release --example ml_search [patterns] [ranks]`

use phylomic::models::{DiscreteGamma, Gtr, GtrParams};
use phylomic::parallel::{run_replicated, ForkJoinEvaluator};
use phylomic::plf::{clock, EngineConfig, LikelihoodEngine};
use phylomic::search::{MlSearch, SearchConfig};
use phylomic::seqgen;
use phylomic::tree::build::{default_names, random_tree};
use phylomic::tree::newick;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Seconds since the [`clock::now_ns`] reading `t0`.
fn seconds_since(t0: u64) -> f64 {
    (clock::now_ns() - t0) as f64 * 1e-9
}

fn main() {
    let mut args = std::env::args().skip(1);
    let patterns: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5_000);
    let ranks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    // Simulate a 15-taxon dataset (the paper's shape) on a known tree.
    let mut rng = SmallRng::seed_from_u64(2014);
    let names = default_names(15);
    let true_tree = random_tree(&names, 0.12, &mut rng).unwrap();
    let gtr = Gtr::new(GtrParams {
        rates: [1.3, 2.9, 0.7, 1.0, 3.6, 1.0],
        freqs: [0.27, 0.23, 0.24, 0.26],
    });
    let gamma = DiscreteGamma::new(0.7);
    let aln = seqgen::simulate_compressed(&true_tree, gtr.eigen(), &gamma, patterns, &mut rng);
    println!(
        "simulated {} taxa x {} patterns under GTR+Gamma(alpha=0.7)",
        aln.num_taxa(),
        aln.num_patterns()
    );

    let start_tree = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(99)).unwrap();
    let config = EngineConfig {
        alpha: 0.7,
        ..EngineConfig::default()
    };
    let search = MlSearch::new(SearchConfig {
        max_rounds: 8,
        optimize_model: true,
        ..Default::default()
    });

    // 1. Single-threaded.
    let mut t1 = start_tree.clone();
    let mut engine = LikelihoodEngine::new(&t1, &aln, config);
    let t = clock::now_ns();
    let r1 = search.run(&mut engine, &mut t1);
    println!(
        "serial:     logL {:.3}  RF-to-truth {}  ({:.2}s, {} SPR candidates)",
        r1.log_likelihood,
        t1.rf_distance(&true_tree),
        seconds_since(t),
        r1.spr_evaluated
    );

    // 2. Fork-join scheme (RAxML-Light style).
    let mut t2 = start_tree.clone();
    // As many computing threads as the replicated run has ranks: the
    // master computes one slice, so it spawns one worker fewer.
    let mut fj = ForkJoinEvaluator::new(&t2, &aln, config, ranks.max(1) - 1);
    let t = clock::now_ns();
    let r2 = search.run(&mut fj, &mut t2);
    println!(
        "fork-join:  logL {:.3}  RF-to-truth {}  ({:.2}s, master + {} workers, {} regions)",
        r2.log_likelihood,
        t2.rf_distance(&true_tree),
        seconds_since(t),
        fj.num_workers(),
        fj.regions()
    );

    // 3. Replicated scheme (ExaML style).
    let t = clock::now_ns();
    let out = run_replicated(&start_tree, &aln, config, search, ranks);
    let t3 = newick::parse(&out.result.newick).unwrap();
    println!(
        "replicated: logL {:.3}  RF-to-truth {}  ({:.2}s, {} ranks, {} AllReduces of {} B avg)",
        out.result.log_likelihood,
        t3.rf_distance(&true_tree),
        seconds_since(t),
        ranks,
        out.comm_stats.allreduces,
        out.comm_stats
            .bytes
            .checked_div(out.comm_stats.allreduces)
            .unwrap_or(0)
    );

    assert_eq!(t1.rf_distance(&t2), 0, "schemes disagree on topology");
    assert_eq!(t1.rf_distance(&t3), 0, "schemes disagree on topology");
    println!("\nall three schemes found the same topology");
    println!("final tree: {}", r1.newick);
}
