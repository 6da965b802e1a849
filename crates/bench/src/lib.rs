#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Shared harness code for the paper's tables and figures.
//!
//! The central object is [`record_trace`]: it runs a *real*,
//! instrumented ML tree search (the ExaML-style replicated scheme from
//! `phylo-parallel`) on a simulated 15-taxon alignment — the paper's
//! dataset shape — and packages the measured kernel invocation counts
//! and AllReduce counts as a [`WorkloadTrace`]. The `micsim` model then
//! extrapolates that trace across the Table III alignment sizes, and
//! [`paper_results`] renders every model-output file of `results/`
//! from it.

mod results;

pub use results::{paper_results, rank_thread_sweep};

use micsim::WorkloadTrace;
use phylo_bio::CompressedAlignment;
use phylo_models::{DiscreteGamma, Gtr, GtrParams};
use phylo_search::{MlSearch, SearchConfig};
use phylo_tree::build::{default_names, random_tree};
use phylo_tree::Tree;
use plf_core::EngineConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Number of taxa in every paper dataset (§VI-A3).
pub const PAPER_TAXA: usize = 15;

/// Deterministically simulates a paper-style dataset: a random
/// `taxa`-leaf tree and a GTR+Γ alignment of `patterns` sites on it.
pub fn paper_dataset(taxa: usize, patterns: usize, seed: u64) -> (Tree, CompressedAlignment) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let names = default_names(taxa);
    let tree = random_tree(&names, 0.15, &mut rng).unwrap();
    let gtr = Gtr::new(GtrParams {
        rates: [1.1, 2.6, 0.8, 1.2, 3.4, 1.0],
        freqs: [0.29, 0.21, 0.22, 0.28],
    });
    let gamma = DiscreteGamma::new(0.85);
    let aln = phylo_seqgen::simulate_compressed(&tree, gtr.eigen(), &gamma, patterns, &mut rng);
    (tree, aln)
}

/// The search configuration used for trace recording: a fixed-model
/// full tree search (the paper benchmarks parallel PLF performance,
/// not model optimization).
pub fn trace_search_config() -> SearchConfig {
    SearchConfig {
        spr_radius: 5,
        epsilon: 0.01,
        max_rounds: 6,
        optimize_model: false,
        smoothing_passes: 6,
    }
}

/// Runs one instrumented replicated-scheme search and returns the
/// measured workload trace.
///
/// `patterns` trades recording time against extrapolation distance:
/// `micsim` rescales the recorded counts to every Table III size.
pub fn record_trace(patterns: usize, ranks: usize, seed: u64) -> WorkloadTrace {
    let (true_tree, aln) = paper_dataset(PAPER_TAXA, patterns, seed);
    // Start from a different random topology so the search does real
    // SPR work, as a production run would.
    let names = true_tree.tip_names().to_vec();
    let start = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(seed ^ 0xfeed)).unwrap();
    let config = EngineConfig {
        alpha: 0.85,
        ..EngineConfig::default()
    };
    let search = MlSearch::new(trace_search_config());
    let out = phylo_parallel::run_replicated(&start, &aln, config, search, ranks);
    WorkloadTrace::from_run(out.kernel_stats, out.comm_stats.allreduces, patterns as u64)
}

/// The one trace `results/` is rendered from: 4 000 patterns, two
/// ranks, seed 20140314.
pub fn standard_trace() -> WorkloadTrace {
    record_trace(4000, 2, 20140314)
}

/// Renders seconds in the paper's Table III style (one decimal below
/// 100 s, integral above).
pub(crate) fn fmt_time(s: f64) -> String {
    if s < 100.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.0}")
    }
}

/// Renders a pattern count as the paper writes it (10K … 4000K).
pub(crate) fn fmt_size(patterns: u64) -> String {
    format!("{}K", patterns / 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dataset_is_deterministic() {
        let (t1, a1) = paper_dataset(8, 200, 7);
        let (t2, a2) = paper_dataset(8, 200, 7);
        assert_eq!(t1.rf_distance(&t2), 0);
        assert_eq!(a1, a2);
        assert_eq!(a1.num_taxa(), 8);
        assert_eq!(a1.num_patterns(), 200);
    }

    #[test]
    fn recorded_trace_has_all_kernels_and_allreduces() {
        let trace = record_trace(300, 2, 42);
        for k in plf_core::KernelId::ALL {
            assert!(trace.stats.get(k).calls > 0, "{k:?} never ran");
        }
        assert!(trace.allreduces > 0);
        assert_eq!(trace.patterns, 300);
        // Newton iterations dominate invocation counts, like RAxML.
        assert!(
            trace.stats.get(plf_core::KernelId::DerivativeCore).calls
                >= trace.stats.get(plf_core::KernelId::DerivativeSum).calls
        );
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_size(10_000), "10K");
        assert_eq!(fmt_size(4_000_000), "4000K");
        assert_eq!(fmt_time(4.123), "4.1");
        assert_eq!(fmt_time(1237.2), "1237");
    }
}
