#![forbid(unsafe_code)]
//! Span-instrumentation overhead probe for the CI regression gate.
//!
//! Prints the nanoseconds per one-round fork-join search in a
//! machine-greppable `ns_per_search <N>` line. CI runs the default
//! (`span-trace`) build and a `--no-default-features` build
//! alternately, 9 pairs, and fails if the median of the per-pair
//! instrumented / uninstrumented ratios exceeds 1.05: the "compiles to
//! a no-op when disabled" guarantee is only honest if the *enabled*
//! path stays near-free on a real search too.
//!
//! The workload is the hottest span sites there are: a fork-join
//! search opens `branch_opt` for every optimised branch (a kernel call
//! opens none, nor does either side of a region: the master's region
//! stats time both barrier waits, a worker's `op` events its kernels),
//! with few enough sites that span cost is not drowned by arithmetic.
//! Each span pushes two events into its thread's ring under that
//! ring's uncontended lock.
//! Best-of-20 timing suppresses scheduler noise.
//!
//! Run: `cargo run --release -p phylo-bench --bin span_overhead`
//! (append `--no-default-features` to measure the uninstrumented build)

use phylo_bench::paper_dataset;
use phylo_parallel::ForkJoinEvaluator;
use phylo_search::{MlSearch, SearchConfig};
use plf_core::EngineConfig;
use std::time::Instant;

/// Timing repetitions; the minimum is reported.
const REPS: usize = 20;

fn main() {
    let (start, aln) = paper_dataset(12, 4_000, 3);
    let search = MlSearch::new(SearchConfig {
        max_rounds: 1,
        optimize_model: false,
        ..SearchConfig::default()
    });
    // Master plus one worker; every repetition searches from `start`.
    let mut team = ForkJoinEvaluator::new(&start, &aln, EngineConfig::default(), 1);

    let mut checksum = 0.0f64;
    let mut best_ns = f64::INFINITY;
    // One more than REPS: the first run also warms buffers and caches.
    for _ in 0..=REPS {
        let mut tree = start.clone();
        let t0 = Instant::now();
        checksum += search.run(&mut team, &mut tree).log_likelihood;
        best_ns = best_ns.min(t0.elapsed().as_nanos() as f64);
    }

    let instrumented = if cfg!(feature = "span-trace") {
        "span-trace"
    } else {
        "uninstrumented"
    };
    println!("build {instrumented}  searches {REPS}  checksum {checksum:.3}");
    println!("ns_per_search {best_ns:.0}");
}
