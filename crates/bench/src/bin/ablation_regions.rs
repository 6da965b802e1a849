#![forbid(unsafe_code)]
//! Parallel-region overhead ablation: measures the real fork/join
//! barrier cost of the PThreads-style scheme on this host, across
//! team sizes, and fits the measured per-kernel cost model the
//! `micsim` calibration consumes.
//!
//! This is the measured counterpart of the §V-D synchronization
//! analysis ("master and worker processes have to communicate at least
//! twice per parallel region/kernel"): per region we time the fork
//! barrier (master releasing the workers) and the join barrier (master,
//! done with its own slice, waiting for the slowest partial result),
//! then show how the per-site compute share shrinks relative to that
//! fixed cost as the team grows —
//! the same granularity effect that buries the 236-thread MIC on small
//! alignments (§VI-B2).
//!
//! Run: `cargo run --release -p phylo-bench --bin ablation_regions`

use micsim::calibration::MeasuredHostCosts;
use phylo_bench::paper_dataset;
use phylo_parallel::ForkJoinEvaluator;
use phylo_search::Evaluator;
use plf_core::trace::{events_from_stats, write_jsonl};
use plf_core::{EngineConfig, KernelId};

/// Parallel regions dispatched per measurement (evaluate + derivative
/// rounds).
const ROUNDS: usize = 40;

fn main() {
    let (tree, aln) = paper_dataset(15, 20_000, 7);
    let cfg = EngineConfig::default();

    println!("Fork/join region overhead on this host (20K patterns, {ROUNDS} regions/row)");
    println!();
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>14}",
        "threads", "fork ns", "join ns", "eval ns/call", "sites/thread"
    );

    let mut all_events = Vec::new();
    // Team sizes: the master computes slice 0, so a row spawns one
    // worker fewer than it has threads (the first row spawns none).
    for threads in [1usize, 2, 4, 8] {
        let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, threads - 1);
        for r in 0..ROUNDS {
            let edge = r % tree.num_edges();
            fj.log_likelihood(&tree, edge);
        }
        let per_slice = fj.take_stats_per_worker();
        let master = fj.master_stats().clone();

        for (i, stats) in per_slice.iter().enumerate() {
            all_events.extend(events_from_stats(&format!("t{threads}.{i}"), stats));
        }
        all_events.extend(events_from_stats(&format!("master{threads}"), &master));

        let r = master.regions();
        let per_region = |total_ns: u64| total_ns as f64 / r.count.max(1) as f64;
        let eval_ns: f64 = per_slice
            .iter()
            .map(|s| {
                let eval = s.get(KernelId::Evaluate);
                eval.total_ns as f64 / eval.calls.max(1) as f64
            })
            .sum::<f64>()
            / threads as f64;
        println!(
            "{:>8} {:>12.0} {:>12.0} {:>14.0} {:>14}",
            threads,
            per_region(r.fork.total_ns()),
            per_region(r.join.total_ns()),
            eval_ns,
            aln.num_patterns() / threads
        );
    }

    println!();
    println!("Measured per-kernel cost fit (total_ns = per_call*calls + per_site*sites),");
    println!("from the per-slice trace events above:");
    println!();
    let doc = write_jsonl(&all_events);
    match MeasuredHostCosts::from_jsonl(&doc) {
        Ok(costs) => {
            println!(
                "{:>16} {:>14} {:>14} {:>9}",
                "kernel", "per-call ns", "per-site ns", "samples"
            );
            for k in KernelId::ALL {
                let f = costs.fit(k);
                if f.samples == 0 {
                    continue;
                }
                println!(
                    "{:>16} {:>14.1} {:>14.3} {:>9}",
                    k.paper_name(),
                    f.per_call_ns,
                    f.per_site_ns,
                    f.samples
                );
            }
            println!();
            println!(
                "mean region overhead: fork {:.0} ns + join {:.0} ns = {:.2} us/region",
                costs.region_fork_ns,
                costs.region_join_ns,
                costs.region_overhead_s() * 1e6
            );
        }
        Err(e) => eprintln!("calibration fit failed: {e}"),
    }
    println!();
    println!("Both waits are pure: the master computes slice 0 between them. The join");
    println!("barrier, not the fork, carries the load imbalance: it absorbs the slowest");
    println!("thread's tail. As threads grow, per-thread sites shrink while the barrier");
    println!("cost does not — the paper's small-alignment granularity wall.");
}
