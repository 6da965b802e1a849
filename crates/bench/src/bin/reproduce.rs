#![forbid(unsafe_code)]
//! Regenerates every model-output file of `results/` — Tables I–III,
//! Figures 3–5 and the offload, hybrid and partition ablations — from
//! one recorded workload trace.
//!
//! A real instrumented replicated-scheme search is run once
//! (`standard_trace`); its kernel and AllReduce counts parameterize the
//! `micsim` platform model, which every file evaluates.
//! `tests/model_shape.rs` fails while a committed file differs from
//! what this writes.
//!
//! Run: `cargo run --release -p phylo-bench --bin reproduce`

use phylo_bench::{paper_results, standard_trace};
use plf_core::KernelId;
use std::path::Path;

fn main() {
    let trace = standard_trace();
    let calls: Vec<String> = KernelId::ALL
        .iter()
        .map(|&k| format!("{}={}", k.paper_name(), trace.stats.get(k).calls))
        .collect();
    eprintln!(
        "trace: {} patterns, {} allreduces, kernel calls: {}",
        trace.patterns,
        trace.allreduces,
        calls.join(" ")
    );
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for (name, text) in paper_results(&trace) {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
