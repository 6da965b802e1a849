//! Regenerates Figure 3: speedups of the individual PLF kernels on the
//! Xeon Phi relative to the 2S E5-2680 baseline.
//!
//! Two layers are reported:
//!   1. the `micsim` roofline prediction per kernel (the Figure 3
//!      reproduction proper), and
//!   2. a real host-side measurement of this crate's `simd` kernels
//!      against the `scalar` reference — the measurable effect of the
//!      paper's §V-B vectorization on the machine the harness runs on.
//!
//! Run: `cargo run --release -p phylo-bench --bin fig3_kernel_speedups`

use micsim::model::kernel_speedup;
use micsim::platform::{XEON_E5_2680_2S, XEON_PHI_5110P_1S};
use phylo_bench::paper_dataset;
use plf_core::engine::{EngineConfig, LikelihoodEngine};
use plf_core::{KernelId, KernelKind};
use std::time::Instant;

fn main() {
    println!("Figure 3: per-kernel speedups, Xeon Phi 5110P vs 2S Xeon E5-2680");
    println!("(micsim roofline prediction; paper reports 1.9x–2.8x)");
    println!();
    for k in KernelId::ALL {
        let s = kernel_speedup(&XEON_PHI_5110P_1S, &XEON_E5_2680_2S, k);
        println!("  {:<16} {:>5.2}x  {}", k.paper_name(), s, bar(s));
    }

    println!();
    println!("Host-side ablation: simd vs scalar kernel implementations");
    println!("(real wall time on this machine; §V-B explicit vectorization)");
    println!();
    let (tree, aln) = paper_dataset(15, 20_000, 99);
    for kind in [KernelKind::Scalar, KernelKind::Simd] {
        let mut engine = LikelihoodEngine::new(
            &tree,
            &aln,
            EngineConfig {
                kernel: kind,
                alpha: 0.85,
                ..EngineConfig::default()
            },
        );
        // Warm up, then time repeated full evaluations with cache
        // invalidation (so every round re-runs all newviews).
        engine.log_likelihood(&tree, 0);
        let reps = 20;
        let start = Instant::now();
        for _ in 0..reps {
            engine.invalidate_all();
            let edge = 0;
            engine.prepare_branch(&tree, edge);
            engine.branch_derivatives(tree.length(edge));
            engine.log_likelihood(&tree, edge);
        }
        let dt = start.elapsed().as_secs_f64() / reps as f64;
        println!(
            "  {:<8} {:>8.3} ms per full round",
            format!("{kind:?}"),
            dt * 1e3
        );
    }
}

fn bar(s: f64) -> String {
    "#".repeat((s * 10.0).round() as usize)
}
