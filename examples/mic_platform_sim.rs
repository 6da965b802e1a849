//! Predict how a workload would run on the paper's four systems.
//!
//! Runs a short instrumented search with *your* parameters, then asks
//! the `micsim` machine model what that workload would cost on the
//! 2S Xeon E5-2630/E5-2680 and on one or two Xeon Phi 5110P cards —
//! including the execution-mode and interconnect effects the paper
//! analyzes.
//!
//! Run: `cargo run --release --example mic_platform_sim [patterns]`

use phylomic::micsim::model::{predict_time, ExecMode};
use phylomic::micsim::systems::{SystemId, TABLE3_SIZES};
use phylomic::micsim::WorkloadTrace;
use phylomic::models::{DiscreteGamma, Gtr, GtrParams};
use phylomic::parallel::run_replicated;
use phylomic::plf::EngineConfig;
use phylomic::search::{MlSearch, SearchConfig};
use phylomic::seqgen;
use phylomic::tree::build::{default_names, random_tree};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let patterns: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3_000);

    // Record a real workload.
    let mut rng = SmallRng::seed_from_u64(1);
    let names = default_names(15);
    let true_tree = random_tree(&names, 0.12, &mut rng).unwrap();
    let gtr = Gtr::new(GtrParams::jc69());
    let gamma = DiscreteGamma::new(0.9);
    let aln = seqgen::simulate_compressed(&true_tree, gtr.eigen(), &gamma, patterns, &mut rng);
    let start = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(3)).unwrap();
    println!("recording a real instrumented search over {patterns} patterns...");
    let out = run_replicated(
        &start,
        &aln,
        EngineConfig {
            alpha: 0.9,
            ..EngineConfig::default()
        },
        MlSearch::new(SearchConfig {
            max_rounds: 4,
            optimize_model: false,
            ..Default::default()
        }),
        2,
    );
    let trace =
        WorkloadTrace::from_run(out.kernel_stats, out.comm_stats.allreduces, patterns as u64);
    println!(
        "kernel invocations: {}, AllReduces: {}\n",
        trace.stats.total_calls(),
        trace.allreduces
    );

    println!(
        "{:>10} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "patterns", "E5-2630", "E5-2680", "Phi x1", "Phi x2", "Phi x1 offload"
    );
    for &size in &TABLE3_SIZES[..6] {
        let scaled = trace.scaled_to(size);
        let mut row = Vec::new();
        for sys in SystemId::ALL {
            row.push(predict_time(&sys.config(), &scaled).total());
        }
        let mut offload_cfg = SystemId::Phi1.config();
        offload_cfg.mode = ExecMode::Offload;
        let off = predict_time(&offload_cfg, &scaled).total();
        println!(
            "{:>10} {:>13.1}s {:>13.1}s {:>13.1}s {:>13.1}s {:>13.1}s",
            size, row[0], row[1], row[2], row[3], off
        );
    }
    println!("\n(times are model predictions; see DESIGN.md for the substitution rationale)");
}
