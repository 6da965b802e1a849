//! Acceptance tests for the paper's evaluation shapes, driven by a
//! REAL instrumented run (not the synthetic trace): the one trace
//! `results/` is rendered from, and the committed `results/` files
//! themselves, which must equal a fresh render.

use micsim::energy::fig5_energy_savings;
use micsim::model::{predict_time, ExecMode};
use micsim::systems::{crossover_patterns, fig4_dual_mic_scaling, table3, SystemId};
use micsim::WorkloadTrace;
use std::path::Path;
use std::sync::OnceLock;

fn real_trace() -> &'static WorkloadTrace {
    static TRACE: OnceLock<WorkloadTrace> = OnceLock::new();
    TRACE.get_or_init(phylo_bench::standard_trace)
}

const REPRODUCE: &str = "cargo run --release -p phylo-bench --bin reproduce";

/// Dated captures of three examples' output; `reproduce` writes every
/// other `results/*.txt`.
const EXAMPLE_CAPTURES: [&str; 3] = [
    "epa_placement.txt",
    "ml_search.txt",
    "simulate_alignment.txt",
];

#[test]
fn committed_results_are_what_the_trace_renders() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let rendered = phylo_bench::paper_results(real_trace());
    for (name, text) in &rendered {
        let committed = std::fs::read_to_string(dir.join(name))
            .unwrap_or_else(|e| panic!("results/{name}: {e}; regenerate with `{REPRODUCE}`"));
        if let Some(line) = first_difference(&committed, text) {
            panic!(
                "results/{name} is stale (line {line} differs from a fresh render); \
                 regenerate with `{REPRODUCE}`"
            );
        }
    }
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".txt"))
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = rendered
        .iter()
        .map(|(name, _)| name.to_string())
        .chain(EXAMPLE_CAPTURES.iter().map(|name| name.to_string()))
        .collect();
    expected.sort();
    assert_eq!(
        on_disk, expected,
        "results/*.txt must be what `{REPRODUCE}` writes plus the example captures \
         {EXAMPLE_CAPTURES:?}"
    );
}

/// 1-based number of the first line where `a` and `b` differ.
fn first_difference(a: &str, b: &str) -> Option<usize> {
    if a == b {
        return None;
    }
    let same = a.lines().zip(b.lines()).take_while(|(x, y)| x == y).count();
    Some(same + 1)
}

fn speedup_of(row: &[(SystemId, micsim::systems::Table3Cell)], sys: SystemId) -> f64 {
    row.iter().find(|(s, _)| *s == sys).unwrap().1.speedup
}

#[test]
fn table3_shape_holds_on_real_trace() {
    let grid = table3(real_trace());
    // 10K row: CPU baseline clearly beats both MIC configurations.
    let (_, first) = &grid[0];
    assert!(speedup_of(first, SystemId::Phi1) < 0.9);
    assert!(speedup_of(first, SystemId::Phi2) < 0.9);
    // 4000K row: plateaus in the paper bands.
    let (_, last) = &grid[grid.len() - 1];
    let p1 = speedup_of(last, SystemId::Phi1);
    let p2 = speedup_of(last, SystemId::Phi2);
    assert!((1.8..2.2).contains(&p1), "1-MIC plateau {p1}");
    assert!((3.3..4.1).contains(&p2), "2-MIC plateau {p2}");
    // E5-2630 stays a bit below the baseline everywhere.
    for (size, row) in &grid {
        let s = speedup_of(row, SystemId::E5_2630);
        assert!((0.6..1.0).contains(&s), "size {size}: E5-2630 {s}");
    }
    // Monotone growth of the Phi1 speedup.
    let mut prev = 0.0;
    for (_, row) in &grid {
        let s = speedup_of(row, SystemId::Phi1);
        assert!(s >= prev - 1e-9);
        prev = s;
    }
}

#[test]
fn crossover_in_paper_band_on_real_trace() {
    let x = crossover_patterns(real_trace(), SystemId::Phi1).expect("crossover exists");
    assert!(
        (50_000.0..250_000.0).contains(&x),
        "crossover at {x} patterns, paper ~100K"
    );
}

#[test]
fn fig4_shape_holds_on_real_trace() {
    let series = fig4_dual_mic_scaling(real_trace());
    for w in series.windows(2) {
        assert!(w[1].1 >= w[0].1 - 1e-9, "fig4 not monotone: {series:?}");
    }
    let last = series.last().unwrap().1;
    assert!(
        (1.6..2.0).contains(&last),
        "dual-MIC ratio at 4000K: {last}"
    );
    assert!(series[0].1 < 1.2, "dual-MIC ratio at 10K: {}", series[0].1);
}

#[test]
fn fig5_shape_holds_on_real_trace() {
    let series = fig5_energy_savings(real_trace());
    let get = |row: &Vec<(SystemId, f64)>, id| row.iter().find(|(s, _)| *s == id).unwrap().1;
    let (_, last) = series.last().unwrap();
    let phi1 = get(last, SystemId::Phi1);
    assert!((2.0..2.7).contains(&phi1), "Phi1 energy savings {phi1}");
    for (size, row) in &series {
        assert!(
            get(row, SystemId::Phi2) <= get(row, SystemId::Phi1) + 1e-9,
            "second card must not improve energy efficiency (size {size})"
        );
        if *size >= 500_000 {
            assert!(
                get(row, SystemId::Phi2) > get(row, SystemId::E5_2680),
                "size {size}"
            );
        }
    }
}

#[test]
fn offload_slowdown_holds_on_real_trace() {
    // §V-C: the native version achieved >2x over the offload prototype
    // (measured on small RAxML-Light runs; we check at 50K patterns).
    let scaled = real_trace().scaled_to(50_000);
    let native = predict_time(&SystemId::Phi1.config(), &scaled).total();
    let mut cfg = SystemId::Phi1.config();
    cfg.mode = ExecMode::Offload;
    let offload = predict_time(&cfg, &scaled).total();
    assert!(
        offload / native > 1.8,
        "offload {offload} native {native} ratio {}",
        offload / native
    );
}

#[test]
fn per_kernel_speedups_hold() {
    use micsim::model::kernel_speedup;
    use micsim::platform::{XEON_E5_2680_2S, XEON_PHI_5110P_1S};
    use plf_core::KernelId;
    // Figure 3: derivativeSum ≈2.8x, others ≤2x, all ≥1.9x-ish.
    let s = |k| kernel_speedup(&XEON_PHI_5110P_1S, &XEON_E5_2680_2S, k);
    assert!((2.5..3.1).contains(&s(KernelId::DerivativeSum)));
    for k in [
        KernelId::Newview,
        KernelId::Evaluate,
        KernelId::DerivativeCore,
    ] {
        assert!((1.7..2.2).contains(&s(k)), "{k:?}: {}", s(k));
    }
}

#[test]
fn pure_mpi_is_slowest_on_real_trace() {
    // §V-D: 120 pure-MPI ranks per card gave a "substantial slowdown"
    // against the hybrid 2 ranks x 118 threads.
    let sweep = phylo_bench::rank_thread_sweep(real_trace());
    let time = |r, t| sweep.iter().find(|s| (s.0, s.1) == (r, t)).unwrap().2;
    let pure_mpi = time(120, 1);
    for &(ranks, threads, t) in &sweep {
        assert!(
            t <= pure_mpi,
            "{ranks}x{threads} at {t} s is slower than 120x1 at {pure_mpi} s"
        );
    }
    let hybrid = time(2, 118);
    assert!(
        pure_mpi >= 2.0 * hybrid,
        "120x1 {pure_mpi} s vs 2x118 {hybrid} s"
    );
}
