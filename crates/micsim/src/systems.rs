//! The four Table III system configurations and the experiment
//! helpers built on them.

use crate::model::{predict_time, ExecMode, Interconnect, MachineConfig, TimeBreakdown};
use crate::platform::{XEON_E5_2630_2S, XEON_E5_2680_2S, XEON_PHI_5110P_1S, XEON_PHI_5110P_2S};
use crate::workload::WorkloadTrace;

/// The systems of Table III, in row order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SystemId {
    /// 2S Xeon E5-2630, ExaML with one MPI rank per core.
    E5_2630,
    /// 2S Xeon E5-2680 — the baseline (speedup 1.00).
    E5_2680,
    /// One Xeon Phi 5110P, hybrid 2 ranks × 118 threads.
    Phi1,
    /// Two Xeon Phi 5110P, hybrid 2 ranks × 118 threads per card.
    Phi2,
}

impl SystemId {
    /// All Table III rows, in order.
    pub const ALL: [SystemId; 4] = [
        SystemId::E5_2630,
        SystemId::E5_2680,
        SystemId::Phi1,
        SystemId::Phi2,
    ];

    /// The row label used in the paper.
    pub fn paper_name(self) -> &'static str {
        self.config().platform.name
    }

    /// The machine configuration the paper ran on this system:
    /// CPU rows use one ExaML MPI rank per physical core; MIC rows use
    /// the hybrid 2 ranks × 118 threads per card (§VI-B2); the
    /// dual-card row communicates over PCIe (§VI-B3).
    pub fn config(self) -> MachineConfig {
        match self {
            SystemId::E5_2630 => MachineConfig {
                platform: XEON_E5_2630_2S,
                ranks_per_device: 12,
                threads_per_rank: 1,
                mode: ExecMode::Native,
                interconnect: Interconnect::SharedMemory,
            },
            SystemId::E5_2680 => MachineConfig {
                platform: XEON_E5_2680_2S,
                ranks_per_device: 16,
                threads_per_rank: 1,
                mode: ExecMode::Native,
                interconnect: Interconnect::SharedMemory,
            },
            SystemId::Phi1 => MachineConfig {
                platform: XEON_PHI_5110P_1S,
                ranks_per_device: 2,
                threads_per_rank: 118,
                mode: ExecMode::Native,
                interconnect: Interconnect::SharedMemory,
            },
            SystemId::Phi2 => MachineConfig {
                platform: XEON_PHI_5110P_2S,
                ranks_per_device: 2,
                threads_per_rank: 118,
                mode: ExecMode::Native,
                interconnect: Interconnect::PciePeerToPeer,
            },
        }
    }
}

/// The alignment sizes (in patterns) of Table III.
pub const TABLE3_SIZES: [u64; 8] = [
    10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 2_000_000, 4_000_000,
];

/// One cell of Table III: predicted time and speedup vs the E5-2680
/// baseline.
#[derive(Clone, Copy, Debug)]
pub struct Table3Cell {
    /// Predicted execution time, seconds.
    pub time_s: f64,
    /// Speedup relative to the 2S E5-2680 at the same size.
    pub speedup: f64,
    /// Full breakdown for diagnostics.
    pub breakdown: TimeBreakdown,
}

/// Predicts the whole Table III grid from a measured base trace.
pub fn table3(trace: &WorkloadTrace) -> Vec<(u64, Vec<(SystemId, Table3Cell)>)> {
    TABLE3_SIZES
        .iter()
        .map(|&size| {
            let scaled = trace.scaled_to(size);
            let baseline = predict_time(&SystemId::E5_2680.config(), &scaled).total();
            let row = SystemId::ALL
                .iter()
                .map(|&sys| {
                    let breakdown = predict_time(&sys.config(), &scaled);
                    let time_s = breakdown.total();
                    (
                        sys,
                        Table3Cell {
                            time_s,
                            speedup: baseline / time_s,
                            breakdown,
                        },
                    )
                })
                .collect();
            (size, row)
        })
        .collect()
}

/// Figure 4 series: speedup of two MICs over one, per size.
pub fn fig4_dual_mic_scaling(trace: &WorkloadTrace) -> Vec<(u64, f64)> {
    TABLE3_SIZES
        .iter()
        .map(|&size| {
            let scaled = trace.scaled_to(size);
            let one = predict_time(&SystemId::Phi1.config(), &scaled).total();
            let two = predict_time(&SystemId::Phi2.config(), &scaled).total();
            (size, one / two)
        })
        .collect()
}

/// The alignment size at which a system first beats the baseline
/// (linear interpolation between Table III grid points).
pub fn crossover_patterns(trace: &WorkloadTrace, system: SystemId) -> Option<f64> {
    let mut prev: Option<(f64, f64)> = None;
    for &size in &TABLE3_SIZES {
        let scaled = trace.scaled_to(size);
        let base = predict_time(&SystemId::E5_2680.config(), &scaled).total();
        let sys = predict_time(&system.config(), &scaled).total();
        let ratio = base / sys;
        if ratio >= 1.0 {
            return Some(match prev {
                None => size as f64,
                Some((ps, pr)) => {
                    // Interpolate the ratio-1 crossing.
                    ps + (size as f64 - ps) * (1.0 - pr) / (ratio - pr)
                }
            });
        }
        prev = Some((size as f64, ratio));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> WorkloadTrace {
        WorkloadTrace::synthetic_search(10_000)
    }

    #[test]
    fn cpu_wins_small_mic_wins_large() {
        // Table III shape: at 10K the baseline is fastest of
        // CPU-vs-MIC; at 4000K both MIC rows are at least 1.9× faster.
        let grid = table3(&trace());
        let (size0, row0) = &grid[0];
        assert_eq!(*size0, 10_000);
        let cell = |row: &Vec<(SystemId, Table3Cell)>, s: SystemId| {
            row.iter().find(|(x, _)| *x == s).unwrap().1
        };
        assert!(cell(row0, SystemId::Phi1).speedup < 0.9);
        assert!(cell(row0, SystemId::Phi2).speedup < cell(row0, SystemId::Phi1).speedup * 1.2);

        let (_, row_last) = &grid[grid.len() - 1];
        let phi1 = cell(row_last, SystemId::Phi1).speedup;
        let phi2 = cell(row_last, SystemId::Phi2).speedup;
        assert!((1.8..2.2).contains(&phi1), "Phi1 plateau {phi1}");
        assert!((3.3..4.1).contains(&phi2), "Phi2 plateau {phi2}");
    }

    #[test]
    fn e5_2630_stays_slightly_below_baseline() {
        // Table III row 1: 0.72–0.84 across all sizes.
        let grid = table3(&trace());
        for (size, row) in grid {
            let s = row
                .iter()
                .find(|(x, _)| *x == SystemId::E5_2630)
                .unwrap()
                .1
                .speedup;
            assert!((0.6..1.0).contains(&s), "size {size}: speedup {s}");
        }
    }

    #[test]
    fn crossover_lands_between_50k_and_250k() {
        let x =
            crossover_patterns(&trace(), SystemId::Phi1).expect("Phi must overtake the baseline");
        assert!(
            (50_000.0..250_000.0).contains(&x),
            "crossover at {x} patterns"
        );
    }

    #[test]
    fn phi1_speedup_monotone_in_size() {
        let grid = table3(&trace());
        let mut prev = 0.0;
        for (size, row) in grid {
            let s = row
                .iter()
                .find(|(x, _)| *x == SystemId::Phi1)
                .unwrap()
                .1
                .speedup;
            assert!(s >= prev, "size {size}: {s} < {prev}");
            prev = s;
        }
    }

    #[test]
    fn fig4_scaling_grows_toward_band() {
        let series = fig4_dual_mic_scaling(&trace());
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9, "not monotone: {series:?}");
        }
        let last = series.last().unwrap().1;
        assert!((1.6..2.0).contains(&last), "4000K dual-MIC ratio {last}");
        let first = series[0].1;
        assert!(first < 1.3, "10K dual-MIC ratio {first}");
    }
}
