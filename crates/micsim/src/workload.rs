//! Workload traces: what a real search run did, scaled across sizes.

use plf_core::trace::TraceEvent;
use plf_core::{KernelId, KernelOp, KernelStats};

/// The workload description consumed by the performance model:
/// per-kernel invocation/site counts plus the AllReduce count, for one
/// complete ML tree search over `patterns` alignment patterns.
#[derive(Clone, Debug)]
pub struct WorkloadTrace {
    /// Per-kernel work counters (whole run, all ranks merged).
    pub stats: KernelStats,
    /// Number of AllReduce operations the run performed.
    pub allreduces: u64,
    /// Alignment patterns the run covered.
    pub patterns: u64,
}

impl WorkloadTrace {
    /// Wraps counters measured from an instrumented run.
    pub fn from_run(stats: KernelStats, allreduces: u64, patterns: u64) -> Self {
        assert!(patterns > 0);
        WorkloadTrace {
            stats,
            allreduces,
            patterns,
        }
    }

    /// Reconstructs a workload from JSONL trace events (as written by
    /// `phylomic --trace-out`): the `op` events of every source are
    /// added up, so the per-op and per-kernel totals match the
    /// recorded run exactly.
    pub fn from_trace_events(events: &[TraceEvent], allreduces: u64, patterns: u64) -> Self {
        let mut stats = KernelStats::new();
        for e in events {
            if let TraceEvent::Op {
                op,
                calls,
                sites,
                total_ns,
                ..
            } = e
            {
                stats.add(*op, *calls, *sites, *total_ns);
            }
        }
        Self::from_run(stats, allreduces, patterns)
    }

    /// Extrapolates the trace to a different alignment size: invocation
    /// and AllReduce counts stay fixed (the search does the same moves;
    /// taxon count is fixed at 15 in the paper), per-invocation sites
    /// scale linearly.
    pub fn scaled_to(&self, patterns: u64) -> WorkloadTrace {
        assert!(patterns > 0);
        let factor = patterns as f64 / self.patterns as f64;
        WorkloadTrace {
            stats: self.stats.scale_sites(factor),
            allreduces: self.allreduces,
            patterns,
        }
    }

    /// Average pattern-sites per invocation of `kernel`.
    pub fn sites_per_call(&self, kernel: KernelId) -> f64 {
        let c = self.stats.get(kernel);
        if c.calls == 0 {
            0.0
        } else {
            c.sites as f64 / c.calls as f64
        }
    }

    /// A synthetic trace with the call mix of a full 15-taxon ML search
    /// (used by tests; the benchmark harness records real traces).
    /// Counts follow the structure of our search: every SPR candidate
    /// costs a handful of `newview`s plus one `evaluate`; every branch
    /// optimization costs one `derivativeSum` and a few
    /// `derivativeCore` Newton steps; every `evaluate` and
    /// `derivativeCore` ends in an AllReduce.
    pub fn synthetic_search(patterns: u64) -> WorkloadTrace {
        let mut stats = KernelStats::new();
        let mix: [(KernelOp, u64); 4] = [
            (KernelOp::NewviewIi, 2600),
            (KernelOp::EvaluateIi, 1400),
            (KernelOp::DerivativeSumIi, 700),
            (KernelOp::DerivativeCore, 2900),
        ];
        for (op, calls) in mix {
            stats.add(op, calls, calls * patterns, 0);
        }
        let allreduces = 1400 + 2900;
        WorkloadTrace {
            stats,
            allreduces,
            patterns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_preserves_calls_and_scales_sites() {
        let t = WorkloadTrace::synthetic_search(10_000);
        let s = t.scaled_to(40_000);
        assert_eq!(
            s.stats.get(KernelId::Newview).calls,
            t.stats.get(KernelId::Newview).calls
        );
        assert_eq!(
            s.stats.get(KernelId::Newview).sites,
            4 * t.stats.get(KernelId::Newview).sites
        );
        assert_eq!(s.allreduces, t.allreduces);
        assert_eq!(s.patterns, 40_000);
    }

    #[test]
    fn sites_per_call_matches_patterns() {
        let t = WorkloadTrace::synthetic_search(5_000);
        assert_eq!(t.sites_per_call(KernelId::Evaluate), 5_000.0);
        let s = t.scaled_to(50_000);
        assert_eq!(s.sites_per_call(KernelId::Evaluate), 50_000.0);
    }

    #[test]
    fn trace_events_reconstruct_exact_totals() {
        let event = |source: &str, op, calls, sites, total_ns| TraceEvent::Op {
            source: String::from(source),
            op,
            calls,
            sites,
            total_ns,
            flops: 0,
            bytes_read: 0,
            bytes_written: 0,
        };
        let events = vec![
            event("worker0", KernelOp::NewviewIi, 2, 7, 60),
            event("worker0", KernelOp::NewviewTi, 1, 3, 40),
            event("worker1", KernelOp::NewviewIi, 3, 8, 90),
            TraceEvent::Region {
                source: "master".into(),
                count: 3,
                fork_total_ns: 1,
                fork_max_ns: 1,
                join_total_ns: 2,
                join_max_ns: 1,
            },
        ];
        let t = WorkloadTrace::from_trace_events(&events, 5, 18);
        assert_eq!(t.stats.get(KernelId::Newview).calls, 6);
        assert_eq!(t.stats.get(KernelId::Newview).sites, 18);
        assert_eq!(t.stats.get(KernelId::Newview).total_ns, 190);
        assert_eq!(t.stats.op(KernelOp::NewviewIi).sites, 15);
        assert_eq!(t.allreduces, 5);
        assert_eq!(t.patterns, 18);
    }

    #[test]
    fn synthetic_mix_has_derivative_core_dominant_in_calls() {
        // Newton iterations outnumber branch preparations.
        let t = WorkloadTrace::synthetic_search(1_000);
        assert!(
            t.stats.get(KernelId::DerivativeCore).calls
                > t.stats.get(KernelId::DerivativeSum).calls
        );
    }
}
