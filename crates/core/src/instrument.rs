//! Kernel-level instrumentation: one record per kernel call.
//!
//! The paper's Figure 3 and Table III break time down by its four
//! kernels ([`KernelId`]); the engine calls eight concrete entry points
//! ([`KernelOp`]), each belonging to one kernel. Every call is recorded
//! once, by [`KernelStats::record_op_timed`], into its op's [`OpCost`]:
//! calls, pattern-sites, wall time and the modeled flops and bytes. A
//! kernel's counters ([`KernelStats::get`]) are the sum of its ops, not
//! a second record. A fork-join master also keeps its regions' barrier
//! waits ([`RegionStats`]). [`crate::trace`] exports both as JSONL, and
//! the `micsim` crate fits its machine model against them.

use crate::cost::KernelOp;

/// The four PLF kernels of §IV.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelId {
    /// Conditional likelihood array update.
    Newview,
    /// Log-likelihood at the virtual root.
    Evaluate,
    /// Derivative precomputation (element-wise products).
    DerivativeSum,
    /// First/second derivative accumulation per Newton step.
    DerivativeCore,
}

impl KernelId {
    /// All kernels, in paper order.
    pub const ALL: [KernelId; 4] = [
        KernelId::Newview,
        KernelId::Evaluate,
        KernelId::DerivativeSum,
        KernelId::DerivativeCore,
    ];

    /// The paper's name for the kernel.
    pub fn paper_name(self) -> &'static str {
        match self {
            KernelId::Newview => "newview",
            KernelId::Evaluate => "evaluate",
            KernelId::DerivativeSum => "derivativeSum",
            KernelId::DerivativeCore => "derivativeCore",
        }
    }
}

/// Counter for one kernel: the sums over its ops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCount {
    /// Number of kernel invocations.
    pub calls: u64,
    /// Total pattern-sites processed across all invocations.
    pub sites: u64,
    /// Summed wall time of the invocations, nanoseconds.
    pub total_ns: u64,
}

/// Summed and slowest duration of one barrier's waits across regions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitTotals {
    total_ns: u64,
    max_ns: u64,
}

impl WaitTotals {
    fn record(&mut self, ns: u64) {
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    fn merge(&mut self, other: &WaitTotals) {
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Sum of the waits, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Slowest single wait, nanoseconds (0 when none was recorded).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }
}

/// Fork/join synchronization latencies of parallel regions, as seen by
/// the master thread: `fork` is the time to release the workers into a
/// region (the fork barrier), `join` the time until the slowest worker
/// deposits its partial result (the join barrier). "Master and worker
/// processes have to communicate at least twice per parallel region"
/// (§V-D) — these totals measure exactly those two points.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Number of parallel regions dispatched.
    pub count: u64,
    /// Fork-barrier waits.
    pub fork: WaitTotals,
    /// Join-barrier waits.
    pub join: WaitTotals,
}

impl RegionStats {
    /// Records one region's fork and join latencies.
    #[inline]
    pub fn record(&mut self, fork_ns: u64, join_ns: u64) {
        self.count += 1;
        self.fork.record(fork_ns);
        self.join.record(join_ns);
    }

    /// Adds another block of region stats into this one.
    pub fn merge(&mut self, other: &RegionStats) {
        self.count += other.count;
        self.fork.merge(&other.fork);
        self.join.merge(&other.join);
    }
}

/// Work, wall time and analytical roofline cost of one concrete
/// kernel entry point ([`KernelOp`]), aggregated over invocations.
///
/// `flops`/`bytes_*` come from the cost model ([`crate::cost`]), not
/// measurement: the engine knows analytically how much arithmetic and
/// traffic each call performs, so achieved GFLOP/s and GB/s are
/// `flops / total_ns` and `bytes / total_ns` with no hot-path hooks
/// beyond the existing timing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Number of invocations.
    pub calls: u64,
    /// Pattern-sites processed.
    pub sites: u64,
    /// Total wall time across invocations.
    pub total_ns: u64,
    /// Modeled floating-point operations.
    pub flops: u64,
    /// Modeled bytes read.
    pub bytes_read: u64,
    /// Modeled bytes written.
    pub bytes_written: u64,
}

impl OpCost {
    /// Achieved GFLOP/s over the recorded wall time (0.0 when untimed).
    pub fn gflops(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.flops as f64 / self.total_ns as f64
        }
    }

    /// Achieved GB/s (read + write) over the recorded wall time.
    pub fn gbps(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            (self.bytes_read + self.bytes_written) as f64 / self.total_ns as f64
        }
    }

    /// Arithmetic intensity in flops per byte (0.0 when no traffic).
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.bytes_read + self.bytes_written;
        if bytes == 0 {
            0.0
        } else {
            self.flops as f64 / bytes as f64
        }
    }

    /// Adds another aggregate of the same op into this one.
    pub fn merge(&mut self, other: &OpCost) {
        self.calls += other.calls;
        self.sites += other.sites;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.flops = self.flops.saturating_add(other.flops);
        self.bytes_read = self.bytes_read.saturating_add(other.bytes_read);
        self.bytes_written = self.bytes_written.saturating_add(other.bytes_written);
    }
}

/// Per-op work counters and wall-clock totals for one engine
/// (single-threaded; workers merge their stats after a parallel
/// region), plus the regions a fork-join master dispatched.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    ops: [OpCost; 8],
    regions: RegionStats,
}

impl KernelStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one invocation of a concrete kernel entry point over
    /// `sites` pattern-sites that took `ns` nanoseconds of wall time —
    /// the one record per kernel call.
    #[inline]
    pub fn record_op_timed(&mut self, op: KernelOp, sites: usize, ns: u64) {
        self.add(op, 1, sites as u64, ns);
    }

    /// Adds `calls` invocations of `op` over `sites` pattern-sites in
    /// total that took `total_ns` together: the bulk form of
    /// [`Self::record_op_timed`], for workloads rebuilt from a trace or
    /// synthesized. The modeled cost is linear in sites, so one bulk
    /// add books the same flops and bytes as the calls one by one.
    #[inline]
    pub fn add(&mut self, op: KernelOp, calls: u64, sites: u64, total_ns: u64) {
        let cost = op.cost(sites);
        self.ops[op.index()].merge(&OpCost {
            calls,
            sites,
            total_ns,
            flops: cost.flops,
            bytes_read: cost.bytes_read,
            bytes_written: cost.bytes_written,
        });
    }

    /// Records one parallel region's fork/join latencies.
    #[inline]
    pub fn record_region(&mut self, fork_ns: u64, join_ns: u64) {
        self.regions.record(fork_ns, join_ns);
    }

    /// Counter for one kernel: the sum over its ops.
    pub fn get(&self, kernel: KernelId) -> KernelCount {
        let mut c = KernelCount::default();
        for op in KernelOp::ALL
            .into_iter()
            .filter(|op| op.kernel_id() == kernel)
        {
            let o = &self.ops[op.index()];
            c.calls += o.calls;
            c.sites += o.sites;
            c.total_ns = c.total_ns.saturating_add(o.total_ns);
        }
        c
    }

    /// Aggregated roofline cost of one concrete kernel entry point.
    pub fn op(&self, op: KernelOp) -> OpCost {
        self.ops[op.index()]
    }

    /// Fork/join latency statistics of the parallel regions this
    /// stats block has seen (all zero for serial engines).
    pub fn regions(&self) -> &RegionStats {
        &self.regions
    }

    /// Adds another stats block into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        for (a, b) in self.ops.iter_mut().zip(&other.ops) {
            a.merge(b);
        }
        self.regions.merge(&other.regions);
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = KernelStats::default();
    }

    /// Total invocations across all kernels (the offload-latency
    /// multiplier in the paper's §V-C analysis).
    pub fn total_calls(&self) -> u64 {
        self.ops.iter().map(|o| o.calls).sum()
    }

    /// Returns a copy with every `sites` count scaled by `factor`,
    /// keeping `calls` unchanged. This is how a trace measured on a
    /// small alignment is extrapolated to a larger one (same search,
    /// proportionally more sites per invocation).
    pub fn scale_sites(&self, factor: f64) -> KernelStats {
        assert!(factor.is_finite() && factor > 0.0);
        let mut out = self.clone();
        // The modeled cost is linear in sites, so it scales with them.
        for o in out.ops.iter_mut() {
            let scale = |v: u64| (v as f64 * factor).round() as u64;
            o.sites = scale(o.sites);
            o.flops = scale(o.flops);
            o.bytes_read = scale(o.bytes_read);
            o.bytes_written = scale(o.bytes_written);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_get() {
        let mut s = KernelStats::new();
        s.record_op_timed(KernelOp::NewviewIi, 100, 0);
        s.record_op_timed(KernelOp::NewviewTi, 50, 0);
        s.record_op_timed(KernelOp::EvaluateTi, 10, 0);
        assert_eq!(s.get(KernelId::Newview).calls, 2);
        assert_eq!(s.get(KernelId::Newview).sites, 150);
        assert_eq!(s.get(KernelId::Evaluate).sites, 10);
        assert_eq!(s.get(KernelId::DerivativeSum).calls, 0);
        assert_eq!(s.total_calls(), 3);
    }

    #[test]
    fn merge_adds() {
        let mut a = KernelStats::new();
        a.record_op_timed(KernelOp::DerivativeCore, 7, 0);
        let mut b = KernelStats::new();
        b.record_op_timed(KernelOp::DerivativeCore, 3, 0);
        b.record_op_timed(KernelOp::NewviewTt, 1, 0);
        a.merge(&b);
        assert_eq!(a.get(KernelId::DerivativeCore).sites, 10);
        assert_eq!(a.get(KernelId::DerivativeCore).calls, 2);
        assert_eq!(a.get(KernelId::Newview).calls, 1);
    }

    #[test]
    fn reset_zeroes() {
        let mut s = KernelStats::new();
        s.record_op_timed(KernelOp::EvaluateIi, 5, 9);
        s.record_region(1, 2);
        s.reset();
        assert_eq!(s, KernelStats::new());
    }

    #[test]
    fn scale_sites_preserves_calls() {
        let mut s = KernelStats::new();
        s.add(KernelOp::NewviewIi, 2, 200, 0);
        let scaled = s.scale_sites(10.0);
        assert_eq!(scaled.get(KernelId::Newview).calls, 2);
        assert_eq!(scaled.get(KernelId::Newview).sites, 2000);
    }

    #[test]
    fn paper_names() {
        assert_eq!(KernelId::DerivativeSum.paper_name(), "derivativeSum");
        assert_eq!(KernelId::ALL.len(), 4);
    }

    #[test]
    fn op_records_feed_both_levels() {
        let mut s = KernelStats::new();
        s.record_op_timed(KernelOp::NewviewIi, 1000, 272_000);
        s.record_op_timed(KernelOp::EvaluateIi, 1000, 500);
        // Paper-kernel level sees the grouped calls.
        assert_eq!(s.get(KernelId::Newview).calls, 1);
        assert_eq!(s.get(KernelId::Evaluate).sites, 1000);
        // Op level carries the modeled cost: 272 flops/site over
        // 272 ns/1000 sites is exactly 1 GFLOP/s.
        let nv = s.op(KernelOp::NewviewIi);
        assert_eq!(nv.calls, 1);
        assert_eq!(nv.flops, 272_000);
        assert_eq!(nv.bytes_read, 264_000);
        assert!((nv.gflops() - 1.0).abs() < 1e-12);
        assert!(nv.arithmetic_intensity() > 0.0);
        // Merge and scale preserve the op aggregates.
        let mut t = KernelStats::new();
        t.record_op_timed(KernelOp::NewviewIi, 500, 100);
        s.merge(&t);
        assert_eq!(s.op(KernelOp::NewviewIi).calls, 2);
        assert_eq!(s.op(KernelOp::NewviewIi).sites, 1500);
        let scaled = s.scale_sites(2.0);
        assert_eq!(scaled.op(KernelOp::NewviewIi).sites, 3000);
        assert_eq!(
            scaled.op(KernelOp::NewviewIi).flops,
            2 * s.op(KernelOp::NewviewIi).flops
        );
        // Untimed ops report zero rates rather than dividing by zero.
        assert_eq!(KernelStats::new().op(KernelOp::NewviewTt).gflops(), 0.0);
        assert_eq!(KernelStats::new().op(KernelOp::NewviewTt).gbps(), 0.0);
    }

    #[test]
    fn regions_keep_total_and_max_across_merges() {
        let mut a = KernelStats::new();
        a.record_region(50, 3000);
        a.record_region(10, 20);
        let mut b = KernelStats::new();
        b.record_region(70, 1000);
        a.merge(&b);
        assert_eq!(a.regions().count, 3);
        assert_eq!(a.regions().fork.total_ns(), 130);
        assert_eq!(a.regions().fork.max_ns(), 70);
        assert_eq!(a.regions().join.total_ns(), 4020);
        assert_eq!(a.regions().join.max_ns(), 3000);
        assert_eq!(KernelStats::new().regions().join.max_ns(), 0);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // `get` is a view over the per-op record: for any call
            // sequence it equals the calls, sites and time of the
            // kernel's calls, merging two halves equals recording the
            // whole, and a bulk `add` of an op's totals books the same
            // aggregate as its calls one by one.
            #[test]
            fn kernel_counts_are_the_sum_of_their_ops(
                calls in proptest::collection::vec((0usize..8, 0usize..5000, 0u64..1_000_000), 0..80),
                split in 0usize..80,
            ) {
                let mut whole = KernelStats::new();
                let (mut head, mut tail) = (KernelStats::new(), KernelStats::new());
                for (i, &(op, sites, ns)) in calls.iter().enumerate() {
                    let op = KernelOp::ALL[op];
                    whole.record_op_timed(op, sites, ns);
                    let half = if i < split { &mut head } else { &mut tail };
                    half.record_op_timed(op, sites, ns);
                }
                for kernel in KernelId::ALL {
                    let mine = calls
                        .iter()
                        .filter(|&&(op, _, _)| KernelOp::ALL[op].kernel_id() == kernel);
                    let expect = KernelCount {
                        calls: mine.clone().count() as u64,
                        sites: mine.clone().map(|&(_, sites, _)| sites as u64).sum(),
                        total_ns: mine.map(|&(_, _, ns)| ns).sum(),
                    };
                    prop_assert_eq!(whole.get(kernel), expect);
                }
                prop_assert_eq!(whole.total_calls(), calls.len() as u64);
                head.merge(&tail);
                prop_assert_eq!(&head, &whole);
                let mut bulk = KernelStats::new();
                for op in KernelOp::ALL {
                    let o = whole.op(op);
                    bulk.add(op, o.calls, o.sites, o.total_ns);
                }
                prop_assert_eq!(&bulk, &whole);
            }
        }
    }
}
