//! Kernel-level instrumentation.
//!
//! The paper's Figure 3 and Table III are driven by how much work each
//! kernel performs. [`KernelStats`] counts invocations and
//! pattern-sites processed per kernel during a real run — and, since
//! the measured-timing calibration work, also *measures* each
//! invocation's wall time into per-kernel [`LatencyHistogram`]s and
//! records per-parallel-region fork/join latencies ([`RegionStats`]).
//! The `micsim` crate fits its machine model against these measured
//! timings (exported as a JSONL trace by [`crate::trace`]) instead of
//! operation counts alone.

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

    fn index(self) -> usize {
        match self {
            KernelId::Newview => 0,
            KernelId::Evaluate => 1,
            KernelId::DerivativeSum => 2,
            KernelId::DerivativeCore => 3,
        }
    }
}

/// Counter for one kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCount {
    /// Number of kernel invocations.
    pub calls: u64,
    /// Total pattern-sites processed across all invocations.
    pub sites: u64,
}

/// Number of log₂ buckets in a [`LatencyHistogram`] (bucket `i` counts
/// samples in `[2^i, 2^(i+1))` ns; the last bucket absorbs the tail).
pub const HIST_BUCKETS: usize = 32;

/// A log₂-bucketed wall-clock latency histogram in nanoseconds.
///
/// Bucket `i` counts samples whose duration lies in `[2^i, 2^(i+1))`
/// ns (zero-duration samples land in bucket 0; everything beyond
/// ~4.3 s in the last bucket). Alongside the buckets it tracks count,
/// sum, min and max, which is what the `micsim` calibration fit and
/// the region-overhead ablation consume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        let bucket = (63 - (ns | 1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Smallest sample, if any was recorded.
    pub fn min_ns(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min_ns)
    }

    /// Largest sample, if any was recorded.
    pub fn max_ns(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max_ns)
    }

    /// Mean sample in nanoseconds (0.0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// The raw log₂ buckets.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) in nanoseconds by
    /// linear interpolation inside the log₂ bucket containing the
    /// target rank. Bucket `i` spans `[2^i, 2^(i+1))` (bucket 0 spans
    /// `[0, 2)`), so the estimate is exact to within a factor of 2 and
    /// is additionally clamped to the recorded min/max. Returns `None`
    /// on an empty histogram or out-of-range `q`.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // 1-based rank of the sample that sits at quantile q.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
                let frac = (rank - seen) as f64 / n as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return Some((est as u64).clamp(self.min_ns, self.max_ns));
            }
            seen += n;
        }
        self.max_ns() // unreachable: bucket counts always cover `count`
    }

    /// Median (p50) estimate in nanoseconds.
    pub fn p50_ns(&self) -> Option<u64> {
        self.quantile_ns(0.50)
    }

    /// 95th-percentile estimate in nanoseconds.
    pub fn p95_ns(&self) -> Option<u64> {
        self.quantile_ns(0.95)
    }

    /// 99th-percentile estimate in nanoseconds.
    pub fn p99_ns(&self) -> Option<u64> {
        self.quantile_ns(0.99)
    }

    /// Adds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Fork/join synchronization latencies of parallel regions, as seen by
/// the master thread: `fork` is the time to release the workers into a
/// region (the fork barrier), `join` the time until the slowest worker
/// deposits its partial result (the join barrier). "Master and worker
/// processes have to communicate at least twice per parallel region"
/// (§V-D) — these histograms measure exactly those two points.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Number of parallel regions dispatched.
    pub count: u64,
    /// Fork-barrier latency per region.
    pub fork: LatencyHistogram,
    /// Join-barrier latency per region.
    pub join: LatencyHistogram,
}

impl RegionStats {
    /// Records one region's fork and join latencies.
    #[inline]
    pub fn record(&mut self, fork_ns: u64, join_ns: u64) {
        self.count += 1;
        self.fork.record_ns(fork_ns);
        self.join.record_ns(join_ns);
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
}

/// Per-kernel work counters and wall-clock timings for one engine
/// (single-threaded; workers merge their stats after a parallel
/// region).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    counts: [KernelCount; 4],
    timing: [LatencyHistogram; 4],
    ops: [OpCost; 8],
    regions: RegionStats,
}

impl KernelStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one invocation over `sites` pattern-sites (no timing
    /// sample; use [`KernelStats::record_timed`] when the wall time is
    /// known).
    #[inline]
    pub fn record(&mut self, kernel: KernelId, sites: usize) {
        let c = &mut self.counts[kernel.index()];
        c.calls += 1;
        c.sites += sites as u64;
    }

    /// Records one invocation over `sites` pattern-sites that took
    /// `ns` nanoseconds of wall time.
    #[inline]
    pub fn record_timed(&mut self, kernel: KernelId, sites: usize, ns: u64) {
        self.record(kernel, sites);
        self.timing[kernel.index()].record_ns(ns);
    }

    /// Records one timed invocation of a concrete kernel entry point:
    /// updates the paper-kernel counters/timing *and* the per-op
    /// roofline aggregate using the analytical cost model.
    #[inline]
    pub fn record_op_timed(&mut self, op: KernelOp, sites: usize, ns: u64) {
        let cost = op.cost(sites as u64);
        self.record_timed(op.kernel_id(), sites, ns);
        let o = &mut self.ops[op.index()];
        o.calls += 1;
        o.sites += sites as u64;
        o.total_ns = o.total_ns.saturating_add(ns);
        o.flops = o.flops.saturating_add(cost.flops);
        o.bytes_read = o.bytes_read.saturating_add(cost.bytes_read);
        o.bytes_written = o.bytes_written.saturating_add(cost.bytes_written);
    }

    /// Records one parallel region's fork/join latencies.
    #[inline]
    pub fn record_region(&mut self, fork_ns: u64, join_ns: u64) {
        self.regions.record(fork_ns, join_ns);
    }

    /// Counter for one kernel.
    pub fn get(&self, kernel: KernelId) -> KernelCount {
        self.counts[kernel.index()]
    }

    /// Wall-clock histogram of one kernel's invocations.
    pub fn timing(&self, kernel: KernelId) -> &LatencyHistogram {
        &self.timing[kernel.index()]
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
        for i in 0..4 {
            self.counts[i].calls += other.counts[i].calls;
            self.counts[i].sites += other.counts[i].sites;
            self.timing[i].merge(&other.timing[i]);
        }
        for i in 0..8 {
            let (a, b) = (&mut self.ops[i], &other.ops[i]);
            a.calls += b.calls;
            a.sites += b.sites;
            a.total_ns = a.total_ns.saturating_add(b.total_ns);
            a.flops = a.flops.saturating_add(b.flops);
            a.bytes_read = a.bytes_read.saturating_add(b.bytes_read);
            a.bytes_written = a.bytes_written.saturating_add(b.bytes_written);
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
        self.counts.iter().map(|c| c.calls).sum()
    }

    /// Total pattern-sites across all kernels.
    pub fn total_sites(&self) -> u64 {
        self.counts.iter().map(|c| c.sites).sum()
    }

    /// Returns a copy with every `sites` count scaled by `factor`,
    /// keeping `calls` unchanged. This is how a trace measured on a
    /// small alignment is extrapolated to a larger one (same search,
    /// proportionally more sites per invocation).
    pub fn scale_sites(&self, factor: f64) -> KernelStats {
        assert!(factor.is_finite() && factor > 0.0);
        let mut out = self.clone();
        for c in out.counts.iter_mut() {
            c.sites = (c.sites as f64 * factor).round() as u64;
        }
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
        s.record(KernelId::Newview, 100);
        s.record(KernelId::Newview, 50);
        s.record(KernelId::Evaluate, 10);
        assert_eq!(s.get(KernelId::Newview).calls, 2);
        assert_eq!(s.get(KernelId::Newview).sites, 150);
        assert_eq!(s.get(KernelId::Evaluate).sites, 10);
        assert_eq!(s.get(KernelId::DerivativeSum).calls, 0);
        assert_eq!(s.total_calls(), 3);
        assert_eq!(s.total_sites(), 160);
    }

    #[test]
    fn merge_adds() {
        let mut a = KernelStats::new();
        a.record(KernelId::DerivativeCore, 7);
        let mut b = KernelStats::new();
        b.record(KernelId::DerivativeCore, 3);
        b.record(KernelId::Newview, 1);
        a.merge(&b);
        assert_eq!(a.get(KernelId::DerivativeCore).sites, 10);
        assert_eq!(a.get(KernelId::DerivativeCore).calls, 2);
        assert_eq!(a.get(KernelId::Newview).calls, 1);
    }

    #[test]
    fn reset_zeroes() {
        let mut s = KernelStats::new();
        s.record(KernelId::Evaluate, 5);
        s.reset();
        assert_eq!(s, KernelStats::new());
    }

    #[test]
    fn scale_sites_preserves_calls() {
        let mut s = KernelStats::new();
        s.record(KernelId::Newview, 100);
        s.record(KernelId::Newview, 100);
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
    fn histogram_buckets_by_log2() {
        let mut h = LatencyHistogram::new();
        h.record_ns(0); // bucket 0
        h.record_ns(1); // bucket 0
        h.record_ns(2); // bucket 1
        h.record_ns(3); // bucket 1
        h.record_ns(1024); // bucket 10
        assert_eq!(h.count(), 5);
        assert_eq!(h.total_ns(), 1030);
        assert_eq!(h.min_ns(), Some(0));
        assert_eq!(h.max_ns(), Some(1024));
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[1], 2);
        assert_eq!(h.buckets()[10], 1);
        assert!((h.mean_ns() - 206.0).abs() < 1e-9);
        // The tail bucket absorbs out-of-range samples.
        h.record_ns(u64::MAX);
        assert_eq!(h.buckets()[HIST_BUCKETS - 1], 1);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = LatencyHistogram::new();
        // 100 samples all equal: every quantile collapses to the value
        // (interpolation is clamped to [min, max]).
        for _ in 0..100 {
            h.record_ns(4096);
        }
        assert_eq!(h.p50_ns(), Some(4096));
        assert_eq!(h.p95_ns(), Some(4096));
        assert_eq!(h.p99_ns(), Some(4096));

        // A spread: 90 fast samples (bucket 1: [2,4)), 10 slow
        // (bucket 10: [1024,2048)). p50 sits in the fast bucket, p95
        // and p99 in the slow bucket.
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record_ns(3);
        }
        for _ in 0..10 {
            h.record_ns(1500);
        }
        let p50 = h.p50_ns().unwrap();
        assert!((2..4).contains(&p50), "p50 = {p50}");
        let p95 = h.p95_ns().unwrap();
        assert!((1024..2048).contains(&p95), "p95 = {p95}");
        let p99 = h.p99_ns().unwrap();
        assert!(p99 >= p95, "p99 = {p99} < p95 = {p95}");
        // Quantiles never exceed the recorded extremes.
        assert!(p99 <= h.max_ns().unwrap());
        assert!(h.quantile_ns(0.0).unwrap() >= h.min_ns().unwrap());
        assert_eq!(h.quantile_ns(1.0), Some(h.max_ns().unwrap()));

        // Degenerate inputs.
        assert_eq!(LatencyHistogram::new().p50_ns(), None);
        assert_eq!(h.quantile_ns(1.5), None);
        assert_eq!(h.quantile_ns(-0.1), None);
    }

    #[test]
    fn empty_histogram_has_no_extremes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.min_ns(), None);
        assert_eq!(h.max_ns(), None);
        assert_eq!(h.mean_ns(), 0.0);
    }

    #[test]
    fn op_records_feed_both_levels() {
        let mut s = KernelStats::new();
        s.record_op_timed(KernelOp::NewviewIi, 1000, 272_000);
        s.record_op_timed(KernelOp::EvaluateIi, 1000, 500);
        // Paper-kernel level sees the grouped calls.
        assert_eq!(s.get(KernelId::Newview).calls, 1);
        assert_eq!(s.get(KernelId::Evaluate).sites, 1000);
        assert_eq!(s.timing(KernelId::Newview).count(), 1);
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
    fn timed_records_fill_histograms_and_merge() {
        let mut a = KernelStats::new();
        a.record_timed(KernelId::Newview, 100, 500);
        a.record_timed(KernelId::Newview, 100, 700);
        a.record_region(50, 3000);
        let mut b = KernelStats::new();
        b.record_timed(KernelId::Newview, 10, 900);
        b.record_region(70, 1000);
        a.merge(&b);
        assert_eq!(a.get(KernelId::Newview).calls, 3);
        assert_eq!(a.timing(KernelId::Newview).count(), 3);
        assert_eq!(a.timing(KernelId::Newview).total_ns(), 2100);
        assert_eq!(a.regions().count, 2);
        assert_eq!(a.regions().fork.total_ns(), 120);
        assert_eq!(a.regions().join.max_ns(), Some(3000));
        a.reset();
        assert_eq!(a, KernelStats::new());
    }
}
