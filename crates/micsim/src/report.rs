//! Post-mortem analysis of a JSONL trace (`phylomic trace-report`).
//!
//! Turns the flat event stream `--trace-out` produces into the
//! summaries the paper's evaluation reasons about: per-kernel time
//! shares (the Table III decomposition), fork/join synchronization
//! overhead per parallel region (§VI-B2's small-alignment effect),
//! per-slice load imbalance over the computing master and its workers
//! (the Fig. 4 efficiency ceiling), and the
//! measured per-call/per-site kernel cost table that feeds
//! [`crate::calibration::MeasuredHostCosts`]. Every kernel number is a
//! sum of `op` events: per kernel for the shares, per source for the
//! load rows.

use crate::calibration::MeasuredHostCosts;
use plf_core::trace::{escape, parse_jsonl, TraceEvent};
use plf_core::{KernelId, KernelOp, OpCost};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One kernel's aggregate across every source in the trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelRow {
    /// Which kernel.
    pub kernel: KernelId,
    /// Invocations summed over sources.
    pub calls: u64,
    /// Pattern-sites summed over sources.
    pub sites: u64,
    /// Wall time summed over sources, nanoseconds.
    pub total_ns: u64,
    /// Fraction of the summed kernel time spent in this kernel.
    pub share: f64,
}

/// Calibrated machine peaks from the `meta` event, used to place each
/// op on the roofline. Zero fields mean "not calibrated".
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Roofline {
    /// Single-core FMA peak, MFLOP/s.
    pub peak_mflops: u64,
    /// Single-core STREAM-triad bandwidth, MB/s.
    pub peak_mbps: u64,
}

impl Roofline {
    /// True when both peaks were measured.
    pub fn is_calibrated(&self) -> bool {
        self.peak_mflops > 0 && self.peak_mbps > 0
    }

    /// The ridge point: arithmetic intensity (flop/byte) above which
    /// the machine is compute-bound.
    pub fn ridge(&self) -> f64 {
        if self.peak_mbps == 0 {
            0.0
        } else {
            self.peak_mflops as f64 / self.peak_mbps as f64
        }
    }

    /// Attainable GFLOP/s at intensity `ai`:
    /// `min(peak_flops, ai × peak_bandwidth)`.
    pub fn attainable_gflops(&self, ai: f64) -> f64 {
        let peak = self.peak_mflops as f64 / 1e3;
        let bw_limited = ai * self.peak_mbps as f64 / 1e3;
        peak.min(bw_limited)
    }

    /// Fraction of the attainable roof an op achieves; `None` when the
    /// roofline is uncalibrated or the op has no timing.
    pub fn fraction_of_roof(&self, row: &OpCost) -> Option<f64> {
        if !self.is_calibrated() || row.total_ns == 0 {
            return None;
        }
        let attainable = self.attainable_gflops(row.arithmetic_intensity());
        (attainable > 0.0).then(|| row.gflops() / attainable)
    }
}

/// Fork/join synchronization totals and the derived overhead fraction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegionSummary {
    /// Parallel regions executed.
    pub count: u64,
    /// Summed fork-barrier wait of the master, ns.
    pub fork_total_ns: u64,
    /// Summed join-barrier wait of the master, ns: a pure wait — the
    /// master computes its own slice between the two barriers and
    /// that time is not in here.
    pub join_total_ns: u64,
    /// Estimated wall time spent inside regions, ns: the master's two
    /// waits plus the kernel time of its own slice, which it runs
    /// between them.
    pub wall_ns: u64,
    /// Fraction of region wall time not covered by the busiest
    /// slice's kernel time: `(wall − max_busy) / wall`, clamped to
    /// `[0, 1]`. Pure synchronization + scheduling overhead.
    pub overhead_fraction: f64,
}

/// One team member's busy time, as seen through its kernel events.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerRow {
    /// Source label: `"master"` (slice 0) or e.g. `"worker2"`.
    pub source: String,
    /// Summed kernel wall time, ns.
    pub busy_ns: u64,
    /// Pattern-sites processed (summed over kernels and calls).
    pub sites: u64,
}

/// Aggregate of one span name across all tracks.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRow {
    /// Span name (e.g. `"spr_round"`).
    pub name: String,
    /// Closed spans with this name.
    pub count: u64,
    /// Summed duration, ns. Nested spans of the same name both count.
    pub total_ns: u64,
}

/// Everything `trace-report` prints, in analyzable form.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceReport {
    /// Schema version from the `meta` event, if present.
    pub version: Option<u64>,
    /// Resolved kernel backend from the `meta` event (`"simd"`,
    /// `"scalar"`); `None` without a meta event.
    pub backend: Option<String>,
    /// Vector width in bits the backend ran its matrix kernels with
    /// (512 / 256, 0 for the scalar loops), from the `meta` event.
    pub simd_width_bits: Option<u64>,
    /// Resolved traversal cache-blocking mode from the `meta` event
    /// (`"on"` / `"off"`).
    pub blocking: Option<String>,
    /// Spans lost to ring-buffer overflow, from the `meta` event.
    pub spans_dropped: u64,
    /// Calibrated host peaks from the `meta` event; uncalibrated
    /// (all-zero) for hosts without `HOST_ROOFLINE.json`.
    pub roofline: Roofline,
    /// The replicated-search transport from the `meta` event
    /// (`"threads"`, `"uds"`); `None` for non-replicated runs.
    pub transport: Option<String>,
    /// Measured collectives from the `meta` event (summed over
    /// ranks); 0 for non-replicated runs.
    pub wire_ops: u64,
    /// Total measured in-collective wall time, ns (summed over ranks).
    pub wire_ns: u64,
    /// Per-kernel aggregates, descending by total time.
    pub kernels: Vec<KernelRow>,
    /// Per-entry-point aggregates with modeled costs, descending by
    /// total time.
    pub ops: Vec<(KernelOp, OpCost)>,
    /// Summed kernel time across all sources, ns.
    pub total_kernel_ns: u64,
    /// Fork/join summary; `None` for serial traces.
    pub regions: Option<RegionSummary>,
    /// Per-slice busy time of a fork-join team, sorted by source label
    /// (the computing master first, then the workers); empty for
    /// serial.
    pub workers: Vec<WorkerRow>,
    /// `max(busy) / mean(busy)` over the team (1.0 = perfect balance);
    /// `None` with fewer than two members.
    pub imbalance: Option<f64>,
    /// Span aggregates, descending by total time.
    pub spans: Vec<SpanRow>,
    /// Counter/gauge readings (`name`, `kind`, `value`), sorted.
    pub metrics: Vec<(String, String, u64)>,
    /// Measured kernel cost fits; `None` if no `op` events.
    pub costs: Option<MeasuredHostCosts>,
}

impl TraceReport {
    /// Builds a report from parsed trace events.
    pub fn from_events(events: &[TraceEvent]) -> TraceReport {
        let mut version = None;
        let mut backend = None;
        let mut simd_width_bits = None;
        let mut blocking = None;
        let mut spans_dropped = 0u64;
        let mut roofline = Roofline::default();
        let mut transport = None;
        let mut wire_ops = 0u64;
        let mut wire_ns = 0u64;
        let mut per_kernel: BTreeMap<&'static str, KernelRow> = BTreeMap::new();
        let mut per_op: BTreeMap<usize, (KernelOp, OpCost)> = BTreeMap::new();
        let mut per_worker: BTreeMap<String, WorkerRow> = BTreeMap::new();
        let mut region_count = 0u64;
        let mut fork_total = 0u64;
        let mut join_total = 0u64;
        let mut spans: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let mut metrics = Vec::new();

        for e in events {
            match e {
                TraceEvent::Meta {
                    version: v,
                    backend: b,
                    simd_width_bits: width,
                    blocking: bl,
                    spans_dropped: sd,
                    roofline_mflops,
                    roofline_mbps,
                    transport: tp,
                    wire_ops: wo,
                    wire_ns: wn,
                } => {
                    version = Some(*v);
                    backend = Some(b.clone());
                    simd_width_bits = Some(*width);
                    blocking = Some(bl.clone());
                    spans_dropped += sd;
                    if *roofline_mflops > 0 {
                        roofline.peak_mflops = *roofline_mflops;
                    }
                    if *roofline_mbps > 0 {
                        roofline.peak_mbps = *roofline_mbps;
                    }
                    if !tp.is_empty() {
                        transport = Some(tp.clone());
                    }
                    wire_ops += wo;
                    wire_ns += wn;
                }
                TraceEvent::Op {
                    source,
                    op,
                    calls,
                    sites,
                    total_ns,
                    flops,
                    bytes_read,
                    bytes_written,
                } => {
                    per_op
                        .entry(op.index())
                        .or_insert((*op, OpCost::default()))
                        .1
                        .merge(&OpCost {
                            calls: *calls,
                            sites: *sites,
                            total_ns: *total_ns,
                            flops: *flops,
                            bytes_read: *bytes_read,
                            bytes_written: *bytes_written,
                        });
                    let kernel = op.kernel_id();
                    let k = per_kernel.entry(kernel.paper_name()).or_insert(KernelRow {
                        kernel,
                        calls: 0,
                        sites: 0,
                        total_ns: 0,
                        share: 0.0,
                    });
                    k.calls += calls;
                    k.sites += sites;
                    k.total_ns += total_ns;
                    if source == "master" || source.starts_with("worker") {
                        let w = per_worker.entry(source.clone()).or_insert(WorkerRow {
                            source: source.clone(),
                            busy_ns: 0,
                            sites: 0,
                        });
                        w.busy_ns += total_ns;
                        w.sites += sites;
                    }
                }
                TraceEvent::Region {
                    count,
                    fork_total_ns,
                    join_total_ns,
                    ..
                } => {
                    region_count += count;
                    fork_total += fork_total_ns;
                    join_total += join_total_ns;
                }
                TraceEvent::Span { name, dur_ns, .. } => {
                    let s = spans.entry(name.clone()).or_insert((0, 0));
                    s.0 += 1;
                    s.1 += dur_ns;
                }
                TraceEvent::Metric {
                    name, kind, value, ..
                } => metrics.push((name.clone(), kind.clone(), *value)),
            }
        }

        let total_kernel_ns: u64 = per_kernel.values().map(|k| k.total_ns).sum();
        let mut kernels: Vec<KernelRow> = per_kernel.into_values().collect();
        for k in &mut kernels {
            if total_kernel_ns > 0 {
                k.share = k.total_ns as f64 / total_kernel_ns as f64;
            }
        }
        kernels.sort_by_key(|k| std::cmp::Reverse(k.total_ns));
        let mut ops: Vec<(KernelOp, OpCost)> = per_op.into_values().collect();
        ops.sort_by_key(|(_, o)| std::cmp::Reverse(o.total_ns));

        let workers: Vec<WorkerRow> = per_worker.into_values().collect();

        let imbalance = if workers.len() >= 2 {
            let max = workers.iter().map(|w| w.busy_ns).max().unwrap_or(0) as f64;
            let mean = workers.iter().map(|w| w.busy_ns).sum::<u64>() as f64 / workers.len() as f64;
            (mean > 0.0).then(|| max / mean)
        } else {
            None
        };

        let regions = (region_count > 0).then(|| {
            let master_busy = workers
                .iter()
                .find(|w| w.source == "master")
                .map_or(0, |w| w.busy_ns);
            let wall_ns = fork_total + join_total + master_busy;
            let max_busy = workers.iter().map(|w| w.busy_ns).max().unwrap_or(0);
            RegionSummary {
                count: region_count,
                fork_total_ns: fork_total,
                join_total_ns: join_total,
                wall_ns,
                overhead_fraction: if wall_ns == 0 {
                    0.0
                } else {
                    (wall_ns.saturating_sub(max_busy)) as f64 / wall_ns as f64
                },
            }
        });

        let mut spans: Vec<SpanRow> = spans
            .into_iter()
            .map(|(name, (count, total_ns))| SpanRow {
                name,
                count,
                total_ns,
            })
            .collect();
        spans.sort_by_key(|s| std::cmp::Reverse(s.total_ns));
        metrics.sort();

        let costs = MeasuredHostCosts::from_events(events).ok();

        TraceReport {
            version,
            backend,
            simd_width_bits,
            blocking,
            spans_dropped,
            roofline,
            transport,
            wire_ops,
            wire_ns,
            kernels,
            ops,
            total_kernel_ns,
            regions,
            workers,
            imbalance,
            spans,
            metrics,
            costs,
        }
    }

    /// Parses a JSONL document and builds the report.
    pub fn from_jsonl(text: &str) -> Result<TraceReport, plf_core::trace::TraceError> {
        Ok(TraceReport::from_events(&parse_jsonl(text)?))
    }

    /// Renders the report as the text `phylomic trace-report` prints.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let ms = |ns: u64| ns as f64 / 1e6;
        if let Some(v) = self.version {
            let _ = writeln!(s, "trace schema v{v}");
        }
        if let Some(b) = &self.backend {
            let _ = writeln!(s, "kernel backend: {b}");
        }
        if let Some(w) = self.simd_width_bits {
            let _ = writeln!(s, "simd_width_bits: {w}");
        }
        if let Some(bl) = &self.blocking {
            let _ = writeln!(s, "cache blocking: {bl}");
        }
        if let Some(tp) = &self.transport {
            let _ = writeln!(s, "transport: {tp}");
            if self.wire_ops > 0 {
                let measured_us = self.wire_ns as f64 / self.wire_ops as f64 / 1e3;
                let modeled_us = crate::calibration::allreduce_latency_s(
                    crate::model::Interconnect::SharedMemory,
                ) * 1e6;
                let _ = writeln!(
                    s,
                    "collectives: {} measured, mean {measured_us:.2} µs on the wire \
                     (micsim modeled shared-memory allreduce: {modeled_us:.2} µs)",
                    self.wire_ops
                );
            }
        }
        if self.spans_dropped > 0 {
            let _ = writeln!(
                s,
                "WARNING: {} spans dropped to ring-buffer overflow; span totals undercount",
                self.spans_dropped
            );
        }

        let _ = writeln!(s, "\n== kernel time shares ==");
        let _ = writeln!(
            s,
            "{:<16} {:>10} {:>12} {:>11} {:>7}",
            "kernel", "calls", "sites", "total ms", "share"
        );
        for k in &self.kernels {
            let _ = writeln!(
                s,
                "{:<16} {:>10} {:>12} {:>11.3} {:>6.1}%",
                k.kernel.paper_name(),
                k.calls,
                k.sites,
                ms(k.total_ns),
                k.share * 100.0
            );
        }
        let _ = writeln!(s, "total kernel time {:.3} ms", ms(self.total_kernel_ns));

        if !self.ops.is_empty() {
            let _ = writeln!(s, "\n== op roofline (modeled flops/bytes) ==");
            if self.roofline.is_calibrated() {
                let _ = writeln!(
                    s,
                    "host peaks: {:.2} GFLOP/s compute, {:.2} GB/s bandwidth (ridge {:.3} flop/byte)",
                    self.roofline.peak_mflops as f64 / 1e3,
                    self.roofline.peak_mbps as f64 / 1e3,
                    self.roofline.ridge()
                );
            } else {
                let _ = writeln!(
                    s,
                    "host peaks: uncalibrated (run `phylomic calibrate` to enable % of roof)"
                );
            }
            let _ = writeln!(
                s,
                "{:<20} {:>10} {:>9} {:>9} {:>7} {:>7} {:>8}",
                "op", "calls", "GFLOP/s", "GB/s", "AI", "% roof", "bound"
            );
            for (op, o) in &self.ops {
                let (pct, bound) = match self.roofline.fraction_of_roof(o) {
                    Some(f) => (
                        format!("{:.1}", f * 100.0),
                        if o.arithmetic_intensity() < self.roofline.ridge() {
                            "memory"
                        } else {
                            "compute"
                        },
                    ),
                    None => ("-".to_string(), "-"),
                };
                let _ = writeln!(
                    s,
                    "{:<20} {:>10} {:>9.3} {:>9.3} {:>7.3} {:>7} {:>8}",
                    op.name(),
                    o.calls,
                    o.gflops(),
                    o.gbps(),
                    o.arithmetic_intensity(),
                    pct,
                    bound
                );
            }
        }

        if let Some(r) = &self.regions {
            let _ = writeln!(s, "\n== fork/join regions ==");
            let _ = writeln!(
                s,
                "regions {}  fork {:.3} ms  join {:.3} ms  wall {:.3} ms",
                r.count,
                ms(r.fork_total_ns),
                ms(r.join_total_ns),
                ms(r.wall_ns)
            );
            let _ = writeln!(
                s,
                "overhead fraction {:.1}% (region wall — the master's waits and its own slice — not covered by the busiest slice)",
                r.overhead_fraction * 100.0
            );
        }

        if !self.workers.is_empty() {
            let _ = writeln!(s, "\n== per-worker load (master = slice 0) ==");
            for w in &self.workers {
                let _ = writeln!(
                    s,
                    "{:<10} busy {:>11.3} ms  sites {:>12}",
                    w.source,
                    ms(w.busy_ns),
                    w.sites
                );
            }
            if let Some(i) = self.imbalance {
                let _ = writeln!(s, "imbalance (slowest/mean) {i:.3}");
            }
        }

        // The pruned walk, from its three registry counters: how much
        // of the full walks was still walked, and how many looks it
        // took to find a stale CLA.
        let metric = |name: &str| {
            self.metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|&(_, _, value)| value)
        };
        if let (Some(visited), Some(in_schedule)) = (
            metric("core.traversal.nodes_visited"),
            metric("core.traversal.nodes_in_schedule"),
        ) {
            let _ = writeln!(s, "\n== traversal ==");
            let _ = writeln!(
                s,
                "nodes visited {visited} of {in_schedule} in the full schedules ({:.1}%), \
                 edge records changed {}",
                100.0 * visited as f64 / in_schedule.max(1) as f64,
                metric("core.traversal.edges_changed").unwrap_or(0)
            );
            let newviews: u64 = self
                .kernels
                .iter()
                .filter(|k| k.kernel == KernelId::Newview)
                .map(|k| k.calls)
                .sum();
            if newviews > 0 {
                let _ = writeln!(
                    s,
                    "visits per newview {:.2} (a full walk: {:.2})",
                    visited as f64 / newviews as f64,
                    in_schedule as f64 / newviews as f64
                );
            }
        }

        if !self.spans.is_empty() {
            let _ = writeln!(s, "\n== span totals ==");
            for sp in &self.spans {
                let _ = writeln!(
                    s,
                    "{:<18} count {:>8}  total {:>11.3} ms",
                    sp.name,
                    sp.count,
                    ms(sp.total_ns)
                );
            }
        }

        if !self.metrics.is_empty() {
            let _ = writeln!(s, "\n== metrics ==");
            for (name, kind, value) in &self.metrics {
                let _ = writeln!(s, "{name:<40} {kind:<8} {value}");
            }
        }

        if let Some(c) = &self.costs {
            let _ = writeln!(s, "\n== calibration cost table (MeasuredHostCosts) ==");
            let _ = writeln!(
                s,
                "{:<16} {:>14} {:>14} {:>8}",
                "kernel", "per-call ns", "per-site ns", "samples"
            );
            for kernel in KernelId::ALL {
                let f = c.fit(kernel);
                if f.samples == 0 {
                    continue;
                }
                let _ = writeln!(
                    s,
                    "{:<16} {:>14.1} {:>14.3} {:>8}",
                    kernel.paper_name(),
                    f.per_call_ns,
                    f.per_site_ns,
                    f.samples
                );
            }
            let _ = writeln!(
                s,
                "region fork {:.1} ns  join {:.1} ns (mean per region)",
                c.region_fork_ns, c.region_join_ns
            );
        }
        s
    }

    /// Renders the report as a single JSON object
    /// (`phylomic trace-report --format json`), for downstream tooling
    /// that would otherwise scrape the text tables.
    pub fn render_json(&self) -> String {
        fn opt_str(v: &Option<String>) -> String {
            match v {
                Some(s) => format!("\"{}\"", escape(s)),
                None => "null".into(),
            }
        }
        let mut s = String::new();
        s.push('{');
        let _ = write!(
            s,
            "\"version\":{},",
            self.version.map_or("null".into(), |v| v.to_string())
        );
        let _ = write!(s, "\"backend\":{},", opt_str(&self.backend));
        let _ = write!(
            s,
            "\"simd_width_bits\":{},",
            self.simd_width_bits
                .map_or("null".into(), |w| w.to_string())
        );
        let _ = write!(s, "\"blocking\":{},", opt_str(&self.blocking));
        let _ = write!(s, "\"transport\":{},", opt_str(&self.transport));
        let _ = write!(
            s,
            "\"wire_ops\":{},\"wire_ns\":{},",
            self.wire_ops, self.wire_ns
        );
        let _ = write!(s, "\"spans_dropped\":{},", self.spans_dropped);
        let _ = write!(
            s,
            "\"roofline\":{{\"peak_mflops\":{},\"peak_mbps\":{}}},",
            self.roofline.peak_mflops, self.roofline.peak_mbps
        );
        let _ = write!(s, "\"total_kernel_ns\":{},", self.total_kernel_ns);
        s.push_str("\"kernels\":[");
        for (i, k) in self.kernels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"kernel\":\"{}\",\"calls\":{},\"sites\":{},\"total_ns\":{},\"share\":{:.6}}}",
                k.kernel.paper_name(),
                k.calls,
                k.sites,
                k.total_ns,
                k.share
            );
        }
        s.push_str("],\"ops\":[");
        for (i, (op, o)) in self.ops.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let pct = match self.roofline.fraction_of_roof(o) {
                Some(f) => format!("{:.6}", f),
                None => "null".into(),
            };
            let _ = write!(
                s,
                "{{\"op\":\"{}\",\"calls\":{},\"sites\":{},\"total_ns\":{},\"flops\":{},\"bytes_read\":{},\"bytes_written\":{},\"gflops\":{:.6},\"gbps\":{:.6},\"arithmetic_intensity\":{:.6},\"fraction_of_roof\":{}}}",
                op.name(),
                o.calls,
                o.sites,
                o.total_ns,
                o.flops,
                o.bytes_read,
                o.bytes_written,
                o.gflops(),
                o.gbps(),
                o.arithmetic_intensity(),
                pct
            );
        }
        s.push_str("],\"regions\":");
        match &self.regions {
            Some(r) => {
                let _ = write!(
                    s,
                    "{{\"count\":{},\"fork_total_ns\":{},\"join_total_ns\":{},\"wall_ns\":{},\"overhead_fraction\":{:.6}}}",
                    r.count, r.fork_total_ns, r.join_total_ns, r.wall_ns, r.overhead_fraction
                );
            }
            None => s.push_str("null"),
        }
        s.push_str(",\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"source\":\"{}\",\"busy_ns\":{},\"sites\":{}}}",
                escape(&w.source),
                w.busy_ns,
                w.sites
            );
        }
        s.push_str("],\"imbalance\":");
        match self.imbalance {
            Some(i) => {
                let _ = write!(s, "{i:.6}");
            }
            None => s.push_str("null"),
        }
        s.push_str(",\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{}}}",
                escape(&sp.name),
                sp.count,
                sp.total_ns
            );
        }
        s.push_str("],\"metrics\":[");
        for (i, (name, kind, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"value\":{}}}",
                escape(name),
                escape(kind),
                value
            );
        }
        s.push_str("]}");
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op_event(source: &str, op: KernelOp, calls: u64, sites: u64, total: u64) -> TraceEvent {
        let cost = op.cost(sites);
        TraceEvent::Op {
            source: source.into(),
            op,
            calls,
            sites,
            total_ns: total,
            flops: cost.flops,
            bytes_read: cost.bytes_read,
            bytes_written: cost.bytes_written,
        }
    }

    fn forkjoin_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Meta {
                version: 9,
                backend: "simd".into(),
                simd_width_bits: 512,
                blocking: "on".into(),
                spans_dropped: 2,
                roofline_mflops: 10_000,
                roofline_mbps: 20_000,
                transport: "uds".into(),
                wire_ops: 40,
                wire_ns: 400_000,
            },
            op_event("master", KernelOp::NewviewIi, 10, 1000, 6_000_000),
            op_event("master", KernelOp::EvaluateIi, 5, 500, 1_000_000),
            op_event("worker0", KernelOp::NewviewIi, 10, 500, 3_000_000),
            op_event("worker0", KernelOp::EvaluateIi, 5, 250, 500_000),
            TraceEvent::Region {
                source: "master".into(),
                count: 15,
                fork_total_ns: 1_000_000,
                join_total_ns: 2_000_000,
                fork_max_ns: 200_000,
                join_max_ns: 1_000_000,
            },
            TraceEvent::Span {
                source: "master".into(),
                name: "search".into(),
                start_ns: 0,
                dur_ns: 12_000_000,
                depth: 0,
            },
            TraceEvent::Metric {
                source: "process".into(),
                name: "spr.moves.accepted".into(),
                kind: "counter".into(),
                value: 3,
            },
        ]
    }

    #[test]
    fn report_computes_shares_imbalance_and_overhead() {
        let r = TraceReport::from_events(&forkjoin_events());
        assert_eq!(r.version, Some(9));
        assert_eq!(r.backend.as_deref(), Some("simd"));
        assert_eq!(r.simd_width_bits, Some(512));
        assert_eq!(r.blocking.as_deref(), Some("on"));
        assert_eq!(r.total_kernel_ns, 10_500_000);
        // newview dominates and sorts first.
        assert_eq!(r.kernels[0].kernel, KernelId::Newview);
        assert!((r.kernels[0].share - 9.0 / 10.5).abs() < 1e-9);
        // master busy 7ms, worker0 busy 3.5ms → imbalance 7/5.25.
        assert_eq!(r.workers.len(), 2);
        assert_eq!(r.workers[0].source, "master");
        let imb = r.imbalance.unwrap();
        assert!((imb - 7.0 / 5.25).abs() < 1e-9, "{imb}");
        // Waits 1ms + 2ms around the master's 7ms → wall 10ms, max
        // busy 7ms → overhead 30%.
        let reg = r.regions.unwrap();
        assert_eq!(reg.count, 15);
        assert_eq!(reg.wall_ns, 10_000_000);
        assert!((reg.overhead_fraction - 0.3).abs() < 1e-9);
        assert!(r.costs.is_some());
        assert_eq!(r.spans[0].name, "search");
        assert_eq!(r.metrics[0].0, "spr.moves.accepted");
    }

    #[test]
    fn op_rows_merge_sources_and_place_on_roofline() {
        let r = TraceReport::from_events(&forkjoin_events());
        assert_eq!(r.spans_dropped, 2);
        assert_eq!(
            r.roofline,
            Roofline {
                peak_mflops: 10_000,
                peak_mbps: 20_000,
            }
        );
        assert_eq!(r.ops.len(), 2);
        let (op, o) = &r.ops[0];
        assert_eq!(*op, KernelOp::NewviewIi);
        assert_eq!((o.calls, o.sites, o.total_ns), (20, 1500, 9_000_000));
        assert_eq!(o.flops, 408_000);
        assert_eq!(o.bytes_read + o.bytes_written, 594_000);
        // 408 kflop / 9 ms ≈ 0.04533 GFLOP/s; AI = 408/594 flop/byte.
        assert!((o.gflops() - 408.0 / 9000.0).abs() < 1e-9);
        assert!((o.arithmetic_intensity() - 408.0 / 594.0).abs() < 1e-9);
        // Ridge = 10/20 = 0.5 flop/byte; AI ≈ 0.687 > ridge → compute
        // bound, attainable = 10 GFLOP/s.
        let f = r.roofline.fraction_of_roof(o).unwrap();
        assert!((f - o.gflops() / 10.0).abs() < 1e-9, "{f}");
        // Render shows the roofline table and the drop warning.
        let text = r.render();
        assert!(text.contains("op roofline"), "{text}");
        assert!(text.contains("newview_ii"), "{text}");
        assert!(text.contains("compute"), "{text}");
        assert!(text.contains("2 spans dropped"), "{text}");
    }

    #[test]
    fn uncalibrated_roofline_renders_placeholders() {
        let events = vec![op_event("serial", KernelOp::EvaluateIi, 1, 100, 10_000)];
        let r = TraceReport::from_events(&events);
        assert!(!r.roofline.is_calibrated());
        assert!(r.roofline.fraction_of_roof(&r.ops[0].1).is_none());
        let text = r.render();
        assert!(text.contains("uncalibrated"), "{text}");
        assert!(!text.contains("spans dropped"), "{text}");
    }

    #[test]
    fn render_json_roundtrips_key_fields() {
        use plf_prof::json::Json;
        // A worker label the escaper must carry through: a quote and a
        // newline, as a raw byte each would break the document.
        let mut events = forkjoin_events();
        events.push(op_event(
            "worker\"1\n",
            KernelOp::DerivativeCore,
            10,
            500,
            2_000_000,
        ));
        let r = TraceReport::from_events(&events);
        let json = Json::parse(&r.render_json()).unwrap();
        let field = |v: &Json, k: &str| v.get(k).unwrap_or_else(|| panic!("no {k}")).clone();
        assert_eq!(field(&json, "version").as_u64(), Some(9));
        assert_eq!(field(&json, "backend").as_str(), Some("simd"));
        assert_eq!(field(&json, "simd_width_bits").as_u64(), Some(512));
        assert_eq!(field(&json, "blocking").as_str(), Some("on"));
        assert_eq!(field(&json, "spans_dropped").as_u64(), Some(2));
        let roofline = field(&json, "roofline");
        assert_eq!(field(&roofline, "peak_mflops").as_u64(), Some(10_000));
        let ops = field(&json, "ops");
        let ops = ops.as_arr().unwrap();
        assert_eq!(field(&ops[0], "op").as_str(), Some("newview_ii"));
        assert_eq!(field(&ops[0], "flops").as_u64(), Some(408_000));
        // The kernel rows are the op rows summed: same total time and
        // calls, over the same events.
        let kernels = field(&json, "kernels");
        let sum = |rows: &[Json], k: &str| -> u64 {
            rows.iter().map(|row| field(row, k).as_u64().unwrap()).sum()
        };
        for k in ["total_ns", "calls", "sites"] {
            assert_eq!(sum(kernels.as_arr().unwrap(), k), sum(ops, k), "{k}");
        }
        assert_eq!(
            sum(ops, "total_ns"),
            field(&json, "total_kernel_ns").as_u64().unwrap()
        );
        assert_eq!(
            field(&kernels.as_arr().unwrap()[0], "kernel").as_str(),
            Some("newview")
        );
        assert!(field(&json, "imbalance").as_f64().is_some());
        let overhead = field(&field(&json, "regions"), "overhead_fraction");
        assert!(overhead.as_f64().is_some());
        let workers = field(&json, "workers");
        let labels: Vec<&str> = workers
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("source").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(labels, ["master", "worker\"1\n", "worker0"]);
    }

    #[test]
    fn render_mentions_every_section() {
        let text = TraceReport::from_events(&forkjoin_events()).render();
        for needle in [
            "kernel time shares",
            "newview",
            "fork/join regions",
            "overhead fraction",
            "per-worker load",
            "imbalance (slowest/mean)",
            "span totals",
            "metrics",
            "calibration cost table",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn serial_trace_reports_without_regions_or_workers() {
        let events = vec![op_event("serial", KernelOp::NewviewTi, 4, 400, 2_000_000)];
        let r = TraceReport::from_events(&events);
        assert!(r.regions.is_none());
        assert!(r.workers.is_empty());
        assert!(r.imbalance.is_none());
        assert_eq!(r.kernels.len(), 1);
        assert!((r.kernels[0].share - 1.0).abs() < 1e-12);
        // Render stays valid with the parallel sections absent.
        let text = r.render();
        assert!(!text.contains("fork/join regions"));
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let r = TraceReport::from_events(&[]);
        assert!(r.kernels.is_empty() && r.costs.is_none());
        assert_eq!(r.total_kernel_ns, 0);
    }

    #[test]
    fn from_jsonl_roundtrip() {
        let doc = plf_core::trace::write_jsonl(&forkjoin_events());
        let r = TraceReport::from_jsonl(&doc).unwrap();
        assert_eq!(r, TraceReport::from_events(&forkjoin_events()));
    }
}
