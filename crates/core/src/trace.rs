//! JSONL kernel-timing traces.
//!
//! A trace is a flat JSON-lines file: one event per line, each a small
//! flat object. Event kinds (schema version [`TRACE_VERSION`]):
//!
//! * `meta` — schema version marker, written first.
//! * `kernel` — one source's (a worker thread's or the serial
//!   engine's) accumulated invocations of one kernel: call count,
//!   total pattern-sites, total/min/max wall time, and p50/p95/p99
//!   latency estimates in nanoseconds.
//! * `op` — one source's accumulated invocations of one concrete
//!   kernel entry point ([`crate::cost::KernelOp`]) with its modeled
//!   roofline cost: calls, sites, wall time, flops, bytes read and
//!   written. Achieved GFLOP/s and GB/s are ratios of these fields.
//! * `region` — one source's parallel-region synchronization totals:
//!   region count plus total/max fork- and join-barrier latencies.
//! * `span` — one closed hierarchical span ([`crate::span`]) with its
//!   source track, start, duration and nesting depth.
//! * `metric` — a counter or gauge reading from the
//!   [`crate::metrics`] registry.
//!
//! The format is deliberately trivial — flat objects, string and
//! integer values only — so it round-trips through the hand-rolled
//! writer/parser below without a serde dependency, and any external
//! tool (`jq`, pandas) reads it directly. Parsing is
//! forward-compatible: unknown keys are ignored and unknown event
//! types (or kernel names) parse to [`TraceEvent::Unknown`], which
//! [`parse_jsonl`] silently drops — a v1 reader of a v3 file keeps
//! every event it understands. `micsim::calibration` loads these
//! events to fit measured per-call and per-site kernel costs,
//! replacing its hardware-derived defaults with numbers observed on
//! the actual host (`phylomic --trace-out` writes them).

use crate::instrument::{KernelId, KernelStats};
use crate::metrics::{MetricSample, MetricValue};
use crate::span::TrackSnapshot;
use std::fmt::Write as _;

/// Current trace schema version, recorded in the leading `meta` event.
///
/// Version history: 1 = kernel + region events; 2 = meta/span/metric
/// events, kernel quantile fields; 3 = meta carries the resolved kernel
/// backend so reports attribute timings to an ISA; 4 = meta carries the
/// resolved site-repeat compression mode (a `site_repeats` key, no
/// longer written and ignored when read); 5 = `op` events with modeled
/// roofline cost, and meta carries `spans_dropped` plus the host
/// roofline (`roofline_mflops` / `roofline_mbps`, 0 = uncalibrated);
/// 6 = meta carries the resolved replicated-search transport and its
/// measured per-collective wire time (`transport`, `wire_ops`,
/// `wire_ns`), so `trace-report` can place the measured AllReduce
/// latency next to micsim's modeled interconnect cost; 7 = meta
/// carries the resolved traversal cache-blocking mode (`blocking`), so
/// reports attribute `newview` timings to the blocked or straight-line
/// walk; 8 = meta carries the vector width of the resolved backend
/// (`simd_width_bits`), so per-op timings name the bodies that ran.
pub const TRACE_VERSION: u64 = 8;

/// One line of a trace file.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// Schema version marker (first line of a trace document).
    Meta {
        /// Schema version the writer produced.
        version: u64,
        /// The resolved kernel backend the run used (`"scalar"` or
        /// `"simd"`; older traces may say `"vector"`); empty when read
        /// from a pre-v3 trace.
        backend: String,
        /// Vector width in bits the backend ran its matrix kernels with
        /// ([`crate::KernelKind::simd_width_bits`]: 512, 256, or 0 for
        /// the scalar loops); 0 when read from a pre-v8 trace.
        simd_width_bits: u64,
        /// The resolved traversal cache-blocking mode (`"on"` or
        /// `"off"` — `auto` resolves against the pattern count before
        /// the meta is written); empty when read from a pre-v7 trace.
        blocking: String,
        /// Span events lost to per-thread ring overflow before export
        /// (summed over tracks); 0 when nothing was dropped or when
        /// read from a pre-v5 trace.
        spans_dropped: u64,
        /// Calibrated host peak in MFLOP/s (`plf-prof` FMA probe);
        /// 0 when the host was not calibrated or pre-v5. Integer
        /// milli-G units keep the flat integer trace grammar.
        roofline_mflops: u64,
        /// Calibrated host STREAM-triad bandwidth in MB/s; 0 when
        /// uncalibrated or pre-v5.
        roofline_mbps: u64,
        /// The replicated-search transport that ran the collectives
        /// (`"threads"`, `"uds"`, `"tcp"`); empty for non-replicated
        /// runs or pre-v6 traces.
        transport: String,
        /// Collectives measured at the communicator call boundary,
        /// summed over ranks; 0 for non-replicated runs or pre-v6.
        wire_ops: u64,
        /// Total wall time those collectives spent "on the wire",
        /// nanoseconds summed over ranks; 0 when `wire_ops` is 0.
        wire_ns: u64,
    },
    /// Accumulated timing of one kernel at one source.
    Kernel {
        /// Where the stats came from (e.g. `"serial"`, `"worker3"`).
        source: String,
        /// Which kernel.
        kernel: KernelId,
        /// Invocation count.
        calls: u64,
        /// Total pattern-sites across the invocations.
        sites: u64,
        /// Summed wall time of the invocations, nanoseconds.
        total_ns: u64,
        /// Fastest single invocation, nanoseconds.
        min_ns: u64,
        /// Slowest single invocation, nanoseconds.
        max_ns: u64,
        /// Median invocation latency estimate, ns (0 if unknown).
        p50_ns: u64,
        /// 95th-percentile latency estimate, ns (0 if unknown).
        p95_ns: u64,
        /// 99th-percentile latency estimate, ns (0 if unknown).
        p99_ns: u64,
    },
    /// Accumulated cost-model roofline numbers of one concrete kernel
    /// entry point at one source (schema v5).
    Op {
        /// Where the stats came from (e.g. `"serial"`, `"worker3"`).
        source: String,
        /// Which entry point.
        op: crate::cost::KernelOp,
        /// Invocation count.
        calls: u64,
        /// Total pattern-sites across the invocations.
        sites: u64,
        /// Summed wall time of the invocations, nanoseconds.
        total_ns: u64,
        /// Modeled floating-point operations.
        flops: u64,
        /// Modeled bytes read.
        bytes_read: u64,
        /// Modeled bytes written.
        bytes_written: u64,
    },
    /// Accumulated fork/join latency of one source's parallel regions.
    Region {
        /// Where the stats came from (usually `"master"`).
        source: String,
        /// Number of parallel regions.
        count: u64,
        /// Summed fork-barrier latency, nanoseconds.
        fork_total_ns: u64,
        /// Slowest fork, nanoseconds.
        fork_max_ns: u64,
        /// Summed join-barrier latency, nanoseconds.
        join_total_ns: u64,
        /// Slowest join, nanoseconds.
        join_max_ns: u64,
    },
    /// One closed hierarchical span from a worker/master timeline.
    Span {
        /// Track label (e.g. `"master"`, `"worker2"`).
        source: String,
        /// Span name (e.g. `"spr_round"`, `"branch_opt"`).
        name: String,
        /// Begin timestamp, ns since the process trace epoch.
        start_ns: u64,
        /// Duration, nanoseconds.
        dur_ns: u64,
        /// Nesting depth (0 = outermost).
        depth: u64,
    },
    /// A counter or gauge reading.
    Metric {
        /// Where the snapshot was taken (usually `"process"`).
        source: String,
        /// Registered dotted metric name.
        name: String,
        /// `"counter"` or `"gauge"` (other kinds tolerated on parse).
        kind: String,
        /// Value at snapshot time.
        value: u64,
    },
    /// An event this reader does not understand (future schema
    /// version). Preserved by [`TraceEvent::from_json`] so callers can
    /// count them; dropped by [`parse_jsonl`].
    Unknown {
        /// The unrecognized `type` field (or `"kernel"` for a kernel
        /// event naming an unknown kernel).
        event_type: String,
    },
}

impl TraceEvent {
    /// Serializes the event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        match self {
            TraceEvent::Meta {
                version,
                backend,
                simd_width_bits,
                blocking,
                spans_dropped,
                roofline_mflops,
                roofline_mbps,
                transport,
                wire_ops,
                wire_ns,
            } => {
                let _ = write!(
                    s,
                    r#"{{"type":"meta","version":{version},"backend":"{}","simd_width_bits":{simd_width_bits},"blocking":"{}","spans_dropped":{spans_dropped},"roofline_mflops":{roofline_mflops},"roofline_mbps":{roofline_mbps},"transport":"{}","wire_ops":{wire_ops},"wire_ns":{wire_ns}}}"#,
                    escape(backend),
                    escape(blocking),
                    escape(transport)
                );
            }
            TraceEvent::Kernel {
                source,
                kernel,
                calls,
                sites,
                total_ns,
                min_ns,
                max_ns,
                p50_ns,
                p95_ns,
                p99_ns,
            } => {
                let _ = write!(
                    s,
                    r#"{{"type":"kernel","source":"{}","kernel":"{}","calls":{},"sites":{},"total_ns":{},"min_ns":{},"max_ns":{},"p50_ns":{},"p95_ns":{},"p99_ns":{}}}"#,
                    escape(source),
                    kernel.paper_name(),
                    calls,
                    sites,
                    total_ns,
                    min_ns,
                    max_ns,
                    p50_ns,
                    p95_ns,
                    p99_ns
                );
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
                let _ = write!(
                    s,
                    r#"{{"type":"op","source":"{}","op":"{}","calls":{},"sites":{},"total_ns":{},"flops":{},"bytes_read":{},"bytes_written":{}}}"#,
                    escape(source),
                    op.name(),
                    calls,
                    sites,
                    total_ns,
                    flops,
                    bytes_read,
                    bytes_written
                );
            }
            TraceEvent::Region {
                source,
                count,
                fork_total_ns,
                fork_max_ns,
                join_total_ns,
                join_max_ns,
            } => {
                let _ = write!(
                    s,
                    r#"{{"type":"region","source":"{}","count":{},"fork_total_ns":{},"fork_max_ns":{},"join_total_ns":{},"join_max_ns":{}}}"#,
                    escape(source),
                    count,
                    fork_total_ns,
                    fork_max_ns,
                    join_total_ns,
                    join_max_ns
                );
            }
            TraceEvent::Span {
                source,
                name,
                start_ns,
                dur_ns,
                depth,
            } => {
                let _ = write!(
                    s,
                    r#"{{"type":"span","source":"{}","name":"{}","start_ns":{},"dur_ns":{},"depth":{}}}"#,
                    escape(source),
                    escape(name),
                    start_ns,
                    dur_ns,
                    depth
                );
            }
            TraceEvent::Metric {
                source,
                name,
                kind,
                value,
            } => {
                let _ = write!(
                    s,
                    r#"{{"type":"metric","source":"{}","name":"{}","kind":"{}","value":{}}}"#,
                    escape(source),
                    escape(name),
                    escape(kind),
                    value
                );
            }
            TraceEvent::Unknown { event_type } => {
                let _ = write!(s, r#"{{"type":"{}"}}"#, escape(event_type));
            }
        }
        s
    }

    /// Parses one JSON line back into an event.
    pub fn from_json(line: &str) -> Result<TraceEvent, TraceError> {
        let fields = parse_flat_object(line)?;
        let get = |k: &str| -> Result<&JsonValue, TraceError> {
            fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v)
                .ok_or_else(|| TraceError(format!("missing field {k:?} in {line:?}")))
        };
        let get_u64 = |k: &str| -> Result<u64, TraceError> {
            match get(k)? {
                JsonValue::Int(n) => Ok(*n),
                JsonValue::Str(_) => Err(TraceError(format!("field {k:?} must be an integer"))),
            }
        };
        let get_str = |k: &str| -> Result<&str, TraceError> {
            match get(k)? {
                JsonValue::Str(s) => Ok(s),
                JsonValue::Int(_) => Err(TraceError(format!("field {k:?} must be a string"))),
            }
        };
        // Absent numeric fields default to 0 so a reader of this
        // version accepts events written before the field existed
        // (e.g. v1 kernel events without quantiles).
        let get_u64_or_0 = |k: &str| -> Result<u64, TraceError> {
            match fields.iter().find(|(key, _)| key == k) {
                None => Ok(0),
                Some((_, JsonValue::Int(n))) => Ok(*n),
                Some((_, JsonValue::Str(_))) => {
                    Err(TraceError(format!("field {k:?} must be an integer")))
                }
            }
        };
        // Absent string fields default to empty so meta events from
        // older schema versions still parse (backend is pre-v3).
        let get_str_or_empty = |k: &str| -> Result<String, TraceError> {
            match fields.iter().find(|(key, _)| key == k) {
                Some((_, JsonValue::Str(s))) => Ok(s.clone()),
                Some((_, JsonValue::Int(_))) => {
                    Err(TraceError(format!("field {k:?} must be a string")))
                }
                None => Ok(String::new()),
            }
        };
        match get_str("type")? {
            "meta" => Ok(TraceEvent::Meta {
                version: get_u64("version")?,
                backend: get_str_or_empty("backend")?,
                // Pre-v8: no width field.
                simd_width_bits: get_u64_or_0("simd_width_bits")?,
                // Pre-v7: no blocking field.
                blocking: get_str_or_empty("blocking")?,
                // Pre-v5 metas carry none of these; default to 0.
                spans_dropped: get_u64_or_0("spans_dropped")?,
                roofline_mflops: get_u64_or_0("roofline_mflops")?,
                roofline_mbps: get_u64_or_0("roofline_mbps")?,
                // Pre-v6: no transport/wire fields.
                transport: get_str_or_empty("transport")?,
                wire_ops: get_u64_or_0("wire_ops")?,
                wire_ns: get_u64_or_0("wire_ns")?,
            }),
            "kernel" => {
                let name = get_str("kernel")?;
                let Some(kernel) = KernelId::ALL.into_iter().find(|k| k.paper_name() == name)
                else {
                    // A kernel this reader predates: skippable, not fatal.
                    return Ok(TraceEvent::Unknown {
                        event_type: format!("kernel:{name}"),
                    });
                };
                Ok(TraceEvent::Kernel {
                    source: get_str("source")?.to_string(),
                    kernel,
                    calls: get_u64("calls")?,
                    sites: get_u64("sites")?,
                    total_ns: get_u64("total_ns")?,
                    min_ns: get_u64("min_ns")?,
                    max_ns: get_u64("max_ns")?,
                    p50_ns: get_u64_or_0("p50_ns")?,
                    p95_ns: get_u64_or_0("p95_ns")?,
                    p99_ns: get_u64_or_0("p99_ns")?,
                })
            }
            "op" => {
                let name = get_str("op")?;
                let Some(op) = crate::cost::KernelOp::from_name(name) else {
                    // An entry point this reader predates.
                    return Ok(TraceEvent::Unknown {
                        event_type: format!("op:{name}"),
                    });
                };
                Ok(TraceEvent::Op {
                    source: get_str("source")?.to_string(),
                    op,
                    calls: get_u64("calls")?,
                    sites: get_u64("sites")?,
                    total_ns: get_u64("total_ns")?,
                    flops: get_u64_or_0("flops")?,
                    bytes_read: get_u64_or_0("bytes_read")?,
                    bytes_written: get_u64_or_0("bytes_written")?,
                })
            }
            "region" => Ok(TraceEvent::Region {
                source: get_str("source")?.to_string(),
                count: get_u64("count")?,
                fork_total_ns: get_u64("fork_total_ns")?,
                fork_max_ns: get_u64("fork_max_ns")?,
                join_total_ns: get_u64("join_total_ns")?,
                join_max_ns: get_u64("join_max_ns")?,
            }),
            "span" => Ok(TraceEvent::Span {
                source: get_str("source")?.to_string(),
                name: get_str("name")?.to_string(),
                start_ns: get_u64("start_ns")?,
                dur_ns: get_u64("dur_ns")?,
                depth: get_u64_or_0("depth")?,
            }),
            "metric" => Ok(TraceEvent::Metric {
                source: get_str("source")?.to_string(),
                name: get_str("name")?.to_string(),
                kind: get_str("kind")?.to_string(),
                value: get_u64("value")?,
            }),
            other => Ok(TraceEvent::Unknown {
                event_type: other.to_string(),
            }),
        }
    }
}

/// A malformed trace line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceError(pub String);

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error: {}", self.0)
    }
}

impl std::error::Error for TraceError {}

/// Converts one source's [`KernelStats`] into trace events: one
/// `kernel` event per kernel with at least one call, one `op` event
/// per concrete entry point with at least one call (carrying the
/// modeled roofline cost), plus one `region` event if any parallel
/// regions were recorded.
pub fn events_from_stats(source: &str, stats: &KernelStats) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for kernel in KernelId::ALL {
        let c = stats.get(kernel);
        if c.calls == 0 {
            continue;
        }
        let h = stats.timing(kernel);
        out.push(TraceEvent::Kernel {
            source: source.to_string(),
            kernel,
            calls: c.calls,
            sites: c.sites,
            total_ns: h.total_ns(),
            min_ns: h.min_ns().unwrap_or(0),
            max_ns: h.max_ns().unwrap_or(0),
            p50_ns: h.p50_ns().unwrap_or(0),
            p95_ns: h.p95_ns().unwrap_or(0),
            p99_ns: h.p99_ns().unwrap_or(0),
        });
    }
    for op in crate::cost::KernelOp::ALL {
        let o = stats.op(op);
        if o.calls == 0 {
            continue;
        }
        out.push(TraceEvent::Op {
            source: source.to_string(),
            op,
            calls: o.calls,
            sites: o.sites,
            total_ns: o.total_ns,
            flops: o.flops,
            bytes_read: o.bytes_read,
            bytes_written: o.bytes_written,
        });
    }
    let r = stats.regions();
    if r.count > 0 {
        out.push(TraceEvent::Region {
            source: source.to_string(),
            count: r.count,
            fork_total_ns: r.fork.total_ns(),
            fork_max_ns: r.fork.max_ns().unwrap_or(0),
            join_total_ns: r.join.total_ns(),
            join_max_ns: r.join.max_ns().unwrap_or(0),
        });
    }
    out
}

/// Converts per-track span snapshots into `span` trace events (one per
/// closed or auto-closed span), sorted by start time within each
/// track. The track label becomes the event source.
pub fn events_from_spans(tracks: &[TrackSnapshot]) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for track in tracks {
        for s in crate::span::pair_spans(&track.events) {
            out.push(TraceEvent::Span {
                source: track.label.clone(),
                name: s.name.to_string(),
                start_ns: s.start_ns,
                dur_ns: s.dur_ns,
                depth: s.depth as u64,
            });
        }
    }
    out
}

/// Converts a metrics snapshot ([`crate::metrics::snapshot`]) into
/// `metric` trace events attributed to `source`.
pub fn events_from_metrics(source: &str, samples: &[MetricSample]) -> Vec<TraceEvent> {
    samples
        .iter()
        .map(|s| match &s.value {
            MetricValue::Counter(v) => TraceEvent::Metric {
                source: source.to_string(),
                name: s.name.clone(),
                kind: "counter".to_string(),
                value: *v,
            },
            MetricValue::Gauge(v) => TraceEvent::Metric {
                source: source.to_string(),
                name: s.name.clone(),
                kind: "gauge".to_string(),
                value: *v,
            },
        })
        .collect()
}

/// Serializes events as a JSONL document (one event per line, trailing
/// newline).
pub fn write_jsonl(events: &[TraceEvent]) -> String {
    let mut s = String::new();
    for e in events {
        s.push_str(&e.to_json());
        s.push('\n');
    }
    s
}

/// Parses a JSONL document; blank lines are skipped, and events of
/// unknown type (a newer schema version) are dropped rather than
/// rejected. Malformed lines still error.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, TraceError> {
    let parsed: Result<Vec<TraceEvent>, TraceError> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(TraceEvent::from_json)
        .collect();
    Ok(parsed?
        .into_iter()
        .filter(|e| !matches!(e, TraceEvent::Unknown { .. }))
        .collect())
}

pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

enum JsonValue {
    Str(String),
    Int(u64),
}

/// Parses a single-level JSON object with string and non-negative
/// integer values — the full extent of the trace grammar.
fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, TraceError> {
    let bytes = line.trim().as_bytes();
    let err = |msg: &str| TraceError(format!("{msg} in {line:?}"));
    if bytes.first() != Some(&b'{') || bytes.last() != Some(&b'}') {
        return Err(err("not an object"));
    }
    let mut fields = Vec::new();
    let mut i = 1usize;
    let end = bytes.len() - 1;
    loop {
        while i < end && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= end {
            break;
        }
        let (key, next) = parse_string(bytes, i).map_err(&err)?;
        i = next;
        while i < end && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= end || bytes[i] != b':' {
            return Err(err("expected ':'"));
        }
        i += 1;
        while i < end && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let value = if i < end && bytes[i] == b'"' {
            let (s, next) = parse_string(bytes, i).map_err(&err)?;
            i = next;
            JsonValue::Str(s)
        } else {
            let start = i;
            while i < end && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if i == start {
                return Err(err("expected string or integer value"));
            }
            let n: u64 = std::str::from_utf8(&bytes[start..i])
                .map_err(|_| err("invalid utf-8 in integer"))?
                .parse()
                .map_err(|_| err("integer out of range"))?;
            JsonValue::Int(n)
        };
        fields.push((key, value));
        while i < end && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < end {
            if bytes[i] != b',' {
                return Err(err("expected ',' between fields"));
            }
            i += 1;
        }
    }
    Ok(fields)
}

/// Parses a JSON string starting at `bytes[i] == '"'`; returns the
/// unescaped contents and the index just past the closing quote.
fn parse_string(bytes: &[u8], i: usize) -> Result<(String, usize), &'static str> {
    if bytes.get(i) != Some(&b'"') {
        return Err("expected '\"'");
    }
    let mut out = String::new();
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'"' => return Ok((out, j + 1)),
            b'\\' => {
                j += 1;
                match bytes.get(j) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(j + 1..j + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        out.push(char::from_u32(hex).ok_or("bad \\u codepoint")?);
                        j += 4;
                    }
                    _ => return Err("bad escape"),
                }
                j += 1;
            }
            c => {
                // Multi-byte UTF-8 passes through unchanged.
                let ch_len = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let chunk = bytes.get(j..j + ch_len).ok_or("truncated string")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid utf-8")?);
                j += ch_len;
            }
        }
    }
    Err("unterminated string")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_event_roundtrips() {
        let e = TraceEvent::Kernel {
            source: "worker3".into(),
            kernel: KernelId::Newview,
            calls: 42,
            sites: 7000,
            total_ns: 123_456,
            min_ns: 800,
            max_ns: 9_000,
            p50_ns: 2_000,
            p95_ns: 8_000,
            p99_ns: 8_900,
        };
        let line = e.to_json();
        assert!(line.starts_with(r#"{"type":"kernel""#), "{line}");
        assert!(line.contains(r#""p95_ns":8000"#), "{line}");
        assert_eq!(TraceEvent::from_json(&line).unwrap(), e);
    }

    #[test]
    fn meta_span_and_metric_events_roundtrip() {
        let events = vec![
            TraceEvent::Meta {
                version: TRACE_VERSION,
                backend: "simd".into(),
                simd_width_bits: 512,
                blocking: "on".into(),
                spans_dropped: 3,
                roofline_mflops: 12_400,
                roofline_mbps: 21_000,
                transport: "uds".into(),
                wire_ops: 42,
                wire_ns: 9_000_000,
            },
            TraceEvent::Span {
                source: "worker1".into(),
                name: "spr_round".into(),
                start_ns: 1_000,
                dur_ns: 250_000,
                depth: 2,
            },
            TraceEvent::Metric {
                source: "process".into(),
                name: "spr.moves.accepted".into(),
                kind: "counter".into(),
                value: 17,
            },
        ];
        let doc = write_jsonl(&events);
        assert_eq!(parse_jsonl(&doc).unwrap(), events);
    }

    #[test]
    fn region_event_roundtrips() {
        let e = TraceEvent::Region {
            source: "master".into(),
            count: 9,
            fork_total_ns: 100,
            fork_max_ns: 40,
            join_total_ns: 5_000,
            join_max_ns: 900,
        };
        assert_eq!(TraceEvent::from_json(&e.to_json()).unwrap(), e);
    }

    #[test]
    fn jsonl_roundtrips_and_skips_blanks() {
        let events = vec![
            TraceEvent::Kernel {
                source: "serial".into(),
                kernel: KernelId::Evaluate,
                calls: 1,
                sites: 10,
                total_ns: 99,
                min_ns: 99,
                max_ns: 99,
                p50_ns: 99,
                p95_ns: 99,
                p99_ns: 99,
            },
            TraceEvent::Region {
                source: "master".into(),
                count: 2,
                fork_total_ns: 1,
                fork_max_ns: 1,
                join_total_ns: 2,
                join_max_ns: 1,
            },
        ];
        let mut doc = write_jsonl(&events);
        doc.push('\n'); // extra blank line
        assert_eq!(parse_jsonl(&doc).unwrap(), events);
    }

    #[test]
    fn stats_export_covers_active_kernels_and_regions() {
        let mut s = KernelStats::new();
        s.record_timed(KernelId::Newview, 100, 5_000);
        s.record_timed(KernelId::Newview, 100, 7_000);
        s.record_timed(KernelId::Evaluate, 100, 1_000);
        s.record_region(50, 2_000);
        let events = events_from_stats("w0", &s);
        assert_eq!(events.len(), 3); // 2 kernels + 1 region block
        match &events[0] {
            TraceEvent::Kernel {
                kernel,
                calls,
                sites,
                total_ns,
                min_ns,
                max_ns,
                ..
            } => {
                assert_eq!(*kernel, KernelId::Newview);
                assert_eq!((*calls, *sites), (2, 200));
                assert_eq!((*total_ns, *min_ns, *max_ns), (12_000, 5_000, 7_000));
            }
            other => panic!("expected kernel event, got {other:?}"),
        }
        assert!(matches!(
            events.last().unwrap(),
            TraceEvent::Region { count: 1, .. }
        ));
        // Idle kernels produce no events.
        assert!(!write_jsonl(&events).contains("derivativeSum"));
    }

    #[test]
    fn escaped_sources_roundtrip() {
        let e = TraceEvent::Kernel {
            source: "od\"d\\na\tme\u{1}".into(),
            kernel: KernelId::DerivativeCore,
            calls: 1,
            sites: 1,
            total_ns: 1,
            min_ns: 1,
            max_ns: 1,
            p50_ns: 1,
            p95_ns: 1,
            p99_ns: 1,
        };
        assert_eq!(TraceEvent::from_json(&e.to_json()).unwrap(), e);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"type":"kernel"}"#,
            r#"{"type":"kernel","source":"s","kernel":"newview","calls":"one","sites":1,"total_ns":1,"min_ns":1,"max_ns":1}"#,
        ] {
            assert!(TraceEvent::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn forward_compat_skips_unknown_types_keys_and_kernels() {
        // A "future" document: higher version, an event type we've
        // never heard of, an extra key on a known event, and a kernel
        // name this build doesn't implement.
        let doc = concat!(
            r#"{"type":"meta","version":99}"#,
            "\n",
            r#"{"type":"gpu_kernel","source":"cuda0","warp_ns":123}"#,
            "\n",
            r#"{"type":"kernel","source":"s","kernel":"newview","calls":1,"sites":10,"total_ns":50,"min_ns":50,"max_ns":50,"p50_ns":50,"p95_ns":50,"p99_ns":50,"future_field":7}"#,
            "\n",
            r#"{"type":"kernel","source":"s","kernel":"hyperview","calls":1,"sites":1,"total_ns":1,"min_ns":1,"max_ns":1}"#,
            "\n",
        );
        let events = parse_jsonl(doc).unwrap();
        // The unknown event type and unknown kernel were dropped; the
        // recognizable events survived, extra key ignored.
        assert_eq!(events.len(), 2);
        // Pre-v3 meta without a backend parses with empty strings.
        assert_eq!(
            events[0],
            TraceEvent::Meta {
                version: 99,
                backend: String::new(),
                simd_width_bits: 0,
                blocking: String::new(),
                spans_dropped: 0,
                roofline_mflops: 0,
                roofline_mbps: 0,
                transport: String::new(),
                wire_ops: 0,
                wire_ns: 0,
            }
        );
        assert!(
            matches!(&events[1], TraceEvent::Kernel { kernel, calls: 1, .. }
                if *kernel == KernelId::Newview)
        );
        // from_json exposes the skipped ones as Unknown.
        assert_eq!(
            TraceEvent::from_json(r#"{"type":"gpu_kernel","source":"x"}"#).unwrap(),
            TraceEvent::Unknown {
                event_type: "gpu_kernel".into()
            }
        );
        // So does a type this reader once knew: no writer has emitted
        // `metric_hist` since the histogram metric kind was removed.
        let hist = r#"{"type":"metric_hist","source":"process","name":"barrier.wait_ns","count":12,"total_ns":9000}"#;
        assert_eq!(
            TraceEvent::from_json(hist).unwrap(),
            TraceEvent::Unknown {
                event_type: "metric_hist".into()
            }
        );
        assert_eq!(parse_jsonl(&format!("{hist}\n")).unwrap(), vec![]);
    }

    #[test]
    fn op_event_roundtrips_and_unknown_op_degrades() {
        let e = TraceEvent::Op {
            source: "worker0".into(),
            op: crate::cost::KernelOp::NewviewIi,
            calls: 12,
            sites: 12_000,
            total_ns: 3_264_000,
            flops: 3_264_000,
            bytes_read: 3_168_000,
            bytes_written: 1_584_000,
        };
        let line = e.to_json();
        assert!(line.contains(r#""op":"newview_ii""#), "{line}");
        assert_eq!(TraceEvent::from_json(&line).unwrap(), e);
        // An op name from a future schema degrades to Unknown instead
        // of failing the whole file.
        assert_eq!(
            TraceEvent::from_json(
                r#"{"type":"op","source":"s","op":"newview_quantum","calls":1,"sites":1,"total_ns":1,"flops":1,"bytes_read":1,"bytes_written":1}"#
            )
            .unwrap(),
            TraceEvent::Unknown {
                event_type: "op:newview_quantum".into()
            }
        );
    }

    #[test]
    fn v4_meta_lines_parse_under_v7_reader() {
        // Exactly what a v4 writer produced: no spans_dropped, no
        // roofline fields, no transport/wire/blocking fields — and
        // the `site_repeats` key every writer up to PR 19 emitted,
        // which this reader skips like any key it does not know.
        let line = r#"{"type":"meta","version":4,"backend":"vector","site_repeats":"off"}"#;
        assert_eq!(
            TraceEvent::from_json(line).unwrap(),
            TraceEvent::Meta {
                version: 4,
                backend: "vector".into(),
                simd_width_bits: 0,
                blocking: String::new(),
                spans_dropped: 0,
                roofline_mflops: 0,
                roofline_mbps: 0,
                transport: String::new(),
                wire_ops: 0,
                wire_ns: 0,
            }
        );
    }

    #[test]
    fn v1_kernel_lines_without_quantiles_still_parse() {
        let line = r#"{"type":"kernel","source":"s","kernel":"evaluate","calls":3,"sites":30,"total_ns":300,"min_ns":90,"max_ns":110}"#;
        match TraceEvent::from_json(line).unwrap() {
            TraceEvent::Kernel {
                p50_ns,
                p95_ns,
                p99_ns,
                calls,
                ..
            } => {
                assert_eq!((p50_ns, p95_ns, p99_ns), (0, 0, 0));
                assert_eq!(calls, 3);
            }
            other => panic!("expected kernel, got {other:?}"),
        }
    }

    #[test]
    fn span_and_metric_export_helpers() {
        use crate::span::{SpanEvent, SpanPhase, TrackSnapshot};
        let track = TrackSnapshot {
            label: "worker0".into(),
            events: vec![
                SpanEvent {
                    name: "outer",
                    phase: SpanPhase::Begin,
                    t_ns: 10,
                },
                SpanEvent {
                    name: "inner",
                    phase: SpanPhase::Begin,
                    t_ns: 20,
                },
                SpanEvent {
                    name: "inner",
                    phase: SpanPhase::End,
                    t_ns: 30,
                },
                SpanEvent {
                    name: "outer",
                    phase: SpanPhase::End,
                    t_ns: 40,
                },
            ],
            recorded: 4,
            dropped: 0,
        };
        let events = events_from_spans(&[track]);
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0],
            TraceEvent::Span { source, name, start_ns: 10, dur_ns: 30, depth: 0 }
                if source == "worker0" && name == "outer"));

        let samples = vec![
            MetricSample {
                name: "test.trace.counter".into(),
                value: MetricValue::Counter(5),
            },
            MetricSample {
                name: "test.trace.gauge".into(),
                value: MetricValue::Gauge(9),
            },
        ];
        let events = events_from_metrics("process", &samples);
        let doc = write_jsonl(&events);
        assert_eq!(parse_jsonl(&doc).unwrap(), events);
        assert!(doc.contains(r#""kind":"counter","value":5"#), "{doc}");
    }
}
