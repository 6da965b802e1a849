//! JSONL kernel-timing traces.
//!
//! A trace is a flat JSON-lines file: one event per line, each a small
//! flat object. Event kinds (schema version [`TRACE_VERSION`]):
//!
//! * `meta` — schema version marker and the run's resolved
//!   configuration, written first.
//! * `op` — one source's (a team member's or the serial engine's)
//!   accumulated invocations of one concrete kernel entry point
//!   ([`crate::cost::KernelOp`]) with its modeled roofline cost: calls,
//!   sites, wall time, flops, bytes read and written. A paper kernel's
//!   calls, sites and time are the sums of its ops' events.
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
//! tool (`jq`, pandas) reads it directly. The reader reads this
//! writer's version only: a `meta` event of any other version, an
//! unknown event type or op, and a missing field are each a
//! [`TraceError`]; keys it does not know are skipped.
//! `micsim::calibration` loads these events to fit measured per-call
//! and per-site kernel costs, replacing its hardware-derived defaults
//! with numbers observed on the actual host (`phylomic --trace-out`
//! writes them).

use crate::instrument::KernelStats;
use crate::metrics::{MetricSample, MetricValue};
use crate::span::TrackSnapshot;
use std::fmt::Write as _;

/// Current trace schema version, recorded in the leading `meta` event.
///
/// Version history: 1 = kernel + region events; 2 = meta/span/metric
/// events, kernel quantile fields; 3 = meta `backend`; 4 = meta
/// `site_repeats` (since dropped); 5 = `op` events with modeled
/// roofline cost, meta `spans_dropped` and the host roofline
/// (`roofline_mflops` / `roofline_mbps`, 0 = uncalibrated); 6 = meta
/// `transport`, `wire_ops`, `wire_ns` (measured collectives); 7 = meta
/// `blocking`; 8 = meta `simd_width_bits`; 9 = no `kernel` events (they
/// repeated the sums of the `op` events), and the reader refuses every
/// other version.
pub const TRACE_VERSION: u64 = 9;

/// One line of a trace file.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// Schema version marker (first line of a trace document).
    Meta {
        /// Schema version the writer produced.
        version: u64,
        /// The resolved kernel backend the run used (`"scalar"` or
        /// `"simd"`).
        backend: String,
        /// Vector width in bits the backend ran its matrix kernels with
        /// ([`crate::KernelKind::simd_width_bits`]: 512, 256, or 0 for
        /// the scalar loops).
        simd_width_bits: u64,
        /// The resolved traversal cache-blocking mode (`"on"` or
        /// `"off"` — `auto` resolves against the pattern count before
        /// the meta is written).
        blocking: String,
        /// Span events lost to per-thread ring overflow before export
        /// (summed over tracks).
        spans_dropped: u64,
        /// Calibrated host peak in MFLOP/s (`plf-prof` FMA probe);
        /// 0 when the host was not calibrated. Integer milli-G units
        /// keep the flat integer trace grammar.
        roofline_mflops: u64,
        /// Calibrated host STREAM-triad bandwidth in MB/s; 0 when
        /// uncalibrated.
        roofline_mbps: u64,
        /// The replicated-search transport that ran the collectives
        /// (`"threads"`, `"uds"`); empty for non-replicated runs.
        transport: String,
        /// Collectives measured at the communicator call boundary,
        /// summed over ranks; 0 for non-replicated runs.
        wire_ops: u64,
        /// Total wall time those collectives spent "on the wire",
        /// nanoseconds summed over ranks; 0 when `wire_ops` is 0.
        wire_ns: u64,
    },
    /// Accumulated cost-model roofline numbers of one concrete kernel
    /// entry point at one source.
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
        match get_str("type")? {
            "meta" => {
                let version = get_u64("version")?;
                if version != TRACE_VERSION {
                    return Err(TraceError(format!(
                        "trace schema v{version} is not readable: this reader reads \
                         v{TRACE_VERSION} only (re-record the trace)"
                    )));
                }
                Ok(TraceEvent::Meta {
                    version,
                    backend: get_str("backend")?.to_string(),
                    simd_width_bits: get_u64("simd_width_bits")?,
                    blocking: get_str("blocking")?.to_string(),
                    spans_dropped: get_u64("spans_dropped")?,
                    roofline_mflops: get_u64("roofline_mflops")?,
                    roofline_mbps: get_u64("roofline_mbps")?,
                    transport: get_str("transport")?.to_string(),
                    wire_ops: get_u64("wire_ops")?,
                    wire_ns: get_u64("wire_ns")?,
                })
            }
            "op" => {
                let name = get_str("op")?;
                let op = crate::cost::KernelOp::from_name(name)
                    .ok_or_else(|| TraceError(format!("unknown op {name:?} in {line:?}")))?;
                Ok(TraceEvent::Op {
                    source: get_str("source")?.to_string(),
                    op,
                    calls: get_u64("calls")?,
                    sites: get_u64("sites")?,
                    total_ns: get_u64("total_ns")?,
                    flops: get_u64("flops")?,
                    bytes_read: get_u64("bytes_read")?,
                    bytes_written: get_u64("bytes_written")?,
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
                depth: get_u64("depth")?,
            }),
            "metric" => Ok(TraceEvent::Metric {
                source: get_str("source")?.to_string(),
                name: get_str("name")?.to_string(),
                kind: get_str("kind")?.to_string(),
                value: get_u64("value")?,
            }),
            other => Err(TraceError(format!(
                "unknown event type {other:?} in {line:?}"
            ))),
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

/// Converts one source's [`KernelStats`] into trace events: one `op`
/// event per concrete entry point with at least one call (carrying the
/// modeled roofline cost), in [`crate::cost::KernelOp::ALL`] order,
/// plus one `region` event if any parallel regions were recorded.
pub fn events_from_stats(source: &str, stats: &KernelStats) -> Vec<TraceEvent> {
    let mut out = Vec::new();
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
            fork_max_ns: r.fork.max_ns(),
            join_total_ns: r.join.total_ns(),
            join_max_ns: r.join.max_ns(),
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

/// Parses a JSONL document; blank lines are skipped, and the first
/// line [`TraceEvent::from_json`] refuses fails the document.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, TraceError> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(TraceEvent::from_json)
        .collect()
}

/// Escapes `s` for a JSON string literal: `"` and `\`, and every
/// control character (as `\n`, `\t`, `\r` or `\u00XX`).
///
/// One of the workspace's two escapers, with `plf_prof::json::escape`.
/// They stay two because neither crate may depend on the other:
/// `plf_e2e/Cargo.lock` is committed with the benchmark and pins the
/// dependency edges of `plf-core` and `plf-prof`, so a new edge between
/// them would rewrite it.
pub fn escape(s: &str) -> String {
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
    use crate::cost::KernelOp;

    fn meta() -> TraceEvent {
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
        }
    }

    fn op_event(source: &str) -> TraceEvent {
        TraceEvent::Op {
            source: source.into(),
            op: KernelOp::NewviewIi,
            calls: 12,
            sites: 12_000,
            total_ns: 3_264_000,
            flops: 3_264_000,
            bytes_read: 3_168_000,
            bytes_written: 1_584_000,
        }
    }

    #[test]
    fn meta_span_and_metric_events_roundtrip() {
        let events = vec![
            meta(),
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
            op_event("serial"),
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
        s.record_op_timed(KernelOp::NewviewIi, 100, 5_000);
        s.record_op_timed(KernelOp::NewviewIi, 100, 7_000);
        s.record_op_timed(KernelOp::EvaluateIi, 100, 1_000);
        s.record_region(50, 2_000);
        let events = events_from_stats("w0", &s);
        assert_eq!(events.len(), 3); // 2 ops + 1 region block
        match &events[0] {
            TraceEvent::Op {
                op,
                calls,
                sites,
                total_ns,
                flops,
                ..
            } => {
                assert_eq!(*op, KernelOp::NewviewIi);
                assert_eq!((*calls, *sites, *total_ns), (2, 200, 12_000));
                assert_eq!(*flops, KernelOp::NewviewIi.cost(200).flops);
            }
            other => panic!("expected op event, got {other:?}"),
        }
        assert!(matches!(
            events.last().unwrap(),
            TraceEvent::Region {
                count: 1,
                fork_max_ns: 50,
                join_max_ns: 2_000,
                ..
            }
        ));
        // Idle ops produce no events.
        assert!(!write_jsonl(&events).contains("derivative"));
    }

    #[test]
    fn escaped_sources_roundtrip() {
        let e = op_event("od\"d\\na\tme\u{1}");
        let line = e.to_json();
        assert!(!line.bytes().any(|b| b < 0x20), "{line:?}");
        assert_eq!(TraceEvent::from_json(&line).unwrap(), e);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"type":"op"}"#,
            r#"{"type":"op","source":"s","op":"newview_ii","calls":"one","sites":1,"total_ns":1,"flops":1,"bytes_read":1,"bytes_written":1}"#,
        ] {
            assert!(TraceEvent::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn op_event_roundtrips_and_unknown_op_is_refused() {
        let e = op_event("worker0");
        let line = e.to_json();
        assert!(line.contains(r#""op":"newview_ii""#), "{line}");
        assert_eq!(TraceEvent::from_json(&line).unwrap(), e);
        let err = TraceEvent::from_json(
            r#"{"type":"op","source":"s","op":"newview_quantum","calls":1,"sites":1,"total_ns":1,"flops":1,"bytes_read":1,"bytes_written":1}"#,
        )
        .unwrap_err();
        assert!(err.0.contains("unknown op \"newview_quantum\""), "{err}");
    }

    #[test]
    fn other_versions_unknown_types_and_missing_fields_are_refused() {
        // Every field of every event is required: drop any one key of
        // a written line and the line is refused, naming it.
        for e in [
            meta(),
            op_event("s"),
            TraceEvent::Region {
                source: "master".into(),
                count: 1,
                fork_total_ns: 1,
                fork_max_ns: 1,
                join_total_ns: 1,
                join_max_ns: 1,
            },
        ] {
            let line = e.to_json();
            let body = &line[1..line.len() - 1];
            for field in body.split(',').skip(1) {
                let key = field.split(':').next().unwrap();
                let cut = line.replace(&format!(",{field}"), "");
                let err = TraceEvent::from_json(&cut).unwrap_err();
                assert!(err.0.contains(&format!("missing field {key}")), "{err}");
            }
        }
        // A meta of any other version fails the whole document, naming
        // the version; so does an event type this reader does not
        // write — `kernel` (v1–v8) among them.
        for version in [1, 8, 10] {
            let doc = meta().to_json().replace(
                &format!(r#""version":{TRACE_VERSION}"#),
                &format!(r#""version":{version}"#),
            );
            let err = parse_jsonl(&doc).unwrap_err();
            assert!(
                err.0.contains(&format!("v{version} is not readable")),
                "{err}"
            );
        }
        for line in [
            r#"{"type":"kernel","source":"s","kernel":"newview","calls":1,"sites":10,"total_ns":50,"min_ns":50,"max_ns":50}"#,
            r#"{"type":"gpu_kernel","source":"cuda0","warp_ns":123}"#,
        ] {
            let err = parse_jsonl(&format!("{}\n{line}\n", meta().to_json())).unwrap_err();
            assert!(err.0.contains("unknown event type"), "{err}");
        }
        // Keys the reader does not know are skipped.
        let extra = op_event("s")
            .to_json()
            .replace('}', r#","future_field":7}"#);
        assert_eq!(TraceEvent::from_json(&extra).unwrap(), op_event("s"));
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
