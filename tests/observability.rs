//! Integration tests of the tracing subsystem across crates: spans
//! recorded by the search and fork-join layers, the metrics registry,
//! the JSONL trace schema, the Chrome exporter, and `TraceReport`.
//!
//! Spans and metrics are process-global, and the test harness runs
//! tests concurrently — assertions here check presence and lower
//! bounds, never exact global counts.

use phylomic::bio::CompressedAlignment;
use phylomic::micsim::TraceReport;
use phylomic::models::{DiscreteGamma, Gtr, GtrParams};
use phylomic::parallel::ForkJoinEvaluator;
use phylomic::plf::trace::{
    events_from_metrics, events_from_spans, parse_jsonl, write_jsonl, TraceEvent, TRACE_VERSION,
};
use phylomic::plf::{metrics, span, EngineConfig, KernelId, KernelKind};
use phylomic::search::{MlSearch, SearchConfig};
use phylomic::tree::build::{default_names, random_tree};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Spawned workers; the team is one larger (the master computes).
const WORKERS: usize = 2;

/// One small fork-join search, returning the full event stream the
/// CLI would write with `--trace-out`.
fn traced_forkjoin_search() -> Vec<TraceEvent> {
    let mut rng = SmallRng::seed_from_u64(2024);
    let names = default_names(7);
    let true_tree = random_tree(&names, 0.12, &mut rng).unwrap();
    let g = Gtr::new(GtrParams::jc69());
    let gamma = DiscreteGamma::new(1.0);
    let aln = phylomic::seqgen::simulate_alignment(&true_tree, g.eigen(), &gamma, 800, &mut rng);
    let ca = CompressedAlignment::from_alignment(&aln);
    let mut tree = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(3)).unwrap();

    let mut fj = ForkJoinEvaluator::new(&tree, &ca, EngineConfig::default(), WORKERS);
    let search = MlSearch::new(SearchConfig {
        max_rounds: 1,
        optimize_model: false,
        ..Default::default()
    });
    search.run(&mut fj, &mut tree);

    let mut events = vec![TraceEvent::Meta {
        version: TRACE_VERSION,
        backend: KernelKind::Simd.resolve().to_string(),
        simd_width_bits: KernelKind::Simd.resolve().simd_width_bits().into(),
        blocking: phylomic::plf::Blocking::Auto.to_string(),
        spans_dropped: span::snapshot_all().iter().map(|t| t.dropped).sum(),
        roofline_mflops: 0,
        roofline_mbps: 0,
        transport: String::new(),
        wire_ops: 0,
        wire_ns: 0,
    }];
    events.extend(fj.take_trace_events());
    events.extend(events_from_spans(&span::snapshot_all()));
    events.extend(events_from_metrics("process", &metrics::snapshot()));
    events
}

#[test]
fn traced_search_roundtrips_and_reports() {
    let events = traced_forkjoin_search();

    // JSONL round-trip preserves every event.
    let doc = write_jsonl(&events);
    assert_eq!(parse_jsonl(&doc).unwrap(), events);

    // Search-layer spans made it into the stream.
    let span_names: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    for expected in ["search", "spr_round", "branch_opt"] {
        assert!(
            span_names.contains(&expected),
            "span {expected:?} missing; saw {:?}",
            {
                let mut u: Vec<&&str> = span_names.iter().collect();
                u.sort();
                u.dedup();
                u
            }
        );
    }

    // A worker opens no span per region; its evaluate work is in its
    // own `op` events.
    for i in 0..WORKERS {
        let source = format!("worker{i}");
        assert!(
            events.iter().any(|e| matches!(e,
                TraceEvent::Op { source: s, op, calls, .. }
                    if *s == source && op.kernel_id() == KernelId::Evaluate && *calls > 0)),
            "{source} has no evaluate op event"
        );
    }

    // Core and search metrics are present with sane values.
    let metric = |wanted: &str| {
        events.iter().find_map(|e| match e {
            TraceEvent::Metric { name, value, .. } if name == wanted => Some(*value),
            _ => None,
        })
    };
    assert!(metric("core.patterns.evaluated").unwrap_or(0) > 0);
    assert!(metric("spr.moves.evaluated").unwrap_or(0) > 0);
    assert!(metric("newton.iterations").unwrap_or(0) > 0);
    assert!(metric("smooth.passes").unwrap_or(0) > 0);
    assert!(metric("smooth.branches").unwrap_or(0) > 0);
    // The master's `region` event counts the regions, each one fork
    // and one join barrier pass.
    let regions_counted = events.iter().find_map(|e| match e {
        TraceEvent::Region { source, count, .. } if source == "master" => Some(*count),
        _ => None,
    });
    assert!(regions_counted.unwrap_or(0) > 0);
    assert_eq!(metric("forkjoin.workers"), Some(WORKERS as u64));

    // The report digests the stream: all kernels accounted, shares sum
    // to 1, one busy row per team member (the computing master's
    // slice first), and a usable cost table.
    let report = TraceReport::from_events(&events);
    assert_eq!(report.version, Some(TRACE_VERSION));
    assert!(!report.kernels.is_empty());
    let share_sum: f64 = report.kernels.iter().map(|k| k.share).sum();
    assert!((share_sum - 1.0).abs() < 1e-9, "{share_sum}");
    assert_eq!(report.workers.len(), WORKERS + 1);
    assert_eq!(report.workers[0].source, "master");
    assert!(report.workers.iter().all(|w| w.busy_ns > 0 && w.sites > 0));
    assert!(report.imbalance.unwrap() >= 1.0);
    let regions = report.regions.expect("fork-join trace has regions");
    assert!(regions.count > 0);
    assert!((0.0..=1.0).contains(&regions.overhead_fraction));
    assert!(report.costs.is_some());
    let rendered = report.render();
    assert!(rendered.contains("kernel time shares"), "{rendered}");

    // Op events carry modeled roofline costs into the report.
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::Op { flops, .. } if *flops > 0)));
    assert!(!report.ops.is_empty());
    assert!(rendered.contains("op roofline"), "{rendered}");
    assert!(report.render_json().contains(r#""ops":[{"op":"#));
}

#[test]
fn chrome_export_has_no_track_for_a_worker() {
    // A worker records no span, so it registers no track: after a
    // fork-join search the export carries the master's track and none
    // named after a worker (tests share the process-global recorder,
    // and no test here labels a thread `worker…`).
    let _ = traced_forkjoin_search();
    let tracks = span::snapshot_all();
    let json = span::chrome_trace_json(&tracks);
    assert!(json.starts_with(r#"{"traceEvents":["#));
    assert!(json.contains(r#""name":"master""#), "master track missing");
    for i in 0..WORKERS {
        assert!(
            !json.contains(&format!(r#""name":"worker{i}""#)),
            "worker{i} has a track"
        );
    }
    // Every span is one complete event (the exporter pairs begin and
    // end itself, closing leftovers), so no begin can go unmatched.
    let count = |ph: &str| json.matches(&format!(r#""ph":"{ph}""#)).count();
    assert_eq!(count("B") + count("E"), 0);
    assert!(count("X") > 0);
    assert_eq!(count("M"), tracks.len());
}
