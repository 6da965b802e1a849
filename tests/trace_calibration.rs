//! End-to-end measured-timing loop: an instrumented fork-join run →
//! per-slice op events and the master's region events → JSONL
//! (the `--trace-out` format) → `micsim` measured-cost calibration
//! fit. This is the full pipeline the `phylomic search --trace-out`
//! flag enables.
//!
//! `region_waits_do_not_contain_the_kernels` lives in
//! `tests/region_waits.rs`: its wall-clock bound must not share the
//! CPUs with the fork-join teams these tests run.

mod forkjoin_trace;

use forkjoin_trace::record_forkjoin_trace;
use phylomic::micsim::calibration::MeasuredHostCosts;
use phylomic::micsim::WorkloadTrace;
use phylomic::plf::trace::{parse_jsonl, write_jsonl, TraceEvent};
use phylomic::plf::KernelId;

#[test]
fn forkjoin_trace_roundtrips_through_jsonl() {
    let events = record_forkjoin_trace(2);
    // Every team member contributed op events, the master among
    // them; the master also contributed a region block with one
    // region per dispatched job.
    let kernel_sources: std::collections::BTreeSet<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Op { source, .. } => Some(source.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(
        kernel_sources.into_iter().collect::<Vec<_>>(),
        vec!["master", "worker0", "worker1"]
    );
    let regions: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Region { .. }))
        .collect();
    assert_eq!(regions.len(), 1);
    match regions[0] {
        // 6 evals + prepare + derivatives + take_stats = 9 regions.
        TraceEvent::Region { source, count, .. } => {
            assert_eq!(source, "master");
            assert_eq!(*count, 9);
        }
        _ => unreachable!(),
    }
    // The JSONL writer/parser round-trips the whole document.
    let doc = write_jsonl(&events);
    assert_eq!(parse_jsonl(&doc).unwrap(), events);
}

#[test]
fn measured_calibration_fits_real_forkjoin_timings() {
    // Mix team sizes (1, 2 and 5 slices) so the fit sees several
    // distinct sites-per-call widths per kernel.
    let mut events = record_forkjoin_trace(0);
    events.extend(record_forkjoin_trace(1));
    events.extend(record_forkjoin_trace(4));
    let doc = write_jsonl(&events);

    let costs = MeasuredHostCosts::from_jsonl(&doc).expect("trace must calibrate");
    // The same events reconstruct a WorkloadTrace for the analytical
    // model path; its per-kernel view is the observed workload.
    let trace = WorkloadTrace::from_trace_events(&events, 0, 1200);
    assert!(costs.predict_run_s(&trace) > 0.0);
    for k in [KernelId::Newview, KernelId::Evaluate] {
        let fit = costs.fit(k);
        assert!(fit.samples >= 3, "{k:?}: {} samples", fit.samples);
        assert!(
            fit.per_call_ns >= 0.0 && fit.per_site_ns >= 0.0,
            "{k:?}: negative cost"
        );
        assert!(
            fit.per_call_ns > 0.0 || fit.per_site_ns > 0.0,
            "{k:?}: fit degenerate — real kernels cost time"
        );
        // Sanity: predicted time of the observed workload is within
        // 100x of the observed total (the fit interpolates noisy
        // samples; it must stay on the right order of magnitude).
        let observed = trace.stats.get(k);
        let predicted = fit.predict_ns(observed.calls, observed.sites);
        let observed = observed.total_ns as f64;
        assert!(
            predicted > observed / 100.0 && predicted < observed * 100.0,
            "{k:?}: predicted {predicted} vs observed {observed}"
        );
    }
    // Region latencies fed the synchronization-cost side.
    assert!(costs.region_overhead_s() > 0.0);
}
