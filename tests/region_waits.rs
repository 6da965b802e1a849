//! The fork-join master's region waits hold no kernel time.
//!
//! Runs under the counting clock (`plf::clock::count_ticks`), where a
//! measured duration is the number of clock reads nested inside it on
//! its own thread: exact for a fixed input, whatever the scheduler
//! does. The switch is process-wide, and `tests/trace_calibration.rs`
//! reads real time, so this is a test binary of its own.

mod forkjoin_trace;

use forkjoin_trace::{dataset, record_forkjoin_trace};
use phylomic::plf::trace::TraceEvent;
use phylomic::plf::{clock, EngineConfig, KernelOp, LikelihoodEngine};
use phylomic::search::{MlSearch, SearchConfig};

#[test]
fn region_waits_do_not_contain_the_kernels() {
    clock::count_ticks();
    // The join wait is a pure wait: the master's own share of the job
    // runs between the two barrier passes and is timed with its
    // kernels, not with the barrier — `micsim` charges the region
    // waits as synchronization *on top of* the kernel fits, so kernel
    // time booked as "join" would be charged twice. Each wait is one
    // tick (its closing read); a kernel timed inside it adds two more.
    for workers in 0..3 {
        let team = workers + 1;
        let events = record_forkjoin_trace(workers);
        let Some(&TraceEvent::Region {
            count,
            fork_total_ns,
            fork_max_ns,
            join_total_ns,
            join_max_ns,
            ..
        }) = events
            .iter()
            .find(|e| matches!(e, TraceEvent::Region { .. }))
        else {
            panic!("team of {team}: no region event in {events:?}");
        };
        assert!(count > 0, "team of {team}: no region ran");
        assert_eq!(
            (fork_total_ns, fork_max_ns),
            (count, 1),
            "team of {team}: the master's fork wait read (total, max) ticks over {count} regions"
        );
        assert_eq!(
            (join_total_ns, join_max_ns),
            (count, 1),
            "team of {team}: the master's join wait read (total, max) ticks over {count} regions"
        );
    }

    // Likewise no per-op timer nests another clock read: on the serial
    // engine every evaluate, derivativeSum and derivativeCore call is
    // one tick. (A `newview` is timed per cache block, so it is not.)
    let (mut tree, aln) = dataset();
    let mut engine = LikelihoodEngine::new(&tree, &aln, EngineConfig::default());
    let search = MlSearch::new(SearchConfig {
        max_rounds: 1,
        optimize_model: false,
        ..SearchConfig::default()
    });
    search.run(&mut engine, &mut tree);
    for op in [
        KernelOp::EvaluateTi,
        KernelOp::EvaluateIi,
        KernelOp::DerivativeSumTi,
        KernelOp::DerivativeSumIi,
        KernelOp::DerivativeCore,
    ] {
        let cost = engine.stats().op(op);
        assert!(cost.calls > 0, "the search never ran {}", op.name());
        assert_eq!(
            cost.total_ns,
            cost.calls,
            "serial {}: ticks against calls",
            op.name()
        );
    }
}
