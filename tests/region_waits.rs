//! The fork-join master's region waits hold no kernel time.
//!
//! A test binary of its own: its bound reads the wall clock, and the
//! fork-join teams of 2, 3 and 5 threads that `tests/trace_calibration.rs`
//! runs would otherwise share the CPUs with it while it measures.

mod forkjoin_trace;

use forkjoin_trace::record_forkjoin_trace;
use phylomic::micsim::calibration::MeasuredHostCosts;
use phylomic::plf::trace::TraceEvent;

#[test]
fn region_waits_do_not_contain_the_kernels() {
    // The join wait is a pure wait: the master's own share of the job
    // runs between the two barrier passes and is timed with its
    // kernels, not with the barrier — `micsim` charges the region
    // waits as synchronization *on top of* the kernel fits, so kernel
    // time booked as "join" would be charged twice. On a team of one
    // nobody is ever waited for: both waits are a few clock reads
    // while every region runs kernels over 1200 columns.
    let events = record_forkjoin_trace(0);
    let costs = MeasuredHostCosts::from_events(&events).unwrap();
    let (mut regions, mut kernel_ns) = (0u64, 0u64);
    for e in &events {
        match e {
            TraceEvent::Region { count, .. } => regions += count,
            TraceEvent::Op { total_ns, .. } => kernel_ns += total_ns,
            _ => {}
        }
    }
    let kernel_per_region = kernel_ns as f64 / regions as f64;
    assert!(
        costs.region_fork_ns + costs.region_join_ns < kernel_per_region / 4.0,
        "fork {} + join {} ns per region against {kernel_per_region} ns of kernels",
        costs.region_fork_ns,
        costs.region_join_ns
    );
}
