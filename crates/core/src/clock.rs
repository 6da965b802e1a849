//! The one clock every measurement reads.
//!
//! Kernel op times, the fork-join master's barrier waits, the
//! AllReduce wire times, span timestamps and the CLI's search time all
//! come from [`now_ns`]: nanoseconds since a process-wide epoch that
//! the first read anchors, so readings from different threads share
//! one timeline. Deadlines and timeouts are control, not measurement,
//! and stay on `std::time::Instant`.
//!
//! A test binary can make the clock count instead ([`count_ticks`],
//! before the first read): each thread's reads then return 0, 1, 2, …
//! from a counter of its own, so a measured duration is the number of
//! reads nested inside it on its thread — for a fixed input, the same
//! number whatever the scheduler does. The mode is process-wide and
//! fixed by the first read, so a test that needs it runs in a binary
//! of its own.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

/// What [`now_ns`] reads, fixed for the process by the first read.
enum Clock {
    /// Real time since this instant.
    Wall(Instant),
    /// Per-thread read counts ([`count_ticks`]).
    Counting,
}

static CLOCK: OnceLock<Clock> = OnceLock::new();

thread_local! {
    static READS: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds since the process epoch, saturated into `u64`; under
/// the counting clock, the calling thread's count of earlier reads.
/// Non-decreasing on any one thread, so `now_ns() - t0` is a duration.
/// Costs one atomic load on top of the clock read.
#[inline]
pub fn now_ns() -> u64 {
    match CLOCK.get_or_init(|| Clock::Wall(Instant::now())) {
        Clock::Wall(epoch) => u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
        Clock::Counting => READS.with(|reads| {
            let n = reads.get();
            reads.set(n + 1);
            n
        }),
    }
}

/// Switches the process to the counting clock. Call it first thing in
/// a test binary; calling it again is harmless.
///
/// # Panics
/// Panics when the clock has already been read in real time.
#[doc(hidden)]
pub fn count_ticks() {
    let clock = CLOCK.get_or_init(|| Clock::Counting);
    assert!(
        matches!(clock, Clock::Counting),
        "clock::count_ticks must run before the first clock read"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_time_reads_never_go_back() {
        let mut last = now_ns();
        for _ in 0..1000 {
            let t = now_ns();
            assert!(t >= last);
            last = t;
        }
        // plf-core's unit tests read real time, so the switch refuses.
        assert!(std::panic::catch_unwind(count_ticks).is_err());
    }
}
