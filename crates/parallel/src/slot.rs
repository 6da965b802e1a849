//! The broadcast-job / reply-slot protocol, factored out of the
//! fork-join evaluator.
//!
//! [`RegionProtocol`] owns the shared memory of one parallel region
//! scheme: a single job slot the master broadcasts through, one
//! cache-line-padded reply slot per *slice* — slot 0 is the master's,
//! slot `i + 1` worker `i`'s, because the master is a computing member
//! of the team — and the sense-reversing barrier whose passes delimit
//! the exclusive-access windows. It is generic over the job and reply
//! types, which is what lets the interleave model tests drive the
//! *exact production protocol* with small payloads (`u64`s instead of
//! trees and engines) — the synchronization under test is this struct,
//! not the kernels.
//!
//! # Protocol windows
//!
//! ```text
//!            master (slice 0)               worker i (slice i + 1)
//!   ┌─ publish_job(|j| …)      (workers blocked at fork barrier)
//!   ├─ fork()      ──────────────► fork()
//!   │  read_job(|j| …work…)        read_job(|j| …work…)
//!   │  write_reply(0, r)           write_reply(i + 1, r)  [own slot only]
//!   ├─ join()      ◄────────────── join()
//!   └─ take_reply(0 ..= workers)  (workers blocked at next fork)
//! ```
//!
//! With zero workers the barrier has one participant, both passes
//! return at once and the three windows follow each other on the
//! master's thread alone.
//!
//! Every access goes through the closure-scoped
//! [`UnsafeCell`](crate::sync::cell::UnsafeCell) facade, so compiling
//! with `--features interleave` turns each window violation into a
//! model-checker data-race report instead of silent UB.

use crate::barrier::{BarrierToken, Poisoned, SenseBarrier};
use crate::sync::cell;

/// Pads a slot to its own cache line so team members completing at
/// the same time don't false-share.
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub(crate) cell::UnsafeCell<T>);

/// Shared state of a fork-join region scheme for one computing master
/// plus `workers` workers: broadcast job slot, one reply slot per
/// slice, and the barrier separating their ownership windows.
pub struct RegionProtocol<J, R> {
    barrier: SenseBarrier,
    /// On a cache line of its own: a job edited in place is stored to
    /// several times per region, and next to the barrier word every
    /// one of those stores would take the line away from the workers
    /// spinning on it.
    job: CachePadded<J>,
    replies: Vec<CachePadded<R>>,
}

// SAFETY: `job` and `replies` hold `UnsafeCell`s accessed without
// locks. Races are excluded by the barrier protocol, which alternates
// exclusive-access windows:
//
// 1. The master writes `job` (`publish_job`) only while every worker
//    is blocked at the fork barrier — the steady-state invariant
//    between regions.
// 2. Between fork and join, the master and every worker read `job`
//    (shared, `read_job`) and the owner of slice `s` — the master for
//    `s = 0`, worker `s − 1` otherwise — writes only `replies[s]`
//    (`write_reply`, exclusive by index). The master does nothing
//    else in this window: it neither writes `job` nor touches a
//    worker's reply slot before its own join pass returns.
// 3. After the join barrier the master takes the replies
//    (`take_reply`); workers are already blocked at the next fork.
//
// The barrier's AcqRel/Acquire/Release orderings make every write
// before a barrier pass visible to every thread after it; the
// interleave model tests exercise exactly these windows, the master's
// window-2 accesses and the one-participant (zero-worker) case
// included. SAFETY of the bounds: `J: Send + Sync` because the master
// writes jobs and every team member reads them by reference;
// `R: Send` because replies move from workers to master.
unsafe impl<J: Send + Sync, R: Send> Sync for RegionProtocol<J, R> {}

impl<J, R: Default> RegionProtocol<J, R> {
    /// Creates the shared state for the master plus `workers` workers
    /// (zero is legal: a barrier of one), with the job slot holding
    /// `initial_job` and every reply slot holding `R::default()`.
    pub fn new(workers: usize, initial_job: J) -> Self {
        RegionProtocol {
            barrier: SenseBarrier::new(workers + 1),
            job: CachePadded(cell::UnsafeCell::new(initial_job)),
            replies: (0..=workers)
                .map(|_| CachePadded(cell::UnsafeCell::new(R::default())))
                .collect(),
        }
    }
}

impl<J, R> RegionProtocol<J, R> {
    /// Number of workers (team members besides the master).
    pub fn workers(&self) -> usize {
        self.replies.len() - 1
    }

    /// Number of slices, and of reply slots: the master's plus one
    /// per worker.
    pub fn slices(&self) -> usize {
        self.replies.len()
    }

    /// Master-side: broadcasts the next job by editing the slot in
    /// place (so a job that owns buffers can reuse them). Must only be
    /// called in window 1 (every worker blocked at the fork barrier).
    pub fn publish_job(&self, write: impl FnOnce(&mut J)) {
        self.job.0.with_mut(|p| {
            // SAFETY: window 1 — workers are blocked at the fork
            // barrier, so the master holds exclusive access to the
            // job slot.
            write(unsafe { &mut *p })
        });
    }

    /// A fork-barrier pass (master releases the workers into the
    /// job). Master and every worker must each call this once per
    /// region. Fails (promptly, no hang) once the protocol is
    /// poisoned by a dead participant.
    pub fn fork(&self, token: &mut BarrierToken) -> Result<(), Poisoned> {
        self.barrier.wait(token)
    }

    /// A join-barrier pass (workers hand the replies back). Master
    /// and every worker must each call this once per region — except
    /// for a shutdown region, where workers exit early and the master
    /// skips it too. Fails like [`Self::fork`] once poisoned.
    pub fn join(&self, token: &mut BarrierToken) -> Result<(), Poisoned> {
        self.barrier.wait(token)
    }

    /// Marks the protocol dead on behalf of participant `rank`
    /// (master = `workers()`, worker `i` = `i`): every blocked or
    /// future fork/join pass returns `Err(Poisoned)`. Called by a
    /// participant that must unwind outside the normal shutdown
    /// region so the others never deadlock.
    pub fn poison(&self, rank: usize) {
        self.barrier.poison(rank);
    }

    /// The poisoner's rank, if the protocol is dead.
    pub fn poisoned(&self) -> Option<usize> {
        self.barrier.poisoned()
    }

    /// Reads the broadcast job — the master and every worker alike.
    /// Must only be called in window 2 (between fork and join).
    pub fn read_job<T>(&self, f: impl FnOnce(&J) -> T) -> T {
        self.job.0.with(|p| {
            // SAFETY: window 2 — between fork and join nobody writes
            // the job slot; master and workers only read it.
            f(unsafe { &*p })
        })
    }

    /// Deposits the reply of slice `slice`. Must only be called in
    /// window 2, by the slice's owner (the master for 0, worker
    /// `slice − 1` otherwise).
    pub fn write_reply(&self, slice: usize, reply: R) {
        self.replies[slice].0.with_mut(|p| {
            // SAFETY: window 2 — the owner of `slice` is the sole
            // writer of its slot between fork and join, and nobody
            // reads it before the join barrier.
            unsafe { *p = reply }
        });
    }

    /// Master-side: takes the reply of slice `slice`, leaving
    /// `R::default()` behind. Must only be called in window 3 (after
    /// the join barrier).
    pub fn take_reply(&self, slice: usize) -> R
    where
        R: Default,
    {
        self.replies[slice].0.with_mut(|p| {
            // SAFETY: window 3 — the join barrier completed, so every
            // team member has written its reply and the workers moved
            // on to the next fork wait; the master owns the reply
            // array.
            unsafe { std::mem::take(&mut *p) }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn one_region_roundtrip() {
        const WORKERS: usize = 3;
        let proto = Arc::new(RegionProtocol::<u64, u64>::new(WORKERS, 0));
        let handles: Vec<_> = (1..=WORKERS)
            .map(|slice| {
                let proto = Arc::clone(&proto);
                std::thread::spawn(move || {
                    let mut token = BarrierToken::new();
                    proto.fork(&mut token).unwrap();
                    let job = proto.read_job(|j| *j);
                    proto.write_reply(slice, job * 10 + slice as u64);
                    proto.join(&mut token).unwrap();
                })
            })
            .collect();
        let mut token = BarrierToken::new();
        proto.publish_job(|j| *j = 7);
        proto.fork(&mut token).unwrap();
        // The master computes slice 0 between its two barrier passes.
        let job = proto.read_job(|j| *j);
        proto.write_reply(0, job * 10);
        proto.join(&mut token).unwrap();
        let replies: Vec<u64> = (0..proto.slices()).map(|s| proto.take_reply(s)).collect();
        assert_eq!(replies, vec![70, 71, 72, 73]);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn drained_slots_reset_to_default() {
        let proto = RegionProtocol::<u64, u64>::new(1, 0);
        proto.write_reply(0, 5);
        assert_eq!((proto.take_reply(0), proto.take_reply(1)), (5, 0));
        assert_eq!((proto.take_reply(0), proto.take_reply(1)), (0, 0));
        assert_eq!((proto.workers(), proto.slices()), (1, 2));
    }

    #[test]
    fn zero_workers_is_a_barrier_of_one() {
        // The whole protocol on the master's thread: neither pass
        // blocks, and the job slot keeps what an in-place edit left.
        let proto = RegionProtocol::<Vec<u64>, u64>::new(0, Vec::with_capacity(8));
        let mut token = BarrierToken::new();
        for region in 1..=3u64 {
            proto.publish_job(|j| {
                j.clear();
                j.push(region);
            });
            proto.fork(&mut token).unwrap();
            let reply = proto.read_job(|j| j[0] * 2);
            proto.write_reply(0, reply);
            proto.join(&mut token).unwrap();
            assert_eq!(proto.take_reply(0), region * 2);
        }
        assert_eq!((proto.workers(), proto.slices()), (0, 1));
    }

    #[test]
    fn the_job_slot_shares_no_cache_line_with_the_barrier() {
        // A job edited in place is stored to several times per region;
        // on the barrier word's line each store takes it from the
        // spinning workers (DESIGN.md §3, what a region costs).
        const LINE: usize = 128;
        assert!(std::mem::align_of::<CachePadded<u64>>() >= LINE);
        // Protocols side by side in one allocation: an unpadded layout
        // cannot pass on a lucky address for all of them.
        let protos: Vec<RegionProtocol<u64, u64>> =
            (0..4).map(|_| RegionProtocol::new(1, 0)).collect();
        let lines = |start: usize, len: usize| (start / LINE, (start + len - 1) / LINE);
        for (i, p) in protos.iter().enumerate() {
            let barrier = lines(
                std::ptr::addr_of!(p.barrier) as usize,
                std::mem::size_of_val(&p.barrier),
            );
            let job = lines(
                std::ptr::addr_of!(p.job) as usize,
                std::mem::size_of_val(&p.job),
            );
            assert!(
                barrier.1 < job.0 || job.1 < barrier.0,
                "protocol {i}: barrier on lines {barrier:?}, job on {job:?}"
            );
        }
    }
}
