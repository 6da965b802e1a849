//! The broadcast-job / reply-slot protocol, factored out of the
//! fork-join evaluator.
//!
//! [`RegionProtocol`] owns the shared memory of one parallel region
//! scheme: a single job slot the master broadcasts through, one
//! cache-line-padded reply slot per *slice* — slot 0 is the master's,
//! slot `i + 1` worker `i`'s, because the master is a computing member
//! of the team — and the sense-reversing barrier whose passes delimit
//! the windows below. It is generic over the job and reply types,
//! which is what lets the interleave model tests drive the *exact
//! production protocol* with small payloads (`u64`s instead of trees
//! and engines) — the synchronization under test is this struct, not
//! the kernels.
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
//! The job slot is an `RwLock` — every member runs the whole job under
//! a shared read lock, which a `Mutex` would serialise — and each reply
//! slot a `Mutex`. The windows keep the job's writer apart from its
//! readers and give each reply slot one user at a time, so no member
//! ever waits on a lock. With one worker — the only team measured
//! (EXPERIMENTS.md) — a lock costs one uncontended atomic
//! read-modify-write to take and one to give back; with more, the
//! readers' updates of the job lock's count share its cache line, at
//! a cost not measured. A member that breaks a window gets a wrong
//! reply, never undefined behaviour, and the interleave models catch
//! it through the replies.
//! A poisoned lock is used as it is, because no panic can leave a
//! slot half-updated for a reader: a reply is moved in and out whole,
//! a job runs under a read lock, which never poisons (its panic is
//! caught inside the job and surfaced as a reply), and a job left
//! half-edited by a panicking `publish_job` is edited again by the
//! next one before any member reads it. A dead member poisons the
//! barrier instead, so the worker tier has no panic of its own.

use crate::barrier::{BarrierToken, Poisoned, SenseBarrier};
use crate::sync::{Mutex, RwLock};
use std::sync::PoisonError;

/// Pads a slot to its own cache line so team members completing at
/// the same time don't false-share.
#[repr(align(128))]
struct CachePadded<T>(T);

/// Shared state of a fork-join region scheme for one computing master
/// plus `workers` workers: broadcast job slot, one reply slot per
/// slice, and the barrier separating their ownership windows.
pub struct RegionProtocol<J, R> {
    barrier: SenseBarrier,
    /// On a cache line of its own: a job edited in place is stored to
    /// several times per region, and next to the barrier word every
    /// one of those stores would take the line away from the workers
    /// spinning on it.
    job: CachePadded<RwLock<J>>,
    replies: Vec<CachePadded<Mutex<R>>>,
}

impl<J, R: Default> RegionProtocol<J, R> {
    /// Creates the shared state for the master plus `workers` workers
    /// (zero is legal: a barrier of one), with the job slot holding
    /// `initial_job` and every reply slot holding `R::default()`.
    pub fn new(workers: usize, initial_job: J) -> Self {
        RegionProtocol {
            barrier: SenseBarrier::new(workers + 1),
            job: CachePadded(RwLock::new(initial_job)),
            replies: (0..=workers)
                .map(|_| CachePadded(Mutex::new(R::default())))
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
    /// place (so a job that owns buffers can reuse them). Belongs in
    /// window 1 (every worker blocked at the fork barrier).
    pub fn publish_job(&self, write: impl FnOnce(&mut J)) {
        write(&mut self.job.0.write().unwrap_or_else(PoisonError::into_inner));
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

    /// Reads the broadcast job — the master and every worker alike,
    /// all at once under shared read locks. Belongs in window 2
    /// (between fork and join).
    pub fn read_job<T>(&self, f: impl FnOnce(&J) -> T) -> T {
        f(&self.job.0.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Deposits the reply of slice `slice`. Belongs in window 2, by
    /// the slice's owner (the master for 0, worker `slice − 1`
    /// otherwise).
    pub fn write_reply(&self, slice: usize, reply: R) {
        *self.replies[slice]
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = reply;
    }

    /// Master-side: takes the reply of slice `slice`, leaving
    /// `R::default()` behind. Belongs in window 3 (after the join
    /// barrier).
    pub fn take_reply(&self, slice: usize) -> R
    where
        R: Default,
    {
        std::mem::take(
            &mut self.replies[slice]
                .0
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
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
