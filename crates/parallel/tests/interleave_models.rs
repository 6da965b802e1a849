//! Model-checking the production synchronization protocols.
//!
//! These tests compile the crate's barrier / region-protocol / comm
//! code against the `interleave` shims (`--features interleave`) and
//! explore every bounded interleaving and weak-memory outcome. They
//! check the protocol windows documented in `slot.rs` and the slot
//! exchange documented in `comm.rs`.
//!
//! Run locally with:
//!
//! ```text
//! cargo test -p phylo-parallel --no-default-features \
//!     --features interleave --test interleave_models
//! ```
//!
//! The `seed-ordering-bug` feature weakens the barrier's sense-flip
//! store to `Relaxed`; the `seeded_*` test proves the checker catches
//! the resulting stale read (CI runs both configurations).
#![cfg(feature = "interleave")]

use interleave::sync::atomic::{AtomicU64, Ordering};
use interleave::Checker;
use phylo_parallel::barrier::BarrierToken;
#[cfg(not(feature = "seed-ordering-bug"))]
use phylo_parallel::RegionProtocol;
use phylo_parallel::SenseBarrier;
use std::sync::Arc;

/// The barrier phase-counter protocol: every participant increments a
/// relaxed counter *before* its barrier arrival; after the barrier,
/// every participant must observe all increments. This is exactly the
/// visibility guarantee fork-join reply collection relies on.
fn barrier_publishes_counter() {
    const THREADS: u64 = 2;
    let barrier = Arc::new(SenseBarrier::new(THREADS as usize));
    let counter = Arc::new(AtomicU64::new(0));
    let (b2, c2) = (Arc::clone(&barrier), Arc::clone(&counter));
    let t = interleave::thread::spawn(move || {
        let mut token = BarrierToken::new();
        c2.fetch_add(1, Ordering::Relaxed);
        b2.wait(&mut token).unwrap();
        assert_eq!(
            c2.load(Ordering::Relaxed),
            THREADS,
            "stale read after barrier"
        );
    });
    let mut token = BarrierToken::new();
    counter.fetch_add(1, Ordering::Relaxed);
    barrier.wait(&mut token).unwrap();
    assert_eq!(
        counter.load(Ordering::Relaxed),
        THREADS,
        "stale read after barrier"
    );
    t.join().unwrap();
}

/// With the production `Release` sense flip, no schedule can read a
/// stale counter after the barrier.
#[cfg(not(feature = "seed-ordering-bug"))]
#[test]
fn barrier_phase_counter_passes_exhaustively() {
    let report = Checker::new().check(barrier_publishes_counter);
    assert!(!report.truncated, "barrier model must be fully explored");
    assert!(report.iterations > 1, "exploration should branch");
}

/// With the seeded `Relaxed` sense flip, the checker must find the
/// schedule where a waiter leaves the barrier without happens-before
/// and reads the counter stale.
#[cfg(feature = "seed-ordering-bug")]
#[test]
fn seeded_relaxed_sense_flip_is_caught() {
    let v = Checker::new()
        .find_violation(barrier_publishes_counter)
        .expect("relaxed sense flip must allow a stale post-barrier read");
    assert!(
        v.message.contains("stale read after barrier"),
        "unexpected violation: {v}"
    );
}

/// Two sequential barrier phases: the sense reversal itself (reusing
/// the barrier back-to-back with alternating sense) is explored.
#[cfg(not(feature = "seed-ordering-bug"))]
#[test]
fn barrier_sense_reversal_two_phases() {
    let report = Checker::new().check(|| {
        let barrier = Arc::new(SenseBarrier::new(2));
        let counter = Arc::new(AtomicU64::new(0));
        let (b2, c2) = (Arc::clone(&barrier), Arc::clone(&counter));
        let t = interleave::thread::spawn(move || {
            let mut token = BarrierToken::new();
            for phase in 1u64..=2 {
                c2.fetch_add(1, Ordering::Relaxed);
                b2.wait(&mut token).unwrap();
                assert_eq!(c2.load(Ordering::Relaxed), 2 * phase, "phase {phase}");
                b2.wait(&mut token).unwrap();
            }
        });
        let mut token = BarrierToken::new();
        for phase in 1u64..=2 {
            counter.fetch_add(1, Ordering::Relaxed);
            barrier.wait(&mut token).unwrap();
            assert_eq!(counter.load(Ordering::Relaxed), 2 * phase, "phase {phase}");
            barrier.wait(&mut token).unwrap();
        }
        t.join().unwrap();
    });
    assert!(!report.truncated);
}

/// The full fork-join region protocol — job broadcast, per-slice
/// reply deposit, in-place collection — on the production
/// [`RegionProtocol`] with small payloads: a computing master, two
/// workers, one work region, then a shutdown region. The master is a
/// member of the team: between its fork and join passes it reads the
/// job and writes reply slot 0 while the workers read the same job and
/// write slots 1 and 2. Any window violation (torn job read, reply
/// race, stale collection) fails the model.
#[cfg(not(feature = "seed-ordering-bug"))]
#[test]
fn region_protocol_broadcast_and_reply_collection() {
    const SHUTDOWN: u64 = u64::MAX;
    let report = Checker::new().check(|| {
        const WORKERS: usize = 2;
        let proto = Arc::new(RegionProtocol::<u64, u64>::new(WORKERS, 0));
        let handles: Vec<_> = (1..=WORKERS)
            .map(|slice| {
                let proto = Arc::clone(&proto);
                interleave::thread::spawn(move || {
                    let mut token = BarrierToken::new();
                    loop {
                        proto.fork(&mut token).unwrap();
                        let job = proto.read_job(|j| *j);
                        if job == SHUTDOWN {
                            return;
                        }
                        proto.write_reply(slice, job * 10 + slice as u64);
                        proto.join(&mut token).unwrap();
                    }
                })
            })
            .collect();
        let mut token = BarrierToken::new();
        proto.publish_job(|j| *j = 7);
        proto.fork(&mut token).unwrap();
        let job = proto.read_job(|j| *j);
        proto.write_reply(0, job * 10);
        proto.join(&mut token).unwrap();
        let replies: Vec<u64> = (0..proto.slices()).map(|s| proto.take_reply(s)).collect();
        assert_eq!(replies, vec![70, 71, 72], "lost or torn reply");
        proto.publish_job(|j| *j = SHUTDOWN);
        proto.fork(&mut token).unwrap();
        for h in handles {
            h.join().unwrap();
        }
    });
    assert!(report.iterations > 1, "exploration should branch");
}

/// Two work regions back to back with one worker: the master's second
/// in-place job edit (window 1 of region 2) must be ordered after the
/// worker's read of the first job, and the master's second write of
/// reply 0 after its own take of the first — the windows hold across
/// the sense reversal, not only inside one region.
#[cfg(not(feature = "seed-ordering-bug"))]
#[test]
fn region_protocol_master_computes_across_two_regions() {
    const SHUTDOWN: u64 = u64::MAX;
    let report = Checker::new().check(|| {
        let proto = Arc::new(RegionProtocol::<u64, u64>::new(1, 0));
        let p2 = Arc::clone(&proto);
        let worker = interleave::thread::spawn(move || {
            let mut token = BarrierToken::new();
            loop {
                p2.fork(&mut token).unwrap();
                let job = p2.read_job(|j| *j);
                if job == SHUTDOWN {
                    return;
                }
                p2.write_reply(1, job + 1);
                p2.join(&mut token).unwrap();
            }
        });
        let mut token = BarrierToken::new();
        for job in [10u64, 20] {
            proto.publish_job(|j| *j = job);
            proto.fork(&mut token).unwrap();
            let seen = proto.read_job(|j| *j);
            proto.write_reply(0, seen);
            proto.join(&mut token).unwrap();
            assert_eq!(
                (proto.take_reply(0), proto.take_reply(1)),
                (job, job + 1),
                "stale job or reply"
            );
        }
        proto.publish_job(|j| *j = SHUTDOWN);
        proto.fork(&mut token).unwrap();
        worker.join().unwrap();
    });
    assert!(report.iterations > 1, "exploration should branch");
    assert!(!report.truncated, "model must be fully explored");
}

/// A master that skips the window discipline is caught: a job write
/// between fork and join can land before the worker reads the job,
/// and the worker then replies to a job the master did not publish at
/// fork. The job's lock keeps the write from being a data race; the
/// reply still shows it. This is what keeps the computing master
/// honest — it may read the job and write reply 0 in window 2,
/// nothing else.
#[cfg(not(feature = "seed-ordering-bug"))]
#[test]
fn region_protocol_master_write_in_window_two_reaches_a_worker_reply() {
    let v = Checker::new()
        .find_violation(|| {
            let proto = Arc::new(RegionProtocol::<u64, u64>::new(1, 0));
            let p2 = Arc::clone(&proto);
            let worker = interleave::thread::spawn(move || {
                let mut token = BarrierToken::new();
                p2.fork(&mut token).unwrap();
                let job = p2.read_job(|j| *j);
                p2.write_reply(1, job);
                p2.join(&mut token).unwrap();
            });
            let mut token = BarrierToken::new();
            proto.publish_job(|j| *j = 7);
            proto.fork(&mut token).unwrap();
            proto.publish_job(|j| *j = 8); // window 2: forbidden
            proto.join(&mut token).unwrap();
            let reply = proto.take_reply(1);
            assert_eq!(reply, 7, "worker replied to a job not published at fork");
            worker.join().unwrap();
        })
        .expect("a job write between fork and join must reach a worker's reply");
    assert!(
        v.message.contains("not published at fork"),
        "unexpected violation: {v}"
    );
}

/// The zero-worker protocol: a barrier of one. Every pass returns at
/// once on the master's thread, so the three windows are plain program
/// order — no schedule to explore, no access to report.
#[cfg(not(feature = "seed-ordering-bug"))]
#[test]
fn region_protocol_zero_workers_never_blocks() {
    let report = Checker::new().check(|| {
        let proto = RegionProtocol::<u64, u64>::new(0, 0);
        let mut token = BarrierToken::new();
        for job in [3u64, 4] {
            proto.publish_job(|j| *j = job);
            proto.fork(&mut token).unwrap();
            let seen = proto.read_job(|j| *j);
            proto.write_reply(0, seen * 2);
            proto.join(&mut token).unwrap();
            assert_eq!(proto.take_reply(0), job * 2);
        }
        // The shutdown region has a fork pass and no join.
        proto.publish_job(|j| *j = u64::MAX);
        proto.fork(&mut token).unwrap();
    });
    assert!(!report.truncated, "model must be fully explored");
}

/// The poison protocol is lost-wakeup-free: a dying participant
/// poisons the barrier and never arrives; the surviving waiter —
/// whether it blocked before or after the poison store — returns
/// `Err(Poisoned)` naming the dead rank in *every* explored
/// interleaving, never spinning forever. Deliberately ungated (runs
/// in both CI feature configurations): the poison word is read with
/// its own `Acquire` load at entry and on every spin iteration,
/// independent of the sense-flip store the `seed-ordering-bug`
/// feature weakens.
#[test]
fn barrier_poison_is_lost_wakeup_free() {
    let report = Checker::new().check(|| {
        let barrier = Arc::new(SenseBarrier::new(2));
        let b2 = Arc::clone(&barrier);
        let dying = interleave::thread::spawn(move || {
            // Rank 1 dies without ever arriving at the barrier.
            b2.poison(1);
        });
        let mut token = BarrierToken::new();
        let err = barrier
            .wait(&mut token)
            .expect_err("the only peer died; completing would be a lost wakeup");
        assert_eq!(err.rank, 1, "wrong poisoner reported");
        dying.join().unwrap();
    });
    assert!(!report.truncated, "poison model must be fully explored");
    assert!(report.iterations > 1, "exploration should branch");
}

/// A completed barrier stays completed: a participant that dies right
/// after its `wait` returned — the last arrival flips the sense and
/// poisons at once — must not make the peer still spinning on that
/// barrier report it as failed. (With sense and poison as exclusive
/// values of the state word, the schedule where the poison lands
/// between the flip and the waiter's next load returned `Err`.) The
/// death is then seen by the next `wait`.
#[cfg(not(feature = "seed-ordering-bug"))]
#[test]
fn barrier_death_after_release_does_not_fail_the_completed_wait() {
    let report = Checker::new().check(|| {
        let barrier = Arc::new(SenseBarrier::new(2));
        let b2 = Arc::clone(&barrier);
        let dying = interleave::thread::spawn(move || {
            let mut token = BarrierToken::new();
            b2.wait(&mut token).unwrap();
            b2.poison(1);
        });
        let mut token = BarrierToken::new();
        barrier
            .wait(&mut token)
            .expect("both participants arrived: the barrier completed");
        dying.join().unwrap();
        let err = barrier.wait(&mut token).expect_err("the peer is dead");
        assert_eq!(err.rank, 1, "wrong poisoner reported");
    });
    assert!(!report.truncated, "model must be fully explored");
    assert!(report.iterations > 1, "exploration should branch");
}

/// The comm slot exchange: two ranks allreduce one double each; both
/// must compute the exact rank-ordered sum. Exercises the slots'
/// Release stores and Acquire loads, ordered by the barrier passes
/// around them, under all bounded interleavings: a load that could
/// read a stale deposit fails the sum.
#[cfg(not(feature = "seed-ordering-bug"))]
#[test]
fn comm_allreduce_slot_exchange() {
    use phylo_parallel::{Comm, ThreadCommGroup};
    let report = Checker::new().check(|| {
        let mut group = ThreadCommGroup::new(2);
        let mut c0 = group.take();
        let mut c1 = group.take();
        let t = interleave::thread::spawn(move || {
            let mut buf = [2.0];
            c1.allreduce_sum(&mut buf);
            assert_eq!(buf[0], 3.0, "rank 1 sum wrong");
        });
        let mut buf = [1.0];
        c0.allreduce_sum(&mut buf);
        assert_eq!(buf[0], 3.0, "rank 0 sum wrong");
        t.join().unwrap();
    });
    assert!(report.iterations > 1, "exploration should branch");
}
