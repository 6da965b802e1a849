//! The checker checking itself: every fixture's weak variant must be
//! caught, every strengthened variant must pass exhaustively, and the
//! dual-mode shims must behave like `std` outside a model.

use interleave::fixtures;
use interleave::sync::atomic::{AtomicU64, Ordering};
use interleave::sync::{Mutex, RwLock};
use interleave::Checker;

#[test]
fn publication_relaxed_is_caught() {
    let v = Checker::new()
        .find_violation(|| fixtures::publication(Ordering::Relaxed))
        .expect("relaxed flag store must allow a stale data read");
    assert!(
        v.message.contains("data not published"),
        "unexpected failure: {v}"
    );
    assert!(!v.schedule.is_empty(), "violation should carry a schedule");
}

#[test]
fn publication_release_passes_exhaustively() {
    let report = Checker::new().check(|| fixtures::publication(Ordering::Release));
    assert!(!report.truncated, "tiny model must be fully explored");
    assert!(
        report.iterations > 1,
        "exploration should branch, got {} iteration(s)",
        report.iterations
    );
}

#[test]
fn seqlock_relaxed_words_torn_read_is_caught() {
    let v = Checker::new()
        .find_violation(|| fixtures::seqlock(Ordering::Relaxed, Ordering::Relaxed))
        .expect("relaxed word accesses must allow a torn read");
    assert!(v.message.contains("torn seqlock read"), "unexpected: {v}");
}

#[test]
fn seqlock_release_acquire_words_pass_exhaustively() {
    let report = Checker::new().check(|| fixtures::seqlock(Ordering::Release, Ordering::Acquire));
    assert!(!report.truncated, "seqlock model must be fully explored");
}

#[test]
fn lost_wakeup_is_detected() {
    let v = Checker::new()
        .find_violation(fixtures::lost_wakeup)
        .expect("spin on a never-set flag must be reported");
    assert!(v.message.contains("lost wakeup"), "unexpected: {v}");
}

#[test]
fn mutex_read_then_write_loses_no_update() {
    let report = Checker::new().check(|| fixtures::read_then_write(true));
    assert!(!report.truncated, "lock model must be fully explored");
    assert!(report.iterations > 1, "exploration should branch");
}

#[test]
fn read_then_write_without_the_lock_loses_an_update() {
    let v = Checker::new()
        .find_violation(|| fixtures::read_then_write(false))
        .expect("two bare read-then-writes must be able to lose one");
    assert!(v.message.contains("lost update"), "unexpected: {v}");
}

#[test]
fn rwlock_writer_never_overlaps_a_reader() {
    let report = Checker::new().check(fixtures::rwlock_excludes_the_writer);
    assert!(!report.truncated, "lock model must be fully explored");
    assert!(report.iterations > 1, "exploration should branch");
}

#[test]
fn rmw_atomicity_no_lost_update() {
    let report = Checker::new().check(fixtures::rmw_no_lost_update);
    assert!(!report.truncated);
}

#[test]
fn max_iterations_reports_truncation() {
    let report = Checker::new()
        .max_iterations(1)
        .check(|| fixtures::publication(Ordering::SeqCst));
    assert_eq!(report.iterations, 1);
    assert!(report.truncated, "bound of 1 cannot cover the model");
}

#[test]
fn exploration_is_deterministic_despite_thread_epilogue_timing() {
    // A child whose closure ends in a real-time delay *after* its last
    // shimmed operation: the Runnable -> Finished transition must still
    // land at a schedule-determined point (the finish waits for the
    // scheduling token), not at OS timing. Otherwise the runnable-set
    // arity at later choice points varies with machine load, and DFS
    // replay reports spurious divergence / irreproducible counts.
    let run = || {
        Checker::new().check(|| {
            let v = std::sync::Arc::new(AtomicU64::new(0));
            let a = std::sync::Arc::clone(&v);
            let b = std::sync::Arc::clone(&v);
            let slow = interleave::thread::spawn(move || {
                let x = a.load(Ordering::Acquire);
                a.store(x + 1, Ordering::Release);
                std::thread::sleep(std::time::Duration::from_micros(200));
            });
            let fast = interleave::thread::spawn(move || {
                let x = b.load(Ordering::Acquire);
                b.store(x + 1, Ordering::Release);
            });
            slow.join().unwrap();
            fast.join().unwrap();
            assert!(v.load(Ordering::Acquire) >= 1);
        })
    };
    let first = run();
    assert!(!first.truncated, "tiny model must be fully explored");
    assert!(first.iterations > 1, "exploration should branch");
    for _ in 0..2 {
        let again = run();
        assert_eq!(
            again.iterations, first.iterations,
            "schedule exploration must be reproducible run to run"
        );
    }
}

#[test]
fn shims_pass_through_outside_a_model() {
    // No model run on this thread: the shimmed atomic and locks must
    // behave exactly like std's, including from a plainly-spawned
    // thread.
    let a = std::sync::Arc::new(AtomicU64::new(5));
    let a2 = std::sync::Arc::clone(&a);
    let t = interleave::thread::spawn(move || a2.fetch_add(10, Ordering::SeqCst));
    assert_eq!(t.join().unwrap(), 5);
    assert_eq!(a.load(Ordering::SeqCst), 15);
    assert_eq!(a.swap(1, Ordering::SeqCst), 15);
    assert_eq!(
        a.compare_exchange(1, 2, Ordering::SeqCst, Ordering::SeqCst),
        Ok(1)
    );

    // The locks are std's: a guard from another thread, a poisoned
    // lock that still hands its data out, readers side by side.
    let m = std::sync::Arc::new(Mutex::new(3u32));
    let m2 = std::sync::Arc::clone(&m);
    std::thread::spawn(move || {
        let mut held = m2.lock().unwrap();
        *held += 1;
        panic!("poisons the mutex");
    })
    .join()
    .unwrap_err();
    let poisoned = m.lock().map(|g| *g);
    assert_eq!(*poisoned.unwrap_err().into_inner(), 4, "a holder panicked");
    let rw = RwLock::new(5u32);
    *rw.write().unwrap() += 1;
    let (r1, r2) = (rw.read().unwrap(), rw.read().unwrap());
    assert_eq!((*r1, *r2), (6, 6));
    interleave::hint::spin_loop();
    interleave::thread::yield_now();
}
