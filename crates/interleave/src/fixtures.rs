//! Known-buggy and known-correct micro-protocols.
//!
//! Each fixture is a model-closure body parameterized (where relevant)
//! by memory orderings, so the self-tests can demonstrate both
//! directions: the weak variant is *caught*, the strengthened variant
//! *passes exhaustively*. They double as living documentation of the
//! exact failure shapes the checker detects — stale publication,
//! seqlock torn reads, lost wakeups, lost updates without a lock.

use crate::hint;
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{Mutex, RwLock};
use crate::thread;
use std::sync::Arc;

/// Flag-publication: writer stores data then raises a flag with
/// `flag_store`; reader acquire-loads the flag and asserts the data is
/// visible. `Release` is exhaustively correct; `Relaxed` lets the
/// reader acquire the flag yet read the unpublished value.
pub fn publication(flag_store: Ordering) {
    let data = Arc::new(AtomicU64::new(0));
    let flag = Arc::new(AtomicBool::new(false));
    let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
    let t = thread::spawn(move || {
        d2.store(42, Ordering::Relaxed);
        f2.store(true, flag_store);
    });
    if flag.load(Ordering::Acquire) {
        assert_eq!(
            data.load(Ordering::Relaxed),
            42,
            "flag observed but data not published"
        );
    }
    t.join().unwrap();
}

/// Two-word seqlock, two writer laps, one reader attempt. The
/// invariant is that both words belong to the same lap. With `Relaxed`
/// word accesses the reader can pair a fresh word with a stale one and
/// still see a clean even/unchanged sequence — the classic torn read.
/// `Release` word stores + `Acquire` word loads make a fresh word drag
/// the odd/advanced sequence number into view, so the re-check catches
/// the tear.
pub fn seqlock(word_store: Ordering, word_load: Ordering) {
    let seq = Arc::new(AtomicU64::new(0));
    let w0 = Arc::new(AtomicU64::new(0));
    let w1 = Arc::new(AtomicU64::new(0));
    let (s2, a2, b2) = (Arc::clone(&seq), Arc::clone(&w0), Arc::clone(&w1));
    let writer = thread::spawn(move || {
        for lap in 1u64..=2 {
            s2.store(2 * lap - 1, Ordering::Release);
            a2.store(lap, word_store);
            b2.store(lap, word_store);
            s2.store(2 * lap, Ordering::Release);
        }
    });
    let s1 = seq.load(Ordering::Acquire);
    if s1.is_multiple_of(2) {
        let a = w0.load(word_load);
        let b = w1.load(word_load);
        let s2 = seq.load(Ordering::Acquire);
        if s1 == s2 {
            assert_eq!(a, b, "torn seqlock read validated by unchanged seq={s1}");
        }
    }
    writer.join().unwrap();
}

/// A thread spinning on a flag nobody will ever set. The liveness
/// checker reports this as a lost wakeup rather than hanging.
pub fn lost_wakeup() {
    let flag = Arc::new(AtomicBool::new(false));
    let f2 = Arc::clone(&flag);
    let t = thread::spawn(move || {
        while !f2.load(Ordering::Acquire) {
            hint::spin_loop();
        }
    });
    t.join().unwrap();
}

/// Two threads each read a relaxed counter and store it plus one —
/// under a shared [`Mutex`] when `locked`, bare otherwise. Bare, one
/// thread can read before the other stores and an update is lost;
/// locked, the second critical section starts after the first one's
/// release, so its load reads the first one's store.
pub fn read_then_write(locked: bool) {
    let lock = Arc::new(Mutex::new(()));
    let counter = Arc::new(AtomicU64::new(0));
    let bump = {
        let (lock, counter) = (Arc::clone(&lock), Arc::clone(&counter));
        move || {
            let _held = locked.then(|| lock.lock().unwrap());
            let v = counter.load(Ordering::Relaxed);
            counter.store(v + 1, Ordering::Relaxed);
        }
    };
    let t = thread::spawn(bump.clone());
    bump();
    t.join().unwrap();
    assert_eq!(counter.load(Ordering::SeqCst), 2, "lost update");
}

/// One writer and two readers of an [`RwLock`], each announcing itself
/// on a counter while it holds the lock (a writer counts as
/// `WRITER`). Counter RMWs read the newest store, so a writer that
/// finds a reader inside, or a reader that finds the writer, is an
/// overlap in real time.
pub fn rwlock_excludes_the_writer() {
    const WRITER: u64 = 1 << 32;
    let lock = Arc::new(RwLock::new(0u64));
    let inside = Arc::new(AtomicU64::new(0));
    let read = {
        let (lock, inside) = (Arc::clone(&lock), Arc::clone(&inside));
        move || {
            let value = lock.read().unwrap();
            let before = inside.fetch_add(1, Ordering::AcqRel);
            assert!(before < WRITER, "a reader overlaps the writer");
            inside.fetch_sub(1, Ordering::AcqRel);
            *value
        }
    };
    let readers = [thread::spawn(read.clone()), thread::spawn(read)];
    {
        let mut value = lock.write().unwrap();
        let before = inside.fetch_add(WRITER, Ordering::AcqRel);
        assert_eq!(before, 0, "the writer overlaps a reader");
        *value = 7;
        inside.fetch_sub(WRITER, Ordering::AcqRel);
    }
    for r in readers {
        let seen = r.join().unwrap();
        assert!(seen == 0 || seen == 7, "torn value {seen}");
    }
}

/// Two concurrent `fetch_add`s: RMWs always read the newest store, so
/// no update can be lost under any schedule.
pub fn rmw_no_lost_update() {
    let c = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&c);
    let t = thread::spawn(move || {
        c2.fetch_add(1, Ordering::Relaxed);
    });
    c.fetch_add(1, Ordering::Relaxed);
    t.join().unwrap();
    assert_eq!(c.load(Ordering::SeqCst), 2);
}
