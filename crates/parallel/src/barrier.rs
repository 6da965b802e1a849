//! A sense-reversing spin/park barrier built from atomics.
//!
//! The kernels synchronize thousands of times per second with very
//! little work between barriers (the paper's §VI-B2 attributes the
//! MIC's small-alignment losses to exactly this sync overhead), so the
//! barrier spins briefly before parking — the standard adaptive
//! strategy for HPC worker pools.
//!
//! # Poison epoch
//!
//! A fixed-count barrier has a brutal failure mode: if one participant
//! dies, everyone else waits forever — the deadlock ExaML-style
//! replicated searches hit when a scheduler kills one rank
//! mid-collective. The barrier therefore carries a *poison epoch*: a
//! dying participant calls [`SenseBarrier::poison`] with its rank
//! before unwinding, and every blocked or future [`SenseBarrier::wait`]
//! returns [`Poisoned`] within a bounded number of spin iterations
//! instead of hanging. Poisoning is permanent — the group is dead and
//! the caller must tear it down and (optionally) rebuild with the
//! survivors.

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{hint, thread};

/// Ordering of the final sense-flip store that releases the waiters.
///
/// `Release` is load-bearing: it is what makes every write performed
/// before a thread's barrier arrival visible to every thread after the
/// barrier (the waiters' `Acquire` loads pair with it). The
/// `seed-ordering-bug` feature deliberately weakens it to `Relaxed` so
/// the interleave model checker's detection of the resulting stale
/// read can be demonstrated (tests/interleave_models.rs); it must
/// never be enabled in production builds.
const SENSE_FLIP: Ordering = if cfg!(feature = "seed-ordering-bug") {
    Ordering::Relaxed
} else {
    Ordering::Release
};

/// Barrier state word: bit 0 is the shared sense…
const SENSE_BIT: usize = 1;
/// …and the bits above it hold `rank + 1` once participant `rank` has
/// died (0 while healthy). Sense and poison share one word so a
/// blocked waiter watches a *single* location: eventual visibility of
/// a store to that word (which C11 guarantees in finite time) is then
/// sufficient for the waiter to observe either release — a two-word
/// design would let the poison store hide behind an endlessly-fresh
/// sense word. Poisoning keeps the sense bit: a waiter of a barrier
/// that *completed* must still see it complete when the last arrival
/// dies right after releasing it.
const POISON_SHIFT: u32 = 1;

/// The poisoner recorded in a state word, if any.
fn poisoner(state: usize) -> Option<usize> {
    (state >> POISON_SHIFT).checked_sub(1)
}

/// Error returned by [`SenseBarrier::wait`] once the group is
/// poisoned: participant `rank` died and the barrier will never
/// complete again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Poisoned {
    /// The rank that poisoned the group (first poisoner wins).
    pub rank: usize,
}

impl std::fmt::Display for Poisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "barrier poisoned by failed participant {}", self.rank)
    }
}

impl std::error::Error for Poisoned {}

/// A reusable barrier for a fixed set of `n` threads.
///
/// Unlike `std::sync::Barrier`, arrival order never matters and the
/// barrier is sense-reversing: alternate waits flip a shared "sense"
/// flag, so the same object can be reused back-to-back without a
/// second synchronization round.
pub struct SenseBarrier {
    total: usize,
    arrived: AtomicUsize,
    /// The single word waiters spin on: the sense in [`SENSE_BIT`],
    /// `rank + 1` above it once dead.
    state: AtomicUsize,
}

impl SenseBarrier {
    /// Creates a barrier for `n ≥ 1` threads.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "barrier needs at least one participant");
        SenseBarrier {
            total: n,
            arrived: AtomicUsize::new(0),
            state: AtomicUsize::new(0),
        }
    }

    /// Marks the group as dead on behalf of failed participant
    /// `rank`. Idempotent; the first poisoner wins. Every blocked and
    /// future [`Self::wait`] returns `Err(Poisoned)` promptly.
    pub fn poison(&self, rank: usize) {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            if poisoner(cur).is_some() {
                return; // first poisoner already won
            }
            match self.state.compare_exchange_weak(
                cur,
                cur | (rank + 1) << POISON_SHIFT,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The poisoner's rank, if the group is dead.
    pub fn poisoned(&self) -> Option<usize> {
        poisoner(self.state.load(Ordering::Acquire))
    }

    /// Blocks until all `n` threads have called `wait`, or until the
    /// group is poisoned — a poisoned wait returns `Err` within a
    /// bounded number of spin iterations rather than hanging. The
    /// thread's local sense must alternate between calls; callers use
    /// [`BarrierToken`] to track it.
    pub fn wait(&self, token: &mut BarrierToken) -> Result<(), Poisoned> {
        if let Some(rank) = self.poisoned() {
            return Err(Poisoned { rank });
        }
        let my_sense = !token.sense;
        token.sense = my_sense;
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // Last arrival: reset the counter and release everyone by
            // flipping the sense — unless a participant died since the
            // entry check (a poison marker must never be overwritten,
            // so the flip is a compare-exchange against the healthy
            // old sense, the only other value the word can hold).
            self.arrived.store(0, Ordering::Release);
            match self.state.compare_exchange(
                (!my_sense) as usize,
                my_sense as usize,
                SENSE_FLIP,
                Ordering::Acquire,
            ) {
                Ok(_) => Ok(()),
                Err(seen) => {
                    debug_assert!(poisoner(seen).is_some(), "unexpected barrier state {seen}");
                    Err(Poisoned {
                        rank: poisoner(seen).unwrap_or(0),
                    })
                }
            }
        } else {
            let mut spins = 0u32;
            loop {
                let s = self.state.load(Ordering::Acquire);
                // Sense before poison: a barrier that was released
                // completed, even if its last arrival died right after
                // (the next `wait`'s entry check reports that).
                if (s & SENSE_BIT != 0) == my_sense {
                    return Ok(());
                }
                if let Some(rank) = poisoner(s) {
                    return Err(Poisoned { rank });
                }
                spins += 1;
                if spins < 10_000 {
                    hint::spin_loop();
                } else {
                    thread::yield_now();
                }
            }
        }
    }
}

/// Per-thread sense state for a [`SenseBarrier`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BarrierToken {
    sense: bool,
}

impl BarrierToken {
    /// A fresh token (matches a freshly constructed barrier).
    pub fn new() -> Self {
        BarrierToken { sense: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn single_thread_never_blocks() {
        let b = SenseBarrier::new(1);
        let mut t = BarrierToken::new();
        for _ in 0..100 {
            b.wait(&mut t).unwrap();
        }
    }

    #[test]
    fn phases_are_totally_ordered() {
        // Every thread increments a phase counter between barrier
        // waits; after each wait, all threads must observe the same
        // phase total — any barrier violation shows up as a torn read.
        const THREADS: usize = 8;
        const PHASES: usize = 200;
        let barrier = Arc::new(SenseBarrier::new(THREADS));
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let mut token = BarrierToken::new();
                    for phase in 0..PHASES {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait(&mut token).unwrap();
                        let seen = counter.load(Ordering::Relaxed);
                        assert_eq!(seen as usize, (phase + 1) * THREADS, "phase {phase}");
                        barrier.wait(&mut token).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn poisoned_barrier_fails_fast_instead_of_hanging() {
        let b = SenseBarrier::new(2);
        b.poison(1);
        assert_eq!(b.poisoned(), Some(1));
        let mut t = BarrierToken::new();
        // Only one of two participants arrives: without poison this
        // would spin forever.
        assert_eq!(b.wait(&mut t), Err(Poisoned { rank: 1 }));
        // Permanently dead.
        assert_eq!(b.wait(&mut t), Err(Poisoned { rank: 1 }));
    }

    #[test]
    fn poison_releases_an_already_blocked_waiter() {
        let b = Arc::new(SenseBarrier::new(3));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut t = BarrierToken::new();
                    b.wait(&mut t)
                })
            })
            .collect();
        // Let both block at the barrier, then kill the third rank.
        std::thread::sleep(std::time::Duration::from_millis(20));
        b.poison(2);
        for w in waiters {
            assert_eq!(w.join().unwrap(), Err(Poisoned { rank: 2 }));
        }
    }

    #[test]
    fn poison_keeps_the_sense_bit() {
        // A waiter of the completed first barrier spins for sense =
        // true; the last arrival's death must not take that away (the
        // interleave model `barrier_death_after_release_...` explores
        // the race itself).
        let b = SenseBarrier::new(1);
        b.wait(&mut BarrierToken::new()).unwrap();
        b.poison(4);
        assert_eq!(b.state.load(Ordering::Acquire) & SENSE_BIT, 1);
        assert_eq!(b.poisoned(), Some(4));
    }

    #[test]
    fn first_poisoner_wins() {
        let b = SenseBarrier::new(2);
        b.poison(0);
        b.poison(1);
        assert_eq!(b.poisoned(), Some(0));
    }

    #[test]
    #[should_panic]
    fn zero_participants_rejected() {
        SenseBarrier::new(0);
    }
}
