#![forbid(unsafe_code)]
//! `interleave` — an in-tree, loom-style concurrency model checker.
//!
//! The workspace's synchronization (sense-reversing barriers, the
//! fork-join job and reply locks, the comm slot exchange) is exactly the kind of
//! code where "the tests pass" proves nothing: the bug lives in an
//! interleaving the test machine never schedules, or in a
//! memory-ordering reordering x86 never performs. This crate
//! runs a closure under a model scheduler that *exhaustively* explores
//! bounded thread interleavings and weak-memory outcomes, failing the
//! run on stale or torn reads, lost wakeups, deadlocks, and any
//! assertion the closure itself makes.
//!
//! Offline build note: crates.io is unreachable in this environment,
//! so this is a from-scratch implementation following the workspace's
//! `shims/` pattern, not a vendored loom.
//!
//! # Usage
//!
//! Write the code under test against the shimmed types —
//! [`sync::atomic`], [`sync::Mutex`], [`sync::RwLock`], [`thread`],
//! [`hint`] — (`phylo-parallel` re-exports either these or `std`
//! behind its `interleave` cargo feature), then:
//!
//! ```
//! use interleave::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! interleave::model(|| {
//!     let c = Arc::new(AtomicU64::new(0));
//!     let c2 = Arc::clone(&c);
//!     let t = interleave::thread::spawn(move || {
//!         c2.fetch_add(1, Ordering::Relaxed);
//!     });
//!     c.fetch_add(1, Ordering::Relaxed);
//!     t.join().unwrap();
//!     assert_eq!(c.load(Ordering::SeqCst), 2);
//! });
//! ```
//!
//! The closure is re-executed once per explored schedule; it must be
//! deterministic apart from the interleaving (no wall-clock, no OS
//! randomness), which the checker enforces by failing on replay
//! divergence.
//!
//! See `DESIGN.md` (§ interleave) for the scheduler and the
//! memory-model approximation, including known deviations from C11.

mod exec;
pub mod fixtures;
pub mod hint;
pub mod sync;
pub mod thread;
mod vclock;

use exec::Exec;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

/// Outcome of a completed (violation-free) exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of distinct schedules executed.
    pub iterations: u64,
    /// True if exploration stopped at `max_iterations` with branches
    /// left unexplored — the result is then a bounded search, not a
    /// proof over the configured bounds.
    pub truncated: bool,
}

/// A concrete failing execution.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What went wrong (stale or torn read/lost wakeup/deadlock/panic).
    pub message: String,
    /// The choice sequence reproducing the failure (branch taken at
    /// every recorded choice point, in order).
    pub schedule: Vec<usize>,
    /// Which iteration of the exploration hit it (1-based).
    pub iteration: u64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model violation (iteration {}): {}\n  reproducing schedule: {:?}",
            self.iteration, self.message, self.schedule
        )
    }
}

/// Configurable exploration: bounds on preemptions, schedules, and
/// per-schedule steps.
#[derive(Debug, Clone)]
pub struct Checker {
    preemption_bound: usize,
    max_iterations: u64,
    max_steps: u64,
}

impl Default for Checker {
    fn default() -> Self {
        Checker {
            preemption_bound: 2,
            max_iterations: 50_000,
            max_steps: 50_000,
        }
    }
}

impl Checker {
    /// A checker with the default bounds (preemption bound 2, 50k
    /// schedules, 50k steps per schedule).
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps involuntary context switches per schedule. Most real
    /// concurrency bugs need ≤ 2 preemptions (CHESS heuristic); raising
    /// this widens coverage at a steep state-space cost.
    pub fn preemption_bound(mut self, n: usize) -> Self {
        self.preemption_bound = n;
        self
    }

    /// Caps the number of schedules explored.
    pub fn max_iterations(mut self, n: u64) -> Self {
        self.max_iterations = n;
        self
    }

    /// Caps shimmed operations per schedule (livelock backstop).
    pub fn max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Explores `f`; panics with the violation report if any schedule
    /// fails, otherwise returns the exploration [`Report`].
    pub fn check<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        match self.explore(f) {
            Ok(report) => report,
            Err(v) => panic!("{v}"),
        }
    }

    /// Explores `f`; returns the first [`Violation`] found, or `None`
    /// if every explored schedule passed.
    pub fn find_violation<F>(&self, f: F) -> Option<Violation>
    where
        F: Fn() + Send + Sync + 'static,
    {
        self.explore(f).err()
    }

    fn explore<F>(&self, f: F) -> Result<Report, Violation>
    where
        F: Fn() + Send + Sync + 'static,
    {
        install_model_panic_hook();
        let f = Arc::new(f);
        let mut prefix: Vec<usize> = Vec::new();
        let mut iterations: u64 = 0;
        loop {
            iterations += 1;
            let exec = Arc::new(Exec::new(
                prefix.clone(),
                self.preemption_bound,
                self.max_steps,
            ));
            let root_exec = Arc::clone(&exec);
            let root_f = Arc::clone(&f);
            let root = std::thread::spawn(move || {
                let _restore = exec::current::set(Arc::clone(&root_exec), 0);
                match catch_unwind(AssertUnwindSafe(|| root_f())) {
                    Ok(()) => root_exec.finish_thread(0, None),
                    Err(payload) => {
                        if payload.is::<exec::SilentUnwind>() {
                            root_exec.finish_thread(0, None);
                        } else {
                            let msg = thread::panic_message(payload.as_ref());
                            root_exec.finish_thread(0, Some(format!("t0 panicked: {msg}")));
                        }
                    }
                }
            });
            let (failure, options, chosen) = exec.wait_done();
            let _ = root.join();
            if let Some(message) = failure {
                return Err(Violation {
                    message,
                    schedule: chosen,
                    iteration: iterations,
                });
            }
            // DFS advance: bump the deepest choice with branches left.
            let mut advance_at = None;
            for i in (0..chosen.len()).rev() {
                if chosen[i] + 1 < options[i] {
                    advance_at = Some(i);
                    break;
                }
            }
            match advance_at {
                None => {
                    return Ok(Report {
                        iterations,
                        truncated: false,
                    })
                }
                Some(i) => {
                    prefix.clear();
                    prefix.extend_from_slice(&chosen[..i]);
                    prefix.push(chosen[i] + 1);
                }
            }
            if iterations >= self.max_iterations {
                return Ok(Report {
                    iterations,
                    truncated: true,
                });
            }
        }
    }
}

/// Explores `f` with the default bounds; panics on any violation.
pub fn model<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    Checker::new().check(f)
}

/// Silences panic output from threads inside a model run: exploration
/// deliberately drives closures into failing asserts, and the failure
/// is reported once through [`Violation`], not via stderr spam.
/// Installed once per process; chains to the previous hook for
/// non-model panics.
fn install_model_panic_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if exec::current::in_model() {
                return;
            }
            prev(info);
        }));
    });
}
