//! One bounded-exhaustive exploration: the scheduler and the memory
//! model.
//!
//! # Scheduling
//!
//! Model threads are real OS threads, but only one holds the *logical
//! token* at a time: every shimmed operation passes through a gate
//! that blocks until the scheduler hands the thread the token, then
//! performs its effect under the execution lock and picks the next
//! thread to run. Picking is a *choice point*: the DFS driver replays
//! a forced prefix of choices and takes the first branch at every new
//! point; after the run, the deepest unexhausted choice is advanced
//! and the closure re-executed. Preemption bounding prunes the tree:
//! once a run has context-switched away from a runnable thread
//! `preemption_bound` times, subsequent picks keep the current thread
//! running.
//!
//! # Memory model (approximation)
//!
//! Sequential consistency is the baseline interleaving semantics, with
//! a happens-before layer on top that models the weaker orderings:
//!
//! * every shimmed op ticks the thread's [`VClock`];
//! * a `Release`/`AcqRel`/`SeqCst` store snapshots the writer's clock
//!   as a message clock; an `Acquire`/`AcqRel`/`SeqCst` load that
//!   reads it joins it into the reader's clock;
//! * a load may read *any* store to the location that is (a) not
//!   already superseded for this thread by per-location coherence and
//!   (b) not happens-before-known to be overwritten. When several
//!   stores qualify, the pick is a choice point — this is how stale
//!   reads of insufficiently-published data are explored;
//! * RMWs always read the newest store (C11 guarantees RMWs read the
//!   last value in modification order);
//! * `SeqCst` loads read the newest store (approximating the single
//!   total order; weaker than C11 but sound for bug *finding*).
//!
//! # Liveness
//!
//! A thread announcing a spin (`hint::spin_loop`) is descheduled until
//! some store lands. If every live thread ends up spinning, each is
//! woken once in *force-fresh* mode (its next load must read the
//! newest store — modeling C11's eventual-visibility guarantee); if
//! the group keeps spinning with no store landing, the execution is
//! reported as a lost wakeup. Blocked joins with no runnable thread
//! anywhere are reported as a deadlock.

use crate::vclock::VClock;
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Sentinel panic payload used to unwind model threads once a failure
/// has been recorded; the thread wrapper swallows it.
pub(crate) struct SilentUnwind;

/// Most stale stores a single load will branch over (newest-first).
/// Bounds the branching factor of relaxed-load exploration.
const MAX_STALE_CANDIDATES: usize = 4;

/// `usize` sentinel for "no thread holds the token".
const NOBODY: usize = usize::MAX;

/// How the scheduler sees a model thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ThreadState {
    /// Eligible to be picked.
    Runnable,
    /// Announced a spin; wakes when any store lands.
    Spinning,
    /// Waiting for the given thread to finish.
    BlockedJoin(usize),
    /// Done (normally or by unwind).
    Finished,
}

/// One store in a location's modification order.
struct StoreRec {
    value: u64,
    tid: usize,
    /// Writer's clock at the store (own component ticked) — used for
    /// happens-before queries against later reads.
    clock: VClock,
    /// Message clock carried iff the store releases.
    msg: Option<VClock>,
}

/// Per-atomic-location state.
struct Location {
    stores: Vec<StoreRec>,
    /// Per-thread coherence floor: index of the newest store this
    /// thread has read or written. A thread never reads older.
    seen: Vec<usize>,
}

pub(crate) struct ExecInner {
    // --- exploration state ---
    /// Choices forced by the DFS driver (replayed verbatim).
    prefix: Vec<usize>,
    /// Option count at every choice point seen this run.
    options: Vec<usize>,
    /// Choice taken at every choice point this run.
    chosen: Vec<usize>,
    // --- scheduling ---
    active: usize,
    threads: Vec<ThreadState>,
    preemptions: usize,
    preemption_bound: usize,
    force_fresh: Vec<bool>,
    allspin_rounds: usize,
    // --- memory model ---
    locations: Vec<Location>,
    clocks: Vec<VClock>,
    // --- outcome ---
    failure: Option<String>,
    steps: u64,
    step_limit: u64,
}

impl ExecInner {
    fn thread_states(&self) -> String {
        self.threads
            .iter()
            .enumerate()
            .map(|(i, s)| format!("t{i}:{s:?}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Records a failure and revokes the token so every thread unwinds
    /// at its next gate.
    fn set_failure(&mut self, msg: String) {
        if self.failure.is_none() {
            let states = self.thread_states();
            self.failure = Some(format!("{msg} [threads: {states}]"));
        }
        self.active = NOBODY;
    }
}

/// Shared state of one execution of the model closure.
pub(crate) struct Exec {
    inner: Mutex<ExecInner>,
    cv: Condvar,
}

fn acquires(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn releases(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

impl Exec {
    /// Creates an execution with thread 0 (the closure body)
    /// registered and active.
    pub(crate) fn new(prefix: Vec<usize>, preemption_bound: usize, step_limit: u64) -> Self {
        let mut clock0 = VClock::default();
        clock0.tick(0);
        Exec {
            inner: Mutex::new(ExecInner {
                prefix,
                options: Vec::new(),
                chosen: Vec::new(),
                active: 0,
                threads: vec![ThreadState::Runnable],
                preemptions: 0,
                preemption_bound,
                force_fresh: vec![false],
                allspin_rounds: 0,
                locations: Vec::new(),
                clocks: vec![clock0],
                failure: None,
                steps: 0,
                step_limit,
            }),
            cv: Condvar::new(),
        }
    }

    // ---------------------------------------------------------------
    // gate / token plumbing
    // ---------------------------------------------------------------

    /// Blocks until `me` holds the logical token, then returns the
    /// guard with the step accounted and the thread's clock ticked.
    fn gate(&self, me: usize) -> MutexGuard<'_, ExecInner> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.failure.is_some() {
                drop(g);
                std::panic::panic_any(SilentUnwind);
            }
            if g.active == me {
                break;
            }
            g = self.cv.wait(g).unwrap();
        }
        g.steps += 1;
        if g.steps > g.step_limit {
            let msg = format!(
                "step limit ({}) exceeded — livelock or unbounded loop in the model",
                g.step_limit
            );
            self.fail(g, msg);
        }
        g.clocks[me].tick(me);
        g
    }

    /// Records the failure, releases every thread, and unwinds the
    /// caller. Never returns. The guard is dropped before unwinding so
    /// the execution mutex is never poisoned.
    fn fail(&self, mut g: MutexGuard<'_, ExecInner>, msg: String) -> ! {
        g.set_failure(msg);
        drop(g);
        self.cv.notify_all();
        std::panic::panic_any(SilentUnwind);
    }

    /// Takes (and records) a choice among `n` options. Only called
    /// with `n >= 2`; single-option points are taken silently so the
    /// DFS tree stays small. On prefix divergence (a nondeterministic
    /// closure) the failure is recorded and option 0 returned; the
    /// thread unwinds at its next gate.
    fn choose(&self, g: &mut MutexGuard<'_, ExecInner>, n: usize) -> usize {
        debug_assert!(n >= 2);
        let i = g.chosen.len();
        let pick = if i < g.prefix.len() { g.prefix[i] } else { 0 };
        if pick >= n {
            g.set_failure(format!(
                "replay divergence at choice {i}: forced option {pick} of {n} — \
                 model closures must be deterministic apart from interleaving"
            ));
            g.options.push(n);
            g.chosen.push(0);
            return 0;
        }
        g.options.push(n);
        g.chosen.push(pick);
        pick
    }

    /// Hands the token to the next thread. `me` is the thread ending
    /// its step (it may or may not still be runnable).
    fn pick_next(&self, g: &mut MutexGuard<'_, ExecInner>, me: usize) {
        if g.failure.is_some() {
            g.active = NOBODY;
            return;
        }
        loop {
            let runnable: Vec<usize> = g
                .threads
                .iter()
                .enumerate()
                .filter(|(_, s)| **s == ThreadState::Runnable)
                .map(|(i, _)| i)
                .collect();
            if runnable.is_empty() {
                let live: Vec<usize> = g
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| **s != ThreadState::Finished)
                    .map(|(i, _)| i)
                    .collect();
                if live.is_empty() {
                    g.active = NOBODY; // execution complete
                    return;
                }
                let spinning: Vec<usize> = live
                    .iter()
                    .copied()
                    .filter(|&t| g.threads[t] == ThreadState::Spinning)
                    .collect();
                if spinning.is_empty() {
                    g.set_failure("deadlock: every live thread is blocked in join".to_string());
                    return;
                }
                // Everyone live is spinning (or join-blocked behind
                // spinners). Wake the spinners in force-fresh mode —
                // C11 guarantees stores become visible in finite time,
                // so a spin that would pass on fresh values must be
                // given the chance. If the cycle repeats with no store
                // landing, nobody is ever going to publish: report it.
                g.allspin_rounds += 1;
                if g.allspin_rounds > g.threads.len() + 2 {
                    g.set_failure(
                        "lost wakeup: every live thread is spinning and no store \
                         can ever wake them"
                            .to_string(),
                    );
                    return;
                }
                for t in spinning {
                    g.threads[t] = ThreadState::Runnable;
                    g.force_fresh[t] = true;
                }
                continue;
            }
            let me_runnable = runnable.contains(&me);
            let ordered: Vec<usize> = if me_runnable {
                std::iter::once(me)
                    .chain(runnable.iter().copied().filter(|&t| t != me))
                    .collect()
            } else {
                runnable
            };
            let constrained = me_runnable && g.preemptions >= g.preemption_bound;
            let pick = if constrained || ordered.len() == 1 {
                0
            } else {
                self.choose(g, ordered.len())
            };
            let next = ordered[pick];
            if me_runnable && next != me {
                g.preemptions += 1;
            }
            g.active = next;
            return;
        }
    }

    /// Finishes an op: schedule the next thread and wake everyone.
    fn end_op(&self, mut g: MutexGuard<'_, ExecInner>, me: usize) {
        self.pick_next(&mut g, me);
        drop(g);
        self.cv.notify_all();
    }

    /// Deschedules `me` (already marked non-runnable in `g`), then
    /// blocks until the scheduler hands the token back. Returns with
    /// the token held (the caller's next gate passes immediately);
    /// interleavings with other threads are explored through the pick
    /// that reactivates `me`, so no behaviors are lost.
    fn block(&self, mut g: MutexGuard<'_, ExecInner>, me: usize) {
        self.pick_next(&mut g, me);
        self.cv.notify_all();
        loop {
            if g.failure.is_some() {
                drop(g);
                self.cv.notify_all();
                std::panic::panic_any(SilentUnwind);
            }
            if g.active == me {
                return;
            }
            g = self.cv.wait(g).unwrap();
        }
    }

    // ---------------------------------------------------------------
    // thread lifecycle
    // ---------------------------------------------------------------

    /// Registers a new model thread spawned by `parent`; the creation
    /// itself is a scheduling point so thread ids stay deterministic.
    /// The child's clock starts as a copy of the parent's (spawn is a
    /// happens-before edge). Returns the child's tid.
    pub(crate) fn spawn_thread(&self, parent: usize) -> usize {
        let mut g = self.gate(parent);
        let tid = g.threads.len();
        let mut child_clock = g.clocks[parent].clone();
        child_clock.tick(tid);
        g.threads.push(ThreadState::Runnable);
        g.clocks.push(child_clock);
        g.force_fresh.push(false);
        self.end_op(g, parent);
        tid
    }

    /// Marks `me` finished and wakes its joiners. Called by the thread
    /// wrapper after the closure returns or unwinds.
    ///
    /// A *clean* finish waits for the scheduling token first: the
    /// Runnable→Finished transition must land at a deterministic point
    /// in the schedule. The closure's epilogue (between its last
    /// shimmed op and this call) runs on real OS time, so taking the
    /// raw lock here would shrink the runnable set — and with it the
    /// arity of scheduling choice points — at a machine-load-dependent
    /// moment, making identical prefixes replay with different option
    /// counts (a spurious "replay divergence"). A *failing* finish
    /// must not wait: the failure it carries may be exactly what the
    /// token holder is blocked on.
    pub(crate) fn finish_thread(&self, me: usize, panic_msg: Option<String>) {
        let mut g = self.inner.lock().unwrap();
        if panic_msg.is_none() {
            loop {
                if g.failure.is_some() || g.active == me {
                    break;
                }
                g = self.cv.wait(g).unwrap();
            }
        }
        g.threads[me] = ThreadState::Finished;
        for t in 0..g.threads.len() {
            if g.threads[t] == ThreadState::BlockedJoin(me) {
                g.threads[t] = ThreadState::Runnable;
            }
        }
        if let Some(msg) = panic_msg {
            g.set_failure(msg);
        } else if g.failure.is_none() && g.active == me {
            self.pick_next(&mut g, me);
        }
        drop(g);
        self.cv.notify_all();
    }

    /// Model-level join: blocks until `target` finishes, then joins
    /// its clock (everything the child did happens-before the join).
    pub(crate) fn join_thread(&self, me: usize, target: usize) {
        let mut g = self.gate(me);
        if g.threads[target] != ThreadState::Finished {
            g.threads[me] = ThreadState::BlockedJoin(target);
            self.block(g, me);
            g = self.inner.lock().unwrap();
        }
        let child_clock = g.clocks[target].clone();
        g.clocks[me].join(&child_clock);
        self.end_op(g, me);
    }

    /// A spin announcement: deschedule until some store lands (or a
    /// force-fresh wake). Returns with the token held so the caller's
    /// condition re-check happens next.
    pub(crate) fn spin(&self, me: usize) {
        let mut g = self.gate(me);
        g.threads[me] = ThreadState::Spinning;
        self.block(g, me);
    }

    /// A pure yield: a scheduling point with no memory effect.
    pub(crate) fn yield_now(&self, me: usize) {
        let g = self.gate(me);
        self.end_op(g, me);
    }

    // ---------------------------------------------------------------
    // atomics
    // ---------------------------------------------------------------

    /// Registers an atomic location with its initial value. The
    /// initial store is treated as a release by the creating thread,
    /// so anyone who synchronizes with the creator (e.g. via spawn)
    /// sees it.
    pub(crate) fn new_location(&self, me: usize, init: u64) -> usize {
        let mut g = self.gate(me);
        let id = g.locations.len();
        let clock = g.clocks[me].clone();
        g.locations.push(Location {
            stores: vec![StoreRec {
                value: init,
                tid: me,
                clock: clock.clone(),
                msg: Some(clock),
            }],
            seen: Vec::new(),
        });
        self.end_op(g, me);
        id
    }

    fn seen_floor(loc: &mut Location, tid: usize) -> usize {
        if loc.seen.len() <= tid {
            loc.seen.resize(tid + 1, 0);
        }
        loc.seen[tid]
    }

    /// An atomic load; may explore stale values for non-SeqCst loads.
    pub(crate) fn atomic_load(&self, me: usize, loc_id: usize, ord: Ordering) -> u64 {
        let mut g = self.gate(me);
        let force_fresh = std::mem::replace(&mut g.force_fresh[me], false);
        let clock_me = g.clocks[me].clone();
        let (n, mut floor) = {
            let loc = &mut g.locations[loc_id];
            let f = Self::seen_floor(loc, me);
            (loc.stores.len(), f)
        };
        {
            // Happens-before floor: a store known (via synchronization)
            // to exist cannot be "unseen"; anything older is dead.
            let loc = &g.locations[loc_id];
            for (j, s) in loc.stores.iter().enumerate().skip(floor) {
                if s.clock.ordered_before(s.tid, &clock_me) {
                    floor = j;
                }
            }
        }
        if ord == Ordering::SeqCst || force_fresh {
            floor = n - 1;
        }
        let first = floor.max(n.saturating_sub(MAX_STALE_CANDIDATES));
        let count = n - first;
        // Candidates newest-first, so choice 0 is the "natural" read.
        let pick = if count >= 2 {
            self.choose(&mut g, count)
        } else {
            0
        };
        let idx = n - 1 - pick;
        let (value, msg) = {
            let loc = &mut g.locations[loc_id];
            loc.seen[me] = loc.seen[me].max(idx);
            let s = &loc.stores[idx];
            (s.value, if acquires(ord) { s.msg.clone() } else { None })
        };
        if let Some(m) = msg {
            g.clocks[me].join(&m);
        }
        self.end_op(g, me);
        value
    }

    /// An atomic store.
    pub(crate) fn atomic_store(&self, me: usize, loc_id: usize, val: u64, ord: Ordering) {
        let mut g = self.gate(me);
        let clock = g.clocks[me].clone();
        let msg = if releases(ord) {
            Some(clock.clone())
        } else {
            None
        };
        let loc = &mut g.locations[loc_id];
        let idx = loc.stores.len();
        loc.stores.push(StoreRec {
            value: val,
            tid: me,
            clock,
            msg,
        });
        Self::seen_floor(loc, me);
        loc.seen[me] = idx;
        Self::wake_spinners(&mut g);
        self.end_op(g, me);
    }

    /// An atomic read-modify-write; always reads the newest store.
    pub(crate) fn atomic_rmw(
        &self,
        me: usize,
        loc_id: usize,
        ord: Ordering,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        let mut g = self.gate(me);
        let (old, acq_msg) = {
            let loc = &g.locations[loc_id];
            let last = loc.stores.last().expect("location has an initial store");
            let m = if acquires(ord) {
                last.msg.clone()
            } else {
                None
            };
            (last.value, m)
        };
        if let Some(m) = acq_msg {
            g.clocks[me].join(&m);
        }
        let new = f(old);
        let clock = g.clocks[me].clone();
        let msg = if releases(ord) {
            Some(clock.clone())
        } else {
            None
        };
        let loc = &mut g.locations[loc_id];
        let idx = loc.stores.len();
        loc.stores.push(StoreRec {
            value: new,
            tid: me,
            clock,
            msg,
        });
        Self::seen_floor(loc, me);
        loc.seen[me] = idx;
        Self::wake_spinners(&mut g);
        self.end_op(g, me);
        old
    }

    /// Compare-exchange; reads the newest store like every RMW.
    pub(crate) fn atomic_cas(
        &self,
        me: usize,
        loc_id: usize,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        let mut g = self.gate(me);
        let (old, last_msg) = {
            let loc = &g.locations[loc_id];
            let last = loc.stores.last().expect("location has an initial store");
            (last.value, last.msg.clone())
        };
        let ok = old == current;
        let ord = if ok { success } else { failure };
        if acquires(ord) {
            if let Some(m) = last_msg {
                g.clocks[me].join(&m);
            }
        }
        if ok {
            let clock = g.clocks[me].clone();
            let msg = if releases(success) {
                Some(clock.clone())
            } else {
                None
            };
            let loc = &mut g.locations[loc_id];
            let idx = loc.stores.len();
            loc.stores.push(StoreRec {
                value: new,
                tid: me,
                clock,
                msg,
            });
            Self::seen_floor(loc, me);
            loc.seen[me] = idx;
            Self::wake_spinners(&mut g);
        }
        self.end_op(g, me);
        if ok {
            Ok(old)
        } else {
            Err(old)
        }
    }

    fn wake_spinners(g: &mut MutexGuard<'_, ExecInner>) {
        g.allspin_rounds = 0;
        for t in 0..g.threads.len() {
            if g.threads[t] == ThreadState::Spinning {
                g.threads[t] = ThreadState::Runnable;
            }
        }
    }

    // ---------------------------------------------------------------
    // driver interface
    // ---------------------------------------------------------------

    /// Blocks until every model thread has finished, then returns
    /// `(failure, options, chosen)`.
    pub(crate) fn wait_done(&self) -> (Option<String>, Vec<usize>, Vec<usize>) {
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.threads.iter().all(|s| *s == ThreadState::Finished) {
                return (
                    g.failure.clone(),
                    std::mem::take(&mut g.options),
                    std::mem::take(&mut g.chosen),
                );
            }
            g = self.cv.wait(g).unwrap();
        }
    }
}

/// The ambient execution for the current OS thread, set by the thread
/// wrapper for the duration of the model closure.
pub(crate) mod current {
    use super::Exec;
    use std::cell::RefCell;
    use std::sync::Arc;

    thread_local! {
        static CURRENT: RefCell<Option<(Arc<Exec>, usize)>> = const { RefCell::new(None) };
    }

    /// Returns the executing model context, if any.
    pub(crate) fn get() -> Option<(Arc<Exec>, usize)> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Installs the context; returns a guard restoring the previous.
    pub(crate) fn set(exec: Arc<Exec>, tid: usize) -> Restore {
        let prev = CURRENT.with(|c| c.borrow_mut().replace((exec, tid)));
        Restore(prev)
    }

    /// Whether this OS thread is currently inside a model execution
    /// (drives panic-hook output suppression). Uses `try_borrow` so
    /// it is safe to call from a panic hook.
    pub(crate) fn in_model() -> bool {
        CURRENT.with(|c| c.try_borrow().map(|b| b.is_some()).unwrap_or(false))
    }

    /// RAII restore for [`set`].
    pub(crate) struct Restore(Option<(Arc<Exec>, usize)>);

    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}
