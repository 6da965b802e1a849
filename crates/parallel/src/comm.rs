//! An MPI-like communicator over threads.
//!
//! ExaML's communication pattern is dominated by `MPI_Allreduce` calls
//! with tiny payloads — "usually just one or several doubles, for
//! instance, to sum over partial tree likelihoods after evaluate()"
//! (§VI-B3). [`Comm`] reproduces that interface; [`ThreadCommGroup`]
//! backs it with shared memory and the sense-reversing barrier.
//!
//! Reductions are *deterministic*: contributions are deposited into
//! per-rank slots and every rank sums them in rank order, so all ranks
//! compute bit-identical results regardless of arrival order (the
//! property ExaML relies on to keep its replicated searches in
//! lockstep).
//!
//! A slot is [`MAX_LEN`] atomics holding `f64` bits. Rank `r` alone
//! stores to slot `r` before the first barrier pass of a collective,
//! and every rank loads every slot between the two passes. The passes
//! order those accesses; the stores are `Release` and the loads
//! `Acquire` all the same, because they publish data (on x86 that
//! costs nothing). The interleave model `comm_allreduce_slot_exchange`
//! drives them under all bounded interleavings.
//!
//! # Error model
//!
//! Collectives are fallible: when a rank dies it poisons the shared
//! barrier before unwinding (see [`crate::barrier`]), and every peer's
//! in-flight or future collective returns
//! [`CommError::PeerFailed`] within a bounded time instead of spinning
//! forever. The infallible [`Comm::allreduce_sum`] convenience panics
//! with the [`CommError`] as payload, which
//! [`crate::replicated::run_replicated_ft`] catches rank-side and
//! converts into a structured, joinable error.

use crate::barrier::{BarrierToken, Poisoned, SenseBarrier};
use crate::fault::FaultPlan;
use crate::replicated::ReplicatedError;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::transport::{CommTransport, WireStats};
use plf_core::clock;
use std::sync::Arc;

/// Communication statistics, the input to `micsim`'s interconnect
/// model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Number of AllReduce operations.
    pub allreduces: u64,
    /// Total payload bytes reduced (per rank).
    pub bytes: u64,
    /// Always 0: no scheme sends a bare barrier, and `Comm` has no
    /// such collective. Kept only because the end-to-end benchmark
    /// (`plf_e2e/src/{schemes,layers}.rs`) reads it as
    /// `replicated.barriers`.
    pub barriers: u64,
}

/// A failed collective. Carried as a value through the fallible
/// `try_*` collectives and as a panic payload through the infallible
/// ones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// A peer died (or aborted) and poisoned the group; no collective
    /// on this communicator can ever complete again.
    PeerFailed {
        /// The failed peer's rank.
        rank: usize,
    },
    /// This rank passed an oversized payload. The group is poisoned
    /// so the misuse fails on *every* rank instead of hanging the
    /// well-behaved peers at the barrier.
    PayloadTooLarge {
        /// The misusing rank (the caller).
        rank: usize,
        /// Payload length passed, more than [`MAX_LEN`].
        len: usize,
    },
    /// A collective reply did not arrive within the configured read
    /// timeout (socket transports only; the in-thread transports
    /// detect death through the poisoned barrier instead). A local
    /// backstop: the caller cannot name the culprit, only that *it*
    /// gave up waiting.
    Timeout {
        /// The waiting rank (the caller).
        rank: usize,
        /// The timeout that elapsed, in milliseconds.
        millis: u64,
    },
}

impl CommError {
    /// The rank whose failure caused this error (for
    /// [`Self::Timeout`], the rank that gave up waiting).
    pub fn failed_rank(&self) -> usize {
        match *self {
            CommError::PeerFailed { rank }
            | CommError::PayloadTooLarge { rank, .. }
            | CommError::Timeout { rank, .. } => rank,
        }
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerFailed { rank } => write!(f, "peer rank {rank} failed mid-collective"),
            CommError::PayloadTooLarge { rank, len } => write!(
                f,
                "rank {rank} allreduce payload of {len} doubles exceeds group max_len {MAX_LEN}"
            ),
            CommError::Timeout { rank, millis } => write!(
                f,
                "rank {rank} timed out after {millis} ms waiting for a collective reply"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Where every sum of partials starts: the identity of IEEE addition
/// (`-0.0 + x` is `x` bit for bit), so a lone partial comes back
/// unchanged and a team of one is the serial engine.
pub(crate) const SUM_IDENTITY: f64 = -0.0;

/// The crate's one slice-sum rule: `out` becomes the element-wise sum
/// of `partials`, started at [`SUM_IDENTITY`] and added in the order
/// given — rank order for an AllReduce, slice order for a fork-join
/// region. [`ThreadComm`] and the socket hub sum here; the fork-join
/// fold, which receives its partials one at a time, starts at
/// [`SUM_IDENTITY`] and takes the same [`add_partial`] step, so all
/// three agree on the bits.
pub(crate) fn sum_in_order<P: IntoIterator<Item = f64>>(
    out: &mut [f64],
    partials: impl IntoIterator<Item = P>,
) {
    out.fill(SUM_IDENTITY);
    for partial in partials {
        add_partial(out, partial);
    }
}

/// One step of [`sum_in_order`]: adds `partial` into `out` element by
/// element. Elements of `partial` past `out.len()` are not read.
pub(crate) fn add_partial(out: &mut [f64], partial: impl IntoIterator<Item = f64>) {
    for (o, v) in out.iter_mut().zip(partial) {
        *o += v;
    }
}

/// Minimal MPI-flavored collective interface.
pub trait Comm {
    /// This participant's rank in `0..size()`.
    fn rank(&self) -> usize;
    /// Number of participants.
    fn size(&self) -> usize;
    /// In-place sum-AllReduce over `buf`; all ranks receive identical
    /// results, or all ranks receive an error (never a hang).
    fn try_allreduce_sum(&mut self, buf: &mut [f64]) -> Result<(), CommError>;
    /// Statistics accumulated by this participant.
    fn stats(&self) -> CommStats;

    /// Infallible AllReduce for callers inside error-free contexts
    /// (the `Evaluator` hot path): panics with the [`CommError`] as
    /// payload so a supervising scope can downcast and classify it.
    fn allreduce_sum(&mut self, buf: &mut [f64]) {
        if let Err(e) = self.try_allreduce_sum(buf) {
            std::panic::panic_any(e);
        }
    }
}

/// The AllReduce payload cap, in doubles. Every transport
/// (Thread/Socket) enforces this one bound so the choice of
/// `--transport` or rank count can never change error behavior: the
/// ExaML-style reductions carry 1–2 doubles, so 8 is generous.
pub const MAX_LEN: usize = 8;

/// A borrowed communicator is a communicator: the rank body lends its
/// own to the evaluator, so it still holds it when the search unwinds.
impl<C: Comm + ?Sized> Comm for &mut C {
    fn rank(&self) -> usize {
        (**self).rank()
    }
    fn size(&self) -> usize {
        (**self).size()
    }
    fn try_allreduce_sum(&mut self, buf: &mut [f64]) -> Result<(), CommError> {
        (**self).try_allreduce_sum(buf)
    }
    fn stats(&self) -> CommStats {
        (**self).stats()
    }
}

/// Shared state of a thread communicator group.
struct Shared {
    barrier: SenseBarrier,
    /// One deposit slot per rank, written only by its owner before
    /// the first barrier pass. A poisoned pass returns an error
    /// *without* entering the read window, so failed collectives
    /// never read peer slots.
    slots: Vec<Slot>,
}

/// One rank's deposit: `f64` bits, on a cache line of its own.
#[repr(align(64))]
struct Slot([AtomicU64; MAX_LEN]);

/// Factory for a group of `n` thread-backed communicator handles.
pub struct ThreadCommGroup {
    shared: Arc<Shared>,
    next_rank: usize,
    size: usize,
    fault_plan: Option<Arc<FaultPlan>>,
}

impl ThreadCommGroup {
    /// Creates a group for `n` ranks with reduce payloads up to
    /// [`MAX_LEN`] doubles.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        let shared = Arc::new(Shared {
            barrier: SenseBarrier::new(n),
            slots: (0..n)
                .map(|_| Slot(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
        });
        ThreadCommGroup {
            shared,
            next_rank: 0,
            size: n,
            fault_plan: None,
        }
    }

    /// Attaches a scripted [`FaultPlan`] whose rank-death faults fire
    /// inside the handles' AllReduce calls. `None`-cost when unused.
    pub fn with_fault_plan(mut self, plan: Option<Arc<FaultPlan>>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Takes the next rank's handle. Call exactly `n` times and move
    /// each handle into its thread.
    pub fn take(&mut self) -> ThreadComm {
        assert!(self.next_rank < self.size, "all ranks already taken");
        let rank = self.next_rank;
        self.next_rank += 1;
        ThreadComm {
            shared: Arc::clone(&self.shared),
            rank,
            size: self.size,
            token: BarrierToken::new(),
            stats: CommStats::default(),
            wire: WireStats::default(),
            fault_plan: self.fault_plan.clone(),
        }
    }
}

/// One rank's handle to a [`ThreadCommGroup`].
pub struct ThreadComm {
    shared: Arc<Shared>,
    rank: usize,
    size: usize,
    token: BarrierToken,
    stats: CommStats,
    wire: WireStats,
    fault_plan: Option<Arc<FaultPlan>>,
}

impl ThreadComm {
    /// Poisons the group on behalf of this rank: every peer's blocked
    /// or future collective returns [`CommError::PeerFailed`] with
    /// this rank. Called by a rank that must abandon the lockstep
    /// search (fatal local error, failed checkpoint write) so its
    /// siblings fail fast instead of deadlocking.
    pub fn abort(&self) {
        self.shared.barrier.poison(self.rank);
    }

    fn wait(&mut self) -> Result<(), CommError> {
        self.shared
            .barrier
            .wait(&mut self.token)
            .map_err(|Poisoned { rank }| CommError::PeerFailed { rank })
    }
}

impl Comm for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn try_allreduce_sum(&mut self, buf: &mut [f64]) -> Result<(), CommError> {
        let len = buf.len();
        if let Some(plan) = &self.fault_plan {
            // In-thread transport has no process to SIGKILL, so a
            // scripted `kill9` degrades to the same simulated death as
            // `die`: mark the group before unwinding so no sibling
            // spins forever at the barrier.
            if plan.dies_at_allreduce(self.rank, self.stats.allreduces + 1)
                || plan.kills_at_allreduce(self.rank, self.stats.allreduces + 1)
            {
                self.shared.barrier.poison(self.rank);
                return Err(CommError::PeerFailed { rank: self.rank });
            }
        }
        if len > MAX_LEN {
            // Misuse fails group-wide: poisoning first means the
            // peers already blocked at the barrier error out instead
            // of waiting for a deposit that will never come.
            self.shared.barrier.poison(self.rank);
            let rank = self.rank;
            return Err(CommError::PayloadTooLarge { rank, len });
        }
        let t0 = clock::now_ns();
        // Deposit into our slot.
        for (s, &v) in self.shared.slots[self.rank].0.iter().zip(buf.iter()) {
            s.store(v.to_bits(), Ordering::Release);
        }
        self.wait()?;
        // Every rank sums the slots in rank order: deterministic and
        // identical everywhere.
        let deposits = self.shared.slots.iter().map(|slot| {
            let words = slot.0.iter();
            words.map(|s| f64::from_bits(s.load(Ordering::Acquire)))
        });
        sum_in_order(buf, deposits);
        self.wait()?;
        self.wire.record(clock::now_ns() - t0);
        self.stats.allreduces += 1;
        self.stats.bytes += (len * 8) as u64;
        Ok(())
    }

    fn stats(&self) -> CommStats {
        self.stats
    }
}

impl CommTransport for ThreadComm {
    fn transport_name(&self) -> &'static str {
        "threads"
    }
    fn wire_stats(&self) -> WireStats {
        self.wire
    }
    fn poison(&mut self, _cause: &ReplicatedError) {
        // The cause travels in the rank's return value; the barrier
        // only needs to know that this rank is gone.
        self.abort();
    }
    fn report(&mut self, _final_ll: f64) -> std::io::Result<()> {
        // A thread rank returns its result to the scope that joins it.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_sum_in_order_from_negative_zero() {
        let sum = |partials: &[&[f64]]| {
            let mut out = [f64::NAN; 2];
            sum_in_order(&mut out, partials.iter().map(|p| p.iter().copied()));
            out.map(f64::to_bits)
        };
        let bits = |x: [f64; 2]| x.map(f64::to_bits);
        // Nothing to add, or only −0.0: the identity itself.
        assert_eq!(sum(&[]), bits([-0.0, -0.0]));
        assert_eq!(sum(&[&[-0.0, -0.0], &[-0.0, -0.0]]), bits([-0.0, -0.0]));
        // A lone partial comes back unchanged, +0.0 included.
        assert_eq!(sum(&[&[0.0, -1.5]]), bits([0.0, -1.5]));
        assert_eq!(sum(&[&[-0.0, 0.0], &[-0.0, -0.0]]), bits([-0.0, 0.0]));
        // The order is the order given: each column adds the same four
        // values, and 1e16 + 1 rounds the 1 away where 1 + 1 does not.
        let partials: [&[f64]; 4] = [&[1e16, 1.0], &[1.0, 1.0], &[1.0, 1e16], &[-1e16, -1e16]];
        assert_eq!(sum(&partials), bits([0.0, 2.0]));
        // A partial longer than `out` is cut to it.
        let mut out = [7.0];
        sum_in_order(&mut out, [vec![1.0, 99.0], vec![2.0]]);
        assert_eq!(out, [3.0]);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        const N: usize = 6;
        let mut group = ThreadCommGroup::new(N);
        let handles: Vec<_> = (0..N)
            .map(|_| group.take())
            .map(|mut comm| {
                std::thread::spawn(move || {
                    let r = comm.rank() as f64;
                    let mut buf = [r, 2.0 * r, 1.0];
                    comm.allreduce_sum(&mut buf);
                    buf
                })
            })
            .collect();
        let expect_r: f64 = (0..N).map(|r| r as f64).sum();
        for h in handles {
            let buf = h.join().unwrap();
            assert_eq!(buf[0], expect_r);
            assert_eq!(buf[1], 2.0 * expect_r);
            assert_eq!(buf[2], N as f64);
        }
    }

    #[test]
    fn repeated_allreduces_stay_consistent() {
        const N: usize = 4;
        const ROUNDS: usize = 500;
        let mut group = ThreadCommGroup::new(N);
        let handles: Vec<_> = (0..N)
            .map(|_| group.take())
            .map(|mut comm| {
                std::thread::spawn(move || {
                    let mut acc = 0.0;
                    for round in 0..ROUNDS {
                        let mut buf = [comm.rank() as f64 + round as f64];
                        comm.allreduce_sum(&mut buf);
                        acc += buf[0];
                    }
                    acc
                })
            })
            .collect();
        let results: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1], "ranks disagree");
        }
    }

    #[test]
    fn stats_track_bytes() {
        let mut group = ThreadCommGroup::new(1);
        let mut c = group.take();
        let mut buf = [0.0; 5];
        c.allreduce_sum(&mut buf);
        c.allreduce_sum(&mut buf);
        let s = c.stats();
        assert_eq!(s.allreduces, 2);
        assert_eq!(s.bytes, 80);
        assert_eq!(s.barriers, 0);
    }

    /// Regression: an oversized payload on one rank used to trip a
    /// caller-side assert *before* that rank reached the barrier,
    /// hanging every sibling forever. The misuse must now fail on
    /// every rank within bounded time.
    #[test]
    fn oversized_payload_fails_group_wide_not_deadlocks() {
        let mut group = ThreadCommGroup::new(2);
        let mut big = group.take();
        let mut ok = group.take();
        let peer = std::thread::spawn(move || {
            let mut buf = [1.0];
            ok.try_allreduce_sum(&mut buf)
        });
        let mut oversized = [0.0; MAX_LEN + 1];
        let local = big.try_allreduce_sum(&mut oversized);
        assert_eq!(
            local,
            Err(CommError::PayloadTooLarge {
                rank: 0,
                len: MAX_LEN + 1,
            })
        );
        // The well-behaved peer unblocks with a structured error
        // naming the misusing rank (no hang: join returns).
        assert_eq!(peer.join().unwrap(), Err(CommError::PeerFailed { rank: 0 }));
        // The group stays dead for both ranks.
        let mut buf = [1.0];
        assert_eq!(
            big.try_allreduce_sum(&mut buf),
            Err(CommError::PeerFailed { rank: 0 })
        );
    }

    #[test]
    fn scripted_rank_death_propagates_peer_failed() {
        let plan = Arc::new(FaultPlan::rank_death(1, 3));
        let mut group = ThreadCommGroup::new(2).with_fault_plan(Some(Arc::clone(&plan)));
        let mut c0 = group.take();
        let mut c1 = group.take();
        let dying = std::thread::spawn(move || {
            for _ in 0..10 {
                let mut buf = [1.0];
                if let Err(e) = c1.try_allreduce_sum(&mut buf) {
                    return (e, c1.stats().allreduces);
                }
            }
            unreachable!("rank 1 must die at its 3rd allreduce");
        });
        let mut survivor_result = Ok(());
        for _ in 0..10 {
            let mut buf = [1.0];
            survivor_result = c0.try_allreduce_sum(&mut buf);
            if survivor_result.is_err() {
                break;
            }
        }
        let (death, completed) = dying.join().unwrap();
        assert_eq!(death, CommError::PeerFailed { rank: 1 });
        assert_eq!(completed, 2, "death strikes before the 3rd allreduce");
        assert_eq!(survivor_result, Err(CommError::PeerFailed { rank: 1 }));
    }

    #[test]
    fn abort_poisons_the_group() {
        let mut group = ThreadCommGroup::new(2);
        let mut c0 = group.take();
        let c1 = group.take();
        let waiter = std::thread::spawn(move || {
            let mut buf = [0.5];
            c0.try_allreduce_sum(&mut buf)
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        c1.abort();
        assert_eq!(
            waiter.join().unwrap(),
            Err(CommError::PeerFailed { rank: 1 })
        );
    }

    #[test]
    #[should_panic(expected = "all ranks already taken")]
    fn overtaking_rejected() {
        let mut group = ThreadCommGroup::new(1);
        let _a = group.take();
        let _b = group.take();
    }
}
