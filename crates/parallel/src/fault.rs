//! Deterministic failure injection for the parallel schemes.
//!
//! Real tree searches run for days under job schedulers that kill
//! ranks mid-collective; RAxML-Light and ExaML survive only via
//! checkpoint/restart. Testing that survival path requires *replaying
//! identical failure schedules*, so faults here are scripted, not
//! random: a [`FaultPlan`] lists exactly which rank dies at which
//! collective, which fork-join job panics, and which checkpoint write
//! attempts see I/O errors. Each fault fires exactly once (one-shot),
//! so a degraded rerun of the same plan does not re-kill the group.
//!
//! The hook is zero-cost when off: every injection site holds an
//! `Option<Arc<FaultPlan>>` and the `None` branch is a single
//! predictable test. The CLI exposes the same schedules through
//! `--inject-fault` (e.g. `rank=2,allreduce=40`), so a failure seen in
//! a test is reproducible end to end through the binary.

use crate::sync::atomic::{AtomicBool, Ordering};

/// What a single scripted fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Rank `rank` dies (poisons the group and unwinds) immediately
    /// before performing its `allreduce`-th AllReduce (1-based).
    RankDeath {
        /// The rank that dies.
        rank: usize,
        /// Its fatal AllReduce ordinal, 1-based.
        allreduce: u64,
    },
    /// The fork-join team member that owns pattern slice `slice` —
    /// the master for slice 0, worker `slice − 1` otherwise — panics
    /// inside the job of its `region`-th parallel region (1-based).
    /// The panic is caught where the job runs and surfaced by the
    /// master as a structured error — the pool must not deadlock.
    JobPanic {
        /// The slice whose job panics (0 = the master's).
        slice: usize,
        /// Its fatal region ordinal, 1-based.
        region: u64,
    },
    /// Checkpoint write attempts `attempt .. attempt + count` (1-based
    /// ordinals over all attempts, retries included) fail with an
    /// injected I/O error before touching the filesystem.
    CheckpointWrite {
        /// First failing attempt ordinal, 1-based.
        attempt: u64,
        /// Number of consecutive failing attempts.
        count: u64,
    },
    /// Rank `rank`'s whole OS process is SIGKILLed immediately before
    /// its `allreduce`-th AllReduce (1-based). Under the socket
    /// transport this is a real `kill(getpid(), SIGKILL)` — no unwind,
    /// no poison frame, the peers learn of the death only from the
    /// closed connection. The in-thread transport has no process per
    /// rank, so it degrades to the same simulated death as
    /// [`FaultKind::RankDeath`].
    RankKill9 {
        /// The rank whose process is killed.
        rank: usize,
        /// Its fatal AllReduce ordinal, 1-based.
        allreduce: u64,
    },
}

/// One scripted fault plus its fired latch.
#[derive(Debug)]
struct Fault {
    kind: FaultKind,
    fired: AtomicBool,
}

impl Fault {
    fn new(kind: FaultKind) -> Self {
        Fault {
            kind,
            fired: AtomicBool::new(false),
        }
    }

    /// Latches the fault: true exactly once.
    fn fire_once(&self) -> bool {
        !self.fired.swap(true, Ordering::Relaxed)
    }
}

/// A replayable schedule of scripted faults, shared (via `Arc`) by
/// every injection site of a run.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault to the schedule.
    pub fn with(mut self, kind: FaultKind) -> Self {
        self.faults.push(Fault::new(kind));
        self
    }

    /// Convenience: rank `rank` dies at its `allreduce`-th AllReduce.
    pub fn rank_death(rank: usize, allreduce: u64) -> Self {
        Self::new().with(FaultKind::RankDeath { rank, allreduce })
    }

    /// Convenience: the job panics on slice `slice` (0 = the
    /// master's) in its `region`-th region.
    pub fn job_panic(slice: usize, region: u64) -> Self {
        Self::new().with(FaultKind::JobPanic { slice, region })
    }

    /// Convenience: `count` consecutive checkpoint write attempts
    /// starting at the `attempt`-th fail.
    pub fn checkpoint_write_errors(attempt: u64, count: u64) -> Self {
        Self::new().with(FaultKind::CheckpointWrite { attempt, count })
    }

    /// Number of scripted faults (fired or not).
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parses the CLI grammar: `;`-separated faults, each a
    /// `,`-separated list of `key=value` pairs.
    ///
    /// * `rank=R,allreduce=N` — rank `R` dies at its `N`-th AllReduce.
    /// * `rank=R,kill9=N` — rank `R`'s process is SIGKILLed at its
    ///   `N`-th AllReduce (simulated death under `--transport threads`).
    /// * `rank=R,region=N` — the fork-join job panics on slice `R` in
    ///   its `N`-th region (slice 0 is the master's own, slice `R ≥ 1`
    ///   worker `R − 1`'s).
    /// * `ckpt-write=N[,count=K]` — checkpoint write attempts
    ///   `N..N+K` fail (default `K = 1`).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let mut kv = std::collections::HashMap::new();
            for pair in part.split(',') {
                let (k, v) = pair
                    .trim()
                    .split_once('=')
                    .ok_or_else(|| format!("fault term {pair:?} is not key=value"))?;
                let v: u64 = v
                    .trim()
                    .parse()
                    .map_err(|e| format!("fault value in {pair:?}: {e}"))?;
                if kv.insert(k.trim().to_string(), v).is_some() {
                    return Err(format!("duplicate fault key {k:?} in {part:?}"));
                }
            }
            let take = |kv: &mut std::collections::HashMap<String, u64>, k: &str| kv.remove(k);
            let kind = if let Some(attempt) = take(&mut kv, "ckpt-write") {
                let count = take(&mut kv, "count").unwrap_or(1);
                if attempt == 0 || count == 0 {
                    return Err("ckpt-write/count are 1-based and nonzero".into());
                }
                FaultKind::CheckpointWrite { attempt, count }
            } else {
                let rank = take(&mut kv, "rank")
                    .ok_or_else(|| format!("fault {part:?} needs rank= or ckpt-write="))?
                    as usize;
                match (
                    take(&mut kv, "allreduce"),
                    take(&mut kv, "region"),
                    take(&mut kv, "kill9"),
                ) {
                    (Some(n), None, None) if n > 0 => FaultKind::RankDeath { rank, allreduce: n },
                    (None, Some(n), None) if n > 0 => FaultKind::JobPanic {
                        slice: rank,
                        region: n,
                    },
                    (None, None, Some(n)) if n > 0 => FaultKind::RankKill9 { rank, allreduce: n },
                    (Some(0), None, None) | (None, Some(0), None) | (None, None, Some(0)) => {
                        return Err("allreduce/region/kill9 ordinals are 1-based".into())
                    }
                    _ => {
                        return Err(format!(
                            "fault {part:?} needs exactly one of allreduce=, region=, or kill9="
                        ))
                    }
                }
            };
            if !kv.is_empty() {
                let mut extra: Vec<_> = kv.into_keys().collect();
                extra.sort();
                return Err(format!("unknown fault keys {extra:?} in {part:?}"));
            }
            plan = plan.with(kind);
        }
        if plan.is_empty() {
            return Err("empty fault spec".into());
        }
        Ok(plan)
    }

    /// Injection hook for [`crate::comm::ThreadComm`]: does `rank` die
    /// right before its `n`-th AllReduce? Fires at most once per
    /// scripted fault.
    pub fn dies_at_allreduce(&self, rank: usize, n: u64) -> bool {
        self.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::RankDeath { rank: r, allreduce } if r == rank && allreduce == n)
                && f.fire_once()
        })
    }

    /// Injection hook for [`crate::transport::SocketComm`] (and, as a
    /// simulated death, [`crate::comm::ThreadComm`]): is `rank`'s
    /// process SIGKILLed right before its `n`-th AllReduce? Fires at
    /// most once per scripted fault — though under a real kill the
    /// latch dies with the process, so the supervisor must also gate
    /// re-injection by attempt (degraded respawns run fault-free).
    pub fn kills_at_allreduce(&self, rank: usize, n: u64) -> bool {
        self.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::RankKill9 { rank: r, allreduce } if r == rank && allreduce == n)
                && f.fire_once()
        })
    }

    /// Injection hook for the fork-join job body: does the job panic
    /// on slice `slice` (0 = the master's) in its `n`-th region?
    /// Fires at most once per scripted fault.
    pub fn job_panics(&self, slice: usize, n: u64) -> bool {
        self.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::JobPanic { slice: s, region } if s == slice && region == n)
                && f.fire_once()
        })
    }

    /// Injection hook for checkpoint writers: the I/O error the `n`-th
    /// write attempt (1-based, retries included) must fail with, if
    /// any. Window faults (`count > 1`) fire on every attempt in their
    /// window; the latch only guards re-use by later runs of the same
    /// ordinal, so the window is checked positionally instead.
    pub fn checkpoint_write_error(&self, n: u64) -> Option<std::io::Error> {
        for f in &self.faults {
            if let FaultKind::CheckpointWrite { attempt, count } = f.kind {
                if n >= attempt && n - attempt < count {
                    return Some(std::io::Error::other(format!(
                        "injected checkpoint write failure (attempt {n})"
                    )));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let p = FaultPlan::parse("rank=2,allreduce=40").unwrap();
        assert_eq!(p.len(), 1);
        assert!(p.dies_at_allreduce(2, 40));

        let p = FaultPlan::parse("rank=3,kill9=25").unwrap();
        assert_eq!(p.len(), 1);
        assert!(!p.dies_at_allreduce(3, 25), "kill9 is not a soft death");
        assert!(p.kills_at_allreduce(3, 25));
        assert!(!p.kills_at_allreduce(3, 25), "kill9 is one-shot");

        let p = FaultPlan::parse("rank=1,region=5; ckpt-write=3,count=2").unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.job_panics(1, 5));
        assert!(p.checkpoint_write_error(3).is_some());
        assert!(p.checkpoint_write_error(4).is_some());
        assert!(p.checkpoint_write_error(5).is_none());
        assert!(p.checkpoint_write_error(2).is_none());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "rank=2",
            "rank=2,allreduce=40,region=1",
            "allreduce=40",
            "rank=two,allreduce=40",
            "rank=2,allreduce=0",
            "rank=2,region=0",
            "ckpt-write=0",
            "rank=2,allreduce=40,bogus=1",
            "rank 2",
            "rank=2,rank=3,allreduce=1",
            "rank=2,kill9=0",
            "rank=2,allreduce=1,kill9=2",
            "kill9=5",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn faults_fire_exactly_once() {
        let p = FaultPlan::rank_death(1, 7);
        assert!(!p.dies_at_allreduce(0, 7));
        assert!(!p.dies_at_allreduce(1, 6));
        assert!(p.dies_at_allreduce(1, 7));
        // Consumed: the degraded rerun must not be re-killed.
        assert!(!p.dies_at_allreduce(1, 7));

        let p = FaultPlan::job_panic(0, 2);
        assert!(p.job_panics(0, 2));
        assert!(!p.job_panics(0, 2));
    }
}
