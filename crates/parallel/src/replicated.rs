//! The replicated-search (ExaML) scheme.
//!
//! "Each process runs its own consistent (with all other processes)
//! copy of the tree search algorithm, and they only communicate if
//! information needs to be exchanged" (§V-D). Every rank owns an
//! alignment slice and a full copy of the tree; the only communication
//! is a tiny AllReduce inside `log_likelihood` (1 double) and
//! `branch_derivatives` (2 doubles). Because the communicator's
//! reductions are deterministic, all ranks take bit-identical search
//! decisions and stay in lockstep without any coordination messages.

use crate::comm::{Comm, CommError, CommStats, ThreadCommGroup, DEFAULT_MAX_LEN};
use crate::fault::FaultPlan;
use crate::transport::{CommTransport, WireStats};
use phylo_bio::CompressedAlignment;
use phylo_models::GtrParams;
use phylo_search::checkpoint::{Checkpoint, RetryPolicy};
use phylo_search::{Evaluator, MlSearch, SearchResult};
use phylo_tree::{EdgeId, Tree};
use plf_core::{EngineConfig, KernelStats, LikelihoodEngine};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

/// An ExaML-style rank: a local engine plus a communicator. Implements
/// [`Evaluator`]; reductions happen transparently inside.
pub struct ReplicatedEvaluator<C: Comm> {
    engine: LikelihoodEngine,
    comm: C,
}

impl<C: Comm> ReplicatedEvaluator<C> {
    /// Wraps a rank-local engine and its communicator handle.
    pub fn new(engine: LikelihoodEngine, comm: C) -> Self {
        ReplicatedEvaluator { engine, comm }
    }

    /// Consumes the evaluator, returning its parts.
    pub fn into_parts(self) -> (LikelihoodEngine, C) {
        (self.engine, self.comm)
    }
}

impl<C: Comm> Evaluator for ReplicatedEvaluator<C> {
    fn log_likelihood(&mut self, tree: &Tree, root_edge: EdgeId) -> f64 {
        let mut buf = [self.engine.log_likelihood(tree, root_edge)];
        self.comm.allreduce_sum(&mut buf);
        buf[0]
    }

    fn prepare_branch(&mut self, tree: &Tree, edge: EdgeId) {
        // Purely local: the sumtable is a per-slice object.
        self.engine.prepare_branch(tree, edge);
    }

    fn branch_derivatives(&mut self, t: f64) -> (f64, f64) {
        let (d1, d2) = self.engine.branch_derivatives(t);
        let mut buf = [d1, d2];
        self.comm.allreduce_sum(&mut buf);
        (buf[0], buf[1])
    }

    fn set_alpha(&mut self, alpha: f64) {
        // Every rank executes the same deterministic search, so the
        // argument is already identical everywhere — no broadcast.
        self.engine.set_alpha(alpha);
    }

    fn set_model(&mut self, params: GtrParams) {
        self.engine.set_model(params);
    }

    fn alpha(&self) -> f64 {
        self.engine.alpha()
    }

    fn model(&self) -> GtrParams {
        *self.engine.model()
    }
}

/// Result of a replicated run.
#[derive(Clone, Debug)]
pub struct ReplicatedOutcome {
    /// Search result from rank 0 (identical on all ranks).
    pub result: SearchResult,
    /// Per-rank final log-likelihoods (must all agree; exposed so
    /// tests can assert lockstep).
    pub rank_likelihoods: Vec<f64>,
    /// Kernel statistics merged over all ranks (under the socket
    /// transport, rank 0's only — children report likelihoods and
    /// comm/wire stats, not full kernel counters).
    pub kernel_stats: KernelStats,
    /// Communication statistics of rank 0.
    pub comm_stats: CommStats,
    /// The transport that ran the collectives (`"threads"` or a
    /// socket kind name such as `"uds"`).
    pub transport: String,
    /// Per-collective wall-time at the communicator call boundary,
    /// merged over all ranks (wire time under the socket transport;
    /// barrier/handoff time in-thread).
    pub wire: WireStats,
}

/// Configuration of a fault-tolerant replicated run
/// ([`run_replicated_ft`]).
#[derive(Clone, Debug)]
pub struct FtConfig {
    /// Ranks to start with.
    pub num_ranks: usize,
    /// On a rank failure, re-split the pattern ranges over the
    /// survivors, reload the last checkpoint (if any), and resume
    /// with fewer ranks instead of returning the error.
    pub degrade: bool,
    /// Checkpoint file: loaded (if present) before the ranks spawn,
    /// written by rank 0 after every improvement round. The ranks run
    /// in lockstep (every decision follows deterministic AllReduce
    /// results), so a single writer needs no extra synchronization.
    pub checkpoint: Option<PathBuf>,
    /// Retry policy for checkpoint writes.
    pub retry: RetryPolicy,
    /// Scripted failures (rank deaths, checkpoint write errors); zero
    /// cost when `None`.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl FtConfig {
    /// A plain configuration: no degradation, no checkpointing, no
    /// fault injection.
    pub fn new(num_ranks: usize) -> Self {
        FtConfig {
            num_ranks,
            degrade: false,
            checkpoint: None,
            retry: RetryPolicy::default(),
            fault_plan: None,
        }
    }
}

/// Structured failure of a replicated run: every rank has been joined
/// and the most causal error is reported (a checkpoint failure beats
/// the secondary collective errors it triggers on the sibling ranks).
#[derive(Clone, Debug, PartialEq)]
pub enum ReplicatedError {
    /// A collective failed; [`CommError::failed_rank`] names the rank
    /// whose death or misuse poisoned the group.
    Comm(CommError),
    /// A rank panicked outside the collectives (the panic was caught
    /// and the group poisoned, so the siblings failed promptly).
    RankPanicked {
        /// The panicking rank.
        rank: usize,
        /// The panic message, if it was a string.
        message: String,
    },
    /// Loading, applying, or durably writing the checkpoint failed
    /// (writes only after the bounded retries were exhausted).
    Checkpoint(String),
    /// Degradation ran out of ranks: the last survivor failed too.
    NoSurvivors,
    /// The transport layer itself failed outside any collective
    /// (socket bind/accept/handshake, child spawn, or a missing final
    /// report) — only the socket transport emits this.
    Transport(String),
}

impl std::fmt::Display for ReplicatedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicatedError::Comm(e) => write!(f, "collective failed: {e}"),
            ReplicatedError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            ReplicatedError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            ReplicatedError::NoSurvivors => {
                write!(f, "all ranks failed; nothing left to degrade onto")
            }
            ReplicatedError::Transport(msg) => write!(f, "transport error: {msg}"),
        }
    }
}

impl std::error::Error for ReplicatedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplicatedError::Comm(e) => Some(e),
            _ => None,
        }
    }
}

/// Converts a caught rank panic into its structured cause: collectives
/// panic with a [`CommError`] payload (see [`Comm::allreduce_sum`]);
/// anything else is a genuine rank panic.
fn classify_panic(rank: usize, payload: Box<dyn std::any::Any + Send>) -> ReplicatedError {
    match payload.downcast::<CommError>() {
        Ok(e) => ReplicatedError::Comm(*e),
        Err(payload) => ReplicatedError::RankPanicked {
            rank,
            message: crate::panic_message(&*payload),
        },
    }
}

/// The cause among the errors of one attempt, the first of its class:
/// a checkpoint failure or a panic outside the collectives poisons the
/// group, the siblings' collective errors are its effect, and transport
/// plumbing that fell over afterwards explains least.
pub(crate) fn most_causal(
    errors: impl IntoIterator<Item = ReplicatedError>,
) -> Option<ReplicatedError> {
    errors.into_iter().min_by_key(|e| match e {
        ReplicatedError::Checkpoint(_) => 0,
        ReplicatedError::RankPanicked { .. } => 1,
        ReplicatedError::Comm(_) => 2,
        ReplicatedError::Transport(_) | ReplicatedError::NoSurvivors => 3,
    })
}

/// Runs the full ML search under the replicated scheme with
/// `num_ranks` threads, starting from `tree`.
///
/// Kept for plain (non-fault-tolerant) callers; panics if a rank
/// fails. Use [`run_replicated_ft`] to get structured errors,
/// checkpointing, and degraded restart.
pub fn run_replicated(
    tree: &Tree,
    aln: &CompressedAlignment,
    config: EngineConfig,
    search: MlSearch,
    num_ranks: usize,
) -> ReplicatedOutcome {
    run_replicated_ft(tree, aln, config, search, &FtConfig::new(num_ranks))
        .unwrap_or_else(|e| panic!("replicated run failed: {e}"))
}

/// Fault-tolerant replicated search over threads.
///
/// Every rank is [`run_rank_body`]; the ranks are joined and the
/// failure is classified ([`most_causal`]). With [`FtConfig::degrade`],
/// a rank failure triggers a restart over one fewer rank
/// ([`run_degrading`]): pattern ranges are re-split, the last
/// checkpoint is reloaded, and — because the search is deterministic
/// in the rank count only through the *values* of the reductions,
/// which are sliced-sum invariant — the degraded run reaches the same
/// final log-likelihood as an uninterrupted run at that rank count.
pub fn run_replicated_ft(
    tree: &Tree,
    aln: &CompressedAlignment,
    config: EngineConfig,
    search: MlSearch,
    ft: &FtConfig,
) -> Result<ReplicatedOutcome, ReplicatedError> {
    let inputs = RankInputs {
        tree,
        aln,
        config,
        search,
        ft,
    };
    run_degrading(ft, |num_ranks| attempt_replicated(inputs, num_ranks))
}

/// The one degrade loop, whatever carries the collectives: runs
/// `attempt(ranks)` from [`FtConfig::num_ranks`] down and, with
/// [`FtConfig::degrade`], answers a rank failure — a failed collective
/// or a rank panic, not a checkpoint or transport error — with the next
/// attempt on one rank fewer, until none is left.
pub(crate) fn run_degrading(
    ft: &FtConfig,
    mut attempt: impl FnMut(usize) -> Result<ReplicatedOutcome, ReplicatedError>,
) -> Result<ReplicatedOutcome, ReplicatedError> {
    assert!(ft.num_ranks >= 1);
    for ranks in (1..=ft.num_ranks).rev() {
        match attempt(ranks) {
            Err(ReplicatedError::Comm(_) | ReplicatedError::RankPanicked { .. }) if ft.degrade => {
                if ranks > 1 {
                    plf_core::metrics::counter("replicated.degrades").inc();
                }
            }
            outcome => return outcome,
        }
    }
    Err(ReplicatedError::NoSurvivors)
}

/// What every rank of a replicated run is given — identical on all of
/// them, which is what keeps the searches in lockstep.
#[derive(Clone, Copy)]
pub(crate) struct RankInputs<'a> {
    pub(crate) tree: &'a Tree,
    pub(crate) aln: &'a CompressedAlignment,
    pub(crate) config: EngineConfig,
    pub(crate) search: MlSearch,
    pub(crate) ft: &'a FtConfig,
}

/// What a rank that finished hands to whoever joins it.
pub(crate) struct RankDone {
    pub(crate) result: SearchResult,
    pub(crate) final_ll: f64,
    pub(crate) kernel_stats: KernelStats,
    pub(crate) comm_stats: CommStats,
    pub(crate) wire: WireStats,
    pub(crate) transport: &'static str,
}

/// The snapshot an attempt resumes from, if the checkpoint file
/// exists. Loaded before the attempt's first collective — by the
/// thread supervisor once for all ranks, by a socket rank after
/// connecting — and rank 0 can only write a *new* one after a full
/// round of collectives, so all ranks resume from the same snapshot (a
/// torn read per rank could de-synchronize the lockstep searches).
pub(crate) fn load_resume(ft: &FtConfig) -> Result<Option<Checkpoint>, ReplicatedError> {
    match &ft.checkpoint {
        Some(p) if p.exists() => Checkpoint::load(p)
            .map(Some)
            .map_err(|e| ReplicatedError::Checkpoint(format!("loading {}: {e}", p.display()))),
        _ => Ok(None),
    }
}

/// One rank of the replicated search, whatever carries its
/// collectives: the deterministic search over this rank's pattern
/// slice ([`search_slice`]) under `catch_unwind`. A rank that fails for
/// *any* reason — a panic, a collective error, a checkpoint write that
/// exhausted its retries — marks the group dead with its cause
/// ([`CommTransport::poison`]) before its stack dies, so the lockstep
/// siblings blocked in a collective return [`CommError::PeerFailed`]
/// within bounded time. The first poisoner wins: re-poisoning after a
/// collective already did is a no-op.
pub(crate) fn run_rank_body<C: CommTransport>(
    mut comm: C,
    inputs: RankInputs<'_>,
    resume: Option<&Checkpoint>,
) -> Result<RankDone, ReplicatedError> {
    let rank = comm.rank();
    let outcome = catch_unwind(AssertUnwindSafe(|| search_slice(&mut comm, inputs, resume)))
        .unwrap_or_else(|payload| Err(classify_panic(rank, payload)));
    if let Err(cause) = &outcome {
        comm.poison(cause);
    }
    outcome
}

/// The rank itself; its final log-likelihood is handed over by
/// [`CommTransport::report`].
fn search_slice<C: CommTransport>(
    comm: &mut C,
    inputs: RankInputs<'_>,
    resume: Option<&Checkpoint>,
) -> Result<RankDone, ReplicatedError> {
    let RankInputs {
        tree,
        aln,
        config,
        search,
        ft,
    } = inputs;
    let range = crate::forkjoin::split_ranges(aln.num_patterns(), comm.size())[comm.rank()].clone();
    // Rank 0 is the single checkpoint writer: the ranks run in
    // lockstep, so one writer needs no extra synchronization.
    let ckpt_path = ft.checkpoint.as_deref().filter(|_| comm.rank() == 0);
    let mut local_tree = tree.clone();
    let engine = LikelihoodEngine::with_range(&local_tree, aln, config, range);
    let mut eval = ReplicatedEvaluator::new(engine, comm);
    let mut ckpt_attempts: u64 = 0;
    let result = search
        .run_resumable(&mut eval, &mut local_tree, resume, |cp| {
            let Some(path) = ckpt_path else { return Ok(()) };
            let saved = match &ft.fault_plan {
                Some(plan) => cp.save_with_retry_injected(path, &ft.retry, &mut || {
                    ckpt_attempts += 1;
                    plan.checkpoint_write_error(ckpt_attempts)
                }),
                None => cp.save_with_retry(path, &ft.retry),
            };
            saved.map_err(|e| format!("checkpoint write to {} failed: {e}", path.display()))
        })
        .map_err(ReplicatedError::Checkpoint)?;
    let final_ll = eval.log_likelihood(&local_tree, 0);
    let (engine, comm) = eval.into_parts();
    comm.report(final_ll)
        .map_err(|e| ReplicatedError::Transport(format!("rank {} result: {e}", comm.rank())))?;
    Ok(RankDone {
        result,
        final_ll,
        kernel_stats: engine.stats().clone(),
        comm_stats: comm.stats(),
        wire: comm.wire_stats(),
        transport: comm.transport_name(),
    })
}

/// One attempt at `num_ranks` threads: spawn, join, classify.
fn attempt_replicated(
    inputs: RankInputs<'_>,
    num_ranks: usize,
) -> Result<ReplicatedOutcome, ReplicatedError> {
    let resume = load_resume(inputs.ft)?;
    let mut group = ThreadCommGroup::new(num_ranks, DEFAULT_MAX_LEN)
        .with_fault_plan(inputs.ft.fault_plan.clone());
    let rank_results: Vec<Result<RankDone, ReplicatedError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..num_ranks)
            .map(|_| {
                let (comm, resume) = (group.take(), resume.as_ref());
                scope.spawn(move || run_rank_body(comm, inputs, resume))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panics are caught inside the thread"))
            .collect()
    });
    let failed = rank_results
        .iter()
        .filter_map(|r| r.as_ref().err().cloned());
    if let Some(e) = most_causal(failed) {
        return Err(e);
    }
    let done: Vec<RankDone> = rank_results.into_iter().flatten().collect();

    let mut kernel_stats = KernelStats::new();
    let mut wire = WireStats::default();
    for d in &done {
        kernel_stats.merge(&d.kernel_stats);
        wire.merge(&d.wire);
    }
    let rank_likelihoods = done.iter().map(|d| d.final_ll).collect();
    let rank0 = done.into_iter().next().expect("≥1 rank");
    Ok(ReplicatedOutcome {
        result: rank0.result,
        rank_likelihoods,
        kernel_stats,
        comm_stats: rank0.comm_stats,
        transport: rank0.transport.to_string(),
        wire,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_models::{DiscreteGamma, Gtr};
    use phylo_search::SearchConfig;
    use phylo_tree::build::{default_names, random_tree};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dataset() -> (Tree, CompressedAlignment) {
        let mut rng = SmallRng::seed_from_u64(31);
        let names = default_names(8);
        let tree = random_tree(&names, 0.12, &mut rng).unwrap();
        let g = Gtr::new(GtrParams::jc69());
        let gamma = DiscreteGamma::new(1.1);
        let aln = phylo_seqgen::simulate_alignment(&tree, g.eigen(), &gamma, 900, &mut rng);
        (tree, CompressedAlignment::from_alignment(&aln))
    }

    #[test]
    fn replicated_equals_serial_search() {
        let (tree0, aln) = dataset();
        let names = tree0.tip_names().to_vec();
        let start = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(6)).unwrap();
        let cfg = EngineConfig::default();
        let search = MlSearch::new(SearchConfig {
            max_rounds: 3,
            optimize_model: false,
            ..Default::default()
        });

        let mut t_serial = start.clone();
        let mut serial = LikelihoodEngine::new(&t_serial, &aln, cfg);
        let r_serial = search.run(&mut serial, &mut t_serial);

        for ranks in [1usize, 2, 5] {
            let out = run_replicated(&start, &aln, cfg, search, ranks);
            assert!(
                (out.result.log_likelihood - r_serial.log_likelihood).abs() < 1e-7,
                "ranks={ranks}: {} vs {}",
                out.result.log_likelihood,
                r_serial.log_likelihood
            );
            let parsed = phylo_tree::newick::parse(&out.result.newick).unwrap();
            assert_eq!(parsed.rf_distance(&t_serial), 0, "ranks={ranks}");
        }
    }

    #[test]
    fn all_ranks_in_lockstep() {
        let (tree, aln) = dataset();
        let cfg = EngineConfig::default();
        let search = MlSearch::new(SearchConfig {
            max_rounds: 2,
            optimize_model: true,
            ..Default::default()
        });
        let out = run_replicated(&tree, &aln, cfg, search, 4);
        for w in out.rank_likelihoods.windows(2) {
            assert_eq!(w[0], w[1], "ranks diverged: {:?}", out.rank_likelihoods);
        }
        assert!(out.comm_stats.allreduces > 0);
    }

    #[test]
    fn scripted_rank_death_yields_structured_error_not_hang() {
        let (tree, aln) = dataset();
        let cfg = EngineConfig::default();
        let search = MlSearch::new(SearchConfig {
            max_rounds: 2,
            optimize_model: false,
            ..Default::default()
        });
        let mut ft = FtConfig::new(3);
        ft.fault_plan = Some(Arc::new(FaultPlan::rank_death(1, 5)));
        // Without --degrade the failure is terminal, but every rank is
        // joined and the cause is structured (the test completing at
        // all is the no-hang property).
        let err = run_replicated_ft(&tree, &aln, cfg, search, &ft).unwrap_err();
        assert_eq!(
            err,
            ReplicatedError::Comm(CommError::PeerFailed { rank: 1 })
        );
    }

    #[test]
    fn a_genuine_rank_panic_is_structured_and_outranks_its_effects() {
        // A tree over other taxa: every rank panics building its engine.
        let (_, aln) = dataset();
        let tree = random_tree(&default_names(5), 0.1, &mut SmallRng::seed_from_u64(1)).unwrap();
        let search = MlSearch::new(SearchConfig::default());
        let err = run_replicated_ft(
            &tree,
            &aln,
            EngineConfig::default(),
            search,
            &FtConfig::new(2),
        )
        .unwrap_err();
        assert!(
            matches!(err, ReplicatedError::RankPanicked { rank: 0, .. }),
            "{err}"
        );
        // The one cause table: checkpoint > panic > collective >
        // transport, the first error of the winning class.
        let comm = |rank| ReplicatedError::Comm(CommError::PeerFailed { rank });
        let ckpt = ReplicatedError::Checkpoint("disk".into());
        let transport = ReplicatedError::Transport("bind".into());
        let by_cause = |errors: &[&ReplicatedError]| most_causal(errors.iter().copied().cloned());
        assert_eq!(by_cause(&[&transport, &comm(2), &comm(1)]), Some(comm(2)));
        assert_eq!(by_cause(&[&comm(1), &err, &transport]), Some(err.clone()));
        assert_eq!(by_cause(&[&comm(1), &err, &ckpt]), Some(ckpt));
        assert_eq!(by_cause(&[]), None);
    }

    #[test]
    fn degrade_restarts_on_survivors_and_matches_clean_lower_rank_run() {
        let (tree, aln) = dataset();
        let cfg = EngineConfig::default();
        let search = MlSearch::new(SearchConfig {
            max_rounds: 2,
            optimize_model: false,
            ..Default::default()
        });
        let clean = run_replicated(&tree, &aln, cfg, search, 2);

        let mut ft = FtConfig::new(3);
        ft.degrade = true;
        ft.fault_plan = Some(Arc::new(FaultPlan::rank_death(2, 3)));
        let out = run_replicated_ft(&tree, &aln, cfg, search, &ft).unwrap();
        assert_eq!(out.rank_likelihoods.len(), 2, "restarted on the survivors");
        // No checkpoint: the degraded attempt restarts from scratch at
        // 2 ranks, which is *exactly* the uninterrupted 2-rank run
        // (deterministic search, slice-sum-invariant reductions).
        assert!(
            (out.result.log_likelihood - clean.result.log_likelihood).abs() <= 1e-9,
            "degraded {} vs clean 2-rank {}",
            out.result.log_likelihood,
            clean.result.log_likelihood
        );
        assert_eq!(out.result.newick, clean.result.newick);
    }

    #[test]
    fn degradation_exhaustion_reports_no_survivors() {
        let (tree, aln) = dataset();
        let cfg = EngineConfig::default();
        let search = MlSearch::new(SearchConfig {
            max_rounds: 1,
            optimize_model: false,
            ..Default::default()
        });
        // Attempt 1 (2 ranks): rank 1 dies at its 1st AllReduce (rank
        // 0 has completed none, so its own fault stays unfired).
        // Attempt 2 (1 rank): rank 0 dies at its 2nd AllReduce.
        let plan = FaultPlan::new()
            .with(crate::fault::FaultKind::RankDeath {
                rank: 1,
                allreduce: 1,
            })
            .with(crate::fault::FaultKind::RankDeath {
                rank: 0,
                allreduce: 2,
            });
        let mut ft = FtConfig::new(2);
        ft.degrade = true;
        ft.fault_plan = Some(Arc::new(plan));
        let err = run_replicated_ft(&tree, &aln, cfg, search, &ft).unwrap_err();
        assert_eq!(err, ReplicatedError::NoSurvivors);
    }

    #[test]
    fn rank0_checkpoints_and_all_ranks_resume_in_lockstep() {
        let (tree, aln) = dataset();
        let cfg = EngineConfig::default();
        let dir = std::env::temp_dir().join(format!("phylomic-repl-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repl.ckp");
        let _ = std::fs::remove_file(&path);

        let mut ft = FtConfig::new(3);
        ft.checkpoint = Some(path.clone());
        let short = MlSearch::new(SearchConfig {
            max_rounds: 1,
            optimize_model: false,
            ..Default::default()
        });
        run_replicated_ft(&tree, &aln, cfg, short, &ft).unwrap();
        assert!(path.exists(), "rank 0 must write the checkpoint");
        let cp = Checkpoint::load(&path).unwrap();
        assert_eq!(cp.rounds_done, 1);

        // Resume: all ranks restart from the same snapshot and stay in
        // lockstep to an improved (never regressed) optimum.
        let full = MlSearch::new(SearchConfig {
            max_rounds: 4,
            optimize_model: false,
            ..Default::default()
        });
        let out = run_replicated_ft(&tree, &aln, cfg, full, &ft).unwrap();
        for w in out.rank_likelihoods.windows(2) {
            assert_eq!(w[0], w[1], "resumed ranks diverged");
        }
        assert!(out.result.log_likelihood >= cp.log_likelihood - 1e-9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistent_checkpoint_write_failure_fails_group_without_hanging() {
        let (tree, aln) = dataset();
        let cfg = EngineConfig::default();
        let dir = std::env::temp_dir().join(format!("phylomic-repl-wfail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let search = MlSearch::new(SearchConfig {
            max_rounds: 2,
            optimize_model: false,
            ..Default::default()
        });
        let mut ft = FtConfig::new(2);
        ft.checkpoint = Some(dir.join("wfail.ckp"));
        ft.retry = RetryPolicy {
            attempts: 3,
            base_backoff: std::time::Duration::ZERO,
        };
        // Every attempt (retries included) fails: rank 0 exhausts the
        // policy, poisons the group, and the error is classified as
        // the checkpoint failure, not the secondary PeerFailed.
        ft.fault_plan = Some(Arc::new(FaultPlan::checkpoint_write_errors(1, u64::MAX)));
        let err = run_replicated_ft(&tree, &aln, cfg, search, &ft).unwrap_err();
        match err {
            ReplicatedError::Checkpoint(msg) => {
                assert!(msg.contains("injected"), "unexpected cause: {msg}")
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
        assert!(!dir.join("wfail.ckp").exists(), "no write ever succeeded");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn communication_is_tiny_per_operation() {
        // The ExaML signature: bytes per allreduce is 8 or 16.
        let (tree, aln) = dataset();
        let cfg = EngineConfig::default();
        let search = MlSearch::new(SearchConfig {
            max_rounds: 1,
            optimize_model: false,
            ..Default::default()
        });
        let out = run_replicated(&tree, &aln, cfg, search, 3);
        let per_op = out.comm_stats.bytes as f64 / out.comm_stats.allreduces as f64;
        assert!(per_op <= 16.0, "bytes per allreduce = {per_op}");
    }
}
