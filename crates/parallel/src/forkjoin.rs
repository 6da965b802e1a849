//! The fork-join (RAxML-Light PThreads) scheme.
//!
//! A single master runs the search; the alignment patterns are split
//! into one contiguous slice per team member — the master's slice 0
//! plus one per persistent worker thread — and each member owns a
//! [`LikelihoodEngine`] over its slice. Every likelihood operation
//! becomes a parallel region: the master publishes one job in a shared
//! slot, releases the workers through the sense-reversing
//! [`SenseBarrier`](crate::SenseBarrier) (*fork*), runs the job on its
//! own slice like every worker ([`run_job`]), each member writes its
//! partial result into its own slot of a shared reply array, and a
//! second barrier pass (*join*) hands the array back to the master,
//! which reduces it in slice order from `comm::SUM_IDENTITY` by
//! `comm::add_partial`, the steps of the crate's one slice-sum rule
//! (`comm::sum_in_order`) — "master and worker processes
//! have to communicate at least twice per parallel region/kernel"
//! (§V-D), which is exactly the synchronization cost `micsim` charges
//! this scheme. The master computes because RAxML-Light's thread 0
//! and an OpenMP master do: a core that only spins at the join barrier
//! is a core the paper's many-core argument cannot afford.
//!
//! There are no channels and no allocations on the fast path, and no
//! member ever waits on a lock: the job slot is an `RwLock` and each reply
//! slot a `Mutex`, handed between master and workers in the windows
//! the barrier passes separate — the [`RegionProtocol`] extracted into
//! [`crate::slot`], where the interleave model tests exercise it
//! directly. The tree a job refers to is a buffer inside the job slot
//! that the master refreshes in place; replies are reduced straight
//! out of their slots. The master also times both barrier waits of
//! every region — the waits alone, its own share of the job excluded —
//! so the per-region fork/join latency distribution lands in
//! [`KernelStats`] next to the kernel timings.

use crate::barrier::BarrierToken;
use crate::comm::{add_partial, SUM_IDENTITY};
use crate::fault::FaultPlan;
use crate::slot::RegionProtocol;
use crate::sync::thread::{self, JoinHandle};
use phylo_bio::CompressedAlignment;
use phylo_models::GtrParams;
use phylo_search::Evaluator;
use phylo_tree::{EdgeId, Tree};
use plf_core::trace::{events_from_stats, TraceEvent};
use plf_core::{clock, EngineConfig, KernelStats, LikelihoodEngine};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Splits `n` items into `k` contiguous, balanced ranges. When
/// `k > n`, some ranges are empty — team members holding them
/// contribute identity partials (0 log-likelihood, 0 derivatives).
pub fn split_ranges(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    assert!(k >= 1);
    (0..k).map(|i| (i * n / k)..((i + 1) * n / k)).collect()
}

/// What one region asks of every team member.
#[derive(Clone, Copy, Default)]
enum Op {
    /// Initial state before the first region.
    #[default]
    Idle,
    Eval(EdgeId),
    Prepare(EdgeId),
    Derivatives(f64),
    SetAlpha(f64),
    SetModel(GtrParams),
    TakeStats,
    Shutdown,
}

/// The broadcast work item. The master edits it in place before the
/// fork barrier; every team member reads it by reference between fork
/// and join.
struct Job {
    op: Op,
    /// The tree `Eval` / `Prepare` refer to: a snapshot of the
    /// search's tree that only the master writes (`clone_from`, into
    /// the arrays it already has) and only while the workers wait at
    /// the fork barrier.
    tree: Tree,
}

/// One slice's partial result, written into its private slot of the
/// shared reply array between fork and join.
#[derive(Default)]
enum Reply {
    /// Slot not yet filled this region.
    #[default]
    None,
    Scalar(f64),
    Pair(f64, f64),
    Stats(Box<KernelStats>),
    Done,
    /// The job panicked on this slice; the message is surfaced to the
    /// master, which re-panics instead of hanging or silently
    /// mis-reducing.
    Panicked(String),
}

/// Master handle of the fork-join scheme; implements
/// [`phylo_search::Evaluator`] so the unmodified search drives it.
pub struct ForkJoinEvaluator {
    shared: Arc<RegionProtocol<Job, Reply>>,
    handles: Vec<JoinHandle<()>>,
    token: BarrierToken,
    /// The master's own team membership: the engine over slice 0.
    engine: LikelihoodEngine,
    fault_plan: Option<Arc<FaultPlan>>,
    /// Master-side stats: fork/join latency of every parallel region.
    local: KernelStats,
    /// Parallel regions dispatched (each costs one fork + one join
    /// synchronization).
    regions: u64,
}

impl ForkJoinEvaluator {
    /// Splits the patterns into `num_workers + 1` balanced slices and
    /// spawns `num_workers` workers over slices `1..`; the calling
    /// thread keeps slice 0 and computes it inside every region, so
    /// `num_workers + 1` threads compute and none only waits. Zero
    /// workers is legal: every barrier pass returns at once and the
    /// evaluator is the serial engine behind the region protocol.
    /// More slices than patterns are fine too: the surplus members
    /// own empty slices and return identity partials.
    pub fn new(
        tree: &Tree,
        aln: &CompressedAlignment,
        config: EngineConfig,
        num_workers: usize,
    ) -> Self {
        Self::with_fault_plan(tree, aln, config, num_workers, None)
    }

    /// Like [`Self::new`], but with a scripted [`FaultPlan`] whose
    /// job-panic faults fire inside the matching slice's job — slice
    /// 0 is the master's, slice `i + 1` worker `i`'s — caught and
    /// surfaced like any other job panic, never a hang.
    pub fn with_fault_plan(
        tree: &Tree,
        aln: &CompressedAlignment,
        config: EngineConfig,
        num_workers: usize,
        fault_plan: Option<Arc<FaultPlan>>,
    ) -> Self {
        let shared = Arc::new(RegionProtocol::new(
            num_workers,
            Job {
                op: Op::Idle,
                tree: tree.clone(),
            },
        ));
        plf_core::span::set_thread_label("master");
        plf_core::metrics::gauge("forkjoin.workers").set(num_workers as u64);
        let mut slices = split_ranges(aln.num_patterns(), num_workers + 1).into_iter();
        // Expose the static pattern partition: the spread of these
        // gauges is the load-imbalance bound the paper's Fig. 4
        // efficiency discussion starts from.
        let own = slices.next().expect("split_ranges returns k >= 1 ranges");
        plf_core::metrics::gauge("forkjoin.master.sites").set(own.len() as u64);
        let engine = LikelihoodEngine::with_range(tree, aln, config, own);
        let handles = slices
            .enumerate()
            .map(|(idx, range)| {
                plf_core::metrics::gauge(&format!("forkjoin.worker.{idx}.sites"))
                    .set(range.len() as u64);
                let engine = LikelihoodEngine::with_range(tree, aln, config, range);
                let shared = Arc::clone(&shared);
                let plan = fault_plan.clone();
                thread::spawn(move || {
                    // If the worker unwinds outside the caught job
                    // region, mark the protocol dead so the master's
                    // fork/join fails instead of spinning forever.
                    let guard = PoisonOnUnwind {
                        proto: &shared,
                        rank: idx,
                    };
                    worker_loop(&shared, idx, engine, plan.as_deref());
                    std::mem::forget(guard);
                })
            })
            .collect();
        ForkJoinEvaluator {
            shared,
            handles,
            token: BarrierToken::new(),
            engine,
            fault_plan,
            local: KernelStats::new(),
            regions: 0,
        }
    }

    /// Number of spawned worker threads; the team is one larger (the
    /// master computes slice 0).
    pub fn num_workers(&self) -> usize {
        self.handles.len()
    }

    /// Parallel regions dispatched so far.
    pub fn regions(&self) -> u64 {
        self.regions
    }

    /// Master-side statistics: the fork/join latency histogram of
    /// every parallel region — pure barrier waits, the master's own
    /// share of each job not included (the kernel counters live with
    /// the slices; see [`Self::take_stats_per_worker`]).
    pub fn master_stats(&self) -> &KernelStats {
        &self.local
    }

    /// Runs one parallel region: publish `op` (and refresh the job's
    /// tree from `tree` when the op reads one), fork, run the job on
    /// the master's slice, join, and hand every slice's reply to
    /// `fold` in slice order. Both barrier waits are timed into the
    /// region-latency stats. Nothing here allocates.
    ///
    /// # Panics
    /// Re-panics with the job's message if the job panicked on any
    /// slice — the master's included: its panic is caught like a
    /// worker's, so the master still reaches the join barrier — after
    /// the region completes. The pool itself stays joinable, so
    /// `Drop` still shuts the workers down cleanly. A worker that
    /// *died* (unwound outside the caught job region) poisons the
    /// protocol; the master then panics with a rank-naming message
    /// instead of hanging at the barrier.
    fn region(&mut self, op: Op, tree: Option<&Tree>, mut fold: impl FnMut(Reply)) {
        self.regions += 1;
        regions_counter().inc();
        self.shared.publish_job(|job| {
            job.op = op;
            if let Some(tree) = tree {
                job.tree.clone_from(tree);
            }
        });
        let t0 = clock::now_ns();
        if let Err(p) = self.shared.fork(&mut self.token) {
            panic!("fork-join worker {} died; pool is poisoned", p.rank);
        }
        let t1 = clock::now_ns();
        let reply = self.shared.read_job(|job| {
            run_job(
                &mut self.engine,
                job,
                0,
                self.regions,
                self.fault_plan.as_deref(),
            )
        });
        self.shared.write_reply(0, reply);
        let t2 = clock::now_ns();
        if let Err(p) = self.shared.join(&mut self.token) {
            panic!("fork-join worker {} died; pool is poisoned", p.rank);
        }
        let t3 = clock::now_ns();
        self.local.record_region(t1 - t0, t3 - t2);
        let mut panicked = None;
        for slice in 0..self.shared.slices() {
            match self.shared.take_reply(slice) {
                Reply::Panicked(msg) => {
                    panicked.get_or_insert(msg);
                }
                reply => fold(reply),
            }
        }
        if let Some(msg) = panicked {
            panic!("fork-join worker panicked: {msg}");
        }
    }

    /// Collects and resets every slice's kernel statistics, merged
    /// together with the master's region-latency stats.
    pub fn take_stats(&mut self) -> KernelStats {
        let mut total = KernelStats::new();
        for s in self.take_stats_per_worker() {
            total.merge(&s);
        }
        total.merge(&self.local);
        self.local.reset();
        total
    }

    /// Collects and resets the kernel statistics of every team
    /// member, one entry per slice in slice order: the master's
    /// slice 0 first, then the workers in index order. Master-side
    /// region latencies stay in [`Self::master_stats`] (use
    /// [`Self::take_stats`] for the merged view).
    pub fn take_stats_per_worker(&mut self) -> Vec<KernelStats> {
        let mut per_slice = Vec::with_capacity(self.shared.slices());
        self.region(Op::TakeStats, None, |r| match r {
            Reply::Stats(s) => per_slice.push(*s),
            _ => unreachable!("stats job returns stats"),
        });
        per_slice
    }

    /// Collects and resets all statistics as trace events, one source
    /// per team member: `master` (its slice's kernels plus the region
    /// fork/join latencies) and `worker{i}`. The differing slice
    /// widths feed the calibration fit.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        let mut slices = self.take_stats_per_worker().into_iter();
        let mut master = slices.next().expect("slice 0 is the master's");
        master.merge(&self.local);
        self.local.reset();
        let mut events = events_from_stats("master", &master);
        for (i, stats) in slices.enumerate() {
            events.extend(events_from_stats(&format!("worker{i}"), &stats));
        }
        events
    }
}

/// Cached handle for the `forkjoin.regions` counter.
fn regions_counter() -> &'static plf_core::metrics::Counter {
    static C: std::sync::OnceLock<plf_core::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| plf_core::metrics::counter("forkjoin.regions"))
}

/// Drop guard a worker arms for its whole run: leaked (`mem::forget`)
/// on the normal shutdown path, it only ever drops during an unwind —
/// where it poisons the protocol so the master and siblings fail fast
/// instead of deadlocking at the next barrier pass.
struct PoisonOnUnwind<'a> {
    proto: &'a RegionProtocol<Job, Reply>,
    rank: usize,
}

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        self.proto.poison(self.rank);
    }
}

/// Executes the published job against one team member's engine — the
/// one body the master (slice 0) and every worker run. A panicking
/// job is caught and reported as [`Reply::Panicked`], so whoever ran
/// it still reaches the join barrier. `region` is the 1-based ordinal
/// of the region, which is what a scripted [`FaultPlan`] counts.
fn run_job(
    engine: &mut LikelihoodEngine,
    job: &Job,
    slice: usize,
    region: u64,
    fault_plan: Option<&FaultPlan>,
) -> Reply {
    catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = fault_plan {
            if plan.job_panics(slice, region) {
                panic!("injected fault: slice {slice} panics in region {region}");
            }
        }
        match job.op {
            Op::Eval(edge) => Reply::Scalar(engine.log_likelihood(&job.tree, edge)),
            Op::Prepare(edge) => {
                engine.prepare_branch(&job.tree, edge);
                Reply::Done
            }
            Op::Derivatives(t) => {
                let (d1, d2) = engine.branch_derivatives(t);
                Reply::Pair(d1, d2)
            }
            Op::SetAlpha(a) => {
                engine.set_alpha(a);
                Reply::Done
            }
            Op::SetModel(p) => {
                engine.set_model(p);
                Reply::Done
            }
            Op::TakeStats => {
                let s = engine.stats().clone();
                engine.reset_stats();
                Reply::Stats(Box::new(s))
            }
            Op::Idle | Op::Shutdown => unreachable!("not dispatched as work"),
        }
    }))
    .unwrap_or_else(|p| Reply::Panicked(crate::panic_message(&*p)))
}

/// The worker side of the protocol: wait at the fork barrier, run the
/// broadcast job against the worker's engine slice ([`run_job`]),
/// publish the partial result, wait at the join barrier. It records no
/// span and so registers no span track: its kernel time is in its `op`
/// events, its region time in the master's `region` event. A panicking job leaves the worker in the
/// loop so neither barrier ever deadlocks. A poisoned barrier pass (a
/// sibling died) makes the worker exit cleanly.
fn worker_loop(
    proto: &RegionProtocol<Job, Reply>,
    idx: usize,
    mut engine: LikelihoodEngine,
    fault_plan: Option<&FaultPlan>,
) {
    let slice = idx + 1;
    let mut token = BarrierToken::new();
    let mut region: u64 = 0;
    loop {
        if proto.fork(&mut token).is_err() {
            return;
        }
        region += 1;
        // `None` means Shutdown: exit before the join barrier (the
        // master skips it too).
        let reply = proto.read_job(|job| {
            (!matches!(job.op, Op::Shutdown))
                .then(|| run_job(&mut engine, job, slice, region, fault_plan))
        });
        let Some(reply) = reply else {
            return;
        };
        proto.write_reply(slice, reply);
        if proto.join(&mut token).is_err() {
            return;
        }
    }
}

impl Evaluator for ForkJoinEvaluator {
    fn log_likelihood(&mut self, tree: &Tree, root_edge: EdgeId) -> f64 {
        let mut logl = [SUM_IDENTITY];
        self.region(Op::Eval(root_edge), Some(tree), |r| match r {
            Reply::Scalar(x) => add_partial(&mut logl, [x]),
            _ => unreachable!("eval returns scalar"),
        });
        logl[0]
    }

    fn prepare_branch(&mut self, tree: &Tree, edge: EdgeId) {
        self.region(Op::Prepare(edge), Some(tree), |_| {});
    }

    fn branch_derivatives(&mut self, t: f64) -> (f64, f64) {
        let mut d = [SUM_IDENTITY; 2];
        self.region(Op::Derivatives(t), None, |r| match r {
            Reply::Pair(a, b) => add_partial(&mut d, [a, b]),
            _ => unreachable!("derivatives return a pair"),
        });
        (d[0], d[1])
    }

    fn set_alpha(&mut self, alpha: f64) {
        self.region(Op::SetAlpha(alpha), None, |_| {});
    }

    fn set_model(&mut self, params: GtrParams) {
        self.region(Op::SetModel(params), None, |_| {});
    }

    fn alpha(&self) -> f64 {
        self.engine.alpha()
    }

    fn model(&self) -> GtrParams {
        *self.engine.model()
    }
}

impl Drop for ForkJoinEvaluator {
    fn drop(&mut self) {
        // Every worker is blocked at the fork barrier — including
        // workers whose last job panicked (the panic was caught and
        // the worker kept cycling), and after a region whose job
        // panicked on the master's own slice (caught as well, so the
        // master passed the join barrier before re-raising). Publish
        // Shutdown and release them; they exit before the join
        // barrier, so the master must not wait at it either. On a
        // poisoned pool the fork fails immediately and the workers
        // have already exited through their own poisoned barrier
        // passes — joining stays safe.
        self.shared.publish_job(|job| job.op = Op::Shutdown);
        let _ = self.shared.fork(&mut self.token);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_models::{DiscreteGamma, Gtr};
    use phylo_tree::build::{default_names, random_tree};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dataset() -> (Tree, CompressedAlignment) {
        let mut rng = SmallRng::seed_from_u64(60);
        let names = default_names(9);
        let tree = random_tree(&names, 0.15, &mut rng).unwrap();
        let g = Gtr::new(GtrParams::jc69());
        let gamma = DiscreteGamma::new(0.9);
        let aln = phylo_seqgen::simulate_alignment(&tree, g.eigen(), &gamma, 700, &mut rng);
        (tree, CompressedAlignment::from_alignment(&aln))
    }

    fn small_dataset(patterns_target: usize) -> (Tree, CompressedAlignment) {
        let mut rng = SmallRng::seed_from_u64(61);
        let names = default_names(5);
        let tree = random_tree(&names, 0.2, &mut rng).unwrap();
        let g = Gtr::new(GtrParams::jc69());
        let gamma = DiscreteGamma::new(1.1);
        let aln =
            phylo_seqgen::simulate_alignment(&tree, g.eigen(), &gamma, patterns_target, &mut rng);
        (tree, CompressedAlignment::from_alignment(&aln))
    }

    /// What `ForkJoinEvaluator::new(.., workers)` must equal bit for
    /// bit: `workers + 1` bare engines over the same slices, run one
    /// after the other on this thread and folded in slice order.
    struct SliceFold(Vec<LikelihoodEngine>);

    impl SliceFold {
        fn new(tree: &Tree, aln: &CompressedAlignment, cfg: EngineConfig, workers: usize) -> Self {
            SliceFold(
                split_ranges(aln.num_patterns(), workers + 1)
                    .into_iter()
                    .map(|range| LikelihoodEngine::with_range(tree, aln, cfg, range))
                    .collect(),
            )
        }
    }

    impl Evaluator for SliceFold {
        fn log_likelihood(&mut self, tree: &Tree, root_edge: EdgeId) -> f64 {
            self.0
                .iter_mut()
                .map(|e| e.log_likelihood(tree, root_edge))
                .reduce(|a, b| a + b)
                .unwrap()
        }
        fn prepare_branch(&mut self, tree: &Tree, edge: EdgeId) {
            self.0.iter_mut().for_each(|e| e.prepare_branch(tree, edge));
        }
        fn branch_derivatives(&mut self, t: f64) -> (f64, f64) {
            self.0
                .iter_mut()
                .map(|e| e.branch_derivatives(t))
                .reduce(|a, b| (a.0 + b.0, a.1 + b.1))
                .unwrap()
        }
        fn set_alpha(&mut self, alpha: f64) {
            self.0.iter_mut().for_each(|e| e.set_alpha(alpha));
        }
        fn set_model(&mut self, params: GtrParams) {
            self.0.iter_mut().for_each(|e| e.set_model(params));
        }
        fn alpha(&self) -> f64 {
            self.0[0].alpha()
        }
        fn model(&self) -> GtrParams {
            *self.0[0].model()
        }
    }

    /// Records the bits of every value an evaluator hands the search.
    struct Recording<E> {
        inner: E,
        log: Vec<u64>,
    }

    impl<E: Evaluator> Evaluator for Recording<E> {
        fn log_likelihood(&mut self, tree: &Tree, root_edge: EdgeId) -> f64 {
            let l = self.inner.log_likelihood(tree, root_edge);
            self.log.push(l.to_bits());
            l
        }
        fn prepare_branch(&mut self, tree: &Tree, edge: EdgeId) {
            self.inner.prepare_branch(tree, edge);
        }
        fn branch_derivatives(&mut self, t: f64) -> (f64, f64) {
            let (d1, d2) = self.inner.branch_derivatives(t);
            self.log.extend([d1.to_bits(), d2.to_bits()]);
            (d1, d2)
        }
        fn set_alpha(&mut self, alpha: f64) {
            self.inner.set_alpha(alpha);
        }
        fn set_model(&mut self, params: GtrParams) {
            self.inner.set_model(params);
        }
        fn alpha(&self) -> f64 {
            self.inner.alpha()
        }
        fn model(&self) -> GtrParams {
            self.inner.model()
        }
    }

    impl<E> Recording<E> {
        fn new(inner: E) -> Self {
            Recording {
                inner,
                log: Vec::new(),
            }
        }
    }

    #[test]
    fn split_ranges_cover_everything() {
        for (n, k) in [(10, 3), (7, 7), (100, 8), (5, 1), (3, 5)] {
            let ranges = split_ranges(n, k);
            assert_eq!(ranges.len(), k);
            let total: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(total, n);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[k - 1].end, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn split_ranges_more_workers_than_items() {
        let ranges = split_ranges(2, 6);
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 2);
        assert!(ranges.iter().any(|r| r.is_empty()));
        // The master's slice is the first to run empty.
        assert!(ranges[0].is_empty());
        // Still a valid contiguous partition.
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn matches_single_engine_likelihood() {
        let (tree, aln) = dataset();
        let cfg = EngineConfig::default();
        let mut single = LikelihoodEngine::new(&tree, &aln, cfg);
        for workers in [0, 1, 3] {
            let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, workers);
            assert_eq!(fj.num_workers(), workers);
            for e in [0usize, 3, 7] {
                let a = single.log_likelihood(&tree, e);
                let b = fj.log_likelihood(&tree, e);
                assert!(
                    (a - b).abs() < 1e-9,
                    "workers={workers} edge={e}: {a} vs {b}"
                );
                // A team of one is the serial engine, not close to it.
                if workers == 0 {
                    assert_eq!(a.to_bits(), b.to_bits(), "edge={e}");
                }
            }
        }
    }

    #[test]
    fn simd_backend_under_forkjoin_matches_scalar_serial() {
        // Team members write their newview CLAs on their own threads;
        // the join must publish them before the master reads them, or
        // this cross-thread comparison could read stale CLA contents.
        use plf_core::KernelKind;
        let (tree, aln) = dataset();
        let mut scalar = LikelihoodEngine::new(
            &tree,
            &aln,
            EngineConfig {
                kernel: KernelKind::Scalar,
                ..EngineConfig::default()
            },
        );
        let cfg = EngineConfig {
            kernel: KernelKind::Simd,
            ..EngineConfig::default()
        };
        for workers in [1, 3] {
            let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, workers);
            for e in [0usize, 2, 5] {
                let a = scalar.log_likelihood(&tree, e);
                let b = fj.log_likelihood(&tree, e);
                assert!(
                    (a - b).abs() < 1e-9,
                    "workers={workers} edge={e}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn matches_single_engine_derivatives() {
        let (tree, aln) = dataset();
        let cfg = EngineConfig::default();
        let mut single = LikelihoodEngine::new(&tree, &aln, cfg);
        let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, 2);
        for e in [1usize, 5] {
            Evaluator::prepare_branch(&mut single, &tree, e);
            fj.prepare_branch(&tree, e);
            let t = tree.length(e);
            let (a1, a2) = Evaluator::branch_derivatives(&mut single, t);
            let (b1, b2) = fj.branch_derivatives(t);
            assert!((a1 - b1).abs() < 1e-8, "{a1} vs {b1}");
            assert!((a2 - b2).abs() < 1e-8, "{a2} vs {b2}");
        }
    }

    #[test]
    fn more_workers_than_patterns_is_exact_not_nan() {
        let (tree, aln) = small_dataset(40);
        let n = aln.num_patterns();
        let cfg = EngineConfig::default();
        let mut single = LikelihoodEngine::new(&tree, &aln, cfg);
        let expect = single.log_likelihood(&tree, 0);
        Evaluator::prepare_branch(&mut single, &tree, 1);
        let (e1, e2) = Evaluator::branch_derivatives(&mut single, tree.length(1));
        // Strictly more slices than patterns: the surplus members —
        // the master among them — own empty slices and must
        // contribute exact identity partials.
        for workers in [n, n + 4, 2 * n - 1] {
            let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, workers);
            let got = fj.log_likelihood(&tree, 0);
            assert!(got.is_finite(), "workers={workers}: logL {got}");
            assert!(
                (got - expect).abs() < 1e-9,
                "workers={workers}: {got} vs {expect}"
            );
            fj.prepare_branch(&tree, 1);
            let (d1, d2) = fj.branch_derivatives(tree.length(1));
            assert!(d1.is_finite() && d2.is_finite(), "workers={workers}");
            assert!((d1 - e1).abs() < 1e-8, "workers={workers}: {d1} vs {e1}");
            assert!((d2 - e2).abs() < 1e-8, "workers={workers}: {d2} vs {e2}");
        }
    }

    #[test]
    fn model_updates_propagate() {
        let (tree, aln) = dataset();
        let cfg = EngineConfig::default();
        let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, 1);
        // Before any update the accessors read what the engines were
        // built with.
        assert_eq!(fj.alpha(), cfg.alpha);
        assert_eq!(fj.model().freqs, aln.empirical_frequencies());
        let l1 = fj.log_likelihood(&tree, 0);
        fj.set_alpha(0.2);
        let l2 = fj.log_likelihood(&tree, 0);
        assert!((l1 - l2).abs() > 1e-6, "alpha change must shift likelihood");
        assert_eq!(fj.alpha(), 0.2);
        let hky = GtrParams {
            rates: [1.0, 2.5, 1.0, 1.0, 2.5, 1.0],
            ..fj.model()
        };
        fj.set_model(hky);
        assert_eq!(fj.model(), hky);
        let l3 = fj.log_likelihood(&tree, 0);
        assert!((l2 - l3).abs() > 1e-6, "model change must shift likelihood");
    }

    #[test]
    fn stats_account_all_workers() {
        let (tree, aln) = dataset();
        let mut fj = ForkJoinEvaluator::new(&tree, &aln, EngineConfig::default(), 3);
        fj.log_likelihood(&tree, 0);
        let stats = fj.take_stats();
        // All pattern-sites processed exactly once per newview level:
        // total evaluate sites equals the full pattern count, in one
        // call per slice — the master's and the three workers'.
        assert_eq!(
            stats.get(plf_core::KernelId::Evaluate).sites as usize,
            aln.num_patterns()
        );
        assert_eq!(stats.get(plf_core::KernelId::Evaluate).calls, 4);
        // Regions: eval + stats = 2 so far.
        assert_eq!(fj.regions(), 2);
        // Both regions' fork/join latencies were recorded and merged
        // into the combined stats.
        assert_eq!(stats.regions().count, 2);
        let join = stats.regions().join;
        assert!(join.max_ns() <= join.total_ns());
    }

    #[test]
    fn per_worker_stats_sum_to_merged() {
        let (tree, aln) = dataset();
        let mut fj = ForkJoinEvaluator::new(&tree, &aln, EngineConfig::default(), 2);
        fj.log_likelihood(&tree, 0);
        let per = fj.take_stats_per_worker();
        // One entry per slice, the master's first: each evaluated
        // exactly its own range, once.
        let slices = split_ranges(aln.num_patterns(), 3);
        assert_eq!(per.len(), slices.len());
        for (s, range) in per.iter().zip(&slices) {
            let eval = s.get(plf_core::KernelId::Evaluate);
            assert_eq!((eval.calls, eval.sites as usize), (1, range.len()));
            // Region latencies live master-side, not with a slice.
            assert_eq!(s.regions().count, 0);
        }
        assert_eq!(fj.master_stats().regions().count, 2);
        // The trace view names the slices by who computed them and
        // books the region latencies with the master.
        fj.log_likelihood(&tree, 1);
        let events = fj.take_trace_events();
        let mut sources: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Op { source, .. } => Some(source.as_str()),
                _ => None,
            })
            .collect();
        sources.dedup();
        assert_eq!(sources, ["master", "worker0", "worker1"]);
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Region { source, count: 4, .. } if source == "master"
        )));
        assert_eq!(fj.master_stats().regions().count, 0);
    }

    #[test]
    fn worker_panic_surfaces_as_error_not_hang() {
        let (tree, aln) = dataset();
        let cfg = EngineConfig::default();
        let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, 2);
        // An out-of-range edge makes every team member's engine panic
        // inside the job; the master must observe a panic promptly
        // rather than deadlock on the join barrier, and Drop must
        // still shut the pool down.
        let bogus_edge = tree.num_edges() + 100;
        let res =
            std::panic::catch_unwind(AssertUnwindSafe(|| fj.log_likelihood(&tree, bogus_edge)));
        let err = res.expect_err("bogus edge must fail loudly");
        let msg = crate::panic_message(&*err);
        assert!(
            msg.contains("fork-join worker panicked"),
            "unexpected message: {msg}"
        );
        // The pool survived the failed region: further work and a
        // clean Drop both still complete.
        let l = fj.log_likelihood(&tree, 0);
        assert!(l.is_finite());
        drop(fj);
    }

    #[test]
    fn a_panic_on_any_one_slice_is_reraised_and_the_pool_lives_on() {
        let (tree, aln) = dataset();
        let cfg = EngineConfig::default();
        let mut single = LikelihoodEngine::new(&tree, &aln, cfg);
        let expect = single.log_likelihood(&tree, 0);
        // Slice 0 is the master's own job: its panic is caught like a
        // worker's, so the master still arrives at the join barrier
        // and no worker is left waiting there — with no workers at
        // all, too.
        for (workers, slice) in [(2, 0), (2, 1), (2, 2), (0, 0)] {
            let plan = Arc::new(FaultPlan::job_panic(slice, 2));
            let mut fj = ForkJoinEvaluator::with_fault_plan(&tree, &aln, cfg, workers, Some(plan));
            let first = fj.log_likelihood(&tree, 0);
            assert!((first - expect).abs() < 1e-9);
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| fj.log_likelihood(&tree, 0)))
                .expect_err("the scripted panic must surface");
            let msg = crate::panic_message(&*err);
            assert!(
                msg.contains("fork-join worker panicked")
                    && msg.contains(&format!("slice {slice} panics in region 2")),
                "workers={workers} slice={slice}: {msg}"
            );
            // One-shot: the next region runs on every slice again,
            // and Drop joins the workers.
            let again = fj.log_likelihood(&tree, 0);
            assert_eq!(again.to_bits(), first.to_bits());
            assert_eq!(fj.regions(), 3);
            drop(fj);
        }
    }

    #[test]
    fn full_search_under_forkjoin_matches_serial() {
        let (tree0, aln) = dataset();
        let names = tree0.tip_names().to_vec();
        let start = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(2)).unwrap();
        let cfg = EngineConfig::default();
        let search = phylo_search::MlSearch::new(phylo_search::SearchConfig {
            max_rounds: 3,
            optimize_model: false,
            ..Default::default()
        });

        let mut t_serial = start.clone();
        let mut serial = LikelihoodEngine::new(&t_serial, &aln, cfg);
        let r_serial = search.run(&mut serial, &mut t_serial);

        let mut t_fj = start.clone();
        let mut fj = ForkJoinEvaluator::new(&t_fj, &aln, cfg, 2);
        let r_fj = search.run(&mut fj, &mut t_fj);

        assert_eq!(t_serial.rf_distance(&t_fj), 0);
        assert!(
            (r_serial.log_likelihood - r_fj.log_likelihood).abs() < 1e-7,
            "{} vs {}",
            r_serial.log_likelihood,
            r_fj.log_likelihood
        );

        // With no workers the whole search is the serial one.
        let mut t_solo = start.clone();
        let mut solo = ForkJoinEvaluator::new(&t_solo, &aln, cfg, 0);
        let r_solo = search.run(&mut solo, &mut t_solo);
        assert_eq!(r_solo.newick, r_serial.newick);
        assert_eq!(
            r_solo.log_likelihood.to_bits(),
            r_serial.log_likelihood.to_bits()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]
        /// Fork-join log-likelihood equals the single engine to 1e-9
        /// for every team size from 1 to twice the pattern count
        /// (sampled), including the empty-slice regime.
        #[test]
        fn forkjoin_matches_single_for_any_worker_count(
            seed in 0u64..1_000,
            len in 20usize..120,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let names = default_names(6);
            let tree = random_tree(&names, 0.2, &mut rng).unwrap();
            let g = Gtr::new(GtrParams::jc69());
            let gamma = DiscreteGamma::new(0.8);
            let aln = phylo_seqgen::simulate_alignment(&tree, g.eigen(), &gamma, len, &mut rng);
            let aln = CompressedAlignment::from_alignment(&aln);
            let n = aln.num_patterns();
            let cfg = EngineConfig::default();
            let mut single = LikelihoodEngine::new(&tree, &aln, cfg);
            let expect = single.log_likelihood(&tree, 0);
            use rand::Rng;
            for _ in 0..3 {
                let workers = rng.random_range(0..2 * n);
                let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, workers);
                let got = fj.log_likelihood(&tree, 0);
                proptest::prop_assert!(
                    (got - expect).abs() < 1e-9,
                    "workers={} n={}: {} vs {}", workers, n, got, expect
                );
            }
        }

        /// `new(.., W)` is `W + 1` bare engines over the same slices
        /// folded in slice order, bit for bit: every logL and every
        /// `(d1, d2)` the search sees along its Newton runs and model
        /// optimisation, hence the final tree. The alignments of one
        /// and two columns leave the master's slice (and a worker's)
        /// empty.
        #[test]
        fn forkjoin_is_its_slices_folded_in_order(
            seed in 0u64..1_000,
            len in 3usize..60,
            workers in 0usize..=2,
            optimize_model in 0u8..2,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let names = default_names(5);
            let truth = random_tree(&names, 0.2, &mut rng).unwrap();
            let start = random_tree(&names, 0.1, &mut rng).unwrap();
            let g = Gtr::new(GtrParams::jc69());
            let gamma = DiscreteGamma::new(0.8);
            let cfg = EngineConfig::default();
            let search = phylo_search::MlSearch::new(phylo_search::SearchConfig {
                max_rounds: 1,
                optimize_model: optimize_model == 1,
                ..Default::default()
            });
            for len in [1, 2, len] {
                let aln = phylo_seqgen::simulate_alignment(&truth, g.eigen(), &gamma, len, &mut rng);
                let aln = CompressedAlignment::from_alignment(&aln);

                let mut t_ref = start.clone();
                let mut reference = Recording::new(SliceFold::new(&t_ref, &aln, cfg, workers));
                let r_ref = search.run(&mut reference, &mut t_ref);

                let mut t_fj = start.clone();
                let mut fj = Recording::new(ForkJoinEvaluator::new(&t_fj, &aln, cfg, workers));
                let r_fj = search.run(&mut fj, &mut t_fj);

                proptest::prop_assert!(!reference.log.is_empty());
                proptest::prop_assert_eq!(&fj.log, &reference.log);
                proptest::prop_assert_eq!(r_fj.log_likelihood.to_bits(), r_ref.log_likelihood.to_bits());
                proptest::prop_assert_eq!(r_fj.newick, r_ref.newick);
                proptest::prop_assert_eq!(fj.alpha().to_bits(), reference.alpha().to_bits());
                proptest::prop_assert_eq!(fj.model(), reference.model());
            }
        }
    }
}
