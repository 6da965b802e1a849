//! The likelihood engine: kernels wired to a tree.
//!
//! [`LikelihoodEngine`] re-computes CLAs lazily,
//! RAxML-traversal-descriptor style: before evaluating at a virtual
//! root, it walks the directed post-order and re-runs `newview` only
//! for nodes whose child identity, child branch lengths, child CLA
//! stamps, or model version changed. This is what makes thousands of
//! `evaluate`/`newview` calls per second affordable during tree search
//! (§V-C).
//!
//! The walk itself is pruned to what can be stale: the engine keeps
//! the edge records of the tree it last traversed and the neighbour
//! each CLA is oriented toward, and a subtree with no changed edge
//! that still hangs off the same parent is left out of the schedule
//! (see [`LikelihoodEngine::update_partials`]) — a master handing its
//! workers a partial traversal descriptor, computed on the receiving
//! side.
//!
//! Every stale node takes one path: it is *planned* (stamp, cache
//! key, per-branch tables — in schedule order) and the plan is
//! *executed* over a site range: the whole range on the straight-line
//! traversal, one cache-sized block at a time on the blocked one
//! ([`crate::blocking`]).
//!
//! Every inner node owns one CLA for the life of the engine, indexed
//! by the node, as in the paper's MIC port (§V-A: memory-saving
//! recomputation "not supported yet"); DESIGN.md §8 says why there is
//! no pool underneath.
//!
//! An engine may cover a sub-range of the alignment's patterns; worker
//! threads in `phylo-parallel` each own an engine over their slice and
//! reduce the returned partial log-likelihoods/derivatives.

use crate::blocking::{BlockJob, Blocking};
use crate::cla::Cla;
use crate::clock;
use crate::cost::KernelOp;
use crate::instrument::{KernelId, KernelStats};
use crate::kernels::{KernelKind, Kernels};
use crate::layout::{EigenBasis, FusedPmat, Lut16x16};
use crate::{AlignedVec, NUM_RATES, SITE_STRIDE};
use phylo_bio::CompressedAlignment;
use phylo_models::{DiscreteGamma, Eigensystem, Gtr, GtrParams, ProbMatrix};
use phylo_tree::traverse::{children, Directed, ScheduleBuf};
use phylo_tree::{EdgeId, NodeId, Tree};
use std::sync::Arc;

/// Engine construction options.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Which kernel implementation to run. Resolved through
    /// [`KernelKind::resolve`] at construction: `Simd` on a host
    /// without AVX2+FMA becomes `Scalar`.
    pub kernel: KernelKind,
    /// Γ shape parameter α.
    pub alpha: f64,
    /// Frozen at its one value (see [`SiteRepeats`]).
    pub site_repeats: SiteRepeats,
    /// Traversal-level cache blocking mode. Resolved through
    /// [`Blocking::resolve`] at construction: `Auto` resolves against
    /// the engine's pattern count. Results are bit-identical either
    /// way (see [`crate::blocking`]).
    pub blocking: Blocking,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            kernel: KernelKind::Simd,
            alpha: 1.0,
            site_repeats: SiteRepeats::Off,
            blocking: Blocking::Auto,
        }
    }
}

// ---- Frozen surface: what `plf_e2e/src/{checks,schemes,layers}.rs` ----
// compile against and nothing else reads. Site-repeat compression is
// gone (DESIGN.md §13); the benchmark still names its knob and prints
// its counters, so the names stay until a benchmark PR drops the four
// `core.repeats.*` metrics. `crates/core/tests/e2e_surface.rs` holds
// this to the benchmark's usage.

/// The site-repeat compression knob, with the one value left: engines
/// run every `newview` over all sites.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SiteRepeats {
    /// No compression.
    #[default]
    Off,
}

impl std::fmt::Display for SiteRepeats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("off")
    }
}

/// What [`LikelihoodEngine::repeat_stats`] reports: `newview` calls,
/// and zeros where compressed calls were counted.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RepeatStats {
    /// `newview` calls since the last [`LikelihoodEngine::reset_stats`].
    pub newview_calls: u64,
    /// Always 0.
    pub compressed_calls: u64,
    /// Always 0.
    pub sites: u64,
    /// Always 0.
    pub classes: u64,
}

impl RepeatStats {
    /// `classes / sites`; `None`, as there are no compressed calls.
    pub fn ratio(&self) -> Option<f64> {
        (self.sites > 0).then(|| self.classes as f64 / self.sites as f64)
    }
}

/// Cache record describing the state a CLA was computed in: what the
/// CLA is a function of, and nothing else. The two children (in
/// canonical order) fix the orientation — the third neighbour is the
/// root side — and edge ids appear nowhere: an SPR apply/undo pair
/// hands the halves of a split edge other ids than before, and a node
/// whose children hold the same content must stay valid across it.
#[derive(Clone, Debug, PartialEq)]
struct CacheKey {
    child_nodes: [NodeId; 2],
    child_lengths: [f64; 2],
    child_stamps: [u64; 2],
    model_version: u64,
}

/// One stale `newview`, planned: all bookkeeping (stamp, cache key) is
/// done at plan time in schedule order, so only the kernel work itself
/// may be deferred and re-ordered into site blocks.
struct PlannedNewview {
    /// Inner-node index of the CLA written.
    idx: usize,
    job: BlockJob,
}

/// One edge as the pruned walk remembers it: endpoints and the bits of
/// its length.
type EdgeRecord = (NodeId, NodeId, u64);

/// What the last traversal left behind, for the next one to prune its
/// walk against. Invariant while `trusted`: every inner node's CLA is
/// valid for the tree in `edges`, oriented toward `toward[node]` — its
/// parent under the rooting of that traversal.
#[derive(Default)]
struct LastWalk {
    /// `false` until a traversal has completed, and again after
    /// anything that invalidates CLAs behind the tree's back
    /// (`invalidate_all`, a model change, a tip re-binding): the next
    /// walk is then the full one.
    trusted: bool,
    /// The edge records of the tree last traversed, by edge id.
    edges: Vec<EdgeRecord>,
    /// Per inner node, the neighbour its CLA was last oriented toward.
    toward: Vec<NodeId>,
    /// Per inner node, scratch of the walk in progress: may be stale.
    marked: Vec<bool>,
}

/// A PLF evaluator bound to one alignment slice and one model.
pub struct LikelihoodEngine {
    kind: KernelKind,
    kernel: &'static dyn Kernels,
    params: GtrParams,
    eigen: Eigensystem,
    gamma: DiscreteGamma,
    basis: EigenBasis,
    pi_w: [f64; SITE_STRIDE],
    tip_pi: Lut16x16,
    /// Tip codes by *alignment row*, restricted to this engine's
    /// pattern range.
    tips: Vec<Vec<u8>>,
    /// Alignment row names, in row order (for re-binding).
    row_names: Vec<String>,
    /// Tree-tip-id → alignment row, rebuilt whenever a tree with a
    /// different tip naming is supplied (e.g. after a checkpoint
    /// restore re-parsed the topology).
    tip_row: Vec<usize>,
    /// The tip naming the current `tip_row` was built for: the
    /// allocation the tree (and every clone of it) shares, held so that
    /// pointer equality means "same names" for as long as it is
    /// compared against.
    bound_names: Arc<[String]>,
    weights: Vec<u32>,
    num_patterns: usize,
    num_taxa: usize,
    /// The CLA of each inner node, by inner-node index.
    slots: Vec<Cla>,
    /// The state each CLA was last computed in.
    valid: Vec<Option<CacheKey>>,
    stamps: Vec<u64>,
    next_stamp: u64,
    model_version: u64,
    sumtable: AlignedVec,
    sum_edge: Option<(EdgeId, u64)>,
    stats: KernelStats,
    /// Resolved traversal-blocking block size in sites (`None` = run
    /// the straight-line traversal; see [`crate::blocking`]).
    block_sites: Option<usize>,
    /// Planned `newview`s awaiting their blocked execution, reused by
    /// every traversal.
    batch: Vec<PlannedNewview>,
    /// Per-node time accumulator of a batch, reused by every execution.
    batch_ns: Vec<u64>,
    /// The post-order schedule of the traversal in progress, refilled
    /// by every `update_partials`.
    schedule: ScheduleBuf,
    /// Set by [`LikelihoodEngine::without_pruning`] only: every walk
    /// is the full schedule.
    never_prune: bool,
    last_walk: LastWalk,
}

impl LikelihoodEngine {
    /// Builds an engine over the full pattern range of `aln`, with tip
    /// rows matched to `tree`'s tip ids by taxon name.
    pub fn new(tree: &Tree, aln: &CompressedAlignment, config: EngineConfig) -> Self {
        Self::with_range(tree, aln, config, 0..aln.num_patterns())
    }

    /// [`LikelihoodEngine::new`], except that no walk is ever pruned:
    /// the reference the tests and the microbench of the pruned walk
    /// compare against, which nothing else may construct.
    #[doc(hidden)]
    pub fn without_pruning(tree: &Tree, aln: &CompressedAlignment, config: EngineConfig) -> Self {
        let mut engine = Self::new(tree, aln, config);
        engine.never_prune = true;
        engine
    }

    /// Builds an engine over the pattern sub-range `range` (the unit of
    /// data parallelism: each worker owns one slice).
    pub fn with_range(
        tree: &Tree,
        aln: &CompressedAlignment,
        config: EngineConfig,
        range: std::ops::Range<usize>,
    ) -> Self {
        assert!(range.end <= aln.num_patterns(), "range outside alignment");
        assert_eq!(
            tree.num_taxa(),
            aln.num_taxa(),
            "tree and alignment disagree on taxon count"
        );
        let num_taxa = tree.num_taxa();
        // Tip data is stored per alignment row and bound to tree tip
        // ids by name, so trees with a different internal numbering
        // (checkpoint restores, re-parsed Newick) can be evaluated.
        let tips: Vec<Vec<u8>> = (0..num_taxa)
            .map(|row| {
                aln.row(row)[range.clone()]
                    .iter()
                    .map(|c| c.bits())
                    .collect()
            })
            .collect();
        let row_names: Vec<String> = aln.names().to_vec();
        let tip_row = Self::bind_tips(tree, &row_names);
        let weights: Vec<u32> = aln.weights()[range.clone()].to_vec();
        let num_patterns = weights.len();

        let params = GtrParams {
            rates: [1.0; 6],
            freqs: aln.empirical_frequencies(),
        };
        let kind = config.kernel.resolve();
        let mut engine = LikelihoodEngine {
            kind,
            kernel: kind.kernels(),
            params,
            eigen: Gtr::new(params).eigen().clone(),
            gamma: DiscreteGamma::new(config.alpha),
            basis: EigenBasis::new(
                Gtr::new(params).eigen(),
                DiscreteGamma::new(config.alpha).rates(),
            ),
            pi_w: [0.0; SITE_STRIDE],
            tip_pi: Lut16x16::tip_pi(&params.freqs),
            tips,
            row_names,
            tip_row,
            bound_names: Arc::clone(tree.shared_tip_names()),
            weights,
            num_patterns,
            num_taxa,
            slots: (0..tree.num_inner())
                .map(|_| Cla::new(num_patterns))
                .collect(),
            valid: vec![None; tree.num_inner()],
            stamps: vec![0; tree.num_inner()],
            next_stamp: 1,
            model_version: 1,
            sumtable: AlignedVec::zeroed(num_patterns * SITE_STRIDE),
            sum_edge: None,
            stats: KernelStats::new(),
            block_sites: config.blocking.resolve(num_patterns),
            batch: Vec::new(),
            batch_ns: Vec::new(),
            schedule: ScheduleBuf::default(),
            never_prune: false,
            last_walk: LastWalk::default(),
        };
        engine.rebuild_model_tables();
        engine
    }

    fn rebuild_model_tables(&mut self) {
        let gtr = Gtr::new(self.params);
        self.eigen = gtr.eigen().clone();
        self.basis = EigenBasis::new(&self.eigen, self.gamma.rates());
        self.tip_pi = Lut16x16::tip_pi(&self.params.freqs);
        let w = 1.0 / NUM_RATES as f64;
        for k in 0..NUM_RATES {
            for a in 0..crate::NUM_STATES {
                self.pi_w[4 * k + a] = w * self.params.freqs[a];
            }
        }
        self.model_version += 1;
        self.sum_edge = None;
        self.last_walk.trusted = false;
    }

    /// Replaces the substitution model parameters (invalidates CLAs).
    ///
    /// Callers must pass validated parameters — checkpoint restore and
    /// the optimizer proposals run [`GtrParams::validate`] at their
    /// boundaries. The re-check here is debug-only so the fork-join
    /// model-broadcast path stays panic-free in release builds.
    pub fn set_model(&mut self, params: GtrParams) {
        debug_assert!(
            params.validate().is_ok(),
            "invalid GTR parameters: {:?}",
            params.validate().err()
        );
        self.params = params;
        self.rebuild_model_tables();
    }

    /// Replaces the Γ shape parameter α (invalidates CLAs).
    pub fn set_alpha(&mut self, alpha: f64) {
        self.gamma = DiscreteGamma::new(alpha);
        self.rebuild_model_tables();
    }

    /// Current GTR parameters.
    pub fn model(&self) -> &GtrParams {
        &self.params
    }

    /// Current Γ shape.
    pub fn alpha(&self) -> f64 {
        self.gamma.alpha()
    }

    /// Γ category rates in use.
    pub fn gamma_rates(&self) -> &[f64; NUM_RATES] {
        self.gamma.rates()
    }

    /// The model eigensystem in use.
    pub fn eigen(&self) -> &Eigensystem {
        &self.eigen
    }

    /// Number of patterns this engine covers.
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// Pattern multiplicities of this engine's slice.
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// The concrete kernel backend this engine runs (runtime dispatch
    /// already resolved). This is the kind recorded in trace metadata.
    pub fn kernel_kind(&self) -> KernelKind {
        self.kind
    }

    /// Always [`SiteRepeats::Off`] (part of the frozen surface).
    pub fn site_repeats(&self) -> SiteRepeats {
        SiteRepeats::Off
    }

    /// The resolved traversal-blocking mode this engine runs: `On`
    /// when the post-order walk is cache-blocked, `Off` otherwise
    /// (`Auto` resolved against the pattern count at construction).
    /// This is the mode recorded in trace metadata.
    pub fn blocking(&self) -> Blocking {
        if self.block_sites.is_some() {
            Blocking::On
        } else {
            Blocking::Off
        }
    }

    /// `newview` calls, in the shape the benchmark reads them (part of
    /// the frozen surface; a view of [`LikelihoodEngine::stats`]).
    pub fn repeat_stats(&self) -> RepeatStats {
        RepeatStats {
            newview_calls: self.stats.get(KernelId::Newview).calls,
            ..RepeatStats::default()
        }
    }

    /// Per-pattern scaling counters of inner node `inner` (0-based
    /// inner-node index); `None` past the last one.
    /// Diagnostic/test accessor: the cross-backend and blocking
    /// equivalence suites compare these arrays bit-for-bit.
    #[doc(hidden)]
    pub fn cla_scale(&self, inner: usize) -> Option<&[u32]> {
        self.slots.get(inner).map(Cla::scale)
    }

    /// Content stamp of inner node `inner`'s CLA (0 = never computed).
    /// Test accessor: an engine that prunes its walk must hand out the
    /// stamps of one that does not.
    #[doc(hidden)]
    pub fn cla_stamp(&self, inner: usize) -> u64 {
        self.stamps[inner]
    }

    /// Number of inner nodes of the tree shape this engine serves.
    pub fn num_inner(&self) -> usize {
        self.slots.len()
    }

    /// CLA value memory in bytes.
    pub fn cla_bytes(&self) -> usize {
        self.slots.len() * self.num_patterns * SITE_STRIDE * 8
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Clears work counters.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Drops all cached CLAs (mainly for tests and benchmarks; normal
    /// invalidation is automatic via cache keys).
    pub fn invalidate_all(&mut self) {
        self.valid.iter_mut().for_each(|v| *v = None);
        self.sum_edge = None;
        self.last_walk.trusted = false;
    }

    #[inline]
    fn inner_idx(&self, node: NodeId) -> usize {
        debug_assert!(node >= self.num_taxa);
        node - self.num_taxa
    }

    /// Tip codes for tree tip `node` under the current binding.
    #[inline]
    fn tip(&self, node: NodeId) -> &[u8] {
        &self.tips[self.tip_row[node]]
    }

    fn bind_tips(tree: &Tree, row_names: &[String]) -> Vec<usize> {
        (0..tree.num_taxa())
            .map(|tip_id| {
                let name = tree.tip_name(tip_id);
                row_names
                    .iter()
                    .position(|n| n == name)
                    .unwrap_or_else(|| panic!("taxon {name:?} missing from alignment"))
            })
            .collect()
    }

    /// Re-binds tip rows when the supplied tree's tip naming differs
    /// from the one the cache was built for (e.g. a checkpoint-restored
    /// topology), invalidating all CLAs. A clone of the tree last seen
    /// shares its names and is recognised by address; equal names in
    /// another allocation (the same Newick parsed again) cost one
    /// comparison and are then adopted as the allocation to expect.
    fn ensure_tip_binding(&mut self, tree: &Tree) {
        let names = tree.shared_tip_names();
        if Arc::ptr_eq(names, &self.bound_names) {
            return;
        }
        let same = **names == *self.bound_names;
        self.bound_names = Arc::clone(names);
        if !same {
            self.tip_row = Self::bind_tips(tree, &self.row_names);
            self.invalidate_all();
            // Node-id meanings changed wholesale: cached keys must not
            // survive even by coincidence.
            self.model_version += 1;
        }
    }

    fn fused_pmat(&self, t: f64) -> FusedPmat {
        FusedPmat::from_prob(&ProbMatrix::new(&self.eigen, self.gamma.rates(), t))
    }

    /// The CLA of inner node `node`.
    #[inline]
    fn cla(&self, node: NodeId) -> &Cla {
        &self.slots[self.inner_idx(node)]
    }

    /// Ensures every CLA needed to evaluate at `root_edge` is valid,
    /// running `newview` for stale nodes only.
    ///
    /// Each such node is planned in schedule order — all cache
    /// bookkeeping happens then, so stamps, keys and call counts do
    /// not depend on how the plan is executed — and runs at once over
    /// the whole site range, unless traversal blocking is on
    /// ([`crate::blocking`]): then consecutive nodes are queued and
    /// executed per site block, so a child's freshly written CLA
    /// columns are still cache-resident when its parent reads them.
    ///
    /// # The pruned walk
    ///
    /// Validity stays keyed by content ([`CacheKey`]); what is pruned
    /// is the walk that checks it. The engine diffs the tree's edge
    /// records against those of the tree it last traversed, marks the
    /// inner endpoints (old and new) of every changed edge and all
    /// their ancestors *in the old rooting* as possibly stale, and
    /// leaves out of the schedule a node — with everything below it —
    /// that is unmarked and whose old parent is its parent now. An
    /// unmarked node has no changed edge in its old subtree (marks are
    /// closed upward), so that subtree stands unchanged in the new
    /// tree, below the same parent, every CLA in it valid and so
    /// oriented since the last traversal: the full walk would build
    /// the keys it already holds and move on. Every marked node is
    /// reached, and the nodes visited come in the full schedule's
    /// relative order, so stamps, keys, counts and blocked batches are
    /// the full walk's. Debug builds check exactly that after every
    /// pruned walk. Nothing is pruned on an engine's first traversal
    /// or after `invalidate_all` / `set_model` / `set_alpha` / a tip
    /// re-binding — the same loop, over the full schedule.
    pub fn update_partials(&mut self, tree: &Tree, root_edge: EdgeId) {
        debug_assert_eq!(tree.num_inner(), self.num_inner(), "tree shape changed");
        self.ensure_tip_binding(tree);
        let n = self.num_patterns;
        let block = self.block_sites;
        let mut batch = std::mem::take(&mut self.batch);
        let mut schedule = std::mem::take(&mut self.schedule);
        // Taken, so that a traversal cut short by a panic leaves an
        // untrusted record behind.
        let mut walk = std::mem::take(&mut self.last_walk);
        let pruned = walk.observe(tree);
        let order = schedule.refill(tree, root_edge, |d| pruned && walk.untouched(tree, d));
        let counters = traversal_counters();
        counters.nodes_visited.add(order.len() as u64);
        counters.nodes_in_schedule.add(tree.num_inner() as u64);
        for &d in order {
            let ch = canonical_children(tree, d);
            let key = self.cache_key(tree, ch);
            let idx = self.inner_idx(d.node);
            walk.toward[idx] = tree.other_end(d.toward_edge, d.node);
            if self.valid[idx].as_ref() != Some(&key) {
                let planned = self.plan_newview(tree, idx, ch, key);
                match block {
                    Some(_) => batch.push(planned),
                    None => self.execute(std::slice::from_ref(&planned), n),
                }
            }
        }
        self.execute(&batch, block.unwrap_or(n));
        batch.clear();
        #[cfg(debug_assertions)]
        if pruned {
            self.assert_left_out_nodes_are_valid(tree, root_edge, order);
        }
        walk.trusted = !self.never_prune;
        self.last_walk = walk;
        self.batch = batch;
        self.schedule = schedule;
    }

    /// The state the CLA of a node with (canonicalized) children `ch`
    /// is a function of, as of now.
    fn cache_key(&self, tree: &Tree, ch: [(EdgeId, NodeId); 2]) -> CacheKey {
        CacheKey {
            child_nodes: [ch[0].1, ch[1].1],
            child_lengths: [tree.length(ch[0].0), tree.length(ch[1].0)],
            child_stamps: [self.stamp_of(tree, ch[0].1), self.stamp_of(tree, ch[1].1)],
            model_version: self.model_version,
        }
    }

    /// The oracle of the pruned walk: sweeps the full schedule and
    /// holds every node the walk left out to what the full walk would
    /// have checked: its fresh key equal to the stored one.
    #[cfg(debug_assertions)]
    fn assert_left_out_nodes_are_valid(
        &self,
        tree: &Tree,
        root_edge: EdgeId,
        visited: &[Directed],
    ) {
        let mut seen = vec![false; self.num_inner()];
        for d in visited {
            seen[self.inner_idx(d.node)] = true;
        }
        for d in phylo_tree::traverse::full_schedule(tree, root_edge) {
            let idx = self.inner_idx(d.node);
            if seen[idx] {
                continue;
            }
            let ch = canonical_children(tree, d);
            assert_eq!(
                self.valid[idx].as_ref(),
                Some(&self.cache_key(tree, ch)),
                "pruned node {} is stale",
                d.node
            );
        }
    }

    /// Plans one `newview` of inner node `idx`: does all of its
    /// bookkeeping (a fresh stamp, `key` as its cache key) and
    /// precomputes the per-branch tables, once per node whatever the
    /// execution.
    fn plan_newview(
        &mut self,
        tree: &Tree,
        idx: usize,
        ch: [(EdgeId, NodeId); 2],
        key: CacheKey,
    ) -> PlannedNewview {
        self.stamps[idx] = self.next_stamp;
        self.next_stamp += 1;
        self.valid[idx] = Some(key);
        PlannedNewview {
            idx,
            job: self.newview_job(tree, ch),
        }
    }

    /// The kernel inputs of a `newview` over the (canonicalized)
    /// children `ch`: the one place the Tt/Ti/Ii child pattern is
    /// matched at plan time. Not inlined, so that the job (up to two
    /// 2 KiB LUTs) is built in the caller's slot instead of being
    /// copied there.
    #[inline(never)]
    fn newview_job(&self, tree: &Tree, ch: [(EdgeId, NodeId); 2]) -> BlockJob {
        let [(e_l, n_l), (e_r, n_r)] = ch;
        let (t_l, t_r) = (tree.length(e_l), tree.length(e_r));
        match (tree.is_tip(n_l), tree.is_tip(n_r)) {
            (true, true) => BlockJob::Tt {
                lut_l: Lut16x16::tip_prob(&self.fused_pmat(t_l)),
                lut_r: Lut16x16::tip_prob(&self.fused_pmat(t_r)),
                tip_l: n_l,
                tip_r: n_r,
            },
            (true, false) => BlockJob::Ti {
                lut_l: Lut16x16::tip_prob(&self.fused_pmat(t_l)),
                tip_l: n_l,
                p_r: self.fused_pmat(t_r),
                child_r: self.inner_idx(n_r),
            },
            (false, false) => BlockJob::Ii {
                p_l: self.fused_pmat(t_l),
                child_l: self.inner_idx(n_l),
                p_r: self.fused_pmat(t_r),
                child_r: self.inner_idx(n_r),
            },
            (false, true) => unreachable!("children are canonicalized tip-first"),
        }
    }

    /// Executes planned `newview`s: the outer loop walks the site
    /// range in steps of `step` sites — the whole range for a node
    /// planned alone, a cache-sized block for a queued batch — the
    /// inner loop the batch in post-order, so each block of a child's
    /// output is consumed by its dependents while still
    /// cache-resident. Wall time accumulates per node across blocks:
    /// exactly one op record per node.
    fn execute(&mut self, batch: &[PlannedNewview], step: usize) {
        if batch.is_empty() {
            return;
        }
        let n = self.num_patterns;
        let mut ns = std::mem::take(&mut self.batch_ns);
        ns.clear();
        ns.resize(batch.len(), 0);
        let mut b0 = 0;
        while b0 < n {
            let b1 = (b0 + step).min(n);
            for (planned, ns) in batch.iter().zip(&mut ns) {
                let t0 = clock::now_ns();
                self.run_job(planned, b0, b1);
                *ns = ns.saturating_add(clock::now_ns() - t0);
            }
            b0 = b1;
        }
        for (planned, &ns) in batch.iter().zip(&ns) {
            self.stats.record_op_timed(planned.job.op(), n, ns);
        }
        self.batch_ns = ns;
    }

    /// One planned `newview` restricted to the sites `[b0, b1)`. The
    /// CLA layout keeps site ranges self-contained: every kernel is a
    /// per-site function of per-site inputs, the 128-byte site stride
    /// keeps any range base 64-byte aligned (the explicit-SIMD buffer
    /// contract), and the underflow-scaling rule is per-site — so the
    /// call writes exactly the bytes the full-range call would write
    /// there.
    fn run_job(&mut self, planned: &PlannedNewview, b0: usize, b1: usize) {
        let mut out = std::mem::replace(&mut self.slots[planned.idx], Cla::new(0));
        let (out_v, out_s) = out.buffers_mut();
        let (vals, sites) = (b0 * SITE_STRIDE..b1 * SITE_STRIDE, b0..b1);
        let (out_v, out_s) = (&mut out_v[vals.clone()], &mut out_s[sites.clone()]);
        match &planned.job {
            BlockJob::Tt {
                lut_l,
                lut_r,
                tip_l,
                tip_r,
            } => {
                let c_l = &self.tip(*tip_l)[sites.clone()];
                let c_r = &self.tip(*tip_r)[sites];
                self.kernel.newview_tt(lut_l, lut_r, c_l, c_r, out_v, out_s);
            }
            BlockJob::Ti {
                lut_l,
                tip_l,
                p_r,
                child_r,
            } => {
                let c_l = &self.tip(*tip_l)[sites.clone()];
                let cla_r = &self.slots[*child_r];
                let (v_r, s_r) = (&cla_r.values()[vals], &cla_r.scale()[sites]);
                self.kernel
                    .newview_ti(lut_l, c_l, p_r, v_r, s_r, out_v, out_s);
            }
            BlockJob::Ii {
                p_l,
                child_l,
                p_r,
                child_r,
            } => {
                let cla_l = &self.slots[*child_l];
                let cla_r = &self.slots[*child_r];
                let (v_l, s_l) = (&cla_l.values()[vals.clone()], &cla_l.scale()[sites.clone()]);
                let (v_r, s_r) = (&cla_r.values()[vals], &cla_r.scale()[sites]);
                self.kernel
                    .newview_ii(p_l, v_l, s_l, p_r, v_r, s_r, out_v, out_s);
            }
        }
        self.slots[planned.idx] = out;
    }

    fn stamp_of(&self, tree: &Tree, node: NodeId) -> u64 {
        if tree.is_tip(node) {
            0
        } else {
            self.stamps[self.inner_idx(node)]
        }
    }

    /// Log-likelihood (partial, over this engine's pattern slice) with
    /// the virtual root on `root_edge`.
    pub fn log_likelihood(&mut self, tree: &Tree, root_edge: EdgeId) -> f64 {
        if self.num_patterns == 0 {
            // An empty pattern slice (a fork-join worker whose range is
            // empty) contributes the additive identity.
            return 0.0;
        }
        self.update_partials(tree, root_edge);
        let (a, b) = tree.endpoints(root_edge);
        // Canonicalize: tip on the q (left) side.
        let (q, r) = if tree.is_tip(a) { (a, b) } else { (b, a) };
        patterns_evaluated().add(self.num_patterns as u64);
        let t0 = clock::now_ns();
        let t = tree.length(root_edge);
        let p = self.fused_pmat(t);
        let (ll, op) = if tree.is_tip(q) {
            let cla_r = self.cla(r);
            let ll = self.kernel.evaluate_ti(
                &self.tip_pi,
                self.tip(q),
                &p,
                cla_r.values(),
                cla_r.scale(),
                &self.weights,
            );
            (ll, KernelOp::EvaluateTi)
        } else {
            let cla_q = self.cla(q);
            let cla_r = self.cla(r);
            let ll = self.kernel.evaluate_ii(
                &self.pi_w,
                cla_q.values(),
                cla_q.scale(),
                &p,
                cla_r.values(),
                cla_r.scale(),
                &self.weights,
            );
            (ll, KernelOp::EvaluateIi)
        };
        self.stats
            .record_op_timed(op, self.num_patterns, clock::now_ns() - t0);
        ll
    }

    /// Prepares Newton-Raphson optimization of `edge`: updates the
    /// partials oriented toward it and fills the branch-invariant
    /// `derivativeSum` table.
    pub fn prepare_branch(&mut self, tree: &Tree, edge: EdgeId) {
        if self.num_patterns == 0 {
            // Nothing to precompute, but the edge still counts as
            // prepared so `branch_derivatives` keeps its contract.
            self.sum_edge = Some((edge, self.model_version));
            return;
        }
        self.update_partials(tree, edge);
        let (a, b) = tree.endpoints(edge);
        let (q, r) = if tree.is_tip(a) { (a, b) } else { (b, a) };
        let t0 = clock::now_ns();
        // Re-borrow pieces to satisfy the borrow checker: the sumtable
        // is disjoint from the CLAs.
        let mut sumtable = std::mem::replace(&mut self.sumtable, AlignedVec::zeroed(0));
        let op = if tree.is_tip(q) {
            let cla_r = self.cla(r);
            self.kernel
                .derivative_sum_ti(&self.basis, self.tip(q), cla_r.values(), &mut sumtable);
            KernelOp::DerivativeSumTi
        } else {
            let cla_q = self.cla(q);
            let cla_r = self.cla(r);
            self.kernel.derivative_sum_ii(
                &self.basis,
                cla_q.values(),
                cla_r.values(),
                &mut sumtable,
            );
            KernelOp::DerivativeSumIi
        };
        self.sumtable = sumtable;
        self.sum_edge = Some((edge, self.model_version));
        self.stats
            .record_op_timed(op, self.num_patterns, clock::now_ns() - t0);
    }

    /// First and second derivative of the (partial) log-likelihood with
    /// respect to the length of the branch prepared by
    /// [`LikelihoodEngine::prepare_branch`], evaluated at length `t`.
    ///
    /// # Panics
    /// Panics when no branch is prepared or the model changed since.
    pub fn branch_derivatives(&mut self, t: f64) -> (f64, f64) {
        let (_, mv) = self
            .sum_edge
            .expect("prepare_branch must be called before branch_derivatives");
        assert_eq!(mv, self.model_version, "model changed since prepare_branch");
        if self.num_patterns == 0 {
            return (0.0, 0.0);
        }
        let t0 = clock::now_ns();
        let out =
            self.kernel
                .derivative_core(&self.sumtable, &self.basis.lambda_rate, t, &self.weights);
        self.stats.record_op_timed(
            KernelOp::DerivativeCore,
            self.num_patterns,
            clock::now_ns() - t0,
        );
        out
    }
}

/// The children of a scheduled node in canonical order: tip first,
/// then by node id.
fn canonical_children(tree: &Tree, d: Directed) -> [(EdgeId, NodeId); 2] {
    let mut ch = children(tree, d.node, d.toward_edge);
    let tipness = |n: NodeId| usize::from(!tree.is_tip(n));
    if (tipness(ch[0].1), ch[0].1) > (tipness(ch[1].1), ch[1].1) {
        ch.swap(0, 1);
    }
    ch
}

impl LastWalk {
    /// Brings the edge records up to `tree` and says whether the walk
    /// about to start may be pruned — then with every inner endpoint,
    /// old and new, of every changed edge marked, and all their
    /// ancestors in the old rooting.
    fn observe(&mut self, tree: &Tree) -> bool {
        let records = tree
            .edge_records()
            .map(|(a, b, length)| (a, b, length.to_bits()));
        let pruned = self.trusted && self.edges.len() == tree.num_edges();
        let mut changed = tree.num_edges();
        if pruned {
            self.marked.clear();
            self.marked.resize(tree.num_inner(), false);
            changed = 0;
            for (e, new) in records.enumerate() {
                let old = self.edges[e];
                if old != new {
                    self.edges[e] = new;
                    changed += 1;
                    for node in [old.0, old.1, new.0, new.1] {
                        self.mark_upward(node, tree.num_taxa());
                    }
                }
            }
        } else {
            self.edges.clear();
            self.edges.extend(records);
            self.toward.resize(tree.num_inner(), usize::MAX);
        }
        traversal_counters().edges_changed.add(changed as u64);
        pruned
    }

    /// Marks `node` and its ancestors under the rooting of the last
    /// traversal, up to the first one already marked or the old root
    /// edge.
    fn mark_upward(&mut self, mut node: NodeId, num_taxa: usize) {
        while node >= num_taxa && !std::mem::replace(&mut self.marked[node - num_taxa], true) {
            let parent = self.toward[node - num_taxa];
            if parent >= num_taxa && self.toward[parent - num_taxa] == node {
                // The two ends of the old root edge face each other:
                // neither is above the other.
                break;
            }
            node = parent;
        }
    }

    /// Whether the walk may leave `d.node` and everything below it
    /// out: nothing changed in its old subtree, and that subtree hangs
    /// off the parent it hung off at the last traversal.
    fn untouched(&self, tree: &Tree, d: Directed) -> bool {
        let idx = d.node - tree.num_taxa();
        !self.marked[idx] && self.toward[idx] == tree.other_end(d.toward_edge, d.node)
    }
}

/// Cached handle for the `core.patterns.evaluated` counter (registry
/// lookup once, then a relaxed atomic add per evaluate call).
fn patterns_evaluated() -> &'static crate::metrics::Counter {
    static C: std::sync::OnceLock<crate::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| crate::metrics::counter("core.patterns.evaluated"))
}

/// Registry counters of the pruned walk, over all engines of the
/// process: `nodes_visited / nodes_in_schedule` is the share of a full
/// walk still done, `nodes_visited` per `newview` how many looks it
/// takes to find a stale CLA.
struct TraversalCounters {
    /// Inner nodes the walks visited.
    nodes_visited: crate::metrics::Counter,
    /// Inner nodes full walks would have visited.
    nodes_in_schedule: crate::metrics::Counter,
    /// Edge records that differed from the tree last traversed (all of
    /// them where there was none to compare with).
    edges_changed: crate::metrics::Counter,
}

fn traversal_counters() -> &'static TraversalCounters {
    static C: std::sync::OnceLock<TraversalCounters> = std::sync::OnceLock::new();
    C.get_or_init(|| TraversalCounters {
        nodes_visited: crate::metrics::counter("core.traversal.nodes_visited"),
        nodes_in_schedule: crate::metrics::counter("core.traversal.nodes_in_schedule"),
        edges_changed: crate::metrics::counter("core.traversal.edges_changed"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::KernelId;
    use crate::naive;
    use phylo_bio::{Alignment, Sequence};
    use phylo_tree::newick;

    fn aln(rows: &[(&str, &str)]) -> CompressedAlignment {
        let a = Alignment::new(
            rows.iter()
                .map(|(n, s)| Sequence::from_str_named(*n, s).unwrap())
                .collect(),
        )
        .unwrap();
        CompressedAlignment::from_alignment(&a)
    }

    fn five_taxon() -> (Tree, CompressedAlignment) {
        let tree = newick::parse("((a:0.11,b:0.23):0.31,c:0.08,(d:0.19,e:0.27):0.14);").unwrap();
        let aln = aln(&[
            ("a", "ACGTACGTNACGTRYAC"),
            ("b", "ACGTTCGAAACGTRYAC"),
            ("c", "ACGAACGTCACGTAAAC"),
            ("d", "TCGTACGTGACTTRYAC"),
            ("e", "ACGTACTTTACGTRYCC"),
        ]);
        (tree, aln)
    }

    fn engines(tree: &Tree, aln: &CompressedAlignment) -> [LikelihoodEngine; 2] {
        [KernelKind::Scalar, KernelKind::Simd].map(|kernel| {
            LikelihoodEngine::new(
                tree,
                aln,
                EngineConfig {
                    kernel,
                    alpha: 0.7,
                    ..EngineConfig::default()
                },
            )
        })
    }

    #[test]
    fn matches_brute_force_every_root_edge() {
        let (tree, aln) = five_taxon();
        for mut engine in engines(&tree, &aln) {
            let tips: Vec<Vec<u8>> = (0..tree.num_taxa())
                .map(|t| {
                    let row = aln.taxon_index(tree.tip_name(t)).unwrap();
                    aln.row(row).iter().map(|c| c.bits()).collect()
                })
                .collect();
            let reference = naive::log_likelihood(
                &tree,
                engine.eigen(),
                engine.gamma_rates(),
                &tips,
                aln.weights(),
            );
            for e in tree.edge_ids() {
                let ll = engine.log_likelihood(&tree, e);
                assert!(
                    (ll - reference).abs() < 1e-8,
                    "kernel {:?} edge {e}: {ll} vs {reference}",
                    engine.kernel_kind()
                );
            }
        }
    }

    /// §V-B2's 64-byte alignment of every kernel buffer, held in every
    /// profile: release builds compile `debug_assert_site_buffer` out,
    /// and the SIMD backend falls back to plain stores on a misaligned
    /// buffer without a word.
    #[test]
    fn every_kernel_buffer_is_64_byte_aligned() {
        fn assert_aligned(engine: &LikelihoodEngine, when: &str) {
            let values = engine.slots.iter().map(|c| c.values().as_ptr());
            for (i, base) in values.enumerate() {
                let offset = base as usize % crate::aligned::ALIGNMENT;
                assert_eq!(offset, 0, "{when}: CLA {i} base is {offset} bytes off");
            }
            let offset = engine.sumtable.as_ptr() as usize % crate::aligned::ALIGNMENT;
            assert_eq!(offset, 0, "{when}: sumtable base is {offset} bytes off");
        }
        // Column `j` spells `j` in base 4 down the five taxa, so all
        // 300 columns are distinct patterns.
        let rows: Vec<(&str, String)> = ["a", "b", "c", "d", "e"]
            .iter()
            .enumerate()
            .map(|(t, name)| {
                let seq = (0..300usize)
                    .map(|j| b"ACGT"[(j >> (2 * t)) % 4] as char)
                    .collect();
                (*name, seq)
            })
            .collect();
        let rows: Vec<(&str, &str)> = rows.iter().map(|(n, s)| (*n, s.as_str())).collect();
        let aln = aln(&rows);
        let (tree, _) = five_taxon();
        let n = aln.num_patterns();
        assert_eq!(n, 300);
        let e = tree.edge_ids().next().unwrap();
        // The full engine, then slice engines of assorted sizes.
        for range in [0..n, 0..1, 1..8, 8..67, 67..n] {
            let mut engine =
                LikelihoodEngine::with_range(&tree, &aln, EngineConfig::default(), range.clone());
            assert_aligned(&engine, &format!("{range:?} constructed"));
            engine.log_likelihood(&tree, e);
            engine.prepare_branch(&tree, e);
            assert_aligned(&engine, &format!("{range:?} after a traversal"));
        }
    }

    #[test]
    fn caching_avoids_recomputation() {
        let (tree, aln) = five_taxon();
        let mut engine = LikelihoodEngine::new(&tree, &aln, EngineConfig::default());
        let e = tree.edge_ids().next().unwrap();
        engine.log_likelihood(&tree, e);
        let calls_first = engine.stats().get(KernelId::Newview).calls;
        assert_eq!(calls_first as usize, tree.num_inner());
        engine.log_likelihood(&tree, e);
        // Second evaluation at the same root: no newview calls at all.
        assert_eq!(engine.stats().get(KernelId::Newview).calls, calls_first);
    }

    #[test]
    fn branch_change_invalidates_dependent_clas_only() {
        // 6 taxa: inner nodes are P_ab, center, P_def, P_ef. Rooting at
        // a's pendant edge and perturbing d's pendant branch must leave
        // P_ef untouched (it is not an ancestor of the change).
        let mut tree =
            newick::parse("((a:0.1,b:0.1):0.1,c:0.1,(d:0.1,(e:0.1,f:0.1):0.1):0.1);").unwrap();
        let aln = aln(&[
            ("a", "ACGTAC"),
            ("b", "ACGTTC"),
            ("c", "ACGAAC"),
            ("d", "TCGTAC"),
            ("e", "ACGTAG"),
            ("f", "AGGTAC"),
        ]);
        let mut engine = LikelihoodEngine::new(&tree, &aln, EngineConfig::default());
        let a = tree.tip_by_name("a").unwrap();
        let root = tree.incident(a)[0];
        engine.log_likelihood(&tree, root);
        let before = engine.stats().get(KernelId::Newview).calls;
        let d_tip = tree.tip_by_name("d").unwrap();
        let pend = tree.incident(d_tip)[0];
        tree.set_length(pend, 0.9).unwrap();
        engine.log_likelihood(&tree, root);
        let recomputed = engine.stats().get(KernelId::Newview).calls - before;
        assert_eq!(recomputed, 3, "P_def, center, P_ab — but not P_ef");
    }

    // ---- Tip binding: by allocation first, by content otherwise ----

    #[test]
    fn equal_names_in_another_allocation_keep_the_clas() {
        let (tree, aln) = five_taxon();
        let mut engine = LikelihoodEngine::new(&tree, &aln, EngineConfig::default());
        let ll = engine.log_likelihood(&tree, 0);
        let calls = engine.stats().get(KernelId::Newview).calls;
        // A clone shares the names; the same text parsed again holds
        // equal names (and ids) elsewhere. Neither is a new binding.
        let reparsed =
            newick::parse("((a:0.11,b:0.23):0.31,c:0.08,(d:0.19,e:0.27):0.14);").unwrap();
        assert_eq!(reparsed.tip_names(), tree.tip_names());
        assert!(!Arc::ptr_eq(
            reparsed.shared_tip_names(),
            tree.shared_tip_names()
        ));
        for other in [tree.clone(), reparsed.clone(), tree.clone(), reparsed] {
            assert_eq!(engine.log_likelihood(&other, 0).to_bits(), ll.to_bits());
            // The allocation last seen is the one expected next.
            assert!(Arc::ptr_eq(&engine.bound_names, other.shared_tip_names()));
        }
        assert_eq!(engine.stats().get(KernelId::Newview).calls, calls);
    }

    #[test]
    fn permuted_names_rebind_and_invalidate() {
        let (tree, aln) = five_taxon();
        let cfg = EngineConfig::default();
        let mut engine = LikelihoodEngine::new(&tree, &aln, cfg);
        let ll = engine.log_likelihood(&tree, 0);
        let calls = engine.stats().get(KernelId::Newview).calls;
        // The same tree written from another tip: other tip ids.
        let permuted =
            newick::parse("((e:0.27,d:0.19):0.14,c:0.08,(b:0.23,a:0.11):0.31);").unwrap();
        assert_ne!(permuted.tip_names(), tree.tip_names());
        let root = permuted.incident(permuted.tip_by_name("a").unwrap())[0];
        let got = engine.log_likelihood(&permuted, root);
        let fresh = LikelihoodEngine::new(&permuted, &aln, cfg).log_likelihood(&permuted, root);
        assert_eq!(got.to_bits(), fresh.to_bits());
        assert!(
            (got - ll).abs() < 1e-9,
            "same tree, same likelihood: {got} vs {ll}"
        );
        // Every CLA was rebuilt under the new binding, and the walk
        // that did it was the full one.
        assert_eq!(
            engine.stats().get(KernelId::Newview).calls - calls,
            tree.num_inner() as u64
        );
    }

    // ---- Re-rooting cost: what the search's depth-first orders buy ----

    #[test]
    fn depth_first_smoothing_tour_costs_under_two_newviews_per_branch() {
        let (mut tree, aln) = random_dataset(64, 31);
        let mut engine = LikelihoodEngine::new(&tree, &aln, EngineConfig::default());
        engine.log_likelihood(&tree, 0);
        let before = engine.stats().get(KernelId::Newview).calls;
        // One `optimize_branch` per step, minus the Newton iterations:
        // root on the branch, then change its length.
        let tour = phylo_tree::traverse::edges_depth_first(&tree, 0);
        for &e in &tour {
            engine.prepare_branch(&tree, e);
            tree.set_length(e, 0.9 * tree.length(e) + 0.01).unwrap();
        }
        let calls = engine.stats().get(KernelId::Newview).calls - before;
        // Three per inner node is the floor of a tour that changes every
        // length: a node owns one CLA, the tour crosses it toward each
        // of its three neighbours, and the length changed one step
        // earlier sits below the orientation it left behind. Holding
        // all three orientations at once would not help — each is
        // invalidated by the step before it is needed again (see
        // EXPERIMENTS.md, "Why 1.5 newviews per branch is the floor").
        let inner = (tree.num_taxa() - 2) as u64;
        assert!(
            calls <= 3 * inner,
            "{calls} newviews over {} branches, {inner} inner nodes",
            tour.len()
        );
        assert_eq!((calls, tour.len(), inner), (185, 125, 62));
    }

    #[test]
    fn adjacent_regraft_targets_cost_at_most_three_newviews() {
        use phylo_tree::moves::{spr, spr_undo};
        let (mut tree, aln) = random_dataset(64, 37);
        let cfg = EngineConfig::default();
        let mut engine = LikelihoodEngine::new(&tree, &aln, cfg);
        let mut pairs = 0;
        for prune_edge in tree.edge_ids() {
            let (subtree_root, p) = tree.endpoints(prune_edge);
            if tree.is_tip(p) {
                continue;
            }
            // Score the targets as `spr_round` does: apply, evaluate at
            // the prune edge, undo. Between the two evaluations the
            // halves of the split edges change ids, which no key holds.
            let mut last: Option<EdgeId> = None;
            for target in phylo_tree::traverse::edges_within(&tree, prune_edge, 5) {
                let adjacent = last.is_some_and(|l| {
                    let (a, b) = tree.endpoints(l);
                    let (c, d) = tree.endpoints(target);
                    a == c || a == d || b == c || b == d
                });
                let Ok(undo) = spr(&mut tree, prune_edge, subtree_root, target) else {
                    continue;
                };
                let before = engine.stats().get(KernelId::Newview).calls;
                let ll = engine.log_likelihood(&tree, prune_edge);
                let calls = engine.stats().get(KernelId::Newview).calls - before;
                if adjacent {
                    pairs += 1;
                    assert!(
                        calls <= 3,
                        "prune {prune_edge}: target {target} after {last:?} cost {calls}"
                    );
                    let fresh =
                        LikelihoodEngine::new(&tree, &aln, cfg).log_likelihood(&tree, prune_edge);
                    assert_eq!(
                        ll.to_bits(),
                        fresh.to_bits(),
                        "prune {prune_edge} target {target}"
                    );
                }
                spr_undo(&mut tree, undo).unwrap();
                last = Some(target);
            }
        }
        assert!(pairs > 100, "only {pairs} adjacent target pairs");
    }

    #[test]
    fn model_change_invalidates_everything() {
        let (tree, aln) = five_taxon();
        let mut engine = LikelihoodEngine::new(&tree, &aln, EngineConfig::default());
        let e = 0;
        let l1 = engine.log_likelihood(&tree, e);
        engine.set_alpha(0.3);
        let before = engine.stats().get(KernelId::Newview).calls;
        let l2 = engine.log_likelihood(&tree, e);
        let after = engine.stats().get(KernelId::Newview).calls;
        assert_eq!((after - before) as usize, tree.num_inner());
        assert!(
            (l1 - l2).abs() > 1e-9,
            "alpha change must move the likelihood"
        );
    }

    #[test]
    fn partial_ranges_sum_to_full() {
        let (tree, aln) = five_taxon();
        let cfg = EngineConfig::default();
        let mut full = LikelihoodEngine::new(&tree, &aln, cfg);
        let n = aln.num_patterns();
        let mid = n / 2;
        let mut lo = LikelihoodEngine::with_range(&tree, &aln, cfg, 0..mid);
        let mut hi = LikelihoodEngine::with_range(&tree, &aln, cfg, mid..n);
        let e = 2;
        let total = full.log_likelihood(&tree, e);
        let sum = lo.log_likelihood(&tree, e) + hi.log_likelihood(&tree, e);
        assert!((total - sum).abs() < 1e-9, "{total} vs {sum}");
        let t = tree.length(e);
        let derivatives = |eng: &mut LikelihoodEngine| {
            eng.prepare_branch(&tree, e);
            eng.branch_derivatives(t)
        };
        let (d1, d2) = derivatives(&mut full);
        let ((l1, l2), (h1, h2)) = (derivatives(&mut lo), derivatives(&mut hi));
        assert!((d1 - (l1 + h1)).abs() < 1e-8 && (d2 - (l2 + h2)).abs() < 1e-8);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let (tree, aln) = five_taxon();
        for mut engine in engines(&tree, &aln) {
            for edge in tree.edge_ids() {
                engine.prepare_branch(&tree, edge);
                let t0 = tree.length(edge);
                let (d1, d2) = engine.branch_derivatives(t0);
                // Central finite differences on logL(t), evaluated by
                // re-running derivative_core's underlying L (via a
                // cloned tree + evaluate).
                let h = 1e-5;
                let ll = |t: f64, tree: &Tree, eng: &mut LikelihoodEngine| {
                    let mut tt = tree.clone();
                    tt.set_length(edge, t).unwrap();
                    eng.log_likelihood(&tt, edge)
                };
                let lp = ll(t0 + h, &tree, &mut engine);
                let lm = ll(t0 - h, &tree, &mut engine);
                let l0 = ll(t0, &tree, &mut engine);
                let fd1 = (lp - lm) / (2.0 * h);
                let fd2 = (lp - 2.0 * l0 + lm) / (h * h);
                assert!(
                    (d1 - fd1).abs() < 1e-3 * (1.0 + fd1.abs()),
                    "{:?} edge {edge}: d1={d1} fd={fd1}",
                    engine.kernel_kind()
                );
                assert!(
                    (d2 - fd2).abs() < 1e-2 * (1.0 + fd2.abs()),
                    "{:?} edge {edge}: d2={d2} fd={fd2}",
                    engine.kernel_kind()
                );
                // Re-prepare for next edge (log_likelihood moved CLAs).
                engine.prepare_branch(&tree, edge);
            }
        }
    }

    #[test]
    fn blocking_resolution_is_reported() {
        let (tree, aln) = five_taxon();
        let mk = |blocking| {
            LikelihoodEngine::new(
                &tree,
                &aln,
                EngineConfig {
                    blocking,
                    ..EngineConfig::default()
                },
            )
        };
        assert_eq!(mk(Blocking::Off).blocking(), Blocking::Off);
        assert_eq!(mk(Blocking::On).blocking(), Blocking::On);
        // 17 patterns fit in one block: Auto declines.
        assert_eq!(mk(Blocking::Auto).blocking(), Blocking::Off);
    }

    #[test]
    #[should_panic(expected = "prepare_branch")]
    fn derivatives_require_preparation() {
        let (tree, aln) = five_taxon();
        let mut engine = LikelihoodEngine::new(&tree, &aln, EngineConfig::default());
        let _ = tree;
        engine.branch_derivatives(0.1);
    }

    #[test]
    fn scaling_on_deep_tree_keeps_likelihood_finite() {
        // A long caterpillar with long branches forces CLA underflow
        // without scaling.
        let names = phylo_tree::build::default_names(14);
        let tree = phylo_tree::build::caterpillar(&names, 3.0).unwrap();
        let seqs: Vec<(String, String)> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let base = ['A', 'C', 'G', 'T'][i % 4];
                (n.clone(), std::iter::repeat_n(base, 8).collect())
            })
            .collect();
        let a = Alignment::new(
            seqs.iter()
                .map(|(n, s)| Sequence::from_str_named(n.clone(), s).unwrap())
                .collect(),
        )
        .unwrap();
        let ca = CompressedAlignment::from_alignment(&a);
        let mut engine = LikelihoodEngine::new(&tree, &ca, EngineConfig::default());
        let ll = engine.log_likelihood(&tree, 0);
        assert!(ll.is_finite(), "logL = {ll}");
        assert!(ll < 0.0);
    }

    // ---- Random fixtures of the re-rooting cost tests ----

    use phylo_tree::build::{default_names, random_tree};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// `patterns` columns of random unambiguous codes, unit weights (no
    /// pattern dedup, so the count is exact).
    fn random_columns(tree: &Tree, patterns: usize, rng: &mut SmallRng) -> CompressedAlignment {
        let rows = (0..tree.num_taxa())
            .map(|_| {
                (0..patterns)
                    .map(|_| phylo_bio::DnaCode::from_state(rng.random_range(0..4)))
                    .collect()
            })
            .collect();
        CompressedAlignment::from_parts(tree.tip_names().to_vec(), rows, vec![1; patterns]).unwrap()
    }

    fn random_dataset(taxa: usize, seed: u64) -> (Tree, CompressedAlignment) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tree = random_tree(&default_names(taxa), 0.15, &mut rng).unwrap();
        let aln = random_columns(&tree, 120, &mut rng);
        (tree, aln)
    }
}
