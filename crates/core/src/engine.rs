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
//! Every stale node takes one path: it is *planned* (slot, stamp,
//! cache key, counters, per-branch tables — in schedule order) and
//! the plan is *executed* over a site range: the whole range on the
//! straight-line traversal, one cache-sized block at a time on the
//! blocked one ([`crate::blocking`]), the class representatives on a
//! compressed node ([`crate::repeats`]).
//!
//! The CLAs live in a pool of slots. [`LikelihoodEngine::new`] sizes
//! the pool at one slot per inner node, and nothing is ever evicted.
//! [`LikelihoodEngine::with_pool`] caps it — the memory-saving
//! recomputation §V-A lists as unsupported in the paper's MIC port,
//! whose 8 GB card is the binding constraint at 4000K sites
//! (§VI-B2): a CLA is pinned from its computation until its parent
//! has consumed it, unpinned residents are evicted on demand, and an
//! evicted node is recomputed the next time a traversal schedules
//! it, trading `newview` calls for memory.
//!
//! An engine may cover a sub-range of the alignment's patterns; worker
//! threads in `phylo-parallel` each own an engine over their slice and
//! reduce the returned partial log-likelihoods/derivatives.

use crate::blocking::{BlockJob, Blocking};
use crate::cla::Cla;
use crate::cost::KernelOp;
use crate::instrument::KernelStats;
use crate::kernels::{derivative_ratios, site_log_likelihood, KernelKind, Kernels};
use crate::layout::{EigenBasis, FusedPmat, Lut16x16};
use crate::repeats::{
    ClassSource, RepeatBuildStats, RepeatIndex, RepeatKey, RepeatScratch, RepeatStats, RepeatTable,
    SiteRepeats,
};
use crate::{AlignedVec, NUM_RATES, SITE_STRIDE};
use phylo_bio::CompressedAlignment;
use phylo_models::{DiscreteGamma, Eigensystem, Gtr, GtrParams, ProbMatrix};
use phylo_tree::traverse::{children, full_schedule, Directed, ScheduleBuf};
use phylo_tree::{EdgeId, NodeId, Tree};
use std::sync::Arc;

/// Engine construction options.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Which kernel implementation to run. Resolved through
    /// [`KernelKind::effective`] at construction: the
    /// `PHYLOMIC_KERNELS` environment variable (when set) overrides
    /// this field, and `Auto`/unavailable-`Simd` resolve to a concrete
    /// backend for the host.
    pub kernel: KernelKind,
    /// Γ shape parameter α.
    pub alpha: f64,
    /// Site-repeat compression mode. Resolved through
    /// [`SiteRepeats::effective`] at construction: the
    /// `PHYLOMIC_SITE_REPEATS` environment variable (when set)
    /// overrides this field. `Off` is the uncompressed reference path;
    /// results are bit-identical either way (see [`crate::repeats`]).
    pub site_repeats: SiteRepeats,
    /// Traversal-level cache blocking mode. Resolved through
    /// [`Blocking::effective`] at construction: the
    /// `PHYLOMIC_BLOCKING` environment variable (when set) overrides
    /// this field, then `Auto` resolves against the engine's pattern
    /// count. Results are bit-identical either way (see
    /// [`crate::blocking`]).
    pub blocking: Blocking,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            kernel: KernelKind::Auto,
            alpha: 1.0,
            site_repeats: SiteRepeats::Auto,
            blocking: Blocking::Auto,
        }
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

/// One stale `newview`, planned: all bookkeeping (slot, stamp, cache
/// key, repeat counters) is done at plan time in schedule order, so
/// only the kernel work itself may be deferred and re-ordered into
/// site blocks.
struct PlannedNewview {
    /// Inner-node index (names the repeat table of a compressed node).
    idx: usize,
    /// Pool slot the CLA is written to.
    slot: usize,
    job: BlockJob,
    /// Class count when the node runs compressed.
    classes: Option<u64>,
}

/// Marks a free pool slot / a non-resident inner node.
const FREE: usize = usize::MAX;

/// One edge as the pruned walk remembers it: endpoints and the bits of
/// its length.
type EdgeRecord = (NodeId, NodeId, u64);

/// What the last traversal left behind, for the next one to prune its
/// walk against. Invariant while `trusted`: every inner node's CLA is
/// resident and valid for the tree in `edges`, oriented toward
/// `toward[node]` — its parent under the rooting of that traversal.
#[derive(Default)]
struct LastWalk {
    /// `false` until a traversal has completed on an all-resident
    /// pool, and again after anything that invalidates CLAs behind the
    /// tree's back (`invalidate_all`, a model change, a tip
    /// re-binding): the next walk is then the full one.
    trusted: bool,
    /// The edge records of the tree last traversed, by edge id.
    edges: Vec<EdgeRecord>,
    /// Per inner node, the neighbour its CLA was last oriented toward.
    toward: Vec<NodeId>,
    /// Per inner node, scratch of the walk in progress: may be stale.
    marked: Vec<bool>,
}

/// The smallest CLA pool that can evaluate `tree` at `root_edge`: the
/// maximum number of simultaneously pinned CLAs in the post-order
/// traversal (computed-but-unconsumed nodes, the two root-adjacent
/// ones to the end). Bounded by the tree height plus a constant.
pub fn min_pool_slots(tree: &Tree, root_edge: EdgeId) -> usize {
    let mut live = 0usize;
    let mut peak = 0usize;
    for d in full_schedule(tree, root_edge) {
        live += 1;
        peak = peak.max(live);
        live -= children(tree, d.node, d.toward_edge)
            .iter()
            .filter(|&&(_, c)| !tree.is_tip(c))
            .count();
    }
    peak.max(3)
}

/// The smallest pool that works for *any* virtual-root placement on
/// this tree.
pub fn min_pool_slots_any_root(tree: &Tree) -> usize {
    tree.edge_ids()
        .map(|e| min_pool_slots(tree, e))
        .max()
        .unwrap_or(3)
}

/// Cache record for the joint root repeat table driving the
/// weight-folded evaluate/derivative paths.
struct RootFold {
    key: RootFoldKey,
    table: RepeatTable,
}

/// The state a [`RootFold`] table was built in.
#[derive(Clone, Debug, PartialEq)]
struct RootFoldKey {
    /// Root pair, canonicalized tip-first (q, r).
    nodes: [NodeId; 2],
    /// Repeat-table build stamps of the endpoints (0 for a tip q).
    stamps: [u64; 2],
    /// Tip-binding epoch the table was built under.
    tip_epoch: u64,
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
    /// The CLA pool: one slot per inner node unless capped by
    /// [`LikelihoodEngine::with_pool`].
    slots: Vec<Cla>,
    /// Inner-node index occupying each slot ([`FREE`] = none yet).
    slot_owner: Vec<usize>,
    /// Inner-node index → slot ([`FREE`] = never computed or evicted).
    resident: Vec<usize>,
    /// Pin state of the traversal in progress: a node is pinned from
    /// its visit until its parent has consumed it, the root-adjacent
    /// nodes to the end.
    pinned: Vec<bool>,
    /// The state each CLA was last computed in. An evicted node keeps
    /// its key and stamp: recomputed under an equal key it holds the
    /// same bytes (the kernels are deterministic), so its resident
    /// ancestors stay valid.
    valid: Vec<Option<CacheKey>>,
    stamps: Vec<u64>,
    next_stamp: u64,
    model_version: u64,
    sumtable: AlignedVec,
    sum_edge: Option<(EdgeId, u64)>,
    stats: KernelStats,
    /// Effective site-repeat compression mode (env override applied).
    repeats_mode: SiteRepeats,
    /// What that mode means for this engine's pattern count, decided
    /// once: the class count up to which a node runs compressed, or
    /// `None` for no tables at all.
    class_limit: Option<usize>,
    /// Working state of every repeat-table build; owns no memory until
    /// the first one.
    repeat_index: RepeatIndex,
    /// Per-inner-node repeat tables (None until first built).
    repeat_tables: Vec<Option<RepeatTable>>,
    /// The state each table was built in (topology + tip binding only;
    /// branch-length and model changes keep tables valid).
    repeat_valid: Vec<Option<RepeatKey>>,
    /// Monotonic table build stamps, used in children's `RepeatKey`s to
    /// cascade invalidation upward.
    repeat_stamps: Vec<u64>,
    next_repeat_stamp: u64,
    /// Bumped whenever the alignment-row → tree-tip binding changes.
    tip_epoch: u64,
    /// Class-indexed staging buffers, allocated on first compressed
    /// `newview` (None also flags "taken" during a compressed call).
    repeat_scratch: Option<Box<RepeatScratch>>,
    repeat_stats: RepeatStats,
    /// Resolved traversal-blocking block size in sites (`None` = run
    /// the straight-line traversal; see [`crate::blocking`]).
    block_sites: Option<usize>,
    /// Cached joint root repeat table for the folded root paths.
    root_fold: Option<RootFold>,
    /// Scratch for per-class root results (site likelihoods /
    /// derivative triplets), grown lazily.
    fold_vals: Vec<f64>,
    /// Class count of the folded sumtable, set when the last
    /// `prepare_branch` filled it folded.
    sum_fold: Option<usize>,
    /// The fold's site→class map as of that `prepare_branch` — a copy,
    /// because the cached root table may be rebuilt for another edge
    /// between preparation and the Newton iterations.
    sum_fold_classes: Vec<u32>,
    /// Planned `newview`s awaiting their blocked execution, reused by
    /// every traversal.
    batch: Vec<PlannedNewview>,
    /// Per-node time accumulator of a batch, reused by every execution.
    batch_ns: Vec<u64>,
    /// The post-order schedule of the traversal in progress, refilled
    /// by every `update_partials`.
    schedule: ScheduleBuf,
    /// Whether the pool was capped by [`LikelihoodEngine::with_pool`]:
    /// such an engine always walks the full schedule (evictions make
    /// any node stale, and the full walk's eviction order is pinned).
    capped: bool,
    last_walk: LastWalk,
}

impl LikelihoodEngine {
    /// Builds an engine over the full pattern range of `aln`, with tip
    /// rows matched to `tree`'s tip ids by taxon name.
    pub fn new(tree: &Tree, aln: &CompressedAlignment, config: EngineConfig) -> Self {
        Self::with_range(tree, aln, config, 0..aln.num_patterns())
    }

    /// Builds an engine over the pattern sub-range `range` (the unit of
    /// data parallelism: each worker owns one slice).
    pub fn with_range(
        tree: &Tree,
        aln: &CompressedAlignment,
        config: EngineConfig,
        range: std::ops::Range<usize>,
    ) -> Self {
        Self::build(tree, aln, config, range, None)
    }

    /// Builds an engine over the full pattern range whose CLA memory
    /// is capped at `pool_slots` arrays ([`LikelihoodEngine::new`]
    /// holds `tree.num_inner()`). Evicted CLAs are recomputed on
    /// demand; results are those of the uncapped engine. Repeat tables
    /// are *not* pooled: a table costs at most ~12 bytes/site versus a
    /// CLA's 128 (nothing for a node with too many classes to
    /// compress), and keeping them is what lets an evicted CLA be
    /// recomputed over classes instead of sites.
    ///
    /// An engine built here never prunes its walk, whatever
    /// `pool_slots` is: at `tree.num_inner()` slots it is the
    /// all-resident engine minus the pruning, which is what the tests
    /// of the pruning compare against.
    ///
    /// # Panics
    /// Panics when `pool_slots < 3` — a post-order step needs two
    /// resident children plus the node being computed — and, during a
    /// traversal, when the pool is smaller than [`min_pool_slots`] of
    /// the tree and root edge at hand.
    pub fn with_pool(
        tree: &Tree,
        aln: &CompressedAlignment,
        config: EngineConfig,
        pool_slots: usize,
    ) -> Self {
        assert!(pool_slots >= 3, "pool needs at least 3 slots");
        Self::build(tree, aln, config, 0..aln.num_patterns(), Some(pool_slots))
    }

    fn build(
        tree: &Tree,
        aln: &CompressedAlignment,
        config: EngineConfig,
        range: std::ops::Range<usize>,
        pool_cap: Option<usize>,
    ) -> Self {
        let pool = pool_cap.map_or(tree.num_inner(), |cap| cap.min(tree.num_inner()));
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
        let kind = config.kernel.effective();
        let repeats_mode = config.site_repeats.effective();
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
            slots: (0..pool).map(|_| Cla::new(num_patterns)).collect(),
            slot_owner: vec![FREE; pool],
            resident: vec![FREE; tree.num_inner()],
            pinned: vec![false; tree.num_inner()],
            valid: vec![None; tree.num_inner()],
            stamps: vec![0; tree.num_inner()],
            next_stamp: 1,
            model_version: 1,
            sumtable: AlignedVec::zeroed(num_patterns * SITE_STRIDE),
            sum_edge: None,
            stats: KernelStats::new(),
            repeats_mode,
            class_limit: repeats_mode.class_limit(num_patterns),
            repeat_index: RepeatIndex::default(),
            repeat_tables: vec![None; tree.num_inner()],
            repeat_valid: vec![None; tree.num_inner()],
            repeat_stamps: vec![0; tree.num_inner()],
            next_repeat_stamp: 1,
            tip_epoch: 1,
            repeat_scratch: None,
            repeat_stats: RepeatStats::default(),
            block_sites: config.blocking.resolve(num_patterns),
            root_fold: None,
            fold_vals: Vec::new(),
            sum_fold: None,
            sum_fold_classes: Vec::new(),
            batch: Vec::new(),
            batch_ns: Vec::new(),
            schedule: ScheduleBuf::default(),
            capped: pool_cap.is_some(),
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

    /// The concrete kernel backend this engine runs (env override and
    /// runtime dispatch already resolved; never `Auto`). This is the
    /// kind recorded in trace metadata.
    pub fn kernel_kind(&self) -> KernelKind {
        self.kind
    }

    /// The effective site-repeat compression mode (env override
    /// applied at construction).
    pub fn site_repeats(&self) -> SiteRepeats {
        self.repeats_mode
    }

    /// The resolved traversal-blocking mode this engine runs: `On`
    /// when the post-order walk is cache-blocked, `Off` otherwise
    /// (env override and `Auto` resolved against the pattern count at
    /// construction). This is the mode recorded in trace metadata.
    pub fn blocking(&self) -> Blocking {
        if self.block_sites.is_some() {
            Blocking::On
        } else {
            Blocking::Off
        }
    }

    /// Cumulative site-repeat compression effectiveness.
    pub fn repeat_stats(&self) -> RepeatStats {
        self.repeat_stats
    }

    /// Cumulative cost of this engine's repeat-table builds (node
    /// tables and root-fold tables).
    pub fn repeat_build_stats(&self) -> RepeatBuildStats {
        self.repeat_index.stats()
    }

    /// Per-pattern scaling counters of inner node `inner` (0-based
    /// inner-node index); `None` while its CLA is not resident.
    /// Diagnostic/test accessor: the cross-backend and compression
    /// equivalence suites compare these arrays bit-for-bit.
    #[doc(hidden)]
    pub fn cla_scale(&self, inner: usize) -> Option<&[u32]> {
        self.slots.get(self.resident[inner]).map(Cla::scale)
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
        self.resident.len()
    }

    /// Number of CLA slots (the memory bound).
    pub fn pool_slots(&self) -> usize {
        self.slots.len()
    }

    /// CLA value memory in bytes (the quantity the pool caps).
    pub fn cla_bytes(&self) -> usize {
        self.slots.len() * self.num_patterns * SITE_STRIDE * 8
    }

    /// Heap bytes of the resident repeat tables (the memory the pool
    /// does not cap).
    pub fn repeat_table_bytes(&self) -> usize {
        self.repeat_tables
            .iter()
            .flatten()
            .map(RepeatTable::heap_bytes)
            .sum()
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
    /// invalidation is automatic via cache keys). Repeat tables stay:
    /// their validity is tracked separately, against topology and tip
    /// binding only.
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
            // Repeat tables were built over the old tip rows.
            self.tip_epoch += 1;
        }
    }

    fn fused_pmat(&self, t: f64) -> FusedPmat {
        FusedPmat::from_prob(&ProbMatrix::new(&self.eigen, self.gamma.rates(), t))
    }

    /// The CLA of inner node `node`, which the traversal just run left
    /// resident (pinned until consumed).
    #[inline]
    fn cla(&self, node: NodeId) -> &Cla {
        let slot = self.resident[self.inner_idx(node)];
        debug_assert_ne!(slot, FREE, "CLA of node {node} is not resident");
        &self.slots[slot]
    }

    /// Finds a slot for inner node `idx`: a free one, else that of the
    /// first unpinned resident, which is evicted (and keeps its cache
    /// key and stamp).
    fn acquire_slot(&mut self, idx: usize) -> usize {
        let slot = self
            .slot_owner
            .iter()
            .position(|&o| o == FREE)
            .or_else(|| self.slot_owner.iter().position(|&o| !self.pinned[o]))
            .unwrap_or_else(|| {
                panic!(
                    "CLA pool of {} slots too small for this traversal",
                    self.slots.len()
                )
            });
        let victim = std::mem::replace(&mut self.slot_owner[slot], idx);
        if victim != FREE {
            self.resident[victim] = FREE;
        }
        self.resident[idx] = slot;
        slot
    }

    /// Ensures every CLA needed to evaluate at `root_edge` is resident
    /// and valid, running `newview` for stale or evicted nodes only.
    /// Returns with the root-adjacent inner CLAs resident.
    ///
    /// Each such node is planned in schedule order — all cache
    /// bookkeeping happens then, so stamps, keys and call counts do
    /// not depend on how the plan is executed — and runs at once over
    /// the whole site range, unless traversal blocking is on
    /// ([`crate::blocking`]): then consecutive uncompressed nodes are
    /// queued and executed per site block, so a child's freshly
    /// written CLA columns are still cache-resident when its parent
    /// reads them. A compressed node reads its children whole-range,
    /// and an eviction reassigns a slot that queued jobs may address:
    /// the queue is run before either.
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
    /// pruned walk. Nothing is pruned on an engine's first traversal,
    /// after `invalidate_all` / `set_model` / `set_alpha` / a tip
    /// re-binding, or under a capped pool — the same loop, over the
    /// full schedule.
    pub fn update_partials(&mut self, tree: &Tree, root_edge: EdgeId) {
        debug_assert_eq!(tree.num_inner(), self.num_inner(), "tree shape changed");
        self.ensure_tip_binding(tree);
        let n = self.num_patterns;
        let block = self.block_sites;
        let limit = self.class_limit;
        self.pinned.fill(false);
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
            // Repeat tables are ensured for every scheduled node, even
            // when its CLA is cache-valid: parents build their classes
            // from the children's tables.
            if let Some(limit) = limit {
                self.ensure_repeat_table(tree, d.node, ch, limit);
            }
            let key = self.cache_key(tree, ch);
            let idx = self.inner_idx(d.node);
            walk.toward[idx] = tree.other_end(d.toward_edge, d.node);
            let evicted = self.resident[idx] == FREE;
            let changed = self.valid[idx].as_ref() != Some(&key);
            if evicted || changed {
                let compress = limit.is_some()
                    && self.repeat_tables[idx]
                        .as_ref()
                        .is_some_and(RepeatTable::compresses);
                let alone = compress || block.is_none();
                if alone || (evicted && !self.slot_owner.contains(&FREE)) {
                    self.execute(&batch, block.unwrap_or(n));
                    batch.clear();
                }
                let planned = self.plan_newview(tree, d.node, ch, changed.then_some(key), compress);
                if alone {
                    self.execute(std::slice::from_ref(&planned), n);
                } else {
                    batch.push(planned);
                }
            }
            // This node is live until its parent consumes it, as its
            // children were until now. (Unpinning them while their
            // consumer is still queued is safe: the queue is run
            // before any eviction.)
            self.pinned[idx] = true;
            for (_, c) in ch {
                if !tree.is_tip(c) {
                    let child = self.inner_idx(c);
                    self.pinned[child] = false;
                }
            }
        }
        self.execute(&batch, block.unwrap_or(n));
        batch.clear();
        #[cfg(debug_assertions)]
        if pruned {
            self.assert_left_out_nodes_are_valid(tree, root_edge, order);
        }
        walk.trusted = !self.capped;
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
    /// have checked — resident, and its fresh keys equal to the stored
    /// ones.
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
        for d in full_schedule(tree, root_edge) {
            let idx = self.inner_idx(d.node);
            if seen[idx] {
                continue;
            }
            let ch = canonical_children(tree, d);
            assert_ne!(
                self.resident[idx], FREE,
                "pruned node {} is not resident",
                d.node
            );
            assert_eq!(
                self.valid[idx].as_ref(),
                Some(&self.cache_key(tree, ch)),
                "pruned node {} is stale",
                d.node
            );
            if self.class_limit.is_some() {
                assert_eq!(
                    self.repeat_valid[idx].as_ref(),
                    Some(&self.repeat_key(tree, ch)),
                    "pruned node {} has a stale repeat table",
                    d.node
                );
            }
        }
    }

    /// Plans one `newview`: takes the node's slot and does all of its
    /// bookkeeping (stamp and cache key when `new_key` says the inputs
    /// changed, call and compression counters), and precomputes the
    /// per-branch tables, once per node whatever the execution.
    fn plan_newview(
        &mut self,
        tree: &Tree,
        node: NodeId,
        ch: [(EdgeId, NodeId); 2],
        new_key: Option<CacheKey>,
        compress: bool,
    ) -> PlannedNewview {
        let idx = self.inner_idx(node);
        let slot = match self.resident[idx] {
            FREE => self.acquire_slot(idx),
            slot => slot,
        };
        if new_key.is_some() {
            self.stamps[idx] = self.next_stamp;
            self.next_stamp += 1;
            self.valid[idx] = new_key;
        }
        self.repeat_stats.newview_calls += 1;
        let classes = compress.then(|| {
            let table = self.repeat_tables[idx]
                .as_ref()
                .expect("repeat table built");
            let (sites, classes) = (table.num_sites() as u64, table.num_classes() as u64);
            self.repeat_stats.compressed_calls += 1;
            self.repeat_stats.sites += sites;
            self.repeat_stats.classes += classes;
            repeat_sites_counter().add(sites);
            repeat_classes_counter().add(classes);
            classes
        });
        PlannedNewview {
            idx,
            slot,
            classes,
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
        let slot_of = |n: NodeId| self.resident[self.inner_idx(n)];
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
                child_r: slot_of(n_r),
            },
            (false, false) => BlockJob::Ii {
                p_l: self.fused_pmat(t_l),
                child_l: slot_of(n_l),
                p_r: self.fused_pmat(t_r),
                child_r: slot_of(n_r),
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
        {
            let _span = crate::span::enter("newview");
            let mut b0 = 0;
            while b0 < n {
                let b1 = (b0 + step).min(n);
                for (planned, ns) in batch.iter().zip(&mut ns) {
                    let t0 = std::time::Instant::now();
                    self.run_job(planned, b0, b1);
                    *ns = ns.saturating_add(elapsed_ns(t0));
                }
                b0 = b1;
            }
        }
        for (planned, &ns) in batch.iter().zip(&ns) {
            let op = planned.job.op();
            match planned.classes {
                Some(classes) => {
                    let cost = crate::cost::newview_compressed(op, n as u64, classes);
                    self.stats.record_op_cost(op, n, ns, cost);
                }
                None => self.stats.record_op_timed(op, n, ns),
            }
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
    ///
    /// A compressed node gets the whole range and hands it to the
    /// repeat scratch: gather the children's buffers at the class
    /// representatives, run the kernel over `num_classes` "sites",
    /// expand back to the full per-site CLA. Bit-identical to the
    /// uncompressed call (see [`crate::repeats`]).
    fn run_job(&mut self, planned: &PlannedNewview, b0: usize, b1: usize) {
        let mut out = std::mem::replace(&mut self.slots[planned.slot], Cla::new(0));
        let (out_v, out_s) = out.buffers_mut();
        let mut scratch = planned.classes.map(|_| {
            self.repeat_scratch
                .take()
                .unwrap_or_else(|| Box::new(RepeatScratch::new(self.num_patterns)))
        });
        let classes = scratch
            .as_deref_mut()
            .zip(self.repeat_tables[planned.idx].as_ref());
        let (vals, sites) = (b0 * SITE_STRIDE..b1 * SITE_STRIDE, b0..b1);
        match &planned.job {
            BlockJob::Tt {
                lut_l,
                lut_r,
                tip_l,
                tip_r,
            } => {
                let c_l = &self.tip(*tip_l)[sites.clone()];
                let c_r = &self.tip(*tip_r)[sites.clone()];
                match classes {
                    None => {
                        let (out_v, out_s) = (&mut out_v[vals], &mut out_s[sites]);
                        self.kernel.newview_tt(lut_l, lut_r, c_l, c_r, out_v, out_s);
                    }
                    Some((scratch, table)) => {
                        scratch.newview_tt(self.kernel, table, lut_l, lut_r, c_l, c_r, out_v, out_s)
                    }
                }
            }
            BlockJob::Ti {
                lut_l,
                tip_l,
                p_r,
                child_r,
            } => {
                let c_l = &self.tip(*tip_l)[sites.clone()];
                let cla_r = &self.slots[*child_r];
                let (v_r, s_r) = (&cla_r.values()[vals.clone()], &cla_r.scale()[sites.clone()]);
                match classes {
                    None => {
                        let (out_v, out_s) = (&mut out_v[vals], &mut out_s[sites]);
                        self.kernel
                            .newview_ti(lut_l, c_l, p_r, v_r, s_r, out_v, out_s);
                    }
                    Some((scratch, table)) => scratch.newview_ti(
                        self.kernel,
                        table,
                        lut_l,
                        c_l,
                        p_r,
                        v_r,
                        s_r,
                        out_v,
                        out_s,
                    ),
                }
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
                let (v_r, s_r) = (&cla_r.values()[vals.clone()], &cla_r.scale()[sites.clone()]);
                match classes {
                    None => {
                        let (out_v, out_s) = (&mut out_v[vals], &mut out_s[sites]);
                        self.kernel
                            .newview_ii(p_l, v_l, s_l, p_r, v_r, s_r, out_v, out_s);
                    }
                    Some((scratch, table)) => scratch.newview_ii(
                        self.kernel,
                        table,
                        p_l,
                        v_l,
                        s_l,
                        p_r,
                        v_r,
                        s_r,
                        out_v,
                        out_s,
                    ),
                }
            }
        }
        if scratch.is_some() {
            self.repeat_scratch = scratch;
        }
        self.slots[planned.slot] = out;
    }

    fn stamp_of(&self, tree: &Tree, node: NodeId) -> u64 {
        if tree.is_tip(node) {
            0
        } else {
            self.stamps[self.inner_idx(node)]
        }
    }

    fn repeat_stamp_of(&self, tree: &Tree, node: NodeId) -> u64 {
        if tree.is_tip(node) {
            0
        } else {
            self.repeat_stamps[self.inner_idx(node)]
        }
    }

    /// The state the repeat table of a node with (canonicalized)
    /// children `ch` is a function of, as of now.
    fn repeat_key(&self, tree: &Tree, ch: [(EdgeId, NodeId); 2]) -> RepeatKey {
        RepeatKey {
            child_nodes: [ch[0].1, ch[1].1],
            child_table_stamps: [
                self.repeat_stamp_of(tree, ch[0].1),
                self.repeat_stamp_of(tree, ch[1].1),
            ],
            tip_epoch: self.tip_epoch,
        }
    }

    /// Builds (or revalidates) `node`'s repeat table bottom-up from its
    /// children's class sources. Children's tables are guaranteed built
    /// because `update_partials` walks the post-order schedule.
    fn ensure_repeat_table(
        &mut self,
        tree: &Tree,
        node: NodeId,
        ch: [(EdgeId, NodeId); 2],
        limit: usize,
    ) {
        let idx = self.inner_idx(node);
        let key = self.repeat_key(tree, ch);
        if self.repeat_valid[idx].as_ref() == Some(&key) {
            return;
        }
        let _span = crate::span::enter("repeat_table");
        let mut index = std::mem::take(&mut self.repeat_index);
        let source = |n: NodeId| -> ClassSource<'_> {
            if tree.is_tip(n) {
                ClassSource::Tip(self.tip(n))
            } else {
                ClassSource::Inner(
                    self.repeat_tables[self.inner_idx(n)]
                        .as_ref()
                        .expect("child repeat table built before parent (post-order)"),
                )
            }
        };
        let table = RepeatTable::build(source(ch[0].1), source(ch[1].1), limit, &mut index);
        self.repeat_index = index;
        self.repeat_tables[idx] = Some(table);
        self.repeat_valid[idx] = Some(key);
        self.repeat_stamps[idx] = self.next_repeat_stamp;
        self.next_repeat_stamp += 1;
    }

    /// Builds (or revalidates) the joint repeat table for the root
    /// pair `(q, r)` and decides whether the weight-folded root paths
    /// run. The joint table refines *both* endpoints' class
    /// partitions, so all member sites of one class have bit-identical
    /// CLA columns (and tip codes) at both endpoints — the root
    /// kernels may run over class representatives only, with the
    /// engine folding weights back in site order.
    ///
    /// Returns `false` (full-width path) when repeats are off, when
    /// `r` is a tip (the two-taxon corner), or when the compression
    /// does not pay under the engine's mode.
    fn ensure_root_fold(&mut self, tree: &Tree, q: NodeId, r: NodeId) -> bool {
        let Some(limit) = self.class_limit else {
            return false;
        };
        if tree.is_tip(r) {
            return false;
        }
        let r_idx = self.inner_idx(r);
        if self.repeat_tables[r_idx].is_none() {
            return false;
        }
        let q_stamp = if tree.is_tip(q) {
            0
        } else {
            let q_idx = self.inner_idx(q);
            if self.repeat_tables[q_idx].is_none() {
                return false;
            }
            self.repeat_stamps[q_idx]
        };
        let key = RootFoldKey {
            nodes: [q, r],
            stamps: [q_stamp, self.repeat_stamps[r_idx]],
            tip_epoch: self.tip_epoch,
        };
        if !self.root_fold.as_ref().is_some_and(|f| f.key == key) {
            let _span = crate::span::enter("repeat_table");
            let mut index = std::mem::take(&mut self.repeat_index);
            let left = if tree.is_tip(q) {
                ClassSource::Tip(self.tip(q))
            } else {
                ClassSource::Inner(self.repeat_tables[self.inner_idx(q)].as_ref().unwrap())
            };
            let right = ClassSource::Inner(self.repeat_tables[r_idx].as_ref().unwrap());
            let table = RepeatTable::build(left, right, limit, &mut index);
            self.repeat_index = index;
            self.root_fold = Some(RootFold { key, table });
        }
        self.root_fold
            .as_ref()
            .expect("fold table cached")
            .table
            .compresses()
    }

    /// Log-likelihood (partial, over this engine's pattern slice) with
    /// the virtual root on `root_edge`.
    ///
    /// When site-repeat tables are active and compress at the root,
    /// this runs the weight-folded path: the evaluate kernel computes
    /// the raw site likelihood only at the joint table's class
    /// representatives, the per-class log/scale tail is applied once
    /// per class, and the weighted sum accumulates in original site
    /// order — the same additions in the same order as the full-width
    /// kernel, hence bit-identical, but skipping the last level's
    /// expand-by-copy entirely.
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
        // The fold decision (and any table build behind it) comes
        // before the op timer: it is traversal overhead, not kernel
        // time.
        let folded = self.ensure_root_fold(tree, q, r);
        let _span = crate::span::enter("evaluate");
        patterns_evaluated().add(self.num_patterns as u64);
        let t0 = std::time::Instant::now();
        let t = tree.length(root_edge);
        let p = self.fused_pmat(t);
        let (ll, op, folded_classes) = if folded {
            let mut vals = std::mem::take(&mut self.fold_vals);
            let table = &self.root_fold.as_ref().expect("fold table cached").table;
            let nc = table.num_classes();
            if vals.len() < nc {
                vals.resize(nc, 0.0);
            }
            let reprs = table.repr_sites();
            let op = if tree.is_tip(q) {
                let cla_r = self.cla(r);
                self.kernel.evaluate_classes_ti(
                    &self.tip_pi,
                    self.tip(q),
                    &p,
                    cla_r.values(),
                    reprs,
                    &mut vals[..nc],
                );
                // Per-class evaluate tail, exactly as the full-width
                // kernel computes it at the representative site.
                let scale_r = cla_r.scale();
                for (v, &s) in vals.iter_mut().zip(reprs) {
                    *v = site_log_likelihood(*v, scale_r[s as usize]);
                }
                KernelOp::EvaluateTi
            } else {
                let cla_q = self.cla(q);
                let cla_r = self.cla(r);
                self.kernel.evaluate_classes_ii(
                    &self.pi_w,
                    cla_q.values(),
                    &p,
                    cla_r.values(),
                    reprs,
                    &mut vals[..nc],
                );
                let (scale_q, scale_r) = (cla_q.scale(), cla_r.scale());
                for (v, &s) in vals.iter_mut().zip(reprs) {
                    let s = s as usize;
                    *v = site_log_likelihood(*v, scale_q[s] + scale_r[s]);
                }
                KernelOp::EvaluateIi
            };
            let mut ll = 0.0;
            for (i, &c) in table.site2class().iter().enumerate() {
                ll += self.weights[i] as f64 * vals[c as usize];
            }
            self.fold_vals = vals;
            (ll, op, Some(nc as u64))
        } else if tree.is_tip(q) {
            let cla_r = self.cla(r);
            let ll = self.kernel.evaluate_ti(
                &self.tip_pi,
                self.tip(q),
                &p,
                cla_r.values(),
                cla_r.scale(),
                &self.weights,
            );
            (ll, KernelOp::EvaluateTi, None)
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
            (ll, KernelOp::EvaluateIi, None)
        };
        match folded_classes {
            Some(nc) => {
                let cost = crate::cost::folded_root(op, self.num_patterns as u64, nc);
                self.stats
                    .record_op_cost(op, self.num_patterns, elapsed_ns(t0), cost);
            }
            None => self
                .stats
                .record_op_timed(op, self.num_patterns, elapsed_ns(t0)),
        }
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
        // As in `log_likelihood`: decided outside the op timer.
        let folded = self.ensure_root_fold(tree, q, r);
        let _span = crate::span::enter("derivativeSum");
        let t0 = std::time::Instant::now();
        // Re-borrow pieces to satisfy the borrow checker: the sumtable
        // is disjoint from the CLAs.
        let mut sumtable = std::mem::replace(&mut self.sumtable, AlignedVec::zeroed(0));
        let (op, folded_classes) = if folded {
            // Folded path: fill only the class-representative columns
            // of the sumtable (gathered via the repeat scratch);
            // `branch_derivatives` folds weights back in site order.
            let mut scratch = self
                .repeat_scratch
                .take()
                .unwrap_or_else(|| Box::new(RepeatScratch::new(self.num_patterns)));
            let table = &self.root_fold.as_ref().expect("fold table cached").table;
            let nc = table.num_classes();
            let op = if tree.is_tip(q) {
                let cla_r = self.cla(r);
                scratch.derivative_sum_ti_folded(
                    self.kernel,
                    table,
                    &self.basis,
                    self.tip(q),
                    cla_r.values(),
                    cla_r.scale(),
                    &mut sumtable,
                );
                KernelOp::DerivativeSumTi
            } else {
                let cla_q = self.cla(q);
                let cla_r = self.cla(r);
                scratch.derivative_sum_ii_folded(
                    self.kernel,
                    table,
                    &self.basis,
                    cla_q.values(),
                    cla_q.scale(),
                    cla_r.values(),
                    cla_r.scale(),
                    &mut sumtable,
                );
                KernelOp::DerivativeSumIi
            };
            self.sum_fold = Some(nc);
            self.sum_fold_classes.clear();
            self.sum_fold_classes.extend_from_slice(table.site2class());
            self.repeat_scratch = Some(scratch);
            let inner_children = if tree.is_tip(q) { 1 } else { 2 };
            (op, Some((nc as u64, inner_children)))
        } else {
            self.sum_fold = None;
            let op = if tree.is_tip(q) {
                let cla_r = self.cla(r);
                self.kernel.derivative_sum_ti(
                    &self.basis,
                    self.tip(q),
                    cla_r.values(),
                    &mut sumtable,
                );
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
            (op, None)
        };
        self.sumtable = sumtable;
        self.sum_edge = Some((edge, self.model_version));
        match folded_classes {
            Some((nc, inner_children)) => {
                let cost = crate::cost::derivative_sum_folded(op, nc, inner_children);
                self.stats
                    .record_op_cost(op, self.num_patterns, elapsed_ns(t0), cost);
            }
            None => self
                .stats
                .record_op_timed(op, self.num_patterns, elapsed_ns(t0)),
        }
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
        let _span = crate::span::enter("derivativeCore");
        let t0 = std::time::Instant::now();
        let (out, folded_classes) = match self.sum_fold {
            Some(nc) => {
                let mut vals = std::mem::take(&mut self.fold_vals);
                if vals.len() < 3 * nc {
                    vals.resize(3 * nc, 0.0);
                }
                self.kernel.derivative_core_classes(
                    &self.sumtable[..nc * SITE_STRIDE],
                    &self.basis.lambda_rate,
                    t,
                    &mut vals[..3 * nc],
                );
                // Per-class ratio tail, exactly as the full-width
                // kernel computes it at the representative site;
                // stored in place as (d1 term, d2 term) pairs.
                for l in vals[..3 * nc].chunks_exact_mut(3) {
                    (l[0], l[1]) = derivative_ratios(l[0], l[1], l[2]);
                }
                // Weighted accumulation in original site order — the
                // same additions in the same order as the full-width
                // kernel, hence bit-identical derivatives.
                let mut dlnl = 0.0;
                let mut d2lnl = 0.0;
                for (i, &c) in self.sum_fold_classes.iter().enumerate() {
                    let w = self.weights[i] as f64;
                    let c = c as usize;
                    dlnl += w * vals[3 * c];
                    d2lnl += w * vals[3 * c + 1];
                }
                self.fold_vals = vals;
                ((dlnl, d2lnl), Some(nc as u64))
            }
            None => (
                self.kernel.derivative_core(
                    &self.sumtable,
                    &self.basis.lambda_rate,
                    t,
                    &self.weights,
                ),
                None,
            ),
        };
        match folded_classes {
            Some(nc) => {
                let cost = crate::cost::folded_root(
                    KernelOp::DerivativeCore,
                    self.num_patterns as u64,
                    nc,
                );
                self.stats.record_op_cost(
                    KernelOp::DerivativeCore,
                    self.num_patterns,
                    elapsed_ns(t0),
                    cost,
                );
            }
            None => self.stats.record_op_timed(
                KernelOp::DerivativeCore,
                self.num_patterns,
                elapsed_ns(t0),
            ),
        }
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

/// Nanoseconds elapsed since `t0`, saturated into `u64`.
#[inline]
fn elapsed_ns(t0: std::time::Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
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

/// Cached handle for `core.repeats.sites`: logical sites covered by
/// compressed `newview` calls.
fn repeat_sites_counter() -> &'static crate::metrics::Counter {
    static C: std::sync::OnceLock<crate::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| crate::metrics::counter("core.repeats.sites"))
}

/// Cached handle for `core.repeats.classes`: unique repeat classes
/// actually computed by compressed `newview` calls.
fn repeat_classes_counter() -> &'static crate::metrics::Counter {
    static C: std::sync::OnceLock<crate::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| crate::metrics::counter("core.repeats.classes"))
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

    #[test]
    fn all_backends_agree_bitwise_closely() {
        let (tree, aln) = five_taxon();
        let [mut s, mut x] = engines(&tree, &aln);
        for e in tree.edge_ids() {
            let ls = s.log_likelihood(&tree, e);
            let lx = x.log_likelihood(&tree, e);
            assert!((ls - lx).abs() < 1e-10, "edge {e}: {ls} vs simd {lx}");
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
        assert_eq!(engine.tip_epoch, 1);
    }

    #[test]
    fn permuted_names_rebind_and_invalidate() {
        let (tree, aln) = five_taxon();
        let cfg = EngineConfig {
            site_repeats: SiteRepeats::On,
            ..EngineConfig::default()
        };
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
        // Every CLA and every repeat table was rebuilt under the new
        // binding, and the walk that did it was the full one.
        assert_eq!(
            engine.stats().get(KernelId::Newview).calls - calls,
            tree.num_inner() as u64
        );
        assert_eq!(engine.tip_epoch, 2);
        // (Unless an env override keeps this engine from building any.)
        if SiteRepeats::env_override().is_none() {
            assert!(engine.repeat_build_stats().builds >= 2 * tree.num_inner() as u64);
        }
    }

    // ---- Re-rooting cost: what the search's depth-first orders buy ----

    #[test]
    fn depth_first_smoothing_tour_costs_under_two_newviews_per_branch() {
        let (mut tree, aln) = pool_dataset(64, 31);
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
        let (mut tree, aln) = pool_dataset(64, 37);
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
        if Blocking::env_override().is_some() {
            return; // the override forces one mode for every config
        }
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

    /// An alignment of all-distinct columns wide enough that a blocked
    /// engine really runs multiple site blocks.
    fn blocking_fixture() -> (Tree, CompressedAlignment) {
        let tree =
            newick::parse("((a:0.1,b:0.12):0.1,c:0.15,(d:0.1,(e:0.11,f:0.1):0.13):0.1);").unwrap();
        let sites = (crate::blocking::block_sites() + 50).min(4096);
        let names = ["a", "b", "c", "d", "e", "f"];
        let mut seqs = vec![String::new(); names.len()];
        for i in 0..sites {
            let mut v = i;
            for s in seqs.iter_mut() {
                s.push(['A', 'C', 'G', 'T'][v % 4]);
                v /= 4;
            }
        }
        let rows: Vec<(&str, &str)> = names
            .iter()
            .zip(&seqs)
            .map(|(n, s)| (*n, s.as_str()))
            .collect();
        (tree, aln(&rows))
    }

    #[test]
    fn blocked_traversal_is_bit_identical_with_identical_call_counts() {
        let (tree, aln) = blocking_fixture();
        for kernel in [KernelKind::Scalar, KernelKind::Simd] {
            let mk = |blocking| {
                LikelihoodEngine::new(
                    &tree,
                    &aln,
                    EngineConfig {
                        kernel,
                        // Keep every node uncompressed so the blocked
                        // batch path (not the compressed barrier) is
                        // what computes the CLAs.
                        site_repeats: SiteRepeats::Off,
                        blocking,
                        ..EngineConfig::default()
                    },
                )
            };
            let mut off = mk(Blocking::Off);
            let mut on = mk(Blocking::On);
            let root = tree.incident(tree.tip_by_name("a").unwrap())[0];
            assert_eq!(
                off.log_likelihood(&tree, root).to_bits(),
                on.log_likelihood(&tree, root).to_bits(),
                "{kernel:?}: blocked logL drifted"
            );
            for i in 0..off.num_inner() {
                assert_eq!(off.cla_scale(i), on.cla_scale(i), "{kernel:?} inner {i}");
            }
            // Perturb one pendant branch: only part of the traversal
            // goes stale, so the batch covers a strict subset.
            let mut tree2 = tree.clone();
            let pend = tree2.incident(tree2.tip_by_name("d").unwrap())[0];
            tree2.set_length(pend, 0.7).unwrap();
            assert_eq!(
                off.log_likelihood(&tree2, root).to_bits(),
                on.log_likelihood(&tree2, root).to_bits(),
                "{kernel:?}: blocked logL drifted after perturbation"
            );
            assert_eq!(
                off.stats().get(KernelId::Newview).calls,
                on.stats().get(KernelId::Newview).calls,
                "{kernel:?}: blocking changed the newview call count"
            );
            off.prepare_branch(&tree2, root);
            on.prepare_branch(&tree2, root);
            let (d1o, d2o) = off.branch_derivatives(0.13);
            let (d1b, d2b) = on.branch_derivatives(0.13);
            assert_eq!(d1o.to_bits(), d1b.to_bits(), "{kernel:?}: d1 drifted");
            assert_eq!(d2o.to_bits(), d2b.to_bits(), "{kernel:?}: d2 drifted");
        }
        // Mixed case: compressed nodes act as barriers between batches
        // and must stay bit-identical too.
        let mk = |blocking| {
            LikelihoodEngine::new(
                &tree,
                &aln,
                EngineConfig {
                    kernel: KernelKind::Scalar,
                    site_repeats: SiteRepeats::On,
                    blocking,
                    ..EngineConfig::default()
                },
            )
        };
        let (mut off, mut on) = (mk(Blocking::Off), mk(Blocking::On));
        for e in [0, 3] {
            assert_eq!(
                off.log_likelihood(&tree, e).to_bits(),
                on.log_likelihood(&tree, e).to_bits(),
                "mixed barriers drifted at edge {e}"
            );
        }
    }

    /// Duplicated full columns via `from_parts` (the global pattern
    /// dedup of `from_alignment` would fold them into weights), so the
    /// joint root repeat table genuinely compresses: 16 sites → 4
    /// classes at every root pair.
    fn repeat_heavy() -> (Tree, CompressedAlignment) {
        let tree = newick::parse("((a:0.11,b:0.23):0.31,c:0.08,(d:0.19,e:0.27):0.14);").unwrap();
        let base = [
            ("a", "ACGT"),
            ("b", "ACGA"),
            ("c", "AAGT"),
            ("d", "ACTT"),
            ("e", "GCGT"),
        ];
        let names: Vec<String> = base.iter().map(|(n, _)| n.to_string()).collect();
        let rows: Vec<Vec<phylo_bio::DnaCode>> = base
            .iter()
            .map(|(n, s)| {
                let seq = Sequence::from_str_named(*n, s).unwrap();
                (0..16).map(|i| seq.get(i % 4)).collect()
            })
            .collect();
        let weights: Vec<u32> = (1..=16).collect();
        let aln = CompressedAlignment::from_parts(names, rows, weights).unwrap();
        (tree, aln)
    }

    #[test]
    fn folded_root_paths_are_bit_identical() {
        let (tree, aln) = repeat_heavy();
        for kernel in [KernelKind::Scalar, KernelKind::Simd] {
            let mk = |site_repeats| {
                LikelihoodEngine::new(
                    &tree,
                    &aln,
                    EngineConfig {
                        kernel,
                        site_repeats,
                        ..EngineConfig::default()
                    },
                )
            };
            {
                let mode = SiteRepeats::On;
                let mut off = mk(SiteRepeats::Off);
                let mut on = mk(mode);
                for e in tree.edge_ids() {
                    assert_eq!(
                        off.log_likelihood(&tree, e).to_bits(),
                        on.log_likelihood(&tree, e).to_bits(),
                        "{kernel:?} {mode} edge {e}: folded evaluate drifted"
                    );
                    for i in 0..off.num_inner() {
                        assert_eq!(
                            off.cla_scale(i),
                            on.cla_scale(i),
                            "{kernel:?} {mode} edge {e} inner {i}: scale arrays differ"
                        );
                    }
                    off.prepare_branch(&tree, e);
                    on.prepare_branch(&tree, e);
                    for t in [tree.length(e), 0.5 * tree.length(e) + 0.01] {
                        let (d1o, d2o) = off.branch_derivatives(t);
                        let (d1f, d2f) = on.branch_derivatives(t);
                        assert_eq!(
                            d1o.to_bits(),
                            d1f.to_bits(),
                            "{kernel:?} {mode} edge {e} t={t}: d1"
                        );
                        assert_eq!(
                            d2o.to_bits(),
                            d2f.to_bits(),
                            "{kernel:?} {mode} edge {e} t={t}: d2"
                        );
                    }
                }
                // (The rest is skipped under an env override, which
                // forces both engines into the same mode.)
                if SiteRepeats::env_override().is_some() {
                    return;
                }
                // Folding must actually have engaged: the modeled
                // evaluate traffic shrinks to class width (+ the fold
                // tail), so the op aggregates cannot match the
                // uncompressed engine's.
                assert_ne!(
                    off.stats().op(KernelOp::EvaluateIi).bytes_read,
                    on.stats().op(KernelOp::EvaluateIi).bytes_read,
                    "{kernel:?} {mode}: folded evaluate never engaged"
                );
                assert_ne!(
                    off.stats().op(KernelOp::DerivativeCore).bytes_read,
                    on.stats().op(KernelOp::DerivativeCore).bytes_read,
                    "{kernel:?} {mode}: folded derivative never engaged"
                );
                // 16 sites in 4 classes at every node and orientation:
                // no table is bounded and every call compresses.
                let stats = on.repeat_stats();
                assert_eq!(off.repeat_stats().newview_calls, stats.newview_calls);
                assert_eq!(
                    stats,
                    RepeatStats {
                        newview_calls: stats.newview_calls,
                        compressed_calls: stats.newview_calls,
                        sites: 16 * stats.newview_calls,
                        classes: 4 * stats.newview_calls,
                    },
                    "{kernel:?} {mode}"
                );
                let builds = on.repeat_build_stats();
                assert_eq!(builds.bounded_by_child + builds.bounded_by_limit, 0);
                assert_eq!(builds.sites_indexed, 16 * builds.builds);
            }
        }
    }

    /// The default engine over an alignment that compresses fourfold
    /// at every node: no table, no index, no scratch, no fold — the
    /// path `Off` takes — and the bits of `On` and `Off`.
    #[test]
    fn default_engine_builds_no_repeat_table() {
        if SiteRepeats::env_override().is_some() {
            return; // the override replaces the default this test pins
        }
        let (tree, aln) = repeat_heavy();
        for kernel in [KernelKind::Scalar, KernelKind::Simd] {
            let mk = |site_repeats| {
                LikelihoodEngine::new(
                    &tree,
                    &aln,
                    EngineConfig {
                        kernel,
                        site_repeats,
                        ..EngineConfig::default()
                    },
                )
            };
            let mut auto = mk(EngineConfig::default().site_repeats);
            assert_eq!(auto.site_repeats(), SiteRepeats::Auto);
            let (mut on, mut off) = (mk(SiteRepeats::On), mk(SiteRepeats::Off));
            for e in tree.edge_ids() {
                let ll = auto.log_likelihood(&tree, e);
                assert_eq!(
                    ll.to_bits(),
                    on.log_likelihood(&tree, e).to_bits(),
                    "edge {e}"
                );
                assert_eq!(
                    ll.to_bits(),
                    off.log_likelihood(&tree, e).to_bits(),
                    "edge {e}"
                );
                for engine in [&mut auto, &mut on, &mut off] {
                    engine.prepare_branch(&tree, e);
                }
                let d = auto.branch_derivatives(0.2);
                assert_eq!(d, on.branch_derivatives(0.2), "edge {e}");
                assert_eq!(d, off.branch_derivatives(0.2), "edge {e}");
            }
            assert!(on.repeat_table_bytes() > 0 && on.repeat_build_stats().builds > 0);
            assert!(on.repeat_scratch.is_some() && on.root_fold.is_some());
            for engine in [&auto, &off] {
                assert_eq!(engine.repeat_table_bytes(), 0, "{kernel:?}");
                assert_eq!(engine.repeat_build_stats(), RepeatBuildStats::default());
                assert!(engine.repeat_scratch.is_none() && engine.root_fold.is_none());
                assert!(engine.repeat_tables.iter().all(Option::is_none));
                assert_eq!(engine.repeat_stats().compressed_calls, 0);
                assert_eq!(
                    engine.repeat_stats().newview_calls,
                    on.repeat_stats().newview_calls
                );
            }
        }
    }

    /// The cost an engine does not pay where its limit declines every
    /// node: 15 sites whose rows are each a permutation of the 15
    /// non-gap codes, so already a cherry has 15 classes — one over
    /// `On`'s limit of 14.
    #[test]
    fn repeat_free_alignment_indexes_only_the_cherries() {
        if SiteRepeats::env_override().is_some() {
            return; // both engines would run the override's mode
        }
        let names = phylo_tree::build::default_names(9);
        let tree = phylo_tree::build::balanced(&names, 0.1).unwrap();
        let n = 15usize;
        let rows: Vec<Vec<phylo_bio::DnaCode>> = [1, 2, 4, 7, 8, 11, 13, 14, 1]
            .iter()
            .enumerate()
            .map(|(taxon, step)| {
                (0..n)
                    .map(|i| phylo_bio::DnaCode::from_bits(((i * step + taxon) % n + 1) as u8))
                    .collect::<Result<_, _>>()
                    .unwrap()
            })
            .collect();
        let aln = CompressedAlignment::from_parts(names, rows, vec![1; n]).unwrap();
        let mk = |site_repeats| {
            LikelihoodEngine::new(
                &tree,
                &aln,
                EngineConfig {
                    site_repeats,
                    ..EngineConfig::default()
                },
            )
        };
        let (mut off, mut auto) = (mk(SiteRepeats::Off), mk(SiteRepeats::On));
        let limit = auto.class_limit.unwrap();
        assert_eq!(limit, 14);
        for e in tree.edge_ids() {
            // Node kinds under this orientation, from the schedule the
            // engine walks.
            let (mut cherries, mut tip_inner) = (0u64, 0u64);
            for d in full_schedule(&tree, e) {
                let tips = children(&tree, d.node, d.toward_edge)
                    .iter()
                    .filter(|(_, c)| tree.is_tip(*c))
                    .count();
                cherries += u64::from(tips == 2);
                tip_inner += u64::from(tips == 1);
            }
            let before = auto.repeat_build_stats();
            assert_eq!(
                off.log_likelihood(&tree, e).to_bits(),
                auto.log_likelihood(&tree, e).to_bits()
            );
            let after = auto.repeat_build_stats();
            let built = after.builds - before.builds;
            let by_limit = after.bounded_by_limit - before.bounded_by_limit;
            let by_child = after.bounded_by_child - before.bounded_by_child;
            let indexed = after.sites_indexed - before.sites_indexed;
            // Only cherries are ever passed over, each cut at class
            // 15; every other node, and the root fold, is bounded by
            // its child without looking at a site.
            assert!(by_limit <= cherries, "edge {e}");
            assert_eq!(
                built,
                by_limit + by_child,
                "edge {e}: a table was built in full"
            );
            assert_eq!(indexed, by_limit * (limit as u64 + 1), "edge {e}");
            assert!(indexed <= (cherries + tip_inner) * n as u64, "edge {e}");
            if before.builds == 0 {
                // The first traversal builds every node's table and
                // the root fold's.
                assert_eq!(built, tree.num_inner() as u64 + 1);
                assert_eq!(by_limit, cherries);
            }
        }
        assert_eq!(auto.repeat_stats().compressed_calls, 0);
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

    // ---- The bounded CLA pool (`with_pool`) ----

    use phylo_tree::build::{balanced, caterpillar, default_names, random_tree};
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

    fn pool_dataset(taxa: usize, seed: u64) -> (Tree, CompressedAlignment) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tree = random_tree(&default_names(taxa), 0.15, &mut rng).unwrap();
        let aln = random_columns(&tree, 120, &mut rng);
        (tree, aln)
    }

    #[test]
    fn pool_matches_all_resident_at_every_viable_size() {
        let (tree, aln) = pool_dataset(12, 5);
        let cfg = EngineConfig::default();
        let mut full = LikelihoodEngine::new(&tree, &aln, cfg);
        assert_eq!(full.pool_slots(), tree.num_inner());
        for root in [0usize, 5, 11] {
            let expect = full.log_likelihood(&tree, root);
            let min = min_pool_slots(&tree, root);
            assert!(min < tree.num_inner(), "memory saving must be possible");
            for pool in min..=tree.num_inner() {
                let mut capped = LikelihoodEngine::with_pool(&tree, &aln, cfg, pool);
                let got = capped.log_likelihood(&tree, root);
                assert_eq!(
                    got.to_bits(),
                    expect.to_bits(),
                    "pool {pool} root {root}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn pool_bounds_cla_memory() {
        let (tree, aln) = pool_dataset(20, 6);
        let cfg = EngineConfig::default();
        let full = LikelihoodEngine::new(&tree, &aln, cfg);
        assert_eq!(
            full.cla_bytes(),
            tree.num_inner() * aln.num_patterns() * SITE_STRIDE * 8
        );
        let capped = LikelihoodEngine::with_pool(&tree, &aln, cfg, 4);
        assert_eq!(capped.pool_slots(), 4);
        assert!(capped.cla_bytes() < full.cla_bytes() / 4);
        // A pool larger than the tree is clamped to all-resident.
        let wide = LikelihoodEngine::with_pool(&tree, &aln, cfg, 1000);
        assert_eq!(wide.pool_slots(), tree.num_inner());
    }

    #[test]
    fn bounded_nodes_hold_no_table_memory() {
        // 120 random columns: a large enough subtree has no repeated
        // site left, so some of a 20-taxon tree's nodes keep only the
        // bounded marker even under `On`.
        let (tree, aln) = pool_dataset(20, 6);
        let cfg_of = |site_repeats| EngineConfig {
            site_repeats,
            ..EngineConfig::default()
        };
        let pool = min_pool_slots(&tree, 0);
        let mut on = LikelihoodEngine::with_pool(&tree, &aln, cfg_of(SiteRepeats::On), pool);
        let mut auto = LikelihoodEngine::with_pool(&tree, &aln, cfg_of(SiteRepeats::Auto), pool);
        assert_eq!(
            on.log_likelihood(&tree, 0).to_bits(),
            auto.log_likelihood(&tree, 0).to_bits()
        );
        if SiteRepeats::env_override().is_some() {
            return; // both engines run the same mode
        }
        // Under `On` only a node with no repeat at all is bounded;
        // every other one holds at least its site→class map.
        let site_map = 4 * aln.num_patterns();
        let tables: Vec<&RepeatTable> = on.repeat_tables.iter().flatten().collect();
        assert_eq!(tables.len(), tree.num_inner());
        let bounded = tables.iter().filter(|t| t.is_bounded()).count();
        assert!(
            bounded > 0 && bounded < tree.num_inner(),
            "{bounded} bounded"
        );
        assert!(tables
            .iter()
            .all(|t| !t.is_bounded() || t.heap_bytes() == 0));
        let held = on.repeat_table_bytes();
        assert!(held >= (tree.num_inner() - bounded) * site_map);
        assert!(held < (tree.num_inner() - bounded) * 3 * site_map + 1);
        assert!(on.repeat_stats().compressed_calls > 0);
        // `Auto` declines the tables altogether.
        assert_eq!(auto.repeat_table_bytes(), 0);
    }

    #[test]
    fn small_pool_costs_more_newview_calls() {
        let (tree, aln) = pool_dataset(14, 7);
        let cfg = EngineConfig::default();
        // All-resident: repeated evaluation at alternating roots only
        // re-orients the path between them.
        let mut big = LikelihoodEngine::new(&tree, &aln, cfg);
        let mut small =
            LikelihoodEngine::with_pool(&tree, &aln, cfg, min_pool_slots_any_root(&tree));
        for _ in 0..4 {
            for root in [0usize, 10] {
                assert_eq!(
                    big.log_likelihood(&tree, root).to_bits(),
                    small.log_likelihood(&tree, root).to_bits()
                );
            }
        }
        let big_calls = big.stats().get(KernelId::Newview).calls;
        let small_calls = small.stats().get(KernelId::Newview).calls;
        assert!(
            small_calls > big_calls,
            "expected recomputation overhead: {small_calls} vs {big_calls}"
        );
    }

    #[test]
    fn evicted_node_keeps_its_stamp_so_resident_ancestors_stay_valid() {
        let (tree, aln) = pool_dataset(14, 7);
        let cfg = EngineConfig::default();
        // One slot short: the first traversal's last node evicts
        // another, which the second traversal (same root, nothing
        // changed) must recompute. Were that node given a fresh stamp,
        // its ancestors up to the root would go stale with it.
        let mut capped = LikelihoodEngine::with_pool(&tree, &aln, cfg, tree.num_inner() - 1);
        let first = capped.log_likelihood(&tree, 0);
        let cold = capped.stats().get(KernelId::Newview).calls;
        assert_eq!(cold as usize, tree.num_inner());
        let stamps = capped.stamps.clone();
        let again = capped.log_likelihood(&tree, 0);
        let warm = capped.stats().get(KernelId::Newview).calls - cold;
        assert_eq!(first.to_bits(), again.to_bits());
        assert!(warm > 0, "nothing was evicted");
        assert_eq!(capped.stamps, stamps, "equal keys must reuse their stamps");
        assert!(warm < cold / 2, "resident ancestors went stale: {warm}");
    }

    #[test]
    fn caterpillar_needs_only_constant_pool() {
        // A pectinate tree is the deep-traversal worst case for naive
        // strategies, but post-order pinning keeps the live set tiny.
        let tree = caterpillar(&default_names(24), 0.1).unwrap();
        let aln = random_columns(&tree, 60, &mut SmallRng::seed_from_u64(9));
        let cfg = EngineConfig::default();
        let expect = LikelihoodEngine::new(&tree, &aln, cfg).log_likelihood(&tree, 0);
        let min = min_pool_slots(&tree, 0);
        assert!(min <= 5, "caterpillar live set stays small, got {min}");
        let got = LikelihoodEngine::with_pool(&tree, &aln, cfg, min).log_likelihood(&tree, 0);
        assert_eq!(got.to_bits(), expect.to_bits(), "{got} vs {expect}");
    }

    #[test]
    fn balanced_tree_with_minimal_pool() {
        let tree = balanced(&default_names(16), 0.1).unwrap();
        let aln = random_columns(&tree, 40, &mut SmallRng::seed_from_u64(10));
        let cfg = EngineConfig::default();
        let expect = LikelihoodEngine::new(&tree, &aln, cfg).log_likelihood(&tree, 0);
        // Balanced 16-taxon tree: live set grows with depth (~log n).
        let min = min_pool_slots(&tree, 0);
        assert!(min <= 8, "balanced live set is logarithmic, got {min}");
        let got = LikelihoodEngine::with_pool(&tree, &aln, cfg, min).log_likelihood(&tree, 0);
        assert_eq!(got.to_bits(), expect.to_bits(), "{got} vs {expect}");
    }

    #[test]
    #[should_panic(expected = "at least 3 slots")]
    fn tiny_pool_rejected() {
        let (tree, aln) = pool_dataset(8, 11);
        LikelihoodEngine::with_pool(&tree, &aln, EngineConfig::default(), 2);
    }

    #[test]
    #[should_panic(expected = "too small for this traversal")]
    fn pool_below_the_live_set_panics_instead_of_corrupting() {
        let tree = balanced(&default_names(16), 0.1).unwrap();
        let aln = random_columns(&tree, 8, &mut SmallRng::seed_from_u64(3));
        let min = min_pool_slots(&tree, 0);
        assert!(min > 3);
        LikelihoodEngine::with_pool(&tree, &aln, EngineConfig::default(), min - 1)
            .log_likelihood(&tree, 0);
    }

    #[test]
    fn site_repeats_bit_identical_under_memory_cap() {
        // Repeat-heavy alignment: 12 prototype columns cycled across 96
        // patterns, so every inner node sees heavy class collapse.
        let mut rng = SmallRng::seed_from_u64(21);
        let tree = random_tree(&default_names(10), 0.12, &mut rng).unwrap();
        let protos: Vec<Vec<usize>> = (0..12)
            .map(|_| (0..10).map(|_| rng.random_range(0..4usize)).collect())
            .collect();
        let rows: Vec<Vec<phylo_bio::DnaCode>> = (0..10)
            .map(|taxon| {
                (0..96)
                    .map(|p| phylo_bio::DnaCode::from_state(protos[p % 12][taxon]))
                    .collect()
            })
            .collect();
        let aln =
            CompressedAlignment::from_parts(tree.tip_names().to_vec(), rows, vec![1; 96]).unwrap();
        let cfg_of = |site_repeats| EngineConfig {
            site_repeats,
            ..EngineConfig::default()
        };
        let pool = min_pool_slots_any_root(&tree);
        for root in [0usize, 4, 9] {
            let mut off = LikelihoodEngine::with_pool(&tree, &aln, cfg_of(SiteRepeats::Off), pool);
            let mut on = LikelihoodEngine::with_pool(&tree, &aln, cfg_of(SiteRepeats::On), pool);
            let a = off.log_likelihood(&tree, root);
            let b = on.log_likelihood(&tree, root);
            assert_eq!(a.to_bits(), b.to_bits(), "root {root}: {a} vs {b}");
            // (An env override forces both engines into one mode.)
            assert!(
                SiteRepeats::env_override().is_some() || on.repeat_stats().compressed_calls > 0,
                "compression engaged nothing at root {root}"
            );
        }
    }

    #[test]
    fn blocked_traversal_is_bit_identical_under_memory_cap() {
        // A minimal pool forces the queue to run whenever acquiring a
        // slot would evict — the interaction this test pins.
        let mut rng = SmallRng::seed_from_u64(17);
        let tree = random_tree(&default_names(12), 0.12, &mut rng).unwrap();
        let sites = (crate::blocking::block_sites() + 40).min(4096);
        let aln = random_columns(&tree, sites, &mut rng);
        let cfg_of = |blocking| EngineConfig {
            blocking,
            ..EngineConfig::default()
        };
        let pool = min_pool_slots_any_root(&tree);
        let mut off = LikelihoodEngine::with_pool(&tree, &aln, cfg_of(Blocking::Off), pool);
        let mut on = LikelihoodEngine::with_pool(&tree, &aln, cfg_of(Blocking::On), pool);
        // The second and third roots evict CLAs the first left behind.
        for root in [0usize, 7, 0] {
            let a = off.log_likelihood(&tree, root);
            let b = on.log_likelihood(&tree, root);
            assert_eq!(a.to_bits(), b.to_bits(), "root {root}: {a} vs {b}");
            assert_eq!(
                off.stats().get(KernelId::Newview).calls,
                on.stats().get(KernelId::Newview).calls,
                "root {root}: blocking changed the newview call count"
            );
        }
    }

    #[test]
    fn repeat_tables_survive_invalidate_all() {
        let (tree, aln) = pool_dataset(10, 13);
        let cfg = EngineConfig {
            site_repeats: SiteRepeats::On,
            ..EngineConfig::default()
        };
        let mut capped =
            LikelihoodEngine::with_pool(&tree, &aln, cfg, min_pool_slots_any_root(&tree));
        capped.log_likelihood(&tree, 0);
        let stamp_before = capped.next_repeat_stamp;
        // Branch-length-style invalidation recomputes CLAs but must
        // reuse the class tables (they only depend on tip patterns and
        // topology).
        capped.invalidate_all();
        capped.log_likelihood(&tree, 0);
        assert_eq!(
            capped.next_repeat_stamp, stamp_before,
            "tables were rebuilt"
        );
    }

    #[test]
    fn branch_derivatives_under_minimal_pool_match_all_resident() {
        let (tree, aln) = pool_dataset(12, 19);
        let cfg = EngineConfig::default();
        let mut full = LikelihoodEngine::new(&tree, &aln, cfg);
        let mut capped =
            LikelihoodEngine::with_pool(&tree, &aln, cfg, min_pool_slots_any_root(&tree));
        for edge in tree.edge_ids() {
            full.prepare_branch(&tree, edge);
            capped.prepare_branch(&tree, edge);
            for t in [tree.length(edge), 0.5 * tree.length(edge) + 0.01] {
                let (d1f, d2f) = full.branch_derivatives(t);
                let (d1c, d2c) = capped.branch_derivatives(t);
                assert_eq!(d1f.to_bits(), d1c.to_bits(), "edge {edge} t={t}: d1");
                assert_eq!(d2f.to_bits(), d2c.to_bits(), "edge {edge} t={t}: d2");
            }
        }
    }

    #[test]
    fn branch_change_needs_no_invalidate_all_under_minimal_pool() {
        // Validity is the cache key, pooled or not: a changed length
        // (and a changed model) is seen without any explicit call.
        let (mut tree, aln) = pool_dataset(12, 23);
        let cfg = EngineConfig::default();
        let mut capped =
            LikelihoodEngine::with_pool(&tree, &aln, cfg, min_pool_slots_any_root(&tree));
        let before = capped.log_likelihood(&tree, 3);
        tree.set_length(8, 0.9).unwrap();
        capped.set_alpha(0.4);
        let mut fresh = LikelihoodEngine::new(&tree, &aln, cfg);
        fresh.set_alpha(0.4);
        for root in [3usize, 0, 14] {
            let got = capped.log_likelihood(&tree, root);
            let expect = fresh.log_likelihood(&tree, root);
            assert_eq!(got.to_bits(), expect.to_bits(), "root {root}");
            assert!((got - before).abs() > 1e-6, "the change must move logL");
        }
    }
}
