//! Memory-saving likelihood evaluation by CLA recomputation.
//!
//! §V-A lists "advanced memory saving techniques, which rely on CLA
//! recomputations [Izquierdo-Carrasco et al. 2012]" as unsupported in
//! the paper's MIC port — relevant because the Phi's 8 GB is the
//! binding constraint at 4000K sites (§VI-B2). This module implements
//! the technique: instead of one conditional likelihood array per
//! inner node, a fixed pool of `K < n_inner` slots is maintained and
//! evicted CLAs are recomputed on demand, trading running time for
//! memory.
//!
//! During the post-order traversal a child CLA is pinned only until
//! its parent has consumed it; slots whose nodes are no longer needed
//! in the current traversal are reusable. The minimum viable pool size
//! is the maximum number of simultaneously-live CLAs, which is bounded
//! by the tree height (≈ log₂ n for balanced trees, the paper's 15-taxon
//! trees need 4).

use crate::blocking::BlockJob;
use crate::cla::Cla;
use crate::engine::EngineConfig;
use crate::instrument::{KernelId, KernelStats};
use crate::kernels::Kernels;
use crate::layout::{FusedPmat, Lut16x16};
use crate::repeats::{
    ClassSource, RepeatIndex, RepeatKey, RepeatScratch, RepeatStats, RepeatTable, SiteRepeats,
};
use crate::SITE_STRIDE;
use phylo_bio::CompressedAlignment;
use phylo_models::{DiscreteGamma, Eigensystem, Gtr, GtrParams, ProbMatrix};
use phylo_tree::traverse::{children, full_schedule};
use phylo_tree::{EdgeId, NodeId, Tree};

/// The smallest CLA pool that can evaluate `tree` at `root_edge`:
/// the maximum number of simultaneously pinned CLAs in the post-order
/// traversal (computed-but-unconsumed nodes plus the two root-adjacent
/// ones). Bounded by the tree height plus a constant.
pub fn min_pool_slots(tree: &Tree, root_edge: EdgeId) -> usize {
    let (ra, rb) = tree.endpoints(root_edge);
    let num_taxa = tree.num_taxa();
    let mut pinned = vec![false; tree.num_inner()];
    let mut live = 0usize;
    let mut peak = 0usize;
    for d in full_schedule(tree, root_edge) {
        let idx = d.node - num_taxa;
        if !pinned[idx] {
            pinned[idx] = true;
            live += 1;
            peak = peak.max(live);
        }
        for (_, c) in children(tree, d.node, d.toward_edge) {
            if !tree.is_tip(c) && c != ra && c != rb {
                let cidx = c - num_taxa;
                if pinned[cidx] {
                    pinned[cidx] = false;
                    live -= 1;
                }
            }
        }
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

/// A likelihood engine with a bounded CLA pool.
pub struct RecomputingEngine {
    kernel: &'static dyn Kernels,
    eigen: Eigensystem,
    gamma: DiscreteGamma,
    pi_w: [f64; SITE_STRIDE],
    tip_pi: Lut16x16,
    tips: Vec<Vec<u8>>,
    weights: Vec<u32>,
    num_patterns: usize,
    num_taxa: usize,
    /// The bounded slot pool.
    slots: Vec<Cla>,
    /// Which inner node currently occupies each slot (`usize::MAX` =
    /// free).
    slot_owner: Vec<NodeId>,
    /// Inner-node → slot index (`usize::MAX` = evicted).
    resident: Vec<usize>,
    /// The directed orientation each resident CLA was computed for.
    orientation: Vec<(EdgeId, u64)>,
    /// Version bump for orientations (topology/branch changes are not
    /// tracked here — every `log_likelihood` call recomputes stale
    /// entries; callers invalidate explicitly on mutation).
    version: u64,
    stats: KernelStats,
    /// Site-repeat compression mode (resolved at construction).
    repeats_mode: SiteRepeats,
    repeat_index: RepeatIndex,
    /// Per-inner-node repeat tables. Unlike CLAs these are *not*
    /// pooled: a table costs at most ~12 bytes/site versus a CLA's 128
    /// (nothing for a node with too many classes to compress), and
    /// keeping them resident is what lets evicted CLAs be recomputed
    /// over classes instead of sites.
    repeat_tables: Vec<Option<RepeatTable>>,
    repeat_valid: Vec<Option<RepeatKey>>,
    repeat_stamps: Vec<u64>,
    next_repeat_stamp: u64,
    repeat_scratch: Option<Box<RepeatScratch>>,
    repeat_stats: RepeatStats,
    /// `Some(sites_per_block)` when blocked traversal engages (see
    /// [`crate::blocking`]); resolved once at construction.
    block_sites: Option<usize>,
}

const FREE: usize = usize::MAX;

/// A deferred `newview` of a blocked batch, addressed by pool slot.
/// Child slots are resolved at plan time; they cannot be reassigned
/// before the flush because batching only ever takes FREE slots
/// (`update_partials` flushes before any eviction).
struct RecPlanned {
    slot: usize,
    job: BlockJob,
}

impl RecomputingEngine {
    /// Builds an engine whose CLA memory is capped at `pool_slots`
    /// arrays (the full engine uses `tree.num_inner()`).
    ///
    /// # Panics
    /// Panics when `pool_slots < 3` — a post-order step needs two
    /// resident children plus the node being computed.
    pub fn new(
        tree: &Tree,
        aln: &CompressedAlignment,
        config: EngineConfig,
        pool_slots: usize,
    ) -> Self {
        assert!(pool_slots >= 3, "pool needs at least 3 slots");
        let num_taxa = tree.num_taxa();
        let mut tips = Vec::with_capacity(num_taxa);
        for tip_id in 0..num_taxa {
            let name = tree.tip_name(tip_id);
            let row = aln
                .taxon_index(name)
                .unwrap_or_else(|| panic!("taxon {name:?} missing from alignment"));
            tips.push(aln.row(row).iter().map(|c| c.bits()).collect());
        }
        let weights: Vec<u32> = aln.weights().to_vec();
        let num_patterns = weights.len();
        let params = GtrParams {
            rates: [1.0; 6],
            freqs: aln.empirical_frequencies(),
        };
        let gtr = Gtr::new(params);
        let gamma = DiscreteGamma::new(config.alpha);
        let mut pi_w = [0.0; SITE_STRIDE];
        for k in 0..crate::NUM_RATES {
            for a in 0..crate::NUM_STATES {
                pi_w[4 * k + a] = 0.25 * params.freqs[a];
            }
        }
        let pool = pool_slots.min(tree.num_inner());
        RecomputingEngine {
            kernel: config.kernel.kernels(),
            eigen: gtr.eigen().clone(),
            gamma,
            pi_w,
            tip_pi: Lut16x16::tip_pi(&params.freqs),
            tips,
            weights,
            num_patterns,
            num_taxa,
            slots: (0..pool).map(|_| Cla::new(num_patterns)).collect(),
            slot_owner: vec![FREE; pool],
            resident: vec![FREE; tree.num_inner()],
            orientation: vec![(usize::MAX, 0); tree.num_inner()],
            version: 1,
            stats: KernelStats::new(),
            repeats_mode: config.site_repeats.effective(),
            repeat_index: RepeatIndex::default(),
            repeat_tables: vec![None; tree.num_inner()],
            repeat_valid: vec![None; tree.num_inner()],
            repeat_stamps: vec![0; tree.num_inner()],
            next_repeat_stamp: 1,
            repeat_scratch: None,
            repeat_stats: RepeatStats::default(),
            block_sites: config.blocking.resolve(num_patterns),
        }
    }

    /// Number of CLA slots (the memory bound).
    pub fn pool_slots(&self) -> usize {
        self.slots.len()
    }

    /// Approximate CLA memory in bytes (the quantity the pool caps).
    pub fn cla_bytes(&self) -> usize {
        self.slots.len() * self.num_patterns * SITE_STRIDE * 8
    }

    /// Kernel counters (recomputation overhead shows up as extra
    /// `newview` calls).
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Clears counters.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Invalidates every cached CLA (call after mutating the tree).
    /// Repeat tables are *not* cleared: their validity is tracked
    /// separately against child identity and table stamps, so
    /// branch-length-only changes reuse them.
    pub fn invalidate_all(&mut self) {
        self.version += 1;
    }

    /// The resolved site-repeat compression mode.
    pub fn site_repeats(&self) -> SiteRepeats {
        self.repeats_mode
    }

    /// Cumulative repeat-compression counters.
    pub fn repeat_stats(&self) -> &RepeatStats {
        &self.repeat_stats
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

    fn inner_idx(&self, node: NodeId) -> usize {
        node - self.num_taxa
    }

    fn fused_pmat(&self, t: f64) -> FusedPmat {
        FusedPmat::from_prob(&ProbMatrix::new(&self.eigen, self.gamma.rates(), t))
    }

    /// Finds a slot for `node`, evicting an unpinned resident if
    /// necessary.
    fn acquire_slot(&mut self, node: NodeId, pinned: &[bool]) -> usize {
        let node_idx = self.inner_idx(node);
        if let Some(s) = self.slot_owner.iter().position(|&o| o == FREE) {
            self.slot_owner[s] = node;
            self.resident[node_idx] = s;
            return s;
        }
        let victim_slot = self
            .slot_owner
            .iter()
            .position(|&o| o != FREE && !pinned[self.inner_idx(o)])
            .unwrap_or_else(|| {
                panic!(
                    "CLA pool of {} slots too small for this traversal",
                    self.slots.len()
                )
            });
        let victim = self.slot_owner[victim_slot];
        let victim_idx = self.inner_idx(victim);
        self.resident[victim_idx] = FREE;
        self.slot_owner[victim_slot] = node;
        self.resident[node_idx] = victim_slot;
        victim_slot
    }

    /// Ensures all CLAs needed at `root_edge` are resident and valid,
    /// recomputing evicted or stale ones. Returns with both
    /// root-adjacent inner CLAs resident.
    pub fn update_partials(&mut self, tree: &Tree, root_edge: EdgeId) {
        debug_assert_eq!(tree.num_inner(), self.resident.len(), "tree shape changed");
        let schedule = full_schedule(tree, root_edge);
        // Pin state: a node is pinned from the moment it is computed
        // until its parent consumes it; root-adjacent nodes stay
        // pinned to the end.
        let mut pinned = vec![false; tree.num_inner()];
        let (ra, rb) = tree.endpoints(root_edge);
        let block = self.block_sites;
        let limit = self.repeats_mode.class_limit(self.num_patterns);
        let mut batch: Vec<RecPlanned> = Vec::new();

        for d in &schedule {
            let idx = self.inner_idx(d.node);
            // Canonical child order: tip first, then by node id. Hoisted
            // out of `run_newview` so the repeat table and the kernel
            // dispatch agree on which child is "left".
            let mut ch = children(tree, d.node, d.toward_edge);
            let tipness = |n: NodeId| usize::from(!tree.is_tip(n));
            if (tipness(ch[0].1), ch[0].1) > (tipness(ch[1].1), ch[1].1) {
                ch.swap(0, 1);
            }
            // Tables are ensured even for resident-and-valid nodes:
            // parents build their classes from the children's tables.
            if let Some(limit) = limit {
                self.ensure_repeat_table(tree, d.node, d.toward_edge, ch, limit);
            }
            let valid = self.resident[idx] != FREE
                && self.orientation[idx] == (d.toward_edge, self.version);
            if !valid {
                let compress = limit.is_some()
                    && self.repeat_tables[idx]
                        .as_ref()
                        .is_some_and(|t| t.compresses_counted(self.repeats_mode));
                match block {
                    None => self.run_newview(tree, d.node, ch, d.toward_edge, &pinned, compress),
                    Some(bs) => {
                        if compress {
                            // Compressed newviews gather/scatter over
                            // classes, not site ranges: flush the batch
                            // (the children must be complete) and run
                            // whole-range.
                            self.flush_batch(&mut batch, bs);
                            self.run_newview(tree, d.node, ch, d.toward_edge, &pinned, compress);
                        } else {
                            // Batched jobs address children by slot, so
                            // no slot may be reassigned while a batch is
                            // pending: if acquiring would evict, flush
                            // first — pin state then matches the
                            // sequential path exactly.
                            if self.resident[idx] == FREE && !self.slot_owner.contains(&FREE) {
                                self.flush_batch(&mut batch, bs);
                            }
                            let planned =
                                self.plan_newview(tree, d.node, ch, d.toward_edge, &pinned);
                            batch.push(planned);
                        }
                    }
                }
            }
            pinned[idx] = true;
            // Children are consumed now. (Unpinning mid-batch is safe:
            // batching only ever takes FREE slots, so an unpinned
            // resident cannot be evicted before the flush.)
            for &(_, c) in &ch {
                if !tree.is_tip(c) && c != ra && c != rb {
                    pinned[self.inner_idx(c)] = false;
                }
            }
        }
        if let Some(bs) = block {
            self.flush_batch(&mut batch, bs);
        }
        // Keep the root-adjacent CLAs pinned for evaluate/derivatives.
        let _ = (ra, rb);
    }

    /// Plan-time half of a batched `newview`: slot acquisition and all
    /// bookkeeping happen here, in schedule order, exactly as the
    /// sequential path would — only the kernel math is deferred.
    fn plan_newview(
        &mut self,
        tree: &Tree,
        node: NodeId,
        ch: [(EdgeId, NodeId); 2],
        toward: EdgeId,
        pinned: &[bool],
    ) -> RecPlanned {
        let [(e_l, n_l), (e_r, n_r)] = ch;
        let idx = self.inner_idx(node);
        let slot = if self.resident[idx] != FREE {
            self.resident[idx]
        } else {
            self.acquire_slot(node, pinned)
        };
        self.repeat_stats.newview_calls += 1;
        self.orientation[idx] = (toward, self.version);
        let job = match (tree.is_tip(n_l), tree.is_tip(n_r)) {
            (true, true) => BlockJob::Tt {
                lut_l: Lut16x16::tip_prob(&self.fused_pmat(tree.length(e_l))),
                lut_r: Lut16x16::tip_prob(&self.fused_pmat(tree.length(e_r))),
                tip_l: n_l,
                tip_r: n_r,
            },
            (true, false) => BlockJob::Ti {
                lut_l: Lut16x16::tip_prob(&self.fused_pmat(tree.length(e_l))),
                tip_l: n_l,
                p_r: self.fused_pmat(tree.length(e_r)),
                child_r: self.slot_of(n_r),
            },
            (false, false) => BlockJob::Ii {
                p_l: self.fused_pmat(tree.length(e_l)),
                child_l: self.slot_of(n_l),
                p_r: self.fused_pmat(tree.length(e_r)),
                child_r: self.slot_of(n_r),
            },
            (false, true) => unreachable!("children canonicalized tip-first"),
        };
        RecPlanned { slot, job }
    }

    /// Runs a pending batch block-by-block: every job of the batch is
    /// evaluated on one site block before advancing, so a child's
    /// freshly written block is still cache-resident when its parent
    /// (later in the same batch) reads it.
    fn flush_batch(&mut self, batch: &mut Vec<RecPlanned>, block_sites: usize) {
        if batch.is_empty() {
            return;
        }
        let n = self.num_patterns;
        let mut b0 = 0;
        while b0 < n {
            let b1 = (b0 + block_sites).min(n);
            for planned in batch.iter() {
                self.run_block_job(planned.slot, &planned.job, b0, b1);
            }
            b0 = b1;
        }
        for _ in batch.iter() {
            self.stats.record(KernelId::Newview, n);
        }
        batch.clear();
    }

    /// One site block `[b0, b1)` of one planned `newview`. Kernels are
    /// per-site functions, and the 128-byte site stride keeps any block
    /// base 64-byte aligned, so the sliced call writes exactly the
    /// bytes the full-range call would.
    fn run_block_job(&mut self, slot: usize, job: &BlockJob, b0: usize, b1: usize) {
        let mut out = std::mem::replace(&mut self.slots[slot], Cla::new(0));
        let (ov_full, os_full) = out.buffers_mut();
        let ov = &mut ov_full[b0 * SITE_STRIDE..b1 * SITE_STRIDE];
        let os = &mut os_full[b0..b1];
        match job {
            BlockJob::Tt {
                lut_l,
                lut_r,
                tip_l,
                tip_r,
            } => {
                self.kernel.newview_tt(
                    lut_l,
                    lut_r,
                    &self.tips[*tip_l][b0..b1],
                    &self.tips[*tip_r][b0..b1],
                    ov,
                    os,
                );
            }
            BlockJob::Ti {
                lut_l,
                tip_l,
                p_r,
                child_r,
            } => {
                let cr = &self.slots[*child_r];
                self.kernel.newview_ti(
                    lut_l,
                    &self.tips[*tip_l][b0..b1],
                    p_r,
                    &cr.values()[b0 * SITE_STRIDE..b1 * SITE_STRIDE],
                    &cr.scale()[b0..b1],
                    ov,
                    os,
                );
            }
            BlockJob::Ii {
                p_l,
                child_l,
                p_r,
                child_r,
            } => {
                let cl = &self.slots[*child_l];
                let cr = &self.slots[*child_r];
                self.kernel.newview_ii(
                    p_l,
                    &cl.values()[b0 * SITE_STRIDE..b1 * SITE_STRIDE],
                    &cl.scale()[b0..b1],
                    p_r,
                    &cr.values()[b0 * SITE_STRIDE..b1 * SITE_STRIDE],
                    &cr.scale()[b0..b1],
                    ov,
                    os,
                );
            }
        }
        self.slots[slot] = out;
    }

    /// Builds (or revalidates) `node`'s repeat table bottom-up from its
    /// children's class sources (same contract as the full engine's;
    /// tips are fixed at construction here, so the epoch is constant).
    fn ensure_repeat_table(
        &mut self,
        tree: &Tree,
        node: NodeId,
        toward_edge: EdgeId,
        ch: [(EdgeId, NodeId); 2],
        limit: usize,
    ) {
        let idx = self.inner_idx(node);
        let key = RepeatKey {
            toward_edge,
            child_nodes: [ch[0].1, ch[1].1],
            child_table_stamps: [
                self.repeat_stamp_of(tree, ch[0].1),
                self.repeat_stamp_of(tree, ch[1].1),
            ],
            tip_epoch: 0,
            limit,
        };
        if self.repeat_valid[idx].as_ref() == Some(&key) {
            return;
        }
        let mut index = std::mem::take(&mut self.repeat_index);
        let source = |n: NodeId| -> ClassSource<'_> {
            if tree.is_tip(n) {
                ClassSource::Tip(&self.tips[n])
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

    fn repeat_stamp_of(&self, tree: &Tree, node: NodeId) -> u64 {
        if tree.is_tip(node) {
            0
        } else {
            self.repeat_stamps[self.inner_idx(node)]
        }
    }

    fn run_newview(
        &mut self,
        tree: &Tree,
        node: NodeId,
        ch: [(EdgeId, NodeId); 2],
        toward: EdgeId,
        pinned: &[bool],
        compress: bool,
    ) {
        let [(e_l, n_l), (e_r, n_r)] = ch;
        let idx = self.inner_idx(node);
        let slot = if self.resident[idx] != FREE {
            self.resident[idx]
        } else {
            self.acquire_slot(node, pinned)
        };
        let mut out = std::mem::replace(&mut self.slots[slot], Cla::new(0));
        let (ov, os) = out.buffers_mut();
        self.repeat_stats.newview_calls += 1;
        if compress {
            self.run_newview_compressed(tree, ch, idx, ov, os);
            self.slots[slot] = out;
            self.orientation[idx] = (toward, self.version);
            self.stats.record(KernelId::Newview, self.num_patterns);
            return;
        }
        match (tree.is_tip(n_l), tree.is_tip(n_r)) {
            (true, true) => {
                let lut_l = Lut16x16::tip_prob(&self.fused_pmat(tree.length(e_l)));
                let lut_r = Lut16x16::tip_prob(&self.fused_pmat(tree.length(e_r)));
                self.kernel
                    .newview_tt(&lut_l, &lut_r, &self.tips[n_l], &self.tips[n_r], ov, os);
            }
            (true, false) => {
                let lut_l = Lut16x16::tip_prob(&self.fused_pmat(tree.length(e_l)));
                let p_r = self.fused_pmat(tree.length(e_r));
                let cr = &self.slots[self.slot_of(n_r)];
                self.kernel.newview_ti(
                    &lut_l,
                    &self.tips[n_l],
                    &p_r,
                    cr.values(),
                    cr.scale(),
                    ov,
                    os,
                );
            }
            (false, false) => {
                let p_l = self.fused_pmat(tree.length(e_l));
                let p_r = self.fused_pmat(tree.length(e_r));
                let cl = &self.slots[self.slot_of(n_l)];
                let cr = &self.slots[self.slot_of(n_r)];
                self.kernel.newview_ii(
                    &p_l,
                    cl.values(),
                    cl.scale(),
                    &p_r,
                    cr.values(),
                    cr.scale(),
                    ov,
                    os,
                );
            }
            (false, true) => unreachable!("children canonicalized tip-first"),
        }
        self.slots[slot] = out;
        self.orientation[idx] = (toward, self.version);
        self.stats.record(KernelId::Newview, self.num_patterns);
    }

    /// Compressed `newview` over repeat classes (see [`crate::repeats`]
    /// for the bit-identity argument).
    fn run_newview_compressed(
        &mut self,
        tree: &Tree,
        ch: [(EdgeId, NodeId); 2],
        idx: usize,
        out_v: &mut [f64],
        out_s: &mut [u32],
    ) {
        if self.repeat_scratch.is_none() {
            self.repeat_scratch = Some(Box::new(RepeatScratch::new(self.num_patterns)));
        }
        let mut scratch = self.repeat_scratch.take().expect("repeat scratch");
        let (sites, classes) = {
            let table = self.repeat_tables[idx]
                .as_ref()
                .expect("repeat table built");
            let [(e_l, n_l), (e_r, n_r)] = ch;
            match (tree.is_tip(n_l), tree.is_tip(n_r)) {
                (true, true) => {
                    let lut_l = Lut16x16::tip_prob(&self.fused_pmat(tree.length(e_l)));
                    let lut_r = Lut16x16::tip_prob(&self.fused_pmat(tree.length(e_r)));
                    scratch.newview_tt(
                        self.kernel,
                        table,
                        &lut_l,
                        &lut_r,
                        &self.tips[n_l],
                        &self.tips[n_r],
                        out_v,
                        out_s,
                    );
                }
                (true, false) => {
                    let lut_l = Lut16x16::tip_prob(&self.fused_pmat(tree.length(e_l)));
                    let p_r = self.fused_pmat(tree.length(e_r));
                    let cr = &self.slots[self.slot_of(n_r)];
                    scratch.newview_ti(
                        self.kernel,
                        table,
                        &lut_l,
                        &self.tips[n_l],
                        &p_r,
                        cr.values(),
                        cr.scale(),
                        out_v,
                        out_s,
                    );
                }
                (false, false) => {
                    let p_l = self.fused_pmat(tree.length(e_l));
                    let p_r = self.fused_pmat(tree.length(e_r));
                    let cl = &self.slots[self.slot_of(n_l)];
                    let cr = &self.slots[self.slot_of(n_r)];
                    scratch.newview_ii(
                        self.kernel,
                        table,
                        &p_l,
                        cl.values(),
                        cl.scale(),
                        &p_r,
                        cr.values(),
                        cr.scale(),
                        out_v,
                        out_s,
                    );
                }
                (false, true) => unreachable!("children canonicalized tip-first"),
            }
            (table.num_sites() as u64, table.num_classes() as u64)
        };
        self.repeat_scratch = Some(scratch);
        self.repeat_stats.compressed_calls += 1;
        self.repeat_stats.sites += sites;
        self.repeat_stats.classes += classes;
    }

    fn slot_of(&self, node: NodeId) -> usize {
        let s = self.resident[self.inner_idx(node)];
        assert_ne!(s, FREE, "child CLA evicted mid-traversal (pool too small)");
        s
    }

    /// Log-likelihood with the virtual root on `root_edge`, under the
    /// memory cap.
    pub fn log_likelihood(&mut self, tree: &Tree, root_edge: EdgeId) -> f64 {
        self.update_partials(tree, root_edge);
        let (a, b) = tree.endpoints(root_edge);
        let t = tree.length(root_edge);
        let p = self.fused_pmat(t);
        let (q, r) = if tree.is_tip(a) { (a, b) } else { (b, a) };
        let ll = if tree.is_tip(q) {
            let cr = &self.slots[self.slot_of(r)];
            self.kernel.evaluate_ti(
                &self.tip_pi,
                &self.tips[q],
                &p,
                cr.values(),
                cr.scale(),
                &self.weights,
            )
        } else {
            let cq = &self.slots[self.slot_of(q)];
            let cr = &self.slots[self.slot_of(r)];
            self.kernel.evaluate_ii(
                &self.pi_w,
                cq.values(),
                cq.scale(),
                &p,
                cr.values(),
                cr.scale(),
                &self.weights,
            )
        };
        self.stats.record(KernelId::Evaluate, self.num_patterns);
        ll
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LikelihoodEngine;
    use phylo_models::{DiscreteGamma as _DG, Gtr as _G};
    use phylo_tree::build::{balanced, caterpillar, default_names, random_tree};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dataset(taxa: usize, seed: u64) -> (Tree, CompressedAlignment) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let names = default_names(taxa);
        let tree = random_tree(&names, 0.15, &mut rng).unwrap();
        let g = phylo_models::Gtr::new(phylo_models::GtrParams::jc69());
        let gamma = phylo_models::DiscreteGamma::new(0.9);
        let aln = phylo_seqgen_sim(&tree, &g, &gamma, 120, &mut rng);
        (tree, aln)
    }

    // Local tiny simulator shim to avoid a dev-dependency cycle with
    // phylo-seqgen: random unambiguous codes are sufficient here.
    fn phylo_seqgen_sim(
        tree: &Tree,
        _g: &_G,
        _gamma: &_DG,
        patterns: usize,
        rng: &mut SmallRng,
    ) -> CompressedAlignment {
        use rand::Rng;
        let names: Vec<String> = tree.tip_names().to_vec();
        let rows = (0..tree.num_taxa())
            .map(|_| {
                (0..patterns)
                    .map(|_| phylo_bio::DnaCode::from_state(rng.random_range(0..4)))
                    .collect()
            })
            .collect();
        CompressedAlignment::from_parts(names, rows, vec![1; patterns]).unwrap()
    }

    #[test]
    fn matches_full_engine_at_every_viable_pool_size() {
        let (tree, aln) = dataset(12, 5);
        let cfg = EngineConfig::default();
        let mut full = LikelihoodEngine::new(&tree, &aln, cfg);
        for root in [0usize, 5, 11] {
            let expect = full.log_likelihood(&tree, root);
            let min = min_pool_slots(&tree, root);
            assert!(min < tree.num_inner(), "memory saving must be possible");
            for pool in min..=tree.num_inner() {
                let mut rec = RecomputingEngine::new(&tree, &aln, cfg, pool);
                let got = rec.log_likelihood(&tree, root);
                assert!(
                    (got - expect).abs() < 1e-10,
                    "pool {pool} root {root}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn memory_is_actually_bounded() {
        let (tree, aln) = dataset(20, 6);
        let cfg = EngineConfig::default();
        let full_bytes = tree.num_inner() * aln.num_patterns() * SITE_STRIDE * 8;
        let rec = RecomputingEngine::new(&tree, &aln, cfg, 4);
        assert_eq!(rec.pool_slots(), 4);
        assert!(rec.cla_bytes() < full_bytes / 4);
    }

    #[test]
    fn bounded_nodes_hold_no_table_memory() {
        // 120 random columns: a subtree of five or more tips has more
        // classes than `Auto` compresses, so most of a 20-taxon tree's
        // nodes keep only the bounded marker.
        let (tree, aln) = dataset(20, 6);
        let cfg_of = |site_repeats| EngineConfig {
            site_repeats,
            ..EngineConfig::default()
        };
        let pool = min_pool_slots(&tree, 0);
        let mut on = RecomputingEngine::new(&tree, &aln, cfg_of(SiteRepeats::On), pool);
        let mut auto = RecomputingEngine::new(&tree, &aln, cfg_of(SiteRepeats::Auto), pool);
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
        let bounded = |e: &RecomputingEngine| {
            e.repeat_tables
                .iter()
                .flatten()
                .filter(|t| t.is_bounded())
                .count()
        };
        assert!(bounded(&auto) > bounded(&on));
        assert!(on.repeat_table_bytes() >= (tree.num_inner() - bounded(&on)) * site_map);
        assert!(
            auto.repeat_table_bytes() + (bounded(&auto) - bounded(&on)) * site_map
                <= on.repeat_table_bytes()
        );
        assert!(auto.repeat_stats().compressed_calls > 0);
    }

    #[test]
    fn small_pool_costs_more_newview_calls() {
        let (tree, aln) = dataset(14, 7);
        let cfg = EngineConfig::default();
        // Generous pool: repeated evaluation at alternating roots keeps
        // most CLAs resident.
        let mut big = RecomputingEngine::new(&tree, &aln, cfg, tree.num_inner());
        let small_pool = min_pool_slots_any_root(&tree);
        let mut small = RecomputingEngine::new(&tree, &aln, cfg, small_pool);
        for _ in 0..4 {
            for root in [0usize, 10] {
                big.log_likelihood(&tree, root);
                small.log_likelihood(&tree, root);
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
    fn caterpillar_needs_only_constant_pool() {
        // A pectinate tree is the deep-traversal worst case for naive
        // strategies, but post-order pinning keeps the live set tiny.
        let names = default_names(24);
        let tree = caterpillar(&names, 0.1).unwrap();
        let aln = {
            let mut rng = SmallRng::seed_from_u64(9);
            phylo_seqgen_sim(
                &tree,
                &phylo_models::Gtr::new(phylo_models::GtrParams::jc69()),
                &phylo_models::DiscreteGamma::new(1.0),
                60,
                &mut rng,
            )
        };
        let cfg = EngineConfig::default();
        let mut full = LikelihoodEngine::new(&tree, &aln, cfg);
        let expect = full.log_likelihood(&tree, 0);
        let min = min_pool_slots(&tree, 0);
        assert!(min <= 5, "caterpillar live set stays small, got {min}");
        let mut rec = RecomputingEngine::new(&tree, &aln, cfg, min);
        let got = rec.log_likelihood(&tree, 0);
        assert!((got - expect).abs() < 1e-10, "{got} vs {expect}");
    }

    #[test]
    fn balanced_tree_with_minimal_pool() {
        let names = default_names(16);
        let tree = balanced(&names, 0.1).unwrap();
        let aln = {
            let mut rng = SmallRng::seed_from_u64(10);
            phylo_seqgen_sim(
                &tree,
                &phylo_models::Gtr::new(phylo_models::GtrParams::jc69()),
                &phylo_models::DiscreteGamma::new(1.0),
                40,
                &mut rng,
            )
        };
        let cfg = EngineConfig::default();
        let mut full = LikelihoodEngine::new(&tree, &aln, cfg);
        let expect = full.log_likelihood(&tree, 0);
        // Balanced 16-taxon tree: live set grows with depth (~log n).
        let min = min_pool_slots(&tree, 0);
        assert!(min <= 8, "balanced live set is logarithmic, got {min}");
        let mut rec = RecomputingEngine::new(&tree, &aln, cfg, min);
        let got = rec.log_likelihood(&tree, 0);
        assert!((got - expect).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "at least 3 slots")]
    fn tiny_pool_rejected() {
        let (tree, aln) = dataset(8, 11);
        RecomputingEngine::new(&tree, &aln, EngineConfig::default(), 2);
    }

    #[test]
    fn site_repeats_bit_identical_under_memory_cap() {
        // Repeat-heavy alignment: 12 prototype columns cycled across 96
        // patterns, so every inner node sees heavy class collapse.
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(21);
        let names = default_names(10);
        let tree = random_tree(&names, 0.12, &mut rng).unwrap();
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
            let mut off = RecomputingEngine::new(&tree, &aln, cfg_of(SiteRepeats::Off), pool);
            let mut on = RecomputingEngine::new(&tree, &aln, cfg_of(SiteRepeats::On), pool);
            let a = off.log_likelihood(&tree, root);
            let b = on.log_likelihood(&tree, root);
            assert_eq!(a.to_bits(), b.to_bits(), "root {root}: {a} vs {b}");
            assert!(
                on.repeat_stats().compressed_calls > 0,
                "compression engaged nothing at root {root}"
            );
        }
    }

    #[test]
    fn blocked_recompute_is_bit_identical_under_memory_cap() {
        // A minimal pool forces the batch to flush whenever acquiring a
        // slot would evict — the interaction this test pins.
        use crate::blocking::Blocking;
        let mut rng = SmallRng::seed_from_u64(17);
        let names = default_names(12);
        let tree = random_tree(&names, 0.12, &mut rng).unwrap();
        let sites = (crate::blocking::block_sites() + 40).min(4096);
        let aln = phylo_seqgen_sim(
            &tree,
            &phylo_models::Gtr::new(phylo_models::GtrParams::jc69()),
            &phylo_models::DiscreteGamma::new(1.0),
            sites,
            &mut rng,
        );
        let cfg_of = |blocking| EngineConfig {
            blocking,
            ..EngineConfig::default()
        };
        let pool = min_pool_slots_any_root(&tree);
        for root in [0usize, 7] {
            let mut off = RecomputingEngine::new(&tree, &aln, cfg_of(Blocking::Off), pool);
            let mut on = RecomputingEngine::new(&tree, &aln, cfg_of(Blocking::On), pool);
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
        let (tree, aln) = dataset(10, 13);
        let cfg = EngineConfig {
            site_repeats: SiteRepeats::On,
            ..EngineConfig::default()
        };
        let mut rec = RecomputingEngine::new(&tree, &aln, cfg, tree.num_inner());
        rec.log_likelihood(&tree, 0);
        let stamp_before = rec.next_repeat_stamp;
        // Branch-length-style invalidation recomputes CLAs but must
        // reuse the class tables (they only depend on tip patterns and
        // topology).
        rec.invalidate_all();
        rec.log_likelihood(&tree, 0);
        assert_eq!(rec.next_repeat_stamp, stamp_before, "tables were rebuilt");
    }
}
