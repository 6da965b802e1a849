//! Site-repeat compression for the PLF kernels.
//!
//! Distinct alignment *patterns* (global column dedup, done in
//! `phylo-bio`) are not the end of redundancy: below any given inner
//! node, many sites induce the *same* character pattern over just the
//! subtree's tips, so their conditional likelihoods at that node are
//! identical. BEAGLE and libpll exploit this as "site repeats": compute
//! each unique per-node repeat class once in `newview`, then expand the
//! result to all member sites.
//!
//! The classes are built incrementally bottom-up, which is what makes
//! detection cheap: a site's class at a node is determined entirely by
//! the pair of its children's class ids — a tip child contributes its
//! 4-bit character code, an inner child the site's class id in that
//! child's own [`RepeatTable`]. One pass per node over `(left class,
//! right class)` pairs assigns dense ids in first-occurrence order.
//!
//! # Bounded tables
//!
//! An engine only ever asks one question of a table: does it have at
//! most `limit` classes, where `limit` is what its mode implies for `n`
//! sites ([`SiteRepeats::class_limit`]: `On` compresses below `n`
//! classes; `Off` and `Auto` build no table at all). A table with more
//! classes is never compressed, so
//! [`RepeatTable::build`] does not construct it: it returns a *bounded*
//! marker that holds no per-site data, either the moment class
//! `limit + 1` appears in its pass or — in O(1) — when an inner child
//! is itself bounded (a parent's partition refines both children's, so
//! `classes(parent) ≥ classes(child) > limit`). Whenever a table *is*
//! built its contents are exactly what an unbounded pass would produce,
//! so every compress decision is the same as without the bound.
//!
//! The pass runs over a [`RepeatIndex`]: an engine-owned
//! open-addressing table keyed by the packed class pair, allocated on
//! first use and reused by every later build (slots are stamped with a
//! build epoch, so nothing is cleared between builds).
//!
//! # Bit-identity contract
//!
//! Compression must be invisible to every downstream consumer:
//!
//! * **Values**: sites of one class have bit-identical child inputs
//!   (induction over the tree; base case tips), and every kernel is a
//!   deterministic per-site function of its inputs, so computing the
//!   class once and copying the 128-byte site to each member yields the
//!   exact bytes the uncompressed kernel would have produced.
//! * **Per-site scaling counters**: a site's output counter is `(own
//!   rescale bump) + (sum of child counters)`; both are class
//!   functions, so the expanded counter array is bit-identical too.
//! * **The global `core.scaling.events` metric**: the kernel's
//!   [`crate::scaling::scale_site`] fires once per *class*, so the
//!   engine re-weights it by multiplicity — adding `own_bump_c ·
//!   (mult_c − 1)` per class — keeping the process-wide total equal to
//!   the uncompressed run's. See
//!   [`RepeatTable::extra_scaling_events`].
//!
//! Because expansion materializes the full per-site CLA, `evaluate_*`
//! and `derivative_sum_*` run unchanged over identical inputs: the
//! whole likelihood, not just the CLA, is bit-identical with
//! compression on or off.

use crate::kernels::Kernels;
use crate::layout::{site_range, EigenBasis, FusedPmat, Lut16x16};
use crate::{AlignedVec, SITE_STRIDE};
use phylo_tree::NodeId;

/// Whether engines compress repeated sites, gated per
/// [`crate::EngineConfig`] and overridable process-wide through the
/// `PHYLOMIC_SITE_REPEATS` environment variable (mirroring
/// `PHYLOMIC_KERNELS`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SiteRepeats {
    /// Never compress: the uncompressed reference path.
    Off,
    /// Compress whenever a node has any repeated site at all.
    On,
    /// Compress only where it pays — which, measured end to end, is
    /// nowhere: a search builds one table per `newview` (every re-root
    /// flips an orientation, and a rebuilt table invalidates its
    /// ancestors'), and per site that build alone costs what a 512-bit
    /// `newview_ti` does. Counting it, the break-even class count
    /// `n·(k − b − x)/(k + g)` (`k` plain `newview_ii`, `b` build, `x`
    /// expand, `g` gather; `plf-microbench`'s `repeat costs` cell) is
    /// below one class at both `simd` widths, and where the model still
    /// finds one (`scalar`, 0.45 n) the searches of `plf_e2e` run no
    /// faster with tables than without (EXPERIMENTS.md, "Non-kernel
    /// time"). So `Auto` resolves to no tables, on every backend; `On`
    /// is the forced path.
    Auto,
}

impl SiteRepeats {
    /// Every variant, in parse/display order.
    pub const ALL: [SiteRepeats; 3] = [SiteRepeats::Off, SiteRepeats::On, SiteRepeats::Auto];

    /// The `PHYLOMIC_SITE_REPEATS` environment override, parsed once
    /// per process. Returns `None` when the variable is unset or empty.
    ///
    /// # Panics
    /// Panics on an unparseable value: a mistyped mode must not
    /// silently fall back to the default.
    pub fn env_override() -> Option<SiteRepeats> {
        static OVERRIDE: std::sync::OnceLock<Option<SiteRepeats>> = std::sync::OnceLock::new();
        *OVERRIDE.get_or_init(|| {
            let v = std::env::var("PHYLOMIC_SITE_REPEATS").ok()?;
            let v = v.trim();
            if v.is_empty() {
                return None;
            }
            Some(
                v.parse().unwrap_or_else(|e: SiteRepeatsParseError| {
                    panic!("PHYLOMIC_SITE_REPEATS: {e}")
                }),
            )
        })
    }

    /// The mode an engine configured with `self` actually runs:
    /// `PHYLOMIC_SITE_REPEATS` (when set) wins.
    pub fn effective(self) -> SiteRepeats {
        Self::env_override().unwrap_or(self)
    }

    /// The largest class count a node covering `sites` sites may have
    /// and still run compressed under this mode — the `limit` engines
    /// pass to [`RepeatTable::build`]. `None` means no tables, no
    /// index, no scratch, no fold: `Off`, and `Auto` (see there).
    pub fn class_limit(self, sites: usize) -> Option<usize> {
        match self {
            SiteRepeats::Off | SiteRepeats::Auto => None,
            SiteRepeats::On => Some(sites.saturating_sub(1)),
        }
    }

    /// What the mode comes to, as runs and trace reports print it
    /// after the mode's name.
    pub fn verdict(self) -> &'static str {
        match self {
            SiteRepeats::Off => "no tables",
            SiteRepeats::On => "tables, compress wherever a site repeats",
            SiteRepeats::Auto => {
                "no tables (one build per newview costs more than compression saves)"
            }
        }
    }
}

/// An unrecognized site-repeats mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteRepeatsParseError(String);

impl std::fmt::Display for SiteRepeatsParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown site-repeats mode {:?} (expected off, on or auto)",
            self.0
        )
    }
}

impl std::error::Error for SiteRepeatsParseError {}

impl std::str::FromStr for SiteRepeats {
    type Err = SiteRepeatsParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(SiteRepeats::Off),
            "on" => Ok(SiteRepeats::On),
            "auto" => Ok(SiteRepeats::Auto),
            other => Err(SiteRepeatsParseError(other.to_string())),
        }
    }
}

impl std::fmt::Display for SiteRepeats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SiteRepeats::Off => "off",
            SiteRepeats::On => "on",
            SiteRepeats::Auto => "auto",
        })
    }
}

/// One child's per-site class ids for repeat-class construction: a tip
/// contributes its 4-bit character codes, an inner node the site→class
/// map of its own table.
#[derive(Clone, Copy)]
pub enum ClassSource<'a> {
    /// Tip child: 4-bit ambiguity codes, one per site.
    Tip(&'a [u8]),
    /// Inner child: the child's repeat table (must cover the same
    /// sites, and have been built with the same limit).
    Inner(&'a RepeatTable),
}

impl ClassSource<'_> {
    fn len(&self) -> usize {
        match self {
            ClassSource::Tip(codes) => codes.len(),
            ClassSource::Inner(table) => table.num_sites(),
        }
    }

    /// The limit a bounded inner child exceeded.
    fn exceeded(&self) -> Option<usize> {
        match self {
            ClassSource::Tip(_) => None,
            ClassSource::Inner(table) => table.exceeded,
        }
    }
}

/// Per-node repeat index table: the partition of this engine slice's
/// sites into classes with identical induced subtree patterns at one
/// inner node (for its current orientation) — or, when that partition
/// has more classes than the limit it was built under, a *bounded*
/// marker that records only that fact (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct RepeatTable {
    num_sites: usize,
    /// `Some(limit)` marks a bounded table: more than `limit` classes,
    /// and the three vectors below are empty.
    exceeded: Option<usize>,
    /// Dense class id per site, ids assigned in first-occurrence order.
    site2class: Vec<u32>,
    /// Representative (first-occurrence) site per class.
    repr: Vec<u32>,
    /// Number of member sites per class.
    mult: Vec<u32>,
}

impl RepeatTable {
    /// Builds the table for a node from its two children's class
    /// sources, in one pass over the `(left, right)` class pairs
    /// through `index` — unless the node has more than `limit` classes,
    /// in which case the result is the bounded marker: at once when an
    /// inner child is bounded, otherwise as soon as class `limit + 1`
    /// appears. All tables of one tree must share one `limit` (the
    /// upward propagation relies on it).
    pub fn build(
        left: ClassSource<'_>,
        right: ClassSource<'_>,
        limit: usize,
        index: &mut RepeatIndex,
    ) -> Self {
        let n = left.len();
        debug_assert_eq!(n, right.len(), "children cover different site ranges");
        let complete = match left.exceeded().or(right.exceeded()) {
            Some(child_limit) => {
                debug_assert!(child_limit >= limit, "child bounded under a smaller limit");
                index.note_build(0, Some(BoundedBy::Child));
                false
            }
            // The `ClassSource` match is hoisted out of the per-site
            // loop: one monomorphized pass per pairing.
            None => match (left, right) {
                (ClassSource::Tip(l), ClassSource::Tip(r)) => index.pass(l, r, limit),
                (ClassSource::Tip(l), ClassSource::Inner(r)) => index.pass(l, &r.site2class, limit),
                (ClassSource::Inner(l), ClassSource::Tip(r)) => index.pass(&l.site2class, r, limit),
                (ClassSource::Inner(l), ClassSource::Inner(r)) => {
                    index.pass(&l.site2class, &r.site2class, limit)
                }
            },
        };
        if complete {
            RepeatTable {
                num_sites: n,
                exceeded: None,
                site2class: index.site2class.clone(),
                repr: index.repr.clone(),
                mult: index.mult.clone(),
            }
        } else {
            RepeatTable {
                num_sites: n,
                exceeded: Some(limit),
                site2class: Vec::new(),
                repr: Vec::new(),
                mult: Vec::new(),
            }
        }
    }

    /// Number of sites covered.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// Whether this is the bounded marker: the node has more classes
    /// than the limit it was built under, and no class map is held.
    pub fn is_bounded(&self) -> bool {
        self.exceeded.is_some()
    }

    /// Number of distinct repeat classes (0 for a bounded table, whose
    /// count is only known to exceed its limit).
    pub fn num_classes(&self) -> usize {
        self.repr.len()
    }

    /// Dense class id per site (empty for a bounded table).
    pub fn site2class(&self) -> &[u32] {
        &self.site2class
    }

    /// Representative (first-occurrence) site per class.
    pub fn repr_sites(&self) -> &[u32] {
        &self.repr
    }

    /// Member count per class.
    pub fn multiplicities(&self) -> &[u32] {
        &self.mult
    }

    /// Heap bytes held by the class map (0 for a bounded table).
    pub fn heap_bytes(&self) -> usize {
        4 * (self.site2class.capacity() + self.repr.capacity() + self.mult.capacity())
    }

    /// Whether a node with this table runs compressed: the table was
    /// completed — it has no more classes than the limit its mode set
    /// ([`SiteRepeats::class_limit`]) — and at least one site repeats.
    pub fn compresses(&self) -> bool {
        !self.is_bounded() && self.num_classes() < self.num_sites
    }

    /// Gathers tip codes at the class representatives into `out`
    /// (resized to `num_classes`).
    pub fn gather_codes(&self, codes: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.extend(self.repr.iter().map(|&s| codes[s as usize]));
    }

    /// Gathers CLA sites and scaling counters at the class
    /// representatives into the leading `num_classes` entries of
    /// `out_v`/`out_s`.
    pub fn gather_sites(
        &self,
        values: &[f64],
        scale: &[u32],
        out_v: &mut [f64],
        out_s: &mut [u32],
    ) {
        for (c, &s) in self.repr.iter().enumerate() {
            let s = s as usize;
            out_v[site_range(c)].copy_from_slice(&values[site_range(s)]);
            out_s[c] = scale[s];
        }
    }

    /// Expands class-indexed kernel output (`num_classes` sites in
    /// `comp_v`/`comp_s`) to the full per-site buffers. Pure 128-byte
    /// copies: expanded CLAs are bit-identical to the uncompressed
    /// kernel's output (see the module docs for why).
    pub fn expand(&self, comp_v: &[f64], comp_s: &[u32], out_v: &mut [f64], out_s: &mut [u32]) {
        for (i, &c) in self.site2class.iter().enumerate() {
            let c = c as usize;
            out_v[site_range(i)].copy_from_slice(&comp_v[site_range(c)]);
            out_s[i] = comp_s[c];
        }
    }

    /// The multiplicity-weighted correction for the global
    /// `core.scaling.events` metric: the kernel rescaled each class at
    /// most once, so the engine adds `own_bump_c · (mult_c − 1)` per
    /// class, where `own_bump_c = comp_s[c] − input_scale_sum[c]` (the
    /// class's own rescale bump net of the child counters it inherited,
    /// always 0 or 1). `input_scale_sum` is the per-class sum of the
    /// gathered child counters (all zeros for tip-tip nodes).
    pub fn extra_scaling_events(&self, comp_s: &[u32], input_scale_sum: &[u32]) -> u64 {
        let mut extra = 0u64;
        for (c, &m) in self.mult.iter().enumerate() {
            let own = comp_s[c] - input_scale_sum[c];
            debug_assert!(own <= 1, "per-class rescale bump must be 0 or 1");
            extra += u64::from(own) * u64::from(m - 1);
        }
        extra
    }
}

/// Why a build returned the bounded marker.
#[derive(Clone, Copy)]
enum BoundedBy {
    /// An inner child was already bounded: no site was looked at.
    Child,
    /// Class `limit + 1` appeared during the pass.
    Limit,
}

/// What the builds through one [`RepeatIndex`] cost: the per-engine
/// view of the `core.repeats.table_*` / `core.repeats.sites_indexed`
/// registry counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepeatBuildStats {
    /// Calls to [`RepeatTable::build`].
    pub builds: u64,
    /// Builds answered in O(1) because an inner child was bounded.
    pub bounded_by_child: u64,
    /// Builds cut short when class `limit + 1` appeared.
    pub bounded_by_limit: u64,
    /// Sites run through the index, over all builds.
    pub sites_indexed: u64,
}

/// One slot of the open-addressing index. A slot is occupied for the
/// current build iff its `epoch` equals the index's.
#[derive(Clone, Copy)]
struct Slot {
    key: u64,
    id: u32,
    epoch: u32,
}

const VACANT: Slot = Slot {
    key: 0,
    id: 0,
    epoch: 0,
};

/// Smallest slot array the index allocates.
const MIN_SLOTS: usize = 16;

/// 2⁶⁴ / φ: the multiplier of Fibonacci hashing, which spreads the
/// dense, low-entropy class-id pairs over the high bits the slot index
/// is taken from.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The reusable working state of [`RepeatTable::build`]: an
/// open-addressing (linear probing, load ≤ ½) map from the packed
/// `(left, right)` class pair to the dense class id, plus staging for
/// the table under construction. One per engine; empty until the first
/// build, then reused by every later one without clearing — each build
/// takes a fresh epoch, which vacates every slot at once — and without
/// allocating, unless a build needs more slots than any before it.
#[derive(Default)]
pub struct RepeatIndex {
    slots: Vec<Slot>,
    /// `64 − log2(slots.len())`: the hash keeps its top bits.
    shift: u32,
    epoch: u32,
    site2class: Vec<u32>,
    repr: Vec<u32>,
    mult: Vec<u32>,
    stats: RepeatBuildStats,
}

impl RepeatIndex {
    /// Cumulative cost of the builds that went through this index.
    pub fn stats(&self) -> RepeatBuildStats {
        self.stats
    }

    /// Vacates the index for a build that inserts at most `classes`
    /// keys, growing the slot array first if that would load it past ½.
    fn begin(&mut self, classes: usize) {
        let want = (2 * classes).next_power_of_two().max(MIN_SLOTS);
        if self.slots.len() < want {
            self.slots = vec![VACANT; want];
            self.shift = 64 - want.trailing_zeros();
            self.epoch = 0;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The stamp wrapped: slots written 2³² builds ago would
            // read as occupied, so this one build clears them.
            self.slots.fill(VACANT);
            self.epoch = 1;
        }
    }

    /// The per-site pass: stages `site2class`/`repr`/`mult` for the
    /// pairing of `left` and `right`, ids in first-occurrence order.
    /// Returns `false`, with the staging abandoned, as soon as class
    /// `limit + 1` appears.
    fn pass<L, R>(&mut self, left: &[L], right: &[R], limit: usize) -> bool
    where
        L: Copy + Into<u32>,
        R: Copy + Into<u32>,
    {
        let n = left.len();
        self.begin(limit.min(n));
        self.site2class.clear();
        self.site2class.resize(n, 0);
        self.repr.clear();
        self.mult.clear();
        let (epoch, shift) = (self.epoch, self.shift);
        let RepeatIndex {
            slots,
            site2class,
            repr,
            mult,
            ..
        } = self;
        let mask = slots.len() - 1;
        let cut_at = 'sites: {
            for (i, ((&l, &r), out)) in left.iter().zip(right).zip(site2class).enumerate() {
                let key = (u64::from(l.into()) << 32) | u64::from(r.into());
                let mut h = (key.wrapping_mul(HASH_MUL) >> shift) as usize;
                let id = loop {
                    let slot = &mut slots[h & mask];
                    if slot.epoch != epoch {
                        let id = repr.len();
                        if id == limit {
                            break 'sites Some(i + 1);
                        }
                        *slot = Slot {
                            key,
                            id: id as u32,
                            epoch,
                        };
                        repr.push(i as u32);
                        mult.push(0);
                        break id;
                    }
                    if slot.key == key {
                        break slot.id as usize;
                    }
                    h += 1;
                };
                mult[id] += 1;
                *out = id as u32;
            }
            None
        };
        match cut_at {
            Some(sites) => self.note_build(sites, Some(BoundedBy::Limit)),
            None => self.note_build(n, None),
        }
        cut_at.is_none()
    }

    /// Books one build in this index's stats and the registry counters.
    fn note_build(&mut self, sites_indexed: usize, bounded: Option<BoundedBy>) {
        let c = build_counters();
        self.stats.builds += 1;
        c.builds.add(1);
        self.stats.sites_indexed += sites_indexed as u64;
        c.sites_indexed.add(sites_indexed as u64);
        match bounded {
            Some(BoundedBy::Child) => {
                self.stats.bounded_by_child += 1;
                c.bounded.add(1);
                c.bounded_by_child.add(1);
            }
            Some(BoundedBy::Limit) => {
                self.stats.bounded_by_limit += 1;
                c.bounded.add(1);
            }
            None => {}
        }
    }
}

/// Cache key describing the state a node's repeat table was built in.
/// Deliberately smaller than the CLA cache key: tables depend only on
/// topology and tip bindings — never on branch lengths or the model —
/// so Newton branch smoothing (the search hot path) reuses them across
/// every CLA recomputation.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct RepeatKey {
    /// The two children, canonicalized tip-first (they fix the
    /// orientation: the third neighbour is the root side).
    pub child_nodes: [NodeId; 2],
    /// Children's own table stamps (0 for tips); a rebuilt child table
    /// cascades invalidation upward.
    pub child_table_stamps: [u64; 2],
    /// Tip-binding epoch: re-binding alignment rows to tree tips
    /// invalidates every table.
    pub tip_epoch: u64,
}

/// Reusable class-indexed staging buffers for compressed `newview`
/// calls: gathered child inputs and the kernel's per-class output,
/// all sized for the engine's full pattern count (classes ≤ sites).
/// Kernel-facing slices stay whole-site and 64-byte-base aligned, so
/// the explicit-SIMD backend's buffer contract holds for the
/// compressed views too.
pub(crate) struct RepeatScratch {
    v_l: AlignedVec,
    v_r: AlignedVec,
    s_l: Vec<u32>,
    s_r: Vec<u32>,
    /// Per-class sum of gathered child counters (the inherited part of
    /// the output counter), for the multiplicity correction.
    in_s: Vec<u32>,
    codes_l: Vec<u8>,
    codes_r: Vec<u8>,
    out_v: AlignedVec,
    out_s: Vec<u32>,
}

impl RepeatScratch {
    /// Allocates scratch for up to `num_patterns` classes.
    pub(crate) fn new(num_patterns: usize) -> Self {
        RepeatScratch {
            v_l: AlignedVec::zeroed(num_patterns * SITE_STRIDE),
            v_r: AlignedVec::zeroed(num_patterns * SITE_STRIDE),
            s_l: vec![0; num_patterns],
            s_r: vec![0; num_patterns],
            in_s: vec![0; num_patterns],
            codes_l: Vec::with_capacity(num_patterns),
            codes_r: Vec::with_capacity(num_patterns),
            out_v: AlignedVec::zeroed(num_patterns * SITE_STRIDE),
            out_s: vec![0; num_patterns],
        }
    }

    /// Expands the per-class kernel output into the full per-site CLA
    /// buffers and re-weights the global scaling-events metric by class
    /// multiplicity (see the module docs' bit-identity contract).
    fn finish(&mut self, table: &RepeatTable, nc: usize, out_v: &mut [f64], out_s: &mut [u32]) {
        table.expand(
            &self.out_v[..nc * SITE_STRIDE],
            &self.out_s[..nc],
            out_v,
            out_s,
        );
        let extra = table.extra_scaling_events(&self.out_s[..nc], &self.in_s[..nc]);
        if extra > 0 {
            crate::scaling::add_scaling_events(extra);
        }
    }

    /// Compressed tip-tip `newview`: gathers representative codes, runs
    /// the kernel over `num_classes` sites, expands.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn newview_tt(
        &mut self,
        kernel: &dyn Kernels,
        table: &RepeatTable,
        lut_l: &Lut16x16,
        lut_r: &Lut16x16,
        codes_l: &[u8],
        codes_r: &[u8],
        out_v: &mut [f64],
        out_s: &mut [u32],
    ) {
        let nc = table.num_classes();
        table.gather_codes(codes_l, &mut self.codes_l);
        table.gather_codes(codes_r, &mut self.codes_r);
        kernel.newview_tt(
            lut_l,
            lut_r,
            &self.codes_l,
            &self.codes_r,
            &mut self.out_v[..nc * SITE_STRIDE],
            &mut self.out_s[..nc],
        );
        self.in_s[..nc].fill(0);
        self.finish(table, nc, out_v, out_s);
    }

    /// Compressed tip-inner `newview`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn newview_ti(
        &mut self,
        kernel: &dyn Kernels,
        table: &RepeatTable,
        lut_l: &Lut16x16,
        codes_l: &[u8],
        p_r: &FusedPmat,
        v_r: &[f64],
        scale_r: &[u32],
        out_v: &mut [f64],
        out_s: &mut [u32],
    ) {
        let nc = table.num_classes();
        table.gather_codes(codes_l, &mut self.codes_l);
        table.gather_sites(v_r, scale_r, &mut self.v_r, &mut self.s_r);
        kernel.newview_ti(
            lut_l,
            &self.codes_l,
            p_r,
            &self.v_r[..nc * SITE_STRIDE],
            &self.s_r[..nc],
            &mut self.out_v[..nc * SITE_STRIDE],
            &mut self.out_s[..nc],
        );
        self.in_s[..nc].copy_from_slice(&self.s_r[..nc]);
        self.finish(table, nc, out_v, out_s);
    }

    /// Compressed inner-inner `newview`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn newview_ii(
        &mut self,
        kernel: &dyn Kernels,
        table: &RepeatTable,
        p_l: &FusedPmat,
        v_l: &[f64],
        scale_l: &[u32],
        p_r: &FusedPmat,
        v_r: &[f64],
        scale_r: &[u32],
        out_v: &mut [f64],
        out_s: &mut [u32],
    ) {
        let nc = table.num_classes();
        table.gather_sites(v_l, scale_l, &mut self.v_l, &mut self.s_l);
        table.gather_sites(v_r, scale_r, &mut self.v_r, &mut self.s_r);
        kernel.newview_ii(
            p_l,
            &self.v_l[..nc * SITE_STRIDE],
            &self.s_l[..nc],
            p_r,
            &self.v_r[..nc * SITE_STRIDE],
            &self.s_r[..nc],
            &mut self.out_v[..nc * SITE_STRIDE],
            &mut self.out_s[..nc],
        );
        for c in 0..nc {
            self.in_s[c] = self.s_l[c] + self.s_r[c];
        }
        self.finish(table, nc, out_v, out_s);
    }

    /// Folded tip-inner `derivativeSum`: gathers the root pair's
    /// buffers at the joint table's class representatives and fills the
    /// leading `num_classes` sumtable columns. No expansion happens —
    /// the engine folds the per-class derivative terms back into the
    /// site-order reduction instead (see
    /// [`crate::LikelihoodEngine::branch_derivatives`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn derivative_sum_ti_folded(
        &mut self,
        kernel: &dyn Kernels,
        table: &RepeatTable,
        basis: &EigenBasis,
        codes_q: &[u8],
        v_r: &[f64],
        scale_r: &[u32],
        out: &mut [f64],
    ) {
        let nc = table.num_classes();
        table.gather_codes(codes_q, &mut self.codes_l);
        table.gather_sites(v_r, scale_r, &mut self.v_r, &mut self.s_r);
        kernel.derivative_sum_ti(
            basis,
            &self.codes_l,
            &self.v_r[..nc * SITE_STRIDE],
            &mut out[..nc * SITE_STRIDE],
        );
    }

    /// Folded inner-inner `derivativeSum`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn derivative_sum_ii_folded(
        &mut self,
        kernel: &dyn Kernels,
        table: &RepeatTable,
        basis: &EigenBasis,
        v_q: &[f64],
        scale_q: &[u32],
        v_r: &[f64],
        scale_r: &[u32],
        out: &mut [f64],
    ) {
        let nc = table.num_classes();
        table.gather_sites(v_q, scale_q, &mut self.v_l, &mut self.s_l);
        table.gather_sites(v_r, scale_r, &mut self.v_r, &mut self.s_r);
        kernel.derivative_sum_ii(
            basis,
            &self.v_l[..nc * SITE_STRIDE],
            &self.v_r[..nc * SITE_STRIDE],
            &mut out[..nc * SITE_STRIDE],
        );
    }
}

/// Registry counters for table construction (see
/// [`RepeatBuildStats`]; `table_bounded` counts both causes).
struct BuildCounters {
    builds: crate::metrics::Counter,
    bounded: crate::metrics::Counter,
    bounded_by_child: crate::metrics::Counter,
    sites_indexed: crate::metrics::Counter,
}

fn build_counters() -> &'static BuildCounters {
    static C: std::sync::OnceLock<BuildCounters> = std::sync::OnceLock::new();
    C.get_or_init(|| BuildCounters {
        builds: crate::metrics::counter("core.repeats.table_builds"),
        bounded: crate::metrics::counter("core.repeats.table_bounded"),
        bounded_by_child: crate::metrics::counter("core.repeats.table_bounded_by_child"),
        sites_indexed: crate::metrics::counter("core.repeats.sites_indexed"),
    })
}

/// Cumulative per-engine compression effectiveness, surfaced through
/// trace metadata and the CLI summary.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RepeatStats {
    /// Total `newview` calls (compressed or not).
    pub newview_calls: u64,
    /// Calls that ran over repeat classes instead of all sites.
    pub compressed_calls: u64,
    /// Sites covered by compressed calls.
    pub sites: u64,
    /// Classes actually computed by compressed calls.
    pub classes: u64,
}

impl RepeatStats {
    /// `classes / sites` over all compressed calls — the achieved
    /// kernel-work ratio (1.0 = nothing saved; `None` before any
    /// compressed call).
    pub fn ratio(&self) -> Option<f64> {
        (self.sites > 0).then(|| self.classes as f64 / self.sites as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full class map, whatever its size.
    fn build(left: ClassSource<'_>, right: ClassSource<'_>) -> RepeatTable {
        RepeatTable::build(left, right, usize::MAX, &mut RepeatIndex::default())
    }

    #[test]
    fn mode_display_parse_round_trips_all_variants() {
        for mode in SiteRepeats::ALL {
            let name = mode.to_string();
            let back: SiteRepeats = name.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back, mode, "{name} did not round-trip");
        }
    }

    #[test]
    fn unknown_mode_names_are_rejected_with_the_full_menu() {
        let err = "maybe".parse::<SiteRepeats>().unwrap_err();
        let msg = err.to_string();
        for mode in SiteRepeats::ALL {
            assert!(msg.contains(&mode.to_string()), "{msg} missing {mode}");
        }
    }

    #[test]
    fn tip_tip_classes_follow_code_pairs() {
        let l = [1u8, 2, 1, 1, 2];
        let r = [4u8, 8, 4, 8, 8];
        let t = build(ClassSource::Tip(&l), ClassSource::Tip(&r));
        // Pairs: (1,4) (2,8) (1,4) (1,8) (2,8) → classes 0 1 0 2 1.
        assert_eq!(t.site2class(), &[0, 1, 0, 2, 1]);
        assert_eq!(t.repr_sites(), &[0, 1, 3]);
        assert_eq!(t.multiplicities(), &[2, 2, 1]);
        assert_eq!(t.num_classes(), 3);
    }

    #[test]
    fn all_distinct_sites_yield_no_compression() {
        let l: Vec<u8> = (0..8).map(|i| 1 << (i % 4)).collect();
        let r: Vec<u8> = (0..8).map(|i| 1 << ((i / 4) % 4)).collect();
        let t = build(ClassSource::Tip(&l), ClassSource::Tip(&r));
        // (l, r) pairs cycle with period 8 here, all distinct.
        assert_eq!(t.num_classes(), 8);
        assert!(!t.compresses());
    }

    #[test]
    fn fully_repeated_sites_collapse_to_one_class() {
        let codes = [5u8; 32];
        let t = build(ClassSource::Tip(&codes), ClassSource::Tip(&codes));
        assert_eq!(t.num_classes(), 1);
        assert_eq!(t.multiplicities(), &[32]);
        assert!(t.compresses());
    }

    #[test]
    fn bottom_up_composition_distinguishes_subtree_patterns() {
        // Two tips glued into a cherry, then paired with a third tip:
        // sites 0 and 3 repeat at the cherry AND with tip c equal, so
        // they share a class at the parent; site 2 shares the cherry
        // class but differs at c.
        let a = [1u8, 2, 1, 1];
        let b = [4u8, 4, 4, 4];
        let cherry = build(ClassSource::Tip(&a), ClassSource::Tip(&b));
        assert_eq!(cherry.site2class(), &[0, 1, 0, 0]);
        let c = [8u8, 8, 2, 8];
        let parent = build(ClassSource::Tip(&c), ClassSource::Inner(&cherry));
        assert_eq!(parent.site2class(), &[0, 1, 2, 0]);
        assert_eq!(parent.multiplicities(), &[2, 1, 1]);
    }

    #[test]
    fn gather_and_expand_round_trip_bit_identically() {
        let l = [1u8, 2, 1, 2, 1];
        let r = [4u8, 4, 4, 4, 4];
        let t = build(ClassSource::Tip(&l), ClassSource::Tip(&r));
        assert_eq!(t.num_classes(), 2);
        let n = t.num_sites();
        // A fake per-class kernel result.
        let comp_v: Vec<f64> = (0..t.num_classes() * SITE_STRIDE)
            .map(|i| i as f64 + 0.25)
            .collect();
        let comp_s = [3u32, 7];
        let mut out_v = vec![0.0; n * SITE_STRIDE];
        let mut out_s = vec![0u32; n];
        t.expand(&comp_v, &comp_s, &mut out_v, &mut out_s);
        assert_eq!(out_s, [3, 7, 3, 7, 3]);
        for (i, &c) in t.site2class().iter().enumerate() {
            assert_eq!(
                out_v[i * SITE_STRIDE..(i + 1) * SITE_STRIDE],
                comp_v[c as usize * SITE_STRIDE..(c as usize + 1) * SITE_STRIDE]
            );
        }
        // Gathering the expansion back at the representatives recovers
        // the compressed buffers exactly.
        let mut back_v = vec![0.0; t.num_classes() * SITE_STRIDE];
        let mut back_s = vec![0u32; t.num_classes()];
        t.gather_sites(&out_v, &out_s, &mut back_v, &mut back_s);
        assert_eq!(back_v, comp_v);
        assert_eq!(back_s, &comp_s[..]);
    }

    #[test]
    fn extra_scaling_events_weights_own_bumps_by_multiplicity() {
        let l = [1u8, 1, 2, 1, 2, 2];
        let r = [4u8; 6];
        let t = build(ClassSource::Tip(&l), ClassSource::Tip(&r));
        assert_eq!(t.multiplicities(), &[3, 3]);
        // Class 0: inherited 2, bumped (3 = 2 + 1). Class 1: inherited
        // 5, no bump.
        let comp_s = [3u32, 5];
        let inherited = [2u32, 5];
        // Only class 0 bumped; its 2 non-representative members were
        // skipped by the kernel.
        assert_eq!(t.extra_scaling_events(&comp_s, &inherited), 2);
    }

    #[test]
    fn build_stops_at_class_limit_plus_one() {
        // Pairs: (1,4) (2,8) (1,4) (1,8) (2,8) — the third class first
        // appears at site 3.
        let l = [1u8, 2, 1, 1, 2];
        let r = [4u8, 8, 4, 8, 8];
        let (l, r) = (ClassSource::Tip(&l), ClassSource::Tip(&r));
        let mut index = RepeatIndex::default();
        let full = RepeatTable::build(l, r, 3, &mut index);
        assert!(!full.is_bounded());
        assert_eq!(full, build(l, r), "a limit that is not hit changes nothing");
        let cut = RepeatTable::build(l, r, 2, &mut index);
        assert!(cut.is_bounded());
        assert_eq!(cut.num_sites(), 5);
        assert!(cut.site2class().is_empty() && cut.repr_sites().is_empty());
        assert_eq!(cut.heap_bytes(), 0);
        assert!(!cut.compresses(), "a bounded table never compresses");
        assert_eq!(
            index.stats(),
            RepeatBuildStats {
                builds: 2,
                bounded_by_child: 0,
                bounded_by_limit: 1,
                // 5 for the full pass, 4 up to and including site 3.
                sites_indexed: 9,
            }
        );
    }

    #[test]
    fn bounded_child_bounds_the_parent_without_a_pass() {
        let a = [1u8, 2, 4, 8];
        let b = [1u8; 4];
        let mut index = RepeatIndex::default();
        let child = RepeatTable::build(ClassSource::Tip(&a), ClassSource::Tip(&b), 3, &mut index);
        assert!(child.is_bounded());
        let before = index.stats();
        for parent in [
            RepeatTable::build(
                ClassSource::Tip(&b),
                ClassSource::Inner(&child),
                3,
                &mut index,
            ),
            RepeatTable::build(
                ClassSource::Inner(&child),
                ClassSource::Tip(&b),
                3,
                &mut index,
            ),
        ] {
            assert!(parent.is_bounded());
            assert_eq!(parent.num_sites(), 4);
        }
        let after = index.stats();
        assert_eq!(after.bounded_by_child, before.bounded_by_child + 2);
        assert_eq!(after.sites_indexed, before.sites_indexed);
    }

    #[test]
    fn class_limit_is_the_largest_count_each_mode_compresses() {
        assert_eq!(SiteRepeats::On.class_limit(10), Some(9));
        assert_eq!(SiteRepeats::On.class_limit(0), Some(0));
        // No table under `Off`, and none under `Auto` either: at one
        // build per `newview` no class count pays for its table.
        for n in [0usize, 1, 10, 390, 3716, 1 << 20] {
            assert_eq!(SiteRepeats::Off.class_limit(n), None);
            assert_eq!(SiteRepeats::Auto.class_limit(n), None, "{n} sites");
        }
        for mode in SiteRepeats::ALL {
            let tables = mode.class_limit(390).is_some();
            assert_eq!(mode.verdict().starts_with("tables"), tables, "{mode}");
            assert_eq!(mode.verdict().starts_with("no tables"), !tables, "{mode}");
        }
        // At `On`'s limit a table compresses; one class more — no site
        // repeats — and it is bounded under that same limit.
        for distinct in [9usize, 10] {
            let l: Vec<u8> = (0..10).map(|i| 1 << (i.min(distinct - 1) % 4)).collect();
            let r: Vec<u8> = (0..10)
                .map(|i| 1 << ((i.min(distinct - 1) / 4) % 4))
                .collect();
            let (l, r) = (ClassSource::Tip(&l), ClassSource::Tip(&r));
            assert_eq!(build(l, r).num_classes(), distinct);
            let limit = SiteRepeats::On.class_limit(10).unwrap();
            let t = RepeatTable::build(l, r, limit, &mut RepeatIndex::default());
            assert_eq!(t.is_bounded(), distinct == 10);
            assert_eq!(t.compresses(), distinct == 9);
            assert_eq!(t.compresses(), build(l, r).compresses());
        }
    }

    #[test]
    fn index_survives_epoch_wraparound() {
        let l = [1u8, 2, 1, 1, 2];
        let r = [4u8, 8, 4, 8, 8];
        let (l, r) = (ClassSource::Tip(&l), ClassSource::Tip(&r));
        let expect = build(l, r);
        let mut index = RepeatIndex::default();
        assert_eq!(RepeatTable::build(l, r, 5, &mut index), expect);
        // Slots now carry stamp 1; put the counter just short of
        // wrapping so the coming builds pass through stamp 0.
        index.epoch = u32::MAX - 1;
        for _ in 0..4 {
            assert_eq!(RepeatTable::build(l, r, 5, &mut index), expect);
        }
        assert!(index.epoch >= 1 && index.epoch < 4);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;

        /// The builder this module replaced: one `HashMap` pass, no
        /// limit.
        fn reference(left: &[u32], right: &[u32]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
            let (mut site2class, mut repr, mut mult) = (Vec::new(), Vec::new(), Vec::<u32>::new());
            let mut ids: HashMap<u64, u32> = HashMap::new();
            for (i, (&l, &r)) in left.iter().zip(right).enumerate() {
                let next = repr.len() as u32;
                let id = *ids
                    .entry((u64::from(l) << 32) | u64::from(r))
                    .or_insert(next);
                if id == next {
                    repr.push(i as u32);
                    mult.push(0);
                }
                mult[id as usize] += 1;
                site2class.push(id);
            }
            (site2class, repr, mult)
        }

        /// A random child over `n` sites drawing from about `k`
        /// classes: tip codes, or a (valid, dense) inner table.
        enum Child {
            Tip(Vec<u8>),
            Inner(RepeatTable),
        }

        impl Child {
            fn random(inner: bool, n: usize, k: usize, rng: &mut SmallRng) -> Child {
                if inner {
                    let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..k as u32)).collect();
                    let (site2class, repr, mult) = reference(&labels, &vec![0; n]);
                    Child::Inner(RepeatTable {
                        num_sites: n,
                        exceeded: None,
                        site2class,
                        repr,
                        mult,
                    })
                } else {
                    let k = k.min(15) as u8;
                    Child::Tip((0..n).map(|_| 1 + rng.random_range(0..k)).collect())
                }
            }

            fn source(&self) -> ClassSource<'_> {
                match self {
                    Child::Tip(codes) => ClassSource::Tip(codes),
                    Child::Inner(table) => ClassSource::Inner(table),
                }
            }

            fn ids(&self) -> Vec<u32> {
                match self {
                    Child::Tip(codes) => codes.iter().map(|&c| u32::from(c)).collect(),
                    Child::Inner(table) => table.site2class.clone(),
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn builder_matches_the_hashmap_reference_up_to_the_limit(
                seed in 0u64..1 << 32,
                size in 0usize..4,
                inner in (0u8..2, 0u8..2),
                spread in (0.0f64..1.0, 0.0f64..1.0),
                limit_frac in 0.0f64..1.2,
            ) {
                let n = [1usize, 7, 390, 5000][size];
                let mut rng = SmallRng::seed_from_u64(seed);
                // 1…n classes per child, skewed toward few.
                let k = |s: f64| 1 + ((n - 1) as f64 * s * s) as usize;
                let limit = (n as f64 * limit_frac) as usize;
                // One index serves every build of the case, each at
                // its own size, so stale slots from earlier epochs are
                // always present.
                let mut index = RepeatIndex::default();
                for round in 0..3 {
                    let m = if round == 1 { n.div_ceil(3) } else { n };
                    let left = Child::random(inner.0 == 1, m, k(spread.0).min(m), &mut rng);
                    let right = Child::random(inner.1 == 1, m, k(spread.1).min(m), &mut rng);
                    let (site2class, repr, mult) = reference(&left.ids(), &right.ids());
                    let before = index.stats();
                    let table = RepeatTable::build(left.source(), right.source(), limit, &mut index);
                    let after = index.stats();
                    prop_assert_eq!(after.builds, before.builds + 1);
                    prop_assert_eq!(table.num_sites(), m);
                    prop_assert_eq!(table.is_bounded(), repr.len() > limit);
                    if table.is_bounded() {
                        prop_assert!(table.site2class().is_empty());
                        prop_assert!(table.repr_sites().is_empty());
                        prop_assert!(table.multiplicities().is_empty());
                        prop_assert!(!table.compresses());
                        prop_assert_eq!(after.bounded_by_limit, before.bounded_by_limit + 1);
                        // Cut at the first occurrence of class limit + 1.
                        prop_assert_eq!(
                            after.sites_indexed - before.sites_indexed,
                            u64::from(repr[limit]) + 1
                        );
                    } else {
                        prop_assert_eq!(table.site2class(), &site2class[..]);
                        prop_assert_eq!(table.repr_sites(), &repr[..]);
                        prop_assert_eq!(table.multiplicities(), &mult[..]);
                        prop_assert_eq!(after.sites_indexed - before.sites_indexed, m as u64);
                    }
                    // Upward: a bounded child bounds its parent in
                    // O(1); an unbounded one is an ordinary source.
                    let parent =
                        RepeatTable::build(right.source(), ClassSource::Inner(&table), limit, &mut index);
                    if table.is_bounded() {
                        prop_assert!(parent.is_bounded());
                        prop_assert_eq!(index.stats().bounded_by_child, after.bounded_by_child + 1);
                        prop_assert_eq!(index.stats().sites_indexed, after.sites_indexed);
                    } else {
                        let (s2c, _, _) = reference(&right.ids(), &site2class);
                        let classes = s2c.iter().max().map_or(0, |&c| c as usize + 1);
                        prop_assert_eq!(parent.is_bounded(), classes > limit);
                        if !parent.is_bounded() {
                            prop_assert_eq!(parent.site2class(), &s2c[..]);
                        }
                    }
                }
            }
        }
    }
}
