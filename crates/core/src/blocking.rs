//! Traversal-level cache blocking for the PLF post-order walk.
//!
//! The roofline profiling of DESIGN.md §14 shows the dominant `*_ii`
//! kernels already sitting at 63–88% of the memory-bound roof: each
//! `newview` streams its children's full-width CLA columns from DRAM,
//! computes, and streams the output back — and the parent then streams
//! the very same output in again. When a traversal recomputes a *run*
//! of dependent nodes (the common case during branch smoothing), that
//! traffic is avoidable: walk the run in **site blocks** sized to the
//! per-core cache, evaluating every stale node of the run on one block
//! before advancing to the next, so a child's freshly written columns
//! are still cache-resident when its parent reads them.
//!
//! Bit-identity: every kernel is a per-site function of per-site
//! inputs (the P matrices and LUTs are per-call constants), so
//! restricting a call to the sub-range `[b0, b1)` of sites produces
//! exactly the bytes the full-range call writes there. The 128-byte
//! site stride keeps every block base 64-byte aligned, preserving the
//! explicit-SIMD buffer contract, and the underflow-scaling rule is
//! per-site. `tests/config_matrix.rs` pins this in every backend ×
//! scheme cell.
//!
//! The mode is set per [`crate::EngineConfig`]; `auto` engages
//! blocking only when the engine's pattern slice actually exceeds one
//! block, so small workloads keep the straight-line traversal.

use crate::cost::KernelOp;
use crate::layout::{FusedPmat, Lut16x16};
use crate::{SITE_BLOCK, SITE_STRIDE};

/// Whether engines walk the stale part of the traversal in cache-sized
/// site blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Blocking {
    /// Never block: one full-range `newview` per stale node.
    Off,
    /// Always block (even when the slice fits in one block).
    On,
    /// Block only when the engine's pattern count exceeds one block.
    Auto,
}

impl Blocking {
    /// Every variant, in display order.
    pub const ALL: [Blocking; 3] = [Blocking::Off, Blocking::On, Blocking::Auto];

    /// Resolves the mode to a concrete block size for an engine
    /// covering `num_patterns` sites: `Some(sites_per_block)`
    /// when blocked traversal engages, `None` for the straight-line
    /// path. `Auto` declines when the whole slice fits in one block
    /// (blocking would only add loop overhead).
    pub fn resolve(self, num_patterns: usize) -> Option<usize> {
        match self {
            Blocking::Off => None,
            Blocking::On => Some(block_sites()),
            Blocking::Auto => {
                let b = block_sites();
                (num_patterns > b).then_some(b)
            }
        }
    }
}

impl std::fmt::Display for Blocking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Blocking::Off => "off",
            Blocking::On => "on",
            Blocking::Auto => "auto",
        })
    }
}

/// Cache assumed per core when the host has not been calibrated
/// (`phylomic calibrate` writes the measured size next to the
/// roofline peaks): 1 MiB, a conservative slice of a shared L2/L3.
const DEFAULT_CACHE_BYTES: u64 = 1 << 20;

/// Columns of CLA width that must stay simultaneously resident per
/// site while a batch runs: the node being written plus its (up to)
/// two inner children, with one column of slack for the next node in
/// the batch reading the previous one's output.
const WORKING_COLUMNS: usize = 4;

/// Smallest block worth forming: below this the per-block dispatch
/// overhead (P-matrix pointer chasing, slice setup) dominates.
const MIN_BLOCK_SITES: usize = 8 * SITE_BLOCK;

/// The per-core cache in bytes: the calibrated size
/// ([`crate::cost::calibration`], measured once by `phylomic
/// calibrate`), else [`DEFAULT_CACHE_BYTES`]. Blocks are sized from it.
fn cache_bytes() -> u64 {
    crate::cost::calibration()
        .map(|c| c.cache_bytes)
        .filter(|&b| b > 0)
        .unwrap_or(DEFAULT_CACHE_BYTES)
}

/// Sites per block, derived from [`cache_bytes`] so that
/// [`WORKING_COLUMNS`] CLA columns of one block fit:
/// `cache / (128 B · 4)`, floored to a [`SITE_BLOCK`] multiple.
/// Uncalibrated hosts assume [`DEFAULT_CACHE_BYTES`] (→ 2048 sites).
pub fn block_sites() -> usize {
    let per_site = (SITE_STRIDE * 8 * WORKING_COLUMNS) as u64;
    let sites = (cache_bytes() / per_site) as usize;
    (sites / SITE_BLOCK * SITE_BLOCK).max(MIN_BLOCK_SITES)
}

/// The kernel inputs of one planned `newview`: everything that is
/// constant across the site range (per-branch tables, child
/// addressing), computed once at plan time whether the node then runs
/// whole-range or block by block. `child_*`
/// are inner-node indices; `tip_*` are tree tip ids.
// Tt carries two inline 2 KiB LUTs while Ii carries only indices;
// boxing them would add a pointer chase per executed block for an
// O(inner nodes)-sized batch.
#[allow(clippy::large_enum_variant)]
pub(crate) enum BlockJob {
    /// Two tip children.
    Tt {
        /// Left tip's per-code probability LUT.
        lut_l: Lut16x16,
        /// Right tip's per-code probability LUT.
        lut_r: Lut16x16,
        /// Left tip id.
        tip_l: usize,
        /// Right tip id.
        tip_r: usize,
    },
    /// Tip left, inner right.
    Ti {
        /// Tip's per-code probability LUT.
        lut_l: Lut16x16,
        /// Tip id.
        tip_l: usize,
        /// Right child's fused P matrix.
        p_r: FusedPmat,
        /// Right child's inner-node index.
        child_r: usize,
    },
    /// Two inner children.
    Ii {
        /// Left child's fused P matrix.
        p_l: FusedPmat,
        /// Left child's inner-node index.
        child_l: usize,
        /// Right child's fused P matrix.
        p_r: FusedPmat,
        /// Right child's inner-node index.
        child_r: usize,
    },
}

impl BlockJob {
    /// The kernel op this job runs.
    pub(crate) fn op(&self) -> KernelOp {
        match self {
            BlockJob::Tt { .. } => KernelOp::NewviewTt,
            BlockJob::Ti { .. } => KernelOp::NewviewTi,
            BlockJob::Ii { .. } => KernelOp::NewviewIi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_size_is_a_site_block_multiple_and_bounded() {
        let b = block_sites();
        assert!(b >= MIN_BLOCK_SITES);
        assert_eq!(b % SITE_BLOCK, 0, "blocks must preserve SIMD alignment");
    }

    #[test]
    fn off_never_blocks_and_on_always_does() {
        assert_eq!(Blocking::Off.resolve(1 << 20), None);
        assert!(Blocking::On.resolve(1).is_some());
        assert_eq!(Blocking::ALL.map(|m| m.to_string()), ["off", "on", "auto"]);
    }

    #[test]
    fn auto_engages_only_past_one_block() {
        let b = block_sites();
        assert_eq!(Blocking::Auto.resolve(b), None, "fits in one block");
        assert_eq!(Blocking::Auto.resolve(b + 1), Some(b));
    }
}
