//! Analytical per-kernel cost model (roofline accounting).
//!
//! The paper argues in hardware-efficiency terms — achieved GFLOP/s
//! and memory bandwidth relative to the machine's peaks — so every
//! kernel invocation here reports how many floating-point operations
//! it performs and how many bytes it streams, derived from the loop
//! structure of the reference implementations in
//! [`crate::kernels::scalar`]. Combined with the wall-clock timings in
//! [`crate::instrument::KernelStats`] this yields achieved GFLOP/s,
//! GB/s and arithmetic intensity per kernel without any measurement
//! hooks on the hot path, and — against a calibrated host roofline
//! (the `plf-prof` crate) — a % -of-peak figure per backend.
//!
//! # Counting conventions
//!
//! The model is analytical, not measured; the conventions are chosen
//! so two people counting by hand arrive at the same numbers:
//!
//! * every floating-point add, sub, mul and div counts as **1 flop**;
//!   `ln` also counts as 1 flop (it is one invocation site, however
//!   the libm polynomial expands);
//! * integer arithmetic, comparisons, and the rare rescale
//!   multiplications inside `scale_site` (triggered on underflow
//!   only) count as **0 flops**;
//! * bytes count the **per-site streaming traffic** — CLA value
//!   vectors (16 doubles = 128 B/site), scale vectors (4 B/site), tip
//!   code arrays (1 B/site), site weights (4 B/site) and the
//!   sumtable — assuming each is touched once per invocation;
//! * O(1)-per-call operands (the fused P matrix, tip LUTs, eigenbasis,
//!   the derivative exp tables) are excluded: they stay cache-resident
//!   across the site loop and contribute no per-site traffic;
//! * write-allocate traffic on output buffers is not modeled (the
//!   simd backend streams stores past large outputs anyway).
//!
//! The derived per-site costs are pinned by unit tests against
//! hand-computed values, so any change to a kernel's loop structure
//! must update both in the same commit.

use crate::instrument::KernelId;
use crate::{NUM_RATES, NUM_STATES};
use std::sync::OnceLock;

/// The eight concrete PLF kernel entry points ([`crate::kernels::Kernels`]
/// trait methods). [`KernelId`] groups them into the paper's four
/// kernels; this enum distinguishes the tip/inner variants, which have
/// different arithmetic and traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelOp {
    /// `newview` with two tip children (LUT product).
    NewviewTt,
    /// `newview` with one tip and one inner child.
    NewviewTi,
    /// `newview` with two inner children.
    NewviewIi,
    /// `evaluate` with a tip on the virtual-root edge.
    EvaluateTi,
    /// `evaluate` with two inner endpoints.
    EvaluateIi,
    /// `derivativeSum` with a tip endpoint.
    DerivativeSumTi,
    /// `derivativeSum` with two inner endpoints.
    DerivativeSumIi,
    /// Newton-step derivative accumulation.
    DerivativeCore,
}

impl KernelOp {
    /// All ops, grouped in paper kernel order.
    pub const ALL: [KernelOp; 8] = [
        KernelOp::NewviewTt,
        KernelOp::NewviewTi,
        KernelOp::NewviewIi,
        KernelOp::EvaluateTi,
        KernelOp::EvaluateIi,
        KernelOp::DerivativeSumTi,
        KernelOp::DerivativeSumIi,
        KernelOp::DerivativeCore,
    ];

    /// Stable name, shared with `plf-microbench` result rows.
    pub fn name(self) -> &'static str {
        match self {
            KernelOp::NewviewTt => "newview_tt",
            KernelOp::NewviewTi => "newview_ti",
            KernelOp::NewviewIi => "newview_ii",
            KernelOp::EvaluateTi => "evaluate_ti",
            KernelOp::EvaluateIi => "evaluate_ii",
            KernelOp::DerivativeSumTi => "derivative_sum_ti",
            KernelOp::DerivativeSumIi => "derivative_sum_ii",
            KernelOp::DerivativeCore => "derivative_core",
        }
    }

    /// Inverse of [`KernelOp::name`].
    pub fn from_name(name: &str) -> Option<KernelOp> {
        KernelOp::ALL.into_iter().find(|op| op.name() == name)
    }

    /// The paper kernel this op belongs to.
    pub fn kernel_id(self) -> KernelId {
        match self {
            KernelOp::NewviewTt | KernelOp::NewviewTi | KernelOp::NewviewIi => KernelId::Newview,
            KernelOp::EvaluateTi | KernelOp::EvaluateIi => KernelId::Evaluate,
            KernelOp::DerivativeSumTi | KernelOp::DerivativeSumIi => KernelId::DerivativeSum,
            KernelOp::DerivativeCore => KernelId::DerivativeCore,
        }
    }

    /// Dense index for per-op arrays (order of [`KernelOp::ALL`]).
    pub fn index(self) -> usize {
        match self {
            KernelOp::NewviewTt => 0,
            KernelOp::NewviewTi => 1,
            KernelOp::NewviewIi => 2,
            KernelOp::EvaluateTi => 3,
            KernelOp::EvaluateIi => 4,
            KernelOp::DerivativeSumTi => 5,
            KernelOp::DerivativeSumIi => 6,
            KernelOp::DerivativeCore => 7,
        }
    }

    /// Analytical cost of one invocation over `sites` pattern-sites.
    ///
    /// The site stride is `states * rates` doubles; tip codes are one
    /// byte and scale counters four. Derived symbolically from the
    /// reference loops, so the numbers the tests pin fall out of the
    /// formulas.
    pub fn cost(self, sites: u64) -> KernelCost {
        let states = NUM_STATES as u64;
        let rates = NUM_RATES as u64;
        let w = states * rates; // doubles per site
        let vb = 8 * w; // CLA value bytes per site
        let sb = 4; // scale-counter bytes per site
        let cb = 1; // tip-code bytes per site
        let wb = 4; // site-weight bytes per site

        // Per-(rate, state) inner products over child states: a dot
        // product of length `states` is `2*states` flops (mul + add,
        // accumulator initialized to zero).
        let dot = 2 * states;
        // Per-site log-likelihood tail of the evaluate kernels:
        // ln + (scale * LN_SCALE) mul + sub + weight mul + accumulate.
        let eval_tail = 5;
        let per_site = match self {
            // One mul per entry of the site vector.
            KernelOp::NewviewTt => KernelCost {
                flops: w,
                bytes_read: 2 * cb,
                bytes_written: vb + sb,
            },
            KernelOp::NewviewTi => KernelCost {
                flops: rates * states * (dot + 1),
                bytes_read: cb + vb + sb,
                bytes_written: vb + sb,
            },
            KernelOp::NewviewIi => KernelCost {
                flops: rates * states * (2 * dot + 1),
                bytes_read: 2 * (vb + sb),
                bytes_written: vb + sb,
            },
            KernelOp::EvaluateTi => KernelCost {
                flops: rates * states * (dot + 2) + eval_tail,
                bytes_read: cb + vb + sb + wb,
                bytes_written: 0,
            },
            KernelOp::EvaluateIi => KernelCost {
                flops: rates * states * (dot + 3) + eval_tail,
                bytes_read: 2 * (vb + sb) + wb,
                bytes_written: 0,
            },
            KernelOp::DerivativeSumTi => KernelCost {
                flops: rates * states * (dot + 1),
                bytes_read: cb + vb,
                bytes_written: vb,
            },
            KernelOp::DerivativeSumIi => KernelCost {
                flops: rates * states * (2 * dot + 1),
                bytes_read: 2 * vb,
                bytes_written: vb,
            },
            // Three fused dot products against the exp tables plus the
            // per-site ratio tail (2 div, 1 mul, 1 sub, 2 weight muls,
            // 2 accumulates).
            KernelOp::DerivativeCore => KernelCost {
                flops: 6 * w + 8,
                bytes_read: vb + wb,
                bytes_written: 0,
            },
        };
        per_site.scaled(sites)
    }
}

/// Flops and streamed bytes of one (or `sites`-many) kernel
/// invocations under the conventions documented at module level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCost {
    /// Floating-point operations.
    pub flops: u64,
    /// Bytes read from per-site streaming operands.
    pub bytes_read: u64,
    /// Bytes written to per-site streaming outputs.
    pub bytes_written: u64,
}

impl KernelCost {
    /// Total streamed bytes (read + written).
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Arithmetic intensity in flops per streamed byte (0 when no
    /// bytes move).
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.bytes() == 0 {
            0.0
        } else {
            self.flops as f64 / self.bytes() as f64
        }
    }

    /// Cost scaled to `sites` pattern-sites.
    pub fn scaled(&self, sites: u64) -> KernelCost {
        KernelCost {
            flops: self.flops * sites,
            bytes_read: self.bytes_read * sites,
            bytes_written: self.bytes_written * sites,
        }
    }

    /// Adds another cost into this one (saturating; these feed
    /// long-running accumulators).
    pub fn accumulate(&mut self, other: &KernelCost) {
        self.flops = self.flops.saturating_add(other.flops);
        self.bytes_read = self.bytes_read.saturating_add(other.bytes_read);
        self.bytes_written = self.bytes_written.saturating_add(other.bytes_written);
    }
}

/// Host measurements taken once per machine (the `phylomic calibrate`
/// probes, cached alongside `HOST_ROOFLINE.json`). Of the three, only
/// `cache_bytes` steers a decision — the traversal block size
/// ([`crate::blocking::block_sites`]); the two throughputs are what the
/// roofline reporting is drawn against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfitCalibration {
    /// Streaming kernel throughput in MB/s (the STREAM-triad peak).
    pub kernel_mbps: u64,
    /// Copy throughput in MB/s (`memcpy`-style probe); 0 = unmeasured.
    pub copy_mbps: u64,
    /// Effective per-core cache in bytes for traversal blocking;
    /// 0 = unmeasured.
    pub cache_bytes: u64,
}

static CALIBRATION: OnceLock<ProfitCalibration> = OnceLock::new();

/// Installs the process-wide host calibration. First caller wins
/// (returns `false` when a calibration was already installed);
/// typically called once at CLI startup from the cached
/// `HOST_ROOFLINE.json`.
pub fn set_calibration(cal: ProfitCalibration) -> bool {
    CALIBRATION.set(cal).is_ok()
}

/// The installed host calibration, if any.
pub fn calibration() -> Option<&'static ProfitCalibration> {
    CALIBRATION.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-computed per-site pin for `newview_ii` (see
    /// `kernels/scalar.rs`): per (rate k, state a) the site loop runs
    /// two length-4 dot products (2 × 8 flops) plus the `l * r`
    /// product, over 16 (k, a) pairs: 16 × 17 = 272 flops. Traffic:
    /// reads both children's values + scales (2 × 132 B), writes the
    /// output values + scale (132 B).
    #[test]
    fn newview_ii_pinned_by_hand() {
        let c = KernelOp::NewviewIi.cost(1);
        assert_eq!(c.flops, 272);
        assert_eq!(c.bytes_read, 264);
        assert_eq!(c.bytes_written, 132);
        let c1000 = KernelOp::NewviewIi.cost(1000);
        assert_eq!(c1000.flops, 272_000);
        assert_eq!(c1000.bytes_read, 264_000);
        assert_eq!(c1000.bytes_written, 132_000);
        assert!((c.arithmetic_intensity() - 272.0 / 396.0).abs() < 1e-12);
    }

    /// Hand-computed per-site pin for `evaluate_ii`: per (k, a) one
    /// length-4 dot product (8 flops) plus `pi_w * vq * x`
    /// accumulation (2 muls + 1 add), over 16 pairs: 16 × 11 = 176;
    /// plus the ln/scale/weight tail (5) = 181 flops. Traffic: reads
    /// both CLAs + scales (264 B) + the site weight (4 B), writes
    /// nothing (scalar reduction).
    #[test]
    fn evaluate_ii_pinned_by_hand() {
        let c = KernelOp::EvaluateIi.cost(1);
        assert_eq!(c.flops, 181);
        assert_eq!(c.bytes_read, 268);
        assert_eq!(c.bytes_written, 0);
        assert_eq!(KernelOp::EvaluateIi.cost(10_000).flops, 1_810_000);
    }

    /// The remaining six ops, pinned against the same hand counts so
    /// loop-structure changes cannot drift silently.
    #[test]
    fn all_ops_pinned() {
        let pin = |op: KernelOp| {
            let c = op.cost(1);
            (c.flops, c.bytes_read, c.bytes_written)
        };
        assert_eq!(pin(KernelOp::NewviewTt), (16, 2, 132));
        assert_eq!(pin(KernelOp::NewviewTi), (144, 133, 132));
        assert_eq!(pin(KernelOp::EvaluateTi), (165, 137, 0));
        assert_eq!(pin(KernelOp::DerivativeSumTi), (144, 129, 128));
        assert_eq!(pin(KernelOp::DerivativeSumIi), (272, 256, 128));
        assert_eq!(pin(KernelOp::DerivativeCore), (104, 132, 0));
    }

    #[test]
    fn names_round_trip_and_group() {
        for op in KernelOp::ALL {
            assert_eq!(KernelOp::from_name(op.name()), Some(op));
        }
        assert_eq!(KernelOp::from_name("newview"), None);
        assert_eq!(KernelOp::NewviewTt.kernel_id(), KernelId::Newview);
        assert_eq!(KernelOp::EvaluateIi.kernel_id(), KernelId::Evaluate);
        assert_eq!(
            KernelOp::DerivativeSumTi.kernel_id(),
            KernelId::DerivativeSum
        );
        assert_eq!(
            KernelOp::DerivativeCore.kernel_id(),
            KernelId::DerivativeCore
        );
        // Index array is dense and matches ALL order.
        for (i, op) in KernelOp::ALL.into_iter().enumerate() {
            assert_eq!(op.index(), i);
        }
    }

    #[test]
    fn accumulate_saturates() {
        let mut c = KernelCost {
            flops: u64::MAX - 1,
            bytes_read: 0,
            bytes_written: 0,
        };
        c.accumulate(&KernelOp::NewviewIi.cost(1));
        assert_eq!(c.flops, u64::MAX);
    }
}
