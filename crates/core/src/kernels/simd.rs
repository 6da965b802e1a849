//! Explicit-SIMD kernel implementations: one backend, two vector
//! widths, chosen once per host.
//!
//! Where [`super::scalar`] writes the kernels as plain nested loops,
//! this backend writes the paper's §V-B optimizations with
//! `core::arch::x86_64` intrinsics — the commodity-hardware equivalent
//! of the paper's hand-vectorized MIC kernels:
//!
//! * §V-B1 *explicit vectorization* — the 16-wide fused loop
//!   (`m = 4k + a`: Γ rate category `k`, state `a`) runs as independent
//!   FMA accumulator chains, one rate category per 4×f64 block. With
//!   AVX2+FMA a site is four 256-bit vectors; with AVX-512F it is two
//!   512-bit vectors (rates `k, k+1` share a register — the paper's
//!   two 8-double vectors per site), the matrix stays in the register
//!   file for the whole call, and a site's own vector is permuted
//!   in-register instead of re-read as scalar broadcasts. Every lane
//!   runs the same chain at either width (`b = 0..3` from a zero
//!   accumulator), so the two widths write identical bits;
//! * §V-B2 *memory alignment* — CLA and sumtable buffers must be
//!   64-byte aligned and whole-site padded (debug-asserted at every
//!   kernel entry; see [`crate::layout`] for the invariant), so every
//!   site loads full vectors with no scalar remainder;
//! * §V-B4 *site blocking* — `evaluate` is the vector phase here
//!   (`evaluate_classes_*`); the provided methods of [`super::Kernels`]
//!   take the logs of a whole block with `ln_block` — 8 lanes at a time
//!   at 512 bits, the crate's own `ln` in vector form — and add them in
//!   site order. `derivativeCore` is the vector phase too
//!   (`derivative_core_classes`) at 256 bits; at 512 bits it is one
//!   fused loop, 8 sites a step, with the division tail in vector
//!   registers;
//! * prefetching — each site iteration prefetches the input CLA(s) a
//!   few sites ahead into L1, the §V-B MIC prefetch scheme.
//!
//! The paper's §V-B5 streaming stores are not here: they pay only for
//! an output larger than the per-core cache, and a blocked walk writes
//! none (DESIGN.md §12). Every kernel writes through `store4` / `store8`.
//!
//! The underflow-scaling decision is taken on the accumulators, before
//! anything is stored: one ordered `>= 2⁻²⁵⁶` compare per vector, OR-ed
//! over the site. Any lane set (99 sites in 100) means
//! [`crate::scaling::scale_site`] would leave the site alone, so it is
//! written as it is. Only otherwise is the site staged on the stack and
//! handed to `scale_site` — the one cold path, shared by both widths
//! and the scalar backend, with its corruption asserts, all-zero rule
//! and `core.scaling.events` counter — so counters and values are
//! bit-identical across backends and widths (rescaling multiplies by an
//! exact power of two).
//!
//! Two steps have one body whatever the host: `newview_tt` is a pure
//! 16-wide LUT product with no matrix work for the FMA chains to win
//! anything on and runs the scalar backend's loop, which LLVM
//! vectorizes as it stands; the π-weighted sum that ends
//! `evaluate_classes_*` runs over `k` *inside* a lane, so putting two
//! rate categories side by side would change the order of that sum —
//! it stays 256 bits wide, and only the logs after it are taken 8 at a
//! time. `derivativeCore` sums over `k` inside a lane as well; its
//! 512-bit body keeps that order by putting two *sites* side by side
//! instead, one per 256-bit half, and reduces each half as `hsum`
//! does.
//!
//! On non-x86-64 targets, and on x86-64 hosts without AVX2+FMA, every
//! method delegates to [`super::scalar::ScalarKernels`];
//! [`crate::KernelKind::resolve`] never dispatches here in that case,
//! so the delegation is defense in depth for direct callers.

use super::scalar::ScalarKernels;
use super::{derivative_core_two_phase, Kernels};
use crate::aligned::debug_assert_site_buffer as assert_buf;
use crate::layout::{EigenBasis, FusedPmat, Lut16x16};
use crate::SITE_STRIDE;

/// Explicit-SIMD kernel set at one vector width. The width is fixed
/// when the set is handed out ([`SimdKernels::for_host`]), against the
/// host's features, and every op of the set runs the bodies of that
/// width — so the width a run reports is the width that ran.
pub struct SimdKernels {
    /// 512, 256, or 0 (every method falls back to the scalar loops).
    /// Private: a nonzero value is the proof the `unsafe` calls below
    /// rely on, and only [`SimdKernels::at_width`] hands one out.
    width_bits: u32,
}

static SETS: [SimdKernels; 3] = [
    SimdKernels { width_bits: 512 },
    SimdKernels { width_bits: 256 },
    SimdKernels { width_bits: 0 },
];

/// Whether the explicit-SIMD backend can run on this host: x86-64 with
/// AVX2 and FMA detected at runtime. Detection results are cached by
/// `std`.
#[inline]
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Width, in bits, of the widest vectors this backend can run with on
/// this host: 512 with AVX-512F on top of AVX2+FMA, 256 with AVX2+FMA
/// alone, 0 where only the scalar loops run.
pub fn simd_width_bits() -> u32 {
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        return if std::arch::is_x86_feature_detected!("avx512f") {
            512
        } else {
            256
        };
    }
    0
}

impl SimdKernels {
    /// The kernel set engines run: the widest one this host supports.
    pub fn for_host() -> &'static SimdKernels {
        Self::at_width(simd_width_bits()).expect("simd_width_bits() names a supported width")
    }

    /// The set at exactly `bits` (512, 256 or 0), or `None` when this
    /// host cannot run it. For tests and benches that hold the widths
    /// against each other; engines take [`SimdKernels::for_host`].
    #[doc(hidden)]
    pub fn at_width(bits: u32) -> Option<&'static SimdKernels> {
        SETS.iter()
            .find(|set| set.width_bits == bits && bits <= simd_width_bits())
    }

    /// The width of this set's vectors in bits (0: scalar fallback).
    /// `newview_tt` and the π-weighted sum of `evaluate_classes_*`
    /// have one body at every width (see the module doc); all matrix
    /// work, `derivative_core` and, at 512 bits, `ln_block` run this
    /// wide.
    pub fn width_bits(&self) -> u32 {
        self.width_bits
    }
}

impl Kernels for SimdKernels {
    fn newview_tt(
        &self,
        lut_l: &Lut16x16,
        lut_r: &Lut16x16,
        codes_l: &[u8],
        codes_r: &[u8],
        out: &mut [f64],
        scale_out: &mut [u32],
    ) {
        ScalarKernels.newview_tt(lut_l, lut_r, codes_l, codes_r, out, scale_out)
    }

    fn newview_ti(
        &self,
        lut_l: &Lut16x16,
        codes_l: &[u8],
        p_r: &FusedPmat,
        v_r: &[f64],
        scale_r: &[u32],
        out: &mut [f64],
        scale_out: &mut [u32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.width_bits != 0 {
            assert_buf(v_r, scale_out.len(), "newview_ti v_r");
            assert_buf(out, scale_out.len(), "newview_ti out");
            // SAFETY: `at_width` hands out a nonzero width only with
            // AVX2+FMA detected, and 512 only with AVX-512F on top.
            return unsafe {
                if self.width_bits == 512 {
                    x86::w512::newview_ti(lut_l, codes_l, p_r, v_r, scale_r, out, scale_out)
                } else {
                    x86::newview_ti(lut_l, codes_l, p_r, v_r, scale_r, out, scale_out)
                }
            };
        }
        ScalarKernels.newview_ti(lut_l, codes_l, p_r, v_r, scale_r, out, scale_out)
    }

    fn newview_ii(
        &self,
        p_l: &FusedPmat,
        v_l: &[f64],
        scale_l: &[u32],
        p_r: &FusedPmat,
        v_r: &[f64],
        scale_r: &[u32],
        out: &mut [f64],
        scale_out: &mut [u32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.width_bits != 0 {
            assert_buf(v_l, scale_out.len(), "newview_ii v_l");
            assert_buf(v_r, scale_out.len(), "newview_ii v_r");
            assert_buf(out, scale_out.len(), "newview_ii out");
            // SAFETY: `at_width` hands out a nonzero width only with
            // AVX2+FMA detected, and 512 only with AVX-512F on top.
            return unsafe {
                if self.width_bits == 512 {
                    x86::w512::newview_ii(p_l, v_l, scale_l, p_r, v_r, scale_r, out, scale_out)
                } else {
                    x86::newview_ii(p_l, v_l, scale_l, p_r, v_r, scale_r, out, scale_out)
                }
            };
        }
        ScalarKernels.newview_ii(p_l, v_l, scale_l, p_r, v_r, scale_r, out, scale_out)
    }

    fn derivative_sum_ti(&self, basis: &EigenBasis, codes_q: &[u8], v_r: &[f64], out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if self.width_bits != 0 {
            let n = out.len() / SITE_STRIDE;
            assert_buf(v_r, n, "derivative_sum_ti v_r");
            assert_buf(out, n, "derivative_sum_ti out");
            // SAFETY: `at_width` hands out a nonzero width only with
            // AVX2+FMA detected, and 512 only with AVX-512F on top.
            return unsafe {
                if self.width_bits == 512 {
                    x86::w512::derivative_sum_ti(basis, codes_q, v_r, out)
                } else {
                    x86::derivative_sum_ti(basis, codes_q, v_r, out)
                }
            };
        }
        ScalarKernels.derivative_sum_ti(basis, codes_q, v_r, out)
    }

    fn derivative_sum_ii(&self, basis: &EigenBasis, v_q: &[f64], v_r: &[f64], out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if self.width_bits != 0 {
            let n = out.len() / SITE_STRIDE;
            assert_buf(v_q, n, "derivative_sum_ii v_q");
            assert_buf(v_r, n, "derivative_sum_ii v_r");
            assert_buf(out, n, "derivative_sum_ii out");
            // SAFETY: `at_width` hands out a nonzero width only with
            // AVX2+FMA detected, and 512 only with AVX-512F on top.
            return unsafe {
                if self.width_bits == 512 {
                    x86::w512::derivative_sum_ii(basis, v_q, v_r, out)
                } else {
                    x86::derivative_sum_ii(basis, v_q, v_r, out)
                }
            };
        }
        ScalarKernels.derivative_sum_ii(basis, v_q, v_r, out)
    }

    fn evaluate_classes_ti(
        &self,
        pi_tip: &Lut16x16,
        codes_q: &[u8],
        p: &FusedPmat,
        v_r: &[f64],
        out: &mut [f64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.width_bits != 0 {
            assert_buf(v_r, v_r.len() / SITE_STRIDE, "evaluate_classes_ti v_r");
            // SAFETY: `at_width` hands out a nonzero width only with
            // AVX2+FMA detected, and 512 only with AVX-512F on top.
            return unsafe {
                if self.width_bits == 512 {
                    x86::w512::evaluate_classes_ti(pi_tip, codes_q, p, v_r, out)
                } else {
                    x86::evaluate_classes_ti(pi_tip, codes_q, p, v_r, out)
                }
            };
        }
        ScalarKernels.evaluate_classes_ti(pi_tip, codes_q, p, v_r, out)
    }

    fn evaluate_classes_ii(
        &self,
        pi_w: &[f64; SITE_STRIDE],
        v_q: &[f64],
        p: &FusedPmat,
        v_r: &[f64],
        out: &mut [f64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.width_bits != 0 {
            assert_buf(v_q, v_q.len() / SITE_STRIDE, "evaluate_classes_ii v_q");
            assert_buf(v_r, v_r.len() / SITE_STRIDE, "evaluate_classes_ii v_r");
            // SAFETY: `at_width` hands out a nonzero width only with
            // AVX2+FMA detected, and 512 only with AVX-512F on top.
            return unsafe {
                if self.width_bits == 512 {
                    x86::w512::evaluate_classes_ii(pi_w, v_q, p, v_r, out)
                } else {
                    x86::evaluate_classes_ii(pi_w, v_q, p, v_r, out)
                }
            };
        }
        ScalarKernels.evaluate_classes_ii(pi_w, v_q, p, v_r, out)
    }

    fn derivative_core_classes(
        &self,
        sumtable: &[f64],
        lambda_rate: &[f64; SITE_STRIDE],
        t: f64,
        out: &mut [f64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.width_bits != 0 {
            assert_buf(sumtable, out.len() / 3, "derivative_core_classes sumtable");
            // SAFETY: `at_width` hands out a nonzero width only with
            // AVX2+FMA detected.
            return unsafe { x86::derivative_core_classes(sumtable, lambda_rate, t, out) };
        }
        ScalarKernels.derivative_core_classes(sumtable, lambda_rate, t, out)
    }

    fn derivative_core(
        &self,
        sumtable: &[f64],
        lambda_rate: &[f64; SITE_STRIDE],
        t: f64,
        weights: &[u32],
    ) -> (f64, f64) {
        #[cfg(target_arch = "x86_64")]
        if self.width_bits == 512 {
            assert_buf(sumtable, weights.len(), "derivative_core sumtable");
            // SAFETY: `at_width` hands out 512 only with AVX2, FMA and
            // AVX-512F detected.
            return unsafe { x86::w512::derivative_core(sumtable, lambda_rate, t, weights) };
        }
        derivative_core_two_phase(self, sumtable, lambda_rate, t, weights, (0.0, 0.0))
    }

    fn ln_block(&self, l: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if self.width_bits == 512 {
            // SAFETY: `at_width` hands out 512 only with AVX2, FMA and
            // AVX-512F detected.
            return unsafe { x86::w512::ln_block(l) };
        }
        ScalarKernels.ln_block(l)
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The kernel cores: what both widths share, the 256-bit bodies
    //! (`#[target_feature(enable = "avx2", enable = "fma")]`), and in
    //! [`w512`] the 512-bit bodies of the ops built on `matvec`.
    //! Callers must verify feature presence (see the trait impl
    //! above), which is what makes the `unsafe` call sites sound.

    use super::super::derivative_exp_tables;
    use crate::layout::{EigenBasis, FusedPmat, Lut16x16};
    use crate::scaling::{scale_site, SCALE_THRESHOLD};
    use crate::{NUM_RATES, NUM_STATES, SITE_STRIDE};
    use core::arch::x86_64::{
        __m256d, _mm256_castpd256_pd128, _mm256_cmp_pd, _mm256_extractf128_pd, _mm256_fmadd_pd,
        _mm256_loadu_pd, _mm256_movemask_pd, _mm256_mul_pd, _mm256_or_pd, _mm256_set1_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm_add_pd, _mm_add_sd, _mm_cvtsd_f64, _mm_prefetch,
        _mm_unpackhi_pd, _CMP_GE_OQ, _MM_HINT_T0,
    };

    /// How many sites ahead the input CLA prefetches run. One site is
    /// 128 bytes (two cache lines); 8 sites ≈ 1 KiB of lookahead, far
    /// enough to cover the FMA latency of the current site at DRAM
    /// bandwidth without thrashing L1.
    const PREFETCH_SITES: usize = 8;

    /// One site's 16 doubles on the stack: where a site below the
    /// underflow threshold waits for the scaling rule. 64-byte aligned
    /// so the round-trip uses fully aligned vector moves.
    #[repr(align(64))]
    struct SiteBuf([f64; SITE_STRIDE]);

    /// Loads lanes `[at, at + 4)` of a site row.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn load4(row: &[f64], at: usize) -> __m256d {
        let s = &row[at..at + 4];
        // SAFETY: the slice bounds-check above proves 4 readable f64s.
        unsafe { _mm256_loadu_pd(s.as_ptr()) }
    }

    /// Stores `v` to lanes `[at, at + 4)` of a site row.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn store4(row: &mut [f64], at: usize, v: __m256d) {
        let s = &mut row[at..at + 4];
        // SAFETY: the slice bounds-check above proves 4 writable f64s.
        unsafe { _mm256_storeu_pd(s.as_mut_ptr(), v) }
    }

    /// Prefetches site `site` of `buf` (both of its cache lines) into
    /// L1. Runs unconditionally near the end of the buffer: prefetch
    /// never faults and the address is not dereferenced (`_mm_prefetch`
    /// is documented to accept invalid pointers), so `wrapping_add`
    /// past the end is fine.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn prefetch_site(buf: &[f64], site: usize) {
        // Prefetch hints never fault and do not dereference, so the
        // possibly-past-the-end address is fine (`_mm_prefetch` is
        // documented to accept invalid pointers).
        let p = buf.as_ptr().wrapping_add(site * SITE_STRIDE);
        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
        _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(8) as *const i8);
    }

    /// Horizontal sum of 4 lanes.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn hsum(v: __m256d) -> f64 {
        let hi = _mm256_extractf128_pd(v, 1);
        let lo = _mm256_castpd256_pd128(v);
        let s = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
    }

    /// One site row as its four rate-category blocks.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn load_site(row: &[f64]) -> [__m256d; NUM_RATES] {
        [load4(row, 0), load4(row, 4), load4(row, 8), load4(row, 12)]
    }

    /// The paper's fused 16-wide matrix application (§V-B3) on 4×f64
    /// lanes: lane block `k` is rate category `k`, and
    /// `acc[k] = Σ_b cols[b][4k..4k+4] · v[4k + b]` runs as four
    /// independent FMA accumulator chains — the 16-wide MIC loop split
    /// across four AVX2 registers. Also serves the eigen-basis
    /// projections, whose tables share the `[input][m]` fused layout.
    /// Sixteen `ymm` registers cannot hold a matrix, so its columns
    /// and the broadcasts of `v` are re-read from L1 at every site.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn matvec(cols: &[[f64; SITE_STRIDE]; NUM_STATES], v: &[f64]) -> [__m256d; NUM_RATES] {
        let mut acc = [_mm256_setzero_pd(); NUM_RATES];
        for (b, col) in cols.iter().enumerate() {
            for (k, a) in acc.iter_mut().enumerate() {
                let x = _mm256_set1_pd(v[4 * k + b]);
                *a = _mm256_fmadd_pd(load4(col, 4 * k), x, *a);
            }
        }
        acc
    }

    /// Writes one site's four blocks to `site`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn write_site(acc: [__m256d; NUM_RATES], site: &mut [f64]) {
        for (k, &a) in acc.iter().enumerate() {
            store4(site, 4 * k, a);
        }
    }

    /// Finishes one `newview` site: writes the 16 accumulated values
    /// to `out` exactly once and returns the site's scaling bump. The
    /// question [`scale_site`] asks first — is any entry at or above
    /// 2⁻²⁵⁶ — is answered on the accumulators (an ordered compare: a
    /// NaN lane is not "above"), and a yes writes the site untouched.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn finish_site(acc: [__m256d; NUM_RATES], out: &mut [f64]) -> u32 {
        let threshold = _mm256_set1_pd(SCALE_THRESHOLD);
        let mut above = _mm256_cmp_pd::<_CMP_GE_OQ>(acc[0], threshold);
        for &a in &acc[1..] {
            above = _mm256_or_pd(above, _mm256_cmp_pd::<_CMP_GE_OQ>(a, threshold));
        }
        if _mm256_movemask_pd(above) != 0 {
            write_site(acc, out);
            return 0;
        }
        let mut site = SiteBuf([0.0; SITE_STRIDE]);
        for (k, &a) in acc.iter().enumerate() {
            store4(&mut site.0, 4 * k, a);
        }
        rescale_site(&mut site, out)
    }

    /// The cold finish of both widths: a site with no entry at or
    /// above the threshold goes through the shared scaling rule —
    /// which rescales it, leaves an all-zero site alone, or refuses
    /// corrupted data — on the stack, and is then written like any
    /// other.
    #[cold]
    #[inline(never)]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn rescale_site(site: &mut SiteBuf, out: &mut [f64]) -> u32 {
        let bumps = scale_site(&mut site.0);
        write_site(load_site(&site.0), out);
        bumps
    }

    /// The π-weighted tail of `evaluate` at one site: `Σ_m w[m]·x[m]`
    /// summed over `k` inside each lane, then across the four lanes.
    /// That order is why the tail is 256 bits wide at either width.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn weighted_sum(w: [__m256d; NUM_RATES], x: [__m256d; NUM_RATES]) -> f64 {
        let mut acc = _mm256_setzero_pd();
        for (&wk, &xk) in w.iter().zip(&x) {
            acc = _mm256_fmadd_pd(wk, xk, acc);
        }
        hsum(acc)
    }

    /// `pi_w[m] · v_q[m]`: the weights of [`weighted_sum`] when the
    /// virtual root's left end is an inner node.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn root_weights(pi_w: &[f64; SITE_STRIDE], vq: &[f64]) -> [__m256d; NUM_RATES] {
        let ([p0, p1, p2, p3], [q0, q1, q2, q3]) = (load_site(pi_w), load_site(vq));
        [
            _mm256_mul_pd(p0, q0),
            _mm256_mul_pd(p1, q1),
            _mm256_mul_pd(p2, q2),
            _mm256_mul_pd(p3, q3),
        ]
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn newview_ti(
        lut_l: &Lut16x16,
        codes_l: &[u8],
        p_r: &FusedPmat,
        v_r: &[f64],
        scale_r: &[u32],
        out: &mut [f64],
        scale_out: &mut [u32],
    ) {
        let sites = out
            .chunks_exact_mut(SITE_STRIDE)
            .zip(v_r.chunks_exact(SITE_STRIDE));
        for (i, (site, vr)) in sites.enumerate() {
            prefetch_site(v_r, i + PREFETCH_SITES);
            let l = &lut_l.rows[codes_l[i] as usize];
            let mut acc = matvec(&p_r.cols, vr);
            for (k, a) in acc.iter_mut().enumerate() {
                *a = _mm256_mul_pd(load4(l, 4 * k), *a);
            }
            scale_out[i] = scale_r[i] + finish_site(acc, site);
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn newview_ii(
        p_l: &FusedPmat,
        v_l: &[f64],
        scale_l: &[u32],
        p_r: &FusedPmat,
        v_r: &[f64],
        scale_r: &[u32],
        out: &mut [f64],
        scale_out: &mut [u32],
    ) {
        let inputs = v_l
            .chunks_exact(SITE_STRIDE)
            .zip(v_r.chunks_exact(SITE_STRIDE));
        for (i, (site, (vl, vr))) in out.chunks_exact_mut(SITE_STRIDE).zip(inputs).enumerate() {
            prefetch_site(v_l, i + PREFETCH_SITES);
            prefetch_site(v_r, i + PREFETCH_SITES);
            let l = matvec(&p_l.cols, vl);
            let mut acc = matvec(&p_r.cols, vr);
            for (k, a) in acc.iter_mut().enumerate() {
                *a = _mm256_mul_pd(l[k], *a);
            }
            scale_out[i] = scale_l[i] + scale_r[i] + finish_site(acc, site);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn derivative_sum_ti(
        basis: &EigenBasis,
        codes_q: &[u8],
        v_r: &[f64],
        out: &mut [f64],
    ) {
        let sites = out
            .chunks_exact_mut(SITE_STRIDE)
            .zip(v_r.chunks_exact(SITE_STRIDE));
        for (i, (site, vr)) in sites.enumerate() {
            prefetch_site(v_r, i + PREFETCH_SITES);
            let le = &basis.tip_left.rows[codes_q[i] as usize];
            let mut acc = matvec(&basis.uinv, vr);
            for (k, a) in acc.iter_mut().enumerate() {
                *a = _mm256_mul_pd(load4(le, 4 * k), *a);
            }
            // No scaling rule here: sumtables are branch-invariant
            // intermediates, not CLAs.
            write_site(acc, site);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn derivative_sum_ii(basis: &EigenBasis, v_q: &[f64], v_r: &[f64], out: &mut [f64]) {
        let inputs = v_q
            .chunks_exact(SITE_STRIDE)
            .zip(v_r.chunks_exact(SITE_STRIDE));
        for (i, (site, (vq, vr))) in out.chunks_exact_mut(SITE_STRIDE).zip(inputs).enumerate() {
            prefetch_site(v_q, i + PREFETCH_SITES);
            prefetch_site(v_r, i + PREFETCH_SITES);
            let le = matvec(&basis.piu, vq);
            let mut acc = matvec(&basis.uinv, vr);
            for (k, a) in acc.iter_mut().enumerate() {
                *a = _mm256_mul_pd(le[k], *a);
            }
            write_site(acc, site);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn evaluate_classes_ti(
        pi_tip: &Lut16x16,
        codes_q: &[u8],
        p: &FusedPmat,
        v_r: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(v_r.len(), out.len() * SITE_STRIDE);
        let inputs = codes_q.iter().zip(v_r.chunks_exact(SITE_STRIDE));
        for (i, (slot, (&code, vr))) in out.iter_mut().zip(inputs).enumerate() {
            prefetch_site(v_r, i + PREFETCH_SITES);
            let piq = &pi_tip.rows[code as usize];
            *slot = weighted_sum(load_site(piq), matvec(&p.cols, vr));
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn evaluate_classes_ii(
        pi_w: &[f64; SITE_STRIDE],
        v_q: &[f64],
        p: &FusedPmat,
        v_r: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(v_r.len(), out.len() * SITE_STRIDE);
        let inputs = v_q
            .chunks_exact(SITE_STRIDE)
            .zip(v_r.chunks_exact(SITE_STRIDE));
        for (i, (slot, (vq, vr))) in out.iter_mut().zip(inputs).enumerate() {
            prefetch_site(v_q, i + PREFETCH_SITES);
            prefetch_site(v_r, i + PREFETCH_SITES);
            *slot = weighted_sum(root_weights(pi_w, vq), matvec(&p.cols, vr));
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn derivative_core_classes(
        sumtable: &[f64],
        lambda_rate: &[f64; SITE_STRIDE],
        t: f64,
        out: &mut [f64],
    ) {
        let n = out.len() / 3;
        debug_assert_eq!(sumtable.len(), n * SITE_STRIDE);
        let (e, d1, d2) = derivative_exp_tables(lambda_rate, t);
        let (ev, d1v, d2v) = (load_site(&e[..]), load_site(&d1[..]), load_site(&d2[..]));
        // Phase 1 of `derivative_core` over contiguous columns; the
        // provided method folds the ratio/weight tail in site order.
        for c in 0..n {
            prefetch_site(sumtable, c + PREFETCH_SITES);
            let sv = &sumtable[c * SITE_STRIDE..(c + 1) * SITE_STRIDE];
            let mut al = _mm256_setzero_pd();
            let mut al1 = _mm256_setzero_pd();
            let mut al2 = _mm256_setzero_pd();
            for k in 0..NUM_RATES {
                let x = load4(sv, 4 * k);
                al = _mm256_fmadd_pd(x, ev[k], al);
                al1 = _mm256_fmadd_pd(x, d1v[k], al1);
                al2 = _mm256_fmadd_pd(x, d2v[k], al2);
            }
            out[3 * c] = hsum(al);
            out[3 * c + 1] = hsum(al1);
            out[3 * c + 2] = hsum(al2);
        }
    }

    pub(super) mod w512 {
        //! The 512-bit bodies (AVX-512F) of the ops built on `matvec`.
        //! A site is two vectors — half `h` holds rate categories
        //! `2h, 2h+1`, lane `j` of it is `m = 8h + j` — and a matrix
        //! is eight registers, loaded once per call.

        use super::{
            derivative_exp_tables, prefetch_site, rescale_site, root_weights, weighted_sum,
            SiteBuf, PREFETCH_SITES,
        };
        use crate::kernels::ln::{ln, LG1, LG2, LG3, LG4, LG5, LG6, LG7, LN2_HI, LN2_LO, SQRT_2};
        use crate::layout::{EigenBasis, FusedPmat, Lut16x16};
        use crate::scaling::SCALE_THRESHOLD;
        use crate::{NUM_RATES, NUM_STATES, SITE_STRIDE};
        use core::arch::x86_64::{
            __m256d, __m512d, _mm256_loadu_si256, _mm512_add_pd, _mm512_broadcast_f64x4,
            _mm512_castpd256_pd512, _mm512_castpd512_pd256, _mm512_cmp_pd_mask, _mm512_cvtepu32_pd,
            _mm512_div_pd, _mm512_extractf64x4_pd, _mm512_fmadd_pd, _mm512_getexp_pd,
            _mm512_getmant_pd, _mm512_insertf64x4, _mm512_loadu_pd, _mm512_mask_add_pd,
            _mm512_mask_mul_pd, _mm512_max_pd, _mm512_mul_pd, _mm512_permutex_pd, _mm512_set1_pd,
            _mm512_setzero_pd, _mm512_shuffle_f64x2, _mm512_storeu_pd, _mm512_sub_pd,
            _mm512_unpackhi_pd, _mm512_unpacklo_pd, _CMP_GE_OQ, _CMP_LE_OQ, _CMP_NGE_UQ,
            _MM_MANT_NORM_1_2, _MM_MANT_SIGN_ZERO,
        };

        /// One site: `[rates 0-1, rates 2-3]`.
        type Site = [__m512d; 2];

        /// One fused 16×4 matrix in registers: `[input state b][half]`.
        type Matrix = [Site; NUM_STATES];

        /// Loads lanes `[at, at + 8)` of a site row.
        #[inline]
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        fn load8(row: &[f64], at: usize) -> __m512d {
            let s = &row[at..at + 8];
            // SAFETY: the slice bounds-check above proves 8 readable f64s.
            unsafe { _mm512_loadu_pd(s.as_ptr()) }
        }

        /// Stores `v` to lanes `[at, at + 8)` of a site row.
        #[inline]
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        fn store8(row: &mut [f64], at: usize, v: __m512d) {
            let s = &mut row[at..at + 8];
            // SAFETY: the slice bounds-check above proves 8 writable f64s.
            unsafe { _mm512_storeu_pd(s.as_mut_ptr(), v) }
        }

        #[inline]
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        fn load_site(row: &[f64]) -> Site {
            [load8(row, 0), load8(row, 8)]
        }

        /// Lifts a matrix into registers: 8 of the 32 `zmm`, so two of
        /// them (`newview_ii`) still leave room for a site's inputs and
        /// accumulators.
        #[inline]
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        fn load_matrix([c0, c1, c2, c3]: &[[f64; SITE_STRIDE]; NUM_STATES]) -> Matrix {
            [load_site(c0), load_site(c1), load_site(c2), load_site(c3)]
        }

        /// [`super::matvec`] at 512 bits. `permutex::<b·0x55>` copies
        /// element `b` of each 256-bit half across that half, i.e.
        /// `v[4k + b]` across rate category `k` — the broadcast the
        /// 256-bit body loads from memory. Lane for lane the same FMA
        /// chain (`b = 0..3` from zero), hence the same bits.
        #[inline]
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        fn matvec(m: &Matrix, v: Site) -> Site {
            let mut acc = [_mm512_setzero_pd(); 2];
            for (h, a) in acc.iter_mut().enumerate() {
                *a = _mm512_fmadd_pd(m[0][h], _mm512_permutex_pd::<0x00>(v[h]), *a);
                *a = _mm512_fmadd_pd(m[1][h], _mm512_permutex_pd::<0x55>(v[h]), *a);
                *a = _mm512_fmadd_pd(m[2][h], _mm512_permutex_pd::<0xAA>(v[h]), *a);
                *a = _mm512_fmadd_pd(m[3][h], _mm512_permutex_pd::<0xFF>(v[h]), *a);
            }
            acc
        }

        #[inline]
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        fn mul([a0, a1]: Site, [b0, b1]: Site) -> Site {
            [_mm512_mul_pd(a0, b0), _mm512_mul_pd(a1, b1)]
        }

        /// The four rate-category blocks of a site, for the 256-bit
        /// tail of `evaluate`.
        #[inline]
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        fn blocks([lo, hi]: Site) -> [__m256d; NUM_RATES] {
            [
                _mm512_castpd512_pd256(lo),
                _mm512_extractf64x4_pd::<1>(lo),
                _mm512_castpd512_pd256(hi),
                _mm512_extractf64x4_pd::<1>(hi),
            ]
        }

        #[inline]
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        fn write_site(acc: Site, site: &mut [f64]) {
            for (h, &a) in acc.iter().enumerate() {
                store8(site, 8 * h, a);
            }
        }

        /// [`super::finish_site`] at 512 bits: the threshold test is
        /// two mask compares, the cold path is the shared one.
        #[inline]
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        fn finish_site(acc: Site, out: &mut [f64]) -> u32 {
            let threshold = _mm512_set1_pd(SCALE_THRESHOLD);
            let above = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(acc[0], threshold)
                | _mm512_cmp_pd_mask::<_CMP_GE_OQ>(acc[1], threshold);
            if above != 0 {
                write_site(acc, out);
                return 0;
            }
            let mut site = SiteBuf([0.0; SITE_STRIDE]);
            store8(&mut site.0, 0, acc[0]);
            store8(&mut site.0, 8, acc[1]);
            rescale_site(&mut site, out)
        }

        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        pub(in super::super) fn newview_ti(
            lut_l: &Lut16x16,
            codes_l: &[u8],
            p_r: &FusedPmat,
            v_r: &[f64],
            scale_r: &[u32],
            out: &mut [f64],
            scale_out: &mut [u32],
        ) {
            let p_r = load_matrix(&p_r.cols);
            let sites = out
                .chunks_exact_mut(SITE_STRIDE)
                .zip(v_r.chunks_exact(SITE_STRIDE));
            for (i, (site, vr)) in sites.enumerate() {
                prefetch_site(v_r, i + PREFETCH_SITES);
                let l = load_site(&lut_l.rows[codes_l[i] as usize]);
                let acc = mul(l, matvec(&p_r, load_site(vr)));
                scale_out[i] = scale_r[i] + finish_site(acc, site);
            }
        }

        #[allow(clippy::too_many_arguments)]
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        pub(in super::super) fn newview_ii(
            p_l: &FusedPmat,
            v_l: &[f64],
            scale_l: &[u32],
            p_r: &FusedPmat,
            v_r: &[f64],
            scale_r: &[u32],
            out: &mut [f64],
            scale_out: &mut [u32],
        ) {
            let (p_l, p_r) = (load_matrix(&p_l.cols), load_matrix(&p_r.cols));
            let inputs = v_l
                .chunks_exact(SITE_STRIDE)
                .zip(v_r.chunks_exact(SITE_STRIDE));
            for (i, (site, (vl, vr))) in out.chunks_exact_mut(SITE_STRIDE).zip(inputs).enumerate() {
                prefetch_site(v_l, i + PREFETCH_SITES);
                prefetch_site(v_r, i + PREFETCH_SITES);
                let acc = mul(matvec(&p_l, load_site(vl)), matvec(&p_r, load_site(vr)));
                scale_out[i] = scale_l[i] + scale_r[i] + finish_site(acc, site);
            }
        }

        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        pub(in super::super) fn derivative_sum_ti(
            basis: &EigenBasis,
            codes_q: &[u8],
            v_r: &[f64],
            out: &mut [f64],
        ) {
            let uinv = load_matrix(&basis.uinv);
            let sites = out
                .chunks_exact_mut(SITE_STRIDE)
                .zip(v_r.chunks_exact(SITE_STRIDE));
            for (i, (site, vr)) in sites.enumerate() {
                prefetch_site(v_r, i + PREFETCH_SITES);
                let le = load_site(&basis.tip_left.rows[codes_q[i] as usize]);
                write_site(mul(le, matvec(&uinv, load_site(vr))), site);
            }
        }

        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        pub(in super::super) fn derivative_sum_ii(
            basis: &EigenBasis,
            v_q: &[f64],
            v_r: &[f64],
            out: &mut [f64],
        ) {
            let (piu, uinv) = (load_matrix(&basis.piu), load_matrix(&basis.uinv));
            let inputs = v_q
                .chunks_exact(SITE_STRIDE)
                .zip(v_r.chunks_exact(SITE_STRIDE));
            for (i, (site, (vq, vr))) in out.chunks_exact_mut(SITE_STRIDE).zip(inputs).enumerate() {
                prefetch_site(v_q, i + PREFETCH_SITES);
                prefetch_site(v_r, i + PREFETCH_SITES);
                let acc = mul(matvec(&piu, load_site(vq)), matvec(&uinv, load_site(vr)));
                write_site(acc, site);
            }
        }

        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        pub(in super::super) fn evaluate_classes_ti(
            pi_tip: &Lut16x16,
            codes_q: &[u8],
            p: &FusedPmat,
            v_r: &[f64],
            out: &mut [f64],
        ) {
            debug_assert_eq!(v_r.len(), out.len() * SITE_STRIDE);
            let p = load_matrix(&p.cols);
            let inputs = codes_q.iter().zip(v_r.chunks_exact(SITE_STRIDE));
            for (i, (slot, (&code, vr))) in out.iter_mut().zip(inputs).enumerate() {
                prefetch_site(v_r, i + PREFETCH_SITES);
                let piq = super::load_site(&pi_tip.rows[code as usize]);
                *slot = weighted_sum(piq, blocks(matvec(&p, load_site(vr))));
            }
        }

        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        pub(in super::super) fn evaluate_classes_ii(
            pi_w: &[f64; SITE_STRIDE],
            v_q: &[f64],
            p: &FusedPmat,
            v_r: &[f64],
            out: &mut [f64],
        ) {
            debug_assert_eq!(v_r.len(), out.len() * SITE_STRIDE);
            let p = load_matrix(&p.cols);
            let inputs = v_q
                .chunks_exact(SITE_STRIDE)
                .zip(v_r.chunks_exact(SITE_STRIDE));
            for (i, (slot, (vq, vr))) in out.iter_mut().zip(inputs).enumerate() {
                prefetch_site(v_q, i + PREFETCH_SITES);
                prefetch_site(v_r, i + PREFETCH_SITES);
                *slot = weighted_sum(root_weights(pi_w, vq), blocks(matvec(&p, load_site(vr))));
            }
        }

        /// The three exponential tables of `derivativeCore` (`e`, `d1`,
        /// `d2`), rate category `k` of each in both 256-bit halves.
        type Tables = [[__m512d; NUM_RATES]; 3];

        /// One value per quantity (`ℓ`, `ℓ'`, `ℓ''`) for sites side by side.
        type Triple = [__m512d; 3];

        /// [`derivative_exp_tables`] at `t`, as [`Tables`].
        #[inline]
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        fn tables(lambda_rate: &[f64; SITE_STRIDE], t: f64) -> Tables {
            let mut out = [[_mm512_setzero_pd(); NUM_RATES]; 3];
            let (e, d1, d2) = derivative_exp_tables(lambda_rate, t);
            for (tab, row) in out.iter_mut().zip([e, d1, d2]) {
                for (k, v) in tab.iter_mut().enumerate() {
                    *v = _mm512_broadcast_f64x4(super::load4(&row, 4 * k));
                }
            }
            out
        }

        /// Phase 1 of `derivativeCore` for columns `a` (low half) and
        /// `b` (high half) of `cols`: per lane the 256-bit body's three
        /// FMA chains over `k = 0..3` from zero, not yet reduced.
        #[inline]
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        fn chains(cols: &[f64], a: usize, b: usize, tables: &Tables) -> Triple {
            let mut acc = [_mm512_setzero_pd(); 3];
            for k in 0..NUM_RATES {
                let lo = super::load4(cols, a * SITE_STRIDE + 4 * k);
                let hi = super::load4(cols, b * SITE_STRIDE + 4 * k);
                let x = _mm512_insertf64x4::<1>(_mm512_castpd256_pd512(lo), hi);
                for (acc, tab) in acc.iter_mut().zip(tables) {
                    *acc = _mm512_fmadd_pd(x, tab[k], *acc);
                }
            }
            acc
        }

        /// The first step of `hsum` on the four sites of `p` and `q`:
        /// lanes `(x0 + x2, x1 + x3)` of each, in the order p's low
        /// half, p's high half, q's low half, q's high half.
        #[inline]
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        fn fold(p: Triple, q: Triple) -> Triple {
            let mut out = p;
            for (o, (a, b)) in out.iter_mut().zip(p.into_iter().zip(q)) {
                // 128-bit chunks 0, 2 of `a`, then of `b`; and 1, 3.
                let x01 = _mm512_shuffle_f64x2::<0b10_00_10_00>(a, b);
                let x23 = _mm512_shuffle_f64x2::<0b11_01_11_01>(a, b);
                *o = _mm512_add_pd(x01, x23);
            }
            out
        }

        /// The second step of `hsum`, `(x0 + x2) + (x1 + x3)`, on the
        /// folds of sites 0, 2, 4, 6 (`even`) and 1, 3, 5, 7 (`odd`):
        /// one value per site, lane `j` = site `j`.
        #[inline]
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        fn sites_in_order(even: Triple, odd: Triple) -> Triple {
            let mut out = even;
            for (o, (ev, od)) in out.iter_mut().zip(even.into_iter().zip(odd)) {
                *o = _mm512_add_pd(_mm512_unpacklo_pd(ev, od), _mm512_unpackhi_pd(ev, od));
            }
            out
        }

        /// Eight pattern weights as doubles (every `u32` is one exactly).
        #[inline]
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        fn weights8(w: &[u32]) -> __m512d {
            let w = &w[..8];
            // SAFETY: the slice bounds-check above proves 8 readable
            // u32s, the 32 bytes of an unaligned 256-bit load.
            _mm512_cvtepu32_pd(unsafe { _mm256_loadu_si256(w.as_ptr().cast()) })
        }

        /// `derivativeCore`, fused: phase 1 and the ratio/weight tail of
        /// 8 sites a step in vector registers, `(dlnl, d2lnl)` summed in
        /// site order. The last `n mod 8` sites take one more step from
        /// an 8-site copy padded with zero columns, whose padding lanes
        /// are left out of the sums.
        ///
        /// Lane for lane it computes what the 256-bit phase 1 and the
        /// provided tail compute: three FMA chains over `k = 0..3` from
        /// zero, each site's four lanes reduced as `(x0 + x2) + (x1 +
        /// x3)` (`hsum`'s order), then `ℓ = max(ℓ, MIN_POSITIVE)`,
        /// `r1 = ℓ'/ℓ` and `r2 = ℓ''/ℓ − r1·r1` (no FMA), each times the
        /// weight, added to the sums in site order — the same bits.
        /// A register holds sites `c` and `c + 2`, so that the two
        /// reduction steps leave the 8 sites in order with no gather.
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        pub(in super::super) fn derivative_core(
            sumtable: &[f64],
            lambda_rate: &[f64; SITE_STRIDE],
            t: f64,
            weights: &[u32],
        ) -> (f64, f64) {
            let tables = tables(lambda_rate, t);
            let mut sums = (0.0, 0.0);
            let mut steps = sumtable.chunks_exact(8 * SITE_STRIDE);
            let mut step_weights = weights.chunks_exact(8);
            for (i, (cols, w)) in (&mut steps).zip(&mut step_weights).enumerate() {
                for site in 8 * i..8 * i + 8 {
                    prefetch_site(sumtable, site + PREFETCH_SITES);
                }
                derivative_step(cols, w, &tables, 8, &mut sums);
            }
            let rest = step_weights.remainder();
            if !rest.is_empty() {
                let mut cols = [0.0; 8 * SITE_STRIDE];
                let mut w = [0; 8];
                cols[..steps.remainder().len()].copy_from_slice(steps.remainder());
                w[..rest.len()].copy_from_slice(rest);
                derivative_step(&cols, &w, &tables, rest.len(), &mut sums);
            }
            sums
        }

        /// One step of [`derivative_core`] over the 8 columns of `cols`:
        /// adds the weighted ratios of the first `used` sites to `sums`.
        #[inline]
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        fn derivative_step(
            cols: &[f64],
            w: &[u32],
            tables: &Tables,
            used: usize,
            (dlnl, d2lnl): &mut (f64, f64),
        ) {
            let even = fold(chains(cols, 0, 2, tables), chains(cols, 4, 6, tables));
            let odd = fold(chains(cols, 1, 3, tables), chains(cols, 5, 7, tables));
            let [l, l1, l2] = sites_in_order(even, odd);
            debug_assert_eq!(
                _mm512_cmp_pd_mask::<_CMP_NGE_UQ>(l, _mm512_setzero_pd()),
                0,
                "negative site likelihood"
            );
            let l = _mm512_max_pd(l, _mm512_set1_pd(f64::MIN_POSITIVE));
            let ratio1 = _mm512_div_pd(l1, l);
            let ratio2 = _mm512_sub_pd(_mm512_div_pd(l2, l), _mm512_mul_pd(ratio1, ratio1));
            let w = weights8(w);
            let (mut d1, mut d2) = ([0.0; 8], [0.0; 8]);
            store8(&mut d1, 0, _mm512_mul_pd(w, ratio1));
            store8(&mut d2, 0, _mm512_mul_pd(w, ratio2));
            for (a, b) in d1.into_iter().zip(d2).take(used) {
                *dlnl += a;
                *d2lnl += b;
            }
        }

        /// [`super::super::Kernels::ln_block`], 8 lanes at a time: the
        /// scalar `ln`'s operations in its order, with `getmant` and
        /// `getexp` (both exact) splitting `x = 2^e · m`. A group with
        /// an entry outside the normal positive range, and the last
        /// `n mod 8` entries, take the scalar `ln` itself.
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        pub(in super::super) fn ln_block(l: &mut [f64]) {
            let (lo, hi) = (_mm512_set1_pd(f64::MIN_POSITIVE), _mm512_set1_pd(f64::MAX));
            let mut groups = l.chunks_exact_mut(8);
            for group in &mut groups {
                let x = load8(group, 0);
                let normal = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(x, lo)
                    & _mm512_cmp_pd_mask::<_CMP_LE_OQ>(x, hi);
                if normal == 0xFF {
                    store8(group, 0, ln8(x));
                } else {
                    group.iter_mut().for_each(|v| *v = ln(*v));
                }
            }
            groups.into_remainder().iter_mut().for_each(|v| *v = ln(*v));
        }

        /// `ln` of 8 normal positive doubles.
        #[inline]
        #[target_feature(enable = "avx2", enable = "fma", enable = "avx512f")]
        fn ln8(x: __m512d) -> __m512d {
            let c = _mm512_set1_pd;
            let (add, sub, mul) = (_mm512_add_pd, _mm512_sub_pd, _mm512_mul_pd);
            let m = _mm512_getmant_pd::<_MM_MANT_NORM_1_2, _MM_MANT_SIGN_ZERO>(x);
            let e = _mm512_getexp_pd(x);
            let halve = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(m, c(SQRT_2));
            let m = _mm512_mask_mul_pd(m, halve, m, c(0.5));
            let e = _mm512_mask_add_pd(e, halve, e, c(1.0));
            let f = sub(m, c(1.0));
            let s = _mm512_div_pd(f, add(c(2.0), f));
            let z = mul(s, s);
            let w = mul(z, z);
            let t1 = mul(w, add(c(LG2), mul(w, add(c(LG4), mul(w, c(LG6))))));
            let t2 = add(c(LG5), mul(w, c(LG7)));
            let t2 = mul(z, add(c(LG1), mul(w, add(c(LG3), mul(w, t2)))));
            let r = add(t2, t1);
            let hfsq = mul(mul(c(0.5), f), f);
            let inner = sub(hfsq, add(mul(s, add(hfsq, r)), mul(e, c(LN2_LO))));
            sub(mul(e, c(LN2_HI)), sub(inner, f))
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::super::KernelKind;
    use super::*;
    use crate::scaling::{SCALE_FACTOR, SCALE_THRESHOLD};
    use crate::{AlignedVec, NUM_STATES};

    /// Deterministic pseudo-random doubles in `(lo, hi)` (xorshift64*;
    /// no external RNG needed for unit smoke tests).
    fn fill(buf: &mut [f64], seed: u64, lo: f64, hi: f64) {
        let mut s = seed | 1;
        for v in buf.iter_mut() {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            let u = (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64;
            *v = lo + u * (hi - lo);
        }
    }

    fn model(alpha: f64) -> (phylo_models::Gtr, [f64; 4]) {
        use phylo_models::{DiscreteGamma, Gtr, GtrParams};
        let g = Gtr::new(GtrParams {
            rates: [1.2, 2.9, 0.8, 1.1, 3.5, 1.0],
            freqs: [0.28, 0.22, 0.21, 0.29],
        });
        (g, *DiscreteGamma::new(alpha).rates())
    }

    fn pmat_at(alpha: f64, t: f64) -> FusedPmat {
        let (g, rates) = model(alpha);
        FusedPmat::from_prob(&phylo_models::ProbMatrix::new(g.eigen(), &rates, t))
    }

    fn pmat(t: f64) -> FusedPmat {
        pmat_at(0.7, t)
    }

    /// The explicit-SIMD sets this host can run, widest first, after
    /// printing which widths the test has to skip.
    pub(crate) fn widths_under_test() -> Vec<&'static SimdKernels> {
        [512, 256]
            .into_iter()
            .filter_map(|bits| {
                let set = SimdKernels::at_width(bits);
                if set.is_none() {
                    println!("skipping the {bits}-bit bodies: this host cannot run them");
                }
                set
            })
            .collect()
    }

    #[test]
    fn simd_matches_scalar_on_newview_ii_including_scaling() {
        // Values spanning down to 1e-50 force some (not all) sites
        // through the underflow-scaling path.
        for n in [1usize, 7, 8, 9, 31] {
            let mut vl = AlignedVec::zeroed(n * SITE_STRIDE);
            let mut vr = AlignedVec::zeroed(n * SITE_STRIDE);
            fill(&mut vl, 11, 1e-50, 1.0);
            fill(&mut vr, 13, 1e-50, 1.0);
            let scale = vec![1u32; n];
            let (pl, pr) = (pmat(0.23), pmat(0.11));
            let run = |kind: KernelKind| {
                let mut out = AlignedVec::zeroed(n * SITE_STRIDE);
                let mut sc = vec![0u32; n];
                kind.kernels()
                    .newview_ii(&pl, &vl, &scale, &pr, &vr, &scale, &mut out, &mut sc);
                (out, sc)
            };
            let (ov, sv) = run(KernelKind::Scalar);
            let (os, ss) = run(KernelKind::Simd);
            assert_eq!(sv, ss, "n={n}: scaling counters must be bit-identical");
            for (a, b) in ov.iter().zip(os.iter()) {
                assert!(
                    (a - b).abs() <= 1e-12 * (1.0 + a.abs()),
                    "n={n}: {a} vs {b}"
                );
            }
        }
    }

    /// What the ops with a body per width write for one input.
    struct Outputs {
        newview_ti: (AlignedVec, Vec<u32>),
        newview_ii: (AlignedVec, Vec<u32>),
        sum_ti: AlignedVec,
        sum_ii: AlignedVec,
        eval_ti: Vec<f64>,
        eval_ii: Vec<f64>,
        /// The logL of `evaluate_ti` and `evaluate_ii`, whose tail runs
        /// `ln_block`.
        evaluate: [f64; 2],
        /// `(dlnl, d2lnl)` over `sum_ii`.
        core: [f64; 2],
    }

    impl Outputs {
        /// `(op, values, scaling counters)` for comparisons.
        fn parts(&self) -> [(&'static str, &[f64], &[u32]); 8] {
            [
                ("newview_ti", &self.newview_ti.0, &self.newview_ti.1),
                ("newview_ii", &self.newview_ii.0, &self.newview_ii.1),
                ("derivative_sum_ti", &self.sum_ti, &[]),
                ("derivative_sum_ii", &self.sum_ii, &[]),
                ("evaluate_classes_ti", &self.eval_ti, &[]),
                ("evaluate_classes_ii", &self.eval_ii, &[]),
                ("evaluate", &self.evaluate, &[]),
                ("derivative_core", &self.core, &[]),
            ]
        }
    }

    /// Runs the ops over `n` sites of a fixed pseudo-random input
    /// in which every third site sits below the scaling threshold, with
    /// P matrices of branch lengths `tl` and `tr` under Γ shape `alpha`;
    /// `derivative_core` reads the `derivative_sum_ii` table at `tl`.
    fn run_ops(k: &dyn Kernels, n: usize, alpha: f64, (tl, tr): (f64, f64)) -> Outputs {
        let mut vl = AlignedVec::zeroed(n * SITE_STRIDE);
        let mut vr = AlignedVec::zeroed(n * SITE_STRIDE);
        fill(&mut vl, 21, 1e-3, 1.0);
        fill(&mut vr, 23, 1e-3, 1.0);
        for i in (0..n).step_by(3) {
            for x in &mut vr[i * SITE_STRIDE..(i + 1) * SITE_STRIDE] {
                *x *= 1e-80;
            }
        }
        let codes: Vec<u8> = (0..n).map(|i| 1 + (i % 15) as u8).collect();
        let scale: Vec<u32> = (0..n).map(|i| (i % 4) as u32).collect();
        let (pl, pr) = (pmat_at(alpha, tl), pmat_at(alpha, tr));
        let lut = Lut16x16::tip_prob(&pl);
        let (g, rates) = model(alpha);
        let basis = EigenBasis::new(g.eigen(), &rates);
        let pi_tip = Lut16x16::tip_pi(&g.freqs());
        let mut pi_w = [0.0; SITE_STRIDE];
        for (m, w) in pi_w.iter_mut().enumerate() {
            *w = 0.25 * g.freqs()[m % NUM_STATES];
        }
        let site_buf = || AlignedVec::zeroed(n * SITE_STRIDE);
        let mut o = Outputs {
            newview_ti: (site_buf(), vec![0; n]),
            newview_ii: (site_buf(), vec![0; n]),
            sum_ti: site_buf(),
            sum_ii: site_buf(),
            eval_ti: vec![0.0; n],
            eval_ii: vec![0.0; n],
            evaluate: [0.0; 2],
            core: [0.0; 2],
        };
        let (out, sc) = &mut o.newview_ti;
        k.newview_ti(&lut, &codes, &pr, &vr, &scale, out, sc);
        let (out, sc) = &mut o.newview_ii;
        k.newview_ii(&pl, &vl, &scale, &pr, &vr, &scale, out, sc);
        k.derivative_sum_ti(&basis, &codes, &vr, &mut o.sum_ti);
        k.derivative_sum_ii(&basis, &vl, &vr, &mut o.sum_ii);
        k.evaluate_classes_ti(&pi_tip, &codes, &pr, &vr, &mut o.eval_ti);
        k.evaluate_classes_ii(&pi_w, &vl, &pr, &vr, &mut o.eval_ii);
        let weights: Vec<u32> = (0..n).map(|i| 1 + (i % 4) as u32).collect();
        o.evaluate = [
            k.evaluate_ti(&pi_tip, &codes, &pr, &vr, &scale, &weights),
            k.evaluate_ii(&pi_w, &vl, &scale, &pr, &vr, &scale, &weights),
        ];
        let (d1, d2) = k.derivative_core(&o.sum_ii, &basis.lambda_rate, tl, &weights);
        o.core = [d1, d2];
        o
    }

    #[test]
    fn both_widths_write_the_same_bits_and_agree_with_scalar() {
        use phylo_models::DiscreteGamma;
        let widths = widths_under_test();
        // 1 and 7 are all tail for the 8-site `derivative_core` step,
        // 511/512/513 straddle the root chunk, and 8 195 sites (1 MiB
        // and 384 bytes per CLA) are more than the default per-core
        // cache holds.
        let sizes = [1usize, 7, 511, 512, 513, 1000, 8195];
        let mut inputs: Vec<_> = sizes.iter().map(|&n| (n, 0.7, (0.23, 0.11))).collect();
        // The corners of the branch-length × α box an engine accepts
        // (`Tree`'s `BL_MIN`/`BL_MAX`): P ≈ I and P = the stationary rows.
        for t in [1e-8, 100.0] {
            for alpha in [DiscreteGamma::MIN_ALPHA, DiscreteGamma::MAX_ALPHA] {
                inputs.push((513, alpha, (t, t)));
            }
        }
        for (n, alpha, lengths) in inputs {
            let at = format!("n={n} alpha={alpha} t={lengths:?}");
            let scalar = run_ops(KernelKind::Scalar.kernels(), n, alpha, lengths);
            let outs: Vec<Outputs> = widths
                .iter()
                .map(|&k| run_ops(k, n, alpha, lengths))
                .collect();
            for (set, o) in widths.iter().zip(&outs) {
                let bits = set.width_bits();
                for ((op, got, got_sc), (_, want, want_sc)) in o.parts().iter().zip(scalar.parts())
                {
                    assert_eq!(*got_sc, want_sc, "{op} at {bits} bits, {at}: counters");
                    for (a, b) in want.iter().zip(got.iter()) {
                        assert!(
                            (a - b).abs() <= 1e-12 * (1.0 + a.abs()),
                            "{op} at {bits} bits, {at}: scalar {a} vs {b}"
                        );
                    }
                }
                for ((op, a, a_sc), (_, b, b_sc)) in o.parts().iter().zip(outs[0].parts()) {
                    assert_eq!(*a_sc, b_sc, "{op} {at}: counters differ between widths");
                    let same = a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(same, "{op} {at}: {bits}-bit body differs from the widest");
                }
            }
            if n >= 3 {
                let rescaled = scalar.newview_ii.1.iter().enumerate();
                assert!(
                    rescaled.clone().any(|(i, &s)| s > 2 * (i % 4) as u32),
                    "{at}: no site was rescaled"
                );
            }
        }
    }

    #[test]
    fn ln_block_writes_the_scalar_ln_bit_for_bit_at_every_width() {
        use super::super::ln::ln;
        for n in [0usize, 1, 7, 8, 9, 15, 16, 511, 512, 513] {
            // Log-uniform over [2⁻¹⁰⁰⁰, 2¹⁰⁰⁰], and every ulp around 1.
            let mut x = vec![0.0; n];
            fill(&mut x, 41 + n as u64, -1000.0, 1000.0);
            for (i, v) in x.iter_mut().enumerate() {
                *v = if i % 5 == 4 {
                    f64::from_bits(1f64.to_bits() - 2 + i as u64 % 5)
                } else {
                    v.exp2()
                };
            }
            // One group of 8 holding what is not a normal positive double.
            if n >= 16 {
                let odd = [0.0, f64::MIN_POSITIVE / 3.0, f64::INFINITY, f64::NAN, -1.0];
                x[8..8 + odd.len()].copy_from_slice(&odd);
            }
            let want: Vec<u64> = x.iter().map(|&v| ln(v).to_bits()).collect();
            let mut sets: Vec<&dyn Kernels> = vec![KernelKind::Scalar.kernels()];
            sets.extend(widths_under_test().into_iter().map(|k| k as &dyn Kernels));
            for k in sets {
                let mut got = x.clone();
                k.ln_block(&mut got);
                let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "n={n}");
            }
        }
    }

    #[test]
    fn availability_is_consistent_with_dispatch() {
        if simd_available() {
            assert_eq!(KernelKind::Simd.resolve(), KernelKind::Simd);
            assert!(matches!(simd_width_bits(), 256 | 512));
        } else {
            assert_eq!(KernelKind::Simd.resolve(), KernelKind::Scalar);
            assert_eq!(simd_width_bits(), 0);
        }
        // The host's set is its widest, every narrower one exists, no
        // wider one does.
        let host = SimdKernels::for_host().width_bits();
        assert_eq!(host, simd_width_bits());
        for bits in [0, 256, 512] {
            let set = SimdKernels::at_width(bits);
            assert_eq!(set.is_some(), bits <= host, "{bits} on a {host}-bit host");
            assert!(set.is_none_or(|s| s.width_bits() == bits));
        }
        assert!(SimdKernels::at_width(128).is_none());
    }

    #[test]
    fn staged_and_in_place_finish_write_identical_bits() {
        // One whole-range call against the same input in 255-site
        // slices, the last one shorter. Every third site is small
        // enough to go through the rescale.
        let n = 1029;
        let slice = 255;
        let mut vl = AlignedVec::zeroed(n * SITE_STRIDE);
        let mut vr = AlignedVec::zeroed(n * SITE_STRIDE);
        fill(&mut vl, 21, 1e-3, 1.0);
        fill(&mut vr, 23, 1e-3, 1.0);
        for i in (0..n).step_by(3) {
            for x in &mut vr[i * SITE_STRIDE..(i + 1) * SITE_STRIDE] {
                *x *= 1e-80;
            }
        }
        let codes: Vec<u8> = (0..n).map(|i| 1 + (i % 15) as u8).collect();
        let scale: Vec<u32> = (0..n).map(|i| (i % 4) as u32).collect();
        let (pl, pr) = (pmat(0.23), pmat(0.11));
        let lut = Lut16x16::tip_prob(&pl);
        for k in widths_under_test() {
            let bits = k.width_bits();
            // Runs both newview shapes over `sites`-long pieces.
            let run = |sites: usize| {
                let mut ti = (AlignedVec::zeroed(n * SITE_STRIDE), vec![0u32; n]);
                let mut ii = (AlignedVec::zeroed(n * SITE_STRIDE), vec![0u32; n]);
                for at in (0..n).step_by(sites) {
                    let r = at..(at + sites).min(n);
                    let v = at * SITE_STRIDE..r.end * SITE_STRIDE;
                    k.newview_ti(
                        &lut,
                        &codes[r.clone()],
                        &pr,
                        &vr[v.clone()],
                        &scale[r.clone()],
                        &mut ti.0[v.clone()],
                        &mut ti.1[r.clone()],
                    );
                    k.newview_ii(
                        &pl,
                        &vl[v.clone()],
                        &scale[r.clone()],
                        &pr,
                        &vr[v.clone()],
                        &scale[r.clone()],
                        &mut ii.0[v],
                        &mut ii.1[r],
                    );
                }
                (ti, ii)
            };
            let (ti_whole, ii_whole) = run(n);
            let (ti_sliced, ii_sliced) = run(slice);
            // (name, whole, sliced, input counters summed per site)
            for (what, a, b, inputs) in [
                ("newview_ti", &ti_whole, &ti_sliced, 1),
                ("newview_ii", &ii_whole, &ii_sliced, 2),
            ] {
                assert_eq!(a.1, b.1, "{what} at {bits} bits: scale counters");
                let rescaled = a.1.iter().zip(&scale).any(|(o, i)| *o > inputs * i);
                assert!(rescaled, "{what} at {bits} bits: no site was rescaled");
                let same =
                    a.0.iter()
                        .zip(b.0.iter())
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "{what} at {bits} bits: whole and sliced CLAs differ");
            }
        }
    }

    /// A matrix whose product is the identity on every rate category,
    /// except that lane `m` of the result is scaled by `diag[m]`.
    fn diagonal(diag: [f64; SITE_STRIDE]) -> FusedPmat {
        let mut cols = [[0.0; SITE_STRIDE]; NUM_STATES];
        for (m, d) in diag.into_iter().enumerate() {
            cols[m % NUM_STATES][m] = d;
        }
        FusedPmat { cols }
    }

    /// Drives one crafted site through `finish_site` of both `newview`
    /// shapes — alone, and (`newview_ti` only) in the middle of 1 029
    /// ordinary sites — and returns what was written for it with its
    /// scaling bump. Lane `m` of the site is `factor[m] · value[m]`,
    /// exactly: the factors ride in the tip row (`ti`) or on the
    /// diagonal of the left matrix (`ii`), where a NaN or an infinity
    /// stays in its own lane.
    fn finish(
        k: &SimdKernels,
        value: [f64; SITE_STRIDE],
        factor: [f64; SITE_STRIDE],
    ) -> Vec<([f64; SITE_STRIDE], u32)> {
        let mut written = Vec::new();
        for n in [1, 1029] {
            let at = n / 2;
            let mut v = AlignedVec::zeroed(n * SITE_STRIDE);
            fill(&mut v, 31, 0.1, 1.0);
            v[at * SITE_STRIDE..(at + 1) * SITE_STRIDE].copy_from_slice(&value);
            let mut ones = AlignedVec::zeroed(n * SITE_STRIDE);
            ones.fill(1.0);
            // Tip code 1 carries the factors at the crafted site; the
            // other sites use code 2, a row of ones.
            let mut lut = Lut16x16 {
                rows: [[1.0; SITE_STRIDE]; 16],
            };
            lut.rows[1] = factor;
            let mut codes = vec![2u8; n];
            codes[at] = 1;
            let zeros = vec![0u32; n];
            let identity = diagonal([1.0; SITE_STRIDE]);
            let mut out = AlignedVec::zeroed(n * SITE_STRIDE);
            let mut sc = vec![0u32; n];
            let mut take = |out: &AlignedVec, sc: &[u32]| {
                let mut site = [0.0; SITE_STRIDE];
                site.copy_from_slice(&out[at * SITE_STRIDE..(at + 1) * SITE_STRIDE]);
                written.push((site, sc[at]));
            };
            k.newview_ti(&lut, &codes, &identity, &v, &zeros, &mut out, &mut sc);
            take(&out, &sc);
            if n == 1 {
                // The factors apply to every site of an `ii` call, so
                // only the lone site can take them.
                let scaled = diagonal(factor);
                k.newview_ii(
                    &scaled, &ones, &zeros, &identity, &v, &zeros, &mut out, &mut sc,
                );
                take(&out, &sc);
            }
        }
        written
    }

    fn bits(site: &[f64; SITE_STRIDE]) -> [u64; SITE_STRIDE] {
        site.map(f64::to_bits)
    }

    #[test]
    fn finish_leaves_sites_at_or_above_the_threshold_alone() {
        let ones = [1.0; SITE_STRIDE];
        let below = f64::from_bits(SCALE_THRESHOLD.to_bits() - 1);
        for k in widths_under_test() {
            let w = k.width_bits();
            for lane in 0..SITE_STRIDE {
                // One lane exactly at the threshold is enough, whichever
                // vector and position it lands in.
                let mut site = [1e-300; SITE_STRIDE];
                site[lane] = SCALE_THRESHOLD;
                for (got, bumps) in finish(k, site, ones) {
                    assert_eq!(bumps, 0, "{w} bits, lane {lane}");
                    assert_eq!(bits(&got), bits(&site), "{w} bits, lane {lane}");
                }
                // One ulp less and the site is rescaled, by exactly 2²⁵⁶.
                site[lane] = below;
                for (got, bumps) in finish(k, site, ones) {
                    assert_eq!(bumps, 1, "{w} bits, lane {lane}");
                    assert_eq!(bits(&got), bits(&site.map(|v| v * SCALE_FACTOR)));
                }
            }
            // A NaN lane next to a healthy one is not scaling's problem:
            // the site is written as computed and `evaluate` surfaces it.
            let mut factor = ones;
            factor[5] = f64::NAN;
            let mut site = [1e-300; SITE_STRIDE];
            site[14] = 0.5;
            for (got, bumps) in finish(k, site, factor) {
                assert_eq!(bumps, 0, "{w} bits");
                assert!(got[5].is_nan(), "{w} bits: {got:?}");
                for m in (0..SITE_STRIDE).filter(|&m| m != 5) {
                    assert_eq!(got[m].to_bits(), site[m].to_bits(), "{w} bits, lane {m}");
                }
            }
        }
    }

    #[test]
    fn finish_leaves_an_all_zero_site_alone() {
        for k in widths_under_test() {
            for (got, bumps) in finish(k, [0.0; SITE_STRIDE], [1.0; SITE_STRIDE]) {
                assert_eq!(bumps, 0, "{} bits", k.width_bits());
                assert_eq!(bits(&got), [0; SITE_STRIDE], "{} bits", k.width_bits());
            }
        }
    }

    #[test]
    fn finish_refuses_to_rescale_corrupted_sites() {
        // The in-register test sends every site without a lane at or
        // above the threshold to `scale_site`, whose asserts must still
        // see a lone NaN, negative or −∞ lane.
        for k in widths_under_test() {
            for bad in [f64::NAN, -1.0, f64::NEG_INFINITY] {
                for lane in [0, 7, 8, 15] {
                    let mut factor = [1.0; SITE_STRIDE];
                    factor[lane] = bad;
                    let run = || finish(k, [1e-100; SITE_STRIDE], factor);
                    let panic = std::panic::catch_unwind(run).expect_err("site was accepted");
                    let msg = panic.downcast_ref::<String>().expect("a formatted panic");
                    assert!(
                        msg.contains("refusing to rescale corrupted data"),
                        "{} bits, {bad} in lane {lane}: {msg}",
                        k.width_bits()
                    );
                }
            }
        }
    }
}
