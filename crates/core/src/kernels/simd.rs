//! Explicit-SIMD kernel implementations (AVX2+FMA).
//!
//! Where [`super::scalar`] writes the kernels as plain nested loops,
//! this backend writes the paper's §V-B optimizations with
//! `core::arch::x86_64` intrinsics — the commodity-hardware equivalent
//! of the paper's hand-vectorized MIC kernels:
//!
//! * §V-B1 *explicit vectorization* — the 16-wide fused loop is split
//!   across four 4×f64 AVX2 lanes, one per Γ rate category (`m = 4k +
//!   a` maps lane block `k` to category `k`), giving four independent
//!   FMA accumulator chains per site;
//! * §V-B2 *memory alignment* — CLA and sumtable buffers must be
//!   64-byte aligned and whole-site padded (debug-asserted at every
//!   kernel entry; see [`crate::layout`] for the invariant), so every
//!   site loads full vectors with no scalar remainder;
//! * §V-B4 *site blocking* — `evaluate`/`derivativeCore` are only the
//!   vector phase here (`evaluate_classes_*`, `derivative_core_classes`);
//!   the scalar log/division tail runs over whole blocks in the
//!   provided methods of [`super::Kernels`];
//! * §V-B5 *streaming stores* — `newview` CLAs and `derivativeSum`
//!   tables are written exactly once and never read back in-kernel, so
//!   they leave through non-temporal stores (`_mm256_stream_pd`),
//!   followed by one `sfence` at kernel exit that makes the
//!   weakly-ordered writes globally visible before any reader runs;
//! * prefetching — each site iteration prefetches the input CLA(s) a
//!   few sites ahead into L1, the §V-B MIC prefetch scheme.
//!
//! The underflow-scaling decision reuses [`crate::scaling::scale_site`]
//! — in place on the freshly written output site, or on an aligned
//! stack staging buffer when the site leaves through streaming stores —
//! so scaling counters are bit-identical to the scalar backend
//! (rescaling multiplies by an exact power of two, so values stay
//! bit-identical between the two finishes too).
//!
//! `newview_tt` is a pure 16-wide LUT product with no matrix work for
//! the FMA chains to win anything on: it runs the scalar backend's
//! loop, which LLVM vectorizes as it stands.
//!
//! On non-x86-64 targets, and on x86-64 hosts without AVX2+FMA, every
//! method delegates to [`super::scalar::ScalarKernels`];
//! [`crate::KernelKind::resolve`] never dispatches here in that case,
//! so the delegation is defense in depth for direct callers.

use super::scalar::ScalarKernels;
use super::Kernels;
use crate::aligned::debug_assert_site_buffer as assert_buf;
use crate::layout::{EigenBasis, FusedPmat, Lut16x16};
use crate::SITE_STRIDE;

/// Explicit AVX2+FMA kernel set (scalar fallback elsewhere).
pub struct SimdKernels;

/// Whether the explicit-SIMD backend can run on this host: x86-64 with
/// AVX2 and FMA detected at runtime. Detection results are cached by
/// `std`, so this is cheap enough to gate every kernel entry.
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
        if simd_available() {
            assert_buf(v_r, scale_out.len(), "newview_ti v_r");
            assert_buf(out, scale_out.len(), "newview_ti out");
            // SAFETY: AVX2+FMA presence verified by simd_available().
            return unsafe { x86::newview_ti(lut_l, codes_l, p_r, v_r, scale_r, out, scale_out) };
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
        if simd_available() {
            assert_buf(v_l, scale_out.len(), "newview_ii v_l");
            assert_buf(v_r, scale_out.len(), "newview_ii v_r");
            assert_buf(out, scale_out.len(), "newview_ii out");
            // SAFETY: AVX2+FMA presence verified by simd_available().
            return unsafe {
                x86::newview_ii(p_l, v_l, scale_l, p_r, v_r, scale_r, out, scale_out)
            };
        }
        ScalarKernels.newview_ii(p_l, v_l, scale_l, p_r, v_r, scale_r, out, scale_out)
    }

    fn derivative_sum_ti(&self, basis: &EigenBasis, codes_q: &[u8], v_r: &[f64], out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if simd_available() {
            let n = out.len() / SITE_STRIDE;
            assert_buf(v_r, n, "derivative_sum_ti v_r");
            assert_buf(out, n, "derivative_sum_ti out");
            // SAFETY: AVX2+FMA presence verified by simd_available().
            return unsafe { x86::derivative_sum_ti(basis, codes_q, v_r, out) };
        }
        ScalarKernels.derivative_sum_ti(basis, codes_q, v_r, out)
    }

    fn derivative_sum_ii(&self, basis: &EigenBasis, v_q: &[f64], v_r: &[f64], out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if simd_available() {
            let n = out.len() / SITE_STRIDE;
            assert_buf(v_q, n, "derivative_sum_ii v_q");
            assert_buf(v_r, n, "derivative_sum_ii v_r");
            assert_buf(out, n, "derivative_sum_ii out");
            // SAFETY: AVX2+FMA presence verified by simd_available().
            return unsafe { x86::derivative_sum_ii(basis, v_q, v_r, out) };
        }
        ScalarKernels.derivative_sum_ii(basis, v_q, v_r, out)
    }

    fn evaluate_classes_ti(
        &self,
        pi_tip: &Lut16x16,
        codes_q: &[u8],
        p: &FusedPmat,
        v_r: &[f64],
        reprs: &[u32],
        out: &mut [f64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if simd_available() {
            assert_buf(v_r, v_r.len() / SITE_STRIDE, "evaluate_classes_ti v_r");
            // SAFETY: AVX2+FMA presence verified by simd_available().
            return unsafe { x86::evaluate_classes_ti(pi_tip, codes_q, p, v_r, reprs, out) };
        }
        ScalarKernels.evaluate_classes_ti(pi_tip, codes_q, p, v_r, reprs, out)
    }

    fn evaluate_classes_ii(
        &self,
        pi_w: &[f64; SITE_STRIDE],
        v_q: &[f64],
        p: &FusedPmat,
        v_r: &[f64],
        reprs: &[u32],
        out: &mut [f64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if simd_available() {
            assert_buf(v_q, v_q.len() / SITE_STRIDE, "evaluate_classes_ii v_q");
            assert_buf(v_r, v_r.len() / SITE_STRIDE, "evaluate_classes_ii v_r");
            // SAFETY: AVX2+FMA presence verified by simd_available().
            return unsafe { x86::evaluate_classes_ii(pi_w, v_q, p, v_r, reprs, out) };
        }
        ScalarKernels.evaluate_classes_ii(pi_w, v_q, p, v_r, reprs, out)
    }

    fn derivative_core_classes(
        &self,
        sumtable: &[f64],
        lambda_rate: &[f64; SITE_STRIDE],
        t: f64,
        out: &mut [f64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if simd_available() {
            assert_buf(sumtable, out.len() / 3, "derivative_core_classes sumtable");
            // SAFETY: AVX2+FMA presence verified by simd_available().
            return unsafe { x86::derivative_core_classes(sumtable, lambda_rate, t, out) };
        }
        ScalarKernels.derivative_core_classes(sumtable, lambda_rate, t, out)
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2+FMA kernel cores. Every function here carries
    //! `#[target_feature(enable = "avx2", enable = "fma")]`; callers
    //! must verify feature presence (see the trait impl above), which
    //! is what makes the `unsafe` call sites sound.

    use super::super::derivative_exp_tables;
    use crate::layout::{EigenBasis, FusedPmat, Lut16x16};
    use crate::scaling::scale_site;
    use crate::{NUM_RATES, NUM_STATES, SITE_STRIDE};
    use core::arch::x86_64::{
        __m256d, _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm256_fmadd_pd, _mm256_loadu_pd,
        _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_stream_pd,
        _mm_add_pd, _mm_add_sd, _mm_cvtsd_f64, _mm_prefetch, _mm_sfence, _mm_unpackhi_pd,
        _MM_HINT_T0,
    };

    /// How many sites ahead the input CLA prefetches run. One site is
    /// 128 bytes (two cache lines); 8 sites ≈ 1 KiB of lookahead, far
    /// enough to cover the FMA latency of the current site at DRAM
    /// bandwidth without thrashing L1.
    const PREFETCH_SITES: usize = 8;

    /// One site's 16 doubles on the stack. 64-byte aligned so the
    /// staging round-trip between compute, the scaling rule, and the
    /// streaming store uses fully aligned vector moves.
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

    /// Non-temporal store of `v` to lanes `[at, at + 4)` (§V-B5):
    /// bypasses the cache since output CLAs are never read back by the
    /// writing kernel. Callers must only pass `at` offsets that keep
    /// the destination 32-byte aligned (guaranteed by the
    /// `stream_ok` gate: 32-byte-aligned base + 128-byte site stride).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn stream4(row: &mut [f64], at: usize, v: __m256d) {
        let s = &mut row[at..at + 4];
        debug_assert_eq!(s.as_ptr() as usize % 32, 0, "streaming store misaligned");
        // SAFETY: the slice bounds-check proves 4 writable f64s; the
        // 32-byte alignment `_mm256_stream_pd` requires holds because
        // the caller's `stream_ok` gate checked the buffer base and
        // every site offset is a multiple of 128 bytes (debug-asserted
        // above).
        unsafe { _mm256_stream_pd(s.as_mut_ptr(), v) }
    }

    /// Minimum number of sites before non-temporal stores pay off. NT
    /// stores bypass the cache entirely, so for outputs that still fit
    /// in L2 (and will be re-read by the parent `newview`/`evaluate`
    /// within a few kernel calls) they trade a cache hit on the reader
    /// for nothing — BENCH_5 measured the Simd backend *losing* to
    /// scalar at 1k patterns on exactly the streamed kernels. 4096
    /// sites × 128 B = 512 KiB, about where outputs stop fitting in a
    /// per-core L2 and the reader was going to miss anyway.
    pub(super) const NT_MIN_SITES: usize = 4096;

    /// Whether `out` should take streaming stores: every site offset
    /// must be 32-byte aligned (engine-owned buffers are 64-byte
    /// aligned and always qualify; the 128-byte site stride preserves
    /// alignment), and the output must be large enough
    /// ([`NT_MIN_SITES`]) that bypassing the cache wins.
    #[inline]
    fn stream_ok(out: &[f64], n_sites: usize) -> bool {
        (out.as_ptr() as usize).is_multiple_of(32) && n_sites >= NT_MIN_SITES
    }

    /// §V-B5 epilogue: `sfence` after non-temporal stores. NT stores
    /// are weakly ordered — without the fence a reader synchronized
    /// through an ordinary release/acquire edge (e.g. a fork-join
    /// barrier) could observe stale CLA contents. Every kernel that
    /// streamed calls this exactly once before returning, so
    /// `evaluate` may assume CLAs are visible without fencing itself.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn drain_streams(nt: bool) {
        if nt {
            _mm_sfence();
        }
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

    /// Prefetches the site `reprs` names [`PREFETCH_SITES`] entries
    /// past position `c` — the next lines of a full-width sweep, or the
    /// next scattered class representative.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn prefetch_ahead(buf: &[f64], reprs: &[u32], c: usize) {
        if let Some(&s) = reprs.get(c + PREFETCH_SITES) {
            prefetch_site(buf, s as usize);
        }
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

    /// The paper's fused 16-wide matrix application (§V-B3) on 4×f64
    /// lanes: lane block `k` is rate category `k`, and
    /// `acc[k] = Σ_b cols[b][4k..4k+4] · v[4k + b]` runs as four
    /// independent FMA accumulator chains — the 16-wide MIC loop split
    /// across four AVX2 registers. Also serves the eigen-basis
    /// projections, whose tables share the `[input][m]` fused layout.
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

    /// Finishes one `newview` site: writes the 16 accumulated values
    /// to `out` exactly once and applies the shared underflow-scaling
    /// rule (bit-identical to the scalar backend). A cached output is
    /// written first and scaled where it lies; a streamed one (`nt`)
    /// cannot be read back, so it is scaled in a stack staging buffer
    /// and leaves through non-temporal stores.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn finish_site(acc: [__m256d; NUM_RATES], out: &mut [f64], at: usize, nt: bool) -> u32 {
        if !nt {
            let site = &mut out[at..at + SITE_STRIDE];
            for (k, &a) in acc.iter().enumerate() {
                store4(site, 4 * k, a);
            }
            return scale_site(site);
        }
        let mut buf = SiteBuf([0.0; SITE_STRIDE]);
        for (k, &a) in acc.iter().enumerate() {
            store4(&mut buf.0, 4 * k, a);
        }
        let bumps = scale_site(&mut buf.0);
        for k in 0..NUM_RATES {
            stream4(out, at + 4 * k, load4(&buf.0, 4 * k));
        }
        bumps
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
        let n = scale_out.len();
        let nt = stream_ok(out, n);
        for i in 0..n {
            prefetch_site(v_r, i + PREFETCH_SITES);
            let l = &lut_l.rows[codes_l[i] as usize];
            let vr = &v_r[i * SITE_STRIDE..(i + 1) * SITE_STRIDE];
            let mut acc = matvec(&p_r.cols, vr);
            for (k, a) in acc.iter_mut().enumerate() {
                *a = _mm256_mul_pd(load4(l, 4 * k), *a);
            }
            scale_out[i] = scale_r[i] + finish_site(acc, out, i * SITE_STRIDE, nt);
        }
        drain_streams(nt);
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
        let n = scale_out.len();
        let nt = stream_ok(out, n);
        for i in 0..n {
            prefetch_site(v_l, i + PREFETCH_SITES);
            prefetch_site(v_r, i + PREFETCH_SITES);
            let vl = &v_l[i * SITE_STRIDE..(i + 1) * SITE_STRIDE];
            let vr = &v_r[i * SITE_STRIDE..(i + 1) * SITE_STRIDE];
            let l = matvec(&p_l.cols, vl);
            let mut acc = matvec(&p_r.cols, vr);
            for (k, a) in acc.iter_mut().enumerate() {
                *a = _mm256_mul_pd(l[k], *a);
            }
            scale_out[i] = scale_l[i] + scale_r[i] + finish_site(acc, out, i * SITE_STRIDE, nt);
        }
        drain_streams(nt);
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn derivative_sum_ti(
        basis: &EigenBasis,
        codes_q: &[u8],
        v_r: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len() / SITE_STRIDE;
        let nt = stream_ok(out, n);
        for i in 0..n {
            prefetch_site(v_r, i + PREFETCH_SITES);
            let le = &basis.tip_left.rows[codes_q[i] as usize];
            let vr = &v_r[i * SITE_STRIDE..(i + 1) * SITE_STRIDE];
            let mut acc = matvec(&basis.uinv, vr);
            for (k, a) in acc.iter_mut().enumerate() {
                *a = _mm256_mul_pd(load4(le, 4 * k), *a);
            }
            write_sum_site(acc, out, i * SITE_STRIDE, nt);
        }
        drain_streams(nt);
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn derivative_sum_ii(basis: &EigenBasis, v_q: &[f64], v_r: &[f64], out: &mut [f64]) {
        let n = out.len() / SITE_STRIDE;
        let nt = stream_ok(out, n);
        for i in 0..n {
            prefetch_site(v_q, i + PREFETCH_SITES);
            prefetch_site(v_r, i + PREFETCH_SITES);
            let vq = &v_q[i * SITE_STRIDE..(i + 1) * SITE_STRIDE];
            let vr = &v_r[i * SITE_STRIDE..(i + 1) * SITE_STRIDE];
            let le = matvec(&basis.piu, vq);
            let mut acc = matvec(&basis.uinv, vr);
            for (k, a) in acc.iter_mut().enumerate() {
                *a = _mm256_mul_pd(le[k], *a);
            }
            write_sum_site(acc, out, i * SITE_STRIDE, nt);
        }
        drain_streams(nt);
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn evaluate_classes_ti(
        pi_tip: &Lut16x16,
        codes_q: &[u8],
        p: &FusedPmat,
        v_r: &[f64],
        reprs: &[u32],
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), reprs.len());
        for (c, (&s, slot)) in reprs.iter().zip(out.iter_mut()).enumerate() {
            prefetch_ahead(v_r, reprs, c);
            let s = s as usize;
            let piq = &pi_tip.rows[codes_q[s] as usize];
            let vr = &v_r[s * SITE_STRIDE..(s + 1) * SITE_STRIDE];
            let x = matvec(&p.cols, vr);
            let mut acc = _mm256_setzero_pd();
            for (k, &xk) in x.iter().enumerate() {
                acc = _mm256_fmadd_pd(load4(piq, 4 * k), xk, acc);
            }
            *slot = hsum(acc);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn evaluate_classes_ii(
        pi_w: &[f64; SITE_STRIDE],
        v_q: &[f64],
        p: &FusedPmat,
        v_r: &[f64],
        reprs: &[u32],
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), reprs.len());
        for (c, (&s, slot)) in reprs.iter().zip(out.iter_mut()).enumerate() {
            prefetch_ahead(v_q, reprs, c);
            prefetch_ahead(v_r, reprs, c);
            let s = s as usize;
            let vq = &v_q[s * SITE_STRIDE..(s + 1) * SITE_STRIDE];
            let vr = &v_r[s * SITE_STRIDE..(s + 1) * SITE_STRIDE];
            let x = matvec(&p.cols, vr);
            let mut acc = _mm256_setzero_pd();
            for (k, &xk) in x.iter().enumerate() {
                let pq = _mm256_mul_pd(load4(&pi_w[..], 4 * k), load4(vq, 4 * k));
                acc = _mm256_fmadd_pd(pq, xk, acc);
            }
            *slot = hsum(acc);
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
        let mut ev = [_mm256_setzero_pd(); NUM_RATES];
        let mut d1v = [_mm256_setzero_pd(); NUM_RATES];
        let mut d2v = [_mm256_setzero_pd(); NUM_RATES];
        for k in 0..NUM_RATES {
            ev[k] = load4(&e[..], 4 * k);
            d1v[k] = load4(&d1[..], 4 * k);
            d2v[k] = load4(&d2[..], 4 * k);
        }
        // Phase 1 of `derivative_core` over contiguous class columns;
        // the engine folds the ratio/weight tail in site order.
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

    /// Writes one sumtable site (no scaling rule here — sumtables are
    /// branch-invariant intermediates, not CLAs).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn write_sum_site(acc: [__m256d; NUM_RATES], out: &mut [f64], at: usize, nt: bool) {
        for (k, &a) in acc.iter().enumerate() {
            if nt {
                stream4(out, at + 4 * k, a);
            } else {
                store4(out, at + 4 * k, a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::KernelKind;
    use super::*;
    use crate::AlignedVec;

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

    fn pmat(t: f64) -> FusedPmat {
        use phylo_models::{DiscreteGamma, Gtr, GtrParams, ProbMatrix};
        let g = Gtr::new(GtrParams {
            rates: [1.2, 2.9, 0.8, 1.1, 3.5, 1.0],
            freqs: [0.28, 0.22, 0.21, 0.29],
        });
        let rates = *DiscreteGamma::new(0.7).rates();
        FusedPmat::from_prob(&ProbMatrix::new(g.eigen(), &rates, t))
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

    #[test]
    fn streamed_cla_is_readable_immediately_after_the_kernel_returns() {
        // Pins the §V-B5 fence: the kernel streams the CLA and fences,
        // so a plain read-back right here must observe every value.
        let n = 33;
        let mut vl = AlignedVec::zeroed(n * SITE_STRIDE);
        let mut vr = AlignedVec::zeroed(n * SITE_STRIDE);
        fill(&mut vl, 3, 1e-3, 1.0);
        fill(&mut vr, 5, 1e-3, 1.0);
        let scale = vec![0u32; n];
        let (pl, pr) = (pmat(0.4), pmat(0.9));
        let mut out = AlignedVec::zeroed(n * SITE_STRIDE);
        let mut sc = vec![0u32; n];
        KernelKind::Simd
            .kernels()
            .newview_ii(&pl, &vl, &scale, &pr, &vr, &scale, &mut out, &mut sc);
        assert!(out.iter().all(|v| v.is_finite() && *v > 0.0));
        // And the values are the right ones, not just nonzero.
        let mut out_v = AlignedVec::zeroed(n * SITE_STRIDE);
        let mut sc_v = vec![0u32; n];
        KernelKind::Scalar
            .kernels()
            .newview_ii(&pl, &vl, &scale, &pr, &vr, &scale, &mut out_v, &mut sc_v);
        for (a, b) in out.iter().zip(out_v.iter()) {
            assert!((a - b).abs() <= 1e-12 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn unaligned_output_falls_back_to_regular_stores() {
        // A deliberately 8-byte-misaligned output view must still be
        // written correctly (release builds take the storeu path; this
        // guards the `stream_ok` gate).
        if !simd_available() || cfg!(debug_assertions) {
            // Debug builds assert the alignment contract instead.
            return;
        }
        let n = 4;
        let mut vl = AlignedVec::zeroed(n * SITE_STRIDE);
        let mut vr = AlignedVec::zeroed(n * SITE_STRIDE);
        fill(&mut vl, 7, 1e-3, 1.0);
        fill(&mut vr, 9, 1e-3, 1.0);
        let scale = vec![0u32; n];
        let (pl, pr) = (pmat(0.2), pmat(0.3));
        let mut raw = AlignedVec::zeroed(n * SITE_STRIDE + 1);
        let mut sc = vec![0u32; n];
        let out = &mut raw[1..];
        KernelKind::Simd
            .kernels()
            .newview_ii(&pl, &vl, &scale, &pr, &vr, &scale, out, &mut sc);
        let mut out_v = AlignedVec::zeroed(n * SITE_STRIDE);
        let mut sc_v = vec![0u32; n];
        KernelKind::Scalar
            .kernels()
            .newview_ii(&pl, &vl, &scale, &pr, &vr, &scale, &mut out_v, &mut sc_v);
        for (a, b) in raw[1..].iter().zip(out_v.iter()) {
            assert!((a - b).abs() <= 1e-12 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn availability_is_consistent_with_dispatch() {
        if simd_available() {
            assert_eq!(KernelKind::Simd.resolve(), KernelKind::Simd);
        } else {
            assert_eq!(KernelKind::Simd.resolve(), KernelKind::Scalar);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn staged_and_in_place_finish_write_identical_bits() {
        // One aligned call of ≥ NT_MIN_SITES sites streams (finish in
        // the staging buffer); the same input in shorter slices never
        // does (finish in place). Every third site is small enough to
        // go through the rescale on both paths.
        let n = x86::NT_MIN_SITES + 5;
        let slice = x86::NT_MIN_SITES - 1;
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
        let k = KernelKind::Simd.kernels();
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
        let (ti_streamed, ii_streamed) = run(n);
        let (ti_cached, ii_cached) = run(slice);
        // (name, streamed, cached, input counters summed per site)
        for (what, a, b, inputs) in [
            ("newview_ti", &ti_streamed, &ti_cached, 1),
            ("newview_ii", &ii_streamed, &ii_cached, 2),
        ] {
            assert_eq!(a.1, b.1, "{what}: scale counters");
            let rescaled = a.1.iter().zip(&scale).any(|(o, i)| *o > inputs * i);
            assert!(rescaled, "{what}: no site was rescaled");
            let same = a.0.iter().zip(b.0.iter()).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "{what}: streamed and cached CLAs differ");
        }
    }
}
