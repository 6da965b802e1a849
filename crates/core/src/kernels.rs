//! The four PLF kernels, as a scalar reference and an explicit-SIMD
//! backend.
//!
//! All kernels operate on pattern-major buffers with
//! [`crate::SITE_STRIDE`] doubles per pattern. Tip sides are always
//! canonicalized to the *left* operand by the engine (legal under
//! time-reversibility, where the likelihood of a branch is symmetric in
//! its endpoints).
//!
//! A backend writes one body per [`crate::KernelOp`]: the three
//! `newview` shapes, the two `derivativeSum` shapes, and the §V-B4
//! phase-1 reductions of `evaluate` and `derivativeCore`
//! (`evaluate_classes_ti/ii`, `derivative_core_classes`). The scalar
//! phase-2 tails — `ln` minus the scaling correction, the `ℓ'/ℓ`
//! ratios, the weighted sum in site order — are written once, here,
//! in the provided methods. The `ln` is the repository's own
//! (`ln.rs`, `+ − × ÷` only), so a logL has the same bits on every
//! IEEE host whatever its libm.

mod ln;
pub mod scalar;
pub mod simd;

use crate::layout::{EigenBasis, FusedPmat, Lut16x16};
use crate::scaling::LN_SCALE;
use crate::{SITE_BLOCK, SITE_STRIDE};

/// Which kernel implementation an engine uses.
///
/// `Simd` (the engine default) is "the fastest backend this host can
/// run", resolved exactly once, by [`KernelKind::resolve`]; `Scalar` is
/// the reference it is checked against. [`std::fmt::Display`] is the
/// one rendering of a backend name (trace meta, `kernel backend:`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Straightforward nested-loop reference implementation; also the
    /// fallback on hosts without AVX2+FMA.
    Scalar,
    /// Explicit x86 intrinsics with prefetching (§V-B1–B4 on commodity
    /// x86): 512 bits wide where the host has AVX-512F, 256 with
    /// AVX2+FMA alone — one backend, the width is
    /// [`KernelKind::simd_width_bits`]. Resolves to `Scalar` on hosts
    /// without AVX2+FMA (and on non-x86 targets).
    Simd,
}

impl KernelKind {
    /// Every variant, in display order (for tests that sweep backends).
    pub const ALL: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Simd];

    /// Whether the explicit-SIMD backend can run on this host (x86-64
    /// with AVX2 and FMA detected at runtime).
    pub fn simd_available() -> bool {
        simd::simd_available()
    }

    /// The one place a `Simd` request becomes a concrete backend:
    /// `Simd` on AVX2+FMA hosts, `Scalar` everywhere else. Engines
    /// dispatch through the resolved kind and record it in trace
    /// metadata, so the backend a trace reports is the backend that ran
    /// every op.
    pub fn resolve(self) -> KernelKind {
        match self {
            KernelKind::Simd if !Self::simd_available() => KernelKind::Scalar,
            kind => kind,
        }
    }

    /// The vector width, in bits, that [`Self::kernels`] of this kind
    /// runs its matrix kernels with on this host: 512 or 256 for
    /// `Simd` (0 without AVX2+FMA), 0 for `Scalar`. Reported next to
    /// the resolved backend so a run says which bodies it measured.
    pub fn simd_width_bits(self) -> u32 {
        match self {
            KernelKind::Scalar => 0,
            KernelKind::Simd => simd::simd_width_bits(),
        }
    }

    /// The implementation a kind names — a plain name-to-backend map
    /// with no size test of its own. Engines call it on a resolved
    /// kind; `Simd` names the widest [`simd::SimdKernels`] set of this
    /// host, which without AVX2+FMA is the one whose every method falls
    /// back to the scalar backend.
    pub fn kernels(self) -> &'static dyn Kernels {
        match self {
            KernelKind::Scalar => &scalar::ScalarKernels,
            KernelKind::Simd => simd::SimdKernels::for_host(),
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Simd => "simd",
        })
    }
}

/// The kernel interface (paper §IV): one required body per
/// [`crate::KernelOp`].
///
/// Buffer conventions: `v_*` are CLA value buffers (`n·16` doubles),
/// `scale_*` are per-pattern scaling counters (`n` entries), `codes_*`
/// are 4-bit tip codes (`n` entries), `out` buffers follow the same
/// shapes, and `weights` are pattern multiplicities.
///
/// `evaluate` and `derivativeCore` follow the paper's §V-B4 site
/// blocking: a backend supplies only the per-site vector reduction
/// (`evaluate_classes_ti/ii`, `derivative_core_classes`); the scalar
/// tail "on the whole block" and the weighted sum are the provided
/// [`Kernels::evaluate_ti`], [`Kernels::evaluate_ii`] and
/// [`Kernels::derivative_core`], written once for every backend. The
/// overrides are the explicit-SIMD set's at 512 bits: `derivative_core`
/// runs reduction and tail fused, 8 sites a step, and [`Kernels::ln_block`]
/// takes the logs of 8 sites at a time — the same bits at every width.
pub trait Kernels: Send + Sync {
    /// `newview`, both children tips.
    fn newview_tt(
        &self,
        lut_l: &Lut16x16,
        lut_r: &Lut16x16,
        codes_l: &[u8],
        codes_r: &[u8],
        out: &mut [f64],
        scale_out: &mut [u32],
    );

    /// `newview`, left child tip, right child inner.
    #[allow(clippy::too_many_arguments)]
    fn newview_ti(
        &self,
        lut_l: &Lut16x16,
        codes_l: &[u8],
        p_r: &FusedPmat,
        v_r: &[f64],
        scale_r: &[u32],
        out: &mut [f64],
        scale_out: &mut [u32],
    );

    /// `newview`, both children inner.
    #[allow(clippy::too_many_arguments)]
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
    );

    /// `derivativeSum` with a tip on the left: writes the
    /// branch-invariant site table `out[i][m] = left̂[m] · right̂[m]`
    /// in eigen coordinates.
    fn derivative_sum_ti(&self, basis: &EigenBasis, codes_q: &[u8], v_r: &[f64], out: &mut [f64]);

    /// `derivativeSum` between two inner nodes.
    fn derivative_sum_ii(&self, basis: &EigenBasis, v_q: &[f64], v_r: &[f64], out: &mut [f64]);

    /// Phase 1 of `evaluate` with a tip at the virtual root's left
    /// end: the raw (pre-`ln`) site likelihood of each of the
    /// `out.len()` contiguous sites, written to `out[c]`. The value at
    /// a site must not depend on which other sites share the call, so
    /// any chunking sees the same bits.
    fn evaluate_classes_ti(
        &self,
        pi_tip: &Lut16x16,
        codes_q: &[u8],
        p: &FusedPmat,
        v_r: &[f64],
        out: &mut [f64],
    );

    /// Phase 1 of `evaluate` between two inner nodes: like
    /// [`Kernels::evaluate_classes_ti`], with `codes_q` replaced by the
    /// `v_q` CLA. `pi_w[m] = w_k · π_a`.
    fn evaluate_classes_ii(
        &self,
        pi_w: &[f64; SITE_STRIDE],
        v_q: &[f64],
        p: &FusedPmat,
        v_r: &[f64],
        out: &mut [f64],
    );

    /// Phase 1 of `derivativeCore` over `out.len()/3` contiguous
    /// sumtable columns: per column `c` the raw triple `(ℓ, ℓ', ℓ'')` —
    /// the site likelihood and its first two branch-length derivatives
    /// at `t` — written to `out[3c..3c+3]`.
    fn derivative_core_classes(
        &self,
        sumtable: &[f64],
        lambda_rate: &[f64; SITE_STRIDE],
        t: f64,
        out: &mut [f64],
    );

    /// Replaces every entry of `l` with its natural log: the `ln` of
    /// this crate, bit for bit (within 1 ulp of a correctly rounded
    /// log; `ln 0 = −∞`, a negative entry or a NaN gives NaN). The
    /// `evaluate` tail runs it over each block of raw site likelihoods.
    fn ln_block(&self, l: &mut [f64]) {
        for x in l {
            *x = ln::ln(*x);
        }
    }

    /// `evaluate` with a tip at the virtual root's left end. Returns
    /// the log-likelihood over all patterns.
    fn evaluate_ti(
        &self,
        pi_tip: &Lut16x16,
        codes_q: &[u8],
        p: &FusedPmat,
        v_r: &[f64],
        scale_r: &[u32],
        weights: &[u32],
    ) -> f64 {
        let mut block = [0.0; ROOT_CHUNK];
        let mut log_l = 0.0;
        for (i, w) in weights.chunks(ROOT_CHUNK).enumerate() {
            let at = i * ROOT_CHUNK;
            let sites = at..at + w.len();
            let block = &mut block[..w.len()];
            self.evaluate_classes_ti(
                pi_tip,
                &codes_q[sites.clone()],
                p,
                site_columns(v_r, &sites),
                block,
            );
            self.ln_block(floored(block));
            for ((&ln_l, &sc), &w) in block.iter().zip(&scale_r[sites]).zip(w) {
                log_l += w as f64 * (ln_l - sc as f64 * LN_SCALE);
            }
        }
        log_l
    }

    /// `evaluate` between two inner nodes.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_ii(
        &self,
        pi_w: &[f64; SITE_STRIDE],
        v_q: &[f64],
        scale_q: &[u32],
        p: &FusedPmat,
        v_r: &[f64],
        scale_r: &[u32],
        weights: &[u32],
    ) -> f64 {
        let mut block = [0.0; ROOT_CHUNK];
        let mut log_l = 0.0;
        for (i, w) in weights.chunks(ROOT_CHUNK).enumerate() {
            let at = i * ROOT_CHUNK;
            let sites = at..at + w.len();
            let block = &mut block[..w.len()];
            self.evaluate_classes_ii(
                pi_w,
                site_columns(v_q, &sites),
                p,
                site_columns(v_r, &sites),
                block,
            );
            self.ln_block(floored(block));
            let scales = scale_q[sites.clone()].iter().zip(&scale_r[sites]);
            for ((&ln_l, (&sq, &sr)), &w) in block.iter().zip(scales).zip(w) {
                log_l += w as f64 * (ln_l - (sq + sr) as f64 * LN_SCALE);
            }
        }
        log_l
    }

    /// `derivativeCore`: first and second derivative of the
    /// log-likelihood with respect to the branch length, evaluated at
    /// `t`, from a `derivativeSum` table.
    fn derivative_core(
        &self,
        sumtable: &[f64],
        lambda_rate: &[f64; SITE_STRIDE],
        t: f64,
        weights: &[u32],
    ) -> (f64, f64) {
        derivative_core_two_phase(self, sumtable, lambda_rate, t, weights, (0.0, 0.0))
    }
}

/// The provided `derivativeCore` body: per chunk, `k`'s phase-1
/// reduction, then the ratio/weight tail folded into `(dlnl, d2lnl)`
/// in site order. A backend with a fused body of its own hands this
/// the sites it left over and its running sums, and gets the bits the
/// two-phase body would have written for the whole call.
pub(crate) fn derivative_core_two_phase<K: Kernels + ?Sized>(
    k: &K,
    sumtable: &[f64],
    lambda_rate: &[f64; SITE_STRIDE],
    t: f64,
    weights: &[u32],
    (mut dlnl, mut d2lnl): (f64, f64),
) -> (f64, f64) {
    debug_assert_eq!(sumtable.len(), weights.len() * SITE_STRIDE);
    let mut block = [0.0; 3 * ROOT_CHUNK];
    for (i, w) in weights.chunks(ROOT_CHUNK).enumerate() {
        let at = i * ROOT_CHUNK;
        let block = &mut block[..3 * w.len()];
        k.derivative_core_classes(
            site_columns(sumtable, &(at..at + w.len())),
            lambda_rate,
            t,
            block,
        );
        for (l, &w) in block.chunks_exact(3).zip(w) {
            let (ratio1, ratio2) = derivative_ratios(l[0], l[1], l[2]);
            dlnl += w as f64 * ratio1;
            d2lnl += w as f64 * ratio2;
        }
    }
    (dlnl, d2lnl)
}

/// Sites per phase-1 call of the provided full-width root kernels
/// (§V-B4 site blocking): the raw per-site values of one chunk live in
/// a stack buffer between the vector reduction and the scalar tail.
/// Only speed depends on it — the tail folds sites in site order
/// whatever the chunking. 512 is where both per-call costs are noise
/// next to the 390-site calls of a 64-taxon search: zeroing the buffer
/// (12 KiB for `derivative_core`) and the 16 exponentials
/// `derivative_core_classes` rebuilds per call.
const ROOT_CHUNK: usize = 64 * SITE_BLOCK;

/// The columns of `sites` in a [`SITE_STRIDE`]-wide site buffer.
#[inline]
fn site_columns<'a>(buf: &'a [f64], sites: &std::ops::Range<usize>) -> &'a [f64] {
    &buf[sites.start * SITE_STRIDE..sites.end * SITE_STRIDE]
}

/// The raw site likelihoods of an `evaluate` block, each raised to
/// [`positive`]'s floor so that its log is finite; the tail then adds
/// `w · (ln ℓ − scale · LN_SCALE)` in site order.
#[inline]
fn floored(block: &mut [f64]) -> &mut [f64] {
    for l in block.iter_mut() {
        *l = positive(*l);
    }
    block
}

/// The `derivativeCore` tail at one site: the site's contributions
/// `ℓ'/ℓ` and `ℓ''/ℓ − (ℓ'/ℓ)²` to the first and second derivative of
/// the log-likelihood.
#[inline]
fn derivative_ratios(l: f64, l1: f64, l2: f64) -> (f64, f64) {
    let l = positive(l);
    let ratio1 = l1 / l;
    (ratio1, l2 / l - ratio1 * ratio1)
}

/// Shared helper: the per-branch exponential tables of
/// `derivativeCore` — `e^{λ_j r_k t}`, `λ_j r_k e^{…}`, and
/// `(λ_j r_k)² e^{…}` — computed once per call, shared by all sites.
#[inline]
pub(crate) fn derivative_exp_tables(
    lambda_rate: &[f64; SITE_STRIDE],
    t: f64,
) -> ([f64; SITE_STRIDE], [f64; SITE_STRIDE], [f64; SITE_STRIDE]) {
    let mut e = [0.0; SITE_STRIDE];
    let mut d1 = [0.0; SITE_STRIDE];
    let mut d2 = [0.0; SITE_STRIDE];
    for m in 0..SITE_STRIDE {
        let lr = lambda_rate[m];
        let ex = (lr * t).exp();
        e[m] = ex;
        d1[m] = lr * ex;
        d2[m] = lr * lr * ex;
    }
    (e, d1, d2)
}

/// Guard against a zero site likelihood (possible only when scaling has
/// been defeated by pathological inputs); keeps `ln` finite.
#[inline]
fn positive(l: f64) -> f64 {
    debug_assert!(l >= 0.0, "negative site likelihood {l}");
    l.max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlignedVec;

    #[test]
    fn resolve_returns_concrete_backends_only() {
        for kind in KernelKind::ALL {
            let r = kind.resolve();
            assert_eq!(r, r.resolve(), "resolve must be idempotent");
        }
        // Scalar is never redirected.
        assert_eq!(KernelKind::Scalar.resolve(), KernelKind::Scalar);
        assert_eq!(KernelKind::ALL.map(|k| k.to_string()), ["scalar", "simd"]);
    }

    #[test]
    fn auto_dispatch_follows_host_features() {
        let expect = if KernelKind::simd_available() {
            KernelKind::Simd
        } else {
            KernelKind::Scalar
        };
        assert_eq!(KernelKind::Simd.resolve(), expect);
    }

    #[test]
    fn every_kind_yields_a_kernel_set() {
        // Dispatch must not panic for any variant; exercise one cheap
        // kernel call through each to prove the vtable is live.
        let lut = Lut16x16 {
            rows: [[0.5; SITE_STRIDE]; 16],
        };
        for kind in KernelKind::ALL {
            let mut out = AlignedVec::zeroed(SITE_STRIDE);
            let mut scale = [0u32; 1];
            kind.kernels()
                .newview_tt(&lut, &lut, &[1], &[2], &mut out, &mut scale);
            assert!((out[0] - 0.25).abs() < 1e-15, "{kind}");
        }
    }

    /// Deterministic doubles in `(0, 1)` (xorshift64*).
    fn fill(buf: &mut [f64], seed: u64) {
        let mut s = seed | 1;
        for v in buf.iter_mut() {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            *v = ((s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        }
    }

    #[test]
    fn provided_root_kernels_equal_the_per_site_definition_bit_for_bit() {
        use phylo_models::{DiscreteGamma, Gtr, GtrParams, ProbMatrix};
        let gtr = Gtr::new(GtrParams {
            rates: [1.2, 2.9, 0.8, 1.1, 3.5, 1.0],
            freqs: [0.28, 0.22, 0.21, 0.29],
        });
        let rates = *DiscreteGamma::new(0.7).rates();
        let p = FusedPmat::from_prob(&ProbMatrix::new(gtr.eigen(), &rates, 0.23));
        let basis = EigenBasis::new(gtr.eigen(), &rates);
        let pi_tip = Lut16x16::tip_pi(&gtr.freqs());
        let mut pi_w = [0.0; SITE_STRIDE];
        for (m, w) in pi_w.iter_mut().enumerate() {
            *w = 0.25 * gtr.freqs()[m % 4];
        }
        // 8, 9, 15 and 16 sit around the 8-site step of the fused
        // 512-bit `derivative_core`.
        for n in [
            1,
            7,
            8,
            9,
            15,
            16,
            ROOT_CHUNK - 1,
            ROOT_CHUNK,
            ROOT_CHUNK + 1,
            1000,
        ] {
            let mut v_q = AlignedVec::zeroed(n * SITE_STRIDE);
            let mut v_r = AlignedVec::zeroed(n * SITE_STRIDE);
            let mut sumtable = AlignedVec::zeroed(n * SITE_STRIDE);
            fill(&mut v_q, 17);
            fill(&mut v_r, 19);
            fill(&mut sumtable, 23);
            // One all-zero column: ℓ = 0 meets the `positive` guard.
            let zero = n / 2;
            sumtable[zero * SITE_STRIDE..(zero + 1) * SITE_STRIDE].fill(0.0);
            // Every fifth site looks like one that was rescaled on the
            // way up: tiny values, nonzero counters.
            for i in (0..n).step_by(5) {
                for x in &mut v_r[i * SITE_STRIDE..(i + 1) * SITE_STRIDE] {
                    *x *= crate::scaling::SCALE_THRESHOLD;
                }
            }
            let codes: Vec<u8> = (0..n).map(|i| 1 + (i % 15) as u8).collect();
            let scale_q: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
            let scale_r: Vec<u32> = (0..n)
                .map(|i| (i % 5 == 0) as u32 + (i % 2) as u32)
                .collect();
            let weights: Vec<u32> = (0..n).map(|i| 1 + (i % 4) as u32).collect();
            let site = |buf: &[f64], i: usize| -> AlignedVec {
                let mut one = AlignedVec::zeroed(SITE_STRIDE);
                one.copy_from_slice(&buf[i * SITE_STRIDE..(i + 1) * SITE_STRIDE]);
                one
            };
            // The scalar loops and every explicit-SIMD width this host
            // runs (the π-weighted tail and `derivative_core_classes`
            // are shared by the widths; the matrix phase and, at 512
            // bits, `derivative_core` are not).
            let mut sets: Vec<(String, &dyn Kernels)> =
                vec![("scalar".into(), KernelKind::Scalar.kernels())];
            for set in simd::tests::widths_under_test() {
                sets.push((format!("simd at {} bits", set.width_bits()), set));
            }
            for (kind, k) in sets {
                let (mut ti, mut ii, mut d1, mut d2) = (0.0, 0.0, 0.0, 0.0);
                for i in 0..n {
                    let (q, r, s) = (site(&v_q, i), site(&v_r, i), site(&sumtable, i));
                    let w = weights[i] as f64;
                    let mut l = [0.0];
                    k.evaluate_classes_ti(&pi_tip, &codes[i..=i], &p, &r, &mut l);
                    ti += w * (ln::ln(l[0].max(f64::MIN_POSITIVE)) - scale_r[i] as f64 * LN_SCALE);
                    k.evaluate_classes_ii(&pi_w, &q, &p, &r, &mut l);
                    let sc = (scale_q[i] + scale_r[i]) as f64;
                    ii += w * (ln::ln(l[0].max(f64::MIN_POSITIVE)) - sc * LN_SCALE);
                    let mut l = [0.0; 3];
                    k.derivative_core_classes(&s, &basis.lambda_rate, 0.31, &mut l);
                    let l0 = l[0].max(f64::MIN_POSITIVE);
                    let ratio1 = l[1] / l0;
                    d1 += w * ratio1;
                    d2 += w * (l[2] / l0 - ratio1 * ratio1);
                }
                let got_ti = k.evaluate_ti(&pi_tip, &codes, &p, &v_r, &scale_r, &weights);
                let got_ii = k.evaluate_ii(&pi_w, &v_q, &scale_q, &p, &v_r, &scale_r, &weights);
                let got_d = k.derivative_core(&sumtable, &basis.lambda_rate, 0.31, &weights);
                assert!(ti.is_finite() && ii.is_finite() && d1.is_finite() && d2.is_finite());
                assert_eq!(got_ti.to_bits(), ti.to_bits(), "{kind} n={n} evaluate_ti");
                assert_eq!(got_ii.to_bits(), ii.to_bits(), "{kind} n={n} evaluate_ii");
                assert_eq!(got_d.0.to_bits(), d1.to_bits(), "{kind} n={n} dlnl");
                assert_eq!(got_d.1.to_bits(), d2.to_bits(), "{kind} n={n} d2lnl");
            }
        }
    }
}
