//! Reference (scalar) kernel implementations.
//!
//! Deliberately written the way the pre-port C code computes: nested
//! loops over rate categories and states, per-(k, a) dot products over
//! child states, no fused multiply-add, no layout tricks. This is the
//! baseline the paper's §V optimizations are measured against, the
//! oracle the explicit-SIMD backend is tested against, and the backend
//! every host without AVX2+FMA runs.

use super::{derivative_exp_tables, Kernels};
use crate::layout::{EigenBasis, FusedPmat, Lut16x16};
use crate::scaling::scale_site;
use crate::{NUM_RATES, NUM_STATES, SITE_STRIDE};

/// Scalar kernel set.
pub struct ScalarKernels;

/// P_k[a][b] from the fused layout (the scalar code un-fuses it).
#[inline]
fn p_entry(p: &FusedPmat, k: usize, a: usize, b: usize) -> f64 {
    p.cols[b][4 * k + a]
}

impl Kernels for ScalarKernels {
    fn newview_tt(
        &self,
        lut_l: &Lut16x16,
        lut_r: &Lut16x16,
        codes_l: &[u8],
        codes_r: &[u8],
        out: &mut [f64],
        scale_out: &mut [u32],
    ) {
        let n = scale_out.len();
        debug_assert_eq!(out.len(), n * SITE_STRIDE);
        for i in 0..n {
            let l = &lut_l.rows[codes_l[i] as usize];
            let r = &lut_r.rows[codes_r[i] as usize];
            let site = &mut out[i * SITE_STRIDE..(i + 1) * SITE_STRIDE];
            for m in 0..SITE_STRIDE {
                site[m] = l[m] * r[m];
            }
            scale_out[i] = scale_site(site);
        }
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
        let n = scale_out.len();
        for i in 0..n {
            let l = &lut_l.rows[codes_l[i] as usize];
            let vr = &v_r[i * SITE_STRIDE..(i + 1) * SITE_STRIDE];
            let site = &mut out[i * SITE_STRIDE..(i + 1) * SITE_STRIDE];
            for k in 0..NUM_RATES {
                for a in 0..NUM_STATES {
                    let mut r = 0.0;
                    for b in 0..NUM_STATES {
                        r += p_entry(p_r, k, a, b) * vr[4 * k + b];
                    }
                    site[4 * k + a] = l[4 * k + a] * r;
                }
            }
            scale_out[i] = scale_r[i] + scale_site(site);
        }
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
        let n = scale_out.len();
        for i in 0..n {
            let vl = &v_l[i * SITE_STRIDE..(i + 1) * SITE_STRIDE];
            let vr = &v_r[i * SITE_STRIDE..(i + 1) * SITE_STRIDE];
            let site = &mut out[i * SITE_STRIDE..(i + 1) * SITE_STRIDE];
            for k in 0..NUM_RATES {
                for a in 0..NUM_STATES {
                    let mut l = 0.0;
                    let mut r = 0.0;
                    for b in 0..NUM_STATES {
                        l += p_entry(p_l, k, a, b) * vl[4 * k + b];
                        r += p_entry(p_r, k, a, b) * vr[4 * k + b];
                    }
                    site[4 * k + a] = l * r;
                }
            }
            scale_out[i] = scale_l[i] + scale_r[i] + scale_site(site);
        }
    }

    fn derivative_sum_ti(&self, basis: &EigenBasis, codes_q: &[u8], v_r: &[f64], out: &mut [f64]) {
        let n = out.len() / SITE_STRIDE;
        for i in 0..n {
            let le = &basis.tip_left.rows[codes_q[i] as usize];
            let vr = &v_r[i * SITE_STRIDE..(i + 1) * SITE_STRIDE];
            let site = &mut out[i * SITE_STRIDE..(i + 1) * SITE_STRIDE];
            for k in 0..NUM_RATES {
                for j in 0..NUM_STATES {
                    let m = 4 * k + j;
                    let mut re = 0.0;
                    for b in 0..NUM_STATES {
                        re += basis.uinv[b][m] * vr[4 * k + b];
                    }
                    site[m] = le[m] * re;
                }
            }
        }
    }

    fn derivative_sum_ii(&self, basis: &EigenBasis, v_q: &[f64], v_r: &[f64], out: &mut [f64]) {
        let n = out.len() / SITE_STRIDE;
        for i in 0..n {
            let vq = &v_q[i * SITE_STRIDE..(i + 1) * SITE_STRIDE];
            let vr = &v_r[i * SITE_STRIDE..(i + 1) * SITE_STRIDE];
            let site = &mut out[i * SITE_STRIDE..(i + 1) * SITE_STRIDE];
            for k in 0..NUM_RATES {
                for j in 0..NUM_STATES {
                    let m = 4 * k + j;
                    let mut le = 0.0;
                    let mut re = 0.0;
                    for ab in 0..NUM_STATES {
                        le += basis.piu[ab][m] * vq[4 * k + ab];
                        re += basis.uinv[ab][m] * vr[4 * k + ab];
                    }
                    site[m] = le * re;
                }
            }
        }
    }

    fn evaluate_classes_ti(
        &self,
        pi_tip: &Lut16x16,
        codes_q: &[u8],
        p: &FusedPmat,
        v_r: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(v_r.len(), out.len() * SITE_STRIDE);
        let inputs = codes_q.iter().zip(v_r.chunks_exact(SITE_STRIDE));
        for (slot, (&code, vr)) in out.iter_mut().zip(inputs) {
            let piq = &pi_tip.rows[code as usize];
            let mut site = 0.0;
            for k in 0..NUM_RATES {
                for a in 0..NUM_STATES {
                    let mut x = 0.0;
                    for b in 0..NUM_STATES {
                        x += p_entry(p, k, a, b) * vr[4 * k + b];
                    }
                    site += piq[4 * k + a] * x;
                }
            }
            *slot = site;
        }
    }

    fn evaluate_classes_ii(
        &self,
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
        for (slot, (vq, vr)) in out.iter_mut().zip(inputs) {
            let mut site = 0.0;
            for k in 0..NUM_RATES {
                for a in 0..NUM_STATES {
                    let mut x = 0.0;
                    for b in 0..NUM_STATES {
                        x += p_entry(p, k, a, b) * vr[4 * k + b];
                    }
                    site += pi_w[4 * k + a] * vq[4 * k + a] * x;
                }
            }
            *slot = site;
        }
    }

    fn derivative_core_classes(
        &self,
        sumtable: &[f64],
        lambda_rate: &[f64; SITE_STRIDE],
        t: f64,
        out: &mut [f64],
    ) {
        let n = out.len() / 3;
        debug_assert_eq!(sumtable.len(), n * SITE_STRIDE);
        let (e, d1, d2) = derivative_exp_tables(lambda_rate, t);
        for c in 0..n {
            let s = &sumtable[c * SITE_STRIDE..(c + 1) * SITE_STRIDE];
            let mut l = 0.0;
            let mut l1 = 0.0;
            let mut l2 = 0.0;
            for m in 0..SITE_STRIDE {
                l += s[m] * e[m];
                l1 += s[m] * d1[m];
                l2 += s[m] * d2[m];
            }
            out[3 * c] = l;
            out[3 * c + 1] = l1;
            out[3 * c + 2] = l2;
        }
    }
}

/// CI tripwire, compiled only under the `seed-hotpath-bug` feature
/// (see Cargo.toml): a deliberately impure kernel entry point the
/// analyzer must flag. The name matches a PLF entry point so the
/// purity rule roots reachability here; the raw `mul_add` reproduces
/// the libm-collapse shape the fpdet rule pins (without hardware FMA
/// it lowers to a ~10× slower libm call); the `unwrap` and unchecked
/// indexing seed the panic/index categories. `cargo xtask lint
/// --cfg-feature seed-hotpath-bug` must fail on this fn — CI asserts
/// that it does.
#[cfg(feature = "seed-hotpath-bug")]
pub fn derivative_core(sumtable: &[f64], lambda: &[f64], t: f64) -> f64 {
    let scale = lambda.first().copied().unwrap() * t;
    let mut acc = 0.0;
    for i in 0..sumtable.len() {
        acc = sumtable[i].mul_add(scale, acc);
    }
    acc
}
