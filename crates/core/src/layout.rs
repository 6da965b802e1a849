//! Fused data layouts for the kernels (§V-B3 of the paper).
//!
//! Under Γ with four rates, each site carries 16 conditional values
//! indexed by `m = 4·k + a` (rate category `k`, state `a`). The paper's
//! key loop transformation executes the four per-category 1×4 · 4×4
//! vector-matrix products *simultaneously*, giving an innermost loop of
//! 16 contiguous iterations — enough to fill a 512-bit vector unit
//! twice. That requires the transition matrices to be laid out "fused":
//! for each input state `b`, a 16-vector over `m` of `P_k[a][b]`.
//!
//! Tips never store CLAs; their contribution is a table lookup by the
//! 4-bit ambiguity code. [`Lut16x16`] holds one 16-wide row per code.
//!
//! # Buffer padding invariant (§V-B2)
//!
//! Every pattern-major buffer the kernels touch — CLA value buffers,
//! `derivativeSum` tables — holds exactly `n · SITE_STRIDE` doubles:
//! whole 128-byte site blocks with a 64-byte-aligned base.
//! [`crate::AlignedVec`] guarantees both for engine-owned buffers, and
//! [`crate::aligned::debug_assert_site_buffer`] re-checks the contract
//! at every explicit-SIMD kernel entry. The SIMD backend depends on it
//! twice over: each site is processed as four full 4×f64 vectors with
//! no scalar remainder tail (so a short final block would read past
//! the allocation), and the 128-byte site stride keeps every site
//! offset 32-byte aligned, which `_mm256_stream_pd` requires. The
//! lookup tables below carry `#[repr(align(64))]` for the same reason:
//! their 16-wide rows are loaded four lanes at a time.

use crate::{NUM_RATES, NUM_STATES, SITE_STRIDE};
use phylo_models::{Eigensystem, ProbMatrix};

/// The index range of pattern `i`'s 16 doubles in a pattern-major
/// buffer.
#[inline]
pub fn site_range(i: usize) -> std::ops::Range<usize> {
    i * SITE_STRIDE..(i + 1) * SITE_STRIDE
}

/// A transition-probability matrix in fused `(rate, state)` layout:
/// `cols[b][4k + a] = P_k[a][b]`.
#[derive(Clone, Debug, PartialEq)]
#[repr(align(64))]
pub struct FusedPmat {
    /// One 16-wide column per input state `b`.
    pub cols: [[f64; SITE_STRIDE]; NUM_STATES],
}

impl FusedPmat {
    /// Reorganizes a per-category matrix set into fused layout.
    pub fn from_prob(p: &ProbMatrix) -> Self {
        let mut cols = [[0.0; SITE_STRIDE]; NUM_STATES];
        for b in 0..NUM_STATES {
            for k in 0..NUM_RATES {
                for a in 0..NUM_STATES {
                    cols[b][4 * k + a] = p.per_rate[k][a][b];
                }
            }
        }
        FusedPmat { cols }
    }
}

/// A 16-row × 16-wide lookup table indexed by a tip's 4-bit ambiguity
/// code. Row 0 corresponds to the invalid code and stays zeroed.
#[derive(Clone, Debug, PartialEq)]
#[repr(align(64))]
pub struct Lut16x16 {
    /// `rows[code][m]`.
    pub rows: [[f64; SITE_STRIDE]; 16],
}

impl Lut16x16 {
    /// Tip-side `newview` table: `rows[code][m] = Σ_{b ∈ code}
    /// P_k[a][b]` — the conditional likelihood of an ambiguous tip
    /// character across the branch.
    pub fn tip_prob(p: &FusedPmat) -> Self {
        let mut rows = [[0.0; SITE_STRIDE]; 16];
        for code in 1u8..16 {
            for b in 0..NUM_STATES {
                if code & (1 << b) != 0 {
                    for m in 0..SITE_STRIDE {
                        rows[code as usize][m] += p.cols[b][m];
                    }
                }
            }
        }
        Lut16x16 { rows }
    }

    /// Tip-side `evaluate` table: `rows[code][m] = w_k · π_a ·
    /// ind(a ∈ code)` with the uniform category weight `w_k = 1/4`
    /// folded in.
    pub fn tip_pi(freqs: &[f64; NUM_STATES]) -> Self {
        let w = 1.0 / NUM_RATES as f64;
        let mut rows = [[0.0; SITE_STRIDE]; 16];
        for code in 1u8..16 {
            for a in 0..NUM_STATES {
                if code & (1 << a) != 0 {
                    for k in 0..NUM_RATES {
                        rows[code as usize][4 * k + a] = w * freqs[a];
                    }
                }
            }
        }
        Lut16x16 { rows }
    }

    /// Tip-side derivative table: `rows[code][4k + j] = Σ_{a ∈ code}
    /// π_a U[a][j]` — the eigen-basis projection of an ambiguous tip,
    /// replicated across rate categories.
    pub fn tip_eigen(eigen: &Eigensystem) -> Self {
        let pi = eigen.freqs();
        let u = eigen.u();
        let mut rows = [[0.0; SITE_STRIDE]; 16];
        for code in 1u8..16 {
            for j in 0..NUM_STATES {
                let mut sum = 0.0;
                for a in 0..NUM_STATES {
                    if code & (1 << a) != 0 {
                        sum += pi[a] * u[a][j];
                    }
                }
                for k in 0..NUM_RATES {
                    rows[code as usize][4 * k + j] = sum;
                }
            }
        }
        Lut16x16 { rows }
    }
}

/// Everything `derivativeSum` and `derivativeCore` need from the model:
/// eigen-basis projection tables in fused layout plus the `λ_j · r_k`
/// factors of the exponentials.
#[derive(Clone, Debug)]
#[repr(align(64))]
pub struct EigenBasis {
    /// `piu[a][4k + j] = π_a · U[a][j]` (left/root-side projection).
    pub piu: [[f64; SITE_STRIDE]; NUM_STATES],
    /// `uinv[b][4k + j] = U⁻¹[j][b]` (right-side projection).
    pub uinv: [[f64; SITE_STRIDE]; NUM_STATES],
    /// Tip projection table (tip on the left of the branch).
    pub tip_left: Lut16x16,
    /// `λ_j · r_k` at `m = 4k + j`; `exp(lambda_rate[m] · t)` is the
    /// per-branch exponential of `derivativeCore`.
    pub lambda_rate: [f64; SITE_STRIDE],
}

impl EigenBasis {
    /// Builds the fused eigen-basis tables for a model and Γ rates.
    pub fn new(eigen: &Eigensystem, rates: &[f64; NUM_RATES]) -> Self {
        let pi = eigen.freqs();
        let u = eigen.u();
        let ui = eigen.u_inv();
        let vals = eigen.values();
        let mut piu = [[0.0; SITE_STRIDE]; NUM_STATES];
        let mut uinv = [[0.0; SITE_STRIDE]; NUM_STATES];
        let mut lambda_rate = [0.0; SITE_STRIDE];
        for k in 0..NUM_RATES {
            for j in 0..NUM_STATES {
                let m = 4 * k + j;
                lambda_rate[m] = vals[j] * rates[k];
                for a in 0..NUM_STATES {
                    piu[a][m] = pi[a] * u[a][j];
                    uinv[a][m] = ui[j][a];
                }
            }
        }
        EigenBasis {
            piu,
            uinv,
            tip_left: Lut16x16::tip_eigen(eigen),
            lambda_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_models::{DiscreteGamma, Gtr, GtrParams};

    fn model() -> Gtr {
        Gtr::new(GtrParams {
            rates: [1.2, 2.9, 0.8, 1.1, 3.5, 1.0],
            freqs: [0.28, 0.22, 0.21, 0.29],
        })
    }

    #[test]
    fn fused_layout_matches_source() {
        let g = model();
        let rates = *DiscreteGamma::new(0.7).rates();
        let pm = ProbMatrix::new(g.eigen(), &rates, 0.23);
        let f = FusedPmat::from_prob(&pm);
        for k in 0..NUM_RATES {
            for a in 0..NUM_STATES {
                for b in 0..NUM_STATES {
                    assert_eq!(f.cols[b][4 * k + a], pm.per_rate[k][a][b]);
                }
            }
        }
    }

    #[test]
    fn tip_prob_unambiguous_is_column() {
        let g = model();
        let rates = *DiscreteGamma::new(0.7).rates();
        let pm = ProbMatrix::new(g.eigen(), &rates, 0.23);
        let f = FusedPmat::from_prob(&pm);
        let lut = Lut16x16::tip_prob(&f);
        // Code 0b0100 = G (state 2).
        for m in 0..SITE_STRIDE {
            assert_eq!(lut.rows[0b0100][m], f.cols[2][m]);
        }
    }

    #[test]
    fn tip_prob_gap_rows_sum_to_one() {
        // A fully undetermined tip contributes Σ_b P[a][b] = 1 per
        // (k, a).
        let g = model();
        let rates = *DiscreteGamma::new(0.7).rates();
        let pm = ProbMatrix::new(g.eigen(), &rates, 0.42);
        let lut = Lut16x16::tip_prob(&FusedPmat::from_prob(&pm));
        for m in 0..SITE_STRIDE {
            assert!((lut.rows[0b1111][m] - 1.0).abs() < 1e-9, "m={m}");
        }
    }

    #[test]
    fn tip_prob_ambiguity_is_union() {
        let g = model();
        let rates = *DiscreteGamma::new(0.7).rates();
        let pm = ProbMatrix::new(g.eigen(), &rates, 0.1);
        let lut = Lut16x16::tip_prob(&FusedPmat::from_prob(&pm));
        for m in 0..SITE_STRIDE {
            let r = lut.rows[0b0101][m]; // A|G
            assert!((r - (lut.rows[0b0001][m] + lut.rows[0b0100][m])).abs() < 1e-12);
        }
    }

    #[test]
    fn tip_pi_weights_fold_quarter() {
        let g = model();
        let lut = Lut16x16::tip_pi(&g.freqs());
        // Unambiguous A: entries w·π_A at positions 4k+0, zero at other
        // states.
        for k in 0..NUM_RATES {
            assert!((lut.rows[0b0001][4 * k] - 0.25 * g.freqs()[0]).abs() < 1e-15);
            assert_eq!(lut.rows[0b0001][4 * k + 1], 0.0);
        }
    }

    #[test]
    fn eigen_basis_inner_product_reproduces_evaluate() {
        // Σ_j (π_a U[a][j]) e^{λ_j r t} (U⁻¹[j][b]) = π_a P_ab(rt):
        // the eigen-basis factorization must agree with the direct
        // P-matrix for every (a, b, k).
        let g = model();
        let gamma = DiscreteGamma::new(0.7);
        let rates = *gamma.rates();
        let t = 0.37;
        let basis = EigenBasis::new(g.eigen(), &rates);
        let pm = ProbMatrix::new(g.eigen(), &rates, t);
        for k in 0..NUM_RATES {
            for a in 0..NUM_STATES {
                for b in 0..NUM_STATES {
                    let mut sum = 0.0;
                    for j in 0..NUM_STATES {
                        let m = 4 * k + j;
                        sum +=
                            basis.piu[a][m] * (basis.lambda_rate[m] * t).exp() * basis.uinv[b][m];
                    }
                    let direct = g.freqs()[a] * pm.per_rate[k][a][b];
                    assert!((sum - direct).abs() < 1e-10, "k={k} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn kernel_tables_are_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<FusedPmat>(), 64);
        assert_eq!(std::mem::align_of::<Lut16x16>(), 64);
        assert_eq!(std::mem::align_of::<EigenBasis>(), 64);
    }

    #[test]
    fn invalid_code_rows_zero() {
        let g = model();
        let rates = *DiscreteGamma::new(1.0).rates();
        let pm = ProbMatrix::new(g.eigen(), &rates, 0.2);
        let lut = Lut16x16::tip_prob(&FusedPmat::from_prob(&pm));
        assert!(lut.rows[0].iter().all(|&v| v == 0.0));
    }
}
