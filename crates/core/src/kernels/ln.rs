//! The natural log of the `evaluate` tail, written once in `+ − × ÷`.
//!
//! The log-likelihood is a sum of `ln ℓ` over sites, so a libm `log`
//! would tie every logL bit to the host's C library. This one is the
//! fdlibm reduction — `x = 2^e · m` with `m` in `[√½, √2)`, `f = m − 1`
//! — and its polynomial in `s = f/(2 + f)`, with no fused multiply-add:
//! every operation rounds once, as IEEE 754 says, on any host. The
//! 512-bit body of [`super::Kernels::ln_block`] runs the same operations
//! in the same order, 8 lanes at a time, so every backend and width
//! writes the same bits. It is within 1 ulp of a correctly rounded log.

/// `ln 2`, split: the high part has 21 trailing zero bits, so `e ·
/// LN2_HI` is exact for every exponent a double has.
pub(super) const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
pub(super) const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);

/// fdlibm's minimax coefficients of `R(z) ≈ (ln((1+s)/(1−s)) − 2s)/s`,
/// `z = s²`: `LGi` multiplies `zⁱ`.
pub(super) const LG1: f64 = f64::from_bits(0x3FE5_5555_5555_5593);
pub(super) const LG2: f64 = f64::from_bits(0x3FD9_9999_9997_FA04);
pub(super) const LG3: f64 = f64::from_bits(0x3FD2_4924_9422_9359);
pub(super) const LG4: f64 = f64::from_bits(0x3FCC_71C5_1D8E_78AF);
pub(super) const LG5: f64 = f64::from_bits(0x3FC7_4664_96CB_03DE);
pub(super) const LG6: f64 = f64::from_bits(0x3FC3_9A09_D078_C69F);
pub(super) const LG7: f64 = f64::from_bits(0x3FC2_F112_DF3E_5244);

/// A mantissa in `[1, 2)` at or above this is halved (and the exponent
/// raised), leaving `m` in `[√½, √2)`.
pub(super) const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// `ln x`. Normal positive inputs take [`ln_reduced`]; `±0` gives −∞,
/// a negative input or a NaN gives NaN, +∞ gives +∞, and a subnormal
/// is scaled into the normal range first.
#[inline]
pub(crate) fn ln(x: f64) -> f64 {
    if !(f64::MIN_POSITIVE..=f64::MAX).contains(&x) {
        return ln_outside_normal(x);
    }
    let (m, e) = split(x);
    ln_reduced(m, e)
}

/// `x = 2^e · m` with `m` in `[1, 2)`, for a normal positive `x`.
#[inline(always)]
fn split(x: f64) -> (f64, f64) {
    let bits = x.to_bits();
    let e = ((bits >> 52) as i64 - 1023) as f64;
    (f64::from_bits(bits & ((1 << 52) - 1) | 1f64.to_bits()), e)
}

#[cold]
#[inline(never)]
fn ln_outside_normal(x: f64) -> f64 {
    if x.is_nan() || x < 0.0 {
        f64::NAN
    } else if x > f64::MAX {
        x
    } else if x > 0.0 {
        // Subnormal: 2⁵⁴ · x is normal, and the product is exact.
        let (m, e) = split(x * f64::from_bits((1023 + 54) << 52));
        ln_reduced(m, e - 54.0)
    } else {
        f64::NEG_INFINITY
    }
}

/// `ln(2^e · m)` for a mantissa `m` in `[1, 2)` and an integral `e`:
/// the one sequence of operations every body runs.
#[inline(always)]
fn ln_reduced(m: f64, e: f64) -> f64 {
    let (m, e) = if m >= SQRT_2 {
        (m * 0.5, e + 1.0)
    } else {
        (m, e)
    };
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    e * LN2_HI - ((hfsq - (s * (hfsq + r) + e * LN2_LO)) - f)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in units in the last place between two finite doubles.
    fn ulps(a: f64, b: f64) -> u64 {
        // Doubles ordered as integers: negative ones mirrored below zero.
        let key = |x: f64| {
            let b = x.to_bits() as i64;
            if b < 0 {
                i64::MIN - b
            } else {
                b
            }
        };
        key(a).abs_diff(key(b))
    }

    /// `2^k`, exactly, normal or subnormal.
    fn pow2(k: i32) -> f64 {
        if k >= -1022 {
            f64::from_bits(((k + 1023) as u64) << 52)
        } else {
            f64::from_bits(1 << (k + 1074))
        }
    }

    #[test]
    fn within_one_ulp_of_the_host_log_over_a_sweep_and_every_power_of_two() {
        let mut inputs: Vec<f64> = Vec::new();
        // A geometric sweep of [MIN_POSITIVE, 1] ...
        let steps = 200_000;
        let ratio = (-f64::MIN_POSITIVE.ln() / steps as f64).exp();
        let mut x = f64::MIN_POSITIVE;
        while x < 1.0 {
            inputs.push(x);
            x *= ratio;
        }
        // ... every ulp near 1, near √2 (the halving edge) and near √½,
        // and a linear sweep of [0.5, 2] — where `f` is largest.
        for centre in [1.0, SQRT_2, 0.5 * SQRT_2] {
            let c = f64::to_bits(centre);
            inputs.extend((c - 2000..c + 2000).map(f64::from_bits));
        }
        inputs.extend((0..100_000).map(|i| 0.5 + 1.5 * i as f64 / 100_000.0));
        // ... and every power of two a double has, normal or not.
        inputs.extend((-1074..=1023).map(pow2));
        let (mut worst, mut differ) = (0, 0);
        for &x in &inputs {
            let (got, want) = (ln(x), x.ln());
            let d = ulps(got, want);
            assert!(d <= 1, "ln({x:e}) = {got:e}, host log {want:e}: {d} ulps");
            worst = worst.max(d);
            differ += (d > 0) as usize;
        }
        println!("{differ} of {} inputs 1 ulp off the host log", inputs.len());
        assert!(worst <= 1);
    }

    #[test]
    fn exact_where_the_log_is_exact_and_ieee_at_the_edges() {
        assert_eq!(ln(1.0).to_bits(), 0f64.to_bits());
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert_eq!(ln(-0.0), f64::NEG_INFINITY);
        assert!(ln(-1.0).is_nan() && ln(f64::NAN).is_nan() && ln(f64::NEG_INFINITY).is_nan());
        // 2^k: the reduction leaves f = 0, and ln is e·LN2_HI + e·LN2_LO.
        for k in [-1074, -1023, -1022, -1, 1, 2, 10, 1023] {
            let want = k as f64 * LN2_HI + k as f64 * LN2_LO;
            assert_eq!(ln(pow2(k)).to_bits(), want.to_bits(), "2^{k}");
        }
    }
}
