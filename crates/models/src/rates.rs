//! Rate heterogeneity across sites.
//!
//! The paper's kernels support exactly one heterogeneity model: the Γ
//! model with four discrete rates (Yang 1994). [`DiscreteGamma`]
//! implements the standard mean-per-category discretization: the rate
//! distribution Gamma(α, α) (mean 1) is cut into `k` equal-probability
//! intervals at its quantiles, and each category's rate is the
//! distribution's conditional mean over its interval, so the category
//! rates always average to 1.

use crate::math::gammafn::{inv_reg_gamma_p, reg_gamma_p};
use crate::NUM_RATES;

/// Γ rate heterogeneity with `NUM_RATES` equal-weight categories.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiscreteGamma {
    alpha: f64,
    rates: [f64; NUM_RATES],
}

impl DiscreteGamma {
    /// Lower bound on α accepted by [`DiscreteGamma::new`]; below this,
    /// category rates underflow and the likelihood degenerates.
    pub const MIN_ALPHA: f64 = 0.02;
    /// Upper bound on α; beyond this, all categories are ≈1 and the
    /// model is operationally homogeneous.
    pub const MAX_ALPHA: f64 = 100.0;

    /// Discretizes Gamma(α, α) into `NUM_RATES` mean-per-category rates.
    ///
    /// # Panics
    /// Panics when α is outside `[MIN_ALPHA, MAX_ALPHA]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            (Self::MIN_ALPHA..=Self::MAX_ALPHA).contains(&alpha),
            "alpha {alpha} outside [{}, {}]",
            Self::MIN_ALPHA,
            Self::MAX_ALPHA
        );
        let k = NUM_RATES as f64;

        // Category boundaries: quantiles i/k of Gamma(alpha, rate=alpha).
        // inv_reg_gamma_p returns the quantile of Gamma(alpha, 1); scale
        // by 1/alpha for rate alpha.
        let mut bounds = [0.0f64; NUM_RATES + 1];
        for i in 1..NUM_RATES {
            bounds[i] = inv_reg_gamma_p(alpha, i as f64 / k) / alpha;
        }
        bounds[NUM_RATES] = f64::INFINITY;

        // Conditional mean of category i:
        //   E[X | b_i < X < b_{i+1}] * k
        // with E[X·1{X<b}] = (alpha/alpha) P(alpha+1, alpha·b).
        let mut rates = [0.0f64; NUM_RATES];
        let upper_p = |b: f64| -> f64 {
            if b.is_infinite() {
                1.0
            } else {
                reg_gamma_p(alpha + 1.0, alpha * b)
            }
        };
        for i in 0..NUM_RATES {
            rates[i] = k * (upper_p(bounds[i + 1]) - upper_p(bounds[i]));
        }

        // Renormalize the (tiny) discretization residual so the mean is
        // exactly 1, which keeps branch lengths calibrated.
        let mean: f64 = rates.iter().sum::<f64>() / k;
        for r in rates.iter_mut() {
            *r /= mean;
        }

        DiscreteGamma { alpha, rates }
    }

    /// The shape parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The category rates, ascending, mean exactly 1.
    pub fn rates(&self) -> &[f64; NUM_RATES] {
        &self.rates
    }

    /// The (uniform) category weight.
    pub fn weight(&self) -> f64 {
        1.0 / NUM_RATES as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_ascending_mean_one() {
        for &alpha in &[0.05, 0.2, 0.5, 1.0, 2.0, 10.0, 99.0] {
            let g = DiscreteGamma::new(alpha);
            let r = g.rates();
            for i in 1..NUM_RATES {
                assert!(r[i] >= r[i - 1], "alpha={alpha}: {r:?}");
            }
            let mean: f64 = r.iter().sum::<f64>() / NUM_RATES as f64;
            assert!((mean - 1.0).abs() < 1e-12, "alpha={alpha}: mean={mean}");
        }
    }

    #[test]
    fn known_discretization_alpha_half() {
        // Reference values for alpha = 0.5, k = 4 (mean per category),
        // widely reproduced from Yang (1994): approximately
        // 0.0334, 0.2519, 0.8203, 2.8944.
        let g = DiscreteGamma::new(0.5);
        let r = g.rates();
        let expect = [0.0334, 0.2519, 0.8203, 2.8944];
        for i in 0..4 {
            assert!(
                (r[i] - expect[i]).abs() < 5e-4,
                "cat {i}: {} vs {}",
                r[i],
                expect[i]
            );
        }
    }

    #[test]
    fn known_discretization_alpha_one() {
        // alpha = 1 (exponential): approximately
        // 0.1369, 0.4768, 1.0000, 2.3863.
        let g = DiscreteGamma::new(1.0);
        let r = g.rates();
        let expect = [0.1369, 0.4768, 1.0000, 2.3863];
        for i in 0..4 {
            assert!((r[i] - expect[i]).abs() < 5e-4, "cat {i}: {}", r[i]);
        }
    }

    #[test]
    fn large_alpha_approaches_homogeneous() {
        let g = DiscreteGamma::new(99.0);
        for &r in g.rates() {
            assert!((r - 1.0).abs() < 0.15, "rate {r}");
        }
    }

    #[test]
    fn small_alpha_is_extreme() {
        let g = DiscreteGamma::new(0.05);
        let r = g.rates();
        assert!(r[0] < 1e-6);
        assert!(r[3] > 3.0);
    }

    #[test]
    #[should_panic]
    fn alpha_out_of_range_panics() {
        DiscreteGamma::new(0.001);
    }

    #[test]
    fn weights_uniform() {
        assert!((DiscreteGamma::new(1.0).weight() - 0.25).abs() < 1e-15);
    }
}
