//! Numerical underflow scaling for conditional likelihoods.
//!
//! Per-site conditional likelihoods shrink geometrically with tree
//! depth; on large trees they underflow `f64`. Following RAxML, when
//! all 16 entries of a site fall below 2⁻²⁵⁶ after a `newview`, the
//! site is multiplied by 2²⁵⁶ and a per-site scaling counter is
//! incremented. `evaluate` subtracts `count · 256 · ln 2` from the
//! site's log-likelihood; branch-length derivatives need no correction
//! because the constant factor cancels in `L'/L`.

/// Threshold below which a site gets rescaled (2⁻²⁵⁶).
pub const SCALE_THRESHOLD: f64 = 8.636168555094445e-78;

/// The rescaling multiplier (2²⁵⁶).
pub const SCALE_FACTOR: f64 = 1.157920892373162e77;

/// Natural log of the rescaling multiplier (256 · ln 2), subtracted per
/// scaling event in `evaluate`.
pub const LN_SCALE: f64 = 177.445_678_223_346;

/// Applies the scaling rule to one site's 16 CLA entries in place.
/// Returns 1 when the site was rescaled (to add to its counter), else
/// 0.
///
/// # Panics
/// Panics when the site contains a non-finite or negative entry.
/// Conditional likelihoods are probabilities scaled by a positive
/// power of two — NaN, ±∞ and negatives can only come from a model or
/// kernel defect, and multiplying such a site by 2²⁵⁶ would launder
/// the corruption into finite-looking downstream likelihoods (the
/// all-NaN site is "below the threshold" because every NaN comparison
/// is false). The failure-injection contract demands a loud error
/// instead.
#[inline]
pub fn scale_site(site: &mut [f64]) -> u32 {
    debug_assert_eq!(site.len(), crate::SITE_STRIDE);
    // Hot path (~99 sites in 100): some entry is at or above the
    // threshold — what a running maximum (from 0.0, moving on
    // `v > max`) reaching the threshold says, since a NaN entry neither
    // moves that maximum nor compares true here. The kernels with
    // accumulators in registers ask the same question before they
    // store (`kernels::simd`). The fold has no early exit on purpose:
    // sixteen ordered compares OR-ed together vectorise, a loop that
    // breaks does not.
    if site
        .iter()
        .fold(false, |any, &v| any | (v >= SCALE_THRESHOLD))
    {
        return 0;
    }
    // Cold path: validate before touching anything. A corrupted
    // entry must never be rescaled into a plausible value.
    for &v in site.iter() {
        assert!(
            v.is_finite() && v >= 0.0,
            "non-finite or negative conditional likelihood {v} in site {site:?}; \
             refusing to rescale corrupted data"
        );
    }
    if site.iter().all(|&v| v == 0.0) {
        // A genuinely all-zero site: scaling cannot resurrect it,
        // and 0 · 2²⁵⁶ = 0 would just burn a scaling counter.
        // Leave it; `evaluate` turns it into -inf, which is loud.
        return 0;
    }
    for v in site.iter_mut() {
        *v *= SCALE_FACTOR;
    }
    scaling_events().inc();
    1
}

/// Cached handle for the `core.scaling.events` counter. Only the cold
/// rescale branch pays for it (one `OnceLock` load + relaxed add).
fn scaling_events() -> &'static crate::metrics::Counter {
    static C: std::sync::OnceLock<crate::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| crate::metrics::counter("core.scaling.events"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_counter_tracks_rescales() {
        let before = scaling_events().get();
        let mut site = vec![1e-100; 16];
        scale_site(&mut site);
        let mut normal = vec![1e-5; 16];
        scale_site(&mut normal);
        // >= rather than ==: concurrently running engine tests may
        // also rescale sites through the same global counter.
        assert!(scaling_events().get() > before);
    }

    #[test]
    fn constants_consistent() {
        assert!((SCALE_THRESHOLD - 2f64.powi(-256)).abs() < 1e-90);
        assert!((SCALE_FACTOR - 2f64.powi(256)).abs() / SCALE_FACTOR < 1e-15);
        assert!((LN_SCALE - 256.0 * std::f64::consts::LN_2).abs() < 1e-12);
        assert!((SCALE_THRESHOLD * SCALE_FACTOR - 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_site_rescaled() {
        let mut site = vec![1e-100; 16];
        let bumps = scale_site(&mut site);
        assert_eq!(bumps, 1);
        for &v in &site {
            assert!((v - 1e-100 * SCALE_FACTOR).abs() / v < 1e-12);
        }
    }

    #[test]
    fn normal_site_untouched() {
        let mut site = vec![1e-5; 16];
        site[3] = 0.5;
        let orig = site.clone();
        assert_eq!(scale_site(&mut site), 0);
        assert_eq!(site, orig);
    }

    #[test]
    fn one_large_entry_prevents_scaling() {
        let mut site = vec![1e-300; 16];
        site[7] = 1e-10;
        assert_eq!(scale_site(&mut site), 0);
    }

    #[test]
    #[should_panic(expected = "non-finite or negative")]
    fn all_nan_site_errors_instead_of_rescaling() {
        let mut site = vec![f64::NAN; 16];
        scale_site(&mut site);
    }

    #[test]
    #[should_panic(expected = "non-finite or negative")]
    fn negative_only_site_errors_instead_of_rescaling() {
        let mut site = vec![-1e-100; 16];
        scale_site(&mut site);
    }

    #[test]
    #[should_panic(expected = "non-finite or negative")]
    fn nan_mixed_into_tiny_site_errors() {
        let mut site = vec![1e-300; 16];
        site[3] = f64::NAN;
        scale_site(&mut site);
    }

    #[test]
    fn one_corrupted_entry_in_a_tiny_site_errors() {
        // The early exit only passes sites with an entry at or above
        // the threshold; a lone bad entry among tiny ones still meets
        // the asserts, wherever it sits.
        for bad in [f64::NAN, -1e-100, -1.0, f64::NEG_INFINITY] {
            for at in [0, 9, 15] {
                let mut site = vec![1e-100; 16];
                site[at] = bad;
                let err = std::panic::catch_unwind(move || scale_site(&mut site))
                    .expect_err("corrupted site was rescaled");
                let msg = err.downcast_ref::<String>().expect("a formatted panic");
                assert!(msg.contains("refusing to rescale corrupted data"), "{msg}");
            }
        }
    }

    #[test]
    fn threshold_itself_is_not_rescaled() {
        let mut site = vec![1e-300; 16];
        site[11] = SCALE_THRESHOLD;
        let orig = site.clone();
        assert_eq!(scale_site(&mut site), 0);
        assert_eq!(site, orig);
        site[11] = f64::from_bits(SCALE_THRESHOLD.to_bits() - 1);
        assert_eq!(scale_site(&mut site), 1);
        assert_eq!(
            site[11],
            f64::from_bits(SCALE_THRESHOLD.to_bits() - 1) * SCALE_FACTOR
        );
    }

    #[test]
    fn all_zero_site_left_untouched() {
        let mut site = vec![0.0; 16];
        assert_eq!(scale_site(&mut site), 0);
        assert!(site.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn nan_in_normal_range_site_is_not_scalings_problem() {
        // A NaN next to a healthy entry above the threshold never
        // reaches the rescale path; the evaluate kernel surfaces it as
        // a NaN log-likelihood instead.
        let mut site = vec![1e-300; 16];
        site[2] = f64::NAN;
        site[13] = 0.5;
        let orig: Vec<u64> = site.iter().map(|v| v.to_bits()).collect();
        assert_eq!(scale_site(&mut site), 0);
        let now: Vec<u64> = site.iter().map(|v| v.to_bits()).collect();
        assert_eq!(now, orig, "the site must be left exactly as it was");
    }
}
