//! Order statistics for the k repeats of a timing.

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN: both mean the caller measured
/// nothing.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The smallest of `values`: the statistic reported for a wall time.
///
/// # Panics
/// Panics on an empty slice, like [`median`].
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Spread of the k repeats of one timing around their [`median`].
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median absolute deviation.
    pub mad: f64,
    /// Sample count.
    pub k: usize,
}

impl Summary {
    /// Summarises `values`; panics like [`median`] on an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            min: fastest(values),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mad: mad(values),
            k: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        // Median 2; deviations 1, 0, 0, 1, 98 → MAD 1.
        assert_eq!(mad(&[1.0, 2.0, 2.0, 3.0, 100.0]), 1.0);
        assert_eq!(mad(&[7.0, 7.0, 7.0]), 0.0);
    }

    #[test]
    fn summary_reports_extremes_and_count() {
        let s = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!((s.min, s.max, s.mad, s.k), (2.0, 9.0, 2.0, 3));
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn empty_input_is_a_caller_bug() {
        median(&[]);
    }
}
