//! Order statistics behind every percentile the benchmark reports.
//!
//! Percentiles are nearest-rank. A tail percentile is lowered, when the
//! sample is small, to the highest rank that still has at least
//! [`TAIL_BEYOND`] samples above it, so a tail never rests on a handful of
//! outliers; it is never lowered below the median.

/// Samples a tail percentile must leave above its rank.
pub const TAIL_BEYOND: usize = 10;

/// The 1-based nearest rank of quantile `q` in a sample of `n` (`n >= 1`).
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The 1-based rank the tail quantile `q` resolves to in a sample of `n`:
/// nearest rank, lowered to leave [`TAIL_BEYOND`] samples beyond it, but
/// never below the median's rank.
pub fn tail_rank(n: usize, q: f64) -> usize {
    let median = nearest_rank(n, 0.5);
    nearest_rank(n, q)
        .min(n.saturating_sub(TAIL_BEYOND))
        .max(median)
}

/// A percentile read from a sample, with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at the resolved rank.
    pub value: f64,
    /// The percentile the rank actually is (`100 * rank / n`).
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
}

fn at_rank(values: &[f64], rank: usize) -> Percentile {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Percentile {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / sorted.len() as f64,
        samples: sorted.len(),
    }
}

/// Nearest-rank median of a non-empty sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> Percentile {
    assert!(!values.is_empty(), "median of an empty sample");
    at_rank(values, nearest_rank(values.len(), 0.5))
}

/// Tail quantile `q` of a non-empty sample under the ten-beyond rule.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn tail(values: &[f64], q: f64) -> Percentile {
    assert!(!values.is_empty(), "tail of an empty sample");
    at_rank(values, tail_rank(values.len(), q))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn large_samples_use_the_plain_nearest_rank() {
        let p = tail(&one_to(1000), 0.9);
        assert_eq!(p.value, 900.0);
        assert_eq!(p.percentile, 90.0);
        // 100 samples leave exactly ten beyond the 90th.
        assert_eq!(tail(&one_to(100), 0.9).value, 90.0);
        assert_eq!(median(&one_to(100)).value, 50.0);
    }

    #[test]
    fn small_samples_keep_ten_beyond_the_tail() {
        // 32 samples: the 90th would be rank 29 with only 3 beyond it.
        let p = tail(&one_to(32), 0.9);
        assert_eq!(p.value, 22.0);
        assert_eq!(p.samples, 32);
        assert!((p.percentile - 68.75).abs() < 1e-12);
        let beyond = 32 - 22;
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tiny_samples_fall_back_to_the_median() {
        assert_eq!(tail(&one_to(5), 0.9).value, 3.0);
        assert_eq!(tail(&[7.0], 0.9).value, 7.0);
        assert_eq!(tail_rank(12, 0.9), 6);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&shuffled).value, 3.0);
    }
}
