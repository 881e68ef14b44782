//! Exact order statistics over the benchmark's own stored samples.
//!
//! Every percentile the benchmark reports is computed here, by sorting the
//! full sample set: no histogram or streaming estimator sits between a
//! measurement and its reported value.

/// Nearest-rank percentile `p` (in `[0, 1]`) of `samples`, or 0 when empty.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of the largest `share` (in `(0, 1]`) of `samples`, at least one
/// sample, or 0 when empty: the tail's average where a percentile would
/// stop at its edge.
pub fn tail_mean(samples: &[u64], share: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let k = ((share * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[sorted.len() - k..].iter().sum::<u64>() as f64 / k as f64
}

/// Median of `values` (mean of the two middle values for even counts),
/// or 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.5), 50);
        assert_eq!(percentile(&samples, 0.99), 99);
        assert_eq!(percentile(&samples, 1.0), 100);
        assert_eq!(percentile(&samples, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn tail_mean_averages_the_top_share() {
        let samples: Vec<u64> = (1..=200).collect();
        assert_eq!(tail_mean(&samples, 0.01), 199.5);
        assert_eq!(tail_mean(&[5, 1], 0.01), 5.0);
        assert_eq!(tail_mean(&[], 0.01), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
