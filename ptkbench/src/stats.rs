//! Order statistics over measured samples.
//!
//! Percentiles use the nearest-rank rule on the sorted samples. A tail
//! percentile is only trusted when at least [`MIN_BEYOND`] samples lie
//! beyond it, so the p99 needs 1,000 samples and the p99.9 10,000.

use std::collections::HashMap;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: u64 = 10;

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond the
/// percentile `per_mille` (990 is the p99).
pub fn supports(n: usize, per_mille: u64) -> bool {
    per_mille < 1000 && n as u64 * (1000 - per_mille) >= MIN_BEYOND * 1000
}

/// The highest of p99.9, p99, p90 and p50 that `n` samples support, in
/// per mille, or `None` when even the median has fewer than
/// [`MIN_BEYOND`] samples beyond it.
pub fn tail_per_mille(n: usize) -> Option<u64> {
    [999, 990, 900, 500].into_iter().find(|&q| supports(n, q))
}

/// Nearest-rank percentile `per_mille` of `sorted` (ascending). `None` on
/// an empty slice.
pub fn percentile(sorted: &[f64], per_mille: u64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len() as u64;
    let rank = (n * per_mille).div_ceil(1000).max(1);
    Some(sorted[(rank - 1) as usize])
}

/// Sorts `values` ascending and returns the nearest-rank median.
pub fn median(values: &mut [f64]) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    percentile(values, 500)
}

/// For each `(key, value)` sample, the least value of any sample with
/// the same key: the best time its statement reached in the run. Host
/// interference only adds time, so the least of many repeats is the
/// steadiest estimate of what the program itself costs.
pub fn best_by_key(samples: &[(u64, f64)]) -> Vec<f64> {
    let mut best: HashMap<u64, f64> = HashMap::new();
    for &(key, value) in samples {
        best.entry(key)
            .and_modify(|b| *b = b.min(value))
            .or_insert(value);
    }
    samples.iter().map(|(key, _)| best[key]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_by_key_gives_each_sample_its_keys_least_value() {
        let samples = [(1, 5.0), (2, 9.0), (1, 3.0), (2, 8.0), (3, 4.0), (1, 7.0)];
        assert_eq!(best_by_key(&samples), vec![3.0, 8.0, 3.0, 8.0, 4.0, 3.0]);
        assert!(best_by_key(&[]).is_empty());
    }

    #[test]
    fn tail_rule_picks_the_percentile_the_sample_count_supports() {
        assert_eq!(tail_per_mille(0), None);
        assert_eq!(tail_per_mille(19), None);
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(99), Some(500));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(999), Some(900));
        assert_eq!(tail_per_mille(1_000), Some(990));
        assert_eq!(tail_per_mille(9_999), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
        assert!(supports(1_000, 990) && !supports(999, 990));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 500), Some(500.0));
        assert_eq!(percentile(&sorted, 990), Some(990.0));
        // Exactly ten samples (991..=1000) lie beyond the p99.
        assert_eq!(sorted.iter().filter(|&&x| x > 990.0).count(), 10);
        assert_eq!(percentile(&[7.0], 990), Some(7.0));
        assert_eq!(percentile(&[], 500), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
    }
}
