//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending-sorted slice by the
/// nearest-rank rule: the smallest element with at least `q·n` elements at or
/// below it. Nearest-rank never interpolates, so a reported p99 is a latency
/// some round actually had.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a float sample (mean of the two middle elements when even).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_a_sorted_reference() {
        // 1..=1000: the nearest-rank q-quantile of 1..=n is ceil(q·n).
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&sorted, 0.5), 500);
        assert_eq!(percentile_sorted(&sorted, 0.99), 990);
        assert_eq!(percentile_sorted(&sorted, 0.999), 999);
        assert_eq!(percentile_sorted(&sorted, 1.0), 1000);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1);
        // p99 keeps exactly 1 % of the sample beyond it.
        let beyond = sorted.iter().filter(|&&v| v > 990).count();
        assert_eq!(beyond, 10);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn median_handles_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
