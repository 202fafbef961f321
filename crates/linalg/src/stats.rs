//! Scalar summary statistics used by tests, benchmarks, and the experiment harness.

/// Arithmetic mean of a slice; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance (divides by `n`); `0.0` for an empty slice.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Sample variance (divides by `n - 1`); `0.0` when fewer than two elements.
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum value; `NaN` for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter()
        .copied()
        .fold(f64::NAN, |m, x| if m.is_nan() || x < m { x } else { m })
}

/// Maximum value; `NaN` for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter()
        .copied()
        .fold(f64::NAN, |m, x| if m.is_nan() || x > m { x } else { m })
}

/// Median via sorting a copy; `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`); `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Histogram of `xs` over `bins` equal-width buckets spanning `[lo, hi)`.
///
/// Values outside the range are clamped into the first/last bucket. Returns an
/// empty vector if `bins == 0` or the range is degenerate.
pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<usize> {
    if bins == 0 || hi <= lo {
        return Vec::new();
    }
    let mut counts = vec![0usize; bins];
    let width = (hi - lo) / bins as f64;
    for &x in xs {
        let mut idx = ((x - lo) / width).floor() as isize;
        if idx < 0 {
            idx = 0;
        }
        if idx as usize >= bins {
            idx = bins as isize - 1;
        }
        counts[idx as usize] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::approx_eq;

    #[test]
    fn mean_variance_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(std_dev(&xs), 2.0);
        assert!(approx_eq(sample_variance(&xs), 32.0 / 7.0, 1e-12));
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(sample_variance(&[1.0]), 0.0);
    }

    #[test]
    fn min_max_median() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(min(&xs), 1.0);
        assert_eq!(max(&xs), 3.0);
        assert_eq!(median(&xs), 2.0);
        assert!(min(&[]).is_nan());
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 1.0), 3.0);
        assert!(approx_eq(quantile(&xs, 0.5), 1.5, 1e-12));
        assert!(approx_eq(quantile(&xs, 0.25), 0.75, 1e-12));
    }

    #[test]
    fn histogram_counts() {
        let xs = [0.1, 0.2, 0.6, 0.9, -5.0, 10.0];
        let h = histogram(&xs, 0.0, 1.0, 2);
        assert_eq!(h, vec![3, 3]);
        assert!(histogram(&xs, 0.0, 0.0, 4).is_empty());
        assert!(histogram(&xs, 0.0, 1.0, 0).is_empty());
    }
}
