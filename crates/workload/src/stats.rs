//! Empirical-distribution helpers for validating samplers and reporting.
//!
//! Used by the test suites (chi-square-style closeness checks on the Zipf
//! sampler) and by the experiment harness (confidence intervals on averaged
//! rejection rates, matching the paper's "each result was an average of
//! runs").

/// Empirical probability mass function of `draws` over `m` categories.
pub fn empirical_pmf(draws: &[usize], m: usize) -> Vec<f64> {
    let mut counts = vec![0usize; m];
    for &d in draws {
        if d < m {
            counts[d] += 1;
        }
    }
    let n = draws.len().max(1) as f64;
    counts.iter().map(|&c| c as f64 / n).collect()
}

/// Total-variation distance between two pmfs of equal length:
/// `½ Σ |p_i − q_i|` ∈ [0, 1].
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "pmf lengths must match");
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

/// Sample mean.
pub fn sample_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample standard deviation (n−1 denominator); 0 for fewer than
/// two samples.
pub fn sample_std(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = sample_mean(xs);
    let var = xs.iter().map(|&x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Half-width of an approximate 95% confidence interval on the mean
/// (normal approximation, `1.96 · s/√n`).
pub fn ci95_half_width(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    1.96 * sample_std(xs) / (xs.len() as f64).sqrt()
}

/// Empirical `q`-quantile (`q ∈ [0, 1]`) by linear interpolation between
/// order statistics (the common "type 7" estimator). Sorts a copy; 0 for
/// an empty sample. Non-finite entries are rejected by debug assertion.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted_percentile(sorted.len(), q, |i| sorted[i])
}

/// [`percentile`] of an `n`-value sample whose `i`-th value in ascending
/// `total_cmp` order is `nth(i)`: the same interpolation, for callers
/// that hold the sorted sample in a compressed form.
pub fn sorted_percentile(n: usize, q: f64, nth: impl Fn(usize) -> f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        nth(lo)
    } else {
        let frac = pos - lo as f64;
        nth(lo) * (1.0 - frac) + nth(hi) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_counts_normalize() {
        let pmf = empirical_pmf(&[0, 0, 1, 2], 3);
        assert_eq!(pmf, vec![0.5, 0.25, 0.25]);
    }

    #[test]
    fn pmf_ignores_out_of_range() {
        let pmf = empirical_pmf(&[0, 7], 2);
        assert_eq!(pmf, vec![0.5, 0.0]);
    }

    #[test]
    fn pmf_empty_is_zero() {
        assert_eq!(empirical_pmf(&[], 2), vec![0.0, 0.0]);
    }

    #[test]
    fn tv_distance_bounds() {
        assert_eq!(total_variation(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
        assert_eq!(total_variation(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
        assert!((total_variation(&[0.5, 0.5], &[0.75, 0.25]) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "pmf lengths must match")]
    fn tv_rejects_mismatched_lengths() {
        total_variation(&[1.0], &[0.5, 0.5]);
    }

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((sample_mean(&xs) - 5.0).abs() < 1e-12);
        // Known example: population std 2, sample std sqrt(32/7).
        assert!((sample_std(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn degenerate_stats() {
        assert_eq!(sample_mean(&[]), 0.0);
        assert_eq!(sample_std(&[3.0]), 0.0);
        assert_eq!(ci95_half_width(&[3.0]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert!((percentile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((percentile(&xs, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn ci_shrinks_with_n() {
        let a: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..1000).map(|i| (i % 10) as f64).collect();
        assert!(ci95_half_width(&b) < ci95_half_width(&a));
    }
}
