//! Order statistics and metric-name rules used by the benchmark report.

/// Samples that must lie beyond a reported tail percentile. A tail read off
/// fewer samples is one outlier's value, not a percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// If `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile of `xs`, interpolated exactly
/// as Python's `statistics.quantiles(xs, n=4)` (its default "exclusive"
/// method) does, so the benchmark and the scripts that judge it agree.
///
/// # Panics
/// If `xs` has fewer than two values or holds a NaN.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    assert!(s.len() >= 2, "quartiles need at least two values");
    let m = (s.len() + 1) as i64;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..).zip(out.iter_mut()) {
        // Python clamps the index but not the weight, so the outer
        // quartiles of very small samples extrapolate past the data.
        let j = (i * m / 4).clamp(1, s.len() as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range of `xs` as a share of its median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

/// The nearest-rank `q`-th percentile (`0 < q < 1`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND_TAIL`] samples lie above it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let rank = ((q * s.len() as f64).ceil() as usize).max(1);
    (s.len() - rank >= MIN_BEYOND_TAIL).then(|| s[rank - 1])
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "order statistic of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing sample"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[9.0, 5.0]), [4.0, 7.0, 10.0]);
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], n=4) == [2.0, 4.0, 5.0]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0]),
            [2.0, 4.0, 5.0]
        );
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 6]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_the_tail() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.90), Some(90.0));
        assert_eq!(percentile(&xs, 0.50), Some(50.0));
        // p99 of 100 samples has one sample beyond it: refused.
        assert_eq!(percentile(&xs, 0.99), None);
        // 99 samples leave only 9 beyond p90.
        assert_eq!(percentile(&xs[..99], 0.90), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(990.0));
        assert_eq!(percentile(&many[..999], 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=40).map(f64::from).collect();
        xs.reverse();
        assert_eq!(percentile(&xs, 0.5), Some(20.0));
    }

    #[test]
    fn metric_name_rule() {
        for ok in [
            "setup_s",
            "core.forward_us",
            "baselines.PatchTST.train_ms",
            "9a-b",
            "a",
        ] {
            assert!(valid_name(ok), "{ok} should be valid");
        }
        for bad in ["", ".x", "_x", "a b", "µs", "a/b", "x:y", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
    }
}
