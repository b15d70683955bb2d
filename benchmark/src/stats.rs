//! Order statistics over small sample sets.

/// Median; the mean of the two middle values on an even count. `None`
/// when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The `q`-quantile by nearest rank (`q` in `[0, 1]`). A percentile is
/// only meaningful with samples beyond it: callers state the count.
pub fn quantile(samples: &[u64], q: f64) -> Option<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let n = v.len();
    (n > 0).then(|| v[((q * n as f64).ceil() as usize).clamp(1, n) - 1])
}

/// `(b − a) / a`: how far `b` lies from `a`, as a share of `a`.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a) / a.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_on_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 9.0, 7.0, 3.0]), Some(5.0));
    }

    #[test]
    fn quantile_by_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), Some(50));
        assert_eq!(quantile(&v, 0.99), Some(99));
        assert_eq!(quantile(&v, 1.0), Some(100));
        assert_eq!(quantile(&[7], 0.99), Some(7));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn rel_diff_is_signed_and_zero_on_equal() {
        assert_eq!(rel_diff(2.0, 2.0), 0.0);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(rel_diff(2.0, 3.0), 0.5);
        assert_eq!(rel_diff(4.0, 3.0), -0.25);
    }
}
