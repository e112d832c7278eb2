//! Order statistics the benchmark reports: nearest-rank percentiles with
//! the "at least ten samples beyond" rule, medians and means.

/// Fewest samples that must lie strictly beyond a reported tail
/// percentile for it to mean anything.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`; `None` when
/// `values` is empty. Sorts a copy.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Fewest samples for which percentile `p` keeps [`MIN_BEYOND`] samples
/// beyond it.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .expect("p < 100")
}

/// A tail percentile together with the sample count it was read from;
/// `value` is `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: Option<f64>,
    pub samples: usize,
    pub beyond: usize,
}

/// Percentile `p` of `values` under the ten-beyond rule.
pub fn tail(values: &[f64], p: f64) -> Tail {
    let n = values.len();
    let beyond = beyond(n, p);
    Tail {
        value: (beyond >= MIN_BEYOND)
            .then(|| percentile(values, p))
            .flatten(),
        samples: n,
        beyond,
    }
}

/// Median (nearest-rank p50).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// `num / den`, 0 when `den` is 0.
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
    fn p90_needs_one_hundred_samples() {
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(min_samples(95.0), 200);
    }

    #[test]
    fn tail_reports_its_sample_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 90.0);
        assert_eq!(t.value, Some(90.0));
        assert_eq!((t.samples, t.beyond), (100, 10));

        let short = tail(&v[..99], 90.0);
        assert_eq!(short.value, None);
        assert_eq!((short.samples, short.beyond), (99, 9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(mean(&v), Some(3.0));
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
