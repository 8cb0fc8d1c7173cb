//! Order statistics for the reported timings.

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 3] = [99.9, 99.0, 90.0];

/// Linearly interpolated percentile `p` (0–100) of `values`; `None`
/// when `values` is empty. Same definition as NumPy's default.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Does percentile `p` of `n` samples leave at least
/// [`TAIL_SAMPLES`] samples beyond it?
fn tail_supported(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= TAIL_SAMPLES as f64 - 1e-9
}

/// The highest tail percentile `n` samples support: the largest of
/// p99.9, p99 and p90 with at least [`TAIL_SAMPLES`] samples beyond it,
/// or `None` below 100 samples.
pub fn highest_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| tail_supported(n, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&v, 25.0), Some(1.75));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn highest_tail_leaves_ten_samples_beyond() {
        assert_eq!(highest_tail(0), None);
        assert_eq!(highest_tail(99), None);
        assert_eq!(highest_tail(100), Some(90.0));
        assert_eq!(highest_tail(999), Some(90.0));
        assert_eq!(highest_tail(1000), Some(99.0));
        assert_eq!(highest_tail(9_999), Some(99.0));
        assert_eq!(highest_tail(10_000), Some(99.9));
        for n in [100, 250, 1000, 4321, 10_000, 50_000] {
            let p = highest_tail(n).expect("supported");
            assert!(n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9, "n={n} p={p}");
        }
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
