//! Order statistics for the reported timings.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (0 < q ≤ 1) of ascending `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

pub fn median(sorted: &[f64]) -> Option<f64> {
    percentile(sorted, 0.5)
}

/// Index of the tail sample reported as "p99": p99 itself when at least
/// [`TAIL_SAMPLES`] samples lie beyond it (1000 or more samples), otherwise
/// the highest rank that still has [`TAIL_SAMPLES`] beyond it. `None` when
/// there are too few samples for any.
pub fn tail_index(n: usize) -> Option<usize> {
    if n <= TAIL_SAMPLES {
        return None;
    }
    let p99_rank = (n * 99).div_ceil(100);
    Some((p99_rank - 1).min(n - TAIL_SAMPLES - 1))
}

/// The tail value and the percentile it sits at.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let k = tail_index(sorted.len())?;
    Some((sorted[k], 100.0 * (k + 1) as f64 / sorted.len() as f64))
}

/// Sorts samples for the functions above.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(n: usize) -> usize {
        n - 1 - tail_index(n).unwrap()
    }

    #[test]
    fn tail_is_p99_from_a_thousand_samples() {
        assert_eq!(tail_index(1000), Some(989));
        assert_eq!(beyond(1000), 10);
        assert_eq!(tail_index(5000), Some(4949));
        assert_eq!(beyond(5000), 50);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((1980.0, 99.0)));
    }

    #[test]
    fn small_runs_keep_ten_samples_beyond_the_tail() {
        for n in [11, 12, 50, 100, 999] {
            assert_eq!(beyond(n), TAIL_SAMPLES, "n = {n}");
        }
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail_index(0), None);
        assert_eq!(tail_index(10), None);
        assert_eq!(tail(&[1.0; 10]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(percentile(&v, 1.0), Some(5.0));
        assert_eq!(percentile(&v, 0.01), Some(1.0));
        assert_eq!(median(&[]), None);
    }
}
