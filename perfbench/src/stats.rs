//! Latency summaries: median and the tail percentile rule.
//!
//! A tail is reported at the highest percentile that still has at least
//! [`MIN_BEYOND`] samples beyond it, so a single outlier never is the tail.
//! Each workload fixes its tail percentile in advance (so every run of it
//! reports the same percentile); a run too short to leave that many samples
//! beyond the fixed percentile is an error, not a silently weaker tail.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Round before the ceiling so binary noise in p * n (e.g. 99.9 * 1000
    // = 99900.00000000001) cannot push the rank one place up.
    let exact = (p / 100.0 * n as f64 * 1e6).round() / 1e6;
    (exact.ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of [`LADDER`] leaving at least [`MIN_BEYOND`] of
/// `n` samples beyond it, or `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median and fixed-percentile tail of one latency series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub tail: f64,
}

/// Summarize `samples` with the tail at the fixed percentile `tail_pct`.
/// Errors when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn summarize(samples: &[f64], tail_pct: f64) -> Result<Summary, String> {
    if samples.is_empty() {
        return Err("no samples".into());
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if beyond(n, tail_pct) < MIN_BEYOND {
        return Err(format!(
            "{n} samples leave {} beyond p{tail_pct} (need {MIN_BEYOND}); \
             the run is too short for this workload's tail percentile \
             (these samples support p{:?})",
            beyond(n, tail_pct),
            tail_percentile(n)
        ));
    }
    Ok(Summary {
        p50: median(&v),
        tail: percentile(&v, tail_pct),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1000, 99.9), 1);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(60), Some(80.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in 20..5000 {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn summarize_refuses_a_thin_tail() {
        let v: Vec<f64> = (0..50).map(f64::from).collect();
        let s = summarize(&v, 80.0).unwrap();
        assert_eq!(s.tail, 39.0);
        assert_eq!(s.p50, 24.5);
        assert!(summarize(&v, 90.0).is_err());
        assert!(summarize(&[], 50.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
