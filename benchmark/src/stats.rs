//! Order statistics over measured samples: medians of repeated windows
//! and the tail percentile that a sample can actually support.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty slice or a NaN sample — both are benchmark bugs.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q · n` samples at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "percentile must be in [0, 1]");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The tail a sample supports: the highest percentile on the ladder
/// p50, p90, p99, p99.9, … that still has at least ten samples strictly
/// above it, as `(q, value, samples_beyond)`. `None` when not even the
/// median has ten samples beyond it.
pub fn supported_tail(sorted: &[u64]) -> Option<(f64, u64, usize)> {
    const MIN_BEYOND: usize = 10;
    const LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];
    let mut best = None;
    for q in LADDER {
        if sorted.is_empty() {
            break;
        }
        let value = percentile(sorted, q);
        let beyond = sorted.len() - sorted.partition_point(|&x| x <= value);
        if beyond < MIN_BEYOND {
            break;
        }
        best = Some((q, value, beyond));
    }
    best
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
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 = 990 has exactly 10 beyond it, p99.9 = 999
        // has only 1, so p99 is the highest supported percentile.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(supported_tail(&v), Some((0.99, 990, 10)));
        // 999 samples: p99 is 990 with 9 beyond — only p90 is supported.
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(supported_tail(&v), Some((0.9, 900, 99)));
        // Too few samples for any tail.
        let v: Vec<u64> = (1..=15).collect();
        assert_eq!(supported_tail(&v), None);
        assert_eq!(supported_tail(&[]), None);
    }

    #[test]
    fn tail_counts_ties_as_not_beyond() {
        // Ties at the percentile value are not "beyond" it: with 95 equal
        // fast samples and 5 slow ones, p50 = 1 has only 5 beyond.
        let mut v = vec![1u64; 95];
        v.extend([9u64; 5]);
        assert_eq!(supported_tail(&v), None);
        // 80 ones then 10..30: p50 = 1 has 20 beyond, p90 = 19 has exactly
        // ten beyond (20..=29), p99 = 28 only one.
        let mut v = vec![1u64; 80];
        v.extend(10..30u64);
        assert_eq!(supported_tail(&v), Some((0.9, 19, 10)));
    }
}
