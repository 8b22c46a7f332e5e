//! Order statistics over latency samples.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The tail statistic: the highest percentile of `values` with at least
/// `beyond` samples strictly above its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in `(0, 100)`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
    /// Number of samples ranked above the reported one.
    pub beyond: usize,
}

/// Minimum number of samples beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Picks the percentile from a ladder (p99.9, p99, p98, …, p50) as the
/// highest one whose nearest-rank sample has at least `beyond` samples
/// ranked above it. `None` when even the median has fewer than `beyond`
/// samples above it.
pub fn tail(values: &[f64], beyond: usize) -> Option<Tail> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Percentiles in permille, so the rank arithmetic stays exact.
    let ladder = std::iter::once(999).chain((50..=99).rev().map(|p| p * 10));
    for permille in ladder {
        // Nearest-rank: the smallest sample with at least p% of the
        // samples at or below it.
        let rank = (permille * n).div_ceil(1000);
        let idx = rank.clamp(1, n) - 1;
        let above = n - 1 - idx;
        if above >= beyond {
            let percentile = permille as f64 / 10.0;
            return Some(Tail { percentile, value: v[idx], samples: n, beyond: above });
        }
    }
    None
}

/// The fastest stretch of a run: over consecutive, non-overlapping windows
/// of `window` samples (a trailing partial window is dropped), the lowest
/// window median and the highest window throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestWindow {
    /// Lowest median latency of any window, in the samples' unit.
    pub median: f64,
    /// Highest `window ÷ Σ latency` of any window, per the samples' unit.
    pub throughput: f64,
    /// Number of whole windows.
    pub windows: usize,
}

/// [`BestWindow`] of `latencies`; `None` when there is no whole window.
pub fn best_window(latencies: &[f64], window: usize) -> Option<BestWindow> {
    let windows = latencies.chunks_exact(window.max(1));
    let count = windows.len();
    let mut best: Option<BestWindow> = None;
    for w in windows {
        let m = median(w);
        let t = w.len() as f64 / w.iter().sum::<f64>();
        let b = best.get_or_insert(BestWindow { median: m, throughput: t, windows: count });
        b.median = b.median.min(m);
        b.throughput = b.throughput.max(t);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in [20usize, 21, 33, 100, 350, 1000, 5000, 20_000] {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&values, TAIL_BEYOND).unwrap();
            let strictly_above = values.iter().filter(|&&x| x > t.value).count();
            assert!(strictly_above >= TAIL_BEYOND, "n={n}: {t:?}");
            assert_eq!(strictly_above, t.beyond);
            assert_eq!(t.samples, n);
        }
    }

    #[test]
    fn tail_is_the_highest_qualifying_percentile() {
        // 1000 samples: p99 leaves exactly 10 above, p99.9 only 1.
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&values, TAIL_BEYOND).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 10);
        // 100 samples: p90 leaves 10 above, p91 only 9.
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let t = tail(&values, TAIL_BEYOND).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn best_window_picks_the_fastest_stretch() {
        // Three windows of two: medians 4, 1.5, 6; throughputs 2/8, 2/3, 2/12.
        let v = [3.0, 5.0, 1.0, 2.0, 6.0, 6.0, 100.0];
        let b = best_window(&v, 2).unwrap();
        assert_eq!(b, BestWindow { median: 1.5, throughput: 2.0 / 3.0, windows: 3 });
        assert!(best_window(&v, 8).is_none());
    }

    #[test]
    fn tail_needs_enough_samples() {
        let values: Vec<f64> = (0..15).map(f64::from).collect();
        assert!(tail(&values, TAIL_BEYOND).is_none());
        // 21 samples: p52 is rank 11 with 10 above; p53 is rank 12.
        let values: Vec<f64> = (0..21).map(f64::from).collect();
        let t = tail(&values, TAIL_BEYOND).unwrap();
        assert_eq!((t.percentile, t.beyond), (52.0, 10));
    }
}
