//! Summary statistics over timing samples.

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty sample set or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Minimum samples that must lie strictly beyond a reported tail percentile.
const TAIL_SAMPLES: usize = 10;

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `samples`, reported only
/// when at least [`TAIL_SAMPLES`] samples lie beyond it; `None` otherwise,
/// so a tail figure is never read off a handful of points.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = samples.len();
    // 1-based nearest rank; the samples beyond it are the n - rank largest.
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + TAIL_SAMPLES {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    Some(s[rank - 1])
}

/// Throughput over consecutive windows of at least `window_s` busy
/// seconds: `durations_s[i]` is the time of operation `i`, which yields
/// `units` units. Returns the median over windows of units per second; a
/// trailing partial window joins the last full one. A burst of host
/// interference then moves a few windows, not the result.
pub fn windowed_rate(durations_s: &[f64], units: f64, window_s: f64) -> f64 {
    // (operations, busy seconds) per window.
    let mut windows: Vec<(f64, f64)> = Vec::new();
    let mut open = (0.0, 0.0);
    for &d in durations_s {
        open = (open.0 + 1.0, open.1 + d);
        if open.1 >= window_s {
            windows.push(open);
            open = (0.0, 0.0);
        }
    }
    if open.0 > 0.0 {
        match windows.last_mut() {
            Some(last) => *last = (last.0 + open.0, last.1 + open.1),
            None => windows.push(open),
        }
    }
    let rates: Vec<f64> = windows.iter().map(|&(n, busy)| n * units / busy).collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p90 of 99 samples: rank 90, only 9 beyond -> withheld.
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 0.9), None);
        // 100 samples: rank 90, exactly 10 beyond -> reported.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 0.9), Some(90.0));
        // The median needs 20 samples under the same rule.
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 0.5), None);
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 0.5), Some(10.0));
        assert_eq!(tail_percentile(&[], 0.9), None);
    }

    #[test]
    fn windowed_rate_ignores_a_slow_window() {
        // Nine 1 s windows of ten 0.1 s operations and one three times
        // slower: the median window runs 10 ops/s (x 4 units).
        let mut d = vec![0.3; 10];
        d.extend(vec![0.1; 90]);
        assert!((windowed_rate(&d, 4.0, 1.0) - 40.0).abs() < 1e-9);
        // A trailing partial window joins the last full one.
        assert!((windowed_rate(&[0.5, 0.5, 0.5], 1.0, 1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut s: Vec<f64> = (1..=200).map(f64::from).collect();
        s.reverse();
        assert_eq!(tail_percentile(&s, 0.9), Some(180.0));
    }
}
