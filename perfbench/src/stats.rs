//! Order statistics over measured samples.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`); 0.0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`; 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; 0.0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Splits items into consecutive one-second windows by timestamp, starting
/// at `start`, for `windows` windows. Items outside the measured interval
/// are dropped.
pub fn by_window<T: Copy>(
    items: &[T],
    start: Instant,
    windows: usize,
    at: impl Fn(&T) -> Instant,
) -> Vec<Vec<T>> {
    let mut out = vec![Vec::new(); windows];
    for item in items {
        let t = at(item);
        if t < start {
            continue;
        }
        let w = (t - start).as_secs() as usize;
        if w < windows {
            out[w].push(*item);
        }
    }
    out
}

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `later - earlier` in microseconds, negative when `later` precedes it.
pub fn signed_us(later: Instant, earlier: Instant) -> f64 {
    if later >= earlier {
        us(later - earlier)
    } else {
        -us(earlier - later)
    }
}
