//! Order statistics for the report.

/// Sorted copy of `values` (NaNs are not expected and sort last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// The three quartiles, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method); a single
/// value is its own quartiles. Empty input gives zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    match v.len() {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        n => {
            let at = |k: f64| {
                // Position (n + 1)·k/4, 1-based, clamped to the sample.
                let pos = ((n + 1) as f64 * k / 4.0).clamp(1.0, n as f64);
                let lo = pos.floor() as usize;
                let frac = pos - lo as f64;
                let hi = (lo + 1).min(n);
                v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
            };
            [at(1.0), at(2.0), at(3.0)]
        }
    }
}

/// The median (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The geometric mean (0 for an empty sample or any value ≤ 0). Over jobs
/// of different kinds it moves smoothly with each job's value, where the
/// median jumps from one kind to the next.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, 0–100.
    pub percentile: f64,
    /// Sample count.
    pub n: usize,
}

/// [`Tail`] of `values`; `None` with fewer than 11 samples.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n < 11 {
        return None;
    }
    // Ten samples lie strictly beyond index n − 11.
    let k = n - 11;
    Some(Tail { value: v[k], percentile: 100.0 * (k + 1) as f64 / n as f64, n })
}

/// Samples per window of [`windowed_tail`]: each window's tail is its p90.
/// Longer windows push the percentile out to where single stalls of a
/// shared host decide it.
pub const TAIL_WINDOW: usize = 100;

/// Window for a closed loop over a set of `set_len` inputs: the fewest
/// whole passes holding at least [`TAIL_WINDOW`] samples, so every window
/// has the same mix of inputs.
pub fn pass_window(set_len: usize) -> usize {
    TAIL_WINDOW.div_ceil(set_len) * set_len
}

/// The median, over consecutive windows of `window` samples, of each
/// window's [`tail`]; an incomplete last window is left out, so every
/// window is alike. A single stall of the host moves one window, not the
/// result. With fewer than `window` samples the whole sample is one
/// window. `percentile` is a window's; `n` counts all samples. `None`
/// when a window has fewer than 11 samples.
pub fn windowed_tail(values: &[f64], window: usize) -> Option<Tail> {
    let window = window.clamp(1, values.len().max(1));
    let tails: Vec<Tail> = values.chunks_exact(window).map(tail).collect::<Option<_>>()?;
    let value = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>());
    Some(Tail { value, percentile: tails.first()?.percentile, n: values.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn geomean_of_rates() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[2.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).expect("enough samples");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert!(tail(&v[..10]).is_none());
    }

    #[test]
    fn windowed_tail_ignores_a_stall_in_one_window() {
        let mut v = vec![1.0; 3 * TAIL_WINDOW + 7];
        for x in &mut v[..20] {
            *x = 100.0;
        }
        let t = windowed_tail(&v, TAIL_WINDOW).expect("enough samples");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.n, 3 * TAIL_WINDOW + 7);
        assert_eq!(tail(&v).unwrap().value, 100.0);
        let short = windowed_tail(&v[..50], TAIL_WINDOW).unwrap();
        assert_eq!(short.value, tail(&v[..50]).unwrap().value);
        assert!(windowed_tail(&v[..5], TAIL_WINDOW).is_none());
        assert_eq!(pass_window(32), 128);
        assert_eq!(pass_window(100), 100);
    }
}
