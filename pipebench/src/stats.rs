//! Order statistics over timing samples.

/// Median of `xs` (the mean of the two middle values for an even count);
/// 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`: the smallest sample
/// with at least `p`% of the samples at or below it. 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// One-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples that lie beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Percentile `p` of `xs`, but only when at least `min_beyond` samples lie
/// beyond it — a tail percentile resting on fewer samples says little.
pub fn percentile_with_tail(xs: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    if xs.is_empty() || samples_beyond(xs.len(), p) < min_beyond {
        return None;
    }
    Some(percentile(xs, p))
}
