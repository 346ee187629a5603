//! Order statistics over measured samples.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples strictly above the `q`-quantile: the count a percentile rests on.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let t = quantile(samples, q);
    samples.iter().filter(|&&x| x > t).count()
}
