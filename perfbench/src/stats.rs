//! Order statistics over timing samples.

/// The `p`-quantile (`0 ≤ p ≤ 1`) by linear interpolation between order
/// statistics; `NaN` for no samples.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The smallest sample; `NaN` for none.
pub fn fastest(samples: impl Iterator<Item = f64>) -> f64 {
    samples.reduce(f64::min).unwrap_or(f64::NAN)
}

/// Runs `f` `reps` times and returns the median wall time per call in
/// microseconds, over `blocks` blocks.
pub fn time_per_call_us(blocks: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        let t = std::time::Instant::now();
        for _ in 0..reps {
            f();
        }
        per_call.push(t.elapsed().as_secs_f64() * 1e6 / reps as f64);
    }
    median(&per_call)
}
