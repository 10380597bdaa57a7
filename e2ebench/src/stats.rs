//! Small statistics helpers: quantiles and the "enough samples beyond"
//! rule for reporting a tail percentile.

/// Samples a percentile must have beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (unsorted).
/// Returns `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// How many of `n` samples lie beyond the `pct`-th percentile's rank
/// (`pct` in percent, resolved to basis points so 95.0 × 200 is exact).
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    let bp = (pct * 100.0).round().clamp(0.0, 10_000.0) as usize;
    let rank = (n * bp).div_ceil(10_000);
    n - rank
}

/// True when the `pct`-th percentile of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn supports_percentile(n: usize, pct: f64) -> bool {
    samples_beyond(n, pct) >= MIN_BEYOND
}
