//! Small measurement helpers: quantiles, process memory, span lookup.

use std::time::Instant;

use sim_obs::ProfileReport;

/// The `q`-quantile of `values` by nearest rank (the smallest sample with
/// at least `q` of the samples at or below it). 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `values` (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Whether to repeat a measured step once more, given the times of the
/// repeats so far: at least `min` repeats, then more while they total
/// under `budget_s` (at most 100), so a cheap step rests on many samples.
pub fn again(times: &[f64], min: usize, budget_s: f64) -> bool {
    times.len() < min || (times.iter().sum::<f64>() < budget_s && times.len() < 100)
}

/// Whether one more repeat of a timed step fits in the `seconds` window,
/// given `done` repeats took `elapsed` seconds so far.
pub fn fits(elapsed: f64, done: usize, seconds: f64) -> bool {
    elapsed + elapsed / done.max(1) as f64 <= seconds
}

/// Per-item statistic across repeats of identical work: `reps[r][i]` is
/// item `i`'s time in repeat `r`, and item `i` gets `stat` of its times.
pub fn per_item(reps: &[Vec<f64>], stat: fn(&[f64]) -> f64) -> Vec<f64> {
    let items = reps.first().map_or(0, Vec::len);
    (0..items)
        .map(|i| stat(&reps.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// The arithmetic mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The smallest of `values` (0 for an empty slice).
pub fn min(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// A field of `/proc/self/status` (`VmHWM`, `VmRSS`) in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    kb / 1024.0
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set size of this process, in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// One program span's `(calls, units, wall seconds)`; zeros when the span
/// never fired.
pub fn span(profile: &ProfileReport, name: &str) -> (f64, f64, f64) {
    profile
        .rows
        .iter()
        .find(|r| r.name == name)
        .map_or((0.0, 0.0, 0.0), |r| (r.calls as f64, r.units as f64, r.wall_ns as f64 * 1e-9))
}

/// Runs `f` with the program's spans switched on and returns its result
/// with the span profile it produced.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, ProfileReport) {
    let _ = ProfileReport::collect_and_reset();
    sim_obs::set_enabled(true);
    let out = f();
    sim_obs::set_enabled(false);
    (out, ProfileReport::collect_and_reset())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
