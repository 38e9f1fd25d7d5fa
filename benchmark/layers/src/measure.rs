//! Timing helpers shared by the probes.

use std::hint::black_box;
use std::time::Instant;

use dyno_benchmark::report::Row;
use dyno_benchmark::stats::{highest_supported_percentile, median, percentile, quartiles};

/// Seconds per call of `f`, after one untimed call that lets caches and
/// the allocator settle (users do not pay that cost per call).
pub fn time_calls<T>(calls: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    black_box(f());
    (0..calls)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Like [`time_calls`] for a routine that consumes a fresh input from
/// `setup` each call; only `routine` is timed.
pub fn time_batched<S, T>(
    calls: usize,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> T,
) -> Vec<f64> {
    black_box(routine(setup()));
    (0..calls)
        .map(|_| {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Seconds of one call of `f`, and its result.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// A row from per-call timings: the median of `secs`, converted with
/// `unit_per_sec` (1e9 for ns) and divided by `items` per call. The
/// detail column carries the quartiles and, when the sample supports one
/// (ten samples beyond it), the tail percentile.
pub fn timing_row(
    name: &str,
    unit: &str,
    unit_per_sec: f64,
    items: f64,
    secs: &[f64],
    what: &str,
) -> Row {
    let k = unit_per_sec / items;
    let mut detail = what.to_owned();
    if let Some((q1, q3)) = quartiles(secs) {
        detail += &format!("; q1 {:.4} q3 {:.4}", q1 * k, q3 * k);
    }
    if let Some(p) = highest_supported_percentile(secs.len()).filter(|p| *p > 0.5) {
        detail += &format!("; p{} {:.4}", p * 100.0, percentile(secs, p) * k);
    }
    Row::new(name, median(secs) * k, unit, secs.len()).detail(detail)
}
