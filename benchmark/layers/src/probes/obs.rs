//! `dyno-obs` probe: the recording primitives on their own. What the
//! service spends in obs as a whole is a replay metric
//! (`obs.record_share`), not a probe.
//!
//! Binds: `Histogram::{default, observe}`, `WindowedHistogram::{new,
//! observe}`, `WindowSpec::of_secs`, `CriticalPath::build`,
//! `Tracer::spans`, `SpanKind::Query`, `Obs::enabled`.

use dyno_benchmark::report::Row;
use dyno_core::{Dyno, DynoOptions, Mode};
use dyno_obs::{CriticalPath, Histogram, Obs, SpanKind, WindowSpec, WindowedHistogram};
use dyno_tpch::queries::{self, QueryId};
use dyno_tpch::{SimScale, TpchGenerator};

use super::Ctx;
use crate::measure::{time_calls, timing_row};

pub const METRICS: &[(&str, &str)] = &[
    ("obs.hist_observe_ns", "ns"),
    ("obs.window_observe_ns", "ns"),
    ("obs.critical_path_us", "us"),
];

const OBSERVATIONS: usize = 100_000;

pub fn run(_ctx: &mut Ctx) -> Vec<Row> {
    // Latencies spread over five decades, like a serve run's.
    let values: Vec<f64> = (0..OBSERVATIONS)
        .map(|i| 0.5 * 1.0001f64.powi(i as i32))
        .collect();
    let hist = time_calls(20, || {
        let mut h = Histogram::default();
        for v in &values {
            h.observe(*v);
        }
        h.count
    });
    let window = time_calls(20, || {
        let mut w = WindowedHistogram::new(WindowSpec::of_secs(60.0));
        for (i, v) in values.iter().enumerate() {
            w.observe(i as f64 * 0.01, *v);
        }
        w.count(OBSERVATIONS as f64 * 0.01)
    });

    let env = TpchGenerator::new(100, SimScale::divisor(50_000)).generate();
    let mut d = Dyno::new(env.dfs, DynoOptions::default());
    d.obs = Obs::enabled();
    d.run(&queries::prepare(QueryId::Q8Prime), Mode::Dynopt)
        .expect("Q8' runs");
    let spans = d.obs.tracer.spans();
    let query = spans
        .iter()
        .find(|s| s.kind == SpanKind::Query)
        .expect("the run opened a query span")
        .id;
    let critical = time_calls(200, || {
        CriticalPath::build(&d.obs.tracer, query)
            .expect("closed query span")
            .total()
    });

    vec![
        timing_row(
            "obs.hist_observe_ns",
            "ns",
            1e9,
            OBSERVATIONS as f64,
            &hist,
            "Histogram::observe",
        ),
        timing_row(
            "obs.window_observe_ns",
            "ns",
            1e9,
            OBSERVATIONS as f64,
            &window,
            "WindowedHistogram::observe, 60 s window",
        ),
        timing_row(
            "obs.critical_path_us",
            "us",
            1e6,
            1.0,
            &critical,
            &format!(
                "CriticalPath::build over one Q8' DYNOPT run ({} spans)",
                spans.len()
            ),
        ),
    ]
}
