//! `dyno-bench` probe: harness work a serve run pays around the service.
//!
//! Binds: `dyno_bench::{run_serve, ServeOptions, ExpScale}`,
//! `ServeReport::render`; the calibration is re-created from
//! `TpchGenerator::generate` + `Dyno::{new, run}` because
//! `dyno_bench::serve::calibrate` is private.

use dyno_bench::{run_serve, ExpScale, ServeOptions};
use dyno_benchmark::report::Row;
use dyno_core::{Dyno, DynoOptions, Mode};
use dyno_tpch::queries::{self, QueryId};
use dyno_tpch::{SimScale, TpchGenerator};

use super::Ctx;
use crate::measure::{time_calls, timing_row};

pub const METRICS: &[(&str, &str)] = &[("bench.calibrate_s", "s"), ("bench.render_ms", "ms")];

pub fn run(_ctx: &mut Ctx) -> Vec<Row> {
    // The serve mix has three distinct queries; each is calibrated on its
    // own freshly generated SF100 world.
    let calibrate = time_calls(3, || {
        [QueryId::Q2, QueryId::Q7, QueryId::Q9Prime]
            .map(|q| {
                let env = TpchGenerator::new(100, SimScale::divisor(50_000)).generate();
                let d = Dyno::new(env.dfs, DynoOptions::default());
                d.run(&queries::prepare(q), Mode::Dynopt)
                    .expect("solo run")
                    .total_secs
            })
            .iter()
            .sum::<f64>()
    });

    let opts = ServeOptions {
        tenants: 16,
        arrival_mean: 10.0,
        max_in_flight: 2,
        ..ServeOptions::default()
    };
    let report = run_serve("q2x6,q10x4", 1, 7, ExpScale { divisor: 200_000 }, opts)
        .expect("small serve run");
    let render = time_calls(50, || report.render().len());

    vec![
        timing_row(
            "bench.calibrate_s",
            "s",
            1.0,
            1.0,
            &calibrate,
            "3 x (generate SF100 + solo Dyno::run), as run_serve's calibration",
        ),
        timing_row(
            "bench.render_ms",
            "ms",
            1e3,
            1.0,
            &render,
            "ServeReport::render, 10 submissions over 16 tenants",
        ),
    ]
}
