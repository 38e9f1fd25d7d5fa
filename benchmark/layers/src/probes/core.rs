//! `dyno-core` probe: Q8′ at SF300 under each mode, pilot runs, and the
//! true-size oracle the static baseline leans on.
//!
//! Binds: `Dyno::{new, run, clear_stats}`, `DynoOptions::default`,
//! `Mode`, `QueryReport::{rows, result, total_secs}`,
//! `pilot::run_pilots`, `PilotConfig`, `Oracle::{new, entry}`.

use std::collections::BTreeSet;

use dyno_benchmark::report::Row;
use dyno_cluster::{Cluster, ClusterConfig, Coord};
use dyno_core::pilot::{run_pilots, PilotConfig};
use dyno_core::{Dyno, DynoOptions, Mode, Oracle};
use dyno_exec::Executor;
use dyno_query::JoinBlock;
use dyno_tpch::queries::{self, QueryId};
use dyno_tpch::{catalog_for, SimScale, TpchGenerator};

use super::Ctx;
use crate::measure::{time_batched, time_calls, time_once, timing_row};

pub const METRICS: &[(&str, &str)] = &[
    ("core.pilot_ms", "ms"),
    ("core.run_dynopt_ms", "ms"),
    ("core.run_simple_ms", "ms"),
    ("core.run_relopt_ms", "ms"),
    ("core.run_beststatic_ms", "ms"),
    ("core.oracle_entry_ms", "ms"),
];

pub fn run(_ctx: &mut Ctx) -> Vec<Row> {
    let env = TpchGenerator::new(300, SimScale::divisor(50_000)).generate();

    let q9 = queries::prepare(QueryId::Q9Prime);
    let b9 = JoinBlock::compile(&q9.spec, &catalog_for(&q9.spec)).expect("Q9' compiles");
    let cold = PilotConfig {
        reuse_stats: false,
        ..PilotConfig::default()
    };
    let pilot = time_batched(
        5,
        || {
            (
                Executor::new(env.dfs.clone(), Coord::new(), q9.udfs.clone()),
                Cluster::new(ClusterConfig::paper()),
            )
        },
        |(exec, mut cluster)| {
            run_pilots(&exec, &mut cluster, &b9, &cold)
                .expect("pilots run")
                .secs
        },
    );

    let q8 = queries::prepare(QueryId::Q8Prime);
    let d = Dyno::new(env.dfs.clone(), DynoOptions::default());
    let run = |mode: Mode| {
        d.clear_stats();
        d.run(&q8, mode).expect("Q8' runs")
    };
    let dynopt = time_calls(5, || run(Mode::Dynopt).total_secs);
    let simple = time_calls(5, || run(Mode::DynoptSimple).total_secs);
    let relopt = time_calls(3, || run(Mode::RelOpt).total_secs);
    // Seconds per call: one call, no warm-up.
    let (beststatic, best) = time_once(|| run(Mode::BestStaticJaql));
    // The plan may change, the answer may not.
    let reference = run(Mode::Dynopt);
    assert_eq!(
        best.result, reference.result,
        "BESTSTATICJAQL and DYNOPT disagree on Q8' at SF300"
    );

    let b8 = JoinBlock::compile(&q8.spec, &catalog_for(&q8.spec)).expect("Q8' compiles");
    let all: BTreeSet<usize> = (0..b8.num_leaves()).collect();
    let oracle = time_calls(2, || {
        Oracle::new(&b8, &env.dfs, &q8.udfs)
            .entry(&all)
            .records
            .len()
    });

    vec![
        timing_row(
            "core.pilot_ms",
            "ms",
            1e3,
            1.0,
            &pilot,
            "run_pilots, Q9' 6-way, multi-table, SF300",
        ),
        timing_row(
            "core.run_dynopt_ms",
            "ms",
            1e3,
            1.0,
            &dynopt,
            "Dyno::run Q8' SF300 DYNOPT",
        ),
        timing_row(
            "core.run_simple_ms",
            "ms",
            1e3,
            1.0,
            &simple,
            "Dyno::run Q8' SF300 DYNOPT-SIMPLE",
        ),
        timing_row(
            "core.run_relopt_ms",
            "ms",
            1e3,
            1.0,
            &relopt,
            "Dyno::run Q8' SF300 RELOPT",
        ),
        timing_row(
            "core.run_beststatic_ms",
            "ms",
            1e3,
            1.0,
            &[beststatic],
            "Dyno::run Q8' SF300 BESTSTATICJAQL, one cold call",
        ),
        timing_row(
            "core.oracle_entry_ms",
            "ms",
            1e3,
            1.0,
            &oracle,
            "fresh Oracle::entry on all 8 leaves of Q8'",
        ),
    ]
}
