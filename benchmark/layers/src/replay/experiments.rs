//! Replays of `repro table1` and `repro fig8`.
//!
//! Binds: `TpchGenerator::{new, generate}`, `JoinBlock::compile`,
//! `catalog_for`, `Executor::new`, `Coord::new`, `Cluster::new`,
//! `ClusterConfig::{paper, paper_hive}`, `pilot::run_pilots`,
//! `PilotConfig`, `PilrMode`, `Dyno::{new, run, clear_stats}`,
//! `DynoOptions`, `Strategy::Unc`, `Mode`, `queries::prepare`,
//! `dyno_bench::render_table`, `dyno_bench::render::pct`,
//! `dyno_bench::cli::parse_cli` (for the default `--divisor`).

use dyno_bench::render::pct;
use dyno_bench::render_table;
use dyno_benchmark::span::Recorder;
use dyno_benchmark::workload::Workload;
use dyno_cluster::{Cluster, ClusterConfig, Coord};
use dyno_core::pilot::run_pilots;
use dyno_core::{Dyno, DynoOptions, Mode, PilotConfig, PilrMode, Strategy};
use dyno_exec::Executor;
use dyno_query::JoinBlock;
use dyno_tpch::queries::{self, QueryId};
use dyno_tpch::{catalog_for, SimScale, TpchGenerator};

use super::{cli_of, Counts, Outcome};

const QUERIES: [QueryId; 4] = [
    QueryId::Q2,
    QueryId::Q8Prime,
    QueryId::Q9Prime,
    QueryId::Q10,
];

/// `repro table1`: 4 queries x (SF100 single-table, SF100/300/1000
/// multi-table) pilot runs, each on a freshly generated world.
pub fn table1(w: &Workload, rec: &mut Recorder) -> Outcome {
    let divisor = cli_of(w).divisor;
    let mut rows = Vec::new();
    let mut cell = 0;
    for q in QUERIES {
        let prepared = queries::prepare(q);
        let mut pilot_secs = |sf: u64, mode: PilrMode| -> f64 {
            cell += 1;
            rec.set_invocation(cell);
            let env = rec.time("tpch.generate", || {
                TpchGenerator::new(sf, SimScale::divisor(divisor)).generate()
            });
            let block = rec.time("query.compile", || {
                JoinBlock::compile(&prepared.spec, &catalog_for(&prepared.spec))
                    .expect("benchmark query compiles")
            });
            let exec = Executor::new(env.dfs, Coord::new(), prepared.udfs.clone());
            let mut cluster = Cluster::new(ClusterConfig::paper());
            let cfg = PilotConfig {
                mode,
                reuse_stats: false,
                ..PilotConfig::default()
            };
            let secs = rec.time("core.run_pilots", || {
                run_pilots(&exec, &mut cluster, &block, &cfg)
                    .expect("pilots run")
                    .secs
            });
            rec.time("tpch.drop", move || drop(exec));
            secs
        };
        let st100 = pilot_secs(100, PilrMode::SingleTable);
        let mut mt = |sf| pct(pilot_secs(sf, PilrMode::MultiTable) / st100);
        rows.push(vec![
            q.name().to_owned(),
            "100%".to_owned(),
            mt(100),
            mt(300),
            mt(1000),
        ]);
    }
    let echo = rec.time("bench.render", || {
        render_table(
            "Table 1: Relative execution time of PILR for varying queries and scale factors",
            &["Query", "SF100-ST", "SF100-MT", "SF300-MT", "SF1000-MT"],
            &rows,
        )
    });
    Outcome {
        echo,
        ..Outcome::default()
    }
}

/// `repro fig8`: 4 queries x 4 modes at SF300 under the Hive profile.
pub fn fig8(w: &Workload, rec: &mut Recorder) -> Outcome {
    let divisor = cli_of(w).divisor;
    let mut counts = Counts::default();
    let mut violations = Vec::new();
    let mut rows = Vec::new();
    for (i, q) in QUERIES.into_iter().enumerate() {
        rec.set_invocation(i as u32 + 1);
        let prepared = queries::prepare(q);
        let env = rec.time("tpch.generate", || {
            TpchGenerator::new(300, SimScale::divisor(divisor)).generate()
        });
        let d = Dyno::new(
            env.dfs,
            DynoOptions {
                cluster: ClusterConfig::paper_hive(),
                strategy: Strategy::Unc(1),
                ..DynoOptions::default()
            },
        );
        let mut run = |span: &'static str, mode: Mode| {
            d.clear_stats();
            let report = rec
                .time(span, || d.run(&prepared, mode))
                .unwrap_or_else(|e| panic!("{} under {mode:?}: {e}", q.name()));
            counts.add_report(&report);
            report
        };
        let base = run("core.run_beststatic", Mode::BestStaticJaql);
        let rel = run("core.run_relopt", Mode::RelOpt);
        let simple = run("core.run_simple", Mode::DynoptSimple);
        let dynopt = run("core.run_dynopt", Mode::Dynopt);
        // The plan may change, the answer may not.
        for other in [&rel, &simple, &dynopt] {
            if other.result != base.result {
                violations.push(format!(
                    "fig8 {}: {} and {} return different rows",
                    q.name(),
                    other.mode,
                    base.mode
                ));
            }
        }
        rows.push(vec![
            q.name().to_owned(),
            "100%".to_owned(),
            pct(rel.total_secs / base.total_secs),
            pct(simple.total_secs / base.total_secs),
            pct(dynopt.total_secs / base.total_secs),
        ]);
        rec.time("tpch.drop", move || drop(d));
    }
    let echo = rec.time("bench.render", || {
        render_table(
            "Figure 8: Benefits of applying DYNOPT in Hive (SF300, relative to BESTSTATICHIVE)",
            &[
                "Query",
                "BESTSTATICHIVE",
                "RELOPT",
                "DYNOPT-SIMPLE",
                "DYNOPT",
            ],
            &rows,
        )
    });
    Outcome {
        echo,
        counts,
        violations,
    }
}
