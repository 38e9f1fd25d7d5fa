//! Probes: the same inputs fed straight to one layer's public functions.
//!
//! Work nested inside `Dyno::run` cannot be bracketed from outside, so
//! the layers below it are measured here, one module per layer crate.
//! Each module's header lists the exact public functions it binds; when
//! one of them changes, only that module's rows go `unavailable`.
//!
//! Probe inputs are fixed (they do not depend on the workload or the
//! seed), so a probe row means the same thing in every traced run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dyno_benchmark::report::Row;
use dyno_tpch::TpchEnv;

pub mod bench;
pub mod cluster;
pub mod core;
pub mod data;
pub mod exec;
pub mod obs;
pub mod optimizer;
pub mod query;
pub mod stats;
pub mod storage;
pub mod tpch;

/// Scale of the record-volume probes: SF100 at divisor 2000 is 300 k
/// lineitems, the `rows` workload's data.
pub const ROWS_SF: u64 = 100;
/// See [`ROWS_SF`].
pub const ROWS_DIVISOR: u64 = 2000;

/// State handed from probe to probe.
#[derive(Default)]
pub struct Ctx {
    /// The SF100/divisor-2000 world, generated once by the `tpch` probe
    /// and read by `data`, `storage`, `stats` and `exec`.
    pub rows_env: Option<TpchEnv>,
}

impl Ctx {
    /// The generated world, or a panic that marks the calling probe's
    /// rows unavailable with the reason.
    pub fn rows_env(&self) -> &TpchEnv {
        self.rows_env
            .as_ref()
            .expect("the tpch probe did not leave a generated world")
    }
}

/// One layer's probe.
pub struct Probe {
    /// The crate it measures.
    pub layer: &'static str,
    /// `(metric, unit)` of every row it returns, so the rows can be
    /// printed as unavailable when it panics.
    pub metrics: &'static [(&'static str, &'static str)],
    /// The measurement.
    pub run: fn(&mut Ctx) -> Vec<Row>,
}

/// Every probe, in running order (`tpch` first: it fills [`Ctx`]).
pub const PROBES: [Probe; 11] = [
    Probe {
        layer: "tpch",
        metrics: tpch::METRICS,
        run: tpch::run,
    },
    Probe {
        layer: "data",
        metrics: data::METRICS,
        run: data::run,
    },
    Probe {
        layer: "storage",
        metrics: storage::METRICS,
        run: storage::run,
    },
    Probe {
        layer: "stats",
        metrics: stats::METRICS,
        run: stats::run,
    },
    Probe {
        layer: "exec",
        metrics: exec::METRICS,
        run: exec::run,
    },
    Probe {
        layer: "query",
        metrics: query::METRICS,
        run: query::run,
    },
    Probe {
        layer: "optimizer",
        metrics: optimizer::METRICS,
        run: optimizer::run,
    },
    Probe {
        layer: "cluster",
        metrics: cluster::METRICS,
        run: cluster::run,
    },
    Probe {
        layer: "core",
        metrics: core::METRICS,
        run: core::run,
    },
    Probe {
        layer: "obs",
        metrics: obs::METRICS,
        run: obs::run,
    },
    Probe {
        layer: "bench",
        metrics: bench::METRICS,
        run: bench::run,
    },
];

/// The first line of a caught panic's message.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("panic without a message");
    text.lines().next().unwrap_or_default().to_owned()
}

/// Run every probe, each behind `catch_unwind`. Returns the rows (those
/// of a panicking probe as unavailable) and one failure line per probe
/// that panicked or returned other rows than it declares.
pub fn run_all() -> (Vec<Row>, Vec<String>) {
    let mut ctx = Ctx::default();
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for p in &PROBES {
        match catch_unwind(AssertUnwindSafe(|| (p.run)(&mut ctx))) {
            Ok(got) => {
                let declared = got.len() == p.metrics.len()
                    && got
                        .iter()
                        .zip(p.metrics)
                        .all(|(r, (name, unit))| r.name == *name && r.unit == *unit);
                if !declared {
                    failures.push(format!(
                        "probe {}: rows differ from its METRICS list",
                        p.layer
                    ));
                }
                rows.extend(got);
            }
            Err(payload) => {
                let msg = format!("probe {} panicked: {}", p.layer, panic_message(payload));
                rows.extend(
                    p.metrics
                        .iter()
                        .map(|(name, unit)| Row::unavailable(*name, unit, &msg)),
                );
                failures.push(msg);
            }
        }
    }
    (rows, failures)
}
