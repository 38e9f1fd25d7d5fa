//! In-process replays of the six workloads through the layers' public
//! functions, with a span around every call into a layer.
//!
//! Each replay re-creates what its `repro` command does — the same
//! generator, options, seeded shuffle and arrival schedule — and renders
//! the command's pinned result the way the CLI does (`echo`), so the
//! driver can check that the replay reached the CLI's own answer. Exact
//! counts are read through public accessors only (`Metrics::counter`,
//! `Tracer::with_log`, `Timeline::samples`, `QueryOutcome`,
//! `QueryReport`).

use dyno_bench::cli::{parse_cli, Cli};
use dyno_benchmark::span::Recorder;
use dyno_benchmark::workload::Workload;
use dyno_core::QueryReport;

pub mod experiments;
pub mod serve;
pub mod workload;

/// Everything a replay counts. All of it is a function of the simulated
/// clock and the seed only, so two replays of one workload and seed must
/// produce equal `Counts` — and no host-side optimisation may move them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Optimizer invocations: Σ `QueryReport.plans.len()`.
    pub optimizer_calls: u64,
    /// Σ `QueryReport.reopts`.
    pub reopts: u64,
    /// Broadcast-OOM recoveries (`oom_recovery` events).
    pub oom_recoveries: u64,
    /// `metastore.hits`.
    pub metastore_hits: u64,
    /// `metastore.misses`.
    pub metastore_misses: u64,
    /// Submissions offered to the service.
    pub submissions: u64,
    /// Queries that completed.
    pub completed: u64,
    /// `service.queued_at_admission`.
    pub queued: u64,
    /// `service.rejected`.
    pub rejected: u64,
    /// Completed queries that met their deadline.
    pub slo_met: u64,
    /// max(`submitted_at` − scheduled arrival): how late the open-loop
    /// generator ran on the simulated clock. Expected 0.
    pub arrival_lag_s: f64,
    /// Exact (sorted, nearest-rank) median of the completed latencies.
    pub sim_lat_p50_s: f64,
    /// Exact 90th percentile of the completed latencies.
    pub sim_lat_p90_s: f64,
    /// First arrival to last answer, simulated.
    pub sim_makespan_s: f64,
    /// Spans in the tracer log at the end.
    pub obs_spans: u64,
    /// Events in the tracer log at the end.
    pub obs_events: u64,
    /// `Timeline::samples().len()` at the end.
    pub timeline_samples: u64,
    /// Bytes of the exported Chrome trace.
    pub export_bytes: u64,
    /// `"C"` records in the exported trace.
    pub trace_counters: u64,
    /// `service.trace.kept`.
    pub kept: u64,
    /// `service.trace.dropped`.
    pub dropped: u64,
    /// Incident reports frozen by the flight recorder.
    pub incidents: u64,
}

impl Counts {
    /// Fold one query's report into the optimizer/re-optimization counts.
    pub fn add_report(&mut self, r: &QueryReport) {
        self.optimizer_calls += r.plans.len() as u64;
        self.reopts += r.reopts as u64;
    }
}

/// What a replay hands back besides its spans.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The command's pinned result, rendered as the CLI prints it.
    pub echo: String,
    /// The exact counts.
    pub counts: Counts,
    /// Correctness violations found on the way, each naming the query.
    pub violations: Vec<String>,
}

/// Replay workload `w` at `repro --seed repro_seed`, recording into `rec`.
pub fn run(w: &Workload, repro_seed: u64, rec: &mut Recorder) -> Outcome {
    match w.args[0] {
        "table1" => experiments::table1(w, rec),
        "fig8" => experiments::fig8(w, rec),
        "workload" => workload::replay(w, repro_seed, rec),
        "serve" => serve::replay(w, repro_seed, rec, serve::Variant::Full),
        other => panic!("no replay for `repro {other}`"),
    }
}

/// The workload's arguments as `repro`'s own parser reads them, so the
/// replay and the CLI cannot read a flag or a default differently.
pub fn cli_of(w: &Workload) -> Cli {
    let args: Vec<String> = w.args.iter().map(|a| a.to_string()).collect();
    parse_cli(&args)
        .expect("the benchmark's own arguments parse")
        .expect("not --help")
}

/// The `<spec> <sf>` operands of a `workload` / `serve` command line.
pub fn spec_and_sf(cli: &Cli) -> (&str, u64) {
    let sf = cli.positional[2].parse().expect("numeric scale factor");
    (&cli.positional[1], sf)
}
