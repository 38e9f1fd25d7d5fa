//! Replay of `repro workload <spec> <sf> [--divisor N] --seed S` (the
//! serial runner): one long-lived `Dyno`, one short-lived `QueryService`
//! per query, then the report fold and the Chrome-trace export.
//!
//! Binds: `dyno_bench::parse_spec`, `StdRng::seed_from_u64` +
//! `Rng::shuffle`, `TpchGenerator::{new, generate}`, `Dyno::new`,
//! `DynoOptions`, `Obs::enabled`, `Timeline::reset`,
//! `QueryService::{new, submit, drain, poll, into_dyno}`,
//! `ServiceConfig::trace_service_lane`, `SubmitOpts`, `QueryStatus`,
//! `Metrics::counter`, `Tracer::{spans, events, with_log,
//! to_chrome_trace}`, `descends_from`, `OomRecovery::from_event`,
//! `SpanKind`, `dyno_bench::render::pct`, `dyno_bench::cli::parse_cli`.

use dyno_bench::render::pct;
use dyno_bench::{parse_spec, ExpScale};
use dyno_benchmark::span::Recorder;
use dyno_benchmark::workload::Workload;
use dyno_cluster::ClusterConfig;
use dyno_common::{Rng, SeedableRng, StdRng};
use dyno_core::{Dyno, DynoOptions, Mode, Strategy};
use dyno_data::Value;
use dyno_obs::{descends_from, Obs, OomRecovery, SpanKind};
use dyno_service::{QueryService, QueryStatus, ServiceConfig, SubmitOpts};
use dyno_tpch::queries::{self, QueryId};
use dyno_tpch::{SimScale, TpchGenerator};

use super::{cli_of, spec_and_sf, Counts, Outcome};

/// The expanded, seeded-shuffled instance stream of a spec.
pub fn stream_of(spec: &str, seed: u64) -> Vec<(QueryId, Mode)> {
    let entries = parse_spec(spec).expect("the benchmark's own spec parses");
    let mut stream: Vec<(QueryId, Mode)> = entries
        .iter()
        .flat_map(|e| std::iter::repeat_n((e.query, e.mode), e.repeat as usize))
        .collect();
    StdRng::seed_from_u64(seed).shuffle(&mut stream);
    stream
}

pub fn replay(w: &Workload, seed: u64, rec: &mut Recorder) -> Outcome {
    let cli = cli_of(w);
    let (spec, sf) = spec_and_sf(&cli);
    let stream = stream_of(spec, seed);
    let env = rec.time("tpch.generate", || {
        TpchGenerator::new(sf, SimScale::divisor(cli.divisor)).generate()
    });
    let mut d = Dyno::new(
        env.dfs,
        DynoOptions {
            cluster: ClusterConfig::paper(),
            strategy: Strategy::Unc(1),
            ..DynoOptions::default()
        },
    );
    d.obs = Obs::enabled();

    let mut counts = Counts::default();
    for (i, &(q, mode)) in stream.iter().enumerate() {
        rec.set_invocation(i as u32 + 1);
        d.obs.timeline.reset();
        let mut svc = rec.time("service.new", || {
            QueryService::new(
                d,
                ServiceConfig {
                    trace_service_lane: false,
                    ..ServiceConfig::default()
                },
            )
        });
        let ticket = rec
            .time("service.submit", || {
                svc.submit(
                    0,
                    q,
                    SubmitOpts {
                        mode,
                        ..SubmitOpts::default()
                    },
                )
            })
            .expect("default quota never rejects");
        rec.time("service.drain", || svc.drain());
        let status = svc.poll(ticket);
        d = svc.into_dyno();
        match status {
            Some(QueryStatus::Done(o)) => counts.add_report(&o.report),
            other => panic!("{} did not finish: {other:?}", q.name()),
        }
        counts.submissions += 1;
        counts.completed += 1;
    }
    rec.set_invocation(0);
    counts.metastore_hits = d.obs.metrics.counter("metastore.hits");
    counts.metastore_misses = d.obs.metrics.counter("metastore.misses");

    // The report fold `run_workload` performs over the shared log: clone
    // it out, then attribute OOM events and job spans to their query.
    rec.time("bench.fold", || {
        let spans = d.obs.tracer.spans();
        let events = d.obs.tracer.events();
        for qs in spans.iter().filter(|s| s.kind == SpanKind::Query) {
            counts.oom_recoveries += events
                .iter()
                .filter(|e| descends_from(&spans, e.span, qs.id))
                .filter_map(OomRecovery::from_event)
                .count() as u64;
            let jobs = spans
                .iter()
                .filter(|s| s.kind == SpanKind::Job && descends_from(&spans, s.id, qs.id))
                .count();
            std::hint::black_box(jobs);
        }
    });
    (counts.obs_spans, counts.obs_events) = d
        .obs
        .tracer
        .with_log(|s, e| (s.len() as u64, e.len() as u64));
    counts.timeline_samples = d.obs.timeline.samples().len() as u64;
    counts.export_bytes = rec
        .time("obs.export", || d.obs.tracer.to_chrome_trace())
        .len() as u64;

    let total = counts.metastore_hits + counts.metastore_misses;
    let rate = if total == 0 {
        0.0
    } else {
        counts.metastore_hits as f64 / total as f64
    };
    let echo = format!(
        "workload metastore hit-rate: {}/{total} ({})",
        counts.metastore_hits,
        pct(rate)
    );
    rec.time("tpch.drop", move || drop(d));
    Outcome {
        echo,
        counts,
        violations: Vec::new(),
    }
}

/// The invariant runtime re-optimization must keep — the plan may change,
/// the answer may not: every distinct query of the workload returns the
/// same row set under every mode. Run once, outside the timed replay.
///
/// DYNOPT, DYNOPT-SIMPLE and RELOPT are compared on the workload's own
/// data. BESTSTATICJAQL joins them at `repro`'s default divisor only — in
/// a second, coarser world of the same scale factor when the workload's
/// divisor is finer: at divisor 2000 its true-size oracle takes 16-28 s
/// and up to 2.7 GB per query (measured: Q7, Q8', Q9').
pub fn modes_agree(w: &Workload) -> Vec<String> {
    let cli = cli_of(w);
    let (spec, sf) = spec_and_sf(&cli);
    let mut distinct: Vec<QueryId> = stream_of(spec, 0).into_iter().map(|(q, _)| q).collect();
    distinct.sort();
    distinct.dedup();
    let coarse = ExpScale::default().divisor;
    let all = [Mode::DynoptSimple, Mode::RelOpt, Mode::BestStaticJaql];
    let worlds = if cli.divisor < coarse {
        vec![(cli.divisor, &all[..2]), (coarse, &all[..])]
    } else {
        vec![(cli.divisor, &all[..])]
    };
    let mut violations = Vec::new();
    for (divisor, modes) in worlds {
        let d = Dyno::new(
            TpchGenerator::new(sf, SimScale::divisor(divisor))
                .generate()
                .dfs,
            DynoOptions::default(),
        );
        for &q in &distinct {
            let prepared = queries::prepare(q);
            let rows_under = |mode: Mode| -> Result<Vec<Value>, String> {
                d.clear_stats();
                let report = d.run(&prepared, mode);
                let mut rows = report
                    .map_err(|e| format!("{} under {}: {e}", q.name(), mode.name()))?
                    .result;
                rows.sort();
                Ok(rows)
            };
            let reference = rows_under(Mode::Dynopt);
            for &mode in modes {
                match (&reference, &rows_under(mode)) {
                    (Ok(a), Ok(b)) if a == b => {}
                    (Ok(a), Ok(b)) => violations.push(format!(
                        "{} at divisor {divisor}: {} returns {} rows that differ from DYNOPT's {}",
                        q.name(),
                        mode.name(),
                        b.len(),
                        a.len()
                    )),
                    (Err(e), _) | (_, Err(e)) => violations.push(e.clone()),
                }
            }
        }
    }
    violations
}
