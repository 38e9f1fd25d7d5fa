//! Replay of `repro serve <spec> <sf> … --seed S`: calibration, the
//! seeded arrival schedule pushed through one `QueryService`, the outcome
//! fold, incident rendering, and the Chrome-trace export + re-parse.
//!
//! On the simulated clock this is an open loop: arrivals follow the
//! seeded schedule whatever the service does, latency counts from the
//! scheduled arrival, and `arrival_lag_s` reports how late submissions
//! were made (expected 0). On the host clock it is one closed loop.
//!
//! Binds: `dyno_bench::cli::parse_cli` (for `ServeOptions`),
//! `stream_of` (see `workload.rs`), `generate_arrivals`, `ArrivalSpec`,
//! `TpchGenerator::{new, generate}`, `Dyno::{new, run}`, `DynoOptions`,
//! `ClusterConfig::paper` (+ `scheduler`, `nodes`), `Obs::{enabled,
//! disabled}`, `QueryService::{new, advance_until, submit, idle,
//! health_digest, drain, finish, poll, obs, now, recorder}`,
//! `ServiceConfig`, `TenantQuota`, `SubmitOpts`, `QueryStatus`,
//! `QueryOutcome::{latency_secs, finished_at, submitted_at, met_deadline,
//! rows}`, `SloPolicy::default`, `SamplingPolicy`, `RecorderPolicy`,
//! `FlightRecorder::incidents`, `IncidentReport::{to_json, render}`,
//! `validate_incident_json`, `Tracer::{to_chrome_trace_with, with_log}`,
//! `validate_chrome_trace`, `Timeline::samples`, `Metrics::counter`,
//! `dyno_bench::render::pct`.

use std::collections::BTreeMap;

use dyno_bench::render::pct;
use dyno_bench::ServeOptions;
use dyno_benchmark::span::Recorder;
use dyno_benchmark::stats::percentile;
use dyno_benchmark::workload::Workload;
use dyno_cluster::ClusterConfig;
use dyno_core::{Dyno, DynoOptions, Mode, Strategy};
use dyno_obs::{
    validate_chrome_trace, validate_incident_json, Obs, RecorderPolicy, SamplingPolicy, SloPolicy,
};
use dyno_service::{
    generate_arrivals, ArrivalSpec, QueryService, QueryStatus, ServiceConfig, SubmitOpts,
    TenantQuota,
};
use dyno_tpch::queries::{self, QueryId};
use dyno_tpch::{SimScale, TpchGenerator};

use super::workload::stream_of;
use super::{cli_of, spec_and_sf, Counts, Outcome};

/// Which version of the run to replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The command as the CLI runs it.
    Full,
    /// The same schedule with `Obs::disabled()`, up to `finish`: what the
    /// pump costs when nothing is recorded.
    ObsOff,
    /// Recording on, but no health monitor, flight recorder, sampling or
    /// digests, up to `finish`: what those cost on top of recording.
    NoHealth,
}

/// Solo latency and row count per distinct `(query, mode)`.
type Baseline = BTreeMap<(QueryId, &'static str), (f64, u64)>;

fn generate(sf: u64, divisor: u64, rec: &mut Recorder) -> dyno_tpch::TpchEnv {
    rec.time("tpch.generate", || {
        TpchGenerator::new(sf, SimScale::divisor(divisor)).generate()
    })
}

/// `run_serve`'s calibration: each distinct query solo on a fresh,
/// uncontended paper cluster.
fn calibrate(stream: &[(QueryId, Mode)], sf: u64, divisor: u64, rec: &mut Recorder) -> Baseline {
    let mut base = Baseline::new();
    for &(q, mode) in stream {
        if base.contains_key(&(q, mode.name())) {
            continue;
        }
        let env = generate(sf, divisor, rec);
        let d = Dyno::new(
            env.dfs,
            DynoOptions {
                cluster: ClusterConfig::paper(),
                strategy: Strategy::Unc(1),
                ..DynoOptions::default()
            },
        );
        let report = rec
            .time("core.run", || d.run(&queries::prepare(q), mode))
            .unwrap_or_else(|e| panic!("calibrating {}: {e}", q.name()));
        base.insert((q, mode.name()), (report.total_secs, report.rows));
    }
    base
}

/// With `--health` the harness stops at every digest boundary to snapshot
/// the live windows; the stops are part of the pump.
struct Pump {
    step_digests: bool,
    interval: f64,
    next_digest: f64,
}

impl Pump {
    fn advance(&mut self, service: &mut QueryService, t: f64, rec: &mut Recorder) {
        let span = rec.begin("service.advance");
        while self.step_digests && self.next_digest <= t {
            service.advance_until(self.next_digest);
            std::hint::black_box(service.health_digest());
            self.next_digest += self.interval;
        }
        service.advance_until(t);
        rec.end(span);
    }
}

/// Replay the serve workload `w`; the echo, counts and violations are
/// filled for [`Variant::Full`] only (the others stop after `finish`).
pub fn replay(w: &Workload, seed: u64, rec: &mut Recorder, variant: Variant) -> Outcome {
    let cli = cli_of(w);
    let (spec, sf) = spec_and_sf(&cli);
    let divisor = cli.divisor;
    let mut opts: ServeOptions = cli.serve_opts;
    if variant == Variant::NoHealth {
        opts.health = false;
        opts.incidents = false;
        opts.sample_one_in = 0;
    }

    let stream = stream_of(spec, seed);
    let cal = rec.begin("bench.calibrate");
    let base = calibrate(&stream, sf, divisor, rec);
    rec.end(cal);
    let arrivals = generate_arrivals(
        &ArrivalSpec {
            count: stream.len(),
            tenants: opts.tenants,
            mean_gap_secs: opts.arrival_mean,
            tenant_skew: opts.tenant_skew,
            ..ArrivalSpec::default()
        },
        seed,
    );

    let env = generate(sf, divisor, rec);
    let mut dyno = Dyno::new(
        env.dfs,
        DynoOptions {
            cluster: ClusterConfig {
                scheduler: opts.sched,
                nodes: opts.nodes.unwrap_or(ClusterConfig::paper().nodes),
                ..ClusterConfig::paper()
            },
            strategy: Strategy::Unc(1),
            ..DynoOptions::default()
        },
    );
    dyno.obs = if variant == Variant::ObsOff {
        Obs::disabled()
    } else {
        Obs::enabled()
    };
    let config = ServiceConfig {
        quota: TenantQuota {
            max_in_flight: opts.max_in_flight,
            slot_secs: opts.quota_slot_secs,
        },
        health: (opts.health || opts.incidents).then(SloPolicy::default),
        sampling: (opts.sample_one_in > 0).then_some(SamplingPolicy {
            one_in: opts.sample_one_in,
            seed,
        }),
        replan_after: opts.replan_after,
        recorder: opts.incidents.then(|| RecorderPolicy {
            top_k: opts.incident_top.max(1),
            ..RecorderPolicy::default()
        }),
        ..ServiceConfig::default()
    };
    let mut service = rec.time("service.new", || QueryService::new(dyno, config));

    let mut pump = Pump {
        step_digests: opts.health && opts.health_interval > 0.0,
        interval: opts.health_interval,
        next_digest: opts.health_interval,
    };

    let mut tickets = Vec::with_capacity(stream.len());
    for (i, (&(q, mode), arrival)) in stream.iter().zip(&arrivals).enumerate() {
        rec.set_invocation(i as u32 + 1);
        pump.advance(&mut service, arrival.at, rec);
        let deadline = Some(arrival.at + opts.slo_mult * base[&(q, mode.name())].0);
        let ticket = rec.time("service.submit", || {
            service.submit(
                arrival.tenant,
                q,
                SubmitOpts {
                    mode,
                    deadline,
                    priority: 0,
                },
            )
        });
        tickets.push(ticket.ok());
    }
    rec.set_invocation(0);
    while pump.step_digests && !service.idle() {
        let t = pump.next_digest;
        pump.advance(&mut service, t, rec);
    }
    rec.time("service.drain", || service.drain());
    rec.time("service.finish", || service.finish());
    if variant != Variant::Full {
        return Outcome::default();
    }

    // Fold the outcomes, exactly (no histogram in between).
    let mut counts = Counts {
        submissions: tickets.len() as u64,
        ..Counts::default()
    };
    let mut violations = Vec::new();
    let mut latencies = Vec::new();
    let fold = rec.begin("bench.fold");
    for ((&(q, mode), arrival), ticket) in stream.iter().zip(&arrivals).zip(&tickets) {
        let Some(ticket) = ticket else { continue };
        let outcome = match service.poll(*ticket) {
            Some(QueryStatus::Done(o)) => o,
            other => {
                violations.push(format!(
                    "{} (ticket {}) not done after drain: {other:?}",
                    q.name(),
                    ticket.0
                ));
                continue;
            }
        };
        counts.completed += 1;
        counts.slo_met += u64::from(outcome.met_deadline == Some(true));
        counts.sim_makespan_s = counts.sim_makespan_s.max(outcome.finished_at);
        counts.arrival_lag_s = counts.arrival_lag_s.max(outcome.submitted_at - arrival.at);
        latencies.push(outcome.latency_secs);
        // Sharing the cluster may change the plan, never the answer.
        let solo_rows = base[&(q, mode.name())].1;
        if outcome.rows != solo_rows {
            violations.push(format!(
                "{} (ticket {}): {} rows through the service, {solo_rows} solo",
                q.name(),
                ticket.0,
                outcome.rows
            ));
        }
    }
    rec.end(fold);
    if !latencies.is_empty() {
        counts.sim_lat_p50_s = percentile(&latencies, 0.5);
        counts.sim_lat_p90_s = percentile(&latencies, 0.9);
    }
    let metrics = &service.obs().metrics;
    counts.rejected = metrics.counter("service.rejected");
    counts.queued = metrics.counter("service.queued_at_admission");
    counts.kept = metrics.counter("service.trace.kept");
    counts.dropped = metrics.counter("service.trace.dropped");

    if let Some(recorder) = service.recorder() {
        let span = rec.begin("obs.incidents");
        for inc in recorder.incidents() {
            let json = inc.to_json();
            if let Err(e) = validate_incident_json(&json) {
                violations.push(format!("incident {}: {e}", inc.id));
            }
            std::hint::black_box(inc.render());
            counts.incidents += 1;
        }
        rec.end(span);
    }

    let obs = service.obs();
    (counts.obs_spans, counts.obs_events) =
        obs.tracer.with_log(|s, e| (s.len() as u64, e.len() as u64));
    counts.timeline_samples = obs.timeline.samples().len() as u64;
    let trace = rec.time("obs.export", || {
        obs.tracer.to_chrome_trace_with(&obs.timeline)
    });
    counts.export_bytes = trace.len() as u64;
    // `validate_chrome_trace` re-parses the document and fails unless
    // every begin has its end: the spans balance in the exported trace.
    match rec.time("obs.validate", || validate_chrome_trace(&trace)) {
        Ok(summary) => counts.trace_counters = summary.counters as u64,
        Err(e) => violations.push(format!("exported trace does not validate: {e}")),
    }

    let rate = if counts.completed == 0 {
        1.0
    } else {
        counts.slo_met as f64 / counts.completed as f64
    };
    let echo = format!(
        "slo attainment: {}/{} ({})",
        counts.slo_met,
        counts.completed,
        pct(rate)
    );
    rec.time("service.drop", move || drop((service, trace)));
    Outcome {
        echo,
        counts,
        violations,
    }
}
