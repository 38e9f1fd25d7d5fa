//! `layers` — the per-layer half of the benchmark.
//!
//! ```text
//! layers --workload NAME --seed N --trace-out FILE
//! ```
//!
//! Runs every probe, then replays the workload in-process twice — once
//! with the benchmark's span recorder on, once with it off — checks the
//! replay, writes the span log to FILE and prints one JSON document on
//! stdout for the driver: the metric rows, how many operations (probes
//! and checks) were attempted, which failed, the workload's pinned result
//! as the CLI would print it, and the replay's wall time.
//!
//! Nothing here may take the end-to-end numbers down with it: every probe
//! and the replay run behind `catch_unwind`, and a failure turns into
//! `unavailable` rows with the first error line.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use dyno_benchmark::child::self_usage;
use dyno_benchmark::json::Json;
use dyno_benchmark::report::Row;
use dyno_benchmark::span::{self, Recorder, Span};
use dyno_benchmark::workload::Workload;

mod alloc;
mod measure;
mod probes;
mod replay;

use measure::time_once;
use replay::serve::{self, Variant};
use replay::Counts;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `(metric, unit)` of every replay row, for the unavailable case.
const REPLAY_METRICS: &[(&str, &str)] = &[
    ("tpch.self_s", "s"),
    ("query.self_s", "s"),
    ("core.self_s", "s"),
    ("service.self_s", "s"),
    ("obs.self_s", "s"),
    ("bench.self_s", "s"),
    ("stats.metastore_hit_ratio", "ratio"),
    ("optimizer.calls", "count"),
    ("exec.oom_recoveries", "count"),
    ("core.reopts", "count"),
    ("service.submit_us", "us"),
    ("service.pump_s", "s"),
    ("service.pump_obs_off_s", "s"),
    ("service.finish_ms", "ms"),
    ("service.completed", "count"),
    ("service.queued", "count"),
    ("service.rejected", "count"),
    ("service.admit_ratio", "ratio"),
    ("service.arrival_lag_s", "sim_s"),
    ("service.sim_lat_p50_s", "sim_s"),
    ("service.sim_lat_p90_s", "sim_s"),
    ("service.sim_makespan_s", "sim_s"),
    ("obs.record_share", "ratio"),
    ("obs.spans", "count"),
    ("obs.events", "count"),
    ("obs.timeline_samples", "count"),
    ("obs.export_s", "s"),
    ("obs.export_mb", "MB"),
    ("obs.validate_s", "s"),
    ("obs.trace_counters", "count"),
    ("obs.health_share", "ratio"),
    ("obs.kept_span_ratio", "ratio"),
    ("obs.incidents", "count"),
    ("proc.allocs", "count"),
    ("proc.alloc_mb", "MB"),
    ("proc.sys_s", "s"),
    ("proc.minor_faults", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Σ `advance` + `drain`: the time the service spends moving the
/// simulated world forward.
fn pump_s(spans: &[Span]) -> f64 {
    span::total_of(spans, "service.advance").0 + span::total_of(spans, "service.drain").0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What the replay stage hands to `main`.
struct Replayed {
    rows: Vec<Row>,
    /// Checks made.
    attempted: usize,
    failures: Vec<String>,
    echo: String,
    wall_s: f64,
}

fn replay_stage(w: &Workload, seed: u64, trace_out: &str) -> Replayed {
    // Traced replay, with the process-wide counters around it.
    let usage0 = self_usage().expect("getrusage");
    let alloc0 = alloc::snapshot();
    let mut rec = Recorder::new(true);
    let repro_seed = w.repro_seed(seed).unwrap_or(0);
    let (wall_on, on) = time_once(|| replay::run(w, repro_seed, &mut rec));
    let alloc1 = alloc::snapshot();
    let usage1 = self_usage().expect("getrusage");
    let spans = rec.spans();

    // The same replay with the recorder off: the difference is what
    // tracing costs, and the counts must repeat exactly.
    let (wall_off, off) = time_once(|| replay::run(w, repro_seed, &mut Recorder::new(false)));

    let mut failures = on.violations.clone();
    let mut attempted = 3;
    if on.counts != off.counts {
        failures.push(format!(
            "two replays with seed {seed} disagree: {:?} vs {:?}",
            on.counts, off.counts
        ));
    }
    if let Err(e) = span::check_balanced(spans) {
        failures.push(format!("benchmark spans do not balance: {e}"));
    }
    let cli = replay::cli_of(w);
    let is_serve = cli.positional[0] == "serve";
    if cli.positional[0] == "workload" {
        attempted += 1;
        failures.extend(replay::workload::modes_agree(w));
    }

    // Serve only: the same schedule without recording, and (when the
    // command turns them on) without health, recorder and sampling.
    let variant_pump = |variant: Variant| {
        let mut r = Recorder::new(true);
        serve::replay(w, repro_seed, &mut r, variant);
        pump_s(r.spans())
    };
    let pump = pump_s(spans);
    let pump_obs_off = if is_serve {
        variant_pump(Variant::ObsOff)
    } else {
        0.0
    };
    let opts = cli.serve_opts;
    let has_health = is_serve && (opts.health || opts.incidents || opts.sample_one_in > 0);
    let pump_no_health = if has_health {
        variant_pump(Variant::NoHealth)
    } else {
        0.0
    };

    let trace = span::to_chrome_trace(spans).render();
    if let Err(e) = std::fs::write(trace_out, trace) {
        failures.push(format!("{trace_out}: {e}"));
    }

    let c: &Counts = &on.counts;
    let by_layer = span::self_time_by_layer(spans);
    let self_s = |layer: &str| by_layer.get(layer).copied().unwrap_or(0.0);
    let total = |name: &str| span::total_of(spans, name);
    let count = |name: &str, v: u64| Row::new(name, v as f64, "count", 1).exact();
    let sim = |name: &str, v: f64| Row::new(name, v, "sim_s", 1).exact();
    let (submit_s, submits) = total("service.submit");
    let mut rows: Vec<Row> = ["tpch", "query", "core", "service", "obs", "bench"]
        .iter()
        .map(|l| {
            Row::new(format!("{l}.self_s"), self_s(l), "s", 1).detail(format!(
                "self time of {l}.* spans, {:.1}% of the replay",
                100.0 * self_s(l) / wall_on
            ))
        })
        .collect();
    rows.extend([
        Row::new(
            "stats.metastore_hit_ratio",
            ratio(
                c.metastore_hits as f64,
                (c.metastore_hits + c.metastore_misses) as f64,
            ),
            "ratio",
            1,
        )
        .exact()
        .detail(format!(
            "{} hits, {} misses",
            c.metastore_hits, c.metastore_misses
        )),
        count("optimizer.calls", c.optimizer_calls),
        count("exec.oom_recoveries", c.oom_recoveries),
        count("core.reopts", c.reopts),
        Row::new(
            "service.submit_us",
            ratio(submit_s * 1e6, submits as f64),
            "us",
            submits,
        )
        .detail("mean per submit".into()),
        Row::new("service.pump_s", pump, "s", 1).detail("sum of advance_until + drain".into()),
        Row::new("service.pump_obs_off_s", pump_obs_off, "s", 1)
            .detail("same schedule, Obs::disabled()".into()),
        Row::new(
            "service.finish_ms",
            total("service.finish").0 * 1e3,
            "ms",
            1,
        ),
        count("service.completed", c.completed),
        count("service.queued", c.queued),
        count("service.rejected", c.rejected),
        Row::new(
            "service.admit_ratio",
            ratio((c.submissions - c.rejected) as f64, c.submissions as f64),
            "ratio",
            1,
        )
        .exact()
        .detail(format!("{} submissions", c.submissions)),
        sim("service.arrival_lag_s", c.arrival_lag_s),
        sim("service.sim_lat_p50_s", c.sim_lat_p50_s),
        sim("service.sim_lat_p90_s", c.sim_lat_p90_s),
        sim("service.sim_makespan_s", c.sim_makespan_s),
        Row::new(
            "obs.record_share",
            if is_serve {
                1.0 - ratio(pump_obs_off, pump)
            } else {
                0.0
            },
            "ratio",
            1,
        )
        .detail("1 - pump_obs_off_s / pump_s".into()),
        count("obs.spans", c.obs_spans),
        count("obs.events", c.obs_events),
        count("obs.timeline_samples", c.timeline_samples),
        Row::new("obs.export_s", total("obs.export").0, "s", 1),
        Row::new("obs.export_mb", c.export_bytes as f64 / 1e6, "MB", 1).exact(),
        Row::new("obs.validate_s", total("obs.validate").0, "s", 1),
        count("obs.trace_counters", c.trace_counters),
        Row::new(
            "obs.health_share",
            if has_health {
                1.0 - ratio(pump_no_health, pump)
            } else {
                0.0
            },
            "ratio",
            1,
        )
        .detail(format!(
            "1 - pump without health/recorder/sampling ({pump_no_health:.3} s) / pump_s"
        )),
        Row::new(
            "obs.kept_span_ratio",
            if c.kept + c.dropped == 0 {
                1.0
            } else {
                ratio(c.kept as f64, (c.kept + c.dropped) as f64)
            },
            "ratio",
            1,
        )
        .exact()
        .detail(format!("{} kept, {} dropped span trees", c.kept, c.dropped)),
        count("obs.incidents", c.incidents),
        Row::new(
            "proc.allocs",
            alloc1.calls_since(&alloc0) as f64,
            "count",
            1,
        )
        .detail("allocator calls in the traced replay".into()),
        Row::new(
            "proc.alloc_mb",
            alloc1.bytes_since(&alloc0) as f64 / 1e6,
            "MB",
            1,
        )
        .detail("bytes requested in the traced replay".into()),
        Row::new("proc.sys_s", usage1.sys_s - usage0.sys_s, "s", 1),
        Row::new(
            "proc.minor_faults",
            (usage1.minor_faults - usage0.minor_faults) as f64,
            "count",
            1,
        ),
        Row::new(
            "trace.overhead_share",
            (wall_on - wall_off) / wall_off,
            "ratio",
            1,
        )
        .detail(format!(
            "replay {wall_on:.3} s with spans, {wall_off:.3} s without"
        )),
        Row::new(
            "trace.coverage",
            span::top_level_total(spans) / wall_on,
            "ratio",
            1,
        )
        .detail(format!(
            "{} spans; top-level spans / replay wall",
            spans.len()
        )),
    ]);
    // REPLAY_METRICS is what gets printed as unavailable when this stage
    // panics; it must name exactly the rows built above.
    let declared = rows.len() == REPLAY_METRICS.len()
        && rows
            .iter()
            .zip(REPLAY_METRICS)
            .all(|(r, (name, unit))| r.name == *name && r.unit == *unit);
    if !declared {
        failures.push("replay rows differ from REPLAY_METRICS".to_owned());
    }
    Replayed {
        rows,
        attempted,
        failures,
        echo: on.echo,
        wall_s: wall_on,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [f1, name, f2, seed, f3, trace_out] = args.as_slice() else {
        eprintln!("usage: layers --workload NAME --seed N --trace-out FILE");
        return ExitCode::from(2);
    };
    let parsed = (f1 == "--workload" && f2 == "--seed" && f3 == "--trace-out")
        .then(|| Workload::find(name).zip(seed.parse::<u64>().ok()))
        .flatten();
    let Some((w, seed)) = parsed else {
        eprintln!("layers: unknown workload or bad seed in {args:?}");
        return ExitCode::from(2);
    };

    let (mut rows, mut failures) = probes::run_all();
    let mut attempted = probes::PROBES.len();
    let (echo, wall_s) = match catch_unwind(AssertUnwindSafe(|| replay_stage(w, seed, trace_out))) {
        Ok(r) => {
            rows.extend(r.rows);
            attempted += r.attempted;
            failures.extend(r.failures);
            (r.echo, r.wall_s)
        }
        Err(payload) => {
            let msg = format!(
                "replay of {} panicked: {}",
                w.name,
                probes::panic_message(payload)
            );
            rows.extend(
                REPLAY_METRICS
                    .iter()
                    .map(|(n, u)| Row::unavailable(*n, u, &msg)),
            );
            attempted += 1;
            failures.push(msg);
            (String::new(), 0.0)
        }
    };

    let doc = Json::obj([
        ("rows", Json::Arr(rows.iter().map(Row::to_json).collect())),
        ("attempted", Json::Num(attempted as f64)),
        (
            "failures",
            Json::Arr(failures.iter().map(Json::str).collect()),
        ),
        ("echo", Json::str(echo)),
        ("replay_wall_s", Json::Num(wall_s)),
    ]);
    println!("{}", doc.render());
    ExitCode::SUCCESS
}
