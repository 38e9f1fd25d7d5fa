//! `driver` — the benchmark's entry point behind `run.sh` / `check.sh`.
//!
//! ```text
//! driver run --root DIR --repro PATH [--layers PATH | --layers-error MSG]
//!            [--build-s S] [--commit HASH]
//!            [--workload NAME]… [--seed N] [--seconds S] [--trace [0|1]]
//! driver compare FIRST.json SECOND.json --spec BENCHMARK.json
//! ```
//!
//! `run` prints, per workload, a table of every metric with its unit and
//! sample count, then one JSON result line; with a single `--workload`
//! that line is the last line of stdout. `--trace 0` (the default) is the
//! end-to-end loop over `repro` children; `--trace 1` is one reference
//! invocation plus the in-process per-layer replay (`layers`).

use std::ffi::OsStr;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use dyno_benchmark::child;
use dyno_benchmark::cli::{parse_run, RunArgs};
use dyno_benchmark::compare::{compare, parse_results, WorkloadResult};
use dyno_benchmark::e2e::Runner;
use dyno_benchmark::json::Json;
use dyno_benchmark::report::{result_line, table, Row};
use dyno_benchmark::spec::Spec;
use dyno_benchmark::workload::Workload;

const USAGE: &str =
    "usage: driver run --root DIR --repro PATH [--layers PATH | --layers-error MSG] \
[--build-s S] [--commit HASH] [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
       driver compare FIRST.json SECOND.json --spec BENCHMARK.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => run_compare(rest),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// What one workload's run produced, before it is printed.
struct Outcome {
    rows: Vec<Row>,
    attempted: usize,
    failures: Vec<String>,
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let spec = Spec::parse(&read(&a.root.join("BENCHMARK.json"))?)?;
    if a.repro.parent().and_then(Path::file_name) != Some(OsStr::new("release")) {
        return Err(format!(
            "refusing to time {}: not a release build (expected .../release/repro)",
            a.repro.display()
        ));
    }
    let out = a.root.join("benchmark").join("out");
    fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let seconds = a.seconds.unwrap_or(spec.run_seconds);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "== dyno benchmark: nproc {nproc}, commit {}, seed {}, {} ==",
        a.commit,
        a.seed,
        if a.trace {
            "per-layer traced replay (--trace 1)".to_owned()
        } else {
            format!("end to end, {seconds} s measured per workload (--trace 0)")
        }
    );
    println!(
        "   build_s {:.3} s (cargo build of what this run needs; ungated)",
        a.build_s
    );

    let listed = if a.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut results = Vec::new();
    for w in &a.workloads {
        println!(
            "\n== {}: repro {} ==",
            w.name,
            w.repro_args(a.seed).join(" ")
        );
        println!("   why: {}", w.why);
        if let Some(note) = w.seed_note() {
            println!("   seed: {note}");
        }
        let o = if a.trace {
            traced(w, &a, &spec, &out)?
        } else {
            end_to_end(w, &a, &out, seconds)?
        };
        print!("{}", table(&o.rows));
        for f in &o.failures {
            println!("   FAILED {f}");
        }
        let failed = o.failures.len();
        let (line, problems) = result_line(listed, &o.rows, failed == 0, o.attempted, failed);
        for p in problems.iter().take(5) {
            println!("   PROBLEM {p}");
        }
        if problems.len() > 5 {
            println!(
                "   PROBLEM ... and {} more listed metrics without a value",
                problems.len() - 5
            );
        }
        println!("{}", line.render());
        results.push(WorkloadResult {
            name: w.name.to_owned(),
            correct: failed == 0 && problems.is_empty(),
            attempted: o.attempted,
            failed,
            rows: o.rows,
        });
    }

    let file = out.join(if a.trace {
        "results-layers.json"
    } else {
        "results.json"
    });
    let doc = Json::obj([
        ("commit", Json::str(&a.commit)),
        ("nproc", Json::Num(nproc as f64)),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(a.trace)),
        ("build_s", Json::Num(a.build_s)),
        (
            "workloads",
            Json::Arr(results.iter().map(WorkloadResult::to_json).collect()),
        ),
    ]);
    fs::write(&file, doc.render() + "\n").map_err(|e| format!("{}: {e}", file.display()))?;
    Ok(ExitCode::SUCCESS)
}

/// `--trace 0`: set-up repetitions, then timed invocations.
fn end_to_end(w: &Workload, a: &RunArgs, out: &Path, seconds: f64) -> Result<Outcome, String> {
    let run = Runner::new(w, &a.repro, out, a.seed)
        .run(seconds)
        .map_err(|e| format!("{}: {e}", w.name))?;
    let rows = run.rows(w).ok_or_else(|| {
        format!(
            "{}: no invocation passed its checks: {}",
            w.name,
            run.failures().join("; ")
        )
    })?;
    Ok(Outcome {
        rows,
        attempted: run.attempted(),
        failures: run.failures(),
    })
}

/// `--trace 1`: one reference invocation of the CLI, then the `layers`
/// replay, whose result must also appear verbatim in the CLI's stdout.
fn traced(w: &Workload, a: &RunArgs, spec: &Spec, out: &Path) -> Result<Outcome, String> {
    let mut runner = Runner::new(w, &a.repro, out, a.seed);
    let cli = runner
        .invoke(true)
        .map_err(|e| format!("{}: {e}", w.name))?;
    let mut o = Outcome {
        rows: Vec::new(),
        attempted: 1,
        failures: Vec::new(),
    };
    o.failures.extend(
        cli.failure
            .iter()
            .map(|f| format!("reference invocation: {f}")),
    );

    // One broken build or one crash must not take the end-to-end numbers
    // (or the other workloads) with it: every per-layer row is then
    // printed as unavailable with the first error line.
    let all_unavailable = |o: &mut Outcome, what: String| {
        o.rows = spec
            .per_layer
            .iter()
            .map(|m| Row::unavailable(&m.name, &m.unit, &what))
            .collect();
        o.attempted += 1;
        o.failures.push(what);
    };
    let layers = match &a.layers {
        None => return Err("--trace 1 needs --layers or --layers-error".to_owned()),
        Some(Err(msg)) => {
            all_unavailable(&mut o, format!("layers did not build: {msg}"));
            return Ok(o);
        }
        Some(Ok(path)) => path,
    };
    let trace_file = out.join(format!("trace-{}.json", w.name));
    let stderr = out.join(format!("stderr-layers-{}.txt", w.name));
    let _ = fs::remove_file(&stderr);
    let args = [
        "--workload",
        w.name,
        "--seed",
        &a.seed.to_string(),
        "--trace-out",
        &trace_file.to_string_lossy(),
    ]
    .map(str::to_owned);
    let inv = child::run(layers, &args, out, &[], &stderr)
        .map_err(|e| format!("{}: {e}", layers.display()))?;
    let doc = match (
        inv.exit.success(),
        std::str::from_utf8(&inv.stdout).map(Json::parse),
    ) {
        (true, Ok(Ok(doc))) => doc,
        _ => {
            let first = read(&stderr)
                .unwrap_or_default()
                .lines()
                .next()
                .unwrap_or("no stderr")
                .to_owned();
            all_unavailable(&mut o, format!("layers ended with {:?}: {first}", inv.exit));
            return Ok(o);
        }
    };

    let field = |k: &str| {
        doc.get(k)
            .ok_or_else(|| format!("layers output without {k:?}"))
    };
    for row in field("rows")?
        .as_arr()
        .ok_or("layers \"rows\" is not an array")?
    {
        o.rows.push(Row::from_json(row)?);
    }
    o.attempted += field("attempted")?
        .as_f64()
        .ok_or("layers \"attempted\" is not a number")? as usize;
    for f in field("failures")?
        .as_arr()
        .ok_or("layers \"failures\" is not an array")?
    {
        o.failures
            .push(f.as_str().unwrap_or("unreadable failure").to_owned());
    }
    // The replay re-creates the workload only if it reaches the CLI's
    // own answer: its rendering of the pinned result must occur in the
    // reference stdout byte for byte.
    let echo = field("echo")?
        .as_str()
        .ok_or("layers \"echo\" is not a string")?;
    o.attempted += 1;
    if !runner
        .reference_stdout()
        .is_some_and(|s| !echo.is_empty() && s.contains(echo))
    {
        o.failures
            .push(format!("replay result {echo:?} is not in the CLI's stdout"));
    }
    let replay_wall = field("replay_wall_s")?
        .as_f64()
        .ok_or("layers \"replay_wall_s\" is not a number")?;
    o.rows.push(
        Row::new("trace.replay_vs_cli", replay_wall / cli.wall_s, "ratio", 1).detail(format!(
            "replay {replay_wall:.3} s / CLI invocation {:.3} s",
            cli.wall_s
        )),
    );
    Ok(o)
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let [first, second, flag, spec] = args else {
        return Err(USAGE.to_owned());
    };
    if flag != "--spec" {
        return Err(USAGE.to_owned());
    }
    let spec = Spec::parse(&read(Path::new(spec))?)?;
    let a = parse_results(&read(Path::new(first))?)?;
    let b = parse_results(&read(Path::new(second))?)?;
    let (text, bad) = compare(&spec, &a, &b);
    print!("{text}");
    println!("{} disagreement(s) between {first} and {second}", bad);
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
