//! Command-line parsing for the driver.

use std::path::PathBuf;

use crate::workload::{Workload, WORKLOADS};

/// Parsed `driver run` arguments.
#[derive(Debug)]
pub struct RunArgs {
    /// The repo root (holds `BENCHMARK.json`; output goes to
    /// `<root>/benchmark/out`).
    pub root: PathBuf,
    /// The release `repro` binary.
    pub repro: PathBuf,
    /// The `layers` binary, or the first error line of its failed build.
    pub layers: Option<Result<PathBuf, String>>,
    /// Seconds `run.sh` spent in `cargo build` (printed, ungated).
    pub build_s: f64,
    /// Commit hash for the result header.
    pub commit: String,
    /// Workloads to run, in table order (all when none was named).
    pub workloads: Vec<&'static Workload>,
    /// Benchmark seed.
    pub seed: u64,
    /// Measuring time per workload; `None` takes `run_seconds` from
    /// `BENCHMARK.json`.
    pub seconds: Option<f64>,
    /// `--trace 1`: the per-layer traced replay instead of the
    /// end-to-end loop.
    pub trace: bool,
}

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 11;

/// Parse the arguments after `driver run`.
pub fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut root = None;
    let mut repro = None;
    let mut layers = None;
    let mut build_s = 0.0;
    let mut commit = "unknown".to_owned();
    let mut names: Vec<&str> = Vec::new();
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--root" => root = Some(PathBuf::from(value("a directory")?)),
            "--repro" => repro = Some(PathBuf::from(value("a path")?)),
            "--layers" => layers = Some(Ok(PathBuf::from(value("a path")?))),
            "--layers-error" => layers = Some(Err(value("a message")?.clone())),
            "--build-s" => {
                build_s = value("seconds")?
                    .parse()
                    .map_err(|_| "--build-s needs a number".to_owned())?
            }
            "--commit" => commit = value("a hash")?.clone(),
            "--workload" => names.push(value("a workload name")?),
            "--seed" => {
                seed = value("an unsigned integer")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_owned())?
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
                seconds = Some(s);
            }
            // `--trace 0|1` for the harness, bare `--trace` by hand.
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workloads = if names.is_empty() {
        WORKLOADS.iter().collect()
    } else {
        let known = || {
            WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        };
        if let Some(bad) = names.iter().find(|n| Workload::find(n).is_none()) {
            return Err(format!("unknown workload {bad:?} (known: {})", known()));
        }
        WORKLOADS
            .iter()
            .filter(|w| names.contains(&w.name))
            .collect()
    };
    Ok(RunArgs {
        root: root.ok_or("--root is required")?,
        repro: repro.ok_or("--repro is required")?,
        layers,
        build_s,
        commit,
        workloads,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(user: &[&str]) -> Result<RunArgs, String> {
        let mut args: Vec<String> = ["--root", "/r", "--repro", "/r/target/release/repro"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        args.extend(user.iter().map(|s| s.to_string()));
        parse_run(&args)
    }

    #[test]
    fn the_harness_form_parses() {
        let a = parse(&[
            "--workload",
            "reopt",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            a.workloads.iter().map(|w| w.name).collect::<Vec<_>>(),
            ["reopt"]
        );
        assert_eq!((a.seed, a.seconds, a.trace), (3, Some(10.0), false));
        assert!(
            parse(&["--workload", "reopt", "--trace", "1"])
                .unwrap()
                .trace
        );
    }

    #[test]
    fn the_by_hand_form_parses() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.workloads.len(), WORKLOADS.len());
        assert_eq!((a.seed, a.seconds, a.trace), (DEFAULT_SEED, None, false));
        let a = parse(&[
            "--trace",
            "--workload",
            "serve_flood",
            "--workload",
            "table1",
        ])
        .unwrap();
        assert!(a.trace);
        assert_eq!(
            a.workloads.iter().map(|w| w.name).collect::<Vec<_>>(),
            ["table1", "serve_flood"],
            "table order, whatever the order named"
        );
    }

    #[test]
    fn bad_arguments_are_errors() {
        assert!(parse(&["--workload", "fig7"])
            .unwrap_err()
            .contains("unknown workload"));
        assert!(parse(&["--seed", "-1"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "soon"]).is_err());
        assert!(parse(&["--seconds", "-3"]).is_err());
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown argument"));
        assert!(parse_run(&[]).unwrap_err().contains("--root"));
    }
}
