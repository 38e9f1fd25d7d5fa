//! The end-to-end run of one workload: the release `repro` binary as a
//! child process, one child at a time, closed loop on the host clock.
//!
//! A run is `SETUP_REPS` set-up invocations, each from a clean state
//! (empty working directory, `HOME` and `TMPDIR`), followed by timed
//! invocations until `seconds` have passed. Every invocation is checked:
//! exit status, the workload's ci-pinned line, and stdout bytes equal to
//! the first invocation's (the repo's determinism contract).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::child::{self, Exit, Invocation, Usage};
use crate::pinned::{Pinned, PinnedValue};
use crate::report::Row;
use crate::stats::{median, quartiles};
use crate::workload::Workload;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// One checked invocation.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Spawn to reaped.
    pub wall_s: f64,
    /// `wait4` rusage.
    pub usage: Usage,
    /// Why the invocation failed its checks, if it did.
    pub failure: Option<String>,
    /// The pinned value read from stdout, when the checks passed.
    pub pinned: Option<PinnedValue>,
}

/// Everything measured in one run of one workload.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// The set-up invocations.
    pub setup: Vec<Sample>,
    /// The timed invocations.
    pub timed: Vec<Sample>,
}

/// Apply the three checks to a finished invocation. `reference` is the
/// stdout every later invocation must reproduce; apart from the pinned
/// line it is compared, never interpreted.
fn judge(w: &Workload, inv: &Invocation, reference: Option<&[u8]>) -> Result<PinnedValue, String> {
    match inv.exit {
        Exit::Code(0) => {}
        Exit::Code(c) => return Err(format!("exit code {c}")),
        Exit::Signal(s) => return Err(format!("killed by signal {s}")),
    }
    let text = std::str::from_utf8(&inv.stdout).map_err(|_| "stdout is not UTF-8".to_owned())?;
    let pinned = w
        .pinned
        .read(text)
        .ok_or_else(|| format!("pinned output missing ({:?})", w.pinned))?;
    if reference.is_some_and(|r| r != inv.stdout) {
        return Err("stdout differs from the first invocation's (determinism contract)".to_owned());
    }
    Ok(pinned)
}

fn fresh_dir(dir: &Path) -> io::Result<()> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    fs::create_dir_all(dir)
}

/// Runs one workload's invocations, one at a time, and checks each.
pub struct Runner<'a> {
    w: &'a Workload,
    repro: &'a Path,
    args: Vec<String>,
    /// `--incidents` writes files next to wherever repro runs.
    cwd: PathBuf,
    home: PathBuf,
    tmp: PathBuf,
    stderr: PathBuf,
    /// Stdout of the first invocation that passed its checks; every
    /// later one must reproduce it byte for byte.
    reference: Option<Vec<u8>>,
}

impl<'a> Runner<'a> {
    /// A runner for `w` at benchmark seed `seed`; children run and leave
    /// their files under `out`, the benchmark's output directory.
    pub fn new(w: &'a Workload, repro: &'a Path, out: &Path, seed: u64) -> Runner<'a> {
        let stderr = out.join(format!("stderr-{}.txt", w.name));
        let _ = fs::remove_file(&stderr);
        Runner {
            w,
            repro,
            args: w.repro_args(seed),
            cwd: out.join("cwd").join(w.name),
            home: out.join("state").join(w.name).join("home"),
            tmp: out.join("state").join(w.name).join("tmp"),
            stderr,
            reference: None,
        }
    }

    /// One invocation in an emptied working directory; with
    /// `clean_state`, `HOME` and `TMPDIR` are emptied too, so nothing an
    /// earlier invocation cached can help this one.
    pub fn invoke(&mut self, clean_state: bool) -> io::Result<Sample> {
        fresh_dir(&self.cwd)?;
        if clean_state {
            fresh_dir(&self.home)?;
            fresh_dir(&self.tmp)?;
        }
        let env = [
            ("HOME", self.home.as_path()),
            ("TMPDIR", self.tmp.as_path()),
        ];
        let inv = child::run(self.repro, &self.args, &self.cwd, &env, &self.stderr)?;
        let verdict = judge(self.w, &inv, self.reference.as_deref());
        let (pinned, failure) = match verdict {
            Ok(p) => (Some(p), None),
            Err(e) => (None, Some(e)),
        };
        if failure.is_none() && self.reference.is_none() {
            self.reference = Some(inv.stdout);
        }
        Ok(Sample {
            wall_s: inv.wall_s,
            usage: inv.usage,
            failure,
            pinned,
        })
    }

    /// Stdout of the first invocation that passed its checks.
    pub fn reference_stdout(&self) -> Option<&str> {
        // `judge` only passes UTF-8 stdout.
        self.reference
            .as_deref()
            .and_then(|b| std::str::from_utf8(b).ok())
    }

    /// A whole run: [`SETUP_REPS`] clean-state invocations, then timed
    /// invocations until `seconds` have passed.
    pub fn run(&mut self, seconds: f64) -> io::Result<Run> {
        let mut run = Run::default();
        for _ in 0..SETUP_REPS {
            run.setup.push(self.invoke(true)?);
        }
        let started = Instant::now();
        loop {
            run.timed.push(self.invoke(false)?);
            if started.elapsed().as_secs_f64() >= seconds {
                return Ok(run);
            }
        }
    }
}

impl Run {
    /// Invocations made, set-up included.
    pub fn attempted(&self) -> usize {
        self.setup.len() + self.timed.len()
    }

    /// The failure messages, in invocation order.
    pub fn failures(&self) -> Vec<String> {
        let label = |phase: &'static str| {
            move |(i, s): (usize, &Sample)| {
                s.failure
                    .as_ref()
                    .map(|f| format!("{phase} #{}: {f}", i + 1))
            }
        };
        self.setup
            .iter()
            .enumerate()
            .filter_map(label("set-up"))
            .chain(self.timed.iter().enumerate().filter_map(label("timed")))
            .collect()
    }

    /// The end-to-end metric rows. Timing rows use the invocations that
    /// passed their checks; `None` when no timed (or no set-up)
    /// invocation did, because then there is nothing honest to report.
    pub fn rows(&self, w: &Workload) -> Option<Vec<Row>> {
        let ok = |v: &[Sample]| {
            v.iter()
                .filter(|s| s.failure.is_none())
                .cloned()
                .collect::<Vec<_>>()
        };
        let (setup, timed) = (ok(&self.setup), ok(&self.timed));
        if setup.is_empty() || timed.is_empty() {
            return None;
        }
        let col = |v: &[Sample], f: fn(&Sample) -> f64| v.iter().map(f).collect::<Vec<f64>>();
        let walls = col(&timed, |s| s.wall_s);
        let wall_s = median(&walls);
        let quart = |v: &[f64]| {
            quartiles(v).map_or(String::new(), |(q1, q3)| format!("q1 {q1:.4} q3 {q3:.4}"))
        };
        let ops = f64::from(w.ops);
        // Met deadlines over *operations submitted*: a rejected
        // submission and a failed invocation both count as misses. A
        // workload without deadlines meets all of them by completing.
        let met_share = |s: &Sample| match (&s.failure, &s.pinned) {
            (None, Some(PinnedValue::Ratio(met, _))) if w.pinned == Pinned::Slo => {
                *met as f64 / ops
            }
            (None, _) => 1.0,
            (Some(_), _) => 0.0,
        };
        let slo: Vec<f64> = self.timed.iter().map(met_share).collect();
        let failed = self.attempted() - setup.len() - timed.len();
        let n = timed.len();
        Some(vec![
            Row::new(
                "setup_s",
                median(&col(&setup, |s| s.wall_s)),
                "s",
                setup.len(),
            )
            .detail(format!("median of {} clean-state invocations", setup.len())),
            Row::new("wall_s", wall_s, "s", n).detail(quart(&walls)),
            Row::new(
                "cpu_s",
                median(&col(&timed, |s| s.usage.user_s + s.usage.sys_s)),
                "s",
                n,
            )
            .detail(format!(
                "user {:.4} sys {:.4}",
                median(&col(&timed, |s| s.usage.user_s)),
                median(&col(&timed, |s| s.usage.sys_s))
            )),
            Row::new("queries_per_s", ops / wall_s, "1/s", n)
                .detail(format!("{} ops per invocation", w.ops)),
            Row::new(
                "peak_rss_mb",
                col(&timed, |s| s.usage.max_rss_kb as f64 / 1024.0)
                    .into_iter()
                    .fold(0.0, f64::max),
                "MB",
                n,
            )
            .detail("max ru_maxrss".to_owned()),
            Row::new("slo_attainment", median(&slo), "ratio", slo.len())
                .exact()
                .detail("met / operations submitted".to_owned()),
            Row::new(
                "fail_share",
                failed as f64 / self.attempted() as f64,
                "ratio",
                self.attempted(),
            )
            .exact()
            .detail(format!(
                "{failed} failed of {} invocations",
                self.attempted()
            )),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(wall_s: f64, cpu: f64, rss_kb: u64, pinned: Option<PinnedValue>) -> Sample {
        Sample {
            wall_s,
            usage: Usage {
                user_s: cpu * 0.75,
                sys_s: cpu * 0.25,
                max_rss_kb: rss_kb,
                minor_faults: 0,
            },
            failure: pinned.is_none().then(|| "killed by signal 9".to_owned()),
            pinned,
        }
    }

    fn value(rows: &[Row], name: &str) -> f64 {
        rows.iter()
            .find(|r| r.name == name)
            .and_then(|r| r.value)
            .unwrap()
    }

    #[test]
    fn metrics_are_medians_of_the_passing_invocations() {
        let w = Workload::find("serve_flood").unwrap();
        let ok = |wall, rss| sample(wall, wall - 0.1, rss, Some(PinnedValue::Ratio(52, 82)));
        let run = Run {
            setup: vec![ok(2.4, 1), ok(2.0, 1), ok(2.2, 1)],
            timed: vec![
                ok(2.0, 170 * 1024),
                ok(1.8, 169 * 1024),
                ok(1.9, 171 * 1024),
            ],
        };
        let rows = run.rows(w).unwrap();
        assert_eq!(value(&rows, "setup_s"), 2.2);
        assert_eq!(value(&rows, "wall_s"), 1.9);
        assert!((value(&rows, "cpu_s") - 1.8).abs() < 1e-12);
        assert_eq!(value(&rows, "queries_per_s"), 100.0 / 1.9);
        assert_eq!(value(&rows, "peak_rss_mb"), 171.0);
        // 52 met of 100 SUBMITTED: the 18 rejections count as misses.
        assert_eq!(value(&rows, "slo_attainment"), 0.52);
        assert_eq!(value(&rows, "fail_share"), 0.0);
        assert!(run.failures().is_empty());
    }

    #[test]
    fn a_killed_invocation_is_a_failure_and_an_slo_miss_but_not_a_timing() {
        let w = Workload::find("reopt").unwrap();
        let ok = |wall| sample(wall, wall, 80 * 1024, Some(PinnedValue::Ratio(1, 2)));
        let run = Run {
            setup: vec![ok(0.9), ok(0.9), ok(0.9)],
            timed: vec![
                ok(0.8),
                sample(0.1, 0.1, 9 * 1024, None),
                ok(0.82),
                sample(0.1, 0.1, 9, None),
            ],
        };
        let rows = run.rows(w).unwrap();
        assert!(
            (value(&rows, "wall_s") - 0.81).abs() < 1e-12,
            "failed samples carry no timing"
        );
        assert_eq!(value(&rows, "fail_share"), 2.0 / 7.0);
        // No deadlines here: completing is meeting. Two of four did not.
        assert_eq!(value(&rows, "slo_attainment"), 0.5);
        assert_eq!(
            run.failures(),
            [
                "timed #2: killed by signal 9",
                "timed #4: killed by signal 9"
            ]
        );
    }

    #[test]
    fn nothing_is_reported_when_every_timed_invocation_failed() {
        let w = Workload::find("table1").unwrap();
        let ok = sample(1.5, 1.5, 1, Some(PinnedValue::Present));
        let run = Run {
            setup: vec![ok.clone()],
            timed: vec![sample(0.1, 0.1, 1, None)],
        };
        assert!(run.rows(w).is_none());
        assert!(Run {
            setup: vec![],
            timed: vec![ok]
        }
        .rows(w)
        .is_none());
    }

    #[test]
    fn judge_orders_its_checks() {
        let w = Workload::find("serve_10k").unwrap();
        assert_eq!(w.pinned, Pinned::Slo);
        let inv = |exit, out: &str| Invocation {
            wall_s: 1.0,
            usage: Usage::default(),
            exit,
            stdout: out.as_bytes().to_vec(),
        };
        let good = "report\nslo attainment: 100/100 (100.0%)\n";
        assert_eq!(
            judge(w, &inv(Exit::Code(0), good), None),
            Ok(PinnedValue::Ratio(100, 100))
        );
        assert!(judge(w, &inv(Exit::Code(0), good), Some(good.as_bytes())).is_ok());
        assert_eq!(
            judge(w, &inv(Exit::Signal(9), good), None).unwrap_err(),
            "killed by signal 9"
        );
        assert_eq!(
            judge(w, &inv(Exit::Code(2), good), None).unwrap_err(),
            "exit code 2"
        );
        assert!(judge(w, &inv(Exit::Code(0), "report\n"), None)
            .unwrap_err()
            .contains("pinned"));
        let other = "report v2\nslo attainment: 100/100 (100.0%)\n";
        let err = judge(w, &inv(Exit::Code(0), other), Some(good.as_bytes())).unwrap_err();
        assert!(err.contains("determinism"), "{err}");
    }
}
