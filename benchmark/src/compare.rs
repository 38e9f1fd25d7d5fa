//! The A/A self-check behind `check.sh`: two result files from the same
//! build must agree — end-to-end metrics within their bound, every
//! exact row (counts, `slo_attainment`, `fail_share`) identically.

use std::fmt::Write as _;

use crate::json::Json;
use crate::report::{fmt_value, Row};
use crate::spec::Spec;

/// One workload's section of a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted (invocations, probes).
    pub attempted: usize,
    /// Operations failed.
    pub failed: usize,
    /// Every metric measured, gated or not.
    pub rows: Vec<Row>,
}

impl WorkloadResult {
    /// For the result file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "rows",
                Json::Arr(self.rows.iter().map(Row::to_json).collect()),
            ),
        ])
    }

    fn from_json(j: &Json) -> Result<WorkloadResult, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("workload without {k:?}"))
        };
        Ok(WorkloadResult {
            name: j
                .get("name")
                .and_then(Json::as_str)
                .ok_or("workload without a name")?
                .to_owned(),
            correct: j
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("workload without \"correct\"")?,
            attempted: num("attempted")? as usize,
            failed: num("failed")? as usize,
            rows: j
                .get("rows")
                .and_then(Json::as_arr)
                .ok_or("workload without rows")?
                .iter()
                .map(Row::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// The `workloads` array of a result file.
pub fn parse_results(text: &str) -> Result<Vec<WorkloadResult>, String> {
    Json::parse(text)?
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("result file without a \"workloads\" array")?
        .iter()
        .map(WorkloadResult::from_json)
        .collect()
}

/// Compare run `a` with run `b`. Returns the printed comparison and the
/// number of disagreements.
pub fn compare(spec: &Spec, a: &[WorkloadResult], b: &[WorkloadResult]) -> (String, usize) {
    let mut out = String::new();
    let mut bad = 0;
    let mut fail = |out: &mut String, msg: String| {
        bad += 1;
        let _ = writeln!(out, "FAIL  {msg}");
    };
    for wa in a {
        let Some(wb) = b.iter().find(|w| w.name == wa.name) else {
            fail(
                &mut out,
                format!("{}: missing from the second run", wa.name),
            );
            continue;
        };
        for (run, w) in [("first", wa), ("second", wb)] {
            if !w.correct || w.failed > 0 {
                fail(
                    &mut out,
                    format!("{}: {run} run is not clean ({} failed)", w.name, w.failed),
                );
            }
        }
        for ra in &wa.rows {
            let id = format!("{} {}", wa.name, ra.name);
            let (Some(x), Some(y)) = (
                ra.value,
                wb.rows
                    .iter()
                    .find(|r| r.name == ra.name)
                    .and_then(|r| r.value),
            ) else {
                fail(&mut out, format!("{id}: not available in both runs"));
                continue;
            };
            let rel = if x == y {
                0.0
            } else {
                (x - y).abs() / x.abs().min(y.abs())
            };
            let bound = spec
                .end_to_end
                .iter()
                .find(|m| m.name == ra.name)
                .and_then(|m| m.bound);
            let line = format!(
                "{id}: {} vs {} {} ({:.2}% apart)",
                fmt_value(x),
                fmt_value(y),
                ra.unit,
                rel * 100.0
            );
            if ra.exact {
                if x == y {
                    let _ = writeln!(out, "same  {line}");
                } else {
                    fail(&mut out, format!("{line}, must be identical"));
                }
            } else if let Some(bound) = bound {
                if rel <= bound {
                    let _ = writeln!(out, "ok    {line}, bound {:.1}%", bound * 100.0);
                } else {
                    fail(&mut out, format!("{line}, bound {:.1}%", bound * 100.0));
                }
            } else {
                let _ = writeln!(out, "info  {line}");
            }
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::parse(
            r#"{"run_seconds": 10, "per_layer": [],
                "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.05}]}"#,
        )
        .unwrap()
    }

    fn result(wall: f64, completed: f64) -> Vec<WorkloadResult> {
        vec![WorkloadResult {
            name: "serve_flood".into(),
            correct: true,
            attempted: 9,
            failed: 0,
            rows: vec![
                Row::new("wall_s", wall, "s", 6),
                Row::new("service.completed", completed, "count", 1).exact(),
                Row::new("service.pump_s", wall / 2.0, "s", 1),
            ],
        }]
    }

    #[test]
    fn agreeing_runs_pass_and_result_files_round_trip() {
        let a = result(1.90, 82.0);
        let text = Json::obj([(
            "workloads",
            Json::Arr(a.iter().map(WorkloadResult::to_json).collect()),
        )])
        .render();
        assert_eq!(parse_results(&text).unwrap(), a);
        let (out, bad) = compare(&spec(), &a, &result(1.95, 82.0));
        assert_eq!(bad, 0, "{out}");
        assert!(
            out.contains("ok    serve_flood wall_s")
                && out.contains("same  serve_flood service.completed")
        );
        assert!(
            out.contains("info  serve_flood service.pump_s"),
            "ungated timings are shown, not judged"
        );
    }

    #[test]
    fn a_timing_beyond_its_bound_or_a_moved_count_fails() {
        let (out, bad) = compare(&spec(), &result(1.90, 82.0), &result(2.10, 82.0));
        assert_eq!(bad, 1, "{out}");
        let (out, bad) = compare(&spec(), &result(1.90, 82.0), &result(1.90, 83.0));
        assert_eq!(bad, 1, "{out}");
        assert!(out.contains("must be identical"));
    }

    #[test]
    fn missing_workloads_rows_and_unclean_runs_fail() {
        let a = result(1.9, 82.0);
        assert_eq!(compare(&spec(), &a, &[]).1, 1);
        let mut b = result(1.9, 82.0);
        b[0].rows.pop();
        b[0].failed = 1;
        let (out, bad) = compare(&spec(), &a, &b);
        assert_eq!(bad, 2, "{out}");
    }
}
