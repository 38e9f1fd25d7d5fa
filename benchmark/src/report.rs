//! Metric rows: how a run prints, the one-line JSON result, and the
//! result file `check.sh` compares.

use std::fmt::Write as _;

use crate::json::Json;
use crate::spec::MetricSpec;

/// One metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name (`wall_s`, `exec.repartition_ns_per_row`, …).
    pub name: String,
    /// The measurement; `None` when it could not be taken.
    pub value: Option<f64>,
    /// Unit, always printed beside the value.
    pub unit: String,
    /// Samples behind the value.
    pub n: usize,
    /// Spread, breakdown or definition — free text for the table.
    pub detail: String,
    /// True for counts and ratios of counts that must repeat bit for bit
    /// between two runs of the same build.
    pub exact: bool,
    /// Why the value is unavailable (first error line).
    pub error: Option<String>,
}

impl Row {
    /// A measured row.
    pub fn new(name: impl Into<String>, value: f64, unit: &str, n: usize) -> Row {
        Row {
            name: name.into(),
            value: Some(value),
            unit: unit.to_owned(),
            n,
            detail: String::new(),
            exact: false,
            error: None,
        }
    }

    /// A row whose measurement failed; `error` is cut to its first line.
    pub fn unavailable(name: impl Into<String>, unit: &str, error: &str) -> Row {
        Row {
            name: name.into(),
            value: None,
            unit: unit.to_owned(),
            n: 0,
            detail: String::new(),
            exact: false,
            error: Some(error.lines().next().unwrap_or("unknown error").to_owned()),
        }
    }

    /// Set the detail column.
    pub fn detail(mut self, detail: String) -> Row {
        self.detail = detail;
        self
    }

    /// Mark as exactly repeatable.
    pub fn exact(mut self) -> Row {
        self.exact = true;
        self
    }

    /// For the result file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("value", self.value.map_or(Json::Null, Json::Num)),
            ("unit", Json::str(&self.unit)),
            ("n", Json::Num(self.n as f64)),
            ("detail", Json::str(&self.detail)),
            ("exact", Json::Bool(self.exact)),
            ("error", self.error.as_ref().map_or(Json::Null, Json::str)),
        ])
    }

    /// Inverse of [`Row::to_json`].
    pub fn from_json(j: &Json) -> Result<Row, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("row without {k:?}"));
        let text = |k: &str| match field(k)?.as_str() {
            Some(s) => Ok(s.to_owned()),
            None => Err(format!("row {k:?} is not a string")),
        };
        Ok(Row {
            name: text("name")?,
            value: field("value")?.as_f64(),
            unit: text("unit")?,
            n: field("n")?.as_f64().ok_or("row \"n\" is not a number")? as usize,
            detail: text("detail")?,
            exact: field("exact")?
                .as_bool()
                .ok_or("row \"exact\" is not a boolean")?,
            error: field("error")?.as_str().map(str::to_owned),
        })
    }
}

/// Value formatting for the table: whole numbers (counts) print whole,
/// everything else with enough digits to compare two runs by eye.
pub fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// The rows as an aligned text table: name, value, unit, n, detail.
pub fn table(rows: &[Row]) -> String {
    let shown: Vec<[String; 5]> = rows
        .iter()
        .map(|r| {
            let (value, detail) = match (&r.value, &r.error) {
                (Some(v), _) => (fmt_value(*v), r.detail.clone()),
                (None, e) => ("unavailable".to_owned(), e.clone().unwrap_or_default()),
            };
            [
                r.name.clone(),
                value,
                r.unit.clone(),
                r.n.to_string(),
                detail,
            ]
        })
        .collect();
    let width = |i: usize, head: &str| {
        shown
            .iter()
            .map(|r| r[i].len())
            .max()
            .unwrap_or(0)
            .max(head.len())
    };
    let heads = ["metric", "value", "unit", "n", "detail"];
    let w: Vec<usize> = heads.iter().enumerate().map(|(i, h)| width(i, h)).collect();
    let mut out = String::new();
    let mut line = |c: [&str; 5]| {
        let _ = writeln!(
            out,
            "  {:<w0$}  {:>w1$}  {:<w2$}  {:>w3$}  {}",
            c[0],
            c[1],
            c[2],
            c[3],
            c[4],
            w0 = w[0],
            w1 = w[1],
            w2 = w[2],
            w3 = w[3]
        );
    };
    line(heads);
    for r in &shown {
        line([&r[0], &r[1], &r[2], &r[3], &r[4]]);
    }
    out
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the last holding every metric `listed` in
/// `BENCHMARK.json` with its value and unit. A listed metric that has no
/// value is a problem: it is left out, named in the returned list, and
/// the result is marked incorrect.
pub fn result_line(
    listed: &[MetricSpec],
    rows: &[Row],
    correct: bool,
    attempted: usize,
    failed: usize,
) -> (Json, Vec<String>) {
    let mut problems = Vec::new();
    let mut metrics = Vec::new();
    for spec in listed {
        match rows.iter().find(|r| r.name == spec.name) {
            Some(Row {
                value: Some(v),
                unit,
                ..
            }) if v.is_finite() && *unit == spec.unit => metrics.push((
                spec.name.clone(),
                Json::obj([("value", Json::Num(*v)), ("unit", Json::str(unit))]),
            )),
            Some(Row {
                value: Some(_),
                unit,
                ..
            }) => problems.push(format!(
                "{}: measured in {unit:?}, listed in {:?}",
                spec.name, spec.unit
            )),
            Some(Row { error, .. }) => problems.push(format!(
                "{}: unavailable ({})",
                spec.name,
                error.as_deref().unwrap_or("no value")
            )),
            None => problems.push(format!("{}: not measured", spec.name)),
        }
    }
    let doc = Json::obj([
        ("correct", Json::Bool(correct && problems.is_empty())),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    (doc, problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, unit: &str) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            unit: unit.into(),
            higher_is_better: false,
            bound: Some(0.05),
        }
    }

    #[test]
    fn rows_round_trip_through_json() {
        let rows = [
            Row::new("wall_s", 1.51234, "s", 7).detail("q1 1.50 q3 1.53".into()),
            Row::new("service.completed", 82.0, "count", 1).exact(),
            Row::unavailable(
                "exec.allocs_per_row",
                "count",
                "probe panicked: boom\nbacktrace…",
            ),
        ];
        for r in &rows {
            let back = Row::from_json(&Json::parse(&r.to_json().render()).unwrap()).unwrap();
            assert_eq!(&back, r);
        }
        assert_eq!(
            rows[2].error.as_deref(),
            Some("probe panicked: boom"),
            "first line only"
        );
        assert!(Row::from_json(&Json::obj([("name", Json::str("x"))])).is_err());
    }

    #[test]
    fn table_prints_name_value_unit_and_n() {
        let t = table(&[
            Row::new("wall_s", 1.51234, "s", 7).detail("q1 1.5".into()),
            Row::new("obs.spans", 150398.0, "count", 1),
            Row::unavailable("core.pilot_ms", "ms", "no such function"),
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].contains("metric") && lines[0].contains("unit"));
        assert!(
            lines[1].contains("wall_s") && lines[1].contains("1.5123") && lines[1].contains(" s ")
        );
        assert!(lines[2].contains("150398") && !lines[2].contains("150398."));
        assert!(lines[3].contains("unavailable") && lines[3].contains("no such function"));
    }

    #[test]
    fn result_line_holds_exactly_the_listed_metrics() {
        let rows = [
            Row::new("wall_s", 1.5, "s", 7),
            Row::new("user_s", 1.4, "s", 7), // printed, not listed
            Row::new("setup_s", 1.6, "s", 3),
        ];
        let (doc, problems) = result_line(
            &[spec("wall_s", "s"), spec("setup_s", "s")],
            &rows,
            true,
            10,
            0,
        );
        assert!(problems.is_empty());
        // Exactly the four keys, exactly the two listed metrics.
        assert_eq!(
            doc.render(),
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"wall_s": {"value": 1.5, "unit": "s"}, "setup_s": {"value": 1.6, "unit": "s"}}}"#
        );
    }

    #[test]
    fn a_listed_metric_without_a_value_marks_the_result_incorrect() {
        let rows = [
            Row::unavailable("wall_s", "s", "boom"),
            Row::new("cpu_s", 1.0, "ms", 1),
        ];
        let (doc, problems) = result_line(
            &[
                spec("wall_s", "s"),
                spec("cpu_s", "s"),
                spec("peak_rss_mb", "MB"),
            ],
            &rows,
            true,
            4,
            0,
        );
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("metrics"), Some(&Json::Obj(Vec::new())));
    }
}
