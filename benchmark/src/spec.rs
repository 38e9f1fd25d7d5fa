//! `BENCHMARK.json`, read back: which metrics the result line must hold
//! and the bound each end-to-end metric may worsen by.
//!
//! The file at the repo root is the single list of gated metrics; the
//! driver emits exactly what it names, so the two cannot drift apart.

use crate::json::Json;

/// One metric entry of `end_to_end` or `per_layer`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit the value must be reported in.
    pub unit: String,
    /// `"better": "higher"`.
    pub higher_is_better: bool,
    /// Share of the parent's median it may worsen by (`end_to_end` only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the driver uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Default measuring time of one run.
    pub run_seconds: f64,
    /// Metrics of a `--trace 0` run.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of a `--trace 1` run.
    pub per_layer: Vec<MetricSpec>,
}

fn metric_list(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("no {key:?} array"))?;
    items
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{key} entry without {k:?}"))
            };
            let higher_is_better = match text("better")? {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("{key}: \"better\" is {other:?}")),
            };
            Ok(MetricSpec {
                name: text("name")?.to_owned(),
                unit: text("unit")?.to_owned(),
                higher_is_better,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parse the text of `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no \"run_seconds\"")?,
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2e::Run;
    use crate::workload::WORKLOADS;

    fn committed() -> Spec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Spec::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn committed_file_meets_the_contracts_limits() {
        let spec = committed();
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        for m in &spec.end_to_end {
            assert!(
                m.bound.is_some_and(|b| (0.0..=0.25).contains(&b)),
                "{}",
                m.name
            );
        }
        for n in &names {
            let ok = n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(ok, "bad metric name {n:?}");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let ok = !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
            assert!(ok, "bad unit {:?} on {}", m.unit, m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
    }

    #[test]
    fn every_listed_end_to_end_metric_is_one_the_driver_reports_in_that_unit() {
        use crate::child::Usage;
        use crate::e2e::Sample;
        use crate::pinned::PinnedValue;
        let s = Sample {
            wall_s: 1.0,
            usage: Usage {
                user_s: 0.9,
                sys_s: 0.1,
                max_rss_kb: 2048,
                minor_faults: 0,
            },
            failure: None,
            pinned: Some(PinnedValue::Present),
        };
        let run = Run {
            setup: vec![s.clone()],
            timed: vec![s],
        };
        let rows = run.rows(&WORKLOADS[0]).unwrap();
        let (_, problems) = crate::report::result_line(&committed().end_to_end, &rows, true, 2, 0);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn malformed_specs_are_errors() {
        assert!(Spec::parse("{}").is_err());
        assert!(Spec::parse(
            r#"{"run_seconds": 10, "end_to_end": [{"name": "x"}], "per_layer": []}"#
        )
        .is_err());
        let bad_dir = r#"{"run_seconds": 10, "end_to_end": [{"name": "x", "unit": "s", "better": "faster"}], "per_layer": []}"#;
        assert!(Spec::parse(bad_dir).unwrap_err().contains("faster"));
    }
}
