//! The benchmark's own wall-clock span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer (nothing inside the measured program is instrumented), kept
//! in memory and written out once at the end. The replay is one thread,
//! so spans nest strictly: a span's parent is whatever was open when it
//! began, and its *self time* is its duration minus its direct children.
//!
//! Span names are `layer.what`; the layer is the part before the first
//! dot, so per-layer self time needs no second table.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded span. Times are seconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.what`.
    pub name: &'static str,
    /// Start, seconds since the recorder's origin.
    pub start: f64,
    /// End; `None` while the span is open.
    pub end: Option<f64>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Which unit of work (query, submission, table cell) it belongs to.
    pub inv: u32,
}

/// Handle returned by [`Recorder::begin`]; pass it back to
/// [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never ended fails the balance check"]
pub struct SpanToken(Option<usize>);

/// In-memory span log. A disabled recorder records nothing, so the same
/// replay code runs with tracing on and off and the difference between
/// the two runs is the tracing overhead.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    inv: u32,
}

impl Recorder {
    /// A recorder that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            inv: 0,
        }
    }

    /// Spans begun from now on belong to unit of work `inv`.
    pub fn set_invocation(&mut self, inv: u32) {
        self.inv = inv;
    }

    /// Open a span under the currently open one.
    pub fn begin(&mut self, name: &'static str) -> SpanToken {
        if !self.enabled {
            return SpanToken(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: None,
            parent: self.open.last().copied(),
            inv: self.inv,
        });
        self.open.push(id);
        SpanToken(Some(id))
    }

    /// Close the span `token` names.
    ///
    /// # Panics
    /// Panics if it is not the innermost open span: that is a bug in the
    /// replay code, and every self time after it would be wrong.
    pub fn end(&mut self, token: SpanToken) {
        let Some(id) = token.0 else { return };
        let at = self.origin.elapsed().as_secs_f64();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "span {} ended out of order",
            self.spans[id].name
        );
        self.spans[id].end = Some(at);
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let token = self.begin(name);
        let out = f();
        self.end(token);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Check that every span is closed, ends no earlier than it starts, and
/// lies inside its parent. Returns the first violation.
pub fn check_balanced(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        let end = s
            .end
            .ok_or_else(|| format!("span #{i} {} never ended", s.name))?;
        if end < s.start {
            return Err(format!("span #{i} {} ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans.get(p).filter(|_| p < i).ok_or_else(|| {
                format!(
                    "span #{i} {} names parent #{p}, which does not precede it",
                    s.name
                )
            })?;
            let inside = parent.start <= s.start && parent.end.is_some_and(|pe| end <= pe);
            if !inside {
                return Err(format!(
                    "span #{i} {} leaves its parent {}",
                    s.name, parent.name
                ));
            }
        }
    }
    Ok(())
}

/// Duration of a closed span (0 for an open one).
fn duration(s: &Span) -> f64 {
    s.end.map_or(0.0, |e| e - s.start)
}

/// Self time per span: duration minus the durations of direct children.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= duration(s);
        }
    }
    own
}

/// Self time summed per layer (the span name up to its first dot).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *by_layer.entry(layer).or_insert(0.0) += own;
    }
    by_layer
}

/// Total duration and count of the spans called `name`.
pub fn total_of(spans: &[Span], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, n), s| (t + duration(s), n + 1))
}

/// Summed duration of the top-level spans (those without a parent).
pub fn top_level_total(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(duration)
        .sum()
}

/// The span log as a Chrome `trace_event` document (open it in
/// `chrome://tracing` or Perfetto): one complete (`"X"`) event per span,
/// microsecond timestamps, with the parent index and invocation id in
/// `args`.
pub fn to_chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start * 1e6)),
                ("dur", Json::Num(duration(s) * 1e6)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("inv", Json::Num(f64::from(s.inv))),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end: Some(end),
            parent,
            inv: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..10
        //   a 1..4   (child a1 2..3)
        //   b 5..9   (sibling of a)
        let spans = vec![
            span("core.root", 0.0, 10.0, None),
            span("exec.a", 1.0, 4.0, Some(0)),
            span("exec.a1", 2.0, 3.0, Some(1)),
            span("cluster.b", 5.0, 9.0, Some(0)),
        ];
        check_balanced(&spans).unwrap();
        // root: 10 - (3 + 4); a: 3 - 1; a1: 1; b: 4. The grandchild is
        // subtracted from its parent only, never from the root again.
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 1.0, 4.0]);
        let by = self_time_by_layer(&spans);
        assert_eq!(by["core"], 3.0);
        assert_eq!(by["exec"], 3.0);
        assert_eq!(by["cluster"], 4.0);
        // Self times partition the top-level time exactly.
        assert_eq!(by.values().sum::<f64>(), top_level_total(&spans));
        assert_eq!(total_of(&spans, "exec.a"), (3.0, 1));
        assert_eq!(total_of(&spans, "nope"), (0.0, 0));
    }

    #[test]
    fn recorder_nests_by_open_span_and_tags_invocations() {
        let mut r = Recorder::new(true);
        r.set_invocation(7);
        let outer = r.begin("service.submit");
        let got = r.time("core.run", || 42);
        assert_eq!(got, 42);
        r.end(outer);
        r.set_invocation(8);
        r.time("obs.export", || ());
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!((spans[0].inv, spans[2].inv), (7, 8));
        check_balanced(spans).unwrap();
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let t = r.begin("x.y");
        assert_eq!(r.time("x.z", || 1), 1);
        r.end(t);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn balance_check_names_the_violation() {
        let open = vec![Span {
            name: "a.b",
            start: 0.0,
            end: None,
            parent: None,
            inv: 0,
        }];
        assert!(check_balanced(&open).unwrap_err().contains("never ended"));
        let escapes = vec![span("a.p", 0.0, 1.0, None), span("a.c", 0.5, 2.0, Some(0))];
        assert!(check_balanced(&escapes)
            .unwrap_err()
            .contains("leaves its parent"));
        let forward = vec![span("a.c", 0.0, 1.0, Some(1)), span("a.p", 0.0, 1.0, None)];
        assert!(check_balanced(&forward)
            .unwrap_err()
            .contains("does not precede"));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn ending_a_non_innermost_span_panics() {
        let mut r = Recorder::new(true);
        let a = r.begin("x.a");
        let _b = r.begin("x.b");
        r.end(a);
    }

    #[test]
    fn chrome_export_is_parseable_and_complete() {
        let spans = vec![
            span("tpch.generate", 0.0, 0.5, None),
            span("exec.run", 0.1, 0.2, Some(0)),
        ];
        let doc = Json::parse(&to_chrome_trace(&spans).render()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").and_then(Json::as_str), Some("exec"));
        assert_eq!(events[1].get("ts").and_then(Json::as_f64), Some(100_000.0));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            events[0].get("args").unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
