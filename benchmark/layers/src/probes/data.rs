//! `dyno-data` probe.
//!
//! Binds: `encode_value`, `decode_value`.

use dyno_benchmark::report::Row;
use dyno_data::{decode_value, encode_value};

use super::Ctx;
use crate::measure::{time_calls, timing_row};

pub const METRICS: &[(&str, &str)] = &[
    ("data.encode_ns_per_value", "ns"),
    ("data.decode_ns_per_value", "ns"),
];

/// Lineitem records per timed call.
const RECORDS: usize = 50_000;

pub fn run(ctx: &mut Ctx) -> Vec<Row> {
    let file = ctx
        .rows_env()
        .dfs
        .file("lineitem")
        .expect("lineitem exists");
    let records = &file.records()[..RECORDS.min(file.records().len())];
    let n = records.len() as f64;

    let mut buf = Vec::new();
    let encode = time_calls(5, || {
        buf.clear();
        for r in records {
            encode_value(r, &mut buf);
        }
        buf.len()
    });
    let decode = time_calls(5, || {
        let mut rest = buf.as_slice();
        let mut decoded = 0usize;
        while !rest.is_empty() {
            decode_value(&mut rest).expect("just encoded");
            decoded += 1;
        }
        assert_eq!(decoded, records.len(), "decode must return every record");
        decoded
    });
    let what = format!("one value = one lineitem record, {n} per call");
    vec![
        timing_row("data.encode_ns_per_value", "ns", 1e9, n, &encode, &what),
        timing_row("data.decode_ns_per_value", "ns", 1e9, n, &decode, &what),
    ]
}
