//! `dyno-storage` probe.
//!
//! Binds: `Dfs::{new, write_file, file}`, `DfsFile::{records, scale,
//! splits, split_records}`.

use dyno_benchmark::report::Row;
use dyno_storage::Dfs;

use super::Ctx;
use crate::measure::{time_batched, time_calls, timing_row};

pub const METRICS: &[(&str, &str)] = &[
    ("storage.write_ns_per_row", "ns"),
    ("storage.splits_us", "us"),
];

/// Lineitem records per written file.
const RECORDS: usize = 50_000;

pub fn run(ctx: &mut Ctx) -> Vec<Row> {
    let file = ctx
        .rows_env()
        .dfs
        .file("lineitem")
        .expect("lineitem exists");
    let records = &file.records()[..RECORDS.min(file.records().len())];
    let n = records.len() as f64;

    let write = time_batched(
        5,
        || (Dfs::new(), records.to_vec()),
        |(dfs, recs)| {
            dfs.write_file("probe", recs, file.scale())
                .expect("fresh dfs")
                .actual_records()
        },
    );
    let splits = time_calls(20, || {
        file.splits()
            .iter()
            .map(|s| file.split_records(s).len())
            .sum::<usize>()
    });
    vec![
        timing_row(
            "storage.write_ns_per_row",
            "ns",
            1e9,
            n,
            &write,
            &format!("Dfs::write_file of {n} lineitem records"),
        ),
        timing_row(
            "storage.splits_us",
            "us",
            1e6,
            1.0,
            &splits,
            &format!(
                "splits() + split_records over lineitem, {} splits",
                file.splits().len()
            ),
        ),
    ]
}
