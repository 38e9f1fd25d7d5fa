//! `dyno-stats` probe.
//!
//! Binds: `KmvSynopsis::{new, insert, merge, estimate}`,
//! `TableStatsBuilder::{new, observe, finish}`, `AttrSpec::field`,
//! `Metastore::{new, put, get}`.

use dyno_benchmark::report::Row;
use dyno_data::Value;
use dyno_stats::{AttrSpec, KmvSynopsis, Metastore, TableStatsBuilder};

use super::Ctx;
use crate::measure::{time_batched, time_calls, timing_row};

pub const METRICS: &[(&str, &str)] = &[
    ("stats.kmv_insert_ns", "ns"),
    ("stats.kmv_merge_us", "us"),
    ("stats.collect_ns_per_row", "ns"),
    ("stats.metastore_get_ns", "ns"),
];

const KMV_VALUES: i64 = 10_000;
const RECORDS: usize = 50_000;
const SIGNATURES: usize = 64;
const GETS: usize = 10_000;

pub fn run(ctx: &mut Ctx) -> Vec<Row> {
    let values: Vec<Value> = (0..KMV_VALUES).map(Value::Long).collect();
    let insert = time_batched(
        20,
        || KmvSynopsis::new(1024),
        |mut s| {
            for v in &values {
                s.insert(v);
            }
            s.estimate()
        },
    );
    let mut a = KmvSynopsis::new(1024);
    let mut b = KmvSynopsis::new(1024);
    for (i, v) in values.iter().enumerate() {
        if i % 2 == 0 {
            a.insert(v)
        } else {
            b.insert(v)
        }
    }
    let merge = time_batched(
        100,
        || a.clone(),
        |mut x| {
            x.merge(&b);
            x.estimate()
        },
    );

    let file = ctx
        .rows_env()
        .dfs
        .file("lineitem")
        .expect("lineitem exists");
    let records = &file.records()[..RECORDS.min(file.records().len())];
    let attrs = || {
        ["l_orderkey", "l_partkey", "l_suppkey"]
            .map(AttrSpec::field)
            .to_vec()
    };
    let collect = time_calls(5, || {
        let mut builder = TableStatsBuilder::new(attrs());
        for r in records {
            builder.observe(r);
        }
        builder.finish(None).rows
    });

    let store = Metastore::new();
    let stats = {
        let mut builder = TableStatsBuilder::new(attrs());
        records.iter().take(1024).for_each(|r| builder.observe(r));
        builder.finish(None)
    };
    let sigs: Vec<String> = (0..SIGNATURES)
        .map(|i| format!("scan(table{i})|pred{i}"))
        .collect();
    for s in &sigs {
        store.put(s.clone(), stats.clone());
    }
    let get = time_calls(20, || {
        (0..GETS)
            .filter(|i| store.get(&sigs[i % SIGNATURES]).is_some())
            .count()
    });

    vec![
        timing_row(
            "stats.kmv_insert_ns",
            "ns",
            1e9,
            KMV_VALUES as f64,
            &insert,
            "10k distinct longs into k=1024",
        ),
        timing_row(
            "stats.kmv_merge_us",
            "us",
            1e6,
            1.0,
            &merge,
            "merge of two full k=1024 synopses",
        ),
        timing_row(
            "stats.collect_ns_per_row",
            "ns",
            1e9,
            records.len() as f64,
            &collect,
            "TableStatsBuilder::observe, 3 join attributes, lineitem",
        ),
        timing_row(
            "stats.metastore_get_ns",
            "ns",
            1e9,
            GETS as f64,
            &get,
            "hits over 64 signatures (clones the TableStats)",
        ),
    ]
}
