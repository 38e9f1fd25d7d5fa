//! `dyno-tpch` probe.
//!
//! Binds: `TpchGenerator::{new, generate}`, `TpchEnv::table_rows`,
//! `SimScale::divisor`, and `Drop` of `TpchEnv`.

use dyno_benchmark::report::Row;
use dyno_tpch::{SimScale, TpchEnv, TpchGenerator};

use super::{Ctx, ROWS_DIVISOR, ROWS_SF};
use crate::alloc;
use crate::measure::time_once;

pub const METRICS: &[(&str, &str)] = &[
    ("tpch.gen_rows_per_s", "1/s"),
    ("tpch.drop_ns_per_row", "ns"),
    ("tpch.allocs_per_row", "count"),
    ("tpch.resident_bytes_per_row", "B"),
];

const TABLES: [&str; 8] = [
    "lineitem", "orders", "partsupp", "part", "customer", "supplier", "nation", "region",
];

/// Physical records in the generated world.
pub fn total_rows(env: &TpchEnv) -> u64 {
    TABLES.iter().map(|t| env.table_rows(t)).sum()
}

pub fn run(ctx: &mut Ctx) -> Vec<Row> {
    let generate = || TpchGenerator::new(ROWS_SF, SimScale::divisor(ROWS_DIVISOR)).generate();

    // First world: generated and dropped, both timed. Second world:
    // generated (timed) and kept for the probes that follow.
    let before = alloc::snapshot();
    let (gen1, env) = time_once(generate);
    let after = alloc::snapshot();
    let rows = total_rows(&env) as f64;
    let (drop_s, ()) = time_once(move || drop(env));
    let (gen2, env) = time_once(generate);
    ctx.rows_env = Some(env);

    let gen_s = gen1.min(gen2);
    vec![
        Row::new("tpch.gen_rows_per_s", rows / gen_s, "1/s", 2)
            .detail(format!("{rows} records, SF{ROWS_SF} divisor {ROWS_DIVISOR}; faster of {gen1:.3} s and {gen2:.3} s")),
        Row::new("tpch.drop_ns_per_row", drop_s * 1e9 / rows, "ns", 1).detail(format!("drop(env) {drop_s:.3} s")),
        Row::new("tpch.allocs_per_row", after.calls_since(&before) as f64 / rows, "count", 1)
            .detail(format!("{} allocator calls in generate()", after.calls_since(&before))),
        Row::new("tpch.resident_bytes_per_row", after.live_growth_since(&before) as f64 / rows, "B", 1)
            .detail(format!("{:.1} MB live after generate()", after.live_growth_since(&before) as f64 / 1e6)),
    ]
}
