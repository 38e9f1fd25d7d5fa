//! `dyno-optimizer` probe.
//!
//! Binds: `Optimizer::{new, optimize, optimize_with_memo}`, `Memo::new`
//! (+ `Clone`), `PlanCache::{new, insert, get}`, `CachedPlan`; pilot
//! statistics come from `dyno_core::pilot::run_pilots`.

use std::collections::BTreeSet;

use dyno_benchmark::report::Row;
use dyno_cluster::{Cluster, ClusterConfig, Coord};
use dyno_core::pilot::{run_pilots, PilotConfig};
use dyno_exec::Executor;
use dyno_optimizer::{CachedPlan, Memo, Optimizer, PlanCache};
use dyno_query::JoinBlock;
use dyno_tpch::queries::{self, QueryId};
use dyno_tpch::{catalog_for, SimScale, TpchGenerator};

use super::Ctx;
use crate::measure::{time_batched, time_calls, timing_row};

pub const METRICS: &[(&str, &str)] = &[
    ("optimizer.cold_q8_ms", "ms"),
    ("optimizer.memo_reuse_q8_ms", "ms"),
    ("optimizer.plan_cache_get_ns", "ns"),
];

const CACHE_KEYS: usize = 64;
const CACHE_GETS: usize = 10_000;

pub fn run(_ctx: &mut Ctx) -> Vec<Row> {
    // The 8-way Q8' block with the statistics its pilot runs produce at
    // SF100 — what the `reopt` workload optimizes thirty times.
    let env = TpchGenerator::new(100, SimScale::divisor(50_000)).generate();
    let q8 = queries::prepare(QueryId::Q8Prime);
    let block = JoinBlock::compile(&q8.spec, &catalog_for(&q8.spec)).expect("Q8' compiles");
    let exec = Executor::new(env.dfs, Coord::new(), q8.udfs);
    let mut cluster = Cluster::new(ClusterConfig::paper());
    let stats = run_pilots(&exec, &mut cluster, &block, &PilotConfig::default())
        .expect("pilots run")
        .stats;
    let opt = Optimizer::new();

    let cold = time_calls(20, || opt.optimize(&block, &stats).expect("optimizes").cost);

    // A memo filled by one full search; then one leaf's statistics move
    // (lineitem, as after a re-optimization point) and only the groups
    // containing it are re-costed.
    let all: BTreeSet<usize> = (0..block.num_leaves()).collect();
    let mut warm = Memo::new();
    opt.optimize_with_memo(&block, &stats, &mut warm, &all)
        .expect("fills the memo");
    let moved = block.leaf_of_alias("lineitem").expect("lineitem leaf");
    let mut stats_moved = stats.clone();
    stats_moved[moved].rows *= 1.25;
    let dirty = BTreeSet::from([moved]);
    let reuse = time_batched(
        20,
        || warm.clone(),
        |mut memo| {
            opt.optimize_with_memo(&block, &stats_moved, &mut memo, &dirty)
                .expect("optimizes")
                .cost
        },
    );

    let cache = PlanCache::new();
    let plan = opt.optimize(&block, &stats).expect("optimizes");
    let keys: Vec<String> = (0..CACHE_KEYS)
        .map(|i| format!("{}#{i}", block.signature()))
        .collect();
    for k in &keys {
        cache.insert(
            k.clone(),
            CachedPlan {
                plan: plan.plan.clone(),
                cost: plan.cost,
                est_rows: plan.est_rows,
                est_bytes: plan.est_bytes,
                leaf_versions: Vec::new(),
            },
        );
    }
    let get = time_calls(20, || {
        (0..CACHE_GETS)
            .filter(|i| cache.get(&keys[i % CACHE_KEYS]).is_some())
            .count()
    });

    vec![
        timing_row(
            "optimizer.cold_q8_ms",
            "ms",
            1e3,
            1.0,
            &cold,
            &format!("{} expressions costed", plan.expressions),
        ),
        timing_row(
            "optimizer.memo_reuse_q8_ms",
            "ms",
            1e3,
            1.0,
            &reuse,
            "optimize_with_memo, lineitem dirty",
        ),
        timing_row(
            "optimizer.plan_cache_get_ns",
            "ns",
            1e9,
            CACHE_GETS as f64,
            &get,
            "hits over 64 keys (clones the plan)",
        ),
    ]
}
