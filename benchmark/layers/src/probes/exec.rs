//! `dyno-exec` probe, on the SF100/divisor-2000 world.
//!
//! Binds: `Executor::{new, run_dag, run_group_by}`, `JobDag::compile`;
//! plans are built with `PhysNode::{join, Leaf}` / `JoinMethod`, blocks
//! with `JoinBlock::{compile, leaf_of_alias}`; jobs run on
//! `Cluster::new(ClusterConfig::paper())`.

use dyno_benchmark::report::Row;
use dyno_cluster::{Cluster, ClusterConfig, Coord};
use dyno_exec::{Executor, JobDag};
use dyno_query::{AggFn, GroupBySpec, JoinBlock, JoinMethod, PhysNode};
use dyno_tpch::catalog_for;
use dyno_tpch::queries::{self, PreparedQuery, QueryId};

use super::Ctx;
use crate::alloc;
use crate::measure::{time_calls, timing_row};

pub const METRICS: &[(&str, &str)] = &[
    ("exec.repartition_ns_per_row", "ns"),
    ("exec.broadcast_ns_per_row", "ns"),
    ("exec.leaf_scan_ns_per_row", "ns"),
    ("exec.group_by_ns_per_row", "ns"),
    ("exec.allocs_per_row", "count"),
];

const CALLS: usize = 2;

pub fn run(ctx: &mut Ctx) -> Vec<Row> {
    let env = ctx.rows_env();
    let rows_of = |t: &str| env.table_rows(t) as f64;
    let block_of =
        |q: &PreparedQuery| JoinBlock::compile(&q.spec, &catalog_for(&q.spec)).expect("compiles");
    // One DAG run on a fresh paper cluster; returns the output row count.
    let run_plan = |exec: &Executor, block: &JoinBlock, plan: &PhysNode| {
        let dag = JobDag::compile(block, plan);
        let mut cluster = Cluster::new(ClusterConfig::paper());
        exec.run_dag(&mut cluster, block, &dag, false, false)
            .expect("probe plan runs")
            .rows
    };
    let leaf = |block: &JoinBlock, alias: &str| {
        PhysNode::Leaf(block.leaf_of_alias(alias).expect("alias in block"))
    };

    // orders ⋈r lineitem (Q10's block: date range on orders, returnflag
    // on lineitem).
    let q10 = queries::prepare(QueryId::Q10);
    let b10 = block_of(&q10);
    let exec10 = Executor::new(env.dfs.clone(), Coord::new(), q10.udfs.clone());
    let repart_plan = PhysNode::join(
        JoinMethod::Repartition,
        leaf(&b10, "orders"),
        leaf(&b10, "lineitem"),
    );
    let before = alloc::snapshot();
    let repart_out = run_plan(&exec10, &b10, &repart_plan);
    let repart_allocs = alloc::snapshot().calls_since(&before);
    let repart = time_calls(CALLS, || run_plan(&exec10, &b10, &repart_plan));
    let repart_rows = rows_of("orders") + rows_of("lineitem");

    // lineitem ⋈b supplier and a single-leaf UDF scan (Q9': no local
    // predicate on either join input; `udf_o` on orders).
    let q9 = queries::prepare(QueryId::Q9Prime);
    let b9 = block_of(&q9);
    let exec9 = Executor::new(env.dfs.clone(), Coord::new(), q9.udfs.clone());
    let bcast_plan = PhysNode::join(
        JoinMethod::Broadcast,
        leaf(&b9, "lineitem"),
        leaf(&b9, "supplier"),
    );
    let bcast = time_calls(CALLS, || run_plan(&exec9, &b9, &bcast_plan));
    let scan_plan = leaf(&b9, "orders");
    let scan = time_calls(CALLS, || run_plan(&exec9, &b9, &scan_plan));

    let group = GroupBySpec {
        keys: vec![
            "l_returnflag".parse().expect("path"),
            "l_linestatus".parse().expect("path"),
        ],
        aggs: vec![(
            "revenue".to_owned(),
            AggFn::Sum,
            "l_extendedprice".parse().expect("path"),
        )],
    };
    let group_by = time_calls(CALLS, || {
        let mut cluster = Cluster::new(ClusterConfig::paper());
        exec10
            .run_group_by(&mut cluster, "lineitem", &group)
            .expect("group-by runs")
            .0
            .len()
    });

    vec![
        timing_row(
            "exec.repartition_ns_per_row",
            "ns",
            1e9,
            repart_rows,
            &repart,
            &format!(
                "orders JOINr lineitem (Q10 block), {repart_rows} input rows, {repart_out} out"
            ),
        ),
        timing_row(
            "exec.broadcast_ns_per_row",
            "ns",
            1e9,
            rows_of("lineitem") + rows_of("supplier"),
            &bcast,
            "lineitem JOINb supplier (Q9' block), per input row",
        ),
        timing_row(
            "exec.leaf_scan_ns_per_row",
            "ns",
            1e9,
            rows_of("orders"),
            &scan,
            "orders scan with udf_o (Q9' block)",
        ),
        timing_row(
            "exec.group_by_ns_per_row",
            "ns",
            1e9,
            rows_of("lineitem"),
            &group_by,
            "run_group_by over lineitem: 2 keys, SUM",
        ),
        Row::new(
            "exec.allocs_per_row",
            repart_allocs as f64 / repart_rows,
            "count",
            1,
        )
        .detail(format!(
            "{repart_allocs} allocator calls in the repartition join"
        )),
    ]
}
