//! `dyno-query` probe. Expected below 1 % of any workload — listed so
//! nobody optimises it blind.
//!
//! Binds: `parse_sql`, `JoinBlock::compile`; from `dyno-tpch`,
//! `queries::prepare` and `catalog_for` for the Q8′ spec.

use dyno_benchmark::report::Row;
use dyno_query::{parse_sql, JoinBlock};
use dyno_tpch::catalog_for;
use dyno_tpch::queries::{self, QueryId};

use super::Ctx;
use crate::measure::{time_calls, timing_row};

pub const METRICS: &[(&str, &str)] = &[
    ("query.parse_sql_us", "us"),
    ("query.compile_block_us", "us"),
];

/// Q8′'s join block in the SQL dialect `parse_sql` accepts.
const Q8_SQL: &str = "SELECT n2_name, SUM(l_extendedprice) AS volume \
    FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, region \
    WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey AND l_orderkey = o_orderkey \
      AND o_custkey = c_custkey AND c_nationkey = n1_nationkey AND n1_regionkey = r_regionkey \
      AND s_nationkey = n2_nationkey AND r_name = 'AMERICA' AND p_type = 'ECONOMY ANODIZED STEEL' \
      AND o_orderdate >= 19950101 AND o_orderdate <= 19961231 \
      AND o_orderpriority = '1-URGENT' AND o_shippriority = 0 AND udf_oc(o_orderkey, c_custkey) \
    GROUP BY n2_name ORDER BY volume DESC LIMIT 10";

pub fn run(_ctx: &mut Ctx) -> Vec<Row> {
    let parse = time_calls(200, || {
        let spec = parse_sql(Q8_SQL).expect("the probe's SQL parses");
        assert_eq!(spec.relations.len(), 8);
        spec.predicates.len()
    });
    let q8 = queries::prepare(QueryId::Q8Prime);
    let catalog = catalog_for(&q8.spec);
    let compile = time_calls(200, || {
        JoinBlock::compile(&q8.spec, &catalog)
            .expect("Q8' compiles")
            .num_leaves()
    });
    vec![
        timing_row(
            "query.parse_sql_us",
            "us",
            1e6,
            1.0,
            &parse,
            "8-relation Q8' text",
        ),
        timing_row(
            "query.compile_block_us",
            "us",
            1e6,
            1.0,
            &compile,
            "JoinBlock::compile of Q8' (8 leaves)",
        ),
    ]
}
