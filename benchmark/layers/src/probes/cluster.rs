//! `dyno-cluster` probe.
//!
//! Binds: `Cluster::{new, submit_job, run_until_done, step, set_obs}`,
//! `ClusterConfig::paper` (+ its `nodes` field), `JobProfile`,
//! `TaskProfile`. Never the `run_job(s)` shims, which are on their way out.

use dyno_benchmark::report::Row;
use dyno_cluster::{Cluster, ClusterConfig, JobProfile, TaskProfile};
use dyno_obs::Obs;

use super::Ctx;
use crate::measure::{time_batched, timing_row};

pub const METRICS: &[(&str, &str)] = &[
    ("cluster.tasks_per_s_14n", "1/s"),
    ("cluster.tasks_per_s_1000n", "1/s"),
    ("cluster.step_ns", "ns"),
    ("cluster.steps", "count"),
    ("cluster.obs_cost_ratio", "ratio"),
];

const MAPS: usize = 1000;
const REDUCES: usize = 64;

fn job() -> JobProfile {
    let task = |input_bytes| TaskProfile {
        input_bytes,
        ..TaskProfile::default()
    };
    JobProfile {
        name: "load".into(),
        map_tasks: (0..MAPS).map(|_| task(128 << 20)).collect(),
        reduce_tasks: (0..REDUCES).map(|_| task(64 << 20)).collect(),
        shuffle_bytes: 1 << 33,
        build_bytes: 0,
    }
}

fn cluster(nodes: usize, obs: &Obs) -> Cluster {
    let mut c = Cluster::new(ClusterConfig {
        nodes,
        ..ClusterConfig::paper()
    });
    if obs.is_enabled() {
        c.set_obs(
            obs.tracer.clone(),
            obs.metrics.clone(),
            obs.timeline.clone(),
        );
    }
    c
}

/// Submit `jobs` jobs, then run them to completion.
fn run_jobs(mut c: Cluster, jobs: usize) -> f64 {
    let handles: Vec<_> = (0..jobs).map(|_| c.submit_job(job())).collect();
    c.run_until_done(&handles);
    c.now()
}

pub fn run(_ctx: &mut Ctx) -> Vec<Row> {
    let off = Obs::disabled();
    let tasks = |jobs: usize| (jobs * (MAPS + REDUCES)) as f64;
    let small = time_batched(10, || cluster(14, &off), |c| run_jobs(c, 4));
    let big = time_batched(3, || cluster(1000, &off), |c| run_jobs(c, 100));
    let big_obs = time_batched(3, || cluster(1000, &Obs::enabled()), |c| run_jobs(c, 100));

    // The same 14-node load driven one event at a time.
    let mut steps = 0u64;
    let step = time_batched(
        10,
        || {
            let mut c = cluster(14, &off);
            for _ in 0..4 {
                c.submit_job(job());
            }
            c
        },
        |mut c| {
            steps = 0;
            while c.step() {
                steps += 1;
            }
            steps
        },
    );

    let med = dyno_benchmark::stats::median;
    vec![
        Row::new(
            "cluster.tasks_per_s_14n",
            tasks(4) / med(&small),
            "1/s",
            small.len(),
        )
        .detail(format!(
            "4 jobs x ({MAPS} map + {REDUCES} reduce) on ClusterConfig::paper(), {:.2} ms",
            med(&small) * 1e3
        )),
        Row::new(
            "cluster.tasks_per_s_1000n",
            tasks(100) / med(&big),
            "1/s",
            big.len(),
        )
        .detail(format!(
            "100 such jobs at nodes: 1000, {:.1} ms",
            med(&big) * 1e3
        )),
        timing_row(
            "cluster.step_ns",
            "ns",
            1e9,
            steps.max(1) as f64,
            &step,
            "Cluster::step on the 14-node load",
        ),
        Row::new("cluster.steps", steps as f64, "count", 1)
            .exact()
            .detail("events to drain 4 jobs on 14 nodes".into()),
        Row::new(
            "cluster.obs_cost_ratio",
            med(&big_obs) / med(&big),
            "ratio",
            big_obs.len(),
        )
        .detail("the 1000-node run with set_obs(enabled) / without".into()),
    ]
}
