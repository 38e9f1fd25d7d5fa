//! # dyno-benchmark
//!
//! The wall-clock and memory benchmark of the DYNO reproduction. This
//! crate is the end-to-end half: it depends on no `dyno-*` crate and
//! drives the release `repro` binary as a child process, because the CLI
//! lines `ci.sh` pins are the most stable surface the repo has. The
//! per-layer half (`layers/`) links the dyno crates and borrows the span
//! recorder, the statistics and the JSON code from here.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how they interact.

pub mod child;
pub mod cli;
pub mod compare;
pub mod e2e;
pub mod json;
pub mod pinned;
pub mod report;
pub mod span;
pub mod spec;
pub mod stats;
pub mod workload;
