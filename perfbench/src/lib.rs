//! End-to-end and per-layer benchmark of the KTAU reproduction.
//!
//! Each invocation runs one workload on one simulation thread, repeats it
//! for a fixed host time, checks its model outputs, and prints a host
//! record followed by one result line.  Untraced runs report the
//! end-to-end metrics; traced runs interleave untraced and traced
//! repetitions and report the per-layer metrics, the tracing overhead and
//! span self times.

#![warn(missing_docs)]

pub mod host;
pub mod layers;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use report::Report;
use std::path::Path;
use workloads::{fork16, ktaud_fleet, lu128, Opts, DEFAULT_SEED};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["lu128", "fork16", "ktaud_fleet"];

/// Runs workload `name` at the benchmark's size, checking against the
/// committed references when `opts.seed` is the default seed.  `None` for
/// an unknown workload.
pub fn run_bench(name: &str, opts: &Opts) -> Option<Report> {
    let committed = opts.seed == DEFAULT_SEED;
    Some(match name {
        "lu128" => {
            let reference = committed.then_some(lu128::BENCH_RECORD_FNV);
            lu128::run(&lu128::Shape::bench(), opts, reference)
        }
        "fork16" => {
            let dir = Path::new("results/sweeps/fork_sweep");
            match fork16::committed_ends(dir) {
                Ok(ends) => fork16::run(
                    &fork16::Shape::bench(),
                    opts,
                    committed.then_some(&ends[..]),
                ),
                Err(e) => {
                    let mut r = fork16::run(&fork16::Shape::bench(), opts, None);
                    if committed {
                        r.outcome
                            .op(vec![format!("committed reference unreadable: {e}")]);
                    }
                    r
                }
            }
        }
        "ktaud_fleet" => ktaud_fleet::run(&ktaud_fleet::Shape::bench(), opts),
        _ => return None,
    })
}
