//! `ktau-perfbench --workload <lu128|fork16|ktaud_fleet> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a host record line, then the result line
//! `{"correct", "attempted", "failed", "metrics"}` as the last line of
//! standard output.  Traced runs also write their spans to
//! `.bench_out/spans_<workload>_<seed>.jsonl`.

use ktau_perfbench::workloads::{Opts, DEFAULT_SEED};
use ktau_perfbench::{host, run_bench, WORKLOADS};

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: ktau-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let loadavg = host::loadavg();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: 20.0,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        let bad = || -> ! { usage(&format!("bad value {val:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => opts.seed = val.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                opts.seconds = val.parse().unwrap_or_else(|_| bad());
                if opts.seconds.is_nan() || opts.seconds < 0.0 {
                    bad()
                }
            }
            "--trace" => {
                opts.traced = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        usage("--workload is required")
    };
    let Some(report) = run_bench(&workload, &opts) else {
        usage(&format!("unknown workload {workload:?}"))
    };
    println!("{}", report.record_line(&loadavg));
    println!("{}", report.result_line());
}
