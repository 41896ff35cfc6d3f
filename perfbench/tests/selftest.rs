//! Runs every workload at a tiny size and checks the benchmark itself:
//! every metric `BENCHMARK.json` names is reported with its unit, clean
//! runs pass their checks, a corrupted reference counts as a failed
//! operation, and fork event accounting matches an uninterrupted run.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use ktau_perfbench::layers::EngineCounts;
use ktau_perfbench::report::Report;
use ktau_perfbench::workloads::{fork16, ktaud_fleet, lu128, Opts};
use serde_json::Value;

fn opts(seed: u64, traced: bool) -> Opts {
    Opts {
        seed,
        seconds: 0.0,
        traced,
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let root: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let field = |v: &Value, k: &str| match v {
        Value::Obj(fields) => fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone()),
        _ => None,
    };
    let Some(Value::Arr(items)) = field(&root, list) else {
        panic!("{list} is not a list");
    };
    items
        .iter()
        .map(|m| match (field(m, "name"), field(m, "unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n, u),
            other => panic!("bad metric entry {other:?}"),
        })
        .collect()
}

fn assert_reports(r: &Report, list: &str) {
    let want = declared(list);
    let got: Vec<(String, String)> = r
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_owned()))
        .collect();
    assert_eq!(got, want, "{} reports other {list} metrics", r.workload);
    for m in &r.metrics {
        assert!(
            m.value.is_finite(),
            "{}: {} is {}",
            r.workload,
            m.name,
            m.value
        );
    }
    let line = r.result_line();
    let parsed: Value = serde_json::from_str(&line).expect("result line is JSON");
    assert!(matches!(parsed, Value::Obj(_)));
}

fn assert_clean(r: &Report) {
    assert!(
        r.correct(),
        "{} failed: {:?}",
        r.workload,
        r.outcome.failures
    );
}

#[test]
fn lu128_reports_every_metric_and_counts_a_bad_reference() {
    let shape = lu128::Shape::tiny();
    let plain = lu128::run(&shape, &opts(0, false), None);
    assert_clean(&plain);
    assert_reports(&plain, "end_to_end");
    let traced = lu128::run(&shape, &opts(0, true), None);
    assert_clean(&traced);
    assert_reports(&traced, "per_layer");

    let good = plain
        .notes
        .iter()
        .find(|(k, _)| k == "record_fnv")
        .map(|(_, v)| u64::from_str_radix(v, 16).expect("hex fingerprint"))
        .expect("record fingerprint noted");
    assert_clean(&lu128::run(&shape, &opts(0, false), Some(good)));
    let bad = lu128::run(&shape, &opts(0, false), Some(good ^ 1));
    assert!(bad.outcome.failed >= 1, "a corrupted reference must fail");
    assert!(bad.outcome.error_rate() > 0.0);
    assert!(!bad.correct());
}

#[test]
fn fork16_reports_every_metric_and_counts_a_bad_reference() {
    let shape = fork16::Shape::tiny();
    let plain = fork16::run(&shape, &opts(7, false), None);
    assert_clean(&plain);
    assert_reports(&plain, "end_to_end");
    let traced = fork16::run(&shape, &opts(7, true), None);
    assert_clean(&traced);
    assert_reports(&traced, "per_layer");
    assert!(traced.get("net.retransmits").unwrap_or(0.0) >= 0.0);

    // Reference end times taken from a clean run, then one corrupted.
    let first = fork16::run(&shape, &opts(0, false), None);
    assert_clean(&first);
    let ends: Vec<(String, f64)> = first
        .notes
        .iter()
        .filter_map(|(k, v)| Some((k.strip_prefix("end_s.")?.to_owned(), v.parse().ok()?)))
        .collect();
    assert_eq!(ends.len(), fork16::seeded_variants(0).len());
    assert_clean(&fork16::run(&shape, &opts(0, false), Some(&ends)));
    let mut corrupted = ends.clone();
    corrupted[3].1 += 0.5;
    let bad = fork16::run(&shape, &opts(0, false), Some(&corrupted));
    assert!(bad.outcome.failed >= 1, "a corrupted reference must fail");
    assert!(bad.outcome.error_rate() > 0.0);
}

#[test]
fn committed_fork_references_parse() {
    let dir = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../results/sweeps/fork_sweep"
    ));
    let ends = fork16::committed_ends(dir).expect("committed markers");
    assert_eq!(ends.len(), 8);
    assert!(ends.iter().all(|(_, e)| *e > 400.0 && *e < 600.0));
}

#[test]
fn ktaud_fleet_reports_every_metric() {
    let shape = ktaud_fleet::Shape::tiny();
    let plain = ktaud_fleet::run(&shape, &opts(3, false));
    assert_clean(&plain);
    assert_reports(&plain, "end_to_end");
    let traced = ktaud_fleet::run(&shape, &opts(3, true));
    assert_clean(&traced);
    assert_reports(&traced, "per_layer");
    assert!(traced.get("ktaud.delta_bytes_per_node_sweep").unwrap() > 0.0);
}

#[test]
fn fork_work_counts_the_prefix_once() {
    let c = |simulated| EngineCounts {
        simulated,
        ..Default::default()
    };
    // Two forks resumed from a 100-event prefix, ending at 130 and 160:
    // 100 + 30 + 60, not 130 + 160.
    assert_eq!(fork16::sweep_work(c(100), &[c(130), c(160)]).simulated, 190);
}
