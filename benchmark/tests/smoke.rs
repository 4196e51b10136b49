//! Drives the real binary: a `--smoke` run of every workload, plus one
//! traced run, checked against the metric names `BENCHMARK.json`
//! promises. The runs go side by side, so their timings mean nothing;
//! what is checked is that every run is correct, complete and quick.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use feo_serve::Json;

const WORKLOADS: [&str; 5] = [
    "explain_inproc",
    "explain_http",
    "explain_http_open",
    "query_scan",
    "commit_mixed",
];

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(spec: &Json, list: &str) -> Vec<String> {
    let mut names: Vec<String> = spec
        .get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{list} array"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

/// Runs the binary and returns its last line of standard output.
fn run(workload: &str, extra: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_feo-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--smoke"])
        .args(extra)
        .output()
        .expect("spawn the benchmark");
    assert!(
        output.status.success(),
        "{workload} {extra:?} exited with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// Checks one result line against the contract and the expected names.
fn check(workload: &str, line: &str, mut expected: Vec<String>, units: &Json, list: &str) {
    let result = Json::parse(line).unwrap_or_else(|e| panic!("{workload}: {e}: {line}"));
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_u64)
            .expect("attempted")
            >= 1
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: metrics is not an object");
    };
    let mut got: Vec<String> = metrics.iter().map(|(name, _)| name.clone()).collect();
    got.sort();
    expected.sort();
    assert_eq!(
        got, expected,
        "{workload}: metric names differ from BENCHMARK.json"
    );
    for entry in units
        .get(list)
        .and_then(Json::as_array)
        .expect("metric list")
    {
        let name = entry.get("name").and_then(Json::as_str).expect("name");
        let metric = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .expect("metric");
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            entry.get("unit").and_then(Json::as_str),
            "{workload}/{name}: unit differs from BENCHMARK.json"
        );
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}/{name}: {value:?}"
        );
    }
}

#[test]
fn smoke_run_of_every_workload_is_correct_complete_and_quick() {
    let spec = spec();
    assert_eq!(
        names(&spec, "workloads"),
        {
            let mut w: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
            w.sort();
            w
        },
        "BENCHMARK.json lists the five workloads"
    );
    let started = Instant::now();
    let (lines, traced) = std::thread::scope(|scope| {
        let runs: Vec<_> = WORKLOADS
            .iter()
            .map(|w| scope.spawn(move || run(w, &[])))
            .collect();
        let traced = scope.spawn(|| run("query_scan", &["--trace", "1"]));
        let lines: Vec<String> = runs.into_iter().map(|r| r.join().expect("run")).collect();
        (lines, traced.join().expect("traced run"))
    });
    let took = started.elapsed();
    for (workload, line) in WORKLOADS.iter().zip(&lines) {
        check(
            workload,
            line,
            names(&spec, "end_to_end"),
            &spec,
            "end_to_end",
        );
    }
    check(
        "query_scan --trace",
        &traced,
        names(&spec, "per_layer"),
        &spec,
        "per_layer",
    );
    assert!(
        took < Duration::from_secs(30),
        "smoke runs took {took:?}, expected under 30 s"
    );
    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace-query_scan.json");
    let spans = std::fs::read_to_string(&trace).expect("the traced run wrote its spans");
    assert!(Json::parse(&spans).is_ok(), "trace file is JSON");
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_feo-benchmark"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("spawn the benchmark");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
