//! Self-test at tiny sizes: every workload runs in seconds, prints every
//! metric `BENCHMARK.json` names with its unit, and counts a planted wrong
//! expectation as a failed op rather than a pass.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use serde::Value;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::parse_value_complete(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn metrics(list: &str) -> Vec<(String, String)> {
    let bench = benchmark_json();
    let Some(Value::Array(items)) = bench.as_object().and_then(|o| o.get(list)) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.as_object()
                    .and_then(|o| o.get(k))
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{list} entry without {k}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

struct Outcome {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: serde::Map,
}

/// Runs one tiny workload and parses the last stdout line.
fn run(workload: &str, extra: &[&str]) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--scale",
            "tiny",
        ])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::parse_value_complete(last).expect("the result line is JSON");
    let obj = result.as_object().expect("the result is an object");
    let Some(Value::Object(metrics)) = obj.get("metrics") else {
        panic!("no metrics in {last}");
    };
    Outcome {
        correct: obj.get("correct") == Some(&Value::Bool(true)),
        attempted: obj.get("attempted").and_then(number).expect("attempted"),
        failed: obj.get("failed").and_then(number).expect("failed"),
        metrics: metrics.clone(),
    }
}

fn assert_reports(outcome: &Outcome, expected: &[(String, String)], nonzero: bool) {
    assert_eq!(
        outcome.metrics.len(),
        expected.len(),
        "exactly the listed metrics"
    );
    for (name, unit) in expected {
        let m = outcome
            .metrics
            .get(name)
            .and_then(Value::as_object)
            .unwrap_or_else(|| panic!("metric {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name} unit"
        );
        let value = m
            .get("value")
            .and_then(number)
            .unwrap_or_else(|| panic!("{name} value"));
        assert!(value.is_finite(), "{name} = {value}");
        if nonzero {
            assert!(value > 0.0, "{name} must never be 0");
        }
    }
}

fn self_test(workload: &str) {
    let plain = run(workload, &["--trace", "0"]);
    assert!(plain.correct && plain.failed == 0.0 && plain.attempted >= 1.0);
    assert_reports(&plain, &metrics("end_to_end"), true);

    let traced = run(workload, &["--trace", "1"]);
    assert!(traced.correct && traced.failed == 0.0 && traced.attempted >= 1.0);
    assert_reports(&traced, &metrics("per_layer"), false);

    let planted = run(workload, &["--trace", "0", "--plant-wrong-answer"]);
    assert!(!planted.correct, "a planted wrong answer must not pass");
    assert!(planted.failed >= 1.0 && planted.failed <= planted.attempted);
}

#[test]
fn paper_pipeline() {
    self_test("paper_pipeline");
}

#[test]
fn serve_single() {
    self_test("serve_single");
}

#[test]
fn serve_bulk() {
    self_test("serve_bulk");
}

#[test]
fn watch_checkpointed() {
    self_test("watch_checkpointed");
}
