//! Short-mode smoke test of the benchmark itself: every workload runs in
//! both modes and prints exactly the metrics `BENCHMARK.json` names, each
//! with its unit; a corrupted oracle fails the run; a program-altering
//! environment variable is refused.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::process::{Command, Output};

use serde::Value;

fn spec() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.field(key).expect("object") {
        Value::Array(items) => items,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn string<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.field(key).expect("object") {
        Value::Str(s) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        Value::Float32(f) => Some(f64::from(*f)),
        _ => None,
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn metric_list(spec: &Value, key: &str) -> Vec<(String, String)> {
    array(spec, key)
        .iter()
        .map(|m| (string(m, "name").to_string(), string(m, "unit").to_string()))
        .collect()
}

fn bench(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("benchmark binary runs")
}

/// The result object on the last line of standard output.
fn result(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("result line is JSON")
}

#[test]
fn every_workload_prints_every_metric_and_verification_is_live() {
    let spec = spec();
    let e2e = metric_list(&spec, "end_to_end");
    let layers = metric_list(&spec, "per_layer");
    let workloads: Vec<String> = array(&spec, "workloads")
        .iter()
        .map(|w| string(w, "name").to_string())
        .collect();
    assert_eq!(workloads, ["vgg16_b1", "mixed_serve"]);

    for workload in &workloads {
        for (trace, want) in [("0", &e2e), ("1", &layers)] {
            let args = [
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
            ];
            let out = bench(&args, &[]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} trace={trace} failed:\n{stderr}"
            );
            let r = result(&out);
            assert_eq!(
                r.field("correct").unwrap(),
                &Value::Bool(true),
                "{workload}"
            );
            let attempted = number(r.field("attempted").unwrap()).expect("attempted");
            assert!(attempted >= 1.0, "{workload}: nothing attempted");
            let Value::Object(metrics) = r.field("metrics").unwrap() else {
                panic!("metrics is not an object");
            };
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            for (name, unit) in want {
                let m = r.field("metrics").unwrap().field(name).unwrap();
                assert!(
                    !matches!(m, Value::Null),
                    "{workload} trace={trace}: `{name}` missing; printed {got:?}"
                );
                assert_eq!(string(m, "unit"), unit, "{workload}: unit of `{name}`");
                let v = number(m.field("value").unwrap()).expect("numeric value");
                assert!(v.is_finite(), "{workload}: `{name}` = {v}");
            }
            assert_eq!(
                got.len(),
                want.len(),
                "{workload} trace={trace}: extra metrics in {got:?}"
            );
        }
    }

    let corrupted = bench(
        &[
            "--workload",
            "mixed_serve",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--corrupt-oracle",
        ],
        &[],
    );
    assert!(
        !corrupted.status.success(),
        "a corrupted oracle must fail the run"
    );
    assert_eq!(
        result(&corrupted).field("correct").unwrap(),
        &Value::Bool(false)
    );

    let refused = bench(
        &[
            "--workload",
            "mixed_serve",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[("BITFLOW_FUSE", "0")],
    );
    assert_eq!(
        refused.status.code(),
        Some(2),
        "BITFLOW_FUSE must be refused"
    );
    assert!(refused.stdout.is_empty(), "a refused run prints no result");
}
