//! Benchmark self-test: runs every workload briefly (the benchmarked ones
//! and the runnable ones left out of `BENCHMARK.json`), untraced and traced,
//! and checks that the result line names every metric of
//! `BENCHMARK.json` with its unit, that every reply passed the reference
//! check on the fault-free fleet (`err_frac` = 0), and that the layer map
//! covers every per-layer metric.

use servebench::json::{self, Value};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark lives in the repository")
}

fn benchmark() -> Value {
    read_json(&repo_root().join("BENCHMARK.json"))
}

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_arr()
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

/// Runs the benchmark and returns its parsed result line.
fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "2",
            "--trace",
            &trace.to_string(),
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

fn check_result(workload: &str, trace: u8, expected: &[(String, String)]) {
    let result = run(workload, trace);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}: {result:?}"
    );
    let attempted = result
        .get("attempted")
        .and_then(Value::as_f64)
        .expect("attempted");
    let failed = result
        .get("failed")
        .and_then(Value::as_f64)
        .expect("failed");
    assert!(attempted >= 1.0);
    assert_eq!(
        failed / attempted,
        0.0,
        "{workload}: err_frac must be 0 on the fault-free fleet"
    );
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object")
    };
    let printed: BTreeSet<&String> = metrics.keys().collect();
    let wanted: BTreeSet<&String> = expected.iter().map(|(n, _)| n).collect();
    assert_eq!(printed, wanted, "{workload} --trace {trace}: metric names");
    for (name, unit) in expected {
        let m = &metrics[name];
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{workload}: {name}"
        );
        let v = m.get("value").and_then(Value::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {v:?}");
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let bench = benchmark();
    let e2e = names(bench.get("end_to_end").expect("end_to_end"));
    let per_layer = names(bench.get("per_layer").expect("per_layer"));
    let layers = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("layers.json"));
    let Some(Value::Obj(diagnostic)) = layers.get("diagnostic_workloads") else {
        panic!("layers.json has no diagnostic_workloads")
    };
    let benchmarked = bench.get("workloads").expect("workloads").as_arr();
    let names = benchmarked
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .chain(diagnostic.keys().map(String::as_str));
    for name in names {
        check_result(name, 0, &e2e);
        check_result(name, 1, &per_layer);
    }
}

#[test]
fn layer_map_covers_every_per_layer_metric() {
    let bench = benchmark();
    let layers = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("layers.json"));
    let map = layers.get("per_layer").expect("per_layer map");
    let workloads: BTreeSet<String> = bench
        .get("workloads")
        .expect("workloads")
        .as_arr()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let keys = |section: &str| -> BTreeSet<String> {
        match layers.get(section) {
            Some(Value::Obj(m)) => m.keys().cloned().collect(),
            _ => panic!("layers.json has no {section}"),
        }
    };
    assert_eq!(
        workloads,
        keys("workloads"),
        "layers.json describes exactly the benchmark's workloads"
    );
    // Metrics may also name the runnable workloads left out of the
    // benchmark.
    let workloads: BTreeSet<String> = workloads
        .union(&keys("diagnostic_workloads"))
        .cloned()
        .collect();
    let mut e2e: BTreeSet<String> = names(bench.get("end_to_end").expect("end_to_end"))
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    e2e.insert("err_frac".to_string());
    for (name, unit) in names(bench.get("per_layer").expect("per_layer")) {
        let entry = map
            .get(&name)
            .unwrap_or_else(|| panic!("{name} missing from layers.json"));
        assert_eq!(
            entry.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let layer = entry.get("layer").and_then(Value::as_str).expect("layer");
        assert!(
            name.starts_with(&format!("{layer}.")),
            "{name} is named after its layer"
        );
        for mv in entry.get("moves").expect("moves").as_arr() {
            let metric = mv.get("metric").and_then(Value::as_str).expect("metric");
            let workload = mv
                .get("workload")
                .and_then(Value::as_str)
                .expect("workload");
            assert!(e2e.contains(metric), "{name} moves unknown metric {metric}");
            assert!(
                workload == "everywhere" || workloads.contains(workload),
                "{name}: {workload}"
            );
        }
    }
}
