//! perfgate: the perf-regression gate over committed bench JSONs.
//!
//! ```text
//! perfgate <committed.json> <fresh.json> [--max-regress 0.25]
//! ```
//!
//! Compares a freshly measured bench run against the committed baseline
//! and exits non-zero when any arm/tier regressed by more than the
//! threshold (default 25%). Both harnesses report **min-of-N** numbers,
//! so a single noisy round cannot fake a regression — only a consistent
//! slowdown across every round of the fresh run trips the gate.
//!
//! Two schemas are understood, keyed by the top-level array name:
//!
//! * `arms`  (`BENCH_project.json`) — compares `min_s`, lower is
//!   better: regression = fresh/committed − 1;
//! * `tiers` (`BENCH_serve.json`) — compares `req_per_s`, higher is
//!   better: regression = committed/fresh − 1.
//!
//! An arm/tier present in the committed file but missing from the fresh
//! run is fatal: silently dropping a measurement is how a regression
//! hides. New arms in the fresh file are reported but not gated (they
//! have no baseline yet).
//!
//! Only like is compared with like: both files record the `threads` the
//! harness ran at, and a fresh run at a different thread count than the
//! baseline's is fatal (numbers taken at 2 threads against a 1-thread
//! baseline measure the machine, not the change). Run the harnesses
//! under `GPP_THREADS=<baseline threads>`.
//!
//! The bench files are read with `grophecy::report::Json`, the same
//! module that writes them, so the gate stays dependency-free and usable
//! from `ci.sh` without touching the network.

use grophecy::report::Json;
use std::process::ExitCode;

/// One comparable measurement: which field to read and which direction
/// is better, decided by the file's schema.
struct Schema {
    rows_key: &'static str,
    metric: &'static str,
    higher_is_better: bool,
}

fn schema_of(doc: &Json) -> Result<Schema, String> {
    if doc.get("arms").is_some() {
        Ok(Schema {
            rows_key: "arms",
            metric: "min_s",
            higher_is_better: false,
        })
    } else if doc.get("tiers").is_some() {
        Ok(Schema {
            rows_key: "tiers",
            metric: "req_per_s",
            higher_is_better: true,
        })
    } else {
        Err("unrecognized bench schema: no `arms` or `tiers` array".to_string())
    }
}

fn rows<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("`{key}` is not an array")),
    }
}

fn name_of(row: &Json) -> Option<&str> {
    row.get("name").and_then(Json::as_str)
}

fn gate(committed: &Json, fresh: &Json, max_regress: f64) -> Result<(), String> {
    let (base_threads, fresh_threads) = (committed.get("threads"), fresh.get("threads"));
    if base_threads != fresh_threads {
        let show = |v: Option<&Json>| match v {
            Some(Json::Num(n)) => n.to_string(),
            Some(other) => format!("{other:?}"),
            None => "missing".to_string(),
        };
        return Err(format!(
            "thread count mismatch: committed threads={} but fresh threads={} — \
             re-run the bench with GPP_THREADS={}",
            show(base_threads),
            show(fresh_threads),
            show(base_threads),
        ));
    }
    let schema = schema_of(committed)?;
    let baseline = rows(committed, schema.rows_key)?;
    let measured = rows(fresh, schema.rows_key)?;
    let mut failures = Vec::new();

    for row in baseline {
        let name = name_of(row).ok_or("baseline row without a name")?;
        let base = row
            .get(schema.metric)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("baseline `{name}` lacks {}", schema.metric))?;
        let fresh_row = measured
            .iter()
            .find(|r| name_of(r) == Some(name))
            .ok_or_else(|| format!("`{name}` missing from the fresh run — gate cannot pass"))?;
        let new = fresh_row
            .get(schema.metric)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("fresh `{name}` lacks {}", schema.metric))?;
        let regress = if schema.higher_is_better {
            base / new - 1.0
        } else {
            new / base - 1.0
        };
        let verdict = if regress > max_regress { "FAIL" } else { "ok" };
        println!(
            "{verdict:<4} {name:<22} {metric}: committed {base:<12.6} fresh {new:<12.6} \
             regression {pct:+.1}%",
            metric = schema.metric,
            pct = regress * 100.0,
        );
        if regress > max_regress {
            failures.push(format!(
                "{name}: {:.1}% > {:.0}% allowed",
                regress * 100.0,
                max_regress * 100.0
            ));
        }
    }
    for row in measured {
        if let Some(name) = name_of(row) {
            if !baseline.iter().any(|r| name_of(r) == Some(name)) {
                println!("new  {name:<22} (no baseline; not gated)");
            }
        }
    }

    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("perf regression: {}", failures.join("; ")))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut max_regress = 0.25;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--max-regress" => {
                i += 1;
                max_regress = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) => v,
                    None => {
                        eprintln!("--max-regress needs a fraction (e.g. 0.25)");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other => paths.push(other.to_string()),
        }
        i += 1;
    }
    if paths.len() != 2 {
        eprintln!("usage: perfgate <committed.json> <fresh.json> [--max-regress 0.25]");
        return ExitCode::FAILURE;
    }

    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let result = read(&paths[0]).and_then(|committed| {
        let fresh = read(&paths[1])?;
        println!("perfgate: {} vs {}", paths[0], paths[1]);
        gate(&committed, &fresh, max_regress)
    });
    match result {
        Ok(()) => {
            println!("perfgate OK (threshold {:.0}%)", max_regress * 100.0);
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfgate: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn project_doc(threads: u32, arms: &[(&str, f64)]) -> Json {
        let arms: Vec<String> = arms
            .iter()
            .map(|(name, min_s)| format!(r#"{{"name":"{name}","min_s":{min_s}}}"#))
            .collect();
        Json::parse(&format!(
            r#"{{"bench":"project_throughput","threads":{threads},"arms":[{}]}}"#,
            arms.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn thread_count_mismatch_fails_naming_both_values() {
        let committed = project_doc(1, &[("overlap", 1.0e-6)]);
        let fresh = project_doc(2, &[("overlap", 1.0e-6)]);
        let err = gate(&committed, &fresh, 0.25).unwrap_err();
        assert!(
            err.contains("threads=1") && err.contains("threads=2"),
            "{err}"
        );
    }

    #[test]
    fn missing_arm_fails() {
        let committed = project_doc(1, &[("overlap", 1.0e-6), ("soa_prune", 1.0e-6)]);
        let fresh = project_doc(1, &[("overlap", 1.0e-6)]);
        let err = gate(&committed, &fresh, 0.25).unwrap_err();
        assert!(
            err.contains("soa_prune") && err.contains("missing"),
            "{err}"
        );
    }

    #[test]
    fn same_config_within_threshold_passes() {
        let committed = project_doc(1, &[("overlap", 1.0e-6), ("soa_prune", 2.0e-6)]);
        let fresh = project_doc(1, &[("overlap", 1.2e-6), ("soa_prune", 1.5e-6)]);
        assert_eq!(gate(&committed, &fresh, 0.25), Ok(()));
        let slower = project_doc(1, &[("overlap", 1.3e-6), ("soa_prune", 2.0e-6)]);
        assert!(
            gate(&committed, &slower, 0.25).is_err(),
            "30% slower must fail"
        );
    }
}
