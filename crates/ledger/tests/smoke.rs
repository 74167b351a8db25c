//! Schema and repeatability checks on `--smoke` runs (tiny model, the
//! count window's rounds only). No timing assertions: those belong to the acceptance runs
//! described in the README, not to `cargo test`.

use serde_json::Value;
use std::collections::BTreeSet;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_llmt-ledger");

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(section: &Value) -> Vec<String> {
    section
        .as_array()
        .expect("a list")
        .iter()
        .map(|m| m["name"].as_str().expect("name").to_string())
        .collect()
}

/// One smoke run in a private directory under cargo's per-target tmp
/// dir (so parallel tests do not share run directories); returns the
/// parsed last stdout line.
fn smoke(workload: &str, trace: bool, tag: &str) -> Value {
    let target =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{tag}"));
    let out = Command::new(EXE)
        .args([
            "bench",
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("CARGO_TARGET_DIR", &target)
        .output()
        .expect("bench starts");
    let _ = std::fs::remove_dir_all(&target);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .expect("a result line");
    serde_json::from_str(last).expect("result line is JSON")
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn check_result(workload: &str, result: &Value, section: &Value) {
    let keys: BTreeSet<&str> = result
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        BTreeSet::from(["attempted", "correct", "failed", "metrics"]),
        "{workload}"
    );
    assert_eq!(result["correct"], true, "{workload}");
    assert_eq!(result["failed"], 0, "{workload}");
    assert!(
        result["attempted"].as_u64().expect("whole number") >= 1,
        "{workload}"
    );
    let metrics = result["metrics"].as_object().expect("metrics object");
    let expected = names(section);
    // Exactly the declared names, each once (object keys cannot repeat).
    assert_eq!(metrics.len(), expected.len(), "{workload}: metric count");
    for def in section.as_array().expect("a list") {
        let name = def["name"].as_str().expect("name");
        assert!(well_formed(name), "{name}");
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert!(
            got["value"].as_f64().is_some_and(f64::is_finite),
            "{workload}: {name} = {}",
            got["value"]
        );
        assert_eq!(got["unit"], def["unit"], "{workload}: unit of {name}");
    }
}

#[test]
fn every_workload_reports_every_metric_once_and_correctly() {
    let manifest = benchmark_json();
    let workloads = names(&manifest["workloads"]);
    assert_eq!(workloads.len(), 5);
    for w in &workloads {
        assert!(well_formed(w), "{w}");
        let untraced = smoke(w, false, "a");
        check_result(w, &untraced, &manifest["end_to_end"]);
        for (name, m) in untraced["metrics"].as_object().expect("metrics") {
            assert!(
                m["value"].as_f64().expect("number") > 0.0,
                "{w}: end-to-end metric {name} is 0"
            );
        }
        check_result(w, &smoke(w, true, "t"), &manifest["per_layer"]);
    }
}

/// On the workloads with no free-running background thread, what was
/// asked of storage repeats for a seed: op counts exactly, byte ratios
/// to within the few bytes by which journal lines (they carry timings)
/// differ in length.
#[test]
fn counts_repeat_for_a_seed_on_the_single_threaded_workloads() {
    for w in ["full_async", "everystep_delta", "selective_merge"] {
        let (a, b) = (smoke(w, false, "r1"), smoke(w, false, "r2"));
        for ratio in ["stored_ratio", "write_amp", "read_amp"] {
            let (x, y) = (
                a["metrics"][ratio]["value"].as_f64().expect("number"),
                b["metrics"][ratio]["value"].as_f64().expect("number"),
            );
            assert!((x - y).abs() <= 0.005 * x.abs(), "{w}: {ratio} {x} vs {y}");
        }
        let (a, b) = (smoke(w, true, "r3"), smoke(w, true, "r4"));
        for count in [
            "storage.write_ops",
            "storage.read_ops",
            "storage.fsyncs",
            "storage.renames",
            "storage.links",
            "ckpt.engine.files_per_save",
        ] {
            assert_eq!(
                a["metrics"][count]["value"], b["metrics"][count]["value"],
                "{w}: {count}"
            );
        }
    }
}
