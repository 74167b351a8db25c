//! The fixed vocabulary of the ledger: workloads, end-to-end metrics
//! with their regression bounds, and the per-layer table. They are
//! written down once, in `BENCHMARK.json` at the repository root, which
//! is compiled into the binary; `report.rs` computes a value for every
//! name it lists and `tests/smoke.rs` checks that none is missing.

use serde_json::Value;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// 0 for per-layer metrics, which are not gated.
    pub bound: f64,
}

pub struct Manifest {
    /// Seconds one run measures for.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    /// Gated metrics: every workload reports every one, none is ever 0.
    pub end_to_end: Vec<Metric>,
    /// Ungated, from the `--trace 1` run. Counts are medians per
    /// checkpoint op; a metric whose layer a workload bypasses reads 0.
    pub per_layer: Vec<Metric>,
}

fn text(v: &Value, key: &str) -> String {
    v[key]
        .as_str()
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` of {v} is not a string"))
        .to_string()
}

fn metrics(section: &Value) -> Vec<Metric> {
    section
        .as_array()
        .expect("BENCHMARK.json: a metric section is not a list")
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            lower_is_better: match text(m, "better").as_str() {
                "lower" => true,
                "higher" => false,
                other => panic!("BENCHMARK.json: `better` is `{other}`"),
            },
            bound: m["bound"].as_f64().unwrap_or(0.0),
        })
        .collect()
}

/// `BENCHMARK.json` as compiled in. It is part of the source: a file
/// that does not parse is a bug the unit test below catches.
pub fn manifest() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is not JSON");
        Manifest {
            run_seconds: doc["run_seconds"]
                .as_f64()
                .expect("BENCHMARK.json: run_seconds is not a number"),
            workloads: doc["workloads"]
                .as_array()
                .expect("BENCHMARK.json: workloads is not a list")
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: metrics(&doc["end_to_end"]),
            per_layer: metrics(&doc["per_layer"]),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_is_within_the_contract_limits() {
        let m = manifest();
        let mut names: Vec<&str> = m.workloads.iter().map(String::as_str).collect();
        names.extend(m.end_to_end.iter().map(|m| m.name.as_str()));
        names.extend(m.per_layer.iter().map(|m| m.name.as_str()));
        let n = names.len();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!((2..=8).contains(&m.workloads.len()));
        assert!((1..=16).contains(&m.end_to_end.len()));
        assert!((1..=128).contains(&m.per_layer.len()));
        assert!((1.0..=60.0).contains(&m.run_seconds) && m.run_seconds.fract() == 0.0);
        assert!(m
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(m
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better));
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
        let mut keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        for w in doc["workloads"].as_array().unwrap() {
            let why = w["why"].as_str().expect("a why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }
}
