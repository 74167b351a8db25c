//! `llmt-ledger compare A.json B.json`: two run sets of the same
//! benchmark, pair by pair, against the bounds in `BENCHMARK.json`.

use crate::cli::Cli;
use crate::metrics::manifest;
use crate::runner::SCHEMA;
use crate::stats::Samples;
use serde_json::Value;
use std::process::ExitCode;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc["schema"].as_str() != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA} run set"));
    }
    Ok(doc)
}

/// One value per run of the set.
fn values(doc: &Value, workload: &str, metric: &str) -> Samples {
    doc["runs"]
        .as_array()
        .map(|runs| {
            runs.iter()
                .filter_map(|r| r[workload]["end_to_end"][metric]["value"].as_f64())
                .collect()
        })
        .unwrap_or_default()
}

/// The count ratios depend on the seed (how well that seed's deltas
/// compress) by more than on anything else, so their bounds in
/// `BENCHMARK.json`, which must hold across seeds, are wide. For one and
/// the same seed they repeat to the length of a few journal lines, and
/// two sets run with the same seed are held to this instead.
const COUNT_RATIOS: [&str; 3] = ["stored_ratio", "write_amp", "read_amp"];
const SAME_SEED_COUNT_BOUND: f64 = 0.01;

/// Fewest runs a set needs before its spread is judged: below this the
/// "quartiles" are the set's extremes and say nothing about repeatability.
const MIN_RUNS_FOR_SPREAD: usize = 5;

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(v, n=4)` gives
/// them (exclusive method). `None` below [`MIN_RUNS_FOR_SPREAD`] values.
pub fn spread(v: &Samples) -> Option<f64> {
    if v.n() < MIN_RUNS_FOR_SPREAD {
        return None;
    }
    let s = v.sorted();
    let n = s.len();
    let quartile = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((quartile(3) - quartile(1)) / v.median())
}

pub fn compare_command(cli: &Cli) -> Result<ExitCode, String> {
    let files = cli.positional();
    let [a_path, b_path] = files[..] else {
        return Err("compare: expected two run-set files".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("base {a_path} (seed {}, git {})", a["seed"], a["git_rev"]);
    println!("new  {b_path} (seed {}, git {})", b["seed"], b["git_rev"]);
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "new/base", "spreadA", "spreadB", "bound"
    );
    let same_seed = a["seed"] == b["seed"];
    let mut disagreeing = 0;
    for w in &manifest().workloads {
        for m in &manifest().end_to_end {
            let (va, vb) = (values(&a, w, &m.name), values(&b, w, &m.name));
            if va.n() == 0 || vb.n() == 0 {
                println!("{:<16} {:<16} missing on one side", w, m.name);
                disagreeing += 1;
                continue;
            }
            let bound = if same_seed && COUNT_RATIOS.contains(&m.name.as_str()) {
                SAME_SEED_COUNT_BOUND.min(m.bound)
            } else {
                m.bound
            };
            let (ma, mb) = (va.median(), vb.median());
            let worse_by = if m.lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let (sa, sb) = (spread(&va), spread(&vb));
            let too_wide = |s: Option<f64>| s.is_some_and(|s| s > bound);
            // setup_s is gated on its medians only, like the driver does.
            let verdict = if m.name != "setup_s" && (too_wide(sa) || too_wide(sb)) {
                "unresolved"
            } else if worse_by > bound {
                "regressed"
            } else {
                "ok"
            };
            if verdict != "ok" {
                disagreeing += 1;
            }
            let pct = |s: Option<f64>| {
                s.map_or_else(|| "-".to_string(), |s| format!("{:.1}%", s * 100.0))
            };
            println!(
                "{:<16} {:<16} {:>14.4} {:>14.4} {:>8.3} {:>7} {:>7} {:>5.0}%  {verdict}",
                w,
                m.name,
                ma,
                mb,
                mb / ma,
                pct(sa),
                pct(sb),
                bound * 100.0
            );
        }
    }
    println!(
        "ratios are new/base of the medians over each set's runs ({} vs {} runs)",
        a["runs"].as_array().map_or(0, Vec::len),
        b["runs"].as_array().map_or(0, Vec::len)
    );
    if same_seed {
        println!(
            "same seed on both sides: count ratios held to {:.0}%",
            SAME_SEED_COUNT_BOUND * 100.0
        );
    }
    if disagreeing > 0 {
        println!("{disagreeing} (workload, metric) pair(s) regressed, unresolved or missing");
        return Ok(ExitCode::FAILURE);
    }
    println!("every gated pair agrees within its bound");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Samples = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40, 50, 90], n=4) == [15.0, 40.0, 70.0]
        assert!(
            (spread(&[10.0, 20.0, 40.0, 50.0, 90.0].into_iter().collect()).unwrap() - 55.0 / 40.0)
                .abs()
                < 1e-12
        );
        assert_eq!(spread(&[10.0, 20.0, 40.0].into_iter().collect()), None);
    }
}
