//! `llmt-ledger run`: every workload in its own child process, untraced
//! (end-to-end metrics) then traced (per-layer table), printed by name
//! and written as a run-set file `compare` reads.

use crate::cli::Cli;
use crate::host;
use crate::metrics::{manifest, Metric};
use serde_json::{json, Map, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Schema tag of run-set files.
pub const SCHEMA: &str = "llmt-ledger/1";

/// Run `bench` for one workload in a child of this executable and parse
/// the result object on its last stdout line.
fn bench_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    trace_dir: &Path,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "bench",
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    cmd.arg("--trace-dir").arg(trace_dir);
    if smoke {
        cmd.arg("--smoke");
    }
    // The child's stderr (failure names, host line) passes through.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{workload}: no result line (exit {})", out.status))?;
    let result: Value = serde_json::from_str(last)
        .map_err(|e| format!("{workload}: result line is not JSON: {e}"))?;
    if !out.status.success() && result["failed"].as_u64() == Some(0) {
        return Err(format!(
            "{workload}: exited with {} without reporting a failure",
            out.status
        ));
    }
    Ok(result)
}

fn print_table(workload: &str, title: &str, defs: &[Metric], metrics: &Value) {
    println!("  {title}");
    for Metric { name, unit, .. } in defs {
        let v = metrics[name]["value"].as_f64().unwrap_or(f64::NAN);
        println!("    {workload:<16} {name:<36} {v:>16.4} {unit}");
    }
}

pub fn run_command(cli: &Cli) -> Result<ExitCode, String> {
    let seed: u64 = cli.parsed("--seed")?.unwrap_or(1);
    let m = manifest();
    let seconds: f64 = cli.parsed("--seconds")?.unwrap_or(m.run_seconds);
    let repeat: u32 = cli.parsed("--repeat")?.unwrap_or(1);
    let smoke = cli.flag("--smoke");
    let out_path = PathBuf::from(cli.value("--out").unwrap_or("BENCH_ledger.json"));
    if !cli.flag("--all") {
        return Err("run: pass --all (one workload alone: `bench --workload NAME`)".into());
    }
    let selected: Vec<&str> = m.workloads.iter().map(String::as_str).collect();
    let trace_dir = out_path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);

    let mut runs = Vec::new();
    let mut failed_total = 0;
    for rep in 0..repeat {
        // Alternate the order so no workload always runs on a cold or a
        // warm machine.
        let mut order = selected.clone();
        if rep % 2 == 1 {
            order.reverse();
        }
        let mut by_workload = Map::new();
        for workload in order {
            println!(
                "== {workload} (seed {seed}, repetition {}/{repeat}) ==",
                rep + 1
            );
            let untraced = bench_child(workload, seed, seconds, false, smoke, &trace_dir)?;
            let traced = bench_child(workload, seed, seconds, true, smoke, &trace_dir)?;
            print_table(
                workload,
                "end to end (untraced run)",
                &m.end_to_end,
                &untraced["metrics"],
            );
            print_table(
                workload,
                "per layer (traced run)",
                &m.per_layer,
                &traced["metrics"],
            );
            let attempted = untraced["attempted"].as_u64().unwrap_or(0)
                + traced["attempted"].as_u64().unwrap_or(0);
            let failed =
                untraced["failed"].as_u64().unwrap_or(0) + traced["failed"].as_u64().unwrap_or(0);
            println!(
                "    {workload:<16} {:<36} {:>16.4} ratio  ({failed} of {attempted})",
                "fail_share",
                failed as f64 / attempted.max(1) as f64
            );
            failed_total += failed;
            by_workload.insert(
                workload.to_string(),
                json!({
                    "correct": failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "end_to_end": untraced["metrics"],
                    "per_layer": traced["metrics"],
                }),
            );
        }
        runs.push(Value::Object(by_workload));
    }

    let run_dir_base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let doc = json!({
        "schema": SCHEMA,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "git_rev": host::git_rev(),
        "host": host::fingerprint(),
        "run_dir_filesystem": host::filesystem_of(&run_dir_base),
        "flush_policy": "real LocalFs fsync on the run directory's filesystem; page cache warm",
        "runs": runs,
    });
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&out_path, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    println!("seed {seed}  git {}  host {}", doc["git_rev"], doc["host"]);
    println!(
        "wrote {} ({} run(s)); traces in {}",
        out_path.display(),
        repeat,
        trace_dir.display()
    );
    if failed_total > 0 {
        eprintln!("llmt-ledger: {failed_total} operation(s) or check(s) failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
