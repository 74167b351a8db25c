//! `llmt-ledger`: the repository's benchmark.
//!
//! * `bench --workload W --seed N --seconds S --trace 0|1` — one workload
//!   in this process; the last stdout line is the result object the
//!   benchmark driver reads (`BENCHMARK.json` names this command).
//! * `run --all --seed N --out FILE [--repeat K]` — every workload,
//!   untraced then traced, each in a child process; prints every metric
//!   and writes a run-set file.
//! * `compare A.json B.json` — two run sets against the bounds.
//!
//! See `README.md` for metric definitions and the measured surface.

mod bench;
mod calib;
mod cli;
mod compare;
mod host;
mod metrics;
mod oracle;
mod probes;
mod report;
mod runner;
mod stats;
mod sut;
mod trace;
mod tracefs;
mod workloads;

use bench::{Args, Bench};
use cli::Cli;
use serde_json::json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// A fresh directory for this process under the build's target
/// directory (`CARGO_TARGET_DIR` when set, as the driver does), spelled
/// relative to the working directory when it lies below it so the
/// daemon's socket path stays short.
fn run_dir(workload: &str) -> std::io::Result<PathBuf> {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let cwd = std::env::current_dir()?;
    let base = base.strip_prefix(&cwd).map(PathBuf::from).unwrap_or(base);
    let dir = base
        .join("ledger-runs")
        .join(format!("{workload}-{}", std::process::id()));
    bench::remove_tree(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn bench_command(cli: &Cli, started: Instant) -> Result<ExitCode, String> {
    host::pin_allocator();
    let workload = cli
        .value("--workload")
        .ok_or("bench: --workload is required")?
        .to_string();
    if !metrics::manifest().workloads.contains(&workload) {
        return Err(format!("bench: unknown workload `{workload}`"));
    }
    let trace = match cli.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
    };
    let smoke = cli.flag("--smoke");
    let args = Args {
        workload: workload.clone(),
        seed: cli.parsed("--seed")?.unwrap_or(1),
        seconds: cli
            .parsed("--seconds")?
            .unwrap_or(metrics::manifest().run_seconds),
        trace,
        smoke,
        trace_dir: cli.value("--trace-dir").map(PathBuf::from),
    };
    let dir = run_dir(&workload).map_err(|e| format!("cannot create a run directory: {e}"))?;
    let fs_kind = host::filesystem_of(&dir);
    let mut b = Bench::new(args, dir.clone());
    let outcome = workloads::run(&mut b, started);
    let result = outcome.map(|setup_s| {
        let metrics = if b.args.trace { report::per_layer(&b) } else { report::end_to_end(&b, setup_s) };
        if b.args.trace {
            let out = b.args.trace_dir.clone().unwrap_or_else(|| dir.parent().expect("run dir has a parent").to_path_buf());
            let path = out.join(format!("trace.{workload}.json"));
            if let Err(e) = std::fs::create_dir_all(&out).and_then(|()| b.rec.tracer.write_json(&path)) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        let tally = b.rec.tally;
        eprintln!(
            "{workload}: seed {} trace {} | {} attempted, {} failed | run dir on {fs_kind} (real fsync, page cache warm) | nproc {} | lap {:.2} ms | deps: {}",
            b.args.seed,
            b.args.trace as u8,
            tally.attempted,
            tally.failed,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            b.rec.book.samples("host.lap_ms").median(),
            host::deps(),
        );
        (tally, report::metrics_object(&metrics))
    });
    // State (threads, sockets) is gone with `b`'s workload; now the files.
    bench::remove_tree(&dir);
    let (tally, metrics) = result?;
    println!(
        "{}",
        serde_json::to_string(&json!({
            "correct": tally.failed == 0,
            "attempted": tally.attempted.max(1),
            "failed": tally.failed,
            "metrics": metrics,
        }))
        .map_err(|e| e.to_string())?
    );
    Ok(if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let cli = Cli::new(argv.collect());
    let outcome = match command.as_str() {
        "bench" => bench_command(&cli, started),
        "run" => runner::run_command(&cli),
        "compare" => compare::compare_command(&cli),
        _ => Err("usage: llmt-ledger bench|run|compare ... (see crates/ledger/README.md)".into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("llmt-ledger: {e}");
        ExitCode::from(2)
    })
}
