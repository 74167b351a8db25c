//! Restore throughput of the unified restore engine, comparing the
//! parallel (rayon) fetch path against the strictly sequential baseline.
//!
//! Run: `cargo run --release -p llmt-bench --bin restore_throughput [-- --smoke]`
//!
//! A deduplicated checkpoint of the simulated 8B model spreads its
//! payload over one file per layer unit plus one per (rank, group)
//! optimizer object — exactly the many-small-files shape the engine's
//! fused fetch→decode→validate tasks are built for. Verify-on-read stays
//! enabled, so the measured work includes the streaming SHA-256 and the
//! per-tensor FNV digest checks.
//!
//! `--smoke` runs a seconds-scale CI check: both modes restore, their
//! bound states are identical, per-stage timings are populated, and on a
//! host with at least 4 cores the parallel restore is at least 2x faster
//! than the sequential one. Exits non-zero on any violation.

use llmt_ckpt::engine::{self, LiveState, SaveOptions};
use llmt_ckpt::{
    restore_checkpoint, CheckpointPaths, Parallelism, RestoreRequest, RestoredState, SaveRequest,
    TrainerState,
};
use llmt_model::{LayerUnit, Model, ModelConfig};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
use llmt_storage::vfs::LocalFs;
use llmt_tensor::rng::Prng;
use llmt_zero::ZeroEngine;
use serde_json::json;
use std::path::{Path, PathBuf};

const WORLD: usize = 2;

fn check(ok: bool, what: &str) {
    if !ok {
        eprintln!("restore_throughput smoke FAILED: {what}");
        std::process::exit(1);
    }
}

/// Save one deduplicated checkpoint of `cfg` and return its directory.
fn build_checkpoint(root: &Path, cfg: &ModelConfig) -> PathBuf {
    let model = Model::new(cfg.clone(), 11);
    let engine = ZeroEngine::new(
        &model.params,
        build_groups(cfg, GroupLayout::LayerWise),
        WORLD,
        AdamWHyper::default(),
    );
    let ts = TrainerState {
        global_step: 1,
        ckpt_event: 0,
        lr_schedule: LrSchedule::Constant { lr: 1e-3 },
        last_lr: 1e-3,
        loss_history: vec![],
        data_rng: Prng::seed_from_u64(5),
        task: "restore-throughput".into(),
        model_name: cfg.model_name.clone(),
        micro_batch: 2,
        grad_accum: 1,
        seq_len: 8,
    };
    engine::save(
        &[&LocalFs],
        &SaveRequest {
            dir: &CheckpointPaths::under(root, 1).dir,
            step: 1,
            source: &LiveState {
                config: cfg,
                params: &model.params,
                engine: &engine,
            },
            trainer_state: &ts,
            units: &LayerUnit::all(cfg),
            metrics: &MetricsRegistry::new(),
            store: None,
            bases: None,
        },
        &SaveOptions::dedup(true),
    )
    .unwrap()
    .report
    .paths
    .dir
}

/// Restore `iters` times with the given parallelism; return the fastest
/// wall-clock seconds and the last restored state.
fn time_restore(dir: &Path, parallelism: Parallelism, iters: usize) -> (f64, RestoredState) {
    let req = RestoreRequest {
        parallelism,
        ..RestoreRequest::default()
    };
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..iters {
        let t0 = std::time::Instant::now();
        let state = restore_checkpoint(dir, &req).unwrap();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(state);
    }
    (best, last.expect("at least one iteration"))
}

fn states_equal(a: &RestoredState, b: &RestoredState) -> bool {
    a.weights == b.weights && a.ranks == b.ranks && a.report.bytes_fetched == b.report.bytes_fetched
}

fn report_json(mode: &str, secs: f64, s: &RestoredState) -> serde_json::Value {
    let r = &s.report;
    json!({
        "mode": mode,
        "wall_secs": secs,
        "files_fetched": r.files_fetched,
        "bytes_fetched": r.bytes_fetched,
        "digests_verified": r.digests_verified,
        "restore_mb_per_s": if secs > 0.0 { r.bytes_fetched as f64 / 1e6 / secs } else { 0.0 },
        "stages_ns": {
            "enumerate": r.timings.enumerate_ns,
            "fetch": r.timings.fetch_ns,
            "decode": r.timings.decode_ns,
            "validate": r.timings.validate_ns,
            "bind": r.timings.bind_ns,
        },
    })
}

fn measure(cfg: &ModelConfig, iters: usize) -> (f64, RestoredState, f64, RestoredState) {
    let root = tempfile::tempdir().unwrap();
    let dir = build_checkpoint(root.path(), cfg);
    // Warm the page cache so both modes read memory-resident files and
    // the comparison isolates the engine's CPU-side pipeline.
    time_restore(&dir, Parallelism::Sequential, 1);
    let (seq_secs, seq) = time_restore(&dir, Parallelism::Sequential, iters);
    let (par_secs, par) = time_restore(&dir, Parallelism::Rayon, iters);
    (seq_secs, seq, par_secs, par)
}

fn smoke() {
    let cfg = ModelConfig::llama31_8b_sim();
    let (seq_secs, seq, par_secs, par) = measure(&cfg, 3);

    check(
        states_equal(&par, &seq),
        "parallel and sequential restores bound different states",
    );
    check(
        par.report.files_fetched > 30,
        "dedup checkpoint restored from too few files",
    );
    check(
        par.report.digests_verified > 0,
        "verify-on-read checked no digests",
    );
    let t = &par.report.timings;
    check(
        t.fetch_ns > 0 && t.decode_ns > 0 && t.validate_ns > 0 && t.bind_ns > 0,
        &format!("empty restore stage timings {t:?}"),
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = seq_secs / par_secs.max(1e-9);
    if cores >= 4 {
        check(
            speedup >= 2.0,
            &format!(
                "parallel restore only {speedup:.2}x faster than sequential \
                 ({par_secs:.4}s vs {seq_secs:.4}s on {cores} cores)"
            ),
        );
    }
    println!(
        "restore_throughput smoke OK: {} files, {} B, sequential {seq_secs:.4}s, \
         parallel {par_secs:.4}s ({speedup:.2}x, {cores} cores)",
        par.report.files_fetched, par.report.bytes_fetched
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let cfg = ModelConfig::llama31_8b_sim();
    eprintln!(
        "measuring sequential vs parallel restore on {}...",
        cfg.model_name
    );
    let (seq_secs, seq, par_secs, par) = measure(&cfg, 5);
    let out = json!({
        "model": cfg.model_name,
        "world_size": WORLD,
        "cores": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "speedup": seq_secs / par_secs.max(1e-9),
        "modes": [
            report_json("sequential", seq_secs, &seq),
            report_json("parallel", par_secs, &par),
        ],
    });
    println!("{}", serde_json::to_string_pretty(&out).unwrap());
}
