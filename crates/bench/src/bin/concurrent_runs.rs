//! Multi-run contention: N training runs checkpointing concurrently into
//! one shared content-addressed store through the store coordinator.
//!
//! The measurement: aggregate save throughput (logical bytes committed
//! per wall second across all runs), the shared store's physical
//! footprint versus the logical total (cross-run dedup), peak bytes in
//! flight under admission control, and the time publishers spent queued
//! for a permit. A final coordinated GC pass plus re-verify proves that
//! the concurrency was safe, not just fast.
//!
//! Run: `cargo run --release -p llmt-bench --bin concurrent_runs \
//!   [-- --smoke] [--daemon] [--out <FILE>]`
//!
//! `--smoke` runs a seconds-scale CI check: 4 concurrent runs x 2 saves
//! against one shared store, asserting every checkpoint commits and
//! verifies, physical bytes stay below logical bytes (cross-run dedup
//! actually happened), peak in-flight bytes respect the admission budget,
//! and a GC pass sweeps nothing a committed checkpoint references. Exits
//! non-zero on any violation.
//!
//! `--daemon` routes every save through an in-process `llmtailord`
//! instead of an embedded coordinator: each run owns its own client
//! connection, admission and commit travel over the socket, and the
//! tensor bytes land in the shared store via the `CASROOT` redirect.
//! The comparison against the embedded path is the daemon's overhead
//! bill. `--out <FILE>` (with `--smoke`) writes the measurement as JSON
//! (`BENCH_daemon_concurrent.json` in CI).

use llmt_ckpt::engine::{LiveState, SaveOptions};
use llmt_ckpt::writer::SaveRequest;
use llmt_ckpt::{scan_run_root, CheckpointPaths, TrainerState};
use llmt_coord::{CoordConfig, Coordinator};
use llmt_daemon::{Daemon, DaemonClient, DaemonConfig};
use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
use llmt_storage::vfs::{LocalFs, Storage};
use llmt_tensor::rng::Prng;
use llmt_zero::ZeroEngine;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn make_state(cfg: &ModelConfig, seed: u64) -> (Model, ZeroEngine, TrainerState) {
    let mut model = Model::new(cfg.clone(), seed);
    let mut engine = ZeroEngine::new(
        &model.params,
        build_groups(cfg, GroupLayout::LayerWise),
        2,
        AdamWHyper::default(),
    );
    let mut rng = Prng::seed_from_u64(seed);
    let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
    let batch = Batch::new(tokens, 2, 8);
    let mut grads = ParamSet::zeros(cfg);
    model.loss_and_grad(&batch, &mut grads);
    engine.step(&mut model.params, &grads, 1e-3, true);
    let ts = TrainerState {
        global_step: 1,
        ckpt_event: 0,
        lr_schedule: LrSchedule::Constant { lr: 1e-3 },
        last_lr: 1e-3,
        loss_history: vec![(1, 3.0)],
        data_rng: Prng::seed_from_u64(seed),
        task: "bench".into(),
        model_name: cfg.model_name.clone(),
        micro_batch: 2,
        grad_accum: 1,
        seq_len: 8,
    };
    (model, engine, ts)
}

struct Outcome {
    logical_bytes: u64,
    physical_bytes: u64,
    elapsed: Duration,
    peak_inflight: u64,
    wait_ns: u64,
    checkpoints: usize,
}

/// `runs` publishers, each saving `saves` checkpoints of `cfg`-sized
/// state into one shared store under the coordinator's admission budget.
fn contend(cfg: &ModelConfig, root: &Path, runs: usize, saves: u64) -> Outcome {
    let coord = Coordinator::open_on(
        Arc::new(LocalFs),
        root,
        CoordConfig {
            save_slots: 2,
            max_inflight_bytes: 128 * 1024 * 1024,
            drain_timeout: Duration::from_millis(200),
        },
        Arc::new(llmt_storage::vfs::SystemClock),
    )
    .expect("open coordinator");

    let started = Instant::now();
    let totals: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..runs)
            .map(|r| {
                let coord = coord.clone();
                let cfg = cfg.clone();
                scope.spawn(move || {
                    // Same seed for every run: the worst (= most
                    // contended) and most favourable dedup case, like N
                    // fine-tunes forked from one base checkpoint.
                    let (model, zero, ts) = make_state(&cfg, 7);
                    let units = LayerUnit::all(&cfg);
                    let run = format!("run-{r}");
                    let mut logical = 0u64;
                    let mut physical = 0u64;
                    for step in 1..=saves {
                        let session = coord
                            .publisher(&run, 4 * 1024 * 1024)
                            .expect("admit publisher");
                        let report = session
                            .save(
                                &SaveRequest {
                                    dir: &CheckpointPaths::under(session.run_root(), step).dir,
                                    step,
                                    source: &LiveState {
                                        config: &cfg,
                                        params: &model.params,
                                        engine: &zero,
                                    },
                                    trainer_state: &ts,
                                    units: &units,
                                    metrics: &MetricsRegistry::new(),
                                    store: None,
                                    bases: None,
                                },
                                &SaveOptions::default(),
                            )
                            .expect("concurrent save succeeds");
                        logical += report.total_bytes;
                        physical += report.physical_bytes;
                    }
                    (logical, physical)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();

    let metrics = coord.metrics();
    Outcome {
        logical_bytes: totals.iter().map(|t| t.0).sum(),
        physical_bytes: totals.iter().map(|t| t.1).sum(),
        elapsed,
        peak_inflight: metrics.gauge("coord.inflight_bytes").peak(),
        wait_ns: metrics.histogram_sum("coord.admission.wait"),
        checkpoints: runs * saves as usize,
    }
}

/// The same contention shape as [`contend`], but every run is a client
/// of one resident `llmtailord`: admission, commit, and GC arbitration
/// all travel over the daemon socket while the tensor bytes take the
/// `CASROOT` redirect straight into the shared store.
fn contend_daemon(cfg: &ModelConfig, root: &Path, runs: usize, saves: u64) -> Outcome {
    let daemon = Daemon::serve(
        root,
        DaemonConfig {
            coord: CoordConfig {
                save_slots: 2,
                max_inflight_bytes: 128 * 1024 * 1024,
                drain_timeout: Duration::from_millis(200),
            },
            gc_interval: None,
            drain_interval: None,
            ..DaemonConfig::default()
        },
    )
    .expect("serve llmtailord");
    let socket = daemon.socket().to_path_buf();

    let started = Instant::now();
    let totals: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..runs)
            .map(|r| {
                let socket = socket.clone();
                let cfg = cfg.clone();
                scope.spawn(move || {
                    let (model, zero, ts) = make_state(&cfg, 7);
                    let units = LayerUnit::all(&cfg);
                    let run = format!("run-{r}");
                    let mut client = DaemonClient::connect(&socket).expect("connect");
                    let mut logical = 0u64;
                    let mut physical = 0u64;
                    for step in 1..=saves {
                        let req = SaveRequest {
                            dir: Path::new(""), // the daemon session grants the real one
                            step,
                            source: &LiveState {
                                config: &cfg,
                                params: &model.params,
                                engine: &zero,
                            },
                            trainer_state: &ts,
                            units: &units,
                            metrics: &MetricsRegistry::new(),
                            store: None,
                            bases: None,
                        };
                        let (report, _) = client
                            .save(
                                &LocalFs,
                                &run,
                                4 * 1024 * 1024,
                                &req,
                                &SaveOptions::default(),
                            )
                            .expect("save through the daemon succeeds");
                        logical += report.total_bytes;
                        physical += report.physical_bytes;
                    }
                    (logical, physical)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();

    let metrics = daemon.metrics().clone();
    daemon.shutdown();
    Outcome {
        logical_bytes: totals.iter().map(|t| t.0).sum(),
        physical_bytes: totals.iter().map(|t| t.1).sum(),
        elapsed,
        peak_inflight: metrics.gauge("coord.inflight_bytes").peak(),
        wait_ns: metrics.histogram_sum("coord.admission.wait"),
        checkpoints: runs * saves as usize,
    }
}

fn verify_all(root: &Path) -> usize {
    let storage: Arc<dyn Storage> = Arc::new(LocalFs);
    let mut verified = 0;
    for entry in std::fs::read_dir(root.join(llmt_coord::RUNS_DIR))
        .expect("runs dir")
        .flatten()
    {
        for cp in &scan_run_root(&entry.path()).committed {
            let report = llmt_ckpt::verify_checkpoint_on(storage.clone(), &cp.dir, true)
                .expect("verify runs");
            assert!(
                report.ok(),
                "{} failed verify after concurrent saves: {:?}",
                cp.dir.display(),
                report.findings
            );
            verified += 1;
        }
    }
    verified
}

fn check(cond: bool, what: &str) {
    if !cond {
        eprintln!("SMOKE FAIL: {what}");
        std::process::exit(1);
    }
}

/// Hand-rendered so the artifact shape is fixed: one flat JSON object,
/// keys stable across runs, consumable by `grep`/`jq` in CI.
fn render_report(mode: &str, runs: usize, saves: u64, out: &Outcome) -> String {
    let secs = out.elapsed.as_secs_f64();
    format!(
        "{{\n  \"bench\": \"concurrent_runs\",\n  \"mode\": \"{mode}\",\n  \
         \"runs\": {runs},\n  \"saves_per_run\": {saves},\n  \
         \"checkpoints\": {},\n  \"logical_bytes\": {},\n  \
         \"physical_bytes\": {},\n  \"dedup_ratio\": {:.3},\n  \
         \"elapsed_ms\": {:.1},\n  \"agg_mb_per_s\": {:.1},\n  \
         \"peak_inflight_bytes\": {},\n  \"queued_ms\": {:.1}\n}}\n",
        out.checkpoints,
        out.logical_bytes,
        out.physical_bytes,
        out.logical_bytes as f64 / out.physical_bytes.max(1) as f64,
        secs * 1e3,
        out.logical_bytes as f64 / 1e6 / secs.max(1e-9),
        out.peak_inflight,
        out.wait_ns as f64 / 1e6,
    )
}

fn smoke(daemon: bool, out_path: Option<&str>) {
    let dir = tempfile::tempdir().unwrap();
    let cfg = ModelConfig::tiny_test();
    let (runs, saves) = (4usize, 2u64);
    let out = if daemon {
        contend_daemon(&cfg, dir.path(), runs, saves)
    } else {
        contend(&cfg, dir.path(), runs, saves)
    };
    check(
        verify_all(dir.path()) == out.checkpoints,
        "every concurrent checkpoint must commit and deep-verify",
    );
    check(
        out.physical_bytes < out.logical_bytes,
        "shared store must dedup across concurrent runs",
    );
    check(
        out.peak_inflight <= 128 * 1024 * 1024,
        "peak in-flight bytes must respect the admission budget",
    );

    // A coordinated GC pass must not touch anything the survivors use.
    let coord = Coordinator::open(dir.path()).unwrap();
    coord.collector().unwrap().collect().unwrap();
    check(
        verify_all(dir.path()) == out.checkpoints,
        "checkpoints must still verify after a coordinated GC pass",
    );
    if let Some(path) = out_path {
        let report = render_report(
            if daemon { "daemon" } else { "embedded" },
            runs,
            saves,
            &out,
        );
        std::fs::write(path, report).expect("write bench report");
        println!("wrote {path}");
    }
    println!(
        "concurrent_runs smoke OK ({}): {} checkpoints, {} logical -> {} physical bytes, \
         peak inflight {} bytes, {:.1} ms queued",
        if daemon { "daemon" } else { "embedded" },
        out.checkpoints,
        out.logical_bytes,
        out.physical_bytes,
        out.peak_inflight,
        out.wait_ns as f64 / 1e6
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let daemon = args.iter().any(|a| a == "--daemon");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str());
    if args.iter().any(|a| a == "--smoke") {
        smoke(daemon, out_path);
        return;
    }

    println!(
        "concurrent runs vs one shared checkpoint store ({}, llama32-1b-sim, 3 saves each)\n",
        if daemon {
            "via llmtailord"
        } else {
            "embedded coordinator"
        }
    );
    println!(
        "{:<6} {:>14} {:>16} {:>10} {:>14} {:>12}",
        "runs", "agg MB/s", "dedup ratio", "time (s)", "peak inflight", "queued (ms)"
    );
    let cfg = ModelConfig::llama32_1b_sim();
    for runs in [1usize, 2, 4, 8] {
        let dir = tempfile::tempdir().unwrap();
        let out = if daemon {
            contend_daemon(&cfg, dir.path(), runs, 3)
        } else {
            contend(&cfg, dir.path(), runs, 3)
        };
        let secs = out.elapsed.as_secs_f64();
        println!(
            "{:<6} {:>14.1} {:>16.3} {:>10.2} {:>14} {:>12.1}",
            runs,
            out.logical_bytes as f64 / 1e6 / secs,
            out.logical_bytes as f64 / out.physical_bytes.max(1) as f64,
            secs,
            out.peak_inflight,
            out.wait_ns as f64 / 1e6
        );
        let verified = verify_all(dir.path());
        assert_eq!(
            verified, out.checkpoints,
            "checkpoint lost under contention"
        );
    }
    println!(
        "\nshape: aggregate throughput rises with run count until the save-slot \
         budget saturates; dedup ratio scales with run count because forked runs \
         share almost every object; queued time is the backpressure making that safe."
    );
}
