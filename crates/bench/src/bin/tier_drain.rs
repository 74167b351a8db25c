//! Time-to-unblock of tiered checkpointing vs a synchronous flush to the
//! durable target, on the calibrated storage model (no wall-clock I/O is
//! timed; every charge lands on an injected `ManualClock`).
//!
//! Run: `cargo run --release -p llmt-bench --bin tier_drain [-- --smoke]`
//!
//! Baseline: the engine saves straight onto a modeled parallel-fs target
//! (`StorageModel::lustre_paper`) — the trainer is blocked for the full
//! modeled write. Tiered: the same state commits onto a DRAM-speed
//! memory tier through `llmt-tier`, unblocking the trainer, and the
//! drainer then copies down to the local fs tier and the lustre-modeled
//! object tier in the background.
//!
//! `--smoke` enforces the acceptance gate: tiered time-to-unblock must
//! be at most 25% of the baseline flush, the drain must leave zero
//! pending hops, every tier must serve a verify-on-read restore, and the
//! object copy must be byte-identical to the fs copy. Exits non-zero on
//! any violation.

use llmt_ckpt::engine::{self, LiveState, SaveOptions};
use llmt_ckpt::writer::SaveRequest;
use llmt_ckpt::{CheckpointPaths, RestoreRequest, TrainerState};
use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
use llmt_storage::vfs::{LocalFs, ManualClock, Storage};
use llmt_storage::StorageModel;
use llmt_tensor::rng::Prng;
use llmt_tier::{
    ModeledStorage, ObjectTierConfig, TierConfig, TierLevel, TierManager, OBJECT_DIR, TIER_DIR,
};
use llmt_zero::ZeroEngine;
use serde_json::json;
use std::path::Path;
use std::sync::Arc;

fn check(ok: bool, what: &str) {
    if !ok {
        eprintln!("tier_drain smoke FAILED: {what}");
        std::process::exit(1);
    }
}

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
        task: "tier-bench".into(),
        model_name: cfg.model_name.clone(),
        micro_batch: 2,
        grad_accum: 1,
        seq_len: 8,
    };
    (model, engine, ts)
}

/// DRAM-class staging tier: tens of GB/s, microsecond "latency".
fn dram_model() -> StorageModel {
    StorageModel {
        write_bw: 20.0e9,
        read_bw: 25.0e9,
        per_file_latency: 2e-6,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let cfg = ModelConfig::tiny_test();
    let step = 100u64;
    let units = LayerUnit::all(&cfg);

    // ---- Baseline: synchronous flush to the modeled durable target.
    let base_dir = tempfile::tempdir().expect("tempdir");
    let base_clock = Arc::new(ManualClock::default());
    let lustre = ModeledStorage::new(LocalFs, StorageModel::lustre_paper(), base_clock.clone());
    let (model, engine, ts) = make_state(&cfg, 7);
    let live = LiveState {
        config: &cfg,
        params: &model.params,
        engine: &engine,
    };
    let registry = MetricsRegistry::new();
    let tier_dir = tempfile::tempdir().expect("tempdir");
    let root = tier_dir.path();
    let base_ckpt = CheckpointPaths::under(base_dir.path(), step).dir;
    let tier_ckpt = CheckpointPaths::under(root, step).dir;
    let req_in = |dir| SaveRequest {
        dir,
        step,
        source: &live,
        trainer_state: &ts,
        units: &units,
        metrics: &registry,
        store: None,
        bases: None,
    };
    let report = engine::save(&[&lustre], &req_in(&base_ckpt), &SaveOptions::default())
        .expect("baseline save")
        .report;
    let baseline_unblock_s = base_clock.slept_nanos() as f64 / 1e9;

    // ---- Tiered: commit on DRAM, drain to local fs + modeled object
    // store in the background. Same state, same clock discipline.
    let clock = Arc::new(ManualClock::default());
    let tier_cfg = TierConfig {
        mem_capacity: Some(1 << 30),
        mem_model: Some(dram_model()),
        object: Some(ObjectTierConfig {
            model: StorageModel::lustre_paper(),
            ..ObjectTierConfig::default()
        }),
        drain_bw: 0.0, // unthrottled: drain cost is the pure model charge
        evict_high_water: 0.75,
    };
    let metrics = MetricsRegistry::new();
    let mgr = TierManager::open(root, Arc::new(LocalFs), tier_cfg, clock.clone(), metrics)
        .expect("open tier manager");
    let before_save = clock.slept_nanos();
    let placed = mgr
        .save(&req_in(&tier_ckpt), &SaveOptions::default())
        .expect("tiered save");
    let tiered_unblock_s = (clock.slept_nanos() - before_save) as f64 / 1e9;

    let before_drain = clock.slept_nanos();
    let hops = mgr.drain_all().expect("drain");
    let drain_s = (clock.slept_nanos() - before_drain) as f64 / 1e9;

    let ratio = if baseline_unblock_s > 0.0 {
        tiered_unblock_s / baseline_unblock_s
    } else {
        f64::INFINITY
    };

    // Verified restores from every tier + physical byte equality.
    let req = RestoreRequest::default();
    let mut tiers_verified = 0;
    for level in [TierLevel::Mem, TierLevel::Fs, TierLevel::Object] {
        match mgr.restore_from(level, step, &req) {
            Ok(_) => tiers_verified += 1,
            Err(e) => check(false, &format!("verified restore from {level}: {e}")),
        }
    }
    let rel = Path::new(&format!("checkpoint-{step}")).join("model.safetensors");
    let on_fs = LocalFs.read(&root.join(&rel)).expect("fs copy");
    let on_object = LocalFs
        .read(&root.join(TIER_DIR).join(OBJECT_DIR).join(&rel))
        .expect("object copy");

    let out = json!({
        "checkpoint_bytes": report.total_bytes,
        "placed_tier": placed.placed.as_str(),
        "baseline_unblock_s": baseline_unblock_s,
        "tiered_unblock_s": tiered_unblock_s,
        "unblock_ratio": ratio,
        "drain_s": drain_s,
        "drain_hops": hops.len(),
        "pending_after_drain": mgr.pending_drains(),
        "tiers_verified": tiers_verified,
        "object_bit_exact": on_fs == on_object,
    });
    println!("{}", serde_json::to_string_pretty(&out).unwrap());

    if smoke {
        check(
            placed.placed == TierLevel::Mem,
            "tiered save did not commit on the memory tier",
        );
        check(
            ratio <= 0.25,
            &format!("time-to-unblock ratio {ratio:.4} exceeds the 25% gate"),
        );
        check(hops.len() == 2, "expected fs + object drain hops");
        check(mgr.pending_drains() == 0, "drain left pending hops");
        check(tiers_verified == 3, "a tier failed its verified restore");
        check(on_fs == on_object, "object copy diverged from fs copy");
        check(
            baseline_unblock_s > 0.0,
            "baseline flush charged no modeled time",
        );
        println!(
            "tier_drain smoke OK: unblock {:.3} ms tiered vs {:.3} ms flushed ({:.1}% of baseline)",
            tiered_unblock_s * 1e3,
            baseline_unblock_s * 1e3,
            ratio * 100.0
        );
    }
}
