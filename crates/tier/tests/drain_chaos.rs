//! Kill-point sweep over the background drain: a crash at *every*
//! individual storage op of the drain path must never lose a
//! committed-and-durable checkpoint, never let a torn lower-tier copy
//! masquerade as committed, and always leave the queue resumable.
//!
//! Shape mirrors the save-path chaos suite: one clean run counts the
//! drain's storage ops through a never-faulting [`FaultyFs`], then the
//! sweep re-runs the scenario once per op with a [`FaultKind::Crash`]
//! armed at that op. After each crash the store is reopened on healthy
//! storage (process death wipes the memory tier) and recovery must
//! either (a) report the checkpoint lost-on-crash because its only copy
//! was volatile — in which case no durable tier may restore it — or
//! (b) keep it, resume the drain, and produce verify-on-read bit-exact
//! restores from both durable tiers.

use llmt_ckpt::engine::{LiveState, Parallelism, SaveOptions};
use llmt_ckpt::writer::SaveRequest;
use llmt_ckpt::{CheckpointPaths, RestoreRequest, TrainerState};
use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
use llmt_storage::vfs::{FaultKind, FaultSpec, FaultyFs, LocalFs, ManualClock, Storage};
use llmt_tensor::rng::Prng;
use llmt_tier::{ObjectTierConfig, TierConfig, TierLevel, TierManager, OBJECT_DIR, TIER_DIR};
use llmt_zero::ZeroEngine;
use std::path::Path;
use std::sync::Arc;

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
        task: "drain-chaos".into(),
        model_name: cfg.model_name.clone(),
        micro_batch: 2,
        grad_accum: 1,
        seq_len: 8,
    };
    (model, engine, ts)
}

fn tier_cfg() -> TierConfig {
    TierConfig {
        mem_capacity: Some(64 << 20),
        mem_model: None,
        object: Some(ObjectTierConfig::default()),
        drain_bw: 0.0,
        evict_high_water: 0.75,
    }
}

/// Sequential saves give the sweep a deterministic op schedule, so the
/// clean run's op counter aligns with every kill run's.
fn save_opts() -> SaveOptions {
    SaveOptions {
        parallelism: Parallelism::Sequential,
        ..SaveOptions::default()
    }
}

fn save_step(mgr: &TierManager, root: &Path, cfg: &ModelConfig, step: u64) {
    let (model, engine, ts) = make_state(cfg, step);
    let units = LayerUnit::all(cfg);
    mgr.save(
        &SaveRequest {
            dir: &CheckpointPaths::under(root, step).dir,
            step,
            source: &LiveState {
                config: cfg,
                params: &model.params,
                engine: &engine,
            },
            trainer_state: &ts,
            units: &units,
            metrics: &MetricsRegistry::new(),
            store: None,
            bases: None,
        },
        &save_opts(),
    )
    .expect("chaos save");
}

fn open_on(root: &Path, fs: Arc<dyn Storage>) -> Arc<TierManager> {
    TierManager::open(
        root,
        fs,
        tier_cfg(),
        Arc::new(ManualClock::default()),
        llmt_obs::MetricsRegistry::new(),
    )
    .expect("open tier manager")
}

#[test]
fn drain_kill_sweep_never_loses_a_durable_checkpoint() {
    let cfg = ModelConfig::tiny_test();
    const STEP: u64 = 2;

    // Clean run: find the window of storage ops the drain performs.
    let (start, end) = {
        let tmp = tempfile::tempdir().unwrap();
        let counter = Arc::new(FaultyFs::new(LocalFs, FaultSpec::never()));
        let mgr = open_on(tmp.path(), counter.clone());
        save_step(&mgr, tmp.path(), &cfg, STEP);
        let before = counter.ops_attempted();
        mgr.drain_all().expect("clean drain");
        (before, counter.ops_attempted())
    };
    assert!(end > start, "the drain performs storage ops");

    let mut lost_windows = 0u64;
    let mut resumed = 0u64;
    for k in start..end {
        let tmp = tempfile::tempdir().unwrap();
        let root = tmp.path();
        let faulty = Arc::new(FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: k,
                kind: FaultKind::Crash,
            },
        ));
        let mgr = open_on(root, faulty.clone());
        save_step(&mgr, root, &cfg, STEP);
        // The drain dies at op `k` (late kill points may let it finish).
        let _ = mgr.drain_all();
        drop(mgr);

        // Reopen on healthy storage. Process death wiped the memory
        // tier; recovery folds in completed hops and quarantines the
        // rest.
        let mgr = open_on(root, Arc::new(LocalFs));
        let status = mgr.status();
        let req = RestoreRequest::default();
        if status.lost_on_crash.contains(&STEP) {
            // The only copy was volatile: bounded loss. No durable tier
            // may present the partial remains as a committed checkpoint.
            lost_windows += 1;
            for level in [TierLevel::Fs, TierLevel::Object] {
                assert!(
                    mgr.restore_from(level, STEP, &req).is_err(),
                    "k={k}: partial remains restored from {level}"
                );
            }
        } else {
            resumed += 1;
            mgr.drain_all()
                .unwrap_or_else(|e| panic!("k={k}: resume drain: {e}"));
            assert_eq!(mgr.pending_drains(), 0, "k={k}: queue fully drained");
            for level in [TierLevel::Fs, TierLevel::Object] {
                // verify=true recomputes manifest digests — a torn or
                // resumed-but-corrupt copy cannot pass.
                mgr.restore_from(level, STEP, &req)
                    .unwrap_or_else(|e| panic!("k={k}: verified restore from {level}: {e}"));
            }
            let rel = Path::new(&format!("checkpoint-{STEP}")).join("model.safetensors");
            let on_fs = LocalFs.read(&root.join(&rel)).unwrap();
            let on_object = LocalFs
                .read(&root.join(TIER_DIR).join(OBJECT_DIR).join(&rel))
                .unwrap();
            assert_eq!(on_fs, on_object, "k={k}: object copy diverged");
        }
    }
    // Both regimes must actually occur across the window, otherwise the
    // sweep isn't exercising what it claims.
    assert!(
        lost_windows > 0,
        "no kill point hit the volatile-only window"
    );
    assert!(resumed > 0, "no kill point left a resumable queue");
}
