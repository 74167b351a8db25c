//! Integration tests for the tiered checkpoint store: placement
//! fallthrough, drain bit-exactness, crash/restart residency, eviction,
//! read-through promotion, and object-store retry semantics.

use llmt_ckpt::engine::{LiveState, SaveOptions};
use llmt_ckpt::writer::SaveRequest;
use llmt_ckpt::TrainerState;
use llmt_ckpt::{CheckpointPaths, CkptError, RestoreRequest};
use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
use llmt_storage::vfs::{LocalFs, ManualClock, RetryPolicy, RetryingStorage, Storage};
use llmt_storage::StorageModel;
use llmt_tensor::rng::Prng;
use llmt_tier::{
    load_status, FlakeSpec, MemStorage, ModeledStorage, ObjectTierConfig, TierConfig, TierLevel,
    TierManager, OBJECT_DIR, TIER_DIR,
};
use llmt_zero::ZeroEngine;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};

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
        task: "tier".into(),
        model_name: cfg.model_name.clone(),
        micro_batch: 2,
        grad_accum: 1,
        seq_len: 8,
    };
    (model, engine, ts)
}

fn save_step(mgr: &TierManager, root: &Path, cfg: &ModelConfig, step: u64) -> TierLevel {
    try_save_step(mgr, root, cfg, step).expect("tiered save")
}

fn try_save_step(
    mgr: &TierManager,
    root: &Path,
    cfg: &ModelConfig,
    step: u64,
) -> llmt_ckpt::Result<TierLevel> {
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
        &SaveOptions::default(),
    )
    .map(|placed| placed.placed)
}

fn cfg_all_tiers() -> TierConfig {
    TierConfig {
        mem_capacity: Some(64 << 20),
        mem_model: None,
        object: Some(ObjectTierConfig::default()),
        drain_bw: 0.0,
        evict_high_water: 0.75,
    }
}

fn open_mgr(
    root: &Path,
    cfg: TierConfig,
) -> (
    Arc<TierManager>,
    Arc<ManualClock>,
    llmt_obs::MetricsRegistry,
) {
    let clock = Arc::new(ManualClock::default());
    let metrics = llmt_obs::MetricsRegistry::new();
    let mgr = TierManager::open(root, Arc::new(LocalFs), cfg, clock.clone(), metrics.clone())
        .expect("open tier manager");
    (mgr, clock, metrics)
}

#[test]
fn memory_tier_read_range_past_eof_is_typed() {
    let mem = MemStorage::new(1 << 20);
    let p = Path::new("/m/file.bin");
    mem.write(p, b"0123456789").unwrap();
    for (off, len) in [(20u64, 1usize), (8, 5), (10, 1)] {
        let err = mem.read_range(p, off, len).unwrap_err();
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof,
            "({off},{len})"
        );
        assert!(err.to_string().contains("file.bin"), "path in: {err}");
    }
    assert_eq!(mem.read_range(p, 4, 6).unwrap(), b"456789");
    assert_eq!(mem.read_range(p, 10, 0).unwrap(), b"");
}

#[test]
fn save_drain_restore_bit_exact_from_every_tier() {
    let tmp = tempfile::tempdir().unwrap();
    let root = tmp.path();
    let cfg = ModelConfig::tiny_test();
    let (mgr, _clock, metrics) = open_mgr(root, cfg_all_tiers());

    // Commit lands on the memory tier; nothing durable on fs yet beside
    // tier metadata.
    assert_eq!(save_step(&mgr, root, &cfg, 10), TierLevel::Mem);
    assert_eq!(metrics.counter_value("tier.place.mem"), 1);
    assert_eq!(mgr.pending_drains(), 2, "fs + object hops queued");
    let commit = root.join("checkpoint-10").join("COMMIT");
    assert!(
        !LocalFs.exists(&commit),
        "fs must not see a commit before the drain"
    );

    let reports = mgr.drain_all().expect("drain");
    assert_eq!(reports.len(), 2);
    assert_eq!(mgr.pending_drains(), 0);
    assert!(LocalFs.exists(&commit));

    // verify=true restores recompute manifest digests: passing from
    // every tier independently proves each copy is bit-exact.
    let req = RestoreRequest::default();
    let mut states = Vec::new();
    for level in [TierLevel::Mem, TierLevel::Fs, TierLevel::Object] {
        let st = mgr
            .restore_from(level, 10, &req)
            .unwrap_or_else(|e| panic!("restore from {level}: {e}"));
        states.push(st);
    }
    for st in &states[1..] {
        assert_eq!(
            st.trainer_state.global_step,
            states[0].trainer_state.global_step
        );
        assert_eq!(st.weights.len(), states[0].weights.len());
    }
    // Physical byte equality between the canonical fs tree and the
    // object tier's backing directory.
    let model_rel = Path::new("checkpoint-10").join("model.safetensors");
    let on_fs = LocalFs.read(&root.join(&model_rel)).unwrap();
    let on_object = LocalFs
        .read(&root.join(TIER_DIR).join(OBJECT_DIR).join(&model_rel))
        .unwrap();
    assert_eq!(on_fs, on_object, "object drain must be byte-identical");

    // Residency telemetry: live status and the offline loader agree.
    let live = mgr.status();
    assert_eq!(live.pending_drains, 0);
    assert_eq!(live.mem_resident_bytes, live.fs_resident_bytes);
    assert_eq!(live.object_resident_bytes, live.fs_resident_bytes);
    let off = load_status(&LocalFs, root).unwrap().expect("state file");
    assert_eq!(off.pending_drains, 0);
    assert_eq!(off.fs_resident_bytes, live.fs_resident_bytes);
    assert_eq!(metrics.counter_value("tier.drain.count"), 2);
    assert!(metrics.counter_value("tier.drain.bytes") > 0);
}

#[test]
fn full_memory_tier_falls_through_to_fs() {
    let tmp = tempfile::tempdir().unwrap();
    let root = tmp.path();
    let cfg = ModelConfig::tiny_test();
    let mut tier_cfg = cfg_all_tiers();
    tier_cfg.mem_capacity = Some(4 << 10); // far below one checkpoint
    let (mgr, _clock, metrics) = open_mgr(root, tier_cfg);

    assert_eq!(save_step(&mgr, root, &cfg, 3), TierLevel::Fs);
    assert!(LocalFs.exists(&root.join("checkpoint-3").join("COMMIT")));
    assert!(metrics.counter_value("ckpt.place.fallthrough") >= 1);
    assert_eq!(mgr.pending_drains(), 1, "only the object hop remains");

    mgr.drain_all().unwrap();
    mgr.restore_from(TierLevel::Object, 3, &RestoreRequest::default())
        .expect("object copy restores after fallthrough");
}

#[test]
fn restart_records_volatile_only_checkpoints_as_lost() {
    let tmp = tempfile::tempdir().unwrap();
    let root = tmp.path();
    let cfg = ModelConfig::tiny_test();
    {
        let (mgr, _clock, _m) = open_mgr(root, cfg_all_tiers());
        save_step(&mgr, root, &cfg, 5);
        // No drain: the only committed copy is volatile.
    }
    let (mgr, _clock, _m) = open_mgr(root, cfg_all_tiers());
    let status = mgr.status();
    assert_eq!(status.lost_on_crash, vec![5]);
    assert!(status.checkpoints.is_empty());
    assert_eq!(mgr.pending_drains(), 0);
    assert!(
        mgr.restore(5, &RestoreRequest::default()).is_err(),
        "a lost checkpoint must not restore from partial remains"
    );
}

#[test]
fn resaving_a_lost_step_durably_clears_the_loss_report() {
    let tmp = tempfile::tempdir().unwrap();
    let root = tmp.path();
    let cfg = ModelConfig::tiny_test();
    {
        let (mgr, _clock, _m) = open_mgr(root, cfg_all_tiers());
        save_step(&mgr, root, &cfg, 5);
        // No drain: the only committed copy is volatile.
    }
    let (mgr, _clock, _m) = open_mgr(root, cfg_all_tiers());
    assert_eq!(mgr.status().lost_on_crash, vec![5]);

    // Re-save the same step. The commit lands on memory again, so the
    // loss stands until the first durable copy exists.
    assert_eq!(save_step(&mgr, root, &cfg, 5), TierLevel::Mem);
    assert_eq!(
        mgr.status().lost_on_crash,
        vec![5],
        "a volatile re-save must not clear the loss yet"
    );
    let r = mgr.drain_step().unwrap().expect("fs hop");
    assert_eq!(r.to, TierLevel::Fs);
    assert!(
        mgr.status().lost_on_crash.is_empty(),
        "durable re-publish must clear the stale loss entry"
    );
    // And the cleared report survives crash + recovery.
    drop(mgr);
    let (mgr, _clock, _m) = open_mgr(root, cfg_all_tiers());
    assert!(mgr.status().lost_on_crash.is_empty());
    assert!(load_status(&LocalFs, root)
        .unwrap()
        .expect("state file")
        .lost_on_crash
        .is_empty());
    mgr.restore(5, &RestoreRequest::default())
        .expect("re-saved step restores from its durable copy");

    // A re-save that places directly on a durable tier clears the loss
    // at commit time, no drain needed.
    let tmp2 = tempfile::tempdir().unwrap();
    let root2 = tmp2.path();
    {
        let (mgr, _clock, _m) = open_mgr(root2, cfg_all_tiers());
        save_step(&mgr, root2, &cfg, 7);
    }
    let mut fs_only = cfg_all_tiers();
    fs_only.mem_capacity = Some(4 << 10); // too small: falls through to fs
    let (mgr, _clock, _m) = open_mgr(root2, fs_only);
    assert_eq!(mgr.status().lost_on_crash, vec![7]);
    assert_eq!(save_step(&mgr, root2, &cfg, 7), TierLevel::Fs);
    assert!(mgr.status().lost_on_crash.is_empty());
}

#[test]
fn restart_resumes_interrupted_drain_queue() {
    let tmp = tempfile::tempdir().unwrap();
    let root = tmp.path();
    let cfg = ModelConfig::tiny_test();
    {
        let (mgr, _clock, _m) = open_mgr(root, cfg_all_tiers());
        save_step(&mgr, root, &cfg, 9);
        // Drain only the fs hop, then "crash" before the object hop.
        let r = mgr.drain_step().unwrap().expect("one hop");
        assert_eq!(r.to, TierLevel::Fs);
    }
    let (mgr, _clock, _m) = open_mgr(root, cfg_all_tiers());
    let status = mgr.status();
    assert!(status.lost_on_crash.is_empty());
    assert_eq!(status.pending_drains, 1, "object hop survives the restart");
    mgr.drain_all().unwrap();
    mgr.restore_from(TierLevel::Object, 9, &RestoreRequest::default())
        .expect("resumed drain produced a committed object copy");
    let row = &mgr.status().checkpoints[0];
    assert_eq!(
        row.resident,
        vec!["fs", "object"],
        "mem residency is volatile"
    );
}

#[test]
fn writeback_eviction_frees_memory_oldest_first() {
    let tmp = tempfile::tempdir().unwrap();
    let root = tmp.path();
    let cfg = ModelConfig::tiny_test();

    // Size the tier from a real checkpoint: capacity fits two, the
    // high-water mark sits between one and two.
    let ckpt_bytes = {
        let probe = tempfile::tempdir().unwrap();
        let (mgr, _clock, _m) = open_mgr(probe.path(), cfg_all_tiers());
        save_step(&mgr, probe.path(), &cfg, 1);
        mgr.status().checkpoints[0].bytes
    };
    let mut tier_cfg = cfg_all_tiers();
    tier_cfg.object = None;
    tier_cfg.mem_capacity = Some(3 * ckpt_bytes);
    tier_cfg.evict_high_water = 0.5; // high water = 1.5 checkpoints

    let (mgr, _clock, metrics) = open_mgr(root, tier_cfg);
    assert_eq!(save_step(&mgr, root, &cfg, 1), TierLevel::Mem);
    mgr.drain_all().unwrap();
    assert_eq!(mgr.status().evictions, 0, "below high water: no eviction");

    assert_eq!(save_step(&mgr, root, &cfg, 2), TierLevel::Mem);
    mgr.drain_all().unwrap();
    let status = mgr.status();
    assert_eq!(status.evictions, 1);
    assert_eq!(metrics.counter_value("tier.evict.count"), 1);
    // Oldest evicted, newest still memory-resident; the evicted one
    // still restores through read-through (fs hit).
    assert_eq!(status.checkpoints[0].resident, vec!["fs"]);
    assert!(status.checkpoints[1].resident.contains(&"mem".to_string()));
    mgr.restore(1, &RestoreRequest::default())
        .expect("evicted checkpoint restores from fs");
}

#[test]
fn read_through_promotes_fs_hits_into_memory() {
    let tmp = tempfile::tempdir().unwrap();
    let root = tmp.path();
    let cfg = ModelConfig::tiny_test();
    let mut tier_cfg = cfg_all_tiers();
    tier_cfg.object = None;
    {
        let (mgr, _clock, _m) = open_mgr(root, tier_cfg);
        save_step(&mgr, root, &cfg, 4);
        mgr.drain_all().unwrap();
    }
    // Fresh process: memory tier starts cold, so the first read misses
    // it, hits fs, and promotes.
    let (mgr, _clock, metrics) = open_mgr(root, tier_cfg);
    let reader = mgr.reader();
    let model = root.join("checkpoint-4").join("model.safetensors");
    let bytes = reader.read(&model).unwrap();
    assert_eq!(bytes, LocalFs.read(&model).unwrap());
    assert!(metrics.counter_value("tier.read.hit.fs") >= 1);
    assert!(metrics.counter_value("tier.promote.count") >= 1);
    // Promoted: the next (ranged) read is served from memory.
    let before = metrics.counter_value("tier.read.hit.mem");
    let head = reader.read_range(&model, 0, 16).unwrap();
    assert_eq!(head, bytes[..16]);
    assert!(metrics.counter_value("tier.read.hit.mem") > before);
}

#[test]
fn transient_object_flakes_are_absorbed_by_retries() {
    let tmp = tempfile::tempdir().unwrap();
    let root = tmp.path();
    let cfg = ModelConfig::tiny_test();
    let mut tier_cfg = cfg_all_tiers();
    tier_cfg.object = Some(ObjectTierConfig {
        flake: FlakeSpec {
            period: 4,
            failures: 1,
        },
        ..Default::default()
    });
    let (mgr, clock, _m) = open_mgr(root, tier_cfg);
    save_step(&mgr, root, &cfg, 11);
    mgr.drain_all()
        .expect("retries absorb 1-in-4 transient failures");
    mgr.restore_from(TierLevel::Object, 11, &RestoreRequest::default())
        .expect("flaky object tier still converges to a committed copy");
    // Backoff (and modeled transfer time) elapsed on the injected
    // clock, never on the wall.
    assert!(clock.sleeps() > 0);
}

#[test]
fn permanent_object_outage_surfaces_after_max_retries() {
    let tmp = tempfile::tempdir().unwrap();
    let root = tmp.path();
    let cfg = ModelConfig::tiny_test();
    let mut tier_cfg = cfg_all_tiers();
    tier_cfg.object = Some(ObjectTierConfig {
        flake: FlakeSpec::always(),
        ..Default::default()
    });
    let (mgr, _clock, _m) = open_mgr(root, tier_cfg);
    save_step(&mgr, root, &cfg, 2);
    // The fs hop succeeds; the object hop exhausts its retry budget.
    let err = mgr.drain_all().expect_err("always-failing object tier");
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
    // The queue is intact: durability on fs, the object hop still owed.
    assert!(mgr.pending_drains() >= 1);
    mgr.restore_from(TierLevel::Fs, 2, &RestoreRequest::default())
        .expect("fs copy unaffected by the object outage");
}

#[test]
fn retry_backoff_is_bounded_and_clock_driven() {
    // Direct harness: a modeled object store that always fails
    // transiently, wrapped in RetryingStorage on a manual clock.
    let clock = Arc::new(ManualClock::default());
    let modeled = ModeledStorage::with_flake(
        MemStorage::new(1 << 20),
        StorageModel::local_nvme(),
        clock.clone(),
        FlakeSpec::always(),
    );
    let policy = RetryPolicy {
        max_retries: 4,
        base_delay_ms: 10,
        max_delay_ms: 25,
    };
    let retrying = RetryingStorage::new(modeled, policy, clock.clone());
    let err = retrying
        .write(Path::new("/o/x"), b"payload")
        .expect_err("always transient => exhausts retries");
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
    assert_eq!(retrying.retry_count(), 4);
    // Exponential backoff 10, 20 then capped at 25, 25 — all on the
    // injected clock. Failed attempts charge no model time, so the
    // total slept time is exactly the backoff sum.
    assert_eq!(clock.slept_nanos(), (10 + 20 + 25 + 25) * 1_000_000);
}

#[test]
fn tiered_restore_rejects_quarantined_directories() {
    let tmp = tempfile::tempdir().unwrap();
    let root = tmp.path();
    let cfg = ModelConfig::tiny_test();
    let (mgr, _clock, _m) = open_mgr(root, cfg_all_tiers());
    save_step(&mgr, root, &cfg, 6);
    mgr.drain_all().unwrap();
    // Drop the fs commit marker: the fs copy must now be refused while
    // the object copy still restores.
    LocalFs
        .remove_file(&root.join("checkpoint-6").join("COMMIT"))
        .unwrap();
    let err = mgr
        .restore_from(TierLevel::Fs, 6, &RestoreRequest::default())
        .expect_err("uncommitted fs dir");
    assert!(matches!(err, CkptError::Quarantined(..)), "got {err}");
    mgr.restore_from(TierLevel::Object, 6, &RestoreRequest::default())
        .expect("object copy independent of fs marker");
}

#[test]
fn drains_carry_delta_chains_to_every_tier() {
    let tmp = tempfile::tempdir().unwrap();
    let root = tmp.path();
    let cfg = ModelConfig::tiny_test();
    let (mgr, _clock, _metrics) = open_mgr(root, cfg_all_tiers());

    // One evolving run — small optimizer steps, so consecutive unit
    // images differ sparsely and the engine's delta path engages. The
    // drain planner must then ship whole chains (every base a delta
    // needs), not just the objects the tip manifest names directly.
    let mut model = Model::new(cfg.clone(), 42);
    let mut engine = ZeroEngine::new(
        &model.params,
        build_groups(&cfg, GroupLayout::LayerWise),
        2,
        AdamWHyper::default(),
    );
    let mut rng = Prng::seed_from_u64(42);
    let units = LayerUnit::all(&cfg);
    let opts = SaveOptions {
        dedup: true,
        compress: true,
        delta_chain: 4,
        ..SaveOptions::default()
    };
    let mut delta_objects = 0u64;
    let last_step = 4u64;
    for step in 1..=last_step {
        let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let batch = Batch::new(tokens, 2, 8);
        let mut grads = ParamSet::zeros(&cfg);
        model.loss_and_grad(&batch, &mut grads);
        engine.step(&mut model.params, &grads, 1e-4, true);
        let ts = TrainerState {
            global_step: step,
            ckpt_event: step,
            lr_schedule: LrSchedule::Constant { lr: 1e-4 },
            last_lr: 1e-4,
            loss_history: vec![(step, 3.0)],
            data_rng: Prng::seed_from_u64(step),
            task: "tier-delta".into(),
            model_name: cfg.model_name.clone(),
            micro_batch: 2,
            grad_accum: 1,
            seq_len: 8,
        };
        let saved = mgr
            .save(
                &SaveRequest {
                    dir: &CheckpointPaths::under(root, step).dir,
                    step,
                    source: &LiveState {
                        config: &cfg,
                        params: &model.params,
                        engine: &engine,
                    },
                    trainer_state: &ts,
                    units: &units,
                    metrics: &MetricsRegistry::new(),
                    store: None,
                    bases: None,
                },
                &opts,
            )
            .expect("tiered delta save");
        assert_eq!(saved.placed, TierLevel::Mem);
        delta_objects += saved.report.delta_objects;
    }
    assert!(
        delta_objects > 0,
        "run never wrote a delta object; the chain-drain path went unexercised"
    );

    mgr.drain_all().expect("drain");
    assert_eq!(mgr.pending_drains(), 0);

    // The durable tiers hold every chain hop: a verify=true restore of
    // the tip decodes delta objects whose bases were only reachable
    // through chain expansion, and must match the live weights.
    let expected: Vec<(String, Vec<u8>)> = model
        .params
        .iter()
        .map(|(spec, t)| {
            let bytes: Vec<u8> = t.data().iter().flat_map(|v| v.to_le_bytes()).collect();
            (spec.name.clone(), bytes)
        })
        .collect();
    for level in [TierLevel::Mem, TierLevel::Fs, TierLevel::Object] {
        let st = mgr
            .restore_from(level, last_step, &RestoreRequest::default())
            .unwrap_or_else(|e| panic!("restore from {level}: {e}"));
        assert_eq!(st.trainer_state.global_step, last_step);
        for (name, bytes) in &expected {
            let restored = st
                .weights
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{level}: tensor {name} missing"));
            assert_eq!(
                restored.1.bytes(),
                &bytes[..],
                "{level}: tensor {name} diverged"
            );
        }
    }
}

#[test]
fn save_under_a_foreign_root_is_a_typed_error() {
    let dir = tempfile::tempdir().unwrap();
    let elsewhere = tempfile::tempdir().unwrap();
    let (mgr, _clock, _metrics) = open_mgr(dir.path(), TierConfig::default());
    let err = try_save_step(&mgr, elsewhere.path(), &ModelConfig::tiny_test(), 1).unwrap_err();
    assert!(matches!(err, CkptError::Incompatible(_)), "{err}");
    assert!(mgr.status().checkpoints.is_empty());
}

/// `LocalFs` with one rendezvous point for the tier-state persist race:
/// an armed gate holds the next write of `.tier/state.json.tmp` until
/// some *other* persist has renamed that file into place, or — when
/// persists are properly serialized and that can never happen — until
/// `HOLD` has passed.
#[derive(Debug, Default)]
struct PersistGate {
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    armed: bool,
    holding: bool,
    renames: u64,
}

const HOLD: std::time::Duration = std::time::Duration::from_millis(300);

impl PersistGate {
    fn is_state_tmp(path: &Path) -> bool {
        path.ends_with(Path::new(TIER_DIR).join("state.json.tmp"))
    }

    fn arm(&self) {
        self.state.lock().unwrap().armed = true;
    }

    /// Block until a persist is held at the gate.
    fn wait_until_holding(&self) {
        let st = self.state.lock().unwrap();
        drop(self.changed.wait_while(st, |s| !s.holding).unwrap());
    }
}

impl Storage for PersistGate {
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        if Self::is_state_tmp(path) {
            let mut st = self.state.lock().unwrap();
            if st.armed {
                st.armed = false;
                st.holding = true;
                self.changed.notify_all();
                let seen = st.renames;
                let (mut st, _) = self
                    .changed
                    .wait_timeout_while(st, HOLD, |s| s.renames == seen)
                    .unwrap();
                st.holding = false;
            }
        }
        LocalFs.write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        LocalFs.rename(from, to)?;
        if Self::is_state_tmp(from) {
            self.state.lock().unwrap().renames += 1;
            self.changed.notify_all();
        }
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        LocalFs.create_dir_all(path)
    }
    fn sync(&self, path: &Path) -> std::io::Result<()> {
        LocalFs.sync(path)
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        LocalFs.read(path)
    }
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        LocalFs.read_range(path, offset, len)
    }
    fn list_dir(&self, path: &Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        LocalFs.list_dir(path)
    }
    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        LocalFs.remove_dir_all(path)
    }
    fn exists(&self, path: &Path) -> bool {
        LocalFs.exists(path)
    }
    fn file_len(&self, path: &Path) -> std::io::Result<u64> {
        LocalFs.file_len(path)
    }
    fn hard_link(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        LocalFs.hard_link(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        LocalFs.remove_file(path)
    }
    fn create_stream<'a>(
        &'a self,
        path: &Path,
    ) -> std::io::Result<Box<dyn llmt_storage::vfs::WriteStream + 'a>> {
        LocalFs.create_stream(path)
    }
}

#[test]
fn saves_overlapping_drain_hops_all_succeed_and_persist_in_order() {
    const SAVES: u64 = 4;
    let dir = tempfile::tempdir().unwrap();
    let root = dir.path();
    let cfg = ModelConfig::tiny_test();
    let gate = Arc::new(PersistGate::default());
    let mgr = TierManager::open(
        root,
        gate.clone(),
        TierConfig {
            drain_bw: 0.0,
            ..TierConfig::default()
        },
        Arc::new(ManualClock::default()),
        MetricsRegistry::new(),
    )
    .unwrap();
    assert_eq!(save_step(&mgr, root, &cfg, 1), TierLevel::Mem);

    // Every further save's persist is held at the gate with its snapshot
    // already taken, while a drain hop of the previous step runs to its
    // own persist. Unserialized, the hop's newer snapshot lands first and
    // the save's older one then replaces it (or loses the shared tmp
    // file and the committed save reports `Err`).
    for step in 2..=SAVES {
        gate.arm();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                gate.wait_until_holding();
                let hop = mgr.drain_step().expect("drain hop beside a save");
                assert_eq!(hop.map(|h| h.step), Some(step - 1));
            });
            try_save_step(&mgr, root, &cfg, step)
                .unwrap_or_else(|e| panic!("save {step} committed but reported {e}"));
        });
        // Whichever persist came last, the file a reopened manager would
        // load is the live state.
        assert_eq!(
            load_status(&LocalFs, root).unwrap(),
            Some(mgr.status()),
            "after save {step}"
        );
    }
    assert_eq!(mgr.status().pending_drains, 1);
}

#[test]
fn a_checkpoint_not_named_by_step_opens_through_any_storage() {
    // A merge output is named by its recipe (`merged-5`), so its step
    // comes from the `latest` file — which lives wherever the checkpoint
    // does, here only in memory.
    let cfg = ModelConfig::tiny_test();
    let (model, engine, ts) = make_state(&cfg, 21);
    let mem: Arc<dyn Storage> = Arc::new(MemStorage::new(1 << 30));
    let dir = Path::new("/run/merged-5");
    llmt_ckpt::engine::save(
        &[&*mem],
        &SaveRequest {
            dir,
            step: 5,
            source: &LiveState {
                config: &cfg,
                params: &model.params,
                engine: &engine,
            },
            trainer_state: &ts,
            units: &LayerUnit::all(&cfg),
            metrics: &MetricsRegistry::new(),
            store: None,
            bases: None,
        },
        &SaveOptions::dedup(true),
    )
    .unwrap();
    let h = llmt_ckpt::CheckpointHandle::open_on(mem.clone(), dir, llmt_ckpt::LoadMode::LazyRange)
        .unwrap();
    assert_eq!(h.paths.step, 5);
    assert!(h.is_committed());
    let report = llmt_ckpt::verify_checkpoint_on(mem, dir, true).unwrap();
    assert!(report.ok(), "{:?}", report.findings);
}
