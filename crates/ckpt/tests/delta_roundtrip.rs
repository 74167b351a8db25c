//! End-to-end tests of the delta-chained compressed save path: every
//! step of a training run checkpoints through the codec-aware engine
//! (dedup + LZ compression + XOR deltas against the previous step), and
//! every checkpoint must restore bit-exact through the chain-walking
//! decode — after arbitrary interleavings of compaction, base loss, and
//! store sweeps.

use llmt_cas::{BaseCache, ObjectStore};
use llmt_ckpt::engine::{save, LiveState, SaveOptions};
use llmt_ckpt::{
    read_seal, restore_checkpoint, verify_checkpoint_on, CheckpointHandle, CheckpointPaths,
    LoadMode, RestoreRequest, SaveRequest, TrainerState,
};
use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
use llmt_storage::vfs::LocalFs;
use llmt_tensor::rng::Prng;
use llmt_tensor::RawTensor;
use llmt_zero::ZeroEngine;
use std::path::Path;
use std::sync::Arc;

const WORLD: usize = 2;

fn make_state(cfg: &ModelConfig) -> (Model, ZeroEngine, Prng) {
    let model = Model::new(cfg.clone(), 13);
    let engine = ZeroEngine::new(
        &model.params,
        build_groups(cfg, GroupLayout::LayerWise),
        WORLD,
        AdamWHyper::default(),
    );
    (model, engine, Prng::seed_from_u64(4))
}

/// One optimizer step on a random batch: the sparse-ish parameter drift
/// the delta encoder targets.
fn evolve(cfg: &ModelConfig, model: &mut Model, engine: &mut ZeroEngine, rng: &mut Prng) {
    let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
    let mut grads = ParamSet::zeros(cfg);
    model.loss_and_grad(&Batch::new(tokens, 2, 8), &mut grads);
    engine.step(&mut model.params, &grads, 1e-3, true);
}

fn trainer_state(cfg: &ModelConfig, step: u64) -> TrainerState {
    TrainerState {
        global_step: step,
        ckpt_event: 0,
        lr_schedule: LrSchedule::Constant { lr: 1e-3 },
        last_lr: 1e-3,
        loss_history: vec![],
        data_rng: Prng::seed_from_u64(step),
        task: "delta-test".into(),
        model_name: cfg.model_name.clone(),
        micro_batch: 2,
        grad_accum: 1,
        seq_len: 8,
    }
}

fn delta_opts(chain: usize) -> SaveOptions {
    SaveOptions {
        dedup: true,
        compress: true,
        delta_chain: chain,
        ..SaveOptions::default()
    }
}

fn save_step(
    root: &Path,
    step: u64,
    cfg: &ModelConfig,
    model: &Model,
    engine: &ZeroEngine,
    opts: &SaveOptions,
) -> llmt_ckpt::CheckpointReport {
    save_step_with(root, step, cfg, model, engine, opts, None)
}

/// [`save_step`] taking its delta bases from (and leaving them in) a
/// run's decoded-base cache.
fn save_step_with(
    root: &Path,
    step: u64,
    cfg: &ModelConfig,
    model: &Model,
    engine: &ZeroEngine,
    opts: &SaveOptions,
    bases: Option<&BaseCache>,
) -> llmt_ckpt::CheckpointReport {
    save(
        &[&LocalFs],
        &SaveRequest {
            dir: &CheckpointPaths::under(root, step).dir,
            step,
            source: &LiveState {
                config: cfg,
                params: &model.params,
                engine,
            },
            trainer_state: &trainer_state(cfg, step),
            units: &LayerUnit::all(cfg),
            metrics: &MetricsRegistry::new(),
            store: None,
            bases,
        },
        opts,
    )
    .unwrap()
    .report
}

/// Weight bytes snapshot for later bit-exact comparison.
fn weight_image(model: &Model) -> Vec<(String, Vec<u8>)> {
    model
        .params
        .iter()
        .map(|(spec, t)| {
            let bytes = t.to_raw(llmt_tensor::DType::BF16).bytes().to_vec();
            (spec.name.clone(), bytes)
        })
        .collect()
}

fn assert_restore_matches(dir: &Path, step: u64, expected: &[(String, Vec<u8>)]) {
    let restored = restore_checkpoint(dir, &RestoreRequest::default()).unwrap();
    assert_eq!(restored.trainer_state.global_step, step);
    let by_name: std::collections::BTreeMap<&str, &RawTensor> = restored
        .weights
        .iter()
        .map(|(n, t)| (n.as_str(), t))
        .collect();
    for (name, bytes) in expected {
        let t = by_name
            .get(name.as_str())
            .unwrap_or_else(|| panic!("step {step}: tensor {name} missing from restore"));
        assert_eq!(t.bytes(), &bytes[..], "step {step}: tensor {name} diverged");
    }
}

fn deep_verify(dir: &Path) {
    let v = verify_checkpoint_on(Arc::new(LocalFs), dir, true).unwrap();
    assert!(v.ok(), "{}: {:?}", dir.display(), v.findings);
}

/// Longest delta chain under any object a checkpoint references.
fn max_chain(root: &Path, step: u64) -> usize {
    let store = ObjectStore::for_run_root(root);
    let manifest = read_seal(&LocalFs, &CheckpointPaths::under(root, step))
        .manifest
        .unwrap();
    let refs = manifest.objects.expect("dedup save writes object refs");
    let mut deepest = 0;
    for (_, object) in refs.iter_all() {
        let d = llmt_cas::Digest::parse_hex(&object.digest).unwrap();
        deepest = deepest.max(store.chain_len(&LocalFs, d).unwrap());
    }
    deepest
}

#[test]
fn every_step_delta_saves_restore_bit_exact_and_shrink() {
    let cfg = ModelConfig::tiny_test();
    let (mut model, mut engine, mut rng) = make_state(&cfg);
    let dir = tempfile::tempdir().unwrap();
    let opts = delta_opts(4);

    let mut images = Vec::new();
    let mut delta_objects = 0u64;
    let mut saved_bytes = 0u64;
    for step in 1..=6u64 {
        evolve(&cfg, &mut model, &mut engine, &mut rng);
        let report = save_step(dir.path(), step, &cfg, &model, &engine, &opts);
        images.push((step, weight_image(&model)));
        delta_objects += report.delta_objects;
        saved_bytes += report.delta_saved_bytes;
        if step == 1 {
            assert_eq!(report.delta_objects, 0, "first save has no base to delta");
        } else {
            assert!(
                report.delta_objects > 0,
                "step {step} wrote no deltas: {report:?}"
            );
            assert!(report.delta_max_chain >= 1);
            // Every delta is taken only when it beats the raw unit, so
            // the physical footprint must undercut the logical volume.
            assert!(
                report.physical_bytes < report.total_bytes,
                "step {step} stored {} physical bytes for {} logical",
                report.physical_bytes,
                report.total_bytes
            );
        }
    }
    assert!(delta_objects > 0);
    assert!(saved_bytes > 0, "deltas reported no byte savings");

    // Every step restores bit-exact through its chain, newest (deepest
    // chain) and oldest alike, and deep-verification re-hashes every
    // decoded byte.
    for (step, image) in &images {
        let ckpt = CheckpointPaths::under(dir.path(), *step).dir;
        assert_restore_matches(&ckpt, *step, image);
        deep_verify(&ckpt);
    }
    let deepest = max_chain(dir.path(), 6);
    assert!(deepest >= 1, "tip checkpoint references no delta chain");
    assert!(deepest <= 4, "chain {deepest} exceeds the cap");
}

#[test]
fn chain_cap_bounds_depth_across_many_steps() {
    let cfg = ModelConfig::tiny_test();
    let (mut model, mut engine, mut rng) = make_state(&cfg);
    let dir = tempfile::tempdir().unwrap();
    let opts = delta_opts(2);
    for step in 1..=7u64 {
        evolve(&cfg, &mut model, &mut engine, &mut rng);
        let report = save_step(dir.path(), step, &cfg, &model, &engine, &opts);
        assert!(
            report.delta_max_chain <= 2,
            "step {step} built chain {}",
            report.delta_max_chain
        );
        assert!(max_chain(dir.path(), step) <= 2);
    }
}

/// Both ways a save can come by its delta bases: materialized from the
/// store, or taken from the cache the run's previous save filled.
fn cold_and_warm(test: impl Fn(Option<&BaseCache>)) {
    test(None);
    test(Some(&BaseCache::default()));
}

#[test]
fn compaction_mid_run_preserves_restores_and_future_deltas() {
    cold_and_warm(|bases| {
        let cfg = ModelConfig::tiny_test();
        let (mut model, mut engine, mut rng) = make_state(&cfg);
        let dir = tempfile::tempdir().unwrap();
        let opts = delta_opts(6);

        let mut images = Vec::new();
        for step in 1..=4u64 {
            evolve(&cfg, &mut model, &mut engine, &mut rng);
            save_step_with(dir.path(), step, &cfg, &model, &engine, &opts, bases);
            images.push((step, weight_image(&model)));
        }
        // Flatten everything, then keep training: later saves delta against
        // the now-Full step-4 objects (whose decoded bytes, cached or not,
        // are what they were).
        let store = ObjectStore::for_run_root(dir.path());
        let report = store.compact_chains(&LocalFs, 0).unwrap();
        assert!(report.compacted > 0);
        for step in 5..=6u64 {
            evolve(&cfg, &mut model, &mut engine, &mut rng);
            let r = save_step_with(dir.path(), step, &cfg, &model, &engine, &opts, bases);
            assert!(
                r.delta_objects > 0,
                "post-compaction step {step} wrote no deltas"
            );
            images.push((step, weight_image(&model)));
        }
        for (step, image) in &images {
            let ckpt = CheckpointPaths::under(dir.path(), *step).dir;
            assert_restore_matches(&ckpt, *step, image);
            deep_verify(&ckpt);
        }
        assert_eq!(
            max_chain(dir.path(), 4),
            0,
            "compaction left step 4 chained"
        );
        // Depth restarts from the rewritten objects' headers.
        assert_eq!(max_chain(dir.path(), 5), 1);
        assert_eq!(max_chain(dir.path(), 6), 2);
    });
}

#[test]
fn save_falls_back_to_full_objects_when_the_base_vanishes() {
    cold_and_warm(|bases| {
        let cfg = ModelConfig::tiny_test();
        let (mut model, mut engine, mut rng) = make_state(&cfg);
        let dir = tempfile::tempdir().unwrap();
        let opts = delta_opts(4);

        evolve(&cfg, &mut model, &mut engine, &mut rng);
        save_step_with(dir.path(), 1, &cfg, &model, &engine, &opts, bases);
        evolve(&cfg, &mut model, &mut engine, &mut rng);
        save_step_with(dir.path(), 2, &cfg, &model, &engine, &opts, bases);

        // Simulate an out-of-band sweep stealing the whole store between
        // saves: the next save must fall back to self-contained objects,
        // not fail and not write dangling deltas — holding the vanished
        // objects' decoded bytes does not make them bases.
        let store = ObjectStore::for_run_root(dir.path());
        for (digest, _) in store.list(&LocalFs).unwrap() {
            std::fs::remove_file(store.object_path(digest)).unwrap();
        }
        evolve(&cfg, &mut model, &mut engine, &mut rng);
        let report = save_step_with(dir.path(), 3, &cfg, &model, &engine, &opts, bases);
        assert_eq!(
            report.delta_objects, 0,
            "step 3 delta'd against a vanished base: {report:?}"
        );
        let image = weight_image(&model);
        let ckpt = CheckpointPaths::under(dir.path(), 3).dir;
        assert_restore_matches(&ckpt, 3, &image);
        deep_verify(&ckpt);
    });
}

#[test]
fn reader_modes_agree_on_encoded_checkpoints() {
    let cfg = ModelConfig::tiny_test();
    let (mut model, mut engine, mut rng) = make_state(&cfg);
    let dir = tempfile::tempdir().unwrap();
    let opts = delta_opts(4);
    for step in 1..=3u64 {
        evolve(&cfg, &mut model, &mut engine, &mut rng);
        save_step(dir.path(), step, &cfg, &model, &engine, &opts);
    }
    // The step-3 payload files are encoded store links; both load modes
    // must decode them through the chain to the same tensors.
    let ckpt = CheckpointPaths::under(dir.path(), 3).dir;
    let mut eager = CheckpointHandle::open(&ckpt, LoadMode::EagerFull).unwrap();
    let mut lazy = CheckpointHandle::open(&ckpt, LoadMode::LazyRange).unwrap();
    for unit in LayerUnit::all(&cfg) {
        let a = eager.unit_weights(unit).unwrap();
        let b = lazy.unit_weights(unit).unwrap();
        assert_eq!(a.len(), b.len());
        for ((na, ta), (nb, tb)) in a.iter().zip(b.iter()) {
            assert_eq!(na, nb);
            assert_eq!(ta, tb, "unit {unit:?} tensor {na} diverged across modes");
        }
    }
}

#[test]
fn sweep_with_tip_refs_keeps_chains_restorable() {
    let cfg = ModelConfig::tiny_test();
    let (mut model, mut engine, mut rng) = make_state(&cfg);
    let dir = tempfile::tempdir().unwrap();
    let opts = delta_opts(8);
    let mut tip_image = Vec::new();
    for step in 1..=4u64 {
        evolve(&cfg, &mut model, &mut engine, &mut rng);
        save_step(dir.path(), step, &cfg, &model, &engine, &opts);
        tip_image = weight_image(&model);
    }
    // Keep only the tip's direct references live (as if steps 1..3 were
    // pruned): the sweep must retain every chain base transitively, and
    // the tip must stay restorable afterwards.
    let store = ObjectStore::for_run_root(dir.path());
    let manifest = read_seal(&LocalFs, &CheckpointPaths::under(dir.path(), 4))
        .manifest
        .unwrap();
    let live: std::collections::BTreeSet<llmt_cas::Digest> = manifest
        .objects
        .unwrap()
        .iter_all()
        .map(|(_, o)| llmt_cas::Digest::parse_hex(&o.digest).unwrap())
        .collect();
    // Age everything so the sweep's freshness guard does not mask the
    // reachability logic under test.
    let old = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
    for (d, _) in store.list(&LocalFs).unwrap() {
        std::fs::OpenOptions::new()
            .write(true)
            .open(store.object_path(d))
            .unwrap()
            .set_times(std::fs::FileTimes::new().set_modified(old))
            .unwrap();
    }
    store.sweep(&LocalFs, &live).unwrap();
    let ckpt = CheckpointPaths::under(dir.path(), 4).dir;
    assert_restore_matches(&ckpt, 4, &tip_image);
    deep_verify(&ckpt);
}
