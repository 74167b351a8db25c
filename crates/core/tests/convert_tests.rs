//! `llmtailor convert` round trips, checked by digest.
//!
//! Two loops close here:
//!
//! 1. **Sharded ↔ sharded**: a checkpoint saved at `{dp=4, tp=1}` is
//!    converted to `{dp=2, tp=2}` and back; the final directory is
//!    byte-identical to the original, payload and metadata alike.
//! 2. **Consolidated ↔ sharded**: a MergeKit-merged weights-only
//!    directory is imported as a trainable sharded checkpoint and
//!    stripped back down; the consolidated `model.safetensors` +
//!    `config.json` come back with identical digests.

use llmt_ckpt::engine::{self, LiveState, SaveOptions};
use llmt_ckpt::writer::SaveRequest;
use llmt_ckpt::{CheckpointPaths, TrainerState};
use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
use llmt_storage::vfs::LocalFs;
use llmt_tensor::rng::Prng;
use llmt_zero::{Topology, ZeroEngine};
use llmtailor::{convert_checkpoint, TargetLayout};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Training fixture at an arbitrary topology.
struct Fixture {
    cfg: ModelConfig,
    model: Model,
    engine: ZeroEngine,
    rng: Prng,
    step: u64,
}

impl Fixture {
    fn new(cfg: ModelConfig, topo: Topology, seed: u64) -> Self {
        let model = Model::new(cfg.clone(), seed);
        let engine = ZeroEngine::with_topology(
            &model.params,
            build_groups(&cfg, GroupLayout::LayerWise),
            topo,
            AdamWHyper {
                weight_decay: 0.01,
                ..Default::default()
            },
        );
        Fixture {
            cfg,
            model,
            engine,
            rng: Prng::seed_from_u64(seed ^ 0xDA7A),
            step: 0,
        }
    }

    fn train(&mut self, steps: u64) {
        for _ in 0..steps {
            let tokens: Vec<u32> = (0..16)
                .map(|_| self.rng.below(self.cfg.vocab_size) as u32)
                .collect();
            let batch = Batch::new(tokens, 2, 8);
            let mut grads = ParamSet::zeros(&self.cfg);
            self.model.loss_and_grad(&batch, &mut grads);
            self.engine.step(&mut self.model.params, &grads, 1e-3, true);
            self.step += 1;
        }
    }

    fn save(&self, root: &Path) -> PathBuf {
        let ts = TrainerState {
            global_step: self.step,
            ckpt_event: 0,
            lr_schedule: LrSchedule::Constant { lr: 1e-3 },
            last_lr: 1e-3,
            loss_history: vec![(self.step, 2.0)],
            data_rng: self.rng.clone(),
            task: "test".into(),
            model_name: self.cfg.model_name.clone(),
            micro_batch: 2,
            grad_accum: 1,
            seq_len: 8,
        };
        engine::save(
            &[&LocalFs],
            &SaveRequest {
                dir: &CheckpointPaths::under(root, self.step).dir,
                step: self.step,
                source: &LiveState {
                    config: &self.cfg,
                    params: &self.model.params,
                    engine: &self.engine,
                },
                trainer_state: &ts,
                units: &LayerUnit::all(&self.cfg),
                metrics: &MetricsRegistry::new(),
                store: None,
                bases: None,
            },
            &SaveOptions::default(),
        )
        .unwrap()
        .report
        .paths
        .dir
    }
}

/// Map of relative path -> file bytes for a whole directory tree.
fn dir_contents(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(base: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(base, &path, out);
            } else {
                let rel = path.strip_prefix(base).unwrap().to_path_buf();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

fn assert_dirs_identical(a: &Path, b: &Path, ctx: &str) {
    let ca = dir_contents(a);
    let cb = dir_contents(b);
    assert_eq!(
        ca.keys().collect::<Vec<_>>(),
        cb.keys().collect::<Vec<_>>(),
        "{ctx}: file sets differ"
    );
    for (rel, bytes) in &ca {
        assert_eq!(
            bytes,
            &cb[rel],
            "{ctx}: {} differs between {} and {}",
            rel.display(),
            a.display(),
            b.display()
        );
    }
}

#[test]
fn sharded_roundtrip_through_tensor_parallel_is_byte_identical() {
    let cfg = ModelConfig::tiny_test();
    let mut fx = Fixture::new(cfg, Topology { dp: 4, tp: 1 }, 21);
    fx.train(3);
    let src_root = tempfile::tempdir().unwrap();
    let original = fx.save(src_root.path());

    // {dp=4, tp=1} -> {dp=2, tp=2}
    let mid_root = tempfile::tempdir().unwrap();
    let mid = convert_checkpoint(
        &original,
        mid_root.path(),
        TargetLayout::Sharded(Topology { dp: 2, tp: 2 }),
    )
    .unwrap();
    assert_eq!(mid.source_topology, Some(Topology { dp: 4, tp: 1 }));
    assert!(!mid.fresh_optimizer);

    // {dp=2, tp=2} -> {dp=4, tp=1}: must reproduce the original exactly.
    let back_root = tempfile::tempdir().unwrap();
    let back = convert_checkpoint(
        &mid.output,
        back_root.path(),
        TargetLayout::Sharded(Topology { dp: 4, tp: 1 }),
    )
    .unwrap();
    assert_eq!(back.source_topology, Some(Topology { dp: 2, tp: 2 }));
    assert_dirs_identical(&original, &back.output, "dp4tp1 -> dp2tp2 -> dp4tp1");
}

#[test]
fn consolidate_then_reshard_preserves_weight_digests() {
    let cfg = ModelConfig::tiny_test();
    let mut fx = Fixture::new(cfg, Topology { dp: 2, tp: 1 }, 33);
    fx.train(2);
    let src_root = tempfile::tempdir().unwrap();
    let ckpt = fx.save(src_root.path());

    // Checkpoint -> consolidated: weights + config only.
    let cons = tempfile::tempdir().unwrap();
    let report = convert_checkpoint(&ckpt, cons.path(), TargetLayout::Consolidated).unwrap();
    assert_eq!(report.step, fx.step);
    // The consolidated weight file is byte-identical to the checkpoint's
    // own model.safetensors (same tensors, order, and metadata).
    assert_eq!(
        std::fs::read(ckpt.join("model.safetensors")).unwrap(),
        std::fs::read(cons.path().join("model.safetensors")).unwrap(),
        "consolidated weights diverge from the checkpoint's"
    );
    assert_eq!(
        std::fs::read(ckpt.join("config.json")).unwrap(),
        std::fs::read(cons.path().join("config.json")).unwrap(),
    );
    assert!(!cons.path().join("trainer_state.json").exists());
}

#[test]
fn mergekit_merge_roundtrips_consolidated_to_sharded_and_back() {
    // Two short runs diverging from one init; MergeKit-merge their layers.
    let cfg = ModelConfig::tiny_test();
    let mut a = Fixture::new(cfg.clone(), Topology { dp: 2, tp: 1 }, 5);
    a.train(2);
    let root_a = tempfile::tempdir().unwrap();
    let ckpt_a = a.save(root_a.path());
    let mut b = Fixture::new(cfg.clone(), Topology { dp: 2, tp: 1 }, 5);
    b.train(4);
    let root_b = tempfile::tempdir().unwrap();
    let ckpt_b = b.save(root_b.path());

    let merged = tempfile::tempdir().unwrap();
    let merged_dir = merged.path().join("merged");
    llmt_mergekit::merge_weights_only(&llmt_mergekit::WeightsOnlyRecipe {
        base_model: ckpt_a.clone(),
        slices: vec![llmt_mergekit::WeightSlice {
            model: ckpt_b.clone(),
            layer_range: [0, 0],
        }],
        merge_method: "passthrough".into(),
        t: 0.5,
        output: merged_dir.clone(),
    })
    .unwrap();

    // Consolidated (MergeKit) -> sharded at {dp=2, tp=2}: trainable
    // import with fresh optimizer state at step 0.
    let sharded_root = tempfile::tempdir().unwrap();
    let sharded = convert_checkpoint(
        &merged_dir,
        sharded_root.path(),
        TargetLayout::Sharded(Topology { dp: 2, tp: 2 }),
    )
    .unwrap();
    assert!(sharded.fresh_optimizer);
    assert_eq!(sharded.step, 0);
    assert_eq!(sharded.source_topology, None);

    // Sharded -> consolidated again: identical weight digests.
    let back = tempfile::tempdir().unwrap();
    convert_checkpoint(&sharded.output, back.path(), TargetLayout::Consolidated).unwrap();
    assert_eq!(
        std::fs::read(merged_dir.join("model.safetensors")).unwrap(),
        std::fs::read(back.path().join("model.safetensors")).unwrap(),
        "weights did not survive the consolidated -> sharded -> consolidated round trip"
    );

    // And the import is genuinely trainable: the sharded form restores
    // through the full verify-on-read path.
    let restored =
        llmt_ckpt::restore_checkpoint(&sharded.output, &llmt_ckpt::RestoreRequest::default())
            .unwrap();
    assert_eq!(restored.ranks.len(), 4);
    assert_eq!(restored.report.topology, Topology { dp: 2, tp: 2 });
}
