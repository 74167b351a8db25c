//! End-to-end tests of the merge engine against real training state.

use llmt_ckpt::engine::{self, LiveState, SaveOptions};
use llmt_ckpt::writer::SaveRequest;
use llmt_ckpt::{CheckpointHandle, LoadMode, PartialManifest, TrainerState};
use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
use llmt_storage::vfs::LocalFs;
use llmt_tensor::rng::Prng;
use llmt_zero::ZeroEngine;
use llmtailor::{
    execute_plan, merge_with_recipe, LoadPattern, MergePlan, MergeRecipe, SliceSpec, TailorError,
};
use std::path::{Path, PathBuf};

const WORLD: usize = 2;

/// A little training fixture that can save checkpoints mid-run.
struct Fixture {
    cfg: ModelConfig,
    model: Model,
    engine: ZeroEngine,
    rng: Prng,
    step: u64,
}

impl Fixture {
    fn new(cfg: ModelConfig, seed: u64) -> Self {
        let model = Model::new(cfg.clone(), seed);
        let engine = ZeroEngine::new(
            &model.params,
            build_groups(&cfg, GroupLayout::LayerWise),
            WORLD,
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

    fn trainer_state(&self) -> TrainerState {
        TrainerState {
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
        }
    }

    fn save(&self, root: &Path, units: &[LayerUnit]) -> PathBuf {
        let ts = self.trainer_state();
        engine::save(
            &[&LocalFs],
            &SaveRequest {
                root,
                step: self.step,
                source: &LiveState {
                    config: &self.cfg,
                    params: &self.model.params,
                    engine: &self.engine,
                },
                trainer_state: &ts,
                units,
                metrics: &MetricsRegistry::new(),
                store: None,
            },
            &SaveOptions::default(),
        )
        .unwrap()
        .report
        .paths
        .dir
    }
}

fn checkpoints_bit_identical(a: &Path, b: &Path, cfg: &ModelConfig, world: usize) {
    let mut ha = CheckpointHandle::open(a, LoadMode::EagerFull).unwrap();
    let mut hb = CheckpointHandle::open(b, LoadMode::EagerFull).unwrap();
    for unit in LayerUnit::all(cfg) {
        assert_eq!(
            ha.unit_weights(unit).unwrap(),
            hb.unit_weights(unit).unwrap(),
            "weights differ for {unit}"
        );
    }
    let groups = ha.zero_meta.groups.len();
    for rank in 0..world {
        for g in 0..groups {
            assert_eq!(
                ha.group_shard(rank, g).unwrap(),
                hb.group_shard(rank, g).unwrap(),
                "shard differs rank {rank} group {g}"
            );
        }
    }
    assert_eq!(ha.zero_meta.optimizer_step, hb.zero_meta.optimizer_step);
}

/// Splitting a state into two complementary partial checkpoints and merging
/// them back must reproduce the full checkpoint bit-exactly.
#[test]
fn split_then_merge_is_identity() {
    let cfg = ModelConfig::tiny_test();
    let dir = tempfile::tempdir().unwrap();
    let mut fx = Fixture::new(cfg.clone(), 1);
    fx.train(3);

    let all = LayerUnit::all(&cfg);
    let full_dir = fx.save(&dir.path().join("full"), &all);
    let (half_a, half_b): (Vec<_>, Vec<_>) =
        all.iter()
            .enumerate()
            .fold((Vec::new(), Vec::new()), |(mut a, mut b), (i, u)| {
                if i % 2 == 0 {
                    a.push(*u)
                } else {
                    b.push(*u)
                }
                (a, b)
            });
    std::fs::create_dir_all(dir.path().join("parts")).unwrap();
    // Save the two halves at the same step under different roots so the
    // directories do not collide.
    let a_dir = fx.save(&dir.path().join("parts/a"), &half_a);
    let b_dir = fx.save(&dir.path().join("parts/b"), &half_b);

    let recipe = MergeRecipe {
        merge_method: "passthrough".into(),
        base_checkpoint: a_dir.clone(),
        output: dir.path().join("merged"),
        slices: vec![
            SliceSpec {
                checkpoint: a_dir,
                units: half_a.iter().map(|u| u.as_string()).collect(),
            },
            SliceSpec {
                checkpoint: b_dir,
                units: half_b.iter().map(|u| u.as_string()).collect(),
            },
        ],
    };
    let report = merge_with_recipe(&recipe, LoadMode::EagerFull, LoadPattern::Sequential).unwrap();
    assert_eq!(report.sources, 2);
    checkpoints_bit_identical(&report.output, &full_dir, &cfg, WORLD);
    let manifest = PartialManifest::load(&report.output.join("partial_manifest.json")).unwrap();
    assert!(manifest.full);
}

/// Units must carry provenance: a parity merge across two different steps
/// takes each unit bit-exactly from its assigned source.
#[test]
fn parity_merge_preserves_unit_provenance() {
    let cfg = ModelConfig::tiny_test(); // 2 layers, untied
    let dir = tempfile::tempdir().unwrap();
    let mut fx = Fixture::new(cfg.clone(), 2);
    fx.train(2);
    let old_dir = fx.save(dir.path(), &LayerUnit::all(&cfg)); // checkpoint-2
    fx.train(2);
    let new_dir = fx.save(dir.path(), &LayerUnit::all(&cfg)); // checkpoint-4

    let recipe = MergeRecipe {
        merge_method: "passthrough".into(),
        base_checkpoint: new_dir.clone(),
        output: dir.path().join("franken"),
        slices: vec![
            SliceSpec {
                checkpoint: old_dir.clone(),
                units: vec!["layers.1".into(), "embed_tokens".into()],
            },
            SliceSpec {
                checkpoint: new_dir.clone(),
                units: vec!["layers.0".into(), "lm_head".into(), "norm".into()],
            },
        ],
    };
    let report = merge_with_recipe(&recipe, LoadMode::EagerFull, LoadPattern::Sequential).unwrap();
    assert_eq!(report.step, 4, "config donor is the newest source");

    let mut merged = CheckpointHandle::open(&report.output, LoadMode::EagerFull).unwrap();
    let mut old = CheckpointHandle::open(&old_dir, LoadMode::EagerFull).unwrap();
    let mut new = CheckpointHandle::open(&new_dir, LoadMode::EagerFull).unwrap();
    for (unit, from_old) in [
        (LayerUnit::Transformer(1), true),
        (LayerUnit::EmbedTokens, true),
        (LayerUnit::Transformer(0), false),
        (LayerUnit::LmHead, false),
        (LayerUnit::FinalNorm, false),
    ] {
        let donor = if from_old { &mut old } else { &mut new };
        assert_eq!(
            merged.unit_weights(unit).unwrap(),
            donor.unit_weights(unit).unwrap(),
            "weights provenance broken for {unit}"
        );
        let map = merged.zero_meta.index_map();
        for g in map.groups_for_unit(unit).unwrap() {
            for r in 0..WORLD {
                assert_eq!(
                    merged.group_shard(r, g).unwrap(),
                    donor.group_shard(r, g).unwrap(),
                    "optimizer provenance broken for {unit} group {g} rank {r}"
                );
            }
        }
    }
    // Trainer state came from the newest checkpoint.
    assert_eq!(merged.trainer_state.global_step, 4);
    // The old checkpoint's state at the stale units differs from the new
    // one's (otherwise this test proves nothing).
    assert_ne!(
        old.unit_weights(LayerUnit::Transformer(1)).unwrap(),
        new.unit_weights(LayerUnit::Transformer(1)).unwrap()
    );
}

/// A merged checkpoint must be fully resumable, and resuming from a merge
/// of same-step halves continues bit-identically to never failing.
#[test]
fn merged_checkpoint_resumes_bit_exactly() {
    let cfg = ModelConfig::tiny_test_tied();
    let dir = tempfile::tempdir().unwrap();
    let mut fx = Fixture::new(cfg.clone(), 3);
    fx.train(2);

    // Straight-through reference: train 2 more steps without failing.
    let mut reference = Fixture {
        cfg: cfg.clone(),
        model: fx.model.clone(),
        engine: fx.engine.clone(),
        rng: fx.rng.clone(),
        step: fx.step,
    };
    reference.train(2);

    // Save two complementary halves at step 2, "fail", merge, resume.
    let all = LayerUnit::all(&cfg);
    let (ha, hb): (Vec<_>, Vec<_>) = all
        .iter()
        .partition(|u| matches!(u, LayerUnit::Transformer(i) if i % 2 == 0));
    let ha: Vec<LayerUnit> = ha.into_iter().collect();
    let hb: Vec<LayerUnit> = hb.into_iter().collect();
    let a_dir = fx.save(&dir.path().join("a"), &ha);
    let b_dir = fx.save(&dir.path().join("b"), &hb);
    let recipe = MergeRecipe {
        merge_method: "passthrough".into(),
        base_checkpoint: b_dir,
        output: dir.path().join("merged"),
        slices: vec![SliceSpec {
            checkpoint: a_dir,
            units: ha.iter().map(|u| u.as_string()).collect(),
        }],
    };
    let report = merge_with_recipe(&recipe, LoadMode::EagerFull, LoadPattern::Sequential).unwrap();

    // Resume: rebuild model + engine + rng from the merged checkpoint.
    let mut h = CheckpointHandle::open(&report.output, LoadMode::EagerFull).unwrap();
    let mut resumed = Fixture::new(cfg.clone(), 999); // wrong init on purpose
    for rank in 0..WORLD {
        let state = h.rank_state_full(rank).unwrap();
        resumed.engine.load_rank_state(rank, state);
    }
    resumed.engine.step_count = h.zero_meta.optimizer_step;
    resumed
        .engine
        .materialize_params(&mut resumed.model.params, true);
    resumed.rng = h.trainer_state.data_rng.clone();
    resumed.step = h.trainer_state.global_step;
    resumed.train(2);

    for ((_, a), (_, b)) in resumed
        .model
        .params
        .iter()
        .zip(reference.model.params.iter())
    {
        assert_eq!(a.data(), b.data(), "resumed run diverged from reference");
    }
    assert_eq!(resumed.step, reference.step);
}

#[test]
fn overlapping_slices_rejected() {
    let cfg = ModelConfig::tiny_test();
    let dir = tempfile::tempdir().unwrap();
    let mut fx = Fixture::new(cfg.clone(), 4);
    fx.train(1);
    let c1 = fx.save(&dir.path().join("r1"), &LayerUnit::all(&cfg));
    fx.train(1);
    let c2 = fx.save(&dir.path().join("r2"), &LayerUnit::all(&cfg));
    let recipe = MergeRecipe {
        merge_method: "passthrough".into(),
        base_checkpoint: c1.clone(),
        output: dir.path().join("out"),
        slices: vec![
            SliceSpec {
                checkpoint: c1,
                units: vec!["norm".into()],
            },
            SliceSpec {
                checkpoint: c2,
                units: vec!["norm".into()],
            },
        ],
    };
    let err = MergePlan::resolve(&recipe).unwrap_err();
    assert!(matches!(err, TailorError::Plan(_)), "{err}");
    assert!(err.to_string().contains("claimed by both"));
}

#[test]
fn partial_source_missing_unit_rejected_at_plan_time() {
    let cfg = ModelConfig::tiny_test();
    let dir = tempfile::tempdir().unwrap();
    let mut fx = Fixture::new(cfg.clone(), 5);
    fx.train(1);
    let full = fx.save(&dir.path().join("full"), &LayerUnit::all(&cfg));
    let partial = fx.save(&dir.path().join("part"), &[LayerUnit::FinalNorm]);
    let recipe = MergeRecipe {
        merge_method: "passthrough".into(),
        base_checkpoint: full,
        output: dir.path().join("out"),
        slices: vec![SliceSpec {
            checkpoint: partial,
            units: vec!["layers.0".into()], // not in that checkpoint
        }],
    };
    let err = MergePlan::resolve(&recipe).unwrap_err();
    assert!(err.to_string().contains("does not contain unit"), "{err}");
}

#[test]
fn structurally_incompatible_sources_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let cfg_a = ModelConfig::tiny_test();
    let cfg_b = ModelConfig::tiny_test_tied();
    let mut fa = Fixture::new(cfg_a.clone(), 6);
    fa.train(1);
    let ca = fa.save(&dir.path().join("a"), &LayerUnit::all(&cfg_a));
    let mut fb = Fixture::new(cfg_b.clone(), 6);
    fb.train(1);
    let cb = fb.save(&dir.path().join("b"), &LayerUnit::all(&cfg_b));
    let recipe = MergeRecipe {
        merge_method: "passthrough".into(),
        base_checkpoint: ca,
        output: dir.path().join("out"),
        slices: vec![SliceSpec {
            checkpoint: cb,
            units: vec!["norm".into()],
        }],
    };
    let err = MergePlan::resolve(&recipe).unwrap_err();
    assert!(err.to_string().contains("incompatible"), "{err}");
}

/// Table 7's mechanism: the interleaved parity pattern re-reads whole
/// checkpoints per unit under eager loading, while lazy range loading is
/// insensitive to the pattern.
#[test]
fn parity_pattern_multiplies_eager_io() {
    let cfg = ModelConfig::tiny_test();
    let dir = tempfile::tempdir().unwrap();
    let mut fx = Fixture::new(cfg.clone(), 7);
    fx.train(1);
    let c1 = fx.save(&dir.path().join("r1"), &LayerUnit::all(&cfg));
    fx.train(1);
    let c2 = fx.save(&dir.path().join("r2"), &LayerUnit::all(&cfg));
    let recipe = |out: &str| MergeRecipe {
        merge_method: "passthrough".into(),
        base_checkpoint: c2.clone(),
        output: dir.path().join(out),
        slices: vec![SliceSpec {
            checkpoint: c1.clone(),
            units: vec!["layers.0".into(), "embed_tokens".into()],
        }],
    };
    let plan_seq = MergePlan::resolve(&recipe("seq")).unwrap();
    let seq = execute_plan(&plan_seq, LoadMode::EagerFull, LoadPattern::Sequential).unwrap();
    let plan_par = MergePlan::resolve(&recipe("par")).unwrap();
    let par = execute_plan(
        &plan_par,
        LoadMode::EagerFull,
        LoadPattern::ParityInterleaved,
    )
    .unwrap();
    assert!(
        par.io.full_loads > 2 * seq.io.full_loads,
        "parity {} vs sequential {} full loads",
        par.io.full_loads,
        seq.io.full_loads
    );
    assert!(par.io.bytes_read > 2 * seq.io.bytes_read);
    // Both produce identical outputs.
    checkpoints_bit_identical(&seq.output, &par.output, &cfg, WORLD);

    // Lazy loading makes the pattern nearly irrelevant (the future-work
    // observation of §5.4).
    let plan_lazy = MergePlan::resolve(&recipe("lazy_par")).unwrap();
    let lazy_par = execute_plan(
        &plan_lazy,
        LoadMode::LazyRange,
        LoadPattern::ParityInterleaved,
    )
    .unwrap();
    assert!(lazy_par.io.bytes_read < par.io.bytes_read / 2);
    checkpoints_bit_identical(&seq.output, &lazy_par.output, &cfg, WORLD);
}

/// Base checkpoint fills every unit no slice claims.
#[test]
fn base_fills_unclaimed_units() {
    let cfg = ModelConfig::tiny_test();
    let dir = tempfile::tempdir().unwrap();
    let mut fx = Fixture::new(cfg.clone(), 8);
    fx.train(1);
    let base = fx.save(&dir.path().join("base"), &LayerUnit::all(&cfg));
    let recipe = MergeRecipe {
        merge_method: "passthrough".into(),
        base_checkpoint: base.clone(),
        output: dir.path().join("copy"),
        slices: vec![],
    };
    let report = merge_with_recipe(&recipe, LoadMode::LazyRange, LoadPattern::Sequential).unwrap();
    checkpoints_bit_identical(&report.output, &base, &cfg, WORLD);
}
