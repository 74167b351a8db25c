//! End-to-end tests of the merge engine against real training state.

use llmt_ckpt::engine::{self, LiveState, SaveOptions};
use llmt_ckpt::writer::SaveRequest;
use llmt_ckpt::{CheckpointHandle, CheckpointPaths, LoadMode, TrainerState};
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
                dir: &CheckpointPaths::under(root, self.step).dir,
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
    let paths = CheckpointPaths::open_on(&LocalFs, &report.output).unwrap();
    let manifest = llmt_ckpt::read_seal(&LocalFs, &paths).manifest.unwrap();
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
    let ranks = (0..WORLD)
        .map(|rank| h.rank_state_full(rank).unwrap())
        .collect();
    resumed.engine = ZeroEngine::from_rank_states(
        &resumed.model.params,
        build_groups(&cfg, GroupLayout::LayerWise),
        resumed.engine.topology(),
        resumed.engine.hyper,
        ranks,
    )
    .unwrap();
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
    let cfg_a = ModelConfig::tiny_test();
    // A tied head; and a donor differing in nothing but the key/value head
    // count, which sizes every layer's k_proj and v_proj.
    let fewer_kv_heads = ModelConfig {
        num_key_value_heads: 1,
        ..cfg_a.clone()
    };
    for cfg_b in [ModelConfig::tiny_test_tied(), fewer_kv_heads] {
        let dir = tempfile::tempdir().unwrap();
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
        // Rejected while planning, before any payload is read or written.
        let err = MergePlan::resolve(&recipe).unwrap_err();
        assert!(matches!(err, TailorError::Plan(_)), "{err}");
        assert!(err.to_string().contains("incompatible"), "{err}");
        assert!(!recipe.output.exists());
    }
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
    let merge = |out: &str, mode: LoadMode, pattern: LoadPattern| {
        let recipe = MergeRecipe {
            merge_method: "passthrough".into(),
            base_checkpoint: c2.clone(),
            output: dir.path().join(out),
            slices: vec![SliceSpec {
                checkpoint: c1.clone(),
                units: vec!["layers.0".into(), "embed_tokens".into()],
            }],
        };
        execute_plan(&MergePlan::resolve(&recipe).unwrap(), mode, pattern).unwrap()
    };
    let seq = merge("seq", LoadMode::EagerFull, LoadPattern::Sequential);
    let par = merge("par", LoadMode::EagerFull, LoadPattern::ParityInterleaved);
    assert!(
        par.io.full_loads > 2 * seq.io.full_loads,
        "parity {} vs sequential {} full loads",
        par.io.full_loads,
        seq.io.full_loads
    );
    assert!(par.io.bytes_read > 2 * seq.io.bytes_read);
    // Pinned by equality. Each source is one model file plus one shard
    // file per rank. Reading by unit, the parity pattern loads and discards
    // all of a unit's files once per unit; persistent handles load every
    // touched file exactly once.
    let units = LayerUnit::all(&cfg).len() as u64;
    let files_per_source = 1 + WORLD as u64;
    assert_eq!(par.io.full_loads, units * files_per_source);
    assert_eq!(seq.io.full_loads, seq.sources as u64 * files_per_source);
    assert_eq!(seq.io.files_opened, seq.io.full_loads);
    // Both produce identical outputs.
    checkpoints_bit_identical(&seq.output, &par.output, &cfg, WORLD);

    // Lazy loading makes the pattern nearly irrelevant (the future-work
    // observation of §5.4): no whole-file load under either pattern, the
    // same tensor bytes, and the parity pattern pays only for the headers
    // it re-reads after each discard.
    let lazy_seq = merge("lazy_seq", LoadMode::LazyRange, LoadPattern::Sequential);
    let lazy_par = merge(
        "lazy_par",
        LoadMode::LazyRange,
        LoadPattern::ParityInterleaved,
    );
    assert_eq!((lazy_seq.io.full_loads, lazy_par.io.full_loads), (0, 0));
    assert_eq!(lazy_seq.io.tensor_reads, lazy_par.io.tensor_reads);
    assert_eq!(lazy_seq.io.files_opened, seq.io.files_opened);
    assert_eq!(lazy_par.io.files_opened, par.io.files_opened);
    assert!(lazy_seq.io.bytes_read <= lazy_par.io.bytes_read);
    assert!(lazy_par.io.bytes_read < par.io.bytes_read / 2);
    checkpoints_bit_identical(&seq.output, &lazy_par.output, &cfg, WORLD);
}

/// Every file under `dir`, relative, sorted.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap().flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                out.push(p.strip_prefix(dir).unwrap().to_path_buf());
            }
        }
    }
    out.sort();
    out
}

/// A merge that fails half way leaves nothing where the caller asked for a
/// checkpoint — no half-written output, no staging directory.
#[test]
fn failed_merge_leaves_nothing_behind() {
    let cfg = ModelConfig::tiny_test();
    let dir = tempfile::tempdir().unwrap();
    let mut fx = Fixture::new(cfg.clone(), 9);
    fx.train(1);
    let c1 = fx.save(&dir.path().join("r1"), &LayerUnit::all(&cfg));
    fx.train(1);
    let c2 = fx.save(&dir.path().join("r2"), &LayerUnit::all(&cfg));
    // The last rank's shard file of one source is cut short: everything
    // before it (model file, earlier ranks) reads and writes fine.
    let shard = CheckpointPaths::open_on(&LocalFs, &c1)
        .unwrap()
        .optim_shard(WORLD - 1);
    let len = std::fs::metadata(&shard).unwrap().len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&shard)
        .unwrap();
    f.set_len(len / 2).unwrap();
    drop(f);

    let out_root = dir.path().join("out");
    std::fs::create_dir_all(&out_root).unwrap();
    let recipe = MergeRecipe {
        merge_method: "passthrough".into(),
        base_checkpoint: c2,
        output: out_root.join("merged"),
        slices: vec![SliceSpec {
            checkpoint: c1,
            units: vec!["layers.0".into(), "embed_tokens".into()],
        }],
    };
    for pattern in [LoadPattern::Sequential, LoadPattern::ParityInterleaved] {
        let err = merge_with_recipe(&recipe, LoadMode::EagerFull, pattern).unwrap_err();
        assert!(matches!(err, TailorError::Ckpt(_)), "{err}");
        let left: Vec<_> = std::fs::read_dir(&out_root)
            .unwrap()
            .flatten()
            .map(|e| e.file_name())
            .collect();
        assert!(left.is_empty(), "a failed merge left {left:?}");
    }
}

/// Merging into a directory that already holds a checkpoint replaces it:
/// nothing of the older merge (its `global_step<N>` tree, a stray payload
/// file) survives into the new one.
#[test]
fn repeated_merge_replaces_the_output() {
    let cfg = ModelConfig::tiny_test();
    let dir = tempfile::tempdir().unwrap();
    let mut fx = Fixture::new(cfg.clone(), 10);
    fx.train(2);
    let old = fx.save(dir.path(), &LayerUnit::all(&cfg)); // checkpoint-2
    fx.train(2);
    let new = fx.save(dir.path(), &LayerUnit::all(&cfg)); // checkpoint-4
    let recipe = |base: &Path, out: &str| MergeRecipe {
        merge_method: "passthrough".into(),
        base_checkpoint: base.to_path_buf(),
        output: dir.path().join(out),
        slices: vec![SliceSpec {
            checkpoint: old.clone(),
            units: vec!["layers.1".into()],
        }],
    };
    let mode = LoadMode::EagerFull;
    let first = merge_with_recipe(&recipe(&old, "out"), mode, LoadPattern::Sequential).unwrap();
    assert_eq!(first.step, 2);
    std::fs::write(first.output.join("global_step2/stray.safetensors"), b"junk").unwrap();

    let second = merge_with_recipe(&recipe(&new, "out"), mode, LoadPattern::Sequential).unwrap();
    assert_eq!(second.step, 4);
    let fresh = merge_with_recipe(&recipe(&new, "fresh"), mode, LoadPattern::Sequential).unwrap();
    assert_eq!(files_under(&second.output), files_under(&fresh.output));
    for f in files_under(&fresh.output) {
        assert_eq!(
            std::fs::read(second.output.join(&f)).unwrap(),
            std::fs::read(fresh.output.join(&f)).unwrap(),
            "{}",
            f.display()
        );
    }
    let report =
        llmt_ckpt::verify_checkpoint_on(std::sync::Arc::new(LocalFs), &second.output, true)
            .unwrap();
    assert!(report.ok(), "{:?}", report.findings);
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
