//! Property tests for the merge engine: any assignment of units across two
//! checkpoints yields a full checkpoint with bit-exact per-unit provenance.

use llmt_ckpt::engine::{self, LiveState, SaveOptions};
use llmt_ckpt::writer::SaveRequest;
use llmt_ckpt::{CheckpointHandle, CheckpointPaths, LoadMode, TrainerState};
use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
use llmt_storage::vfs::LocalFs;
use llmt_tensor::rng::Prng;
use llmt_zero::ZeroEngine;
use llmtailor::{merge_with_recipe, LoadPattern, MergeRecipe, SliceSpec};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const WORLD: usize = 2;

fn save_at(root: &Path, cfg: &ModelConfig, seed: u64, steps: u64) -> PathBuf {
    let mut model = Model::new(cfg.clone(), seed);
    let mut engine = ZeroEngine::new(
        &model.params,
        build_groups(cfg, GroupLayout::LayerWise),
        WORLD,
        AdamWHyper::default(),
    );
    let mut rng = Prng::seed_from_u64(seed ^ 0xBEEF);
    for _ in 0..steps {
        let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let mut grads = ParamSet::zeros(cfg);
        model.loss_and_grad(&Batch::new(tokens, 2, 8), &mut grads);
        engine.step(&mut model.params, &grads, 1e-3, true);
    }
    let ts = TrainerState {
        global_step: steps,
        ckpt_event: 0,
        lr_schedule: LrSchedule::Constant { lr: 1e-3 },
        last_lr: 1e-3,
        loss_history: vec![],
        data_rng: rng,
        task: "prop".into(),
        model_name: cfg.model_name.clone(),
        micro_batch: 2,
        grad_accum: 1,
        seq_len: 8,
    };
    engine::save(
        &[&LocalFs],
        &SaveRequest {
            dir: &CheckpointPaths::under(root, steps).dir,
            step: steps,
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
        &SaveOptions::default(),
    )
    .unwrap()
    .report
    .paths
    .dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For a random subset of units donated by an older checkpoint (the
    /// base supplying the rest), the merged output (a) is full, (b) takes
    /// every donated unit bit-exactly from the donor and every other unit
    /// from the base, for weights and all optimizer shards, under every
    /// load mode and pattern.
    #[test]
    fn random_assignments_preserve_provenance(
        mask in prop::collection::vec(any::<bool>(), 5), // tiny_test: 5 units
        lazy in any::<bool>(),
        interleaved in any::<bool>(),
    ) {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        let old = save_at(&dir.path().join("old"), &cfg, 1, 1);
        let new = save_at(&dir.path().join("new"), &cfg, 1, 2);
        let units = LayerUnit::all(&cfg);
        let donated: Vec<LayerUnit> = units
            .iter()
            .zip(mask.iter())
            .filter(|(_, m)| **m)
            .map(|(u, _)| *u)
            .collect();
        let recipe = MergeRecipe {
            merge_method: "passthrough".into(),
            base_checkpoint: new.clone(),
            output: dir.path().join("out"),
            slices: vec![SliceSpec {
                checkpoint: old.clone(),
                units: donated.iter().map(|u| u.as_string()).collect(),
            }],
        };
        let mode = if lazy { LoadMode::LazyRange } else { LoadMode::EagerFull };
        let pattern = if interleaved {
            LoadPattern::ParityInterleaved
        } else {
            LoadPattern::Sequential
        };
        let report = merge_with_recipe(&recipe, mode, pattern).unwrap();

        let mut merged = CheckpointHandle::open(&report.output, LoadMode::EagerFull).unwrap();
        prop_assert!(merged.zero_meta.is_full());
        let mut h_old = CheckpointHandle::open(&old, LoadMode::EagerFull).unwrap();
        let mut h_new = CheckpointHandle::open(&new, LoadMode::EagerFull).unwrap();
        let map = merged.zero_meta.index_map();
        for unit in units {
            let donor = if donated.contains(&unit) { &mut h_old } else { &mut h_new };
            prop_assert_eq!(
                merged.unit_weights(unit).unwrap(),
                donor.unit_weights(unit).unwrap()
            );
            for g in map.groups_for_unit(unit).unwrap() {
                for r in 0..WORLD {
                    prop_assert_eq!(
                        merged.group_shard(r, g).unwrap(),
                        donor.group_shard(r, g).unwrap()
                    );
                }
            }
        }
        // Config donor is the newest source regardless of assignment.
        prop_assert_eq!(merged.trainer_state.global_step, 2);
    }
}
