//! Checkpoint-set fixtures for the loading/merging experiments (Table 7).

use llmt_ckpt::engine::{self, LiveState, SaveOptions};
use llmt_ckpt::writer::SaveRequest;
use llmt_ckpt::{CheckpointPaths, TrainerState};
use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
use llmt_storage::vfs::LocalFs;
use llmt_tensor::rng::Prng;
use llmt_zero::ZeroEngine;
use llmtailor::{MergeRecipe, SliceSpec};
use std::path::{Path, PathBuf};

/// A trained model with its engine, able to emit checkpoints.
pub struct CkptFactory {
    /// Model config.
    pub config: ModelConfig,
    model: Model,
    engine: ZeroEngine,
    step: u64,
    rng: Prng,
}

impl CkptFactory {
    /// Train `steps` steps so the state is non-trivial.
    pub fn new(config: ModelConfig, world: usize, seed: u64, steps: u64) -> Self {
        let mut model = Model::new(config.clone(), seed);
        let mut engine = ZeroEngine::new(
            &model.params,
            build_groups(&config, GroupLayout::LayerWise),
            world,
            AdamWHyper::default(),
        );
        let mut rng = Prng::seed_from_u64(seed ^ 0xF1C7);
        for _ in 0..steps {
            let tokens: Vec<u32> = (0..2 * 16)
                .map(|_| rng.below(config.vocab_size) as u32)
                .collect();
            let mut grads = ParamSet::zeros(&config);
            model.loss_and_grad(&Batch::new(tokens, 2, 16), &mut grads);
            engine.step(&mut model.params, &grads, 1e-3, true);
        }
        CkptFactory {
            config,
            model,
            engine,
            step: steps,
            rng,
        }
    }

    /// Advance training by `steps` more steps.
    pub fn advance(&mut self, steps: u64) {
        for _ in 0..steps {
            let tokens: Vec<u32> = (0..2 * 16)
                .map(|_| self.rng.below(self.config.vocab_size) as u32)
                .collect();
            let mut grads = ParamSet::zeros(&self.config);
            self.model
                .loss_and_grad(&Batch::new(tokens, 2, 16), &mut grads);
            self.engine.step(&mut self.model.params, &grads, 1e-3, true);
        }
        self.step += steps;
    }

    /// Save a checkpoint of the given units under `root` at the current
    /// step, returning its directory.
    pub fn save(&self, root: &Path, units: &[LayerUnit]) -> PathBuf {
        let ts = TrainerState {
            global_step: self.step,
            ckpt_event: 0,
            lr_schedule: LrSchedule::Constant { lr: 1e-3 },
            last_lr: 1e-3,
            loss_history: vec![],
            data_rng: self.rng.clone(),
            task: "fixture".into(),
            model_name: self.config.model_name.clone(),
            micro_batch: 2,
            grad_accum: 1,
            seq_len: 16,
        };
        engine::save(
            &[&LocalFs],
            &SaveRequest {
                dir: &CheckpointPaths::under(root, self.step).dir,
                step: self.step,
                source: &LiveState {
                    config: &self.config,
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
        .expect("fixture save failed")
        .report
        .paths
        .dir
    }
}

/// Build a recipe that sources contiguous unit blocks from `n` checkpoints.
/// Each block comes from a checkpoint written at a successive step, so the
/// fixture mirrors the paper's "layers 1-16 from checkpoint-100, layers
/// 17-32 from checkpoint-200" loading description.
pub fn block_recipe(
    factory: &mut CkptFactory,
    root: &Path,
    n_sources: usize,
    partial: bool,
    output: &Path,
) -> MergeRecipe {
    let units = LayerUnit::all(&factory.config);
    let per = units.len().div_ceil(n_sources);
    let mut slices = Vec::new();
    let mut newest = PathBuf::new();
    for (i, chunk) in units.chunks(per).enumerate() {
        if i > 0 {
            factory.advance(1);
        }
        let save_units: Vec<LayerUnit> = if partial {
            chunk.to_vec()
        } else {
            units.clone()
        };
        let sub = root.join(format!("src{i}"));
        let dir = factory.save(&sub, &save_units);
        newest = dir.clone();
        slices.push(SliceSpec {
            checkpoint: dir,
            units: chunk.iter().map(|u| u.as_string()).collect(),
        });
    }
    MergeRecipe {
        merge_method: "passthrough".into(),
        base_checkpoint: newest,
        output: output.to_path_buf(),
        slices,
    }
}

/// A two-source parity recipe over full checkpoints (Table 7's "parity
/// (2)" row): odd layers + embedding from the older checkpoint, the rest
/// from the newer.
pub fn parity_recipe(factory: &mut CkptFactory, root: &Path, output: &Path) -> MergeRecipe {
    let l = factory.config.num_hidden_layers;
    let all = LayerUnit::all(&factory.config);
    let old = factory.save(&root.join("old"), &all);
    factory.advance(1);
    let new = factory.save(&root.join("new"), &all);
    let mut old_units = vec!["embed_tokens".to_string()];
    old_units.push(format!("layers.1-{}:odd", l - 1));
    let mut new_units = vec!["norm".to_string()];
    new_units.push(format!("layers.0-{}:even", l - 1));
    if factory.config.has_lm_head() {
        new_units.push("lm_head".to_string());
    }
    MergeRecipe {
        merge_method: "passthrough".into(),
        base_checkpoint: new.clone(),
        output: output.to_path_buf(),
        slices: vec![
            SliceSpec {
                checkpoint: old,
                units: old_units,
            },
            SliceSpec {
                checkpoint: new,
                units: new_units,
            },
        ],
    }
}
