//! Resume a training run from any *full* checkpoint — a plain one or a
//! Frankenstein assembled by LLMTailor.
//!
//! All checkpoint bytes come through `llmt_ckpt::restore` — the unified
//! parallel pipeline with verify-on-read — so resume gets streamed
//! digest checks and fault-injection coverage for free. Because the
//! restore engine executes a reshard plan on load, the configured dp×tp
//! topology no longer has to match the saved layout: a run saved at
//! `{dp=4, tp=1}` resumes bit-exactly at `{dp=2, tp=2}` and vice versa.
//!
//! A resume costs what its verified read costs: the optimizer engine
//! adopts the restored rank states and the model is built from their
//! masters, so nothing is initialised, partitioned or zero-filled only to
//! be replaced, and the result does not depend on `TrainerConfig::seed`.

use crate::trainer::{Trainer, TrainerConfig};
use llmt_ckpt::{CkptError, RestoreRequest, RestoreScope, Result};
use llmt_data::BatchSource;
use llmt_model::{Model, ParamSet};
use llmt_optim::{build_groups, AdamWHyper, GroupLayout};
use llmt_storage::vfs::{LocalFs, Storage};
use llmt_zero::ZeroEngine;
use std::path::Path;
use std::sync::Arc;

/// Rebuild a [`Trainer`] from a checkpoint directory on the local
/// filesystem. Convenience wrapper over [`resume_trainer_on`].
pub fn resume_trainer(dir: &Path, config: TrainerConfig) -> Result<Trainer> {
    resume_trainer_on(Arc::new(LocalFs), dir, config)
}

/// Rebuild a [`Trainer`] from a checkpoint directory through a
/// [`Storage`] backend.
///
/// `config` supplies the run-level knobs (paths, intervals, strategy); the
/// optimizer shards, step counters, loss history and data RNG all come
/// from the checkpoint, and the weights rematerialize from the restored
/// FP32 masters exactly as the trainer's own optimizer step would emit
/// them. Fails on partial checkpoints (merge them first), on quarantined
/// directories (torn or tampered saves must never be trained on — see
/// DESIGN.md, "Crash consistency & failure model") and on model-config
/// mismatches. A configured topology differing from the saved layout is
/// fine: the restore engine plans and executes the remap for every group.
pub fn resume_trainer_on(
    storage: Arc<dyn Storage>,
    dir: &Path,
    config: TrainerConfig,
) -> Result<Trainer> {
    // Resume never reads `model.safetensors`: the weights are derived
    // state, rebuilt from the FP32 masters below.
    let restored = llmt_ckpt::restore_checkpoint_on(
        storage,
        dir,
        &RestoreRequest {
            topology: Some(config.topology()),
            scope: RestoreScope::OptimizerOnly,
            ..RestoreRequest::default()
        },
    )?;
    if !restored.config.structurally_equal(&config.model_config) {
        return Err(CkptError::Incompatible(format!(
            "checkpoint model {} does not match configured model {}",
            restored.config.model_name, config.model_config.model_name
        )));
    }

    // The engine adopts the restored rank states and the model is built
    // from their masters: every parameter belongs to exactly one group, so
    // materializing writes every element and nothing is initialised first
    // (`config.seed` plays no part in a resume).
    let mut params = ParamSet::zeros(&config.model_config);
    let mut engine = ZeroEngine::from_rank_states(
        &params,
        build_groups(&config.model_config, GroupLayout::LayerWise),
        config.topology(),
        AdamWHyper {
            weight_decay: 0.01,
            ..Default::default()
        },
        restored.ranks,
    )
    .map_err(|e| {
        CkptError::Incompatible(format!(
            "restored optimizer state does not fit model {} at topology {}: {e}",
            config.model_config.model_name,
            config.topology()
        ))
    })?;
    engine.step_count = restored.zero_meta.optimizer_step;
    engine.materialize_params(&mut params, true);
    let model = Model::from_params(config.model_config.clone(), params);

    let ts = restored.trainer_state;
    // Selective-strategy phase and the save-decision log continue across
    // the failure: the log lives at the run root and the event counter in
    // the trainer state. Without these, a resumed parity run would restart
    // at phase 0 and clobber the history recovery depends on. The
    // *effective* log (recorded entries reconciled against on-disk commit
    // markers) keeps quarantined saves out of the restored history.
    let save_log = llmt_ckpt::effective_save_log(&config.run_root)
        .map(|(log, _scan)| log)
        .unwrap_or_default();
    let data = BatchSource::with_vocab(
        config.task,
        config.data_seed,
        llmt_data::Vocab {
            size: config.model_config.vocab_size as u32,
        },
    );
    let mut trainer = Trainer::from_restored_parts(
        config,
        model,
        engine,
        data,
        ts.data_rng.clone(),
        ts.global_step,
        ts.ckpt_event,
        save_log,
        ts.loss_history,
    );
    trainer.note_restore(&restored.report);
    Ok(trainer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmt_ckpt::CheckpointPaths;
    use llmt_model::LayerUnit;
    use llmtailor::StrategyKind;

    #[test]
    fn resume_from_full_checkpoint_is_bit_exact() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = TrainerConfig::test_default(dir.path().to_path_buf());
        cfg.ckpt_interval = 3;
        // Reference: run 6 steps straight.
        let mut reference = Trainer::new(cfg.clone());
        reference.train_until(6, None).unwrap();
        // Crash after step 4 (last checkpoint at step 3), resume, finish.
        let mut crashed = Trainer::new(cfg.clone());
        crashed.train_until(6, Some(4)).unwrap();
        let mut resumed = resume_trainer(&dir.path().join("checkpoint-3"), cfg.clone()).unwrap();
        assert_eq!(resumed.step, 3);
        resumed.train_until(6, None).unwrap();
        for ((_, a), (_, b)) in resumed
            .model
            .params
            .iter()
            .zip(reference.model.params.iter())
        {
            assert_eq!(a.data(), b.data(), "resume diverged from reference");
        }
        assert_eq!(resumed.engine.step_count, reference.engine.step_count);
        assert_eq!(resumed.loss_history, reference.loss_history);
    }

    #[test]
    fn resume_reshards_to_the_configured_world_size() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = TrainerConfig::test_default(dir.path().to_path_buf());
        cfg.ckpt_interval = 2;
        assert_eq!(cfg.world_size, 2);
        let mut t = Trainer::new(cfg.clone());
        t.train_until(3, None).unwrap();
        let mut wide = cfg.clone();
        wide.world_size = 4;
        let mut resumed = resume_trainer(&dir.path().join("checkpoint-2"), wide).unwrap();
        assert_eq!(resumed.engine.ranks.len(), 4);
        assert_eq!(resumed.step, 2);
        // The resharded trainer keeps training (bit-exactness vs an
        // uninterrupted run at the target world size is covered by the
        // reshard_resume e2e suite).
        resumed.train_until(4, None).unwrap();
    }

    #[test]
    fn resume_rejects_partial_checkpoints() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = TrainerConfig::test_default(dir.path().to_path_buf());
        cfg.ckpt_interval = 2;
        cfg.strategy = StrategyKind::Parity;
        let mut t = Trainer::new(cfg.clone());
        t.train_until(3, None).unwrap();
        let err = resume_trainer(&dir.path().join("checkpoint-2"), cfg).unwrap_err();
        assert!(matches!(err, CkptError::Incompatible(_)), "{err}");
    }

    /// Units each checkpoint of a run holds, by step, from its manifest.
    fn units_by_step(root: &Path, steps: std::ops::RangeInclusive<u64>) -> Vec<Vec<LayerUnit>> {
        steps
            .map(|step| {
                llmt_ckpt::read_seal(&LocalFs, &CheckpointPaths::under(root, step))
                    .manifest
                    .unwrap()
                    .units
            })
            .collect()
    }

    /// An uninterrupted run and a crash + recover + resume must select
    /// the same units at every checkpoint event after the failure.
    fn assert_resume_keeps_the_strategy_in_phase(strategy: StrategyKind) {
        const END: u64 = 16;
        const FAIL: u64 = 11; // newest checkpoint: step 10, written by event 9
        let configure = |root: &Path| {
            let mut cfg = TrainerConfig::test_default(root.to_path_buf());
            cfg.model_config = llmt_model::ModelConfig {
                num_hidden_layers: 6, // room for Filtered's middle layers
                ..cfg.model_config
            };
            cfg.ckpt_interval = 1;
            cfg.strategy = strategy;
            cfg
        };
        let straight_root = tempfile::tempdir().unwrap();
        Trainer::new(configure(straight_root.path()))
            .train_until(END, None)
            .unwrap();

        let root = tempfile::tempdir().unwrap();
        let cfg = configure(root.path());
        Trainer::new(cfg.clone())
            .train_until(END, Some(FAIL))
            .unwrap();
        let (merged, _) =
            crate::recover_checkpoint(root.path(), &cfg.model_config, FAIL, "merged").unwrap();
        let mut resumed = resume_trainer(&merged, cfg).unwrap();
        assert_eq!(resumed.step, FAIL - 1);
        resumed.train_until(END, None).unwrap();

        assert_eq!(
            units_by_step(root.path(), FAIL..=END),
            units_by_step(straight_root.path(), FAIL..=END),
            "{strategy:?}: the resumed run left the uninterrupted run's phase"
        );
    }

    #[test]
    fn full_strategy_resumes_in_phase() {
        assert_resume_keeps_the_strategy_in_phase(StrategyKind::Full);
    }

    /// Fails today: the checkpoint stores the index of the event that
    /// wrote it and resume continues *at* that index, so the resumed run
    /// repeats the last phase (ROADMAP item 1). Continuing at `saved + 1`
    /// fixes it, but `llmt-ledger`'s oracle compares a resumed trainer's
    /// `ckpt_event` with the value captured before the save and has to
    /// move in the same change.
    #[test]
    #[ignore = "ROADMAP item 1: resume repeats the saved event's phase"]
    fn selective_strategies_resume_in_phase() {
        assert_resume_keeps_the_strategy_in_phase(StrategyKind::Parity);
        assert_resume_keeps_the_strategy_in_phase(StrategyKind::Filtered);
    }

    #[test]
    fn resume_refuses_quarantined_checkpoints() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = TrainerConfig::test_default(dir.path().to_path_buf());
        cfg.ckpt_interval = 2;
        let mut t = Trainer::new(cfg.clone());
        t.train_until(3, None).unwrap();
        // Simulate a crash that tore the marker off an otherwise-complete
        // checkpoint: resume must refuse it outright.
        std::fs::remove_file(dir.path().join("checkpoint-2/COMMIT")).unwrap();
        let err = resume_trainer(&dir.path().join("checkpoint-2"), cfg).unwrap_err();
        assert!(matches!(err, CkptError::Quarantined(..)), "{err}");
    }

    #[test]
    fn resume_rejects_wrong_model() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = TrainerConfig::test_default(dir.path().to_path_buf());
        cfg.ckpt_interval = 2;
        let mut t = Trainer::new(cfg.clone());
        t.train_until(3, None).unwrap();
        let mut other = cfg.clone();
        other.model_config = llmt_model::ModelConfig::tiny_test_tied();
        let err = resume_trainer(&dir.path().join("checkpoint-2"), other).unwrap_err();
        assert!(matches!(err, CkptError::Incompatible(_)));
    }

    #[test]
    fn resumed_trainer_saves_valid_checkpoints() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = TrainerConfig::test_default(dir.path().to_path_buf());
        cfg.ckpt_interval = 2;
        let mut t = Trainer::new(cfg.clone());
        t.train_until(3, None).unwrap();
        let mut resumed = resume_trainer(&dir.path().join("checkpoint-2"), cfg).unwrap();
        resumed.train_until(5, None).unwrap();
        let m = llmt_ckpt::read_seal(&LocalFs, &CheckpointPaths::under(dir.path(), 4))
            .manifest
            .unwrap();
        assert!(m.full);
        assert_eq!(m.units, LayerUnit::all(&resumed.config.model_config));
    }
}
