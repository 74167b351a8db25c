//! Checkpoint retention under partial checkpointing.
//!
//! With full checkpoints, "keep the last N" is safe. With layer-wise
//! partial checkpoints it is not: deleting an old checkpoint can destroy
//! the *only* copy of a unit that newer checkpoints never re-saved, making
//! recovery impossible. The safe rule, derived from the save log: a
//! checkpoint is **load-bearing** iff it is the most recent save of at
//! least one unit. This module computes the prunable set and applies it.

use crate::error::{Result, TailorError};
use llmt_ckpt::manifest::SaveLog;
use llmt_model::{LayerUnit, ModelConfig};
use llmt_storage::vfs::{LocalFs, Storage};
use std::collections::BTreeSet;
use std::path::Path;

/// Which checkpoint steps may be deleted without breaking recovery.
///
/// `existing_steps` are the checkpoints on disk (ascending or not);
/// `keep_last` additionally protects that many newest checkpoints even if
/// they are not load-bearing. Returns the prunable steps, ascending.
pub fn prunable_steps(
    log: &SaveLog,
    config: &ModelConfig,
    existing_steps: &[u64],
    keep_last: usize,
) -> Result<Vec<u64>> {
    let mut steps: Vec<u64> = existing_steps.to_vec();
    steps.sort_unstable();
    steps.dedup();
    let Some(&newest) = steps.last() else {
        return Ok(Vec::new());
    };

    // Load-bearing steps: latest save of each unit at the horizon.
    let mut needed = BTreeSet::new();
    for unit in LayerUnit::all(config) {
        let step = log.latest_for(unit, newest).ok_or_else(|| {
            TailorError::Plan(format!(
                "unit {unit} has no save at or before step {newest}; refusing to prune \
                 an uncoverable run"
            ))
        })?;
        needed.insert(step);
    }
    let protected: BTreeSet<u64> = steps.iter().rev().take(keep_last).copied().collect();
    Ok(steps
        .into_iter()
        .filter(|s| !needed.contains(s) && !protected.contains(s))
        .collect())
}

/// Delete prunable checkpoints under `run_root`. Returns the pruned steps.
///
/// Crash consistency: candidates come from the commit-marker scan, so only
/// *committed* checkpoints are counted for coverage or deleted. Quarantined
/// directories (torn saves, tampered markers, `.tmp` staging leftovers) are
/// left untouched — they are forensic evidence, not reclaimable space — and
/// they never satisfy a unit's coverage, so the last committed copy of a
/// unit survives even when newer torn copies exist.
pub fn prune_run(run_root: &Path, config: &ModelConfig, keep_last: usize) -> Result<Vec<u64>> {
    let fs = LocalFs;
    let (log, scan) = llmt_ckpt::effective_save_log(run_root)?;
    let existing = scan.committed_steps();
    let prunable = prunable_steps(&log, config, &existing, keep_last)?;
    for step in &prunable {
        let dir = run_root.join(format!("checkpoint-{step}"));
        fs.remove_dir_all(&dir)
            .map_err(|e| TailorError::Ckpt(llmt_ckpt::error::io_err(&dir)(e)))?;
    }
    // Deduplicated runs: deleting checkpoints dropped references, so
    // objects no one points at anymore are garbage now. Order matters
    // (checkpoints first, GC second) — the census must not see references
    // from directories about to disappear. Runs redirected into a shared
    // store skip the GC: only the coordinator sees every tenant's
    // references, and it reclaims the dropped objects on its next pass.
    let store = llmt_cas::ObjectStore::for_run_root(run_root);
    if store.is_present(&fs) && !llmt_cas::is_redirected(&fs, run_root) {
        crate::gc::collect_garbage_on(&fs, run_root)?;
    }
    Ok(prunable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;

    fn log_for(
        strategy: StrategyKind,
        cfg: &ModelConfig,
        events: u64,
        interval: u64,
    ) -> (SaveLog, Vec<u64>) {
        let s = strategy.build().unwrap();
        let mut log = SaveLog::default();
        let mut steps = Vec::new();
        for e in 0..events {
            let step = (e + 1) * interval;
            steps.push(step);
            for u in s.select(e, cfg) {
                log.record(u, step);
            }
        }
        (log, steps)
    }

    #[test]
    fn full_strategy_keeps_only_the_newest() {
        let cfg = ModelConfig::tiny_test();
        let (log, steps) = log_for(StrategyKind::Full, &cfg, 5, 10);
        let prunable = prunable_steps(&log, &cfg, &steps, 0).unwrap();
        assert_eq!(prunable, vec![10, 20, 30, 40]);
    }

    #[test]
    fn parity_strategy_keeps_the_last_two() {
        let cfg = ModelConfig::tiny_test();
        let (log, steps) = log_for(StrategyKind::Parity, &cfg, 6, 10);
        let prunable = prunable_steps(&log, &cfg, &steps, 0).unwrap();
        // Events 4 and 5 (steps 50, 60) jointly cover everything.
        assert_eq!(prunable, vec![10, 20, 30, 40]);
    }

    #[test]
    fn filtered_strategy_protects_old_sparse_checkpoints() {
        let cfg = ModelConfig::llama31_8b_sim();
        let (log, steps) = log_for(StrategyKind::Filtered, &cfg, 12, 10);
        let prunable = prunable_steps(&log, &cfg, &steps, 0).unwrap();
        // Sparse events are 5 and 10 (steps 50, 100); each holds one half
        // of the middle layers, so both must survive even though step 50
        // is old.
        assert!(!prunable.contains(&50), "{prunable:?}");
        assert!(!prunable.contains(&100));
        assert!(!prunable.contains(&120), "newest always load-bearing");
        assert!(prunable.contains(&10) && prunable.contains(&60));
    }

    #[test]
    fn keep_last_protects_beyond_coverage() {
        let cfg = ModelConfig::tiny_test();
        let (log, steps) = log_for(StrategyKind::Full, &cfg, 5, 10);
        let prunable = prunable_steps(&log, &cfg, &steps, 3).unwrap();
        assert_eq!(prunable, vec![10, 20]);
    }

    #[test]
    fn uncoverable_run_refuses_to_prune() {
        let cfg = ModelConfig::tiny_test();
        let mut log = SaveLog::default();
        log.record(LayerUnit::FinalNorm, 10); // nothing else ever saved
        let err = prunable_steps(&log, &cfg, &[10], 0).unwrap_err();
        assert!(err.to_string().contains("refusing to prune"));
    }

    #[test]
    fn empty_run_prunes_nothing() {
        let cfg = ModelConfig::tiny_test();
        assert!(prunable_steps(&SaveLog::default(), &cfg, &[], 0)
            .unwrap()
            .is_empty());
    }

    /// Write a committed full checkpoint at `step` under `root`.
    fn write_ckpt(root: &Path, cfg: &ModelConfig, step: u64) {
        write_ckpt_impl(root, cfg, step, false)
    }

    fn write_ckpt_impl(root: &Path, cfg: &ModelConfig, step: u64, dedup: bool) {
        use llmt_ckpt::engine::{self, LiveState, SaveOptions};
        use llmt_obs::MetricsRegistry;
        use llmt_optim::LrSchedule;
        use llmt_storage::vfs::LocalFs;
        let mut model = llmt_model::Model::new(cfg.clone(), 3 + if dedup { step } else { 0 });
        let mut engine = llmt_zero::ZeroEngine::new(
            &model.params,
            llmt_optim::build_groups(cfg, llmt_optim::GroupLayout::LayerWise),
            2,
            llmt_optim::AdamWHyper::default(),
        );
        let mut rng = llmt_tensor::rng::Prng::seed_from_u64(step);
        let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let mut grads = llmt_model::ParamSet::zeros(cfg);
        model.loss_and_grad(&llmt_model::Batch::new(tokens, 2, 8), &mut grads);
        engine.step(&mut model.params, &grads, 1e-3, true);
        let ts = llmt_ckpt::TrainerState {
            global_step: step,
            ckpt_event: 0,
            lr_schedule: LrSchedule::Constant { lr: 1e-3 },
            last_lr: 1e-3,
            loss_history: vec![],
            data_rng: rng,
            task: "retention-test".into(),
            model_name: cfg.model_name.clone(),
            micro_batch: 2,
            grad_accum: 1,
            seq_len: 8,
        };
        let req = llmt_ckpt::SaveRequest {
            dir: &llmt_ckpt::CheckpointPaths::under(root, step).dir,
            step,
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
        };
        engine::save(&[&LocalFs], &req, &SaveOptions::dedup(dedup)).unwrap();
    }

    #[test]
    fn prune_run_never_touches_quarantined_dirs() {
        let dir = tempfile::tempdir().unwrap();
        let cfg = ModelConfig::tiny_test();
        for step in [1u64, 2, 3, 5] {
            write_ckpt(dir.path(), &cfg, step);
        }
        // Tamper with checkpoint-5's marker (newest!) and plant a staging
        // leftover: both are quarantined and must survive the prune.
        std::fs::write(dir.path().join("checkpoint-5/COMMIT"), b"torn").unwrap();
        let staging = dir.path().join("checkpoint-9.tmp");
        std::fs::create_dir_all(&staging).unwrap();
        std::fs::write(staging.join("junk"), b"half a save").unwrap();

        let pruned = prune_run(dir.path(), &cfg, 0).unwrap();
        // Coverage is judged over committed steps only: newest committed is
        // 3, so 1 and 2 go, 3 stays.
        assert_eq!(pruned, vec![1, 2]);
        assert!(!dir.path().join("checkpoint-1").exists());
        assert!(dir.path().join("checkpoint-3").exists());
        assert!(
            dir.path().join("checkpoint-5").exists(),
            "quarantined dirs are never deleted"
        );
        assert!(staging.exists(), "staging leftovers are never deleted");
    }

    #[test]
    fn prune_run_collects_object_garbage_in_dedup_runs() {
        let dir = tempfile::tempdir().unwrap();
        let cfg = ModelConfig::tiny_test();
        // Distinct states per step: pruning step 1 orphans its objects.
        for step in [1u64, 2] {
            write_ckpt_impl(dir.path(), &cfg, step, true);
        }
        let store = llmt_cas::ObjectStore::for_run_root(dir.path());
        let fs = llmt_storage::vfs::LocalFs;
        let before = store.list(&fs).unwrap().len();

        let pruned = prune_run(dir.path(), &cfg, 0).unwrap();
        assert_eq!(pruned, vec![1]);
        let after = store.list(&fs).unwrap().len();
        assert!(
            after < before,
            "GC after prune must reclaim orphaned objects ({before} -> {after})"
        );
        // The survivor's references all still resolve.
        let verify = llmt_ckpt::verify_checkpoint(&dir.path().join("checkpoint-2")).unwrap();
        assert!(verify.ok(), "{:?}", verify.findings);
    }

    #[test]
    fn prune_run_reads_coverage_from_committed_manifests_without_a_log() {
        // No save_log.json at all: the effective log absorbs the committed
        // manifests, so pruning still works and still keeps the newest.
        let dir = tempfile::tempdir().unwrap();
        let cfg = ModelConfig::tiny_test();
        for step in [2u64, 4] {
            write_ckpt(dir.path(), &cfg, step);
        }
        let pruned = prune_run(dir.path(), &cfg, 0).unwrap();
        assert_eq!(pruned, vec![2]);
        assert!(dir.path().join("checkpoint-4").exists());
    }
}
