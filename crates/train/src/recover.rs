//! The full failure-recovery workflow (artifact tasks T2/T3).
//!
//! Given a run directory full of partial checkpoints, the recorded
//! `save_log.json`, and the failure step: auto-generate a merge recipe,
//! execute LLMTailor, and hand back the path of the assembled full
//! checkpoint, ready for [`crate::resume_trainer`].

use llmt_ckpt::effective_save_log;
use llmt_ckpt::LoadMode;
use llmt_model::ModelConfig;
use llmtailor::autorecipe::recipe_from_log;
use llmtailor::{merge_with_recipe, LoadPattern, MergeReport, Result};
use std::path::{Path, PathBuf};

/// Assemble a resumable checkpoint for `failure_step` from the partial
/// checkpoints under `run_root`. Returns the merge report; the output
/// directory is `<run_root>/<output_name>`.
///
/// Crash consistency: the recipe is driven by the *effective* save log —
/// the recorded `save_log.json` reconciled against the on-disk commit
/// markers — so torn or tampered (quarantined) checkpoint directories are
/// never merge sources, and checkpoints that committed but crashed before
/// their log entry was persisted still count.
pub fn recover_checkpoint(
    run_root: &Path,
    config: &ModelConfig,
    failure_step: u64,
    output_name: &str,
) -> Result<(PathBuf, MergeReport)> {
    let (log, _scan) = effective_save_log(run_root)?;
    let recipe = recipe_from_log(&log, config, run_root, failure_step, output_name)?;
    let report = merge_with_recipe(&recipe, LoadMode::EagerFull, LoadPattern::Sequential)?;
    Ok((report.output.clone(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resume::resume_trainer;
    use crate::trainer::{Trainer, TrainerConfig};
    use llmtailor::StrategyKind;

    /// The paper's end-to-end story: train with parity checkpointing,
    /// crash, auto-merge, resume, and reach a final loss matching the
    /// never-failed run closely (Table 1's comparison).
    #[test]
    fn parity_crash_recovery_end_to_end() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = TrainerConfig::test_default(dir.path().to_path_buf());
        cfg.ckpt_interval = 2;
        cfg.strategy = StrategyKind::Parity;
        cfg.lr_schedule = llmt_optim::LrSchedule::Constant { lr: 2e-3 };

        // Reference run, never failing, under a run root of its own: the
        // crashed run's recovery must not see checkpoints from its future.
        let ref_dir = tempfile::tempdir().unwrap();
        let mut reference = Trainer::new(TrainerConfig {
            run_root: ref_dir.path().to_path_buf(),
            ..cfg.clone()
        });
        let ref_report = reference.train_until(12, None).unwrap();

        // Crashing run: dies at step 5 (checkpoints at 2 and 4, each
        // holding half the units).
        let mut crashed = Trainer::new(cfg.clone());
        crashed.train_until(12, Some(5)).unwrap();
        drop(crashed);

        let (merged, report) =
            recover_checkpoint(dir.path(), &cfg.model_config, 5, "merged-5").unwrap();
        assert_eq!(report.sources, 2, "parity merge pulls from two checkpoints");

        let mut resumed = resume_trainer(&merged, cfg).unwrap();
        assert_eq!(resumed.step, 4, "resume at the newest checkpoint step");
        let res_report = resumed.train_until(12, None).unwrap();

        // The Frankenstein state has stale odd layers, so trajectories are
        // not bit-identical — but final losses must land close (the
        // paper's Table 1 shows identical two-decimal losses).
        let lr = ref_report.tail_loss(3);
        let lm = res_report.tail_loss(3);
        assert!(
            (lr - lm).abs() < 0.15,
            "final losses diverged: reference {lr:.3} vs merged-resume {lm:.3}"
        );
    }

    #[test]
    fn recovery_skips_quarantined_checkpoints() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = TrainerConfig::test_default(dir.path().to_path_buf());
        cfg.ckpt_interval = 2;
        let mut t = Trainer::new(cfg.clone());
        t.train_until(5, None).unwrap(); // full checkpoints at 2 and 4
        drop(t);
        // Tamper with checkpoint-4's marker after the fact: it is now
        // quarantined and recovery must fall back to checkpoint-2.
        std::fs::write(dir.path().join("checkpoint-4/COMMIT"), b"garbage").unwrap();
        let (merged, _) = recover_checkpoint(dir.path(), &cfg.model_config, 5, "merged-q").unwrap();
        let resumed = resume_trainer(&merged, cfg).unwrap();
        assert_eq!(
            resumed.step, 2,
            "quarantined checkpoint-4 must not be a source"
        );
    }

    #[test]
    fn recovery_works_without_a_save_log_file() {
        // Crash-after-rename-before-log-write: the checkpoint committed but
        // save_log.json never made it. The effective log reconstructs the
        // entries from the committed manifests.
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = TrainerConfig::test_default(dir.path().to_path_buf());
        cfg.ckpt_interval = 2;
        let mut t = Trainer::new(cfg.clone());
        t.train_until(5, None).unwrap();
        drop(t);
        std::fs::remove_file(dir.path().join("save_log.json")).unwrap();
        let (merged, _) =
            recover_checkpoint(dir.path(), &cfg.model_config, 5, "merged-nl").unwrap();
        let resumed = resume_trainer(&merged, cfg).unwrap();
        assert_eq!(resumed.step, 4);
    }

    #[test]
    fn recovery_fails_cleanly_before_first_cover() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = TrainerConfig::test_default(dir.path().to_path_buf());
        cfg.ckpt_interval = 2;
        cfg.strategy = StrategyKind::Parity;
        let mut t = Trainer::new(cfg.clone());
        // Only one parity checkpoint exists: half the units are missing.
        t.train_until(3, None).unwrap();
        let err = recover_checkpoint(dir.path(), &cfg.model_config, 3, "m").unwrap_err();
        assert!(err.to_string().contains("never checkpointed"), "{err}");
    }
}
