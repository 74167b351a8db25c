//! The end-to-end use-case pipeline behind Tables 1/2/4/5:
//! train with a selective strategy, crash, auto-merge with LLMTailor,
//! resume, and compare against the never-failed reference run.

use llmt_data::DataTask;
use llmt_model::ModelConfig;
use llmt_optim::LrSchedule;
use llmt_train::{recover_checkpoint, resume_trainer, RunReport, Trainer, TrainerConfig};
use llmtailor::{MergeReport, StrategyKind};
use std::path::Path;

/// Specification of one use-case experiment.
#[derive(Debug, Clone)]
pub struct UseCaseSpec {
    /// Model to train.
    pub model: ModelConfig,
    /// CPT or SFT.
    pub task: DataTask,
    /// Selective strategy of the crashing run.
    pub strategy: StrategyKind,
    /// Total steps of the run.
    pub total_steps: u64,
    /// Checkpoint interval.
    pub interval: u64,
    /// Step at which the selective run crashes.
    pub fail_at: u64,
    /// Simulated ranks.
    pub world: usize,
    /// Seed shared by both runs.
    pub seed: u64,
}

impl UseCaseSpec {
    /// The paper's SFT setting, scaled to simulation size.
    pub fn qwen_sft(strategy: StrategyKind) -> Self {
        UseCaseSpec {
            model: ModelConfig::qwen25_7b_sim(),
            task: DataTask::Sft,
            strategy,
            total_steps: 60,
            interval: 10,
            fail_at: 45,
            world: 4,
            seed: 17,
        }
    }

    /// The paper's CPT setting, scaled to simulation size.
    pub fn llama_cpt(strategy: StrategyKind) -> Self {
        UseCaseSpec {
            model: ModelConfig::llama31_8b_sim(),
            task: DataTask::Cpt,
            strategy,
            total_steps: 60,
            interval: 10,
            fail_at: 45,
            world: 4,
            seed: 23,
        }
    }

    fn trainer_config(&self, root: &Path, strategy: StrategyKind) -> TrainerConfig {
        TrainerConfig {
            model_config: self.model.clone(),
            task: self.task,
            seed: self.seed,
            data_seed: self.seed ^ 0x5EED,
            world_size: self.world,
            tensor_parallel: 1,
            micro_batch: 2,
            grad_accum: 2,
            seq_len: 48,
            lr_schedule: LrSchedule::WarmupCosine {
                peak_lr: 2e-3,
                min_lr: 2e-4,
                warmup_steps: 5,
                total_steps: self.total_steps,
            },
            ckpt_interval: self.interval,
            strategy,
            run_root: root.to_path_buf(),
            async_checkpointing: false,
            max_grad_norm: None,
            dedup_checkpoints: false,
            frozen_units: Vec::new(),
            ckpt_compress: false,
            ckpt_delta_chain: 0,
        }
    }
}

/// Everything the comparison tables need.
pub struct UseCaseOutcome {
    /// The spec that produced this outcome.
    pub spec: UseCaseSpec,
    /// Reference trainer after an uninterrupted full-checkpoint run.
    pub reference: Trainer,
    /// Trainer resumed from the LLMTailor-merged checkpoint.
    pub resumed: Trainer,
    /// Reference run measurements.
    pub reference_report: RunReport,
    /// Crashing run measurements (up to the failure).
    pub partial_report: RunReport,
    /// Post-resume measurements.
    pub resumed_report: RunReport,
    /// The merge itself.
    pub merge_report: MergeReport,
    /// Final eval losses.
    pub reference_eval_loss: f64,
    /// Eval loss of the resumed model.
    pub resumed_eval_loss: f64,
}

/// Run the full pipeline. `reference_root` and `partial_root` must be
/// distinct empty directories.
pub fn run_use_case(
    spec: &UseCaseSpec,
    reference_root: &Path,
    partial_root: &Path,
) -> UseCaseOutcome {
    // Reference: uninterrupted, default full checkpointing (the
    // transformers-library baseline of §5.1).
    let mut reference = Trainer::new(spec.trainer_config(reference_root, StrategyKind::Full));
    let reference_report = reference
        .train_until(spec.total_steps, None)
        .expect("reference run failed");

    // Selective run: crash at fail_at.
    let mut crashing = Trainer::new(spec.trainer_config(partial_root, spec.strategy));
    let partial_report = crashing
        .train_until(spec.total_steps, Some(spec.fail_at))
        .expect("partial run failed");
    drop(crashing);

    // Auto-recover and resume.
    let (merged_dir, merge_report) = recover_checkpoint(
        partial_root,
        &spec.model,
        spec.fail_at,
        &format!("merged-{}", spec.fail_at),
    )
    .expect("recovery failed");
    let mut resumed = resume_trainer(
        &merged_dir,
        spec.trainer_config(partial_root, spec.strategy),
    )
    .expect("resume failed");
    let resumed_report = resumed
        .train_until(spec.total_steps, None)
        .expect("resumed run failed");

    let reference_eval_loss = reference.eval_loss(8);
    let resumed_eval_loss = resumed.eval_loss(8);
    UseCaseOutcome {
        spec: spec.clone(),
        reference,
        resumed,
        reference_report,
        partial_report,
        resumed_report,
        merge_report,
        reference_eval_loss,
        resumed_eval_loss,
    }
}
