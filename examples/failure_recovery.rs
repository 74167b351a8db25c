//! Failure recovery walkthrough (artifact tasks T1-T3), now with a *real*
//! mid-write crash: instead of stopping cleanly between steps, the trainer
//! runs on a fault-injecting storage stack (`Trainer::with_storage` over a
//! `FaultyFs`) that tears a checkpoint write partway through, exactly like
//! a node dying mid-save.
//! Recovery then has to distinguish committed checkpoints from the torn
//! (quarantined) one before merging.
//!
//! Run with: `cargo run --release --example failure_recovery`

use llmt_ckpt::{scan_run_root, CheckpointHandle, LoadMode};
use llmt_storage::vfs::{FaultKind, FaultSpec, FaultyFs, LocalFs};
use llmt_train::{recover_checkpoint, resume_trainer, Trainer, TrainerConfig};
use llmtailor::StrategyKind;
use std::sync::Arc;

fn base_config(root: &std::path::Path) -> TrainerConfig {
    let mut config = TrainerConfig::test_default(root.to_path_buf());
    config.model_config = llmt_model::ModelConfig::qwen25_7b_sim();
    config.ckpt_interval = 3;
    config.strategy = StrategyKind::Parity;
    config
}

fn main() {
    // Census: count the storage ops of two clean checkpoint cycles, so the
    // injected crash can be aimed at the *middle of the third save*.
    let census_dir = tempfile::tempdir().unwrap();
    let census_fs = Arc::new(FaultyFs::new(LocalFs, FaultSpec::never()));
    let mut census = Trainer::with_storage(base_config(census_dir.path()), census_fs.clone());
    census.train_until(6, None).expect("census run");
    let kill_at = census_fs.ops_attempted() + 5;
    drop(census);

    // T1: run a training job whose third save tears mid-write.
    let dir = tempfile::tempdir().unwrap();
    let config = base_config(dir.path());
    let spec = FaultSpec {
        at_op: kill_at,
        kind: FaultKind::TornWrite { keep_bytes: None },
    };
    let torn_fs = Arc::new(FaultyFs::with_seed(LocalFs, spec, config.seed));
    let mut trainer = Trainer::with_storage(config.clone(), torn_fs);
    let err = trainer
        .train_until(40, None)
        .expect_err("the torn write must abort the run");
    println!("-- training crashed mid-save --");
    println!("  {err}");

    // The run root now holds committed checkpoints *and* torn debris; the
    // commit-marker scan separates them.
    let scan = scan_run_root(dir.path());
    println!("\n-- run-root scan --");
    println!("  committed:   steps {:?}", scan.committed_steps());
    for q in &scan.quarantined {
        println!(
            "  quarantined: {} ({})",
            q.dir.file_name().unwrap().to_string_lossy(),
            q.status.describe()
        );
    }

    // T2: recover. The effective save log only trusts committed
    // checkpoints, so the torn directory is never a merge source.
    let (merged, report) =
        recover_checkpoint(dir.path(), &config.model_config, 40, "merged-recovered")
            .expect("recovery");
    println!(
        "\nmerge: {} sources, {} bytes read, took {:?}",
        report.sources, report.io.bytes_read, report.duration
    );

    // T3: resume from the sealed merge output and keep training — on the
    // config's own healthy storage; the crash already happened.
    let h = CheckpointHandle::open(&merged, LoadMode::LazyRange).unwrap();
    assert!(h.is_committed(), "merge outputs are committed");
    assert!(h.zero_meta.is_full(), "merged checkpoint must be complete");
    println!(
        "merged checkpoint: step {}, commit status: {}",
        h.trainer_state.global_step,
        h.commit_status().describe()
    );
    let mut resumed = resume_trainer(&merged, config).expect("resume");
    let before = resumed
        .loss_history
        .last()
        .map(|(_, l)| *l)
        .unwrap_or(f64::NAN);
    resumed.train_until(20, None).expect("continue");
    let after = resumed.loss_history.last().map(|(_, l)| *l).unwrap();
    println!("loss at resume {before:.4} -> loss after continuing {after:.4}");
    assert!(after.is_finite());
}
