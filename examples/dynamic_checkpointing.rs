//! The paper's future-work direction realized: dynamic, update-magnitude-
//! driven checkpoint selection with a staleness guarantee, composed with
//! overlapped (async) writes — and the same recovery pipeline.
//!
//! Run with: `cargo run --release --example dynamic_checkpointing`

use llmt_ckpt::manifest::SaveLog;
use llmt_storage::vfs::LocalFs;
use llmt_train::{recover_checkpoint, resume_trainer, Trainer, TrainerConfig};
use llmtailor::StrategyKind;

fn main() {
    let dir = tempfile::tempdir().unwrap();
    let mut config = TrainerConfig::test_default(dir.path().to_path_buf());
    config.model_config = llmt_model::ModelConfig::llama32_1b_sim();
    config.ckpt_interval = 3;
    config.strategy = StrategyKind::Dynamic {
        budget_fraction: 0.35,
        max_staleness: 3,
    };
    config.async_checkpointing = true;

    println!(
        "training with dynamic selection (35% parameter budget/event, \
         staleness bound 3) and overlapped writes..."
    );
    let mut t = Trainer::new(config.clone());
    let report = t.train_until(24, Some(20)).expect("training");
    drop(t); // crash; the writer thread drains on drop

    // Show what the strategy actually chose.
    let log = SaveLog::load_on(&LocalFs, &dir.path().join("save_log.json")).unwrap();
    println!("\nper-unit save schedule (step numbers):");
    for (unit, steps) in &log.saved_at {
        println!("  {unit:<14} {steps:?}");
    }
    println!(
        "\ncheckpoint volume: {} bytes over {} events",
        report.ckpt_io.bytes, report.ckpt_io.events
    );

    let (merged, mreport) =
        recover_checkpoint(dir.path(), &config.model_config, 20, "merged-20").expect("recover");
    println!(
        "recovered from {} source checkpoints into {}",
        mreport.sources,
        merged.display()
    );
    let mut resumed = resume_trainer(&merged, config).expect("resume");
    resumed.train_until(24, None).expect("finish");
    println!("finished at step {} after recovery", resumed.step);
}
