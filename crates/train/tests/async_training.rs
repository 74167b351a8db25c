//! Async-checkpointing trainer integration: the overlapped path produces
//! the same checkpoints as the blocking path and composes with selective
//! strategies and recovery.

use llmt_ckpt::{CheckpointHandle, LoadMode};
use llmt_model::LayerUnit;
use llmt_storage::vfs::LocalFs;
use llmt_train::{recover_checkpoint, resume_trainer, Trainer, TrainerConfig};
use llmtailor::StrategyKind;

#[test]
fn async_run_produces_identical_checkpoints_to_sync_run() {
    let sync_dir = tempfile::tempdir().unwrap();
    let async_dir = tempfile::tempdir().unwrap();
    let mut sync_cfg = TrainerConfig::test_default(sync_dir.path().to_path_buf());
    sync_cfg.ckpt_interval = 2;
    let mut async_cfg = sync_cfg.clone();
    async_cfg.run_root = async_dir.path().to_path_buf();
    async_cfg.async_checkpointing = true;

    let mut a = Trainer::new(sync_cfg.clone());
    let ra = a.train_until(7, None).unwrap();
    let mut b = Trainer::new(async_cfg);
    let rb = b.train_until(7, None).unwrap();

    let mut a_steps = ra.ckpt_steps.clone();
    let mut b_steps = rb.ckpt_steps.clone();
    a_steps.sort_unstable();
    b_steps.sort_unstable();
    assert_eq!(a_steps, b_steps);
    assert_eq!(ra.ckpt_io.bytes, rb.ckpt_io.bytes);
    assert_eq!(ra.ckpt_io.files, rb.ckpt_io.files);

    // Only the overlapped path stages copy-on-write snapshot memory — a
    // synchronous save borrows the live state — and what it stages is
    // bounded by what the run wrote.
    assert_eq!(a.snapshot_gauge().peak_bytes(), 0, "sync save staged bytes");
    let staged = b.snapshot_gauge();
    assert!(staged.clones() > 0, "async save cloned no unit blocks");
    assert!(staged.peak_bytes() > 0, "async save staged no bytes");
    assert!(staged.peak_bytes() < ra.ckpt_io.bytes);
    // Stage timings flow from the engine into the run tally, the
    // snapshot stage on the overlapped path alone.
    for (name, stages) in [("sync", &ra.ckpt_io.stages), ("async", &rb.ckpt_io.stages)] {
        assert!(
            stages.encode_ns > 0 && stages.place_ns > 0 && stages.commit_ns > 0,
            "{name}: empty stage timings {stages:?}"
        );
    }
    assert_eq!(ra.ckpt_io.stages.snapshot_ns, 0);
    assert!(rb.ckpt_io.stages.snapshot_ns > 0);

    for step in a_steps {
        let mut ha = CheckpointHandle::open(
            &sync_dir.path().join(format!("checkpoint-{step}")),
            LoadMode::EagerFull,
        )
        .unwrap();
        let mut hb = CheckpointHandle::open(
            &async_dir.path().join(format!("checkpoint-{step}")),
            LoadMode::EagerFull,
        )
        .unwrap();
        for unit in LayerUnit::all(&sync_cfg.model_config) {
            assert_eq!(
                ha.unit_weights(unit).unwrap(),
                hb.unit_weights(unit).unwrap(),
                "step {step} unit {unit}"
            );
        }
        for rank in 0..sync_cfg.world_size {
            assert_eq!(
                ha.rank_state_full(rank).unwrap(),
                hb.rank_state_full(rank).unwrap()
            );
        }
    }
}

#[test]
fn async_parity_run_recovers_after_crash() {
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = TrainerConfig::test_default(dir.path().to_path_buf());
    cfg.ckpt_interval = 2;
    cfg.strategy = StrategyKind::Parity;
    cfg.async_checkpointing = true;
    let mut t = Trainer::new(cfg.clone());
    t.train_until(12, Some(9)).unwrap();
    drop(t); // crash: joins the writer, all submitted snapshots landed
    let (merged, _) = recover_checkpoint(dir.path(), &cfg.model_config, 9, "merged").unwrap();
    let mut resumed = resume_trainer(&merged, cfg).unwrap();
    resumed.train_until(12, None).unwrap();
    assert_eq!(resumed.step, 12);
}

#[test]
fn async_save_log_only_records_completed_writes() {
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = TrainerConfig::test_default(dir.path().to_path_buf());
    cfg.ckpt_interval = 2;
    cfg.async_checkpointing = true;
    let mut t = Trainer::new(cfg.clone());
    let report = t.train_until(6, None).unwrap();
    // Everything drained at segment end: log matches written checkpoints.
    let log =
        llmt_ckpt::manifest::SaveLog::load_on(&LocalFs, &dir.path().join("save_log.json")).unwrap();
    for u in LayerUnit::all(&cfg.model_config) {
        assert_eq!(
            log.saved_at[&u.as_string()],
            report.ckpt_steps.iter().copied().collect::<Vec<_>>()
        );
    }
}
