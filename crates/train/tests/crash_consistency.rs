//! Chaos suite: sweep every kill-point of a parity-checkpointed training
//! run and assert the crash-consistency contract end to end.
//!
//! For each storage operation `k` of a reference run, a fresh run is
//! killed at exactly op `k` with a torn write (a prefix of the op's bytes
//! reaches disk, then the storage dies). The contract:
//!
//! 1. Committed checkpoints form a *prefix* of the clean run's checkpoint
//!    schedule — a kill never yields a committed checkpoint the clean run
//!    would not have produced, and never un-commits an earlier one.
//! 2. Recovery uses only committed checkpoints. When enough of them exist
//!    to cover every unit, resume + train-to-end is **bit-exact** with a
//!    clean-resume control recovered from the same committed horizon.
//! 3. When coverage is impossible (zero or one parity checkpoint), the
//!    failure is clean ("never checkpointed"), not a torn-state load.
//! 4. `prune_run` with quarantined debris present never deletes the last
//!    committed copy of a unit: recovery still works after pruning, and
//!    the quarantined dirs are untouched.

use llmt_ckpt::engine::{self, Parallelism, SaveOptions};
use llmt_ckpt::scan_run_root;
use llmt_storage::vfs::{FaultKind, FaultSpec, FaultyFs, LocalFs};
use llmt_train::{recover_checkpoint, resume_trainer, Trainer, TrainerConfig};
use llmtailor::StrategyKind;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

const END: u64 = 8; // parity checkpoints at steps 2, 4, 6, 8

/// Training only: the sweep saves through [`train_and_save`], with its
/// own engine options, so the trainer's interval checkpointing stays off.
fn chaos_config(root: &Path) -> TrainerConfig {
    let mut cfg = TrainerConfig::test_default(root.to_path_buf());
    cfg.strategy = StrategyKind::Parity;
    cfg
}

/// Train to `END`, checkpointing every second step through the trainer's
/// storage. Small chunks force every payload file through multiple
/// streaming writes, making mid-file tears reachable kill points;
/// sequential shard I/O keeps the op schedule deterministic so op `k`
/// means the same thing in the census and in the sweep.
fn train_and_save(t: &mut Trainer, dedup: bool) -> llmt_ckpt::Result<()> {
    let storage = t.storage().clone();
    let opts = SaveOptions {
        chunk_bytes: 8192,
        parallelism: Parallelism::Sequential,
        ..SaveOptions::dedup(dedup)
    };
    while t.step < END {
        t.train_until(t.step + 2, None)?;
        t.checkpoint_with(|req| Ok(engine::save(&[&*storage], req, &opts)?.report))?;
    }
    Ok(())
}

/// Resume from `merged` and train to `END` without further checkpointing
/// (so control recoveries at different horizons cannot clobber each other).
fn resume_and_finish(merged: &Path, root: &Path) -> Trainer {
    let mut t = resume_trainer(merged, chaos_config(root)).unwrap();
    t.train_until(END, None).unwrap();
    t
}

fn assert_bit_exact(a: &Trainer, b: &Trainer, ctx: &str) {
    assert_eq!(a.step, b.step, "{ctx}: step");
    assert_eq!(a.loss_history, b.loss_history, "{ctx}: loss history");
    for ((spec, x), (_, y)) in a.model.params.iter().zip(b.model.params.iter()) {
        assert_eq!(x.data(), y.data(), "{ctx}: tensor {} diverged", spec.name);
    }
    assert_eq!(
        a.engine.step_count, b.engine.step_count,
        "{ctx}: optimizer step count"
    );
}

fn kill_point_sweep(dedup: bool) {
    // --- Census: count the ops of a clean run through a never-firing
    // FaultyFs, so the sweep covers exactly the real kill-points.
    let census_root = tempfile::tempdir().unwrap();
    let census_fs = Arc::new(FaultyFs::new(LocalFs, FaultSpec::never()));
    let mut census = Trainer::with_storage(chaos_config(census_root.path()), census_fs.clone());
    train_and_save(&mut census, dedup).unwrap();
    let total_ops = census_fs.ops_attempted();
    assert!(
        total_ops > 40,
        "census run used suspiciously few ops: {total_ops}"
    );
    let clean_steps = scan_run_root(census_root.path()).committed_steps();
    assert_eq!(clean_steps, vec![2, 4, 6, 8]);
    drop(census);

    // --- Control: a pristine run every chaos recovery is compared against.
    // Recovering the control root at horizon `s` merges exactly the
    // checkpoints a prefix-committed chaos run has, because training and
    // saving are deterministic.
    let control_root = tempfile::tempdir().unwrap();
    let mut control = Trainer::new(chaos_config(control_root.path()));
    train_and_save(&mut control, dedup).unwrap();
    drop(control);
    let mut control_cache: BTreeMap<u64, Trainer> = BTreeMap::new();

    let mut full_cover_kills = 0u64;
    let mut thin_cover_kills = 0u64;
    for k in 0..total_ops {
        let root = tempfile::tempdir().unwrap();
        let spec = FaultSpec {
            at_op: k,
            kind: FaultKind::TornWrite { keep_bytes: None },
        };
        // Seed the tear offset with k so the sweep varies where each
        // torn file is cut.
        let fs = Arc::new(FaultyFs::with_seed(LocalFs, spec, k));
        let mut t = Trainer::with_storage(chaos_config(root.path()), fs.clone());
        let run = train_and_save(&mut t, dedup);
        assert!(run.is_err(), "kill at op {k} must abort the run");
        assert!(fs.is_dead(), "kill at op {k} did not fire");
        drop(t);

        // Contract 1: committed checkpoints are a prefix of the schedule.
        let scan = scan_run_root(root.path());
        let committed = scan.committed_steps();
        assert!(
            clean_steps.starts_with(&committed),
            "kill at op {k}: committed {committed:?} is not a prefix of {clean_steps:?}"
        );

        // Failed saves clean their staging through the engine's single
        // failure path, so the only possible `.tmp` leftover is the one
        // save the kill itself tore mid-write (cleanup needs a live
        // storage, and the kill leaves it dead).
        let tmp_dirs = std::fs::read_dir(root.path())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert!(
            tmp_dirs <= 1,
            "kill at op {k}: {tmp_dirs} staging dirs survived (only the torn save's may)"
        );

        let cfg = chaos_config(root.path());
        match recover_checkpoint(
            root.path(),
            &cfg.model_config,
            END + 100,
            &format!("rec-{k}"),
        ) {
            Ok((merged, _report)) => {
                // Contract 2: bit-exact with the clean-resume control
                // recovered from the same committed horizon.
                full_cover_kills += 1;
                let s = *committed
                    .last()
                    .expect("recovery implies committed checkpoints");
                let resumed = resume_and_finish(&merged, root.path());
                assert_eq!(resumed.step, END);
                let control_root_path = control_root.path().to_path_buf();
                let control_resumed = control_cache.entry(s).or_insert_with(|| {
                    let (cm, _) = recover_checkpoint(
                        &control_root_path,
                        &cfg.model_config,
                        s,
                        &format!("ctrl-{s}"),
                    )
                    .unwrap();
                    resume_and_finish(&cm, &control_root_path)
                });
                assert_bit_exact(
                    &resumed,
                    control_resumed,
                    &format!("kill at op {k} (horizon {s})"),
                );

                // Contract 4: pruning with quarantined debris present keeps
                // every unit's last committed copy recoverable.
                llmtailor::prune_run(root.path(), &cfg.model_config, 0).unwrap();
                let post = scan_run_root(root.path());
                assert_eq!(
                    post.quarantined.len(),
                    scan.quarantined.len(),
                    "kill at op {k}: prune touched quarantined dirs"
                );
                let (merged2, _) = recover_checkpoint(
                    root.path(),
                    &cfg.model_config,
                    END + 100,
                    &format!("rec2-{k}"),
                )
                .expect("recovery must survive pruning");
                let resumed2 = resume_and_finish(&merged2, root.path());
                assert_bit_exact(&resumed2, &resumed, &format!("kill at op {k} post-prune"));
            }
            Err(e) => {
                // Contract 3: only legitimate when parity coverage is
                // impossible (fewer than two committed checkpoints).
                thin_cover_kills += 1;
                assert!(
                    committed.len() < 2,
                    "kill at op {k}: recovery failed ({e}) despite committed {committed:?}"
                );
                assert!(
                    e.to_string().contains("never checkpointed"),
                    "kill at op {k}: unexpected failure {e}"
                );
            }
        }
    }
    // The sweep must have exercised both regimes.
    assert!(full_cover_kills > 0, "no kill-point ever had full coverage");
    assert!(thin_cover_kills > 0, "no kill-point ever had thin coverage");
}

#[test]
fn every_kill_point_resumes_bit_exact_from_newest_committed() {
    kill_point_sweep(false);
}

/// Same contract with the content-addressed store in the write path: the
/// sweep additionally tears object staging, hard-link materialization and
/// the post-prune garbage collection.
#[test]
fn every_kill_point_resumes_bit_exact_with_dedup_checkpoints() {
    kill_point_sweep(true);
}
