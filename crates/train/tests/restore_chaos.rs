//! Chaos suite for the *read* path: sweep every storage op of a resume
//! and assert the restore engine's failure contract.
//!
//! The restore engine streams every checkpoint byte through the `Storage`
//! trait in bounded chunks, so a fault injector can fail any individual
//! read of any file. Two sweeps over every op index `k` of a reference
//! resume:
//!
//! 1. **Transient** — ops `k` and `k+1` fail with `Interrupted`, then the
//!    storage heals. Behind a `RetryingStorage` the resume must succeed
//!    after backing off, and the resulting trainer must be bit-exact with
//!    a fault-free resume.
//! 2. **Crash** — op `k` and everything after fails. The resume must
//!    surface a clean `CkptError` naming the file it died on, hand back
//!    no partially-bound trainer (`Result` guarantees this by
//!    construction), and leave the checkpoint directory untouched so a
//!    later resume against healthy storage still works.
//!
//! The transient sweep runs twice: over a conventional checkpoint, and
//! over the tip of an every-step delta run, where each payload is decoded
//! down a chain of compressed XOR diffs at the configured cap.

use llmt_storage::vfs::{
    FaultKind, FaultSpec, FaultyFs, LocalFs, ManualClock, RetryPolicy, RetryingStorage,
};
use llmt_train::{resume_trainer, resume_trainer_on, Trainer, TrainerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Train a short run and return (run_root config, checkpoint dir).
fn trained_checkpoint(root: &Path) -> (TrainerConfig, PathBuf) {
    let mut cfg = TrainerConfig::test_default(root.to_path_buf());
    cfg.ckpt_interval = 3;
    let mut t = Trainer::new(cfg.clone());
    t.train_until(4, None).unwrap();
    drop(t);
    (cfg, root.join("checkpoint-3"))
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
    assert_eq!(a.engine.ranks, b.engine.ranks, "{ctx}: optimizer state");
}

/// An every-step run through the delta-chained compressed store, capped at
/// `CHAIN_CAP` hops: returns its config and the tip checkpoint, whose
/// objects sit at the cap.
fn delta_chain_checkpoint(root: &Path) -> (TrainerConfig, PathBuf) {
    const CHAIN_CAP: usize = 4;
    let mut cfg = TrainerConfig::test_default(root.to_path_buf());
    cfg.ckpt_interval = 1;
    cfg.dedup_checkpoints = true;
    cfg.ckpt_compress = true;
    cfg.ckpt_delta_chain = CHAIN_CAP;
    let tip = CHAIN_CAP as u64 + 1;
    let mut t = Trainer::new(cfg.clone());
    t.train_until(tip, None).unwrap();
    drop(t);

    let paths = llmt_ckpt::CheckpointPaths::under(root, tip);
    let refs = llmt_ckpt::read_seal(&LocalFs, &paths)
        .manifest
        .unwrap()
        .objects
        .expect("dedup manifests carry object references");
    let store = llmt_cas::ObjectStore::for_run_root(root);
    let deepest = refs
        .iter_all()
        .map(|(_, object)| {
            let digest = llmt_cas::Digest::parse_hex(&object.digest).unwrap();
            store.chain_len(&LocalFs, digest).unwrap()
        })
        .max();
    assert_eq!(
        deepest,
        Some(CHAIN_CAP),
        "the tip must sit at the chain cap"
    );
    (cfg, paths.dir)
}

/// Sweep 1 of the module docs over every op of a resume of `ckpt`.
fn transient_sweep(cfg: TrainerConfig, ckpt: &Path) {
    let baseline = resume_trainer(ckpt, cfg.clone()).unwrap();

    // Census: count the resume's read ops through a never-firing injector.
    let census_fs = Arc::new(FaultyFs::new(LocalFs, FaultSpec::never()));
    resume_trainer_on(census_fs.clone(), ckpt, cfg.clone()).unwrap();
    let total_ops = census_fs.ops_attempted();
    // The floor is the checkpoint's own file plan: a resume reads every
    // payload file at least once, on top of the seal and the metadata.
    let payload_files = llmt_ckpt::restore_checkpoint(ckpt, &Default::default())
        .unwrap()
        .report
        .files_fetched;
    assert!(payload_files >= 3, "weights plus one shard file per rank");
    assert!(
        total_ops > payload_files as u64,
        "resume read {payload_files} payload files in only {total_ops} storage ops"
    );

    for k in 0..total_ops {
        let clock = Arc::new(ManualClock::default());
        let faulty = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: k,
                kind: FaultKind::Transient { failures: 2 },
            },
        );
        let storage = Arc::new(RetryingStorage::new(
            faulty,
            RetryPolicy::default(),
            clock.clone(),
        ));
        let resumed = resume_trainer_on(storage, ckpt, cfg.clone())
            .unwrap_or_else(|e| panic!("transient fault at op {k} was not absorbed: {e}"));
        assert!(
            clock.sleeps() >= 1,
            "transient fault at op {k} never triggered a backoff"
        );
        assert_bit_exact(&resumed, &baseline, &format!("transient at op {k}"));
    }
}

#[test]
fn transient_read_errors_retry_to_a_bit_exact_resume() {
    let root = tempfile::tempdir().unwrap();
    let (cfg, ckpt) = trained_checkpoint(root.path());
    transient_sweep(cfg, &ckpt);
}

#[test]
fn transient_read_errors_down_a_capped_delta_chain_retry_to_a_bit_exact_resume() {
    let root = tempfile::tempdir().unwrap();
    let (cfg, ckpt) = delta_chain_checkpoint(root.path());
    transient_sweep(cfg, &ckpt);
}

#[test]
fn crashed_reads_fail_cleanly_naming_the_file() {
    let root = tempfile::tempdir().unwrap();
    let (cfg, ckpt) = trained_checkpoint(root.path());
    let baseline = resume_trainer(&ckpt, cfg.clone()).unwrap();

    let census_fs = Arc::new(FaultyFs::new(LocalFs, FaultSpec::never()));
    resume_trainer_on(census_fs.clone(), &ckpt, cfg.clone()).unwrap();
    let total_ops = census_fs.ops_attempted();

    let mut payload_errors = 0u64;
    for k in 0..total_ops {
        let fs = Arc::new(FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: k,
                kind: FaultKind::Crash,
            },
        ));
        // `resume_trainer_on` returns `Result<Trainer>`: on `Err` no
        // trainer exists at all, so there is nothing partially bound to
        // leak into a training loop.
        let err = match resume_trainer_on(fs.clone(), &ckpt, cfg.clone()) {
            Err(e) => e,
            Ok(_) => panic!("crash at op {k} did not fail the resume"),
        };
        assert!(fs.is_dead(), "crash at op {k} did not fire");
        let msg = err.to_string();
        // Every read happens inside the checkpoint directory, so the
        // error names the file (and for payload fetches, the unit or
        // rank) the restore died on.
        assert!(
            msg.contains("checkpoint-3"),
            "crash at op {k}: error does not name the failing file: {msg}"
        );
        if msg.contains("restoring") {
            payload_errors += 1;
        }
    }
    assert!(
        payload_errors > 0,
        "no kill-point ever landed in a payload fetch"
    );

    // The crashed attempts never mutated the checkpoint: a resume against
    // healthy storage is still bit-exact with the original baseline.
    let again = resume_trainer(&ckpt, cfg).unwrap();
    assert_bit_exact(&again, &baseline, "post-sweep resume");
}
