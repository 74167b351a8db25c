//! Property test for the load-path hardening: a checkpoint whose
//! optimizer shard lost or renamed one tensor must surface a typed error
//! from every loader — the restore engine, deep verification, and the
//! merge executor's source reads — and must never panic. This pins the
//! PR-wide contract that no library panic is reachable from the load
//! path on malformed inputs.

use llmt_ckpt::{
    restore_checkpoint, safetensors, verify_checkpoint_on, CheckpointHandle, CheckpointPaths,
    LoadMode, RestoreRequest,
};
use llmt_storage::vfs::LocalFs;
use llmt_train::{Trainer, TrainerConfig};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// One pristine full checkpoint, built once and copied per case.
fn pristine_checkpoint() -> &'static Path {
    static PRISTINE: OnceLock<(tempfile::TempDir, PathBuf)> = OnceLock::new();
    let (_keep, path) = PRISTINE.get_or_init(|| {
        let dir = tempfile::tempdir().expect("tempdir");
        let mut cfg = TrainerConfig::test_default(dir.path().to_path_buf());
        cfg.ckpt_interval = 2;
        let mut t = Trainer::new(cfg);
        t.train_until(2, None).expect("fixture training failed");
        let ckpt = dir.path().join("checkpoint-2");
        assert!(ckpt.exists());
        (dir, ckpt)
    });
    path
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dest = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), &dest).unwrap();
        }
    }
}

proptest! {
    // Each case copies the fixture and drives three full loaders; a
    // couple dozen cases cover every (rank, tensor, mutation) class of
    // the tiny fixture many times over.
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn corrupted_optimizer_tensor_always_errors_never_panics(
        rank in 0usize..2,
        sel in any::<u32>(),
        remove in any::<bool>(),
    ) {
        let work = tempfile::tempdir().unwrap();
        let dir = work.path().join("checkpoint-2");
        copy_dir(pristine_checkpoint(), &dir);

        // Rename or remove one randomly chosen optimizer tensor in one
        // rank's shard file. The file stays a perfectly valid
        // safetensors container — only the checkpoint contract breaks.
        let paths = CheckpointPaths::open_on(&LocalFs, &dir).expect("checkpoint dir opens");
        let shard = paths.optim_shard(rank);
        let (mut tensors, metadata) = safetensors::read_file(&shard).expect("shard reads");
        prop_assume!(!tensors.is_empty());
        let idx = sel as usize % tensors.len();
        let victim = tensors[idx].0.clone();
        if remove {
            tensors.remove(idx);
        } else {
            tensors[idx].0.push_str(".renamed");
        }
        safetensors::write_file(&shard, &tensors, &metadata).expect("shard rewrites");

        // 1. The restore engine refuses with a typed error.
        let restored = restore_checkpoint(&dir, &RestoreRequest::default());
        prop_assert!(
            restored.is_err(),
            "restore accepted a shard missing '{victim}' (remove={remove})"
        );

        // 2. Deep verification flags the checkpoint — findings or a typed
        //    error are both acceptable; a panic is not.
        if let Ok(report) = verify_checkpoint_on(Arc::new(LocalFs), &dir, true) {
            prop_assert!(
                !report.ok(),
                "deep verify missed the corrupted '{victim}' (remove={remove})"
            );
        }

        // 3. Merge-source loading: reading the corrupted rank's groups
        //    through the checkpoint handle (the merge executor's fetch
        //    path) errors on the damaged group.
        let mut handle = CheckpointHandle::open(&dir, LoadMode::EagerFull).expect("handle opens");
        let groups = handle.zero_meta.groups.len();
        let any_err = (0..groups).any(|g| handle.group_shard(rank, g).is_err());
        prop_assert!(
            any_err,
            "every group shard of rank {rank} loaded despite '{victim}' being gone"
        );
    }
}
