//! Property test for the load-path hardening: a checkpoint whose
//! optimizer shard lost or renamed one tensor must surface a typed error
//! from every loader — the restore engine, deep verification, and the
//! merge executor's source reads — and must never panic. This pins the
//! PR-wide contract that no library panic is reachable from the load
//! path on malformed inputs.

use llmt_ckpt::{
    restore_checkpoint, safetensors, verify_checkpoint_on, CheckpointHandle, CheckpointPaths,
    CkptError, LoadMode, RestoreRequest, ZeroMeta,
};
use llmt_storage::vfs::LocalFs;
use llmt_tensor::{DType, RawTensor};
use llmt_train::{resume_trainer_on, Trainer, TrainerConfig};
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

/// Rank states that restore cleanly but do not fit the configured model
/// or topology are a typed `Incompatible` from `resume_trainer_on`, never
/// a panic. `zero_meta.json` and the shard files of a conventional
/// checkpoint are outside the commit seal, so a checkpoint can be
/// self-consistent (it restores and verifies) and still describe another
/// optimizer than the one the trainer is configured with.
#[test]
fn resume_with_rank_states_that_do_not_fit_is_a_typed_error() {
    let resume = |dir: &Path, cfg: TrainerConfig| {
        let err = resume_trainer_on(Arc::new(LocalFs), dir, cfg)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, CkptError::Incompatible(_)), "{err}");
        err.to_string()
    };
    let work = tempfile::tempdir().unwrap();
    let cfg = TrainerConfig::test_default(work.path().join("run"));
    let rewrite_meta = |dir: &Path, edit: &dyn Fn(&mut ZeroMeta)| {
        let path = CheckpointPaths::open_on(&LocalFs, dir).unwrap().zero_meta();
        let mut meta = ZeroMeta::load(&path).unwrap();
        edit(&mut meta);
        std::fs::write(&path, serde_json::to_string_pretty(&meta).unwrap()).unwrap();
    };

    // A wrong-length shard: group 0 grows by one element per rank, in the
    // metadata and in every rank's shard file alike.
    let long = work.path().join("long/checkpoint-2");
    copy_dir(pristine_checkpoint(), &long);
    rewrite_meta(&long, &|meta| {
        meta.groups[0].numel += meta.world_size;
        meta.groups[0].shard_len += 1;
    });
    let paths = CheckpointPaths::open_on(&LocalFs, &long).unwrap();
    for rank in 0..2 {
        let shard = paths.optim_shard(rank);
        let (mut tensors, metadata) = safetensors::read_file(&shard).unwrap();
        for (name, t) in &mut tensors {
            if name.starts_with("group0.") {
                let mut values = t.to_f32s();
                values.push(0.0);
                *t = RawTensor::from_f32s(&values, [values.len()], DType::F32);
            }
        }
        safetensors::write_file(&shard, &tensors, &metadata).unwrap();
    }
    restore_checkpoint(&long, &RestoreRequest::default()).expect("self-consistent checkpoint");
    assert!(resume(&long, cfg.clone()).contains("group 0"));
    // The same through a reshard (dp2 -> dp4).
    let mut wide = cfg.clone();
    wide.world_size = 4;
    resume(&long, wide);

    // A wrong group count: the metadata forgets the last group.
    let short = work.path().join("short/checkpoint-2");
    copy_dir(pristine_checkpoint(), &short);
    rewrite_meta(&short, &|meta| {
        meta.groups.pop();
        meta.groups_present.pop();
    });
    restore_checkpoint(&short, &RestoreRequest::default()).expect("self-consistent checkpoint");
    assert!(resume(&short, cfg.clone()).contains("group"));

    // No tampering needed: a trainer configured with another key/value
    // head count, which sizes k_proj and v_proj. The config check turns
    // it away before any state is bound.
    let mut fewer_kv_heads = cfg;
    fewer_kv_heads.model_config.num_key_value_heads = 1;
    assert!(resume(pristine_checkpoint(), fewer_kv_heads).contains("configured model"));
}
