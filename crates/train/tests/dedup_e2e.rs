//! End-to-end contract of content-addressed (deduplicated) checkpointing:
//!
//! 1. With frozen layers, consecutive checkpoints store each frozen
//!    layer's bytes exactly **once** — the manifests of both checkpoints
//!    reference the same digest, the store holds one object per frozen
//!    unit, and the refcount census sees both references.
//! 2. Resuming from a deduplicated checkpoint is **bit-exact** with
//!    resuming from a conventional checkpoint of the same run.
//! 3. Garbage collection killed at *any* storage op never deletes a live
//!    object: every surviving committed checkpoint still verifies, and a
//!    clean retry finishes the sweep.
//! 4. The decoded delta bases a trainer keeps between saves stay usable
//!    (or are safely ignored) whatever maintenance does to the store in
//!    between: compaction, retention, GC, a rollback, a racing sweep.

use llmt_ckpt::{census_run_roots, read_seal, CheckpointPaths};
use llmt_model::LayerUnit;
use llmt_storage::vfs::{FaultKind, FaultSpec, FaultyFs, LocalFs};
use llmt_train::{resume_trainer, Trainer, TrainerConfig};
use std::path::Path;

fn dedup_config(root: &Path) -> TrainerConfig {
    let mut cfg = TrainerConfig::test_default(root.to_path_buf());
    cfg.ckpt_interval = 2;
    cfg.dedup_checkpoints = true;
    cfg
}

#[test]
fn frozen_layer_bytes_are_stored_exactly_once_across_checkpoints() {
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = dedup_config(dir.path());
    cfg.frozen_units = vec![LayerUnit::EmbedTokens, LayerUnit::Transformer(0)];
    let mut t = Trainer::new(cfg);
    t.train_until(4, None).unwrap(); // checkpoints at 2 and 4
    drop(t);

    let load = |s: u64| {
        read_seal(&LocalFs, &CheckpointPaths::under(dir.path(), s))
            .manifest
            .unwrap()
            .objects
            .expect("dedup manifests carry object references")
    };
    let (r2, r4) = (load(2), load(4));
    // Frozen units share one object; the trained layer does not.
    for unit in ["embed_tokens", "layers.0"] {
        assert_eq!(
            r2.weights[unit].digest, r4.weights[unit].digest,
            "frozen unit {unit} must keep its digest"
        );
    }
    assert_ne!(
        r2.weights["layers.1"].digest, r4.weights["layers.1"].digest,
        "unfrozen layer must actually change between checkpoints"
    );

    // The store holds each frozen layer once, each trained layer twice.
    let du = llmtailor::du_run(dir.path()).unwrap();
    assert_eq!(du.checkpoints, 2);
    assert_eq!(du.per_unit_objects["embed_tokens"], 1);
    assert_eq!(du.per_unit_objects["layers.0"], 1);
    assert_eq!(du.per_unit_objects["layers.1"], 2);
    assert!(
        du.physical_bytes < du.logical_bytes,
        "physical {} !< logical {}",
        du.physical_bytes,
        du.logical_bytes
    );
    assert!(du.dedup_ratio > 1.0, "ratio {}", du.dedup_ratio);

    // Both checkpoints reference the shared objects (refcount 2).
    let counts = census_run_roots(&LocalFs, &[dir.path()]).unwrap().refs;
    for unit in ["embed_tokens", "layers.0"] {
        let d = llmt_cas::Digest::parse_hex(&r2.weights[unit].digest).unwrap();
        assert_eq!(counts[&d], 2, "frozen unit {unit}");
    }

    for s in [2u64, 4] {
        let v = llmt_ckpt::verify_checkpoint(&dir.path().join(format!("checkpoint-{s}"))).unwrap();
        assert!(v.ok(), "checkpoint-{s}: {:?}", v.findings);
    }
}

#[test]
fn dedup_resume_is_bit_exact_with_plain_resume() {
    let dir_plain = tempfile::tempdir().unwrap();
    let dir_dedup = tempfile::tempdir().unwrap();

    let mut plain_cfg = dedup_config(dir_plain.path());
    plain_cfg.dedup_checkpoints = false;
    let mut plain = Trainer::new(plain_cfg.clone());
    plain.train_until(4, None).unwrap();
    drop(plain);

    let dedup_cfg = dedup_config(dir_dedup.path());
    let mut dedup = Trainer::new(dedup_cfg.clone());
    let report = dedup.train_until(4, None).unwrap();
    // A synchronous dedup save borrows live state like a plain one, and
    // its stage times reach the run tally like a plain one's.
    assert_eq!(dedup.snapshot_gauge().peak_bytes(), 0);
    let stages = &report.ckpt_io.stages;
    assert!(
        stages.encode_ns > 0 && stages.place_ns > 0 && stages.commit_ns > 0,
        "{stages:?}"
    );
    assert_eq!(stages.snapshot_ns, 0);
    drop(dedup);

    // Resume both from their checkpoint-4 and train to 8 without further
    // checkpointing; the trajectories must be indistinguishable.
    let finish = |mut cfg: TrainerConfig, root: &Path| {
        cfg.ckpt_interval = 0;
        let mut t = resume_trainer(&root.join("checkpoint-4"), cfg).unwrap();
        t.train_until(8, None).unwrap();
        t
    };
    let a = finish(plain_cfg, dir_plain.path());
    let b = finish(dedup_cfg, dir_dedup.path());

    assert_eq!(a.step, b.step);
    assert_eq!(a.loss_history, b.loss_history, "loss history diverged");
    for ((spec, x), (_, y)) in a.model.params.iter().zip(b.model.params.iter()) {
        assert_eq!(x.data(), y.data(), "tensor {} diverged", spec.name);
    }
    assert_eq!(a.engine.step_count, b.engine.step_count);
    for rank in 0..a.engine.world_size {
        for (gx, gy) in a.engine.ranks[rank]
            .shards
            .iter()
            .zip(b.engine.ranks[rank].shards.iter())
        {
            assert_eq!(gx, gy, "rank {rank} optimizer shard diverged");
        }
    }
}

/// A merge inside a deduplicated run is pure metadata: every unit and every
/// `(rank, group)` shard its sources' manifests already name as stored
/// objects is linked by reference, nothing is read, and the assembled
/// checkpoint verifies deep and resumes exactly like the checkpoint whose
/// state it reassembles.
#[test]
fn merge_in_a_dedup_run_links_every_object_and_reads_nothing() {
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = dedup_config(dir.path());
    // Frozen units hold the same state at steps 2 and 4, so taking them
    // from checkpoint-2 reassembles checkpoint-4's state from two sources.
    cfg.frozen_units = vec![LayerUnit::EmbedTokens, LayerUnit::Transformer(0)];
    let mut t = Trainer::new(cfg.clone());
    t.train_until(4, None).unwrap();
    drop(t);

    let recipe = llmtailor::MergeRecipe {
        merge_method: "passthrough".into(),
        base_checkpoint: dir.path().join("checkpoint-4"),
        output: dir.path().join("merged"),
        slices: vec![llmtailor::SliceSpec {
            checkpoint: dir.path().join("checkpoint-2"),
            units: cfg.frozen_units.iter().map(|u| u.as_string()).collect(),
        }],
    };
    let report = llmtailor::merge_with_recipe(
        &recipe,
        llmt_ckpt::LoadMode::EagerFull,
        llmtailor::LoadPattern::Sequential,
    )
    .unwrap();
    assert_eq!(report.sources, 2);
    let units = LayerUnit::all(&cfg.model_config).len();
    let groups = llmt_optim::GroupIndexMap::from_config(&cfg.model_config).group_count();
    assert_eq!(report.objects_linked, units + cfg.world_size * groups);
    assert_eq!(report.io.bytes_read, 0);
    assert_eq!(report.io.files_opened, 0);

    let v = llmt_ckpt::verify_checkpoint_on(std::sync::Arc::new(LocalFs), &report.output, true)
        .unwrap();
    assert!(v.ok(), "{:?}", v.findings);

    let finish = |from: &Path| {
        let mut cfg = cfg.clone();
        cfg.ckpt_interval = 0;
        let mut t = resume_trainer(from, cfg).unwrap();
        t.train_until(8, None).unwrap();
        t
    };
    let a = finish(&dir.path().join("checkpoint-4"));
    let b = finish(&report.output);
    assert_eq!(a.loss_history, b.loss_history, "loss history diverged");
    for ((spec, x), (_, y)) in a.model.params.iter().zip(b.model.params.iter()) {
        assert_eq!(x.data(), y.data(), "tensor {} diverged", spec.name);
    }
    for rank in 0..a.engine.world_size {
        assert_eq!(
            a.engine.ranks[rank].shards, b.engine.ranks[rank].shards,
            "rank {rank} optimizer shards diverged"
        );
    }
}

/// Two dedup checkpoints, then checkpoint-2 is deleted out from under the
/// run: its exclusive objects are garbage, checkpoint-4's are live.
fn build_garbage_run(root: &Path) {
    let mut t = Trainer::new(dedup_config(root));
    t.train_until(4, None).unwrap();
    drop(t);
    std::fs::remove_dir_all(root.join("checkpoint-2")).unwrap();
}

#[test]
fn gc_killed_at_any_op_never_deletes_a_live_object() {
    // Census: a clean sweep through a never-firing FaultyFs counts the
    // kill-points and proves the setup really produces garbage.
    let census_root = tempfile::tempdir().unwrap();
    build_garbage_run(census_root.path());
    let census_fs = FaultyFs::new(LocalFs, FaultSpec::never());
    let report = llmtailor::collect_garbage_on(&census_fs, census_root.path()).unwrap();
    assert!(
        report.sweep.deleted_objects > 0,
        "setup produced no garbage: {report:?}"
    );
    let total_ops = census_fs.ops_attempted();
    assert!(total_ops > 0, "sweep used no storage ops");

    for k in 0..total_ops {
        let root = tempfile::tempdir().unwrap();
        build_garbage_run(root.path());
        let live = census_run_roots(&LocalFs, &[root.path()]).unwrap().refs;
        let live: Vec<_> = live.into_keys().collect();
        assert!(!live.is_empty());

        let fs = FaultyFs::with_seed(
            LocalFs,
            FaultSpec {
                at_op: k,
                kind: FaultKind::TornWrite { keep_bytes: None },
            },
            k,
        );
        assert!(
            llmtailor::collect_garbage_on(&fs, root.path()).is_err(),
            "kill at op {k} must abort the sweep"
        );
        assert!(fs.is_dead(), "kill at op {k} did not fire");

        // No live object gone, and the surviving checkpoint verifies in
        // full (link integrity, digests, store presence).
        let store = llmt_cas::ObjectStore::for_run_root(root.path());
        for d in &live {
            assert!(
                store.contains(&LocalFs, *d),
                "kill at op {k}: live object {d} deleted"
            );
        }
        let v = llmt_ckpt::verify_checkpoint(&root.path().join("checkpoint-4")).unwrap();
        assert!(v.ok(), "kill at op {k}: {:?}", v.findings);

        // A clean retry finishes the interrupted sweep exactly.
        llmtailor::collect_garbage(root.path()).unwrap();
        let left = store.list(&LocalFs).unwrap();
        assert_eq!(
            left.len(),
            live.len(),
            "kill at op {k}: store not clean after retry"
        );
        let v = llmt_ckpt::verify_checkpoint(&root.path().join("checkpoint-4")).unwrap();
        assert!(v.ok(), "kill at op {k} post-retry: {:?}", v.findings);
    }
}

#[test]
fn maintenance_between_delta_saves_never_strands_the_trainers_cached_bases() {
    let dir = tempfile::tempdir().unwrap();
    let root = dir.path();
    let mut cfg = dedup_config(root);
    cfg.ckpt_interval = 1;
    cfg.ckpt_compress = true;
    cfg.ckpt_delta_chain = 8;
    let store = llmt_cas::ObjectStore::for_run_root(root);
    let ckpt = |step: u64| root.join(format!("checkpoint-{step}"));
    let objects_of = |step: u64| -> Vec<llmt_cas::Digest> {
        let refs = read_seal(&LocalFs, &CheckpointPaths::under(root, step))
            .manifest
            .unwrap()
            .objects
            .unwrap();
        refs.weights
            .values()
            .chain(refs.optim.values())
            .map(|r| llmt_cas::Digest::parse_hex(&r.digest).unwrap())
            .collect()
    };
    let deepest = |step: u64| -> usize {
        objects_of(step)
            .into_iter()
            .map(|d| store.chain_len(&LocalFs, d).unwrap())
            .max()
            .unwrap()
    };

    // Six every-step saves: chains five deep, the trainer holding the
    // decoded images of checkpoint-6.
    let mut t = Trainer::new(cfg.clone());
    t.train_until(6, None).unwrap();
    assert_eq!(deepest(6), 5);

    // An every-step run's maintenance pass. Compaction rewrites deep
    // objects to `Full` under their names; the cached images are still
    // those names' bytes, and how deep the next save's deltas sit is read
    // from the rewritten headers, not remembered.
    llmtailor::prune_run(root, &cfg.model_config, 2).unwrap();
    let compacted = llmtailor::compact_run_on(&LocalFs, root, 4).unwrap();
    assert!(compacted.compacted > 0, "{compacted:?}");
    llmtailor::collect_garbage_on(&LocalFs, root).unwrap();
    let after = deepest(6);
    assert!(after <= 4);
    t.train_until(7, None).unwrap();
    assert_eq!(deepest(7), after + 1);

    // Every object the cache holds decoded is flattened in place.
    llmtailor::compact_run_on(&LocalFs, root, 0).unwrap();
    assert_eq!(deepest(7), 0);
    t.train_until(8, None).unwrap();
    assert_eq!(deepest(8), 1);

    // A rollback: checkpoint-8 is deleted and its objects swept while the
    // trainer still holds their images. The next save's bases are
    // checkpoint-7's; the stale entries are never asked for.
    std::fs::remove_dir_all(ckpt(8)).unwrap();
    let gc = llmtailor::collect_garbage_on(&LocalFs, root).unwrap();
    assert!(gc.sweep.deleted_objects > 0, "{gc:?}");
    t.train_until(9, None).unwrap();
    assert_eq!(deepest(9), 1);

    // A sweep that raced the run: checkpoint-9's own objects vanish while
    // its manifest still names them and the trainer still holds them
    // decoded. The next save stores self-contained objects.
    let older = objects_of(7);
    for digest in objects_of(9) {
        if !older.contains(&digest) {
            std::fs::remove_file(store.object_path(digest)).unwrap();
        }
    }
    t.train_until(10, None).unwrap();
    assert_eq!(deepest(10), 0);

    // Every checkpoint whose objects survive verifies hop by hop, and the
    // newest resumes to exactly the live trainer.
    for step in [7u64, 10] {
        let v = llmt_ckpt::verify_checkpoint_on(std::sync::Arc::new(LocalFs), &ckpt(step), true)
            .unwrap();
        assert!(v.ok(), "checkpoint-{step}: {:?}", v.findings);
    }
    let resumed = resume_trainer(&ckpt(10), cfg).unwrap();
    assert_eq!(resumed.step, t.step);
    for ((spec, x), (_, y)) in t.model.params.iter().zip(resumed.model.params.iter()) {
        assert_eq!(x.data(), y.data(), "tensor {} diverged", spec.name);
    }
    for (live, back) in t.engine.ranks.iter().zip(&resumed.engine.ranks) {
        for (x, y) in live.shards.iter().zip(&back.shards) {
            assert_eq!(x.master, y.master);
            assert_eq!(x.exp_avg, y.exp_avg);
            assert_eq!(x.exp_avg_sq, y.exp_avg_sq);
        }
    }
}
