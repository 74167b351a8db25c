//! `engine::save` is one pipeline behind every placement — a plain
//! directory, the content-addressed store, an async copy-on-write
//! snapshot, a tier manager, a coordinator publisher session, a merge of
//! checkpoints already on disk — and the placements must be
//! observationally equivalent:
//!
//! 1. The same trainer step saved through each placement yields identical
//!    manifest digests and restores to bit-identical unit weights and
//!    optimizer shards.
//! 2. Every digest a dedup manifest records (computed incrementally while
//!    streaming) equals the whole-buffer digest of the object's bytes, and
//!    the whole-buffer encoder reproduces the streamed file exactly.

use llmt_cas::{Digest, ObjectStore};
use llmt_ckpt::{
    read_seal, restore_checkpoint, safetensors, CheckpointPaths, CkptError, LoadMode,
    PartialManifest, RestoreRequest, RestoredState, SaveOptions,
};
use llmt_coord::Coordinator;
use llmt_obs::MetricsRegistry;
use llmt_storage::vfs::{LocalFs, SystemClock};
use llmt_tier::{TierConfig, TierLevel, TierManager};
use llmt_train::{Trainer, TrainerConfig};
use llmtailor::{merge_with_recipe, LoadPattern, MergeRecipe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const STEP: u64 = 3;

/// Train a fresh run to `STEP` with exactly one checkpoint at `STEP`.
fn run(root: &Path, async_ckpt: bool, dedup: bool) {
    let mut cfg = TrainerConfig::test_default(root.to_path_buf());
    cfg.ckpt_interval = STEP;
    cfg.async_checkpointing = async_ckpt;
    cfg.dedup_checkpoints = dedup;
    let mut t = Trainer::new(cfg);
    let report = t.train_until(STEP, None).unwrap();
    assert_eq!(report.ckpt_steps, vec![STEP]);
}

/// The committed `checkpoint-STEP` under `root` on the local filesystem:
/// its manifest and everything it restores to.
fn committed(root: &Path) -> (PartialManifest, RestoredState) {
    committed_at(&CheckpointPaths::under(root, STEP).dir)
}

fn committed_at(dir: &Path) -> (PartialManifest, RestoredState) {
    let paths = CheckpointPaths::open_on(&LocalFs, dir).unwrap();
    let manifest = read_seal(&LocalFs, &paths).manifest.unwrap();
    let state = restore_checkpoint(dir, &RestoreRequest::default()).unwrap();
    (manifest, state)
}

/// A passthrough merge of `root`'s `checkpoint-STEP` into `root/merged`,
/// asserting every payload file comes out byte-identical to the source's.
fn merged(root: &Path) -> PathBuf {
    let base = CheckpointPaths::under(root, STEP);
    let recipe = MergeRecipe {
        merge_method: "passthrough".into(),
        base_checkpoint: base.dir.clone(),
        output: root.join("merged"),
        slices: vec![],
    };
    let out = merge_with_recipe(&recipe, LoadMode::EagerFull, LoadPattern::Sequential)
        .unwrap()
        .output;
    let mut payload = 0;
    for sub in [base.dir.clone(), base.units_dir(), base.global_step_dir()] {
        for entry in std::fs::read_dir(&sub).into_iter().flatten().flatten() {
            let src = entry.path();
            if src.extension().is_some_and(|e| e == "safetensors") {
                let dst = out.join(src.strip_prefix(&base.dir).unwrap());
                assert_eq!(
                    std::fs::read(&src).unwrap(),
                    std::fs::read(&dst).unwrap(),
                    "{}",
                    dst.display()
                );
                payload += 1;
            }
        }
    }
    assert!(payload > 0);
    out
}

#[test]
fn every_placement_saves_the_same_step_bit_for_bit() {
    let dirs: Vec<_> = (0..5).map(|_| tempfile::tempdir().unwrap()).collect();
    let [plain_dir, cas_dir, async_dir, tier_dir, coord_dir] = &dirs[..] else {
        unreachable!()
    };

    // Plain directory, CAS and async snapshot source: the trainer's own
    // three configurations.
    run(plain_dir.path(), false, false);
    run(cas_dir.path(), false, true);
    run(async_dir.path(), true, false);

    // Tier manager and coordinator session: a fourth identical run hands
    // its request to each front.
    let mut t = Trainer::new(TrainerConfig::test_default(tier_dir.path().to_path_buf()));
    t.train_until(STEP, None).unwrap();
    let tiers = TierManager::open(
        tier_dir.path(),
        Arc::new(LocalFs),
        TierConfig::default(),
        Arc::new(SystemClock),
        MetricsRegistry::new(),
    )
    .unwrap();
    t.checkpoint_with(|req| {
        let placed = tiers.save(req, &SaveOptions::default())?;
        assert_eq!(placed.placed, TierLevel::Mem);
        Ok(placed.report)
    })
    .unwrap();
    let coord = Coordinator::open(coord_dir.path()).unwrap();
    let session = coord.publisher("run", t.declared_save_bytes()).unwrap();
    t.checkpoint_with(|req| {
        session
            .save(req, &SaveOptions::default())
            .map_err(|e| CkptError::Format(e.to_string()))
    })
    .unwrap();

    let (want_manifest, want) = committed(plain_dir.path());
    let in_mem = tiers
        .restore_from(TierLevel::Mem, STEP, &RestoreRequest::default())
        .unwrap();
    tiers.drain_all().unwrap();
    let (tier_manifest, drained) = committed(tier_dir.path());
    let (cas_manifest, cas) = committed(cas_dir.path());
    let (async_manifest, asyn) = committed(async_dir.path());
    let (coord_manifest, published) = committed(session.run_root());
    // A merge is a sixth front: the plain checkpoint passed through into a
    // plain root, the CAS one into its store-backed root.
    let (merge_manifest, merge) = committed_at(&merged(plain_dir.path()));
    let (cas_merge_manifest, cas_merge) = committed_at(&merged(cas_dir.path()));

    for (name, manifest) in [
        ("cas", &cas_manifest),
        ("async", &async_manifest),
        ("tier", &tier_manifest),
        ("coord", &coord_manifest),
        ("merge", &merge_manifest),
        ("cas merge", &cas_merge_manifest),
    ] {
        assert_eq!(manifest.units, want_manifest.units, "{name}");
        assert_eq!(
            manifest.weight_digests, want_manifest.weight_digests,
            "{name}"
        );
    }
    // The two content-addressed placements name the same objects.
    assert!(cas_manifest.objects.is_some());
    assert_eq!(coord_manifest.objects, cas_manifest.objects);
    assert_eq!(merge_manifest.objects, None);
    assert_eq!(cas_merge_manifest.objects, cas_manifest.objects);

    for (name, got) in [
        ("cas", &cas),
        ("async", &asyn),
        ("tier mem", &in_mem),
        ("tier drained", &drained),
        ("coord", &published),
        ("merge", &merge),
        ("cas merge", &cas_merge),
    ] {
        assert_eq!(got.weights, want.weights, "{name}: weights");
        assert_eq!(got.ranks, want.ranks, "{name}: optimizer shards");
    }

    // A restore fetches exactly the files its checkpoint's plan names —
    // the consolidated weights plus one shard file per rank, or out of a
    // store one file per unit plus one per (rank, group) — and reports
    // the time of every stage it ran them through.
    let cfg = TrainerConfig::test_default(PathBuf::new());
    let units = llmt_model::LayerUnit::all(&cfg.model_config).len();
    let groups = llmt_optim::GroupIndexMap::from_config(&cfg.model_config).group_count();
    assert_eq!(want.report.files_fetched, 1 + cfg.world_size);
    assert_eq!(cas.report.files_fetched, units + cfg.world_size * groups);
    for (name, got) in [("plain", &want), ("cas", &cas)] {
        let t = &got.report.timings;
        assert!(
            t.fetch_ns > 0 && t.decode_ns > 0 && t.validate_ns > 0 && t.bind_ns > 0,
            "{name}: empty restore stage timings {t:?}"
        );
    }
}

#[test]
fn dedup_manifest_digests_match_whole_buffer_encoding() {
    let dir = tempfile::tempdir().unwrap();
    run(dir.path(), false, true);

    let refs = read_seal(&LocalFs, &CheckpointPaths::under(dir.path(), STEP))
        .manifest
        .unwrap()
        .objects
        .expect("dedup manifests carry object references");
    assert!(!refs.weights.is_empty());
    assert!(!refs.optim.is_empty());

    let store = ObjectStore::for_run_root(dir.path());
    for (key, obj) in refs.weights.iter().chain(refs.optim.iter()) {
        let digest = Digest::parse_hex(&obj.digest).unwrap();
        let bytes = std::fs::read(store.object_path(digest)).unwrap();
        // The incrementally-streamed digest is the whole-buffer digest.
        assert_eq!(Digest::of(&bytes), digest, "object {key}");
        // And the whole-buffer encoder reproduces the streamed file.
        let path = store.object_path(digest);
        let (tensors, meta) = safetensors::read_file(&path).unwrap();
        assert_eq!(
            safetensors::encode(&tensors, &meta).unwrap(),
            bytes,
            "object {key} is not a canonical safetensors image"
        );
    }
}
