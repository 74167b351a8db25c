//! Refcounted garbage collection and disk-usage accounting for the
//! content-addressed object store.
//!
//! Liveness rule: an object is **live** iff at least one *committed,
//! non-quarantined* checkpoint's manifest references its digest. The
//! COMMIT marker seals the manifest (and therefore the reference set), so
//! the liveness census never trusts torn or tampered directories — their
//! references count for nothing, exactly as their payloads count for
//! nothing during recovery.
//!
//! The census is `llmt_ckpt::census_run_roots` — shared with the
//! coordinator's pass — read through the very `Storage` the sweep then runs
//! on, so the two can never disagree about which tree they are looking at.
//!
//! Crash safety: the census runs first and the sweep only deletes objects
//! that were dead *at census time*, so a GC killed at any storage op has
//! deleted only garbage. The next sweep finishes the job. The one ordering
//! rule callers must respect is *delete checkpoints first, GC second* —
//! the reverse could census a reference from a checkpoint that is about to
//! disappear, which is harmless (the object is swept next time), never
//! dangerous.

use crate::error::{Result, TailorError};
use llmt_cas::{CompactReport, Digest, ObjectKind, ObjectStore, SweepMark, SweepReport};
use llmt_ckpt::{census_run_roots, scan_run_root_on};
use llmt_obs::RunEvent;
use llmt_storage::vfs::{LocalFs, Storage};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Result of one garbage collection pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Committed checkpoints whose references were counted.
    pub checkpoints_censused: usize,
    /// Distinct digests referenced by at least one committed checkpoint.
    pub live_digests: usize,
    /// Objects retained / deleted / reclaimed by the sweep.
    pub sweep: SweepReport,
}

/// Disk-usage accounting of one run root ("`llmtailor du`").
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DuReport {
    /// Committed checkpoints counted.
    pub checkpoints: usize,
    /// Bytes the run would occupy without deduplication: the sum of every
    /// committed checkpoint's apparent size (hard links counted at full
    /// length).
    pub logical_bytes: u64,
    /// Bytes actually occupied: object store (each object once) plus every
    /// checkpoint's non-object files.
    pub physical_bytes: u64,
    /// Objects currently in the store.
    pub object_count: usize,
    /// Total object payload bytes.
    pub object_bytes: u64,
    /// `logical_bytes / physical_bytes` (1.0 when nothing is shared).
    pub dedup_ratio: f64,
    /// Delta objects currently in the store (encoded against a base).
    #[serde(default)]
    pub delta_objects: usize,
    /// Self-contained compressed (`Full`) objects in the store.
    #[serde(default)]
    pub encoded_full_objects: usize,
    /// Longest delta chain in the store, in hops.
    #[serde(default)]
    pub delta_max_chain: usize,
    /// Decoded payload bytes behind all objects — equals
    /// [`DuReport::object_bytes`] when nothing is encoded; the gap is
    /// what delta/compression encoding saved on disk.
    #[serde(default)]
    pub object_logical_bytes: u64,
    /// Distinct object count per layer unit key (weights objects).
    pub per_unit_objects: BTreeMap<String, usize>,
    /// Per-tier residency breakdown, when the run uses a tiered store
    /// (`llmt-tier`): resident bytes per tier, pending drain queue
    /// depth, evictions, drained bytes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub tier: Option<llmt_tier::TierStatus>,
}

/// Garbage-collect the object store of `run_root` through `storage`:
/// take a sweep mark, census live digests from committed manifests
/// ([`census_run_roots`]: an unparseable one is an error, not a guess), then
/// sweep everything else (dead objects and `.part` staging debris) that
/// predates the mark. Objects published after the mark are pinned until
/// the next pass, so a save racing this GC never loses a just-put object.
///
/// Refuses run roots redirected into a shared store (`CASROOT`): a
/// single-run census cannot see the other runs' references, so sweeping
/// from here would delete their live objects. Shared stores are collected
/// by the coordinator (`llmt-coord`), which censuses every attached run.
pub fn collect_garbage_on(storage: &dyn Storage, run_root: &Path) -> Result<GcReport> {
    if llmt_cas::is_redirected(storage, run_root) {
        return Err(TailorError::Plan(format!(
            "{} is redirected into a shared object store (CASROOT); \
             a single-run GC would sweep other runs' live objects — \
             collect through the store coordinator instead",
            run_root.display()
        )));
    }
    // Mark *before* the census: anything put after this instant is pinned
    // by the sweep regardless of whether the census saw its reference.
    let mark = SweepMark::now();
    let census = census_run_roots(storage, &[run_root])?;
    let live: BTreeSet<Digest> = census.refs.into_keys().collect();
    let store = ObjectStore::for_run_root(run_root);
    let sweep = store
        .sweep_with_mark(storage, &live, &mark)
        .map_err(|e| TailorError::Ckpt(llmt_ckpt::error::io_err(store.root_dir())(e)))?;
    // Journal the pass on the same storage the sweep ran on, and
    // propagate failures: a storage that dies mid-append is the same
    // dead storage a torn sweep op would have surfaced.
    let mut ev = RunEvent::new("gc", 0);
    ev.bytes = sweep.reclaimed_bytes;
    ev.files = sweep.deleted_objects as u64;
    let events_path = run_root.join(llmt_obs::EVENTS_FILE);
    llmt_obs::append_event(storage, &events_path, &ev)
        .map_err(|e| TailorError::Ckpt(llmt_ckpt::error::io_err(&events_path)(e)))?;
    Ok(GcReport {
        checkpoints_censused: census.checkpoints,
        live_digests: live.len(),
        sweep,
    })
}

/// [`collect_garbage_on`] on the local filesystem.
pub fn collect_garbage(run_root: &Path) -> Result<GcReport> {
    collect_garbage_on(&LocalFs, run_root)
}

/// Rewrite every delta chain longer than `max_chain` hops in the run's
/// object store into self-contained `Full` objects
/// ("`llmtailor compact`"), then journal the pass as a `compact` event.
///
/// Safe against concurrent readers (the object path holds either the
/// old chain or the new `Full` at every instant) and safe on shared
/// stores — the rewrite keeps each object's name, so other runs'
/// references stay valid. Orphaned bases become dead objects for the
/// next GC census.
pub fn compact_run_on(
    storage: &dyn Storage,
    run_root: &Path,
    max_chain: usize,
) -> Result<CompactReport> {
    let store = ObjectStore::resolve(storage, run_root);
    let report = store
        .compact_chains(storage, max_chain)
        .map_err(|e| TailorError::Ckpt(llmt_ckpt::error::io_err(store.root_dir())(e)))?;
    let mut ev = RunEvent::new("compact", 0);
    ev.compactions = report.compacted as u64;
    ev.bytes = report.bytes_before;
    ev.physical_bytes = report.bytes_after;
    ev.files = report.examined as u64;
    let events_path = run_root.join(llmt_obs::EVENTS_FILE);
    llmt_obs::append_event(storage, &events_path, &ev)
        .map_err(|e| TailorError::Ckpt(llmt_ckpt::error::io_err(&events_path)(e)))?;
    Ok(report)
}

/// [`compact_run_on`] on the local filesystem.
pub fn compact_run(run_root: &Path, max_chain: usize) -> Result<CompactReport> {
    compact_run_on(&LocalFs, run_root, max_chain)
}

/// Measure a run's logical vs physical footprint (see [`DuReport`]).
///
/// For a run redirected into a shared store, the object tallies cover the
/// *shared* store (all tenants), while checkpoint tallies stay per-run.
pub fn du_run(run_root: &Path) -> Result<DuReport> {
    let scan = scan_run_root_on(&LocalFs, run_root);
    let store = ObjectStore::resolve(&LocalFs, run_root);
    let objects = store
        .list(&LocalFs)
        .map_err(|e| TailorError::Ckpt(llmt_ckpt::error::io_err(store.root_dir())(e)))?;
    let object_bytes: u64 = objects.iter().map(|(_, len)| len).sum();

    let mut report = DuReport {
        checkpoints: scan.committed.len(),
        object_count: objects.len(),
        object_bytes,
        physical_bytes: object_bytes,
        ..DuReport::default()
    };
    // Break the store down by object kind: deltas and compressed Full
    // objects occupy fewer bytes on disk than the payloads they decode
    // to — that gap is the `du` logical-vs-physical story for encoding.
    for (digest, stored) in &objects {
        match store.object_info(&LocalFs, *digest) {
            Ok(info) => match info.kind {
                ObjectKind::Delta { logical_len, .. } => {
                    report.delta_objects += 1;
                    report.object_logical_bytes += logical_len;
                    if let Ok(hops) = store.chain_len(&LocalFs, *digest) {
                        report.delta_max_chain = report.delta_max_chain.max(hops);
                    }
                }
                ObjectKind::Full { logical_len, .. } => {
                    report.encoded_full_objects += 1;
                    report.object_logical_bytes += logical_len;
                }
                ObjectKind::LegacyRaw => report.object_logical_bytes += stored,
            },
            // Vanished under a concurrent sweep: count what we saw.
            Err(_) => report.object_logical_bytes += stored,
        }
    }
    let mut unit_objects: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for cp in &scan.committed {
        let apparent = cp
            .paths()
            .total_bytes_on(&LocalFs)
            .map_err(|e| TailorError::Ckpt(llmt_ckpt::error::io_err(&cp.dir)(e)))?;
        report.logical_bytes += apparent;
        match &cp.manifest()?.objects {
            // Deduplicated checkpoint: its payload files are hard links
            // into the store, already counted once in `object_bytes`.
            // An *encoded* link appears at its encoded (on-disk) size in
            // `apparent`, while a full save would have written the
            // decoded bytes — so subtract the actual stored size and
            // credit the logical size instead.
            Some(refs) => {
                let mut linked: u64 = 0;
                for (_, object) in refs.iter_all() {
                    let stored = Digest::parse_hex(&object.digest)
                        .ok()
                        .and_then(|d| store.object_len(&LocalFs, d).ok())
                        .unwrap_or(object.bytes);
                    linked += stored;
                    report.logical_bytes += object.bytes.saturating_sub(stored);
                }
                report.physical_bytes += apparent.saturating_sub(linked);
                for (key, object) in &refs.weights {
                    unit_objects
                        .entry(key.clone())
                        .or_default()
                        .insert(object.digest.clone());
                }
            }
            // Conventional checkpoint: every byte is uniquely owned.
            None => report.physical_bytes += apparent,
        }
    }
    report.per_unit_objects = unit_objects
        .into_iter()
        .map(|(k, v)| (k, v.len()))
        .collect();
    report.dedup_ratio = if report.physical_bytes > 0 {
        report.logical_bytes as f64 / report.physical_bytes as f64
    } else {
        1.0
    };
    // Tiered runs persist residency next to the checkpoints; fold the
    // per-tier breakdown in when present.
    report.tier = llmt_tier::load_status(&LocalFs, run_root)
        .map_err(|e| TailorError::Ckpt(llmt_ckpt::error::io_err(run_root)(e)))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmt_ckpt::engine::{self, LiveState, SaveOptions};
    use llmt_ckpt::{CheckpointPaths, SaveRequest, TrainerState};
    use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
    use llmt_obs::MetricsRegistry;
    use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
    use llmt_zero::ZeroEngine;
    use std::sync::Arc;

    fn write_dedup_ckpt(root: &Path, cfg: &ModelConfig, step: u64, seed: u64) {
        write_dedup_ckpt_on(&LocalFs, root, cfg, step, seed)
    }

    fn write_dedup_ckpt_on(
        storage: &dyn Storage,
        root: &Path,
        cfg: &ModelConfig,
        step: u64,
        seed: u64,
    ) {
        let mut model = Model::new(cfg.clone(), seed);
        let mut engine = ZeroEngine::new(
            &model.params,
            build_groups(cfg, GroupLayout::LayerWise),
            2,
            AdamWHyper::default(),
        );
        let mut rng = llmt_tensor::rng::Prng::seed_from_u64(seed);
        let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let mut grads = ParamSet::zeros(cfg);
        model.loss_and_grad(&Batch::new(tokens, 2, 8), &mut grads);
        engine.step(&mut model.params, &grads, 1e-3, true);
        let ts = TrainerState {
            global_step: step,
            ckpt_event: 0,
            lr_schedule: LrSchedule::Constant { lr: 1e-3 },
            last_lr: 1e-3,
            loss_history: vec![],
            data_rng: rng,
            task: "gc-test".into(),
            model_name: cfg.model_name.clone(),
            micro_batch: 2,
            grad_accum: 1,
            seq_len: 8,
        };
        engine::save(
            &[storage],
            &SaveRequest {
                dir: &CheckpointPaths::under(root, step).dir,
                step,
                source: &LiveState {
                    config: cfg,
                    params: &model.params,
                    engine: &engine,
                },
                trainer_state: &ts,
                units: &LayerUnit::all(cfg),
                metrics: &MetricsRegistry::new(),
                store: None,
                bases: None,
            },
            &SaveOptions::dedup(true),
        )
        .unwrap();
    }

    #[test]
    fn gc_reclaims_only_unreferenced_objects() {
        let dir = tempfile::tempdir().unwrap();
        let cfg = ModelConfig::tiny_test();
        // Two checkpoints of *different* states: disjoint object sets.
        write_dedup_ckpt(dir.path(), &cfg, 1, 3);
        write_dedup_ckpt(dir.path(), &cfg, 2, 4);
        // A stray file named like a checkpoint holds no `COMMIT` to fail
        // on (`NotADirectory`): absent, not unreadable, so no refusal.
        std::fs::write(dir.path().join("checkpoint-9"), b"stray").unwrap();
        let store = ObjectStore::for_run_root(dir.path());
        let before = store.list(&LocalFs).unwrap().len();
        assert!(before > 0);

        // Nothing dead yet: GC must delete nothing.
        let report = collect_garbage(dir.path()).unwrap();
        assert_eq!(report.sweep.deleted_objects, 0);
        assert_eq!(report.checkpoints_censused, 2);
        assert_eq!(store.list(&LocalFs).unwrap().len(), before);

        // Drop checkpoint-1: its exclusive objects become garbage.
        std::fs::remove_dir_all(dir.path().join("checkpoint-1")).unwrap();
        let report = collect_garbage(dir.path()).unwrap();
        assert!(report.sweep.deleted_objects > 0);
        assert!(report.sweep.reclaimed_bytes > 0);
        // Survivor still verifies byte-for-byte.
        let verify = llmt_ckpt::verify_checkpoint(&dir.path().join("checkpoint-2")).unwrap();
        assert!(verify.ok(), "{:?}", verify.findings);
    }

    #[test]
    fn gc_censuses_the_storage_it_sweeps() {
        // Nothing of this run exists on the local disk: a census that read
        // it there would find no references and sweep every object.
        let mem: Arc<dyn Storage> = Arc::new(llmt_tier::MemStorage::new(1 << 30));
        let root = Path::new("/runs/in-memory");
        let cfg = ModelConfig::tiny_test();
        write_dedup_ckpt_on(&*mem, root, &cfg, 1, 3);
        write_dedup_ckpt_on(&*mem, root, &cfg, 2, 4);
        let store = ObjectStore::for_run_root(root);
        let before = store.list(&*mem).unwrap().len();

        let report = collect_garbage_on(&*mem, root).unwrap();
        assert_eq!(report.sweep.deleted_objects, 0);
        assert_eq!(report.checkpoints_censused, 2);
        assert_eq!(report.live_digests, before);
        for step in [1, 2] {
            let dir = CheckpointPaths::under(root, step).dir;
            let verify = llmt_ckpt::verify_checkpoint_on(mem.clone(), &dir, true).unwrap();
            assert!(verify.ok(), "step {step}: {:?}", verify.findings);
        }

        // Drop checkpoint-1 through the same storage: exactly its
        // exclusive objects go, checkpoint-2 still verifies.
        let survivor = CheckpointPaths::under(root, 2);
        mem.remove_dir_all(&CheckpointPaths::under(root, 1).dir)
            .unwrap();
        let report = collect_garbage_on(&*mem, root).unwrap();
        assert_eq!(report.checkpoints_censused, 1);
        assert!(report.sweep.deleted_objects > 0);
        assert_eq!(
            report.sweep.deleted_objects + report.live_digests,
            before,
            "swept something other than checkpoint-1's exclusive objects"
        );
        let verify = llmt_ckpt::verify_checkpoint_on(mem.clone(), &survivor.dir, true).unwrap();
        assert!(verify.ok(), "{:?}", verify.findings);
    }

    #[test]
    fn gc_refuses_redirected_run_roots() {
        let dir = tempfile::tempdir().unwrap();
        let run = dir.path().join("runs/a");
        let shared = dir.path().join("store");
        std::fs::create_dir_all(&run).unwrap();
        std::fs::create_dir_all(&shared).unwrap();
        llmt_cas::write_redirect(&LocalFs, &run, &shared).unwrap();
        let err = collect_garbage(&run).unwrap_err();
        assert!(
            err.to_string().contains("coordinator"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn quarantined_checkpoints_hold_no_references() {
        let dir = tempfile::tempdir().unwrap();
        let cfg = ModelConfig::tiny_test();
        write_dedup_ckpt(dir.path(), &cfg, 1, 3);
        // Tamper with the marker: the checkpoint is quarantined and its
        // references no longer pin objects.
        std::fs::write(dir.path().join("checkpoint-1/COMMIT"), b"torn").unwrap();
        let census = census_run_roots(&LocalFs, &[dir.path()]).unwrap();
        assert!(census.refs.is_empty());
        let report = collect_garbage(dir.path()).unwrap();
        assert_eq!(report.live_digests, 0);
        assert!(report.sweep.deleted_objects > 0);
    }

    /// ROADMAP item 4's first hazard at this door: a pass that cannot
    /// *read* a committed checkpoint's `COMMIT` or manifest, or list the
    /// run root, must fail rather than census the checkpoint as absent and
    /// sweep its objects. One transient `Interrupted` at every op of a pass
    /// in turn, with no retry wrapper in between.
    #[test]
    fn gc_that_cannot_read_the_catalog_refuses_to_sweep() {
        use llmt_ckpt::CkptError;
        use llmt_storage::vfs::{FaultKind, FaultSpec, FaultyFs};

        let cfg = ModelConfig::tiny_test();
        // Two live checkpoints of distinct states plus the garbage of a
        // third whose directory is gone.
        let scenario = |spec: FaultSpec| {
            let dir = tempfile::tempdir().unwrap();
            for (step, seed) in [(1, 3), (2, 4), (3, 5)] {
                write_dedup_ckpt(dir.path(), &cfg, step, seed);
            }
            std::fs::remove_dir_all(dir.path().join("checkpoint-3")).unwrap();
            let store = ObjectStore::for_run_root(dir.path());
            let objects_before = store.list(&LocalFs).unwrap().len();
            let fs = FaultyFs::new(LocalFs, spec);
            let outcome = collect_garbage_on(&fs, dir.path());
            (dir, objects_before, fs.ops_attempted(), outcome)
        };

        let (_dir, _, total_ops, clean) = scenario(FaultSpec::never());
        let clean = clean.expect("healthy pass");
        assert_eq!(clean.checkpoints_censused, 2);
        assert!(clean.sweep.deleted_objects > 0, "setup produced no garbage");

        let mut refused = BTreeSet::new();
        for at_op in 0..total_ops {
            let (dir, objects_before, _, outcome) = scenario(FaultSpec {
                at_op,
                kind: FaultKind::Transient { failures: 1 },
            });
            // Whatever the fault hit, nothing live is gone.
            for step in [1, 2] {
                let ckpt = CheckpointPaths::under(dir.path(), step).dir;
                let verify =
                    llmt_ckpt::verify_checkpoint_on(Arc::new(LocalFs), &ckpt, true).unwrap();
                assert!(
                    verify.ok(),
                    "op {at_op}, step {step}: {:?}",
                    verify.findings
                );
            }
            // A fault on a catalog read is the pass's typed error, and
            // the pass deleted nothing at all.
            let Err(TailorError::Ckpt(CkptError::Io(path, _))) = &outcome else {
                continue;
            };
            let door = match path.file_name().and_then(|n| n.to_str()) {
                _ if path == dir.path() => "listing",
                Some(name @ ("COMMIT" | "partial_manifest.json")) => name,
                _ => continue, // the sweep's or the journal's own write
            };
            refused.insert(door.to_string());
            let store = ObjectStore::for_run_root(dir.path());
            let objects = store.list(&LocalFs).unwrap().len();
            assert_eq!(objects, objects_before, "op {at_op}: swept blind");
        }
        let doors: Vec<&str> = refused.iter().map(String::as_str).collect();
        assert_eq!(doors, ["COMMIT", "listing", "partial_manifest.json"]);
    }

    #[test]
    fn du_reports_dedup_ratio_above_one_for_shared_layers() {
        let dir = tempfile::tempdir().unwrap();
        let cfg = ModelConfig::tiny_test();
        // Same seed twice: both checkpoints share every object.
        write_dedup_ckpt(dir.path(), &cfg, 1, 3);
        write_dedup_ckpt(dir.path(), &cfg, 2, 3);
        let du = du_run(dir.path()).unwrap();
        assert_eq!(du.checkpoints, 2);
        assert!(du.object_count > 0);
        assert!(
            du.physical_bytes < du.logical_bytes,
            "physical {} !< logical {}",
            du.physical_bytes,
            du.logical_bytes
        );
        assert!(du.dedup_ratio > 1.5, "ratio {}", du.dedup_ratio);
        // Every unit resolves to exactly one distinct object.
        for (unit, n) in &du.per_unit_objects {
            assert_eq!(*n, 1, "unit {unit} has {n} objects");
        }
        // Refcounts: every object referenced twice.
        for (d, n) in census_run_roots(&LocalFs, &[dir.path()]).unwrap().refs {
            assert_eq!(n, 2, "object {d}");
        }
    }
}
