//! The save request and report types, and the two-phase crash-consistent
//! commit protocol [`crate::engine::save`] stages full or partial
//! (unit-selective) checkpoints under.
//!
//! A *partial* checkpoint stores only the selected units' weight tensors
//! and optimizer groups. This requires the layer-wise group layout — with
//! the stock 2-group optimizer the flat buffers are inseparable, which is
//! precisely the limitation the paper's §4.1 reconstruction removes; asking
//! for a partial save under the stock layout is therefore an error.
//!
//! Commit protocol (every durability step ordered, DataStates-style):
//!
//! 1. stage every file into `checkpoint-<N>.tmp/`, syncing each one;
//! 2. write the `COMMIT` marker (manifest digest + step), sync it;
//! 3. atomically rename the staging dir to `checkpoint-<N>/`;
//! 4. sync the run root so the rename itself is durable.
//!
//! A crash before (3) leaves only a `.tmp` dir; a torn marker fails digest
//! validation. Either way scans quarantine the directory and recovery
//! falls back to the previous committed checkpoint. On any save *error*
//! the staging directory is removed best-effort, so failed saves leave no
//! `*.tmp` debris behind (unless the storage itself is dead, in which case
//! nothing can be removed anyway).

use crate::engine::StateSource;
use crate::layout::CheckpointPaths;
use crate::trainer_state::TrainerState;
use llmt_cas::ObjectStore;
use llmt_model::LayerUnit;
use llmt_obs::MetricsRegistry;
use llmt_storage::StageTimings;
use std::path::Path;

/// The type of [`SaveRequest::bases`], re-exported for the callers that
/// own one.
pub use llmt_cas::BaseCache;

/// What to save and where its bookkeeping goes: the one argument every
/// placement front hands to [`crate::engine::save`]. How to encode it is
/// [`crate::engine::SaveOptions`]; which storages may take it is the
/// placement list.
pub struct SaveRequest<'a> {
    /// Directory the committed checkpoint lands in: `<run
    /// root>/checkpoint-<step>` for a training save
    /// ([`CheckpointPaths::under`]), a recipe's `output:` for a merge. Its
    /// parent is the run root — the save stages in `<dir>.tmp` beside it,
    /// resolves the object store and the delta bases there, and syncs it
    /// after the commit rename.
    pub dir: &'a Path,
    /// Global step of the save.
    pub step: u64,
    /// Where model and optimizer state come from: borrowed live state
    /// ([`crate::engine::LiveState`]), an async save's snapshot, or a
    /// merge's source checkpoints.
    pub source: &'a dyn StateSource,
    /// Trainer state (step, RNG, losses).
    pub trainer_state: &'a TrainerState,
    /// Units to store. Must all exist in the config; a full save lists
    /// every unit.
    pub units: &'a [LayerUnit],
    /// Registry the stage spans, placement counters and (for a resolved
    /// store) dedup counters are recorded into.
    pub metrics: &'a MetricsRegistry,
    /// Explicit object store for the place stage (the coordinator's
    /// shared, pin-observed store); `None` resolves it from `root`.
    pub store: Option<&'a ObjectStore>,
    /// Decoded images the run's previous save staged, to take delta
    /// bases from instead of re-materializing their chains; this save
    /// leaves its own there when it commits. Only the place stage of a
    /// delta save consults it, and only for the decode: whether an
    /// object may be a base is still read from the store, and entries
    /// are named by the SHA-256 of their bytes, so a stale one is never
    /// used for another object. The trainer owns one per run; `None`
    /// (every other caller) materializes each base from the store.
    pub bases: Option<&'a BaseCache>,
}

/// What a save produced — sizes feed the Table 3/6 experiments.
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// Paths of the written checkpoint.
    pub paths: CheckpointPaths,
    /// Total *logical* bytes across all files (what a conventional save
    /// would have written).
    pub total_bytes: u64,
    /// Bytes of the model weight payload.
    pub model_bytes: u64,
    /// Bytes across all optimizer shard files.
    pub optim_bytes: u64,
    /// Number of files written.
    pub files_written: usize,
    /// Units stored.
    pub units: Vec<LayerUnit>,
    /// Bytes physically written: new object payloads plus metadata.
    /// Equals `total_bytes` for conventional saves; smaller whenever a
    /// deduplicated save hit existing objects.
    pub physical_bytes: u64,
    /// Payload bytes satisfied by objects already in the store.
    pub dedup_bytes: u64,
    /// Store objects this save placed as XOR deltas against a previous
    /// checkpoint's objects.
    pub delta_objects: u64,
    /// Bytes delta/compression encoding avoided writing (logical minus
    /// stored, summed over encoded objects this save placed).
    pub delta_saved_bytes: u64,
    /// Deepest delta chain this save created (0 when no deltas placed).
    pub delta_max_chain: u64,
    /// Wall-clock time spent in each engine stage of this save
    /// (snapshot/encode/place/commit). `snapshot_ns` is zero for sync
    /// saves, which borrow live state; async saves fill it in from the
    /// trainer-side capture.
    pub timings: StageTimings,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, LiveState, SaveOptions};
    use crate::error::{CkptError, Result};
    use crate::layout::read_seal;
    use crate::zero_meta::ZeroMeta;
    use llmt_model::{Model, ModelConfig, ParamSet};
    use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
    use llmt_storage::vfs::{LocalFs, Storage};
    use llmt_tensor::rng::Prng;
    use llmt_zero::ZeroEngine;

    /// The one save call, over borrowed live state.
    fn save_on(
        storage: &dyn Storage,
        root: &Path,
        step: u64,
        (model, zero, ts): (&Model, &ZeroEngine, &TrainerState),
        units: &[LayerUnit],
        dedup: bool,
    ) -> Result<CheckpointReport> {
        let source = LiveState {
            config: &model.config,
            params: &model.params,
            engine: zero,
        };
        let req = SaveRequest {
            dir: &CheckpointPaths::under(root, step).dir,
            step,
            source: &source,
            trainer_state: ts,
            units,
            metrics: &MetricsRegistry::new(),
            store: None,
            bases: None,
        };
        engine::save(&[storage], &req, &SaveOptions::dedup(dedup)).map(|p| p.report)
    }

    fn make_state(
        cfg: &ModelConfig,
        world: usize,
        layout: GroupLayout,
    ) -> (Model, ZeroEngine, TrainerState) {
        let mut model = Model::new(cfg.clone(), 13);
        let mut engine = ZeroEngine::new(
            &model.params,
            build_groups(cfg, layout),
            world,
            AdamWHyper::default(),
        );
        // Take one real step so moments are non-trivial.
        let mut rng = Prng::seed_from_u64(4);
        let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let batch = llmt_model::Batch::new(tokens, 2, 8);
        let mut grads = ParamSet::zeros(cfg);
        model.loss_and_grad(&batch, &mut grads);
        engine.step(&mut model.params, &grads, 1e-3, true);
        let ts = TrainerState {
            global_step: 1,
            ckpt_event: 0,
            lr_schedule: LrSchedule::Constant { lr: 1e-3 },
            last_lr: 1e-3,
            loss_history: vec![(1, 3.0)],
            data_rng: Prng::seed_from_u64(1),
            task: "test".into(),
            model_name: cfg.model_name.clone(),
            micro_batch: 2,
            grad_accum: 1,
            seq_len: 8,
        };
        (model, engine, ts)
    }

    #[test]
    fn full_save_writes_expected_files() {
        let cfg = ModelConfig::tiny_test();
        let (model, engine, ts) = make_state(&cfg, 2, GroupLayout::LayerWise);
        let dir = tempfile::tempdir().unwrap();
        let report = save_on(
            &LocalFs,
            dir.path(),
            10,
            (&model, &engine, &ts),
            &LayerUnit::all(&cfg),
            false,
        )
        .unwrap();
        assert!(report.paths.model().exists());
        assert!(report.paths.optim_shard(0).exists());
        assert!(report.paths.optim_shard(1).exists());
        assert!(report.paths.zero_meta().exists());
        assert!(report.paths.config().exists());
        assert!(report.paths.trainer_state().exists());
        assert!(report.paths.manifest().exists());
        assert!(report.paths.commit_marker().exists());
        // 1 model + 2 shards + zero_meta + config + trainer_state + latest
        // + manifest + COMMIT
        assert_eq!(report.files_written, 9);
        assert_eq!(
            report.total_bytes,
            report.paths.total_bytes_on(&LocalFs).unwrap()
        );
        let meta = ZeroMeta::load(&report.paths.zero_meta()).unwrap();
        assert!(meta.is_full());
        assert_eq!(meta.optimizer_step, 1);
        // Committed: marker digest matches the manifest, staging is gone.
        assert!(read_seal(&LocalFs, &report.paths).status.is_committed());
        assert!(!CheckpointPaths::staging_under(dir.path(), 10).dir.exists());
    }

    #[test]
    fn partial_save_is_smaller_and_lists_units() {
        let cfg = ModelConfig::tiny_test();
        let (model, engine, ts) = make_state(&cfg, 2, GroupLayout::LayerWise);
        let dir = tempfile::tempdir().unwrap();
        let full = save_on(
            &LocalFs,
            dir.path(),
            10,
            (&model, &engine, &ts),
            &LayerUnit::all(&cfg),
            false,
        )
        .unwrap();
        let partial_units = vec![LayerUnit::Transformer(0), LayerUnit::FinalNorm];
        let partial = save_on(
            &LocalFs,
            dir.path(),
            20,
            (&model, &engine, &ts),
            &partial_units,
            false,
        )
        .unwrap();
        assert!(partial.total_bytes < full.total_bytes / 2);
        let manifest = read_seal(&LocalFs, &partial.paths).manifest.unwrap();
        assert!(!manifest.full);
        assert_eq!(manifest.units, partial_units);
        let meta = ZeroMeta::load(&partial.paths.zero_meta()).unwrap();
        assert!(!meta.is_full());
        // Transformer 0 owns two groups, final norm one.
        assert_eq!(meta.groups_present.len(), 3);
    }

    #[test]
    fn partial_save_under_stock_layout_is_rejected() {
        let cfg = ModelConfig::tiny_test();
        let (model, engine, ts) = make_state(&cfg, 2, GroupLayout::Stock);
        let dir = tempfile::tempdir().unwrap();
        let err = save_on(
            &LocalFs,
            dir.path(),
            10,
            (&model, &engine, &ts),
            &[LayerUnit::FinalNorm],
            false,
        )
        .unwrap_err();
        assert!(matches!(err, CkptError::Incompatible(_)));
        // Full saves still work under the stock layout.
        save_on(
            &LocalFs,
            dir.path(),
            10,
            (&model, &engine, &ts),
            &LayerUnit::all(&cfg),
            false,
        )
        .unwrap();
    }

    #[test]
    fn unknown_unit_rejected() {
        let cfg = ModelConfig::tiny_test_tied(); // no lm_head unit
        let (model, engine, ts) = make_state(&cfg, 1, GroupLayout::LayerWise);
        let dir = tempfile::tempdir().unwrap();
        let err = save_on(
            &LocalFs,
            dir.path(),
            1,
            (&model, &engine, &ts),
            &[LayerUnit::LmHead],
            false,
        )
        .unwrap_err();
        assert!(matches!(err, CkptError::Incompatible(_)));
    }

    #[test]
    fn failed_save_leaves_no_tmp_debris() {
        use llmt_storage::vfs::{FaultKind, FaultSpec, FaultyFs};

        let cfg = ModelConfig::tiny_test();
        let (model, engine, ts) = make_state(&cfg, 2, GroupLayout::LayerWise);
        let dir = tempfile::tempdir().unwrap();
        // ENOSPC after a few files are staged: the save must fail AND
        // clean up its partial staging directory (deletes still work).
        let storage = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 5,
                kind: FaultKind::Permanent,
            },
        );
        let err = save_on(
            &storage,
            dir.path(),
            10,
            (&model, &engine, &ts),
            &LayerUnit::all(&cfg),
            false,
        )
        .unwrap_err();
        assert!(matches!(err, CkptError::Io(..)), "{err}");
        let leftovers: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            leftovers.iter().all(|n| !n.ends_with(".tmp")),
            "tmp debris left behind: {leftovers:?}"
        );
        assert!(
            !CheckpointPaths::under(dir.path(), 10).dir.exists(),
            "no committed checkpoint may exist after a failed save"
        );
    }

    #[test]
    fn leftover_staging_from_prior_crash_is_replaced() {
        let cfg = ModelConfig::tiny_test();
        let (model, engine, ts) = make_state(&cfg, 2, GroupLayout::LayerWise);
        let dir = tempfile::tempdir().unwrap();
        // Simulate a previous crashed save: torn staging with a stale file.
        let staging = CheckpointPaths::staging_under(dir.path(), 10);
        std::fs::create_dir_all(&staging.dir).unwrap();
        std::fs::write(staging.dir.join("stale-garbage"), b"torn").unwrap();
        let report = save_on(
            &LocalFs,
            dir.path(),
            10,
            (&model, &engine, &ts),
            &LayerUnit::all(&cfg),
            false,
        )
        .unwrap();
        assert!(read_seal(&LocalFs, &report.paths).status.is_committed());
        assert!(!staging.dir.exists());
        assert!(!report.paths.dir.join("stale-garbage").exists());
    }

    #[test]
    fn dedup_save_links_objects_and_dedups_repeat_saves() {
        let cfg = ModelConfig::tiny_test();
        let (model, engine, ts) = make_state(&cfg, 2, GroupLayout::LayerWise);
        let dir = tempfile::tempdir().unwrap();
        let units = LayerUnit::all(&cfg);
        let save_at = |step: u64| {
            save_on(
                &LocalFs,
                dir.path(),
                step,
                (&model, &engine, &ts),
                &units,
                true,
            )
        };

        let r1 = save_at(10).unwrap();
        assert!(read_seal(&LocalFs, &r1.paths).status.is_committed());
        assert!(r1.paths.units_dir().exists());
        assert!(
            !r1.paths.model().exists(),
            "dedup saves have no model.safetensors"
        );
        let m1 = read_seal(&LocalFs, &r1.paths).manifest.unwrap();
        let refs1 = m1.objects.as_ref().expect("dedup manifest has object refs");
        assert_eq!(refs1.weights.len(), LayerUnit::all(&cfg).len());
        let store = ObjectStore::for_run_root(dir.path());
        for (key, oref) in refs1.iter_all() {
            let d = llmt_cas::Digest::parse_hex(&oref.digest).unwrap();
            assert!(store.contains(&LocalFs, d), "missing object for {key}");
            assert_eq!(store.object_len(&LocalFs, d).unwrap(), oref.bytes);
        }
        // Linked payloads are byte-identical with their objects.
        for (key, oref) in &refs1.weights {
            let d = llmt_cas::Digest::parse_hex(&oref.digest).unwrap();
            assert_eq!(
                std::fs::read(r1.paths.unit_weights(key)).unwrap(),
                store.get(&LocalFs, d).unwrap()
            );
        }
        assert_eq!(r1.total_bytes, r1.paths.total_bytes_on(&LocalFs).unwrap());
        assert_eq!(r1.dedup_bytes, 0);

        // Same state at a later step: every payload byte dedups, only
        // metadata is written, and the store still holds each object once.
        let objects_before = store.list(&LocalFs).unwrap();
        let r2 = save_at(20).unwrap();
        assert!(read_seal(&LocalFs, &r2.paths).status.is_committed());
        assert_eq!(r2.dedup_bytes, r2.model_bytes + r2.optim_bytes);
        assert!(
            r2.physical_bytes < r2.total_bytes / 4,
            "physical {} vs logical {}",
            r2.physical_bytes,
            r2.total_bytes
        );
        assert_eq!(store.list(&LocalFs).unwrap(), objects_before);
        let m2 = read_seal(&LocalFs, &r2.paths).manifest.unwrap();
        assert_eq!(m2.objects, m1.objects, "identical state, identical refs");
    }

    #[test]
    fn checkpoint_is_at_least_seven_times_bf16_model() {
        // Paper §2.2: bf16 weights (2 B/param) + fp32 master + m + v
        // (12 B/param) -> >= 7x the bf16 model file. Needs a non-trivial
        // model so the fixed JSON-header overhead is negligible.
        let cfg = ModelConfig::llama32_1b_sim();
        let (model, engine, ts) = make_state(&cfg, 2, GroupLayout::LayerWise);
        let dir = tempfile::tempdir().unwrap();
        let report = save_on(
            &LocalFs,
            dir.path(),
            10,
            (&model, &engine, &ts),
            &LayerUnit::all(&cfg),
            false,
        )
        .unwrap();
        let ratio = report.total_bytes as f64 / report.model_bytes as f64;
        assert!(ratio >= 6.9, "ratio {ratio}");
    }
}
