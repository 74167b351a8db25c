//! Checkpoint reader with eager and lazy access modes, plus I/O accounting.
//!
//! The paper observes (§5.4) that optimizer state "can only be accessed
//! after the checkpoint is fully loaded, with no possibility of lazy
//! loading" — that is [`LoadMode::EagerFull`], where touching any tensor of
//! a file reads the whole file. [`LoadMode::LazyRange`] is the counterpoint
//! our safetensors container makes possible (and the paper's conclusion
//! anticipates for layer-wise checkpointing systems): per-tensor range
//! reads. Every read is metered in [`IoStats`] so the Table 7 experiment
//! can report both time and bytes, and [`CheckpointHandle::evict`] models
//! the "load and discard" behaviour of the interleaved parity pattern.

use crate::error::{io_err, CkptError, Result};
use crate::layout::{read_seal, CheckpointPaths, CommitStatus};
use crate::manifest::PartialManifest;
use crate::restore::{
    encoded_object, fetch_payload, file_plans, validate_object, FileKind, FilePlan,
};
use crate::safetensors::{self, SafetensorsIndex};
use crate::trainer_state::TrainerState;
use crate::zero_meta::{shard_tensor_names, ZeroMeta};
use llmt_cas::ObjectStore;
use llmt_model::naming::{unit_of, unit_param_specs};
use llmt_model::{LayerUnit, ModelConfig};
use llmt_storage::vfs::{LocalFs, Storage};
use llmt_tensor::RawTensor;
use llmt_zero::{RankState, ShardState};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// How file contents are fetched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Whole-file reads (the paper's optimizer-loading semantics).
    EagerFull,
    /// Header parse + per-tensor range reads.
    LazyRange,
}

/// Cumulative I/O accounting for one handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Total bytes fetched from disk.
    pub bytes_read: u64,
    /// Files opened (headers count).
    pub files_opened: u64,
    /// Whole-file loads performed (eager mode).
    pub full_loads: u64,
    /// Individual tensor reads served.
    pub tensor_reads: u64,
}

impl IoStats {
    /// Merge another handle's stats into this one.
    pub fn absorb(&mut self, other: &IoStats) {
        self.bytes_read += other.bytes_read;
        self.files_opened += other.files_opened;
        self.full_loads += other.full_loads;
        self.tensor_reads += other.tensor_reads;
    }
}

/// An opened checkpoint directory.
#[derive(Debug)]
pub struct CheckpointHandle {
    /// Paths of the checkpoint.
    pub paths: CheckpointPaths,
    /// Model config from `config.json`.
    pub config: ModelConfig,
    /// ZeRO metadata from `zero_meta.json`.
    pub zero_meta: ZeroMeta,
    /// Partial manifest, if present.
    pub manifest: Option<PartialManifest>,
    /// Trainer state.
    pub trainer_state: TrainerState,
    mode: LoadMode,
    pub(crate) commit: CommitStatus,
    pub(crate) storage: Arc<dyn Storage>,
    stats: IoStats,
    /// Every payload file of the checkpoint; "which file holds what" is
    /// answered from here.
    pub(crate) plans: Vec<FilePlan>,
    /// The store encoded objects are read through; `None` for a
    /// conventional checkpoint.
    pub(crate) store: Option<ObjectStore>,
    /// Whole-file tensor caches (eager mode, and encoded objects in lazy
    /// mode), keyed by index into `plans`.
    file_cache: HashMap<usize, HashMap<String, RawTensor>>,
    /// Parsed headers (lazy mode), keyed by index into `plans`.
    file_index: HashMap<usize, SafetensorsIndex>,
}

impl CheckpointHandle {
    /// Open a checkpoint directory on the local filesystem.
    pub fn open(dir: &Path, mode: LoadMode) -> Result<Self> {
        Self::open_on(Arc::new(LocalFs), dir, mode)
    }

    /// Open a checkpoint directory through a [`Storage`].
    ///
    /// Opening succeeds even when the directory is *not* committed —
    /// `verify_checkpoint` needs to inspect quarantined checkpoints to
    /// report what is wrong with them — but [`CheckpointHandle::commit_status`]
    /// exposes the verdict, and resume paths must check
    /// [`CheckpointHandle::is_committed`] before trusting the contents.
    pub fn open_on(storage: Arc<dyn Storage>, dir: &Path, mode: LoadMode) -> Result<Self> {
        let paths = CheckpointPaths::open_on(&*storage, dir).ok_or_else(|| {
            CkptError::Format(format!("{} is not a checkpoint dir", dir.display()))
        })?;
        let config_bytes = storage
            .read(&paths.config())
            .map_err(io_err(paths.config()))?;
        let config: ModelConfig = serde_json::from_slice(&config_bytes)?;
        let zero_bytes = storage
            .read(&paths.zero_meta())
            .map_err(io_err(paths.zero_meta()))?;
        let zero_meta: ZeroMeta = serde_json::from_slice(&zero_bytes)?;
        let state_bytes = storage
            .read(&paths.trainer_state())
            .map_err(io_err(paths.trainer_state()))?;
        let trainer_state: TrainerState = serde_json::from_slice(&state_bytes)?;
        let seal = read_seal(&*storage, &paths);
        let commit = seal.status;
        // No manifest: a conventional full checkpoint (and quarantined).
        // One that is there but unreadable or unparseable is an error.
        let manifest = match seal.manifest {
            Ok(m) => Some(m),
            Err(CkptError::Io(_, e)) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let plans = file_plans(&paths, &config, &zero_meta, manifest.as_ref());
        // A manifest with object refs marks a deduplicated checkpoint,
        // whose links may hold encoded objects only the store can decode.
        let store = manifest
            .as_ref()
            .and_then(|m| m.objects.as_ref())
            .map(|_| ObjectStore::resolve(&*storage, dir.parent().unwrap_or(dir)));
        Ok(CheckpointHandle {
            paths,
            config,
            zero_meta,
            manifest,
            trainer_state,
            mode,
            commit,
            storage,
            stats: IoStats::default(),
            plans,
            store,
            file_cache: HashMap::new(),
            file_index: HashMap::new(),
        })
    }

    /// Commit-marker verdict for this directory.
    pub fn commit_status(&self) -> &CommitStatus {
        &self.commit
    }

    /// Whether this checkpoint carries a valid `COMMIT` marker.
    pub fn is_committed(&self) -> bool {
        self.commit.is_committed()
    }

    /// Cumulative I/O statistics.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Units stored in this checkpoint.
    pub fn units_present(&self) -> Vec<LayerUnit> {
        match &self.manifest {
            Some(m) => m.units.clone(),
            None => LayerUnit::all(&self.config),
        }
    }

    /// Drop all cached file contents ("discard" in the paper's parity-load
    /// description); the next access re-reads from disk.
    pub fn evict(&mut self) {
        self.file_cache.clear();
        self.file_index.clear();
    }

    /// Load plan `idx`'s contents (eager, or an encoded object) or header
    /// (lazy) into the cache.
    fn ensure_file_loaded(&mut self, idx: usize) -> Result<()> {
        if self.file_cache.contains_key(&idx) || self.file_index.contains_key(&idx) {
            return Ok(());
        }
        let plan = &self.plans[idx];
        // Only a raw file has an in-place safetensors header to
        // range-read against; an encoded object is loaded whole.
        if self.mode == LoadMode::LazyRange && encoded_object(&*self.storage, plan)?.is_none() {
            let index = safetensors::open_index_on(&*self.storage, &plan.path)?;
            self.stats.files_opened += 1;
            self.stats.bytes_read += index.data_start; // header bytes
            self.file_index.insert(idx, index);
            return Ok(());
        }
        let (bytes, digest) = fetch_payload(&*self.storage, self.store.as_ref(), plan)?;
        let (_, problems) = validate_object(plan, bytes.len() as u64, digest);
        if let Some(first) = problems.into_iter().next() {
            return Err(first);
        }
        let (tensors, _) = safetensors::decode_image(&plan.path, &bytes)?;
        self.stats.bytes_read += bytes.len() as u64;
        self.stats.files_opened += 1;
        self.stats.full_loads += 1;
        self.file_cache.insert(idx, tensors.into_iter().collect());
        Ok(())
    }

    /// Read tensor `name` out of the file `holds` selects, under the
    /// handle's load mode. `what` names the tensor in a "missing" error.
    fn fetch_tensor(
        &mut self,
        holds: impl Fn(&FileKind) -> bool,
        name: &str,
        what: &str,
    ) -> Result<RawTensor> {
        let missing = || CkptError::Missing(format!("{what} '{name}'"));
        let idx = self
            .plans
            .iter()
            .position(|p| holds(&p.kind))
            .ok_or_else(missing)?;
        self.ensure_file_loaded(idx)?;
        self.stats.tensor_reads += 1;
        if let Some(cache) = self.file_cache.get(&idx) {
            return cache.get(name).cloned().ok_or_else(missing);
        }
        let index = self
            .file_index
            .get(&idx)
            .expect("a loaded file is in the cache or the index");
        if index.entry(name).is_none() {
            return Err(missing());
        }
        let path = &self.plans[idx].path;
        let t = safetensors::read_tensor_at_on(&*self.storage, path, index, name)?;
        self.stats.bytes_read += t.byte_len() as u64;
        Ok(t)
    }

    /// Read one named weight tensor.
    pub fn weight(&mut self, name: &str) -> Result<RawTensor> {
        let unit = unit_of(name);
        let holds = |kind: &FileKind| match kind {
            FileKind::Weights { units } => unit.is_some_and(|u| units.contains(&u)),
            FileKind::Shards { .. } => false,
        };
        self.fetch_tensor(holds, name, "weight")
    }

    /// Read every weight tensor of one unit (canonical order).
    pub fn unit_weights(&mut self, unit: LayerUnit) -> Result<Vec<(String, RawTensor)>> {
        let specs = unit_param_specs(&self.config, unit);
        if specs.is_empty() {
            return Err(CkptError::Missing(format!(
                "unit {unit} has no parameters in model {}",
                self.config.model_name
            )));
        }
        specs
            .into_iter()
            .map(|s| self.weight(&s.name).map(|t| (s.name, t)))
            .collect()
    }

    /// Read one rank's shard of one optimizer group.
    pub fn group_shard(&mut self, rank: usize, group_id: usize) -> Result<ShardState> {
        if !self.zero_meta.has_group(group_id) {
            return Err(CkptError::Missing(format!(
                "group {group_id} not stored in checkpoint-{}",
                self.paths.step
            )));
        }
        if rank >= self.zero_meta.world_size {
            return Err(CkptError::Incompatible(format!(
                "rank {rank} out of world size {}",
                self.zero_meta.world_size
            )));
        }
        let holds = |kind: &FileKind| match kind {
            FileKind::Shards { rank: r, gids } => *r == rank && gids.contains(&group_id),
            FileKind::Weights { .. } => false,
        };
        let names = shard_tensor_names(group_id);
        let mut fetch = |name: &str| {
            self.fetch_tensor(holds, name, "shard tensor")
                .map(|t| t.to_f32s())
        };
        Ok(ShardState {
            master: fetch(&names[0])?,
            exp_avg: fetch(&names[1])?,
            exp_avg_sq: fetch(&names[2])?,
        })
    }

    /// Materialize the checkpoint's model for inference: every unit's
    /// weights loaded into a [`llmt_model::Model`]. Requires all units to
    /// be present (merge partial checkpoints first). This is the "the
    /// model weights are stored as a single consolidated file so it can be
    /// used for reasoning at any time" path (paper §2.3).
    pub fn load_model(&mut self) -> Result<llmt_model::Model> {
        // A checkpoint's config.json can be valid JSON yet describe an
        // impossible model; surface that as a typed error before any
        // Model construction (which would panic on an invalid config).
        self.config.validate()?;
        let all = LayerUnit::all(&self.config);
        let present = self.units_present();
        for u in &all {
            if !present.contains(u) {
                return Err(CkptError::Incompatible(format!(
                    "cannot load model for inference: unit {u} missing (partial checkpoint)"
                )));
            }
        }
        let mut params = llmt_model::ParamSet::zeros(&self.config);
        for unit in all {
            for (name, raw) in self.unit_weights(unit)? {
                params.set(&name, llmt_tensor::Tensor::from_raw(&raw));
            }
        }
        Ok(llmt_model::Model::from_params(self.config.clone(), params))
    }

    /// Read one rank's complete state. Requires a full checkpoint.
    pub fn rank_state_full(&mut self, rank: usize) -> Result<RankState> {
        if !self.zero_meta.is_full() {
            return Err(CkptError::Incompatible(format!(
                "checkpoint-{} is partial; assemble a full one with LLMTailor first",
                self.paths.step
            )));
        }
        let n_groups = self.zero_meta.groups.len();
        let mut shards = Vec::with_capacity(n_groups);
        for gid in 0..n_groups {
            shards.push(self.group_shard(rank, gid)?);
        }
        Ok(RankState { shards })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, LiveState, SaveOptions};
    use crate::writer::SaveRequest;
    use llmt_model::{Model, ModelConfig, ParamSet};
    use llmt_obs::MetricsRegistry;
    use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
    use llmt_tensor::rng::Prng;
    use llmt_zero::ZeroEngine;

    fn write_ckpt(
        dir: &Path,
        cfg: &ModelConfig,
        step: u64,
        units: &[LayerUnit],
    ) -> (Model, ZeroEngine) {
        let mut model = Model::new(cfg.clone(), 21);
        let mut engine = ZeroEngine::new(
            &model.params,
            build_groups(cfg, GroupLayout::LayerWise),
            2,
            AdamWHyper::default(),
        );
        let mut rng = Prng::seed_from_u64(9);
        let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let batch = llmt_model::Batch::new(tokens, 2, 8);
        let mut grads = ParamSet::zeros(cfg);
        model.loss_and_grad(&batch, &mut grads);
        engine.step(&mut model.params, &grads, 1e-3, true);
        let ts = TrainerState {
            global_step: step,
            ckpt_event: 0,
            lr_schedule: LrSchedule::Constant { lr: 1e-3 },
            last_lr: 1e-3,
            loss_history: vec![(step, 2.0)],
            data_rng: Prng::seed_from_u64(2),
            task: "test".into(),
            model_name: cfg.model_name.clone(),
            micro_batch: 2,
            grad_accum: 1,
            seq_len: 8,
        };
        engine::save(
            &[&LocalFs],
            &SaveRequest {
                dir: &CheckpointPaths::under(dir, step).dir,
                step,
                source: &LiveState {
                    config: cfg,
                    params: &model.params,
                    engine: &engine,
                },
                trainer_state: &ts,
                units,
                metrics: &MetricsRegistry::new(),
                store: None,
                bases: None,
            },
            &SaveOptions::default(),
        )
        .unwrap();
        (model, engine)
    }

    #[test]
    fn eager_and_lazy_read_identical_tensors() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        let (model, engine) = write_ckpt(dir.path(), &cfg, 10, &LayerUnit::all(&cfg));
        let ckpt_dir = dir.path().join("checkpoint-10");
        let mut eager = CheckpointHandle::open(&ckpt_dir, LoadMode::EagerFull).unwrap();
        let mut lazy = CheckpointHandle::open(&ckpt_dir, LoadMode::LazyRange).unwrap();
        for unit in LayerUnit::all(&cfg) {
            let a = eager.unit_weights(unit).unwrap();
            let b = lazy.unit_weights(unit).unwrap();
            assert_eq!(a, b);
            // Weights round-trip the BF16 model copy bit-exactly.
            for (name, t) in &a {
                let live = model.params.get(name).unwrap();
                assert_eq!(&llmt_tensor::Tensor::from_raw(t), live, "{name}");
            }
        }
        for rank in 0..2 {
            for gid in 0..engine.groups().len() {
                let a = eager.group_shard(rank, gid).unwrap();
                let b = lazy.group_shard(rank, gid).unwrap();
                assert_eq!(a, b);
                assert_eq!(a.master, engine.ranks[rank].shards[gid].master);
                assert_eq!(a.exp_avg, engine.ranks[rank].shards[gid].exp_avg);
            }
        }
    }

    #[test]
    fn eager_mode_reads_whole_files_lazy_reads_ranges() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        write_ckpt(dir.path(), &cfg, 10, &LayerUnit::all(&cfg));
        let ckpt_dir = dir.path().join("checkpoint-10");
        let mut eager = CheckpointHandle::open(&ckpt_dir, LoadMode::EagerFull).unwrap();
        let mut lazy = CheckpointHandle::open(&ckpt_dir, LoadMode::LazyRange).unwrap();
        // Touch one small tensor in the optimizer shard of rank 0.
        eager.group_shard(0, 0).unwrap();
        lazy.group_shard(0, 0).unwrap();
        let shard_len = std::fs::metadata(eager.paths.optim_shard(0)).unwrap().len();
        assert_eq!(
            eager.stats().bytes_read,
            shard_len,
            "eager reads everything"
        );
        assert!(
            lazy.stats().bytes_read < shard_len / 2,
            "lazy reads a small range ({} vs file {shard_len})",
            lazy.stats().bytes_read
        );
        assert_eq!(eager.stats().full_loads, 1);
        assert_eq!(lazy.stats().full_loads, 0);
    }

    #[test]
    fn evict_forces_reload() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        write_ckpt(dir.path(), &cfg, 10, &LayerUnit::all(&cfg));
        let mut h =
            CheckpointHandle::open(&dir.path().join("checkpoint-10"), LoadMode::EagerFull).unwrap();
        h.group_shard(0, 0).unwrap();
        h.group_shard(0, 1).unwrap(); // cached: no extra full load
        assert_eq!(h.stats().full_loads, 1);
        h.evict();
        h.group_shard(0, 2).unwrap();
        assert_eq!(h.stats().full_loads, 2, "evict() discards the cache");
    }

    #[test]
    fn partial_checkpoint_reports_missing_groups_and_refuses_full_resume() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        write_ckpt(
            dir.path(),
            &cfg,
            10,
            &[LayerUnit::Transformer(0), LayerUnit::FinalNorm],
        );
        let mut h =
            CheckpointHandle::open(&dir.path().join("checkpoint-10"), LoadMode::EagerFull).unwrap();
        assert_eq!(
            h.units_present(),
            vec![LayerUnit::Transformer(0), LayerUnit::FinalNorm]
        );
        // The embedding's group is absent.
        let embed_group = h
            .zero_meta
            .index_map()
            .groups_for_unit(LayerUnit::EmbedTokens)
            .unwrap()[0];
        assert!(matches!(
            h.group_shard(0, embed_group).unwrap_err(),
            CkptError::Missing(_)
        ));
        assert!(matches!(
            h.rank_state_full(0).unwrap_err(),
            CkptError::Incompatible(_)
        ));
        // Present unit still loads.
        let t0_groups = h
            .zero_meta
            .index_map()
            .groups_for_unit(LayerUnit::Transformer(0))
            .unwrap();
        for g in t0_groups {
            h.group_shard(1, g).unwrap();
        }
    }

    #[test]
    fn rank_state_full_matches_engine() {
        let cfg = ModelConfig::tiny_test_tied();
        let dir = tempfile::tempdir().unwrap();
        let (_, engine) = write_ckpt(dir.path(), &cfg, 5, &LayerUnit::all(&cfg));
        let mut h =
            CheckpointHandle::open(&dir.path().join("checkpoint-5"), LoadMode::EagerFull).unwrap();
        for rank in 0..2 {
            let state = h.rank_state_full(rank).unwrap();
            assert_eq!(state, engine.ranks[rank]);
        }
        assert_eq!(h.zero_meta.optimizer_step, engine.step_count);
    }

    #[test]
    fn open_reports_commit_status_without_refusing_quarantined_dirs() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        write_ckpt(dir.path(), &cfg, 10, &LayerUnit::all(&cfg));
        let ckpt_dir = dir.path().join("checkpoint-10");

        let h = CheckpointHandle::open(&ckpt_dir, LoadMode::EagerFull).unwrap();
        assert!(h.is_committed());

        // Strip the marker: still openable (verify needs to look inside),
        // but flagged.
        std::fs::remove_file(ckpt_dir.join("COMMIT")).unwrap();
        let h = CheckpointHandle::open(&ckpt_dir, LoadMode::EagerFull).unwrap();
        assert!(!h.is_committed());
        assert_eq!(h.commit_status(), &CommitStatus::Missing);

        // Garbage marker.
        std::fs::write(ckpt_dir.join("COMMIT"), b"not a marker").unwrap();
        let h = CheckpointHandle::open(&ckpt_dir, LoadMode::EagerFull).unwrap();
        assert!(matches!(h.commit_status(), CommitStatus::Corrupt(_)));
    }

    #[test]
    fn dedup_checkpoint_reads_identical_to_plain_checkpoint() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        let (model, engine) = write_ckpt(dir.path(), &cfg, 10, &LayerUnit::all(&cfg));
        // Save the same state again, deduplicated, at a different step.
        let ts = TrainerState {
            global_step: 20,
            ckpt_event: 1,
            lr_schedule: LrSchedule::Constant { lr: 1e-3 },
            last_lr: 1e-3,
            loss_history: vec![(20, 2.0)],
            data_rng: Prng::seed_from_u64(2),
            task: "test".into(),
            model_name: cfg.model_name.clone(),
            micro_batch: 2,
            grad_accum: 1,
            seq_len: 8,
        };
        engine::save(
            &[&LocalFs],
            &SaveRequest {
                dir: &CheckpointPaths::under(dir.path(), 20).dir,
                step: 20,
                source: &LiveState {
                    config: &cfg,
                    params: &model.params,
                    engine: &engine,
                },
                trainer_state: &ts,
                units: &LayerUnit::all(&cfg),
                metrics: &MetricsRegistry::new(),
                store: None,
                bases: None,
            },
            &SaveOptions::dedup(true),
        )
        .unwrap();
        let plain_dir = dir.path().join("checkpoint-10");
        let cas_dir = dir.path().join("checkpoint-20");
        for mode in [LoadMode::EagerFull, LoadMode::LazyRange] {
            let mut plain = CheckpointHandle::open(&plain_dir, mode).unwrap();
            let mut cas = CheckpointHandle::open(&cas_dir, mode).unwrap();
            assert!(cas.is_committed());
            for unit in LayerUnit::all(&cfg) {
                assert_eq!(
                    plain.unit_weights(unit).unwrap(),
                    cas.unit_weights(unit).unwrap(),
                    "{unit} weights differ between layouts"
                );
            }
            for rank in 0..2 {
                assert_eq!(
                    plain.rank_state_full(rank).unwrap(),
                    cas.rank_state_full(rank).unwrap()
                );
            }
        }
        // Unknown weight names still surface the conventional error.
        let mut cas = CheckpointHandle::open(&cas_dir, LoadMode::EagerFull).unwrap();
        assert!(matches!(
            cas.weight("no.such.tensor").unwrap_err(),
            CkptError::Missing(m) if m.contains("weight")
        ));
    }

    #[test]
    fn out_of_range_rank_rejected() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        write_ckpt(dir.path(), &cfg, 10, &LayerUnit::all(&cfg));
        let mut h =
            CheckpointHandle::open(&dir.path().join("checkpoint-10"), LoadMode::EagerFull).unwrap();
        assert!(matches!(
            h.group_shard(5, 0).unwrap_err(),
            CkptError::Incompatible(_)
        ));
    }
}
