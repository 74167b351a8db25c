//! Unified parallel restore engine: the mirror image of [`crate::engine`].
//!
//! Every checkpoint read — resume, crash recovery, merge sources,
//! verification, eval loading — executes one description of the payload,
//! the [`FilePlan`] list, through the same stages:
//!
//! ```text
//! enumerate   metadata + commit verdict -> the file plan
//! fetch       chunked streaming reads through `Storage::read_range`;
//!             a SHA-256 is computed exactly when the manifest holds an
//!             object digest to compare it with
//! decode      safetensors header parse, then each tensor copied out of
//!             the fetched image once, in the form the restored state
//!             holds it: weights as raw tensors, optimizer shards
//!             converted to `f32`
//! validate    verify-on-read: object digests, tensor digests/shapes,
//!             shard lengths — on borrowed views of the same image
//! bind        arrangement only: canonical-order weights, optimizer rank
//!             states (moved at the saved topology, resharded to a
//!             different one)
//! ```
//!
//! [`file_plans`] is the only read-side code that knows the plain and
//! content-addressed layouts, [`fetch_payload`] the only one that knows
//! raw from encoded objects, [`validate_file`] the only per-file check.
//! [`restore_checkpoint_on`] stops at the first problem,
//! [`crate::verify`] collects them all, and
//! [`CheckpointHandle`] serves single tensors out of the same plan.
//!
//! Fetch/decode/validate run fused per file on the rayon pool, so a
//! checkpoint with many unit and shard files restores with near-linear
//! speedup over the sequential baseline (the ledger's `ckpt.restore.*`
//! stage times beside `restore_ms`).
//! Every per-byte pass over the payload, the `f32` conversion included,
//! is inside that parallel stage; the bind stage on the caller's thread
//! touches no tensor data unless the topology changes.
//! Because every read goes through the [`Storage`] trait in bounded
//! chunks, `FaultyFs` can fail or interrupt any individual chunk of any
//! file — the read path gets the same chaos coverage as the save path.
//!
//! The new capability over the old per-caller readers is
//! *resharding-on-load*: a [`RestoreRequest::topology`] differing from
//! the saved dp×tp layout computes an offline [`llmt_zero::ReshardPlan`]
//! per parameter group — a pure list of copy operations between the
//! saved and target tilings — and the bind stage executes it, so a run
//! checkpointed at `{dp=4, tp=1}` resumes bit-exactly at `{dp=2, tp=2}`
//! and vice versa (both tilings are exact partitions of the same flat
//! buffers, and the ZeRO engine's trajectory is partition-invariant).

use crate::engine::Parallelism;
use crate::error::{io_err, CkptError, Result};
use crate::layout::{CheckpointPaths, CommitStatus};
use crate::manifest::{CasRefs, ObjectRef, PartialManifest};
use crate::reader::{CheckpointHandle, LoadMode};
use crate::safetensors;
use crate::trainer_state::TrainerState;
use crate::zero_meta::{shard_tensor_names, ZeroMeta};
use crate::DEFAULT_CHUNK_BYTES;
use llmt_cas::{codec, Digest, Hasher, ObjectStore};
use llmt_model::naming::unit_param_specs;
use llmt_model::{LayerUnit, ModelConfig};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, GroupLayout};
use llmt_storage::vfs::{LocalFs, Storage};
use llmt_storage::RestoreTimings;
use llmt_tensor::{RawTensor, RawView};
use llmt_zero::{GroupPlan, GroupTopoLayout, RankState, ShardState, Topology};
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which payload the restore materializes. Metadata (config, zero meta,
/// trainer state, manifest) is always read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreScope {
    /// Weights and optimizer state.
    Full,
    /// Model weights only (merge sources, eval loading).
    WeightsOnly,
    /// Optimizer state only (resume: weights rematerialize from the
    /// FP32 masters, matching the trainer's own quantization path).
    OptimizerOnly,
}

/// What to restore and how. Every restore verifies what it reads and
/// refuses a directory without a valid `COMMIT` marker with
/// [`CkptError::Quarantined`]; [`crate::verify`] and
/// [`CheckpointHandle::open_on`] are the ways to look inside one.
#[derive(Debug, Clone)]
pub struct RestoreRequest {
    /// Target dp×tp topology for the bound optimizer rank states. `None`
    /// keeps the saved topology; a differing target reshards every group
    /// through an offline [`llmt_zero::ReshardPlan`].
    pub topology: Option<Topology>,
    /// Payload selection.
    pub scope: RestoreScope,
    /// Fetch files in parallel (rayon) or strictly sequentially.
    pub parallelism: Parallelism,
}

impl Default for RestoreRequest {
    fn default() -> Self {
        RestoreRequest {
            topology: None,
            scope: RestoreScope::Full,
            parallelism: Parallelism::Rayon,
        }
    }
}

/// Accounting for one restore, symmetric to
/// [`crate::writer::CheckpointReport`] on the save side.
#[derive(Debug, Clone, Default)]
pub struct RestoreReport {
    /// Step of the restored checkpoint (directory name).
    pub step: u64,
    /// Units the checkpoint stores.
    pub units: Vec<LayerUnit>,
    /// Payload files fetched.
    pub files_fetched: usize,
    /// Payload bytes streamed through the fetch stage.
    pub bytes_fetched: u64,
    /// Digest comparisons performed during verify-on-read (whole-file
    /// SHA-256 plus per-tensor FNV checks).
    pub digests_verified: usize,
    /// World size the checkpoint was saved at.
    pub saved_world_size: usize,
    /// World size the bound rank states target.
    pub world_size: usize,
    /// dp×tp topology the checkpoint was saved at.
    pub saved_topology: Topology,
    /// dp×tp topology the bound rank states target.
    pub topology: Topology,
    /// Whether optimizer state was remapped through a reshard plan.
    pub resharded: bool,
    /// Per-stage timings (fetch/decode/validate are summed across
    /// parallel workers; enumerate/bind are wall-clock).
    pub timings: RestoreTimings,
}

/// Everything a restore produces.
#[derive(Debug)]
pub struct RestoredState {
    /// Paths of the restored checkpoint.
    pub paths: CheckpointPaths,
    /// Model config from `config.json`.
    pub config: ModelConfig,
    /// ZeRO metadata as *saved* (its `world_size` is the saved layout;
    /// the report carries the bound target).
    pub zero_meta: ZeroMeta,
    /// Trainer state.
    pub trainer_state: TrainerState,
    /// Partial manifest, if present.
    pub manifest: Option<PartialManifest>,
    /// Commit-marker verdict.
    pub commit: CommitStatus,
    /// Weight tensors in canonical model order (empty for
    /// [`RestoreScope::OptimizerOnly`]).
    pub weights: Vec<(String, RawTensor)>,
    /// Optimizer state per target rank (empty for
    /// [`RestoreScope::WeightsOnly`] and for partial checkpoints
    /// restored without a target world size).
    pub ranks: Vec<RankState>,
    /// Restore accounting.
    pub report: RestoreReport,
}

/// One payload file of a checkpoint: where it is, what it holds and what
/// the manifest says its bytes must be.
#[derive(Debug)]
pub(crate) struct FilePlan {
    pub(crate) path: PathBuf,
    pub(crate) kind: FileKind,
    /// The manifest's object reference for a content-addressed file: the
    /// digest and length of its *decoded* image, parsed once. `Ok(None)`
    /// for every file of a conventional checkpoint. `Err` when the
    /// manifest's reference for this file is absent or malformed; any
    /// fetch of the file then fails with that message.
    pub(crate) expect: std::result::Result<Option<(Digest, u64)>, String>,
    /// Subject string for messages ("unit layers.3", "rank 1 shards", ...).
    pub(crate) subject: String,
}

impl FilePlan {
    /// The object reference, or the typed error for a malformed one.
    pub(crate) fn object(&self) -> Result<Option<(Digest, u64)>> {
        self.expect.clone().map_err(CkptError::Format)
    }
}

#[derive(Debug)]
pub(crate) enum FileKind {
    /// Weight tensors of `units`.
    Weights { units: Vec<LayerUnit> },
    /// Optimizer shards of one rank, covering `gids`.
    Shards { rank: usize, gids: Vec<usize> },
}

/// The payload files of a checkpoint, weights first, then shards in
/// rank-major order. This is the only read-side code that knows the two
/// layouts: conventional (`model.safetensors` plus one shard file per
/// rank) and content-addressed (a manifest with object references; one
/// link per unit and one per `(rank, group)`).
pub(crate) fn file_plans(
    paths: &CheckpointPaths,
    config: &ModelConfig,
    meta: &ZeroMeta,
    manifest: Option<&PartialManifest>,
) -> Vec<FilePlan> {
    let units = match manifest {
        Some(m) => m.units.clone(),
        None => LayerUnit::all(config),
    };
    let Some(refs) = manifest.and_then(|m| m.objects.as_ref()) else {
        let mut plans = vec![FilePlan {
            path: paths.model(),
            kind: FileKind::Weights { units },
            expect: Ok(None),
            subject: "model weights".to_string(),
        }];
        plans.extend((0..meta.world_size).map(|rank| FilePlan {
            path: paths.optim_shard(rank),
            kind: FileKind::Shards {
                rank,
                gids: meta.groups_present.clone(),
            },
            expect: Ok(None),
            subject: format!("rank {rank} shards"),
        }));
        return plans;
    };
    // A reference is looked up by the key its file is saved under; keys
    // are never parsed back. A key no file claims (`rankX/group1`) leaves
    // some file without its reference, and that file's message names it.
    let object = |map: &BTreeMap<String, ObjectRef>, key: &str, claimed: &dyn Fn(&str) -> bool| {
        let Some(r) = map.get(key) else {
            let stray: Vec<&str> = map
                .keys()
                .map(String::as_str)
                .filter(|k| !claimed(k))
                .collect();
            return Err(format!(
                "manifest has no object reference '{key}' (keys no file claims: [{}])",
                stray.join(", ")
            ));
        };
        match Digest::parse_hex(&r.digest) {
            Ok(d) => Ok(Some((d, r.bytes))),
            Err(e) => Err(format!(
                "object reference '{key}': malformed digest '{}': {e}",
                r.digest
            )),
        }
    };
    let gids = &meta.groups_present;
    let unit_key = |k: &str| units.iter().any(|u| u.as_string() == k);
    let shard_key =
        |k: &str| (0..meta.world_size).any(|r| gids.iter().any(|g| CasRefs::optim_key(r, *g) == k));
    let mut plans = Vec::new();
    for unit in &units {
        let key = unit.as_string();
        plans.push(FilePlan {
            path: paths.unit_weights(&key),
            kind: FileKind::Weights { units: vec![*unit] },
            expect: object(&refs.weights, &key, &unit_key),
            subject: format!("unit {unit}"),
        });
    }
    for rank in 0..meta.world_size {
        for gid in gids {
            plans.push(FilePlan {
                path: paths.optim_group(rank, *gid),
                kind: FileKind::Shards {
                    rank,
                    gids: vec![*gid],
                },
                expect: object(&refs.optim, &CasRefs::optim_key(rank, *gid), &shard_key),
                subject: format!("rank {rank} group {gid} shard"),
            });
        }
    }
    plans
}

/// The digest to read this file by through the store, when it is a
/// content-addressed file holding an *encoded* object (compressed full or
/// delta; told from a raw safetensors image by its first bytes). An
/// encoded link cannot serve range reads, and after a chain compaction
/// it points at the old inode, so the store's own copy is what is read.
pub(crate) fn encoded_object(storage: &dyn Storage, plan: &FilePlan) -> Result<Option<Digest>> {
    let Some((want, _)) = plan.object()? else {
        return Ok(None);
    };
    let head = storage
        .read_range(&plan.path, 0, codec::OBJECT_MAGIC.len())
        .map_err(io_err(&plan.path))?;
    Ok((head == codec::OBJECT_MAGIC).then_some(want))
}

/// Fetch one payload file as its decoded safetensors image, with the
/// image's SHA-256 when the plan has an object reference to compare it
/// with: the expected digest for an encoded object (the store's chain
/// walk verifies every hop against its name), the digest of the streamed
/// bytes for a raw one. A file without a reference is streamed unhashed.
/// Reads go through `storage` in [`DEFAULT_CHUNK_BYTES`] ranges, each one
/// an injectable fault point.
pub(crate) fn fetch_payload(
    storage: &dyn Storage,
    store: Option<&ObjectStore>,
    plan: &FilePlan,
) -> Result<(Vec<u8>, Option<Digest>)> {
    let path = &plan.path;
    if let Some(want) = encoded_object(storage, plan)? {
        let store = store.ok_or_else(|| {
            CkptError::Format(format!(
                "{}: encoded store object outside a deduplicated checkpoint",
                path.display()
            ))
        })?;
        let image = store.materialize(storage, want).map_err(io_err(path))?;
        return Ok((image, Some(want)));
    }
    let len = storage.file_len(path).map_err(io_err(path))? as usize;
    let mut bytes = Vec::new();
    let mut hasher = plan.object()?.map(|_| Hasher::new());
    while bytes.len() < len {
        let take = DEFAULT_CHUNK_BYTES.min(len - bytes.len());
        let chunk = storage
            .read_range(path, bytes.len() as u64, take)
            .map_err(io_err(path))?;
        if let Some(h) = &mut hasher {
            h.update(&chunk);
        }
        if bytes.is_empty() {
            // The first chunk becomes the image, so a file of one chunk
            // is adopted as it was read and never copied.
            bytes = chunk;
            bytes.reserve_exact(len - take);
        } else {
            bytes.extend_from_slice(&chunk);
        }
    }
    Ok((bytes, hasher.map(Hasher::finalize)))
}

/// Decode a shard file's tensors into the `f32` buffers a [`ShardState`]
/// holds, straight out of the fetched image: the one conversion a restored
/// optimizer value goes through, done inside the per-file task.
pub(crate) fn shard_values(views: &[(&str, RawView<'_>)]) -> HashMap<String, Vec<f32>> {
    views
        .iter()
        .map(|(name, t)| (name.to_string(), t.to_f32s()))
        .collect()
}

/// Take group `gid`'s three state buffers out of a decoded shard file.
pub(crate) fn take_shard(
    by_name: &mut HashMap<String, Vec<f32>>,
    rank: usize,
    gid: usize,
) -> Result<ShardState> {
    let names = shard_tensor_names(gid);
    let mut take = |name: &str| {
        by_name
            .remove(name)
            .ok_or_else(|| CkptError::Missing(format!("shard tensor '{name}' of rank {rank}")))
    };
    Ok(ShardState {
        master: take(&names[0])?,
        exp_avg: take(&names[1])?,
        exp_avg_sq: take(&names[2])?,
    })
}

/// Output of one fused fetch→decode→validate task: the file's tensors in
/// the form the restored state holds them, so the bind stage only moves
/// them. A weights file fills `weights`, a shard file `shards`.
struct FileOut {
    weights: Vec<(String, RawTensor)>,
    shards: HashMap<String, Vec<f32>>,
    bytes: u64,
    digests_verified: usize,
}

/// Restore a checkpoint from the local filesystem.
pub fn restore_checkpoint(dir: &Path, req: &RestoreRequest) -> Result<RestoredState> {
    restore_checkpoint_on(Arc::new(LocalFs), dir, req)
}

/// Restore a checkpoint through a [`Storage`].
pub fn restore_checkpoint_on(
    storage: Arc<dyn Storage>,
    dir: &Path,
    req: &RestoreRequest,
) -> Result<RestoredState> {
    restore_checkpoint_with(storage, dir, req, &MetricsRegistry::new())
}

/// [`restore_checkpoint_on`] with an explicit metrics registry: stage
/// spans (`ckpt.restore.enumerate` / `fetch` / `decode` / `validate` /
/// `bind`) are recorded into it in addition to populating the report's
/// [`RestoreTimings`].
pub fn restore_checkpoint_with(
    storage: Arc<dyn Storage>,
    dir: &Path,
    req: &RestoreRequest,
    metrics: &MetricsRegistry,
) -> Result<RestoredState> {
    // --- enumerate -----------------------------------------------------
    let sp_enumerate = metrics.span("ckpt.restore.enumerate");
    let h = CheckpointHandle::open_on(storage, dir, LoadMode::EagerFull)?;
    if !h.is_committed() {
        return Err(CkptError::Quarantined(
            dir.to_path_buf(),
            h.commit_status().describe(),
        ));
    }
    // Reject structurally impossible configs up front: everything after
    // this point sizes buffers and builds layouts from the config, and a
    // corrupt config.json must surface as an error, never a panic.
    h.config.validate()?;
    let (config, meta) = (&h.config, &h.zero_meta);
    let units = h.units_present();

    let saved_world = meta.world_size;
    if saved_world == 0 {
        return Err(CkptError::Format(format!(
            "{}: zero_meta.json declares world size 0",
            dir.display()
        )));
    }
    let saved_topo = meta.topology();
    if saved_topo.world() != saved_world {
        return Err(CkptError::Format(format!(
            "{}: zero_meta.json topology {saved_topo} covers {} ranks but world_size is {saved_world}",
            dir.display(),
            saved_topo.world()
        )));
    }
    let target_topo = req.topology.unwrap_or(saved_topo);
    if target_topo.validate().is_err() {
        return Err(CkptError::Incompatible(format!(
            "target topology {target_topo} is degenerate (both degrees must be positive)"
        )));
    }
    let plans: Vec<&FilePlan> = h
        .plans
        .iter()
        .filter(|p| match p.kind {
            FileKind::Weights { .. } => req.scope != RestoreScope::OptimizerOnly,
            FileKind::Shards { .. } => req.scope != RestoreScope::WeightsOnly,
        })
        .collect();
    let enumerate_ns = sp_enumerate.finish();

    // --- fetch → decode → validate (fused per file) --------------------
    let fetch_ns = AtomicU64::new(0);
    let decode_ns = AtomicU64::new(0);
    let validate_ns = AtomicU64::new(0);
    let run_one = |plan: &&FilePlan| -> Result<FileOut> {
        let sp = metrics.span("ckpt.restore.fetch");
        let (bytes, digest) = fetch_payload(&*h.storage, h.store.as_ref(), plan)
            .map_err(|e| annotate(e, &plan.subject))?;
        fetch_ns.fetch_add(sp.finish(), Ordering::Relaxed);

        let sp = metrics.span("ckpt.restore.decode");
        let index =
            safetensors::parse_image(&plan.path, &bytes).map_err(|e| annotate(e, &plan.subject))?;
        let views: Vec<(&str, RawView<'_>)> = index.views(&bytes).collect();
        let (weights, shards) = match plan.kind {
            FileKind::Weights { .. } => (
                views
                    .iter()
                    .map(|(name, t)| (name.to_string(), t.to_raw()))
                    .collect(),
                HashMap::new(),
            ),
            FileKind::Shards { .. } => (Vec::new(), shard_values(&views)),
        };
        decode_ns.fetch_add(sp.finish(), Ordering::Relaxed);

        let sp = metrics.span("ckpt.restore.validate");
        let len = bytes.len() as u64;
        let (digests_verified, problems) =
            validate_file(plan, len, digest, &views, config, h.manifest.as_ref(), meta);
        if let Some(first) = problems.into_iter().next() {
            return Err(first);
        }
        validate_ns.fetch_add(sp.finish(), Ordering::Relaxed);
        Ok(FileOut {
            weights,
            shards,
            bytes: len,
            digests_verified,
        })
    };
    // Both collects keep plan order.
    let outs: Vec<FileOut> = match req.parallelism {
        Parallelism::Rayon => plans.par_iter().map(run_one).collect::<Result<_>>()?,
        Parallelism::Sequential => plans.iter().map(run_one).collect::<Result<_>>()?,
    };

    let mut report = RestoreReport {
        step: h.paths.step,
        units: units.clone(),
        files_fetched: outs.len(),
        bytes_fetched: outs.iter().map(|o| o.bytes).sum(),
        digests_verified: outs.iter().map(|o| o.digests_verified).sum(),
        saved_world_size: saved_world,
        world_size: target_topo.world(),
        saved_topology: saved_topo,
        topology: target_topo,
        resharded: false,
        timings: RestoreTimings {
            enumerate_ns,
            fetch_ns: fetch_ns.into_inner(),
            decode_ns: decode_ns.into_inner(),
            validate_ns: validate_ns.into_inner(),
            bind_ns: 0,
        },
    };

    // --- bind ----------------------------------------------------------
    let sp_bind = metrics.span("ckpt.restore.bind");
    let mut weight_map: HashMap<String, RawTensor> = HashMap::new();
    let mut shard_map: HashMap<(usize, usize), ShardState> = HashMap::new();
    for (plan, mut out) in plans.iter().zip(outs) {
        weight_map.extend(out.weights);
        if let FileKind::Shards { rank, gids } = &plan.kind {
            for gid in gids {
                shard_map.insert((*rank, *gid), take_shard(&mut out.shards, *rank, *gid)?);
            }
        }
    }

    let mut weights = Vec::new();
    if req.scope != RestoreScope::OptimizerOnly {
        for unit in &units {
            for spec in unit_param_specs(config, *unit) {
                let t = weight_map
                    .remove(&spec.name)
                    .ok_or_else(|| CkptError::Missing(format!("weight '{}'", spec.name)))?;
                weights.push((spec.name, t));
            }
        }
    }

    let mut ranks = Vec::new();
    if req.scope != RestoreScope::WeightsOnly {
        if meta.is_full() {
            ranks = bind_ranks(meta, config, shard_map, target_topo)?;
            report.resharded = target_topo != saved_topo;
        } else if req.topology.is_some() {
            return Err(CkptError::Incompatible(format!(
                "checkpoint-{} is partial; assemble a full one with LLMTailor first",
                h.paths.step
            )));
        }
        // Partial + no target: shards were fetched and validated, but
        // there is no complete rank state to bind.
    }
    report.timings.bind_ns = sp_bind.finish();

    Ok(RestoredState {
        paths: h.paths,
        config: h.config,
        zero_meta: h.zero_meta,
        trainer_state: h.trainer_state,
        manifest: h.manifest,
        commit: h.commit,
        weights,
        ranks,
        report,
    })
}

/// Prefix an error with the plan's subject so a failing restore names
/// the unit or shard it died on.
fn annotate(e: CkptError, subject: &str) -> CkptError {
    match e {
        CkptError::Io(path, err) => CkptError::Io(
            path,
            std::io::Error::new(err.kind(), format!("restoring {subject}: {err}")),
        ),
        CkptError::Format(m) => CkptError::Format(format!("restoring {subject}: {m}")),
        other => other,
    }
}

/// The object half of [`validate_file`], which is all the eager
/// [`CheckpointHandle`] checks: the decoded image's length and SHA-256
/// against the plan's object reference. Returns the digest comparisons
/// that held and every problem found.
pub(crate) fn validate_object(
    plan: &FilePlan,
    len: u64,
    digest: Option<Digest>,
) -> (usize, Vec<CkptError>) {
    let (Ok(Some((want, want_len))), Some(got)) = (&plan.expect, digest) else {
        return (0, Vec::new());
    };
    let mut problems = Vec::new();
    if len != *want_len {
        problems.push(CkptError::Format(format!(
            "{}: object length {len} != manifest {want_len}",
            plan.subject
        )));
    }
    if got != *want {
        problems.push(CkptError::Format(format!(
            "{}: object digest mismatch: manifest {want}, streamed {got}",
            plan.subject
        )));
    }
    (usize::from(got == *want), problems)
}

/// The one per-file check, verify-on-read: object length and digest,
/// then every tensor the plan says the file holds — presence, shape and
/// manifest FNV digest for weights, presence and length for shards.
/// Returns the digest comparisons that held and every problem found, as
/// the typed error a restore raises for it; [`restore_checkpoint_on`]
/// stops at the first, [`crate::verify`] reports them all.
pub(crate) fn validate_file(
    plan: &FilePlan,
    len: u64,
    digest: Option<Digest>,
    tensors: &[(&str, RawView<'_>)],
    config: &ModelConfig,
    manifest: Option<&PartialManifest>,
    meta: &ZeroMeta,
) -> (usize, Vec<CkptError>) {
    let (mut verified, mut problems) = validate_object(plan, len, digest);
    let by_name: HashMap<&str, &RawView<'_>> = tensors.iter().map(|(n, t)| (*n, t)).collect();
    match &plan.kind {
        FileKind::Weights { units } => {
            for spec in units.iter().flat_map(|u| unit_param_specs(config, *u)) {
                let Some(t) = by_name.get(spec.name.as_str()) else {
                    problems.push(CkptError::Missing(format!("weight '{}'", spec.name)));
                    continue;
                };
                if t.shape().dims() != spec.shape.as_slice() {
                    problems.push(CkptError::Format(format!(
                        "weight '{}': shape {} != expected {:?}",
                        spec.name,
                        t.shape(),
                        spec.shape
                    )));
                }
                if let Some(want) = manifest.and_then(|m| m.weight_digests.get(&spec.name)) {
                    let got = t.digest();
                    if got == *want {
                        verified += 1;
                    } else {
                        problems.push(CkptError::Format(format!(
                            "weight '{}': digest mismatch: manifest {want:#x}, file {got:#x}",
                            spec.name
                        )));
                    }
                }
            }
        }
        FileKind::Shards { rank, gids } => {
            let topo = meta.topology();
            for gid in gids {
                let Some(group) = meta.groups.get(*gid) else {
                    problems.push(CkptError::Format(format!(
                        "rank {rank} group {gid}: not described by zero_meta.json"
                    )));
                    continue;
                };
                let Some(want) = group.expected_shard_len(&topo, *rank) else {
                    problems.push(CkptError::Format(format!(
                        "rank {rank} group {gid}: no expected shard length under \
                         topology {topo} (inconsistent zero_meta.json)"
                    )));
                    continue;
                };
                for name in shard_tensor_names(*gid) {
                    match by_name.get(name.as_str()) {
                        None => problems.push(CkptError::Missing(format!(
                            "shard tensor '{name}' of rank {rank}"
                        ))),
                        Some(t) if t.shape().numel() != want => {
                            problems.push(CkptError::Format(format!(
                                "rank {rank} shard tensor '{name}': length {} != expected \
                                 {want} under topology {topo}",
                                t.shape().numel(),
                            )))
                        }
                        Some(_) => {}
                    }
                }
            }
        }
    }
    (verified, problems)
}

/// Rebuild each group's tensor layout so a reshard plan knows where every
/// member tensor lives inside the group-flat buffers.
///
/// A pure-dp → pure-dp remap never needs tensor boundaries (every layout
/// degenerates to one whole-buffer run), so it uses synthetic flat
/// layouts unconditionally. Any tensor-parallel endpoint reconstructs the
/// real composition from the model config, trying the layer-wise layout
/// first and the stock 2-group layout second, matched against the saved
/// metadata's group count and element counts.
fn reconstruct_layouts(
    meta: &ZeroMeta,
    config: &ModelConfig,
    from: Topology,
    to: Topology,
) -> Result<Vec<GroupTopoLayout>> {
    if from.tp == 1 && to.tp == 1 {
        return Ok(meta
            .groups
            .iter()
            .map(|g| GroupTopoLayout::flat(g.id, g.numel))
            .collect());
    }
    let mut shapes: HashMap<String, Vec<usize>> = HashMap::new();
    for unit in LayerUnit::all(config) {
        for spec in unit_param_specs(config, unit) {
            shapes.insert(spec.name, spec.shape);
        }
    }
    for layout in [GroupLayout::LayerWise, GroupLayout::Stock] {
        let groups = build_groups(config, layout);
        let matches = groups.len() == meta.groups.len()
            && groups
                .iter()
                .zip(&meta.groups)
                .all(|(g, m)| g.id == m.id && g.numel == m.numel);
        if matches {
            return groups
                .iter()
                .map(|g| {
                    GroupTopoLayout::from_group(g, |n| shapes.get(n).cloned())
                        .map_err(|e| CkptError::Format(format!("reshard plan: {e}")))
                })
                .collect();
        }
    }
    Err(CkptError::Incompatible(format!(
        "cannot reconstruct the optimizer group composition from config \
         '{}' for a tensor-parallel remap ({from} -> {to})",
        config.model_name
    )))
}

/// Bind fetched shards into rank states at the `target` topology,
/// executing a per-group [`GroupPlan`] when the layout changes. The plan
/// is computed offline (pure interval arithmetic, no I/O) and validates
/// every source shard length before any element moves.
pub(crate) fn bind_ranks(
    meta: &ZeroMeta,
    config: &ModelConfig,
    mut shard_map: HashMap<(usize, usize), ShardState>,
    target: Topology,
) -> Result<Vec<RankState>> {
    let from = meta.topology();
    let saved = from.world();
    let n_groups = meta.groups.len();
    let mut per_rank: Vec<Vec<ShardState>> = (0..target.world())
        .map(|_| Vec::with_capacity(n_groups))
        .collect();
    let layouts = if target == from {
        Vec::new()
    } else {
        reconstruct_layouts(meta, config, from, target)?
    };
    // `layouts` is intentionally empty (and unindexed) on the
    // same-topology fast path, so zipping it in place of `gid` indexing
    // would be wrong.
    #[allow(clippy::needless_range_loop)]
    for gid in 0..n_groups {
        let mut saved_shards = Vec::with_capacity(saved);
        for rank in 0..saved {
            saved_shards.push(
                shard_map
                    .remove(&(rank, gid))
                    .ok_or_else(|| CkptError::Missing(format!("rank {rank} group {gid} shard")))?,
            );
        }
        if target == from {
            for (rank, shard) in saved_shards.into_iter().enumerate() {
                per_rank[rank].push(shard);
            }
            continue;
        }
        let plan = GroupPlan::compute(&layouts[gid], &from, &target)
            .map_err(|e| CkptError::Incompatible(format!("reshard plan: {e}")))?;
        let remap = |f: fn(&ShardState) -> &Vec<f32>| -> Result<Vec<Vec<f32>>> {
            let srcs: Vec<&[f32]> = saved_shards.iter().map(|s| f(s).as_slice()).collect();
            plan.apply(&srcs)
                .map_err(|e| CkptError::Format(format!("reshard: {e}")))
        };
        let masters = remap(|s| &s.master)?;
        let exp_avgs = remap(|s| &s.exp_avg)?;
        let exp_avg_sqs = remap(|s| &s.exp_avg_sq)?;
        for (rank, ((master, exp_avg), exp_avg_sq)) in masters
            .into_iter()
            .zip(exp_avgs)
            .zip(exp_avg_sqs)
            .enumerate()
        {
            per_rank[rank].push(ShardState {
                master,
                exp_avg,
                exp_avg_sq,
            });
        }
    }
    Ok(per_rank
        .into_iter()
        .map(|shards| RankState { shards })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, LiveState, SaveOptions};
    use crate::writer::SaveRequest;
    use llmt_model::{Batch, Model, ModelConfig, ParamSet};
    use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
    use llmt_tensor::rng::Prng;
    use llmt_zero::{gather, ZeroEngine};

    fn write_ckpt(
        root: &Path,
        cfg: &ModelConfig,
        step: u64,
        world: usize,
        units: &[LayerUnit],
        dedup: bool,
    ) -> (Model, ZeroEngine) {
        let mut model = Model::new(cfg.clone(), 21);
        let mut engine = ZeroEngine::new(
            &model.params,
            build_groups(cfg, GroupLayout::LayerWise),
            world,
            AdamWHyper::default(),
        );
        let mut rng = Prng::seed_from_u64(9);
        let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let mut grads = ParamSet::zeros(cfg);
        model.loss_and_grad(&Batch::new(tokens, 2, 8), &mut grads);
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
        let req = SaveRequest {
            dir: &CheckpointPaths::under(root, step).dir,
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
        };
        engine::save(&[&LocalFs], &req, &SaveOptions::dedup(dedup)).unwrap();
        (model, engine)
    }

    #[test]
    fn fetch_hashes_exactly_when_there_is_a_digest_to_compare_with() {
        use llmt_cas::Codec;
        let dir = tempfile::tempdir().unwrap();
        let fs = LocalFs;
        let plan = |path: PathBuf, expect| FilePlan {
            path,
            kind: FileKind::Weights { units: Vec::new() },
            expect: Ok(expect),
            subject: "test file".to_string(),
        };
        // Spans several range reads.
        let image: Vec<u8> = (0..DEFAULT_CHUNK_BYTES * 2 + 17)
            .map(|i| (i % 251) as u8)
            .collect();
        let raw = dir.path().join("raw.safetensors");
        std::fs::write(&raw, &image).unwrap();

        // No object reference: streamed, not hashed.
        let (bytes, digest) = fetch_payload(&fs, None, &plan(raw.clone(), None)).unwrap();
        assert_eq!((bytes, digest), (image.clone(), None));

        // A reference to a raw object: the digest is of the bytes that
        // were streamed, whatever the manifest hoped for.
        let hoped = Digest::of(b"something else");
        let with_ref = plan(raw, Some((hoped, image.len() as u64)));
        let (bytes, digest) = fetch_payload(&fs, None, &with_ref).unwrap();
        assert_eq!((bytes, digest), (image.clone(), Some(Digest::of(&image))));

        // An encoded object: read through the store by the expected
        // digest, down the delta chain and back up.
        let store = ObjectStore::for_run_root(dir.path());
        let base = store.put(&fs, &image).unwrap().digest;
        let mut tip_image = image.clone();
        tip_image[100] ^= 0x55;
        let tip = Digest::of(&tip_image);
        let mut diff = tip_image.clone();
        codec::xor_into(&mut diff, &image).unwrap();
        let payload = Codec::Lzss.encode(&diff);
        store
            .put_delta(&fs, tip, base, &image, Codec::Lzss, &payload)
            .unwrap();
        let link = dir.path().join("tip.safetensors");
        fs.hard_link(&store.object_path(tip), &link).unwrap();
        let encoded = plan(link, Some((tip, tip_image.len() as u64)));
        assert_eq!(encoded_object(&fs, &encoded).unwrap(), Some(tip));
        let (bytes, digest) = fetch_payload(&fs, Some(&store), &encoded).unwrap();
        assert_eq!((bytes, digest), (tip_image, Some(tip)));
        // Without a store there is nothing to decode it with.
        assert!(matches!(
            fetch_payload(&fs, None, &encoded).unwrap_err(),
            CkptError::Format(_)
        ));
    }

    #[test]
    fn restore_matches_reader_for_plain_and_dedup() {
        let cfg = ModelConfig::tiny_test();
        for dedup in [false, true] {
            let dir = tempfile::tempdir().unwrap();
            let (model, engine) = write_ckpt(dir.path(), &cfg, 10, 2, &LayerUnit::all(&cfg), dedup);
            let ckpt = dir.path().join("checkpoint-10");
            let state = restore_checkpoint(&ckpt, &RestoreRequest::default()).unwrap();
            assert!(state.report.digests_verified > 0);
            assert!(!state.report.resharded);
            assert_eq!(state.report.saved_world_size, 2);
            let mut h = CheckpointHandle::open(&ckpt, LoadMode::EagerFull).unwrap();
            let mut want = Vec::new();
            for unit in LayerUnit::all(&cfg) {
                want.extend(h.unit_weights(unit).unwrap());
            }
            assert_eq!(state.weights, want, "dedup={dedup}");
            for (name, t) in &state.weights {
                let live = model.params.get(name).unwrap();
                assert_eq!(&llmt_tensor::Tensor::from_raw(t), live, "{name}");
            }
            assert_eq!(state.ranks.len(), 2);
            for rank in 0..2 {
                assert_eq!(state.ranks[rank], engine.ranks[rank], "dedup={dedup}");
            }
        }
    }

    #[test]
    fn parallel_and_sequential_restores_are_identical() {
        let cfg = ModelConfig::tiny_test();
        for dedup in [false, true] {
            let dir = tempfile::tempdir().unwrap();
            write_ckpt(dir.path(), &cfg, 10, 2, &LayerUnit::all(&cfg), dedup);
            let ckpt = dir.path().join("checkpoint-10");
            for topology in [None, Some(Topology { dp: 2, tp: 2 })] {
                let restore = |parallelism| {
                    let req = RestoreRequest {
                        topology,
                        parallelism,
                        ..Default::default()
                    };
                    restore_checkpoint(&ckpt, &req).unwrap()
                };
                let (par, seq) = (
                    restore(Parallelism::Rayon),
                    restore(Parallelism::Sequential),
                );
                assert_eq!(par.weights, seq.weights);
                assert_eq!(par.ranks, seq.ranks);
                let counts = |r: &RestoreReport| {
                    (
                        r.files_fetched,
                        r.bytes_fetched,
                        r.digests_verified,
                        r.resharded,
                        r.units.clone(),
                    )
                };
                assert_eq!(counts(&par.report), counts(&seq.report));
                assert_eq!(par.report.resharded, topology.is_some());
            }
        }
    }

    #[test]
    fn resharding_round_trips_across_world_sizes() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        let (_, engine) = write_ckpt(dir.path(), &cfg, 10, 2, &LayerUnit::all(&cfg), false);
        let ckpt = dir.path().join("checkpoint-10");
        for target in [1usize, 2, 3, 4, 8] {
            let state = restore_checkpoint(
                &ckpt,
                &RestoreRequest {
                    topology: Some(Topology::dp_only(target)),
                    scope: RestoreScope::OptimizerOnly,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(state.ranks.len(), target);
            assert_eq!(state.report.resharded, target != 2);
            assert_eq!(state.report.topology, Topology::dp_only(target));
            assert_eq!(state.report.saved_topology, Topology::dp_only(2));
            // Gathering the restored shards reproduces the engine's flat
            // group buffers exactly, pad dropped.
            for (gid, g) in state.zero_meta.groups.iter().enumerate() {
                let masters: Vec<Vec<f32>> = state
                    .ranks
                    .iter()
                    .map(|r| r.shards[gid].master.clone())
                    .collect();
                let saved: Vec<Vec<f32>> = engine
                    .ranks
                    .iter()
                    .map(|r| r.shards[gid].master.clone())
                    .collect();
                assert_eq!(
                    gather(&masters, g.numel),
                    gather(&saved, g.numel),
                    "group {gid} target {target}"
                );
            }
        }
    }

    #[test]
    fn verify_on_read_catches_corruption() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        write_ckpt(dir.path(), &cfg, 10, 2, &LayerUnit::all(&cfg), false);
        let ckpt = dir.path().join("checkpoint-10");
        let model_file = ckpt.join("model.safetensors");
        let mut bytes = std::fs::read(&model_file).unwrap();
        let n = bytes.len();
        bytes[n - 20] ^= 0xFF;
        std::fs::write(&model_file, bytes).unwrap();
        let err = restore_checkpoint(&ckpt, &RestoreRequest::default()).unwrap_err();
        assert!(
            matches!(&err, CkptError::Format(m) if m.contains("digest mismatch")),
            "{err}"
        );
    }

    #[test]
    fn quarantined_checkpoints_are_refused() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        write_ckpt(dir.path(), &cfg, 10, 2, &LayerUnit::all(&cfg), false);
        let ckpt = dir.path().join("checkpoint-10");
        std::fs::remove_file(ckpt.join("COMMIT")).unwrap();
        let err = restore_checkpoint(&ckpt, &RestoreRequest::default()).unwrap_err();
        assert!(matches!(err, CkptError::Quarantined(..)), "{err}");
    }

    #[test]
    fn partial_checkpoints_reshard_only_with_merge() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        write_ckpt(
            dir.path(),
            &cfg,
            10,
            2,
            &[LayerUnit::Transformer(0), LayerUnit::FinalNorm],
            false,
        );
        let ckpt = dir.path().join("checkpoint-10");
        let err = restore_checkpoint(
            &ckpt,
            &RestoreRequest {
                topology: Some(Topology::dp_only(4)),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CkptError::Incompatible(_)), "{err}");
        // Without a target the partial checkpoint is still fetchable and
        // verifiable — it just binds no rank states.
        let state = restore_checkpoint(&ckpt, &RestoreRequest::default()).unwrap();
        assert!(state.ranks.is_empty());
        assert!(!state.weights.is_empty());
    }

    #[test]
    fn errors_name_the_failing_unit() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        write_ckpt(dir.path(), &cfg, 10, 2, &LayerUnit::all(&cfg), true);
        let ckpt = dir.path().join("checkpoint-10");
        std::fs::remove_file(ckpt.join("units/layers.1.safetensors")).unwrap();
        let err = restore_checkpoint(&ckpt, &RestoreRequest::default()).unwrap_err();
        assert!(err.to_string().contains("layers.1"), "{err}");
    }

    #[test]
    fn tensor_parallel_remap_preserves_every_element() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        let (_, engine) = write_ckpt(dir.path(), &cfg, 10, 2, &LayerUnit::all(&cfg), false);
        let ckpt = dir.path().join("checkpoint-10");
        for target in [
            Topology { dp: 1, tp: 2 },
            Topology { dp: 2, tp: 2 },
            Topology { dp: 3, tp: 2 },
        ] {
            let state = restore_checkpoint(
                &ckpt,
                &RestoreRequest {
                    topology: Some(target),
                    scope: RestoreScope::OptimizerOnly,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(state.ranks.len(), target.world());
            assert!(state.report.resharded);
            // Regathering the tp-sharded states through the layout
            // reproduces the engine's flat buffers bit-exactly.
            let layouts =
                reconstruct_layouts(&state.zero_meta, &cfg, Topology::dp_only(2), target).unwrap();
            for (gid, g) in state.zero_meta.groups.iter().enumerate() {
                let shards: Vec<Vec<f32>> = state
                    .ranks
                    .iter()
                    .map(|r| r.shards[gid].master.clone())
                    .collect();
                let got = layouts[gid].gather_at(&target, &shards).unwrap();
                let saved: Vec<Vec<f32>> = engine
                    .ranks
                    .iter()
                    .map(|r| r.shards[gid].master.clone())
                    .collect();
                assert_eq!(got, gather(&saved, g.numel), "group {gid} target {target}");
            }
        }
    }
}
