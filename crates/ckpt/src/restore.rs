//! Unified parallel restore engine: the mirror image of [`crate::engine`].
//!
//! Every bulk checkpoint read — resume, crash recovery, merge sources,
//! deep verification, eval loading — funnels through one staged pipeline:
//!
//! ```text
//! enumerate   metadata + commit verdict -> the file fetch plan
//! fetch       chunked streaming reads through `Storage::read_range`,
//!             every byte also feeding an incremental SHA-256
//! decode      safetensors header parse + tensor materialization
//! validate    verify-on-read: object digests, tensor digests/shapes,
//!             shard lengths (free with the I/O)
//! bind        canonical-order weights + optimizer rank states,
//!             resharded to the requested world size
//! ```
//!
//! Fetch/decode/validate run fused per file on the rayon pool, so a
//! checkpoint with many unit and shard files restores with near-linear
//! speedup over the sequential baseline (`restore_throughput` bench).
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
use llmt_tensor::RawTensor;
use llmt_zero::{GroupPlan, GroupTopoLayout, RankState, ShardState, Topology};
use rayon::prelude::*;
use std::collections::HashMap;
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

/// What to restore and how.
#[derive(Debug, Clone)]
pub struct RestoreRequest {
    /// Target dp×tp topology for the bound optimizer rank states. `None`
    /// keeps the saved topology; a differing target reshards every group
    /// through an offline [`llmt_zero::ReshardPlan`].
    pub topology: Option<Topology>,
    /// Payload selection.
    pub scope: RestoreScope,
    /// Verify-on-read: recompute and check manifest digests (SHA-256 for
    /// object-backed files, FNV per weight tensor) and shard lengths
    /// while the bytes stream past.
    pub verify: bool,
    /// Fetch files in parallel (rayon) or strictly sequentially.
    pub parallelism: Parallelism,
    /// Streaming read granularity; every chunk is one `Storage` op, so
    /// fault injection reaches mid-file read failures.
    pub chunk_bytes: usize,
    /// Refuse checkpoints without a valid `COMMIT` marker with
    /// [`CkptError::Quarantined`]. Resume paths keep this on; deep
    /// verification turns it off to inspect quarantined directories.
    pub require_committed: bool,
}

impl Default for RestoreRequest {
    fn default() -> Self {
        RestoreRequest {
            topology: None,
            scope: RestoreScope::Full,
            verify: true,
            parallelism: Parallelism::Rayon,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            require_committed: true,
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

/// Fetch a whole file in `chunk_bytes`-sized range reads through a
/// [`Storage`], feeding every byte to an incremental SHA-256. One
/// bounded-granularity traversal shared by the read and the content
/// digest — the read-side twin of [`safetensors::stream_file_on`].
pub fn fetch_file_on(
    storage: &dyn Storage,
    path: &Path,
    chunk_bytes: usize,
) -> Result<(Vec<u8>, Digest)> {
    let chunk_bytes = chunk_bytes.max(1);
    let len = storage.file_len(path).map_err(io_err(path))? as usize;
    let mut bytes = Vec::with_capacity(len);
    let mut hasher = Hasher::new();
    let mut off = 0usize;
    while off < len {
        let take = chunk_bytes.min(len - off);
        let chunk = storage
            .read_range(path, off as u64, take)
            .map_err(io_err(path))?;
        hasher.update(&chunk);
        bytes.extend_from_slice(&chunk);
        off += take;
    }
    Ok((bytes, hasher.finalize()))
}

/// One entry of the enumerate stage's fetch plan.
struct FilePlan {
    path: PathBuf,
    kind: FileKind,
    /// Expected object digest/length (deduplicated checkpoints).
    expect: Option<ObjectRef>,
    /// Subject string for error messages ("unit layers.3",
    /// "rank 1 shards", ...).
    subject: String,
}

enum FileKind {
    /// Weight tensors of `units`.
    Weights { units: Vec<LayerUnit> },
    /// Optimizer shards of one rank, covering `gids`.
    Shards { rank: usize, gids: Vec<usize> },
}

/// Output of one fused fetch→decode→validate task.
struct FileOut {
    plan_idx: usize,
    tensors: Vec<(String, RawTensor)>,
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
    let h = CheckpointHandle::open_on(storage.clone(), dir, LoadMode::EagerFull)?;
    if req.require_committed && !h.is_committed() {
        return Err(CkptError::Quarantined(
            dir.to_path_buf(),
            h.commit_status().describe(),
        ));
    }
    let config = h.config.clone();
    // Reject structurally impossible configs up front: everything after
    // this point sizes buffers and builds layouts from the config, and a
    // corrupt config.json must surface as an error, never a panic.
    config.validate()?;
    let meta = h.zero_meta.clone();
    let manifest = h.manifest.clone();
    let units = h.units_present();
    let paths = h.paths.clone();
    let commit = h.commit_status().clone();
    let trainer_state = h.trainer_state.clone();
    drop(h);

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
    let refs = manifest.as_ref().and_then(|m| m.objects.as_ref());
    let dedup = refs.is_some();

    let mut plans: Vec<FilePlan> = Vec::new();
    if req.scope != RestoreScope::OptimizerOnly {
        if dedup {
            for unit in &units {
                let key = unit.as_string();
                plans.push(FilePlan {
                    path: paths.unit_weights(&key),
                    kind: FileKind::Weights { units: vec![*unit] },
                    expect: refs.and_then(|r| r.weights.get(&key).cloned()),
                    subject: format!("unit {unit}"),
                });
            }
        } else {
            plans.push(FilePlan {
                path: paths.model(),
                kind: FileKind::Weights {
                    units: units.clone(),
                },
                expect: None,
                subject: "model weights".to_string(),
            });
        }
    }
    if req.scope != RestoreScope::WeightsOnly {
        for rank in 0..saved_world {
            if dedup {
                for gid in &meta.groups_present {
                    plans.push(FilePlan {
                        path: paths.optim_group(rank, *gid),
                        kind: FileKind::Shards {
                            rank,
                            gids: vec![*gid],
                        },
                        expect: refs
                            .and_then(|r| r.optim.get(&CasRefs::optim_key(rank, *gid)).cloned()),
                        subject: format!("rank {rank} group {gid} shard"),
                    });
                }
            } else {
                plans.push(FilePlan {
                    path: paths.optim_shard(rank),
                    kind: FileKind::Shards {
                        rank,
                        gids: meta.groups_present.clone(),
                    },
                    expect: None,
                    subject: format!("rank {rank} shards"),
                });
            }
        }
    }
    let enumerate_ns = sp_enumerate.finish();

    // --- fetch → decode → validate (fused per file) --------------------
    let fetch_ns = AtomicU64::new(0);
    let decode_ns = AtomicU64::new(0);
    let validate_ns = AtomicU64::new(0);
    // Deduplicated checkpoints may hard-link *encoded* store objects
    // (compressed fulls or delta chains); those are materialized through
    // the store, which walks the chain verifying every hop's decoded
    // digest against its object name.
    let store = dedup.then(|| ObjectStore::resolve(&*storage, dir.parent().unwrap_or(dir)));
    let run_one = |(plan_idx, plan): (usize, &FilePlan)| -> Result<FileOut> {
        let sp = metrics.span("ckpt.restore.fetch");
        let (mut bytes, mut digest) = fetch_file_on(&*storage, &plan.path, req.chunk_bytes)
            .map_err(|e| annotate(e, &plan.subject))?;
        if codec::is_encoded(&bytes) {
            let (store, expect) = match (&store, &plan.expect) {
                (Some(s), Some(e)) => (s, e),
                _ => {
                    return Err(CkptError::Format(format!(
                        "{}: encoded store object without a manifest object ref",
                        plan.subject
                    )))
                }
            };
            let want = Digest::parse_hex(&expect.digest).map_err(|e| {
                CkptError::Format(format!(
                    "{}: unparseable manifest digest '{}': {e}",
                    plan.subject, expect.digest
                ))
            })?;
            bytes = store
                .materialize(&*storage, want)
                .map_err(|e| annotate(io_err(&plan.path)(e), &plan.subject))?;
            digest = want;
        }
        fetch_ns.fetch_add(sp.finish(), Ordering::Relaxed);

        let sp = metrics.span("ckpt.restore.decode");
        let (tensors, _meta) = safetensors::decode_image(&plan.path, &bytes)
            .map_err(|e| annotate(e, &plan.subject))?;
        decode_ns.fetch_add(sp.finish(), Ordering::Relaxed);

        let sp = metrics.span("ckpt.restore.validate");
        let mut digests_verified = 0usize;
        if req.verify {
            digests_verified = validate_file(
                plan,
                &bytes,
                digest,
                &tensors,
                &config,
                manifest.as_ref(),
                &meta,
            )?;
        }
        validate_ns.fetch_add(sp.finish(), Ordering::Relaxed);
        Ok(FileOut {
            plan_idx,
            tensors,
            bytes: bytes.len() as u64,
            digests_verified,
        })
    };
    let mut outs: Vec<FileOut> = match req.parallelism {
        Parallelism::Rayon => plans
            .par_iter()
            .enumerate()
            .map(run_one)
            .collect::<Result<Vec<_>>>()?,
        Parallelism::Sequential => plans
            .iter()
            .enumerate()
            .map(run_one)
            .collect::<Result<Vec<_>>>()?,
    };
    outs.sort_by_key(|o| o.plan_idx);

    let mut report = RestoreReport {
        step: paths.step,
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
    for out in outs {
        match &plans[out.plan_idx].kind {
            FileKind::Weights { .. } => weight_map.extend(out.tensors),
            FileKind::Shards { rank, gids } => {
                let mut by_name: HashMap<String, RawTensor> = out.tensors.into_iter().collect();
                for gid in gids {
                    let names = shard_tensor_names(*gid);
                    let mut take = |name: &str| -> Result<Vec<f32>> {
                        by_name.remove(name).map(|t| t.to_f32s()).ok_or_else(|| {
                            CkptError::Missing(format!(
                                "shard tensor '{name}' of rank {rank} in {}",
                                plans[out.plan_idx].path.display()
                            ))
                        })
                    };
                    shard_map.insert(
                        (*rank, *gid),
                        ShardState {
                            master: take(&names[0])?,
                            exp_avg: take(&names[1])?,
                            exp_avg_sq: take(&names[2])?,
                        },
                    );
                }
            }
        }
    }

    let mut weights = Vec::new();
    if req.scope != RestoreScope::OptimizerOnly {
        for unit in &units {
            for spec in unit_param_specs(&config, *unit) {
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
            ranks = bind_ranks(&meta, &config, shard_map, target_topo)?;
            report.resharded = target_topo != saved_topo;
        } else if req.topology.is_some() {
            return Err(CkptError::Incompatible(format!(
                "checkpoint-{} is partial; assemble a full one with LLMTailor first",
                paths.step
            )));
        }
        // Partial + no target: shards were fetched and validated, but
        // there is no complete rank state to bind.
    }
    report.timings.bind_ns = sp_bind.finish();

    Ok(RestoredState {
        paths,
        config,
        zero_meta: meta,
        trainer_state,
        manifest,
        commit,
        weights,
        ranks,
        report,
    })
}

/// Prefix an error with the fetch plan's subject so a failing restore
/// names the unit or shard it died on.
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

/// Verify-on-read for one fetched file. Returns the number of digest
/// comparisons performed; any mismatch is an error naming the subject.
fn validate_file(
    plan: &FilePlan,
    bytes: &[u8],
    digest: Digest,
    tensors: &[(String, RawTensor)],
    config: &ModelConfig,
    manifest: Option<&PartialManifest>,
    meta: &ZeroMeta,
) -> Result<usize> {
    let mut verified = 0usize;
    if let Some(expect) = &plan.expect {
        if bytes.len() as u64 != expect.bytes {
            return Err(CkptError::Format(format!(
                "{}: object length {} != manifest {}",
                plan.subject,
                bytes.len(),
                expect.bytes
            )));
        }
        let want = Digest::parse_hex(&expect.digest).map_err(|e| {
            CkptError::Format(format!(
                "{}: malformed object digest '{}': {e}",
                plan.subject, expect.digest
            ))
        })?;
        if digest != want {
            return Err(CkptError::Format(format!(
                "{}: object digest mismatch: manifest {want}, streamed {digest}",
                plan.subject
            )));
        }
        verified += 1;
    }
    let by_name: HashMap<&str, &RawTensor> = tensors.iter().map(|(n, t)| (n.as_str(), t)).collect();
    match &plan.kind {
        FileKind::Weights { units } => {
            for unit in units {
                for spec in unit_param_specs(config, *unit) {
                    let t = by_name
                        .get(spec.name.as_str())
                        .ok_or_else(|| CkptError::Missing(format!("weight '{}'", spec.name)))?;
                    if t.shape().dims() != spec.shape.as_slice() {
                        return Err(CkptError::Format(format!(
                            "weight '{}': shape {} != expected {:?}",
                            spec.name,
                            t.shape(),
                            spec.shape
                        )));
                    }
                    if let Some(want) = manifest.and_then(|m| m.weight_digests.get(&spec.name)) {
                        let got = t.digest();
                        if got != *want {
                            return Err(CkptError::Format(format!(
                                "weight '{}': digest mismatch: manifest {want:#x}, file {got:#x}",
                                spec.name
                            )));
                        }
                        verified += 1;
                    }
                }
            }
        }
        FileKind::Shards { rank, gids } => {
            let topo = meta.topology();
            for gid in gids {
                let group = meta.groups.get(*gid).ok_or_else(|| {
                    CkptError::Format(format!(
                        "rank {rank} group {gid}: not described by zero_meta.json"
                    ))
                })?;
                let want = group.expected_shard_len(&topo, *rank).ok_or_else(|| {
                    CkptError::Format(format!(
                        "rank {rank} group {gid}: no expected shard length under \
                         topology {topo} (inconsistent zero_meta.json)"
                    ))
                })?;
                for name in shard_tensor_names(*gid) {
                    let t = by_name.get(name.as_str()).ok_or_else(|| {
                        CkptError::Missing(format!("shard tensor '{name}' of rank {rank}"))
                    })?;
                    if t.shape().numel() != want {
                        return Err(CkptError::Format(format!(
                            "rank {rank} shard tensor '{name}': length {} != expected \
                             {want} under topology {topo}",
                            t.shape().numel(),
                        )));
                    }
                }
            }
        }
    }
    Ok(verified)
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
fn bind_ranks(
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
            root,
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
        };
        engine::save(&[&LocalFs], &req, &SaveOptions::dedup(dedup)).unwrap();
        (model, engine)
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
        let dir = tempfile::tempdir().unwrap();
        write_ckpt(dir.path(), &cfg, 10, 2, &LayerUnit::all(&cfg), true);
        let ckpt = dir.path().join("checkpoint-10");
        let par = restore_checkpoint(&ckpt, &RestoreRequest::default()).unwrap();
        let seq = restore_checkpoint(
            &ckpt,
            &RestoreRequest {
                parallelism: Parallelism::Sequential,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(par.weights, seq.weights);
        assert_eq!(par.ranks, seq.ranks);
        assert_eq!(par.report.bytes_fetched, seq.report.bytes_fetched);
        assert_eq!(par.report.files_fetched, seq.report.files_fetched);
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
        let err = restore_checkpoint(
            &ckpt,
            &RestoreRequest {
                require_committed: false,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, CkptError::Format(m) if m.contains("digest mismatch")),
            "{err}"
        );
        // With verification off the corrupted bytes load silently — the
        // digest check is what catches them.
        restore_checkpoint(
            &ckpt,
            &RestoreRequest {
                verify: false,
                require_committed: false,
                ..Default::default()
            },
        )
        .unwrap();
    }

    #[test]
    fn quarantined_checkpoints_are_refused_unless_asked() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        write_ckpt(dir.path(), &cfg, 10, 2, &LayerUnit::all(&cfg), false);
        let ckpt = dir.path().join("checkpoint-10");
        std::fs::remove_file(ckpt.join("COMMIT")).unwrap();
        let err = restore_checkpoint(&ckpt, &RestoreRequest::default()).unwrap_err();
        assert!(matches!(err, CkptError::Quarantined(..)), "{err}");
        let state = restore_checkpoint(
            &ckpt,
            &RestoreRequest {
                require_committed: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!state.commit.is_committed());
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
        let err = restore_checkpoint(
            &ckpt,
            &RestoreRequest {
                require_committed: false,
                ..Default::default()
            },
        )
        .unwrap_err();
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
