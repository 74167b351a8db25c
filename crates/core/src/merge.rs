//! Merge execution: assemble the "Frankenstein" checkpoint.
//!
//! For every unit the plan assigns, the executor copies (a) the unit's
//! weight tensors out of the source's consolidated model file and (b) the
//! unit's optimizer parameter groups out of every rank's shard file,
//! locating them with the arithmetic [`GroupIndexMap`] (paper §4.1/§4.2).
//! Rank files are assembled in parallel (the paper uses a Python
//! `ProcessPoolExecutor`; we use rayon), while within each rank the order
//! of loads and writes is kept deterministic ("to ensure the correctness
//! of the resumed checkpoint, we keep the order of loading and writing").
//!
//! Two [`LoadPattern`]s reproduce Table 7's access patterns:
//! * [`LoadPattern::Sequential`] — units are fetched source-by-source; an
//!   eager handle reads each file once.
//! * [`LoadPattern::ParityInterleaved`] — units are fetched strictly in
//!   model order and every cache is discarded after each unit, which under
//!   eager loading re-reads whole checkpoints per layer — the paper's
//!   "loading and discarding them N times".

use crate::error::{Result, TailorError};
use crate::plan::MergePlan;
use crate::recipe::MergeRecipe;
use llmt_cas::{Digest, ObjectStore};
use llmt_ckpt::engine;
use llmt_ckpt::reader::IoStats;
use llmt_ckpt::{
    safetensors, CasRefs, CheckpointHandle, CheckpointPaths, LoadMode, ObjectRef, PartialManifest,
    ZeroMeta, DEFAULT_CHUNK_BYTES,
};
use llmt_model::naming::unit_param_specs;
use llmt_optim::GroupIndexMap;
use llmt_storage::vfs::{LocalFs, Storage};
use llmt_tensor::RawTensor;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Order in which unit state is fetched from the sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadPattern {
    /// Group fetches by source checkpoint (efficient default).
    Sequential,
    /// Strict model order with cache discard after every unit (the
    /// interleaved pattern of paper §5.4).
    ParityInterleaved,
}

/// Outcome of a merge.
#[derive(Debug, Clone)]
pub struct MergeReport {
    /// Where the assembled checkpoint lives.
    pub output: PathBuf,
    /// Step of the assembled checkpoint (= config donor's step).
    pub step: u64,
    /// Wall-clock duration of the merge.
    pub duration: Duration,
    /// Aggregated read statistics across all handles and ranks.
    pub io: IoStats,
    /// Bytes written to the output.
    pub bytes_written: u64,
    /// Files written.
    pub files_written: usize,
    /// Number of distinct source checkpoints.
    pub sources: usize,
    /// Payload objects satisfied by hard links into the content-addressed
    /// store without reading or copying tensor bytes (dedup-aware merges
    /// only; 0 for conventional outputs).
    pub objects_linked: usize,
    /// Bytes physically written for payload (new objects only). Equals
    /// `bytes_written` minus metadata for conventional merges; near zero
    /// when every source layer was already stored.
    pub physical_bytes: u64,
}

/// Resolve a recipe and execute it.
pub fn merge_with_recipe(
    recipe: &MergeRecipe,
    mode: LoadMode,
    pattern: LoadPattern,
) -> Result<MergeReport> {
    let plan = MergePlan::resolve(recipe)?;
    execute_plan(&plan, mode, pattern)
}

/// Execute a resolved plan.
pub fn execute_plan(plan: &MergePlan, mode: LoadMode, pattern: LoadPattern) -> Result<MergeReport> {
    let start = Instant::now();
    let mut io = IoStats::default();

    // --- 1. Donor metadata (paper §4.4) -------------------------------
    let donor = CheckpointHandle::open(&plan.config_donor, LoadMode::LazyRange)?;
    let step = donor.trainer_state.global_step;
    let donor_meta = donor.zero_meta.clone();
    let map = GroupIndexMap {
        num_layers: donor_meta.num_layers,
        tied: donor_meta.tied,
    };
    let group_count = map.group_count();

    let out = CheckpointPaths {
        dir: plan.output.clone(),
        step,
    };
    // All merge I/O — metadata writes here, tensor reads inside the
    // checkpoint handles — goes through the `Storage` trait, so fault
    // injection covers merges end to end.
    let fs = LocalFs;
    fs.create_dir_all(&out.global_step_dir())
        .map_err(llmt_ckpt::error::io_err(out.global_step_dir()))?;

    // --- Dedup detection: an `objects/` store next to the output (or a
    // `CASROOT` redirect to a shared one) means the assembled checkpoint
    // references layer payloads by digest — a source layer whose bytes are
    // already stored is *linked*, never read or copied.
    let store = plan
        .output
        .parent()
        .map(|root| ObjectStore::resolve(&fs, root))
        .filter(|s| s.is_present(&fs));
    let mut source_manifests: BTreeMap<PathBuf, PartialManifest> = BTreeMap::new();
    if store.is_some() {
        for src in &plan.sources {
            let mpath = src.join("partial_manifest.json");
            if fs.exists(&mpath) {
                source_manifests.insert(src.clone(), PartialManifest::load(&mpath)?);
            }
        }
    }
    let io_as_tailor = |p: &Path| {
        let p = p.to_path_buf();
        move |e: std::io::Error| TailorError::Ckpt(llmt_ckpt::error::io_err(&p)(e))
    };

    let mut files_written = 0usize;
    let mut bytes_written = 0u64;
    let mut physical_bytes = 0u64;
    let mut objects_linked = 0usize;
    let mut refs = store.as_ref().map(|_| CasRefs::default());

    let mut st_meta = BTreeMap::new();
    st_meta.insert("format".to_string(), "pt".to_string());

    // --- 2. Model weights ----------------------------------------------
    let mut digests = BTreeMap::new();
    if let (Some(store), Some(refs)) = (store.as_ref(), refs.as_mut()) {
        // Dedup-aware output: one object per unit, hard-linked under
        // `units/`. Encoding matches the trainer's dedup saves exactly, so
        // a merged layer and the save it came from share one object.
        fs.create_dir_all(&out.units_dir())
            .map_err(llmt_ckpt::error::io_err(out.units_dir()))?;
        let mut handles: BTreeMap<&Path, CheckpointHandle> = BTreeMap::new();
        for (unit, src) in &plan.assignments {
            let key = unit.as_string();
            let dest = out.unit_weights(&key);
            let specs = unit_param_specs(&plan.config, *unit);
            // Fast path: the source manifest already references this
            // unit's bytes as a stored object, and it carries the per-
            // tensor digests the output manifest needs — pure metadata.
            let reusable = source_manifests.get(src).and_then(|m| {
                let r = m.objects.as_ref()?.weights.get(&key)?;
                let d = Digest::parse_hex(&r.digest).ok()?;
                if !store.contains(&fs, d) {
                    return None;
                }
                let copied: Option<Vec<_>> = specs
                    .iter()
                    .map(|s| m.weight_digests.get(&s.name).map(|v| (s.name.clone(), *v)))
                    .collect();
                Some((r.clone(), d, copied?))
            });
            match reusable {
                Some((r, d, copied)) => {
                    store.link(&fs, d, &dest).map_err(io_as_tailor(&dest))?;
                    digests.extend(copied);
                    refs.weights.insert(key, r);
                    objects_linked += 1;
                }
                None => {
                    if !handles.contains_key(src.as_path()) {
                        handles.insert(src.as_path(), CheckpointHandle::open(src, mode)?);
                    }
                    let h = handles.get_mut(src.as_path()).expect("just inserted");
                    let tensors = h.unit_weights(*unit)?;
                    for (name, t) in &tensors {
                        digests.insert(name.clone(), t.digest());
                    }
                    // Same placement the trainer's dedup saves use, so a
                    // merged layer and the save it came from share one
                    // object.
                    let outc = engine::place_tensors_object(
                        &fs,
                        store,
                        &tensors,
                        &st_meta,
                        DEFAULT_CHUNK_BYTES,
                        &dest,
                    )?;
                    if outc.written {
                        physical_bytes += outc.len;
                    }
                    bytes_written += outc.len;
                    refs.weights.insert(
                        key,
                        ObjectRef {
                            digest: outc.digest.to_hex(),
                            bytes: outc.len,
                        },
                    );
                }
            }
            files_written += 1;
            if pattern == LoadPattern::ParityInterleaved {
                for h in handles.values_mut() {
                    h.evict();
                }
            }
        }
        for h in handles.values() {
            io.absorb(&h.stats());
        }
    } else {
        let mut weight_tensors: Vec<(String, RawTensor)> = Vec::new();
        let mut handles: BTreeMap<&Path, CheckpointHandle> = BTreeMap::new();
        for src in &plan.sources {
            handles.insert(src.as_path(), CheckpointHandle::open(src, mode)?);
        }
        let fetch_order: Vec<(llmt_model::LayerUnit, &PathBuf)> = match pattern {
            LoadPattern::ParityInterleaved => {
                plan.assignments.iter().map(|(u, p)| (*u, p)).collect()
            }
            LoadPattern::Sequential => {
                let mut v: Vec<_> = plan.assignments.iter().map(|(u, p)| (*u, p)).collect();
                // Stable sort by source keeps canonical order within a source.
                v.sort_by_key(|(_, p)| {
                    plan.sources
                        .iter()
                        .position(|s| s == *p)
                        .unwrap_or(usize::MAX)
                });
                v
            }
        };
        let mut fetched: BTreeMap<String, RawTensor> = BTreeMap::new();
        for (unit, src) in fetch_order {
            let h = handles.get_mut(src.as_path()).expect("source handle");
            for (name, t) in h.unit_weights(unit)? {
                fetched.insert(name, t);
            }
            if pattern == LoadPattern::ParityInterleaved {
                for h in handles.values_mut() {
                    h.evict();
                }
            }
        }
        // Emit in canonical model order regardless of fetch order.
        for unit in plan.assignments.iter().map(|(u, _)| *u) {
            for spec in unit_param_specs(&plan.config, unit) {
                let t = fetched.remove(&spec.name).ok_or_else(|| {
                    TailorError::Plan(format!("missing fetched tensor {}", spec.name))
                })?;
                digests.insert(spec.name.clone(), t.digest());
                weight_tensors.push((spec.name, t));
            }
        }
        for h in handles.values() {
            io.absorb(&h.stats());
        }
        let (n, _digest) =
            safetensors::stream_file(&out.model(), &weight_tensors, &st_meta, DEFAULT_CHUNK_BYTES)?;
        bytes_written += n;
        physical_bytes += n;
        files_written += 1;
    }

    // --- 3. Optimizer shard files --------------------------------------
    if let Some(store) = store.as_ref() {
        // Dedup-aware: one object per (rank, group). Ranks run in
        // parallel; same-content puts are safe (staged under distinct
        // nonces, identical bytes).
        let mut owner: Vec<Option<(llmt_model::LayerUnit, &PathBuf)>> = vec![None; group_count];
        for (unit, src) in &plan.assignments {
            for g in map
                .groups_for_unit(*unit)
                .ok_or_else(|| TailorError::Plan(format!("unit {unit} absent from layout")))?
            {
                owner[g] = Some((*unit, src));
            }
        }
        type RankOut = (Vec<(String, ObjectRef)>, usize, u64, u64, IoStats);
        let per_rank: Vec<RankOut> = (0..plan.world_size)
            .into_par_iter()
            .map(|rank| -> Result<RankOut> {
                let mut handles: BTreeMap<&Path, CheckpointHandle> = BTreeMap::new();
                let mut rank_refs = Vec::new();
                let mut linked = 0usize;
                let mut written = 0u64;
                let mut physical = 0u64;
                for (g, o) in owner.iter().enumerate() {
                    let (_, src) = (*o)
                        .ok_or_else(|| TailorError::Plan(format!("group {g} was never fetched")))?;
                    let refkey = CasRefs::optim_key(rank, g);
                    let dest = out.optim_group(rank, g);
                    let reusable = source_manifests.get(src).and_then(|m| {
                        let r = m.objects.as_ref()?.optim.get(&refkey)?;
                        let d = Digest::parse_hex(&r.digest).ok()?;
                        store.contains(&fs, d).then(|| (r.clone(), d))
                    });
                    match reusable {
                        Some((r, d)) => {
                            store.link(&fs, d, &dest).map_err(io_as_tailor(&dest))?;
                            rank_refs.push((refkey, r));
                            linked += 1;
                        }
                        None => {
                            if !handles.contains_key(src.as_path()) {
                                handles.insert(src.as_path(), CheckpointHandle::open(src, mode)?);
                            }
                            let h = handles.get_mut(src.as_path()).expect("just inserted");
                            let shard = h.group_shard(rank, g)?;
                            let tensors = engine::shard_state_tensors(&shard, g);
                            let outc = engine::place_tensors_object(
                                &fs,
                                store,
                                &tensors,
                                &BTreeMap::new(),
                                DEFAULT_CHUNK_BYTES,
                                &dest,
                            )?;
                            if outc.written {
                                physical += outc.len;
                            }
                            written += outc.len;
                            rank_refs.push((
                                refkey,
                                ObjectRef {
                                    digest: outc.digest.to_hex(),
                                    bytes: outc.len,
                                },
                            ));
                        }
                    }
                }
                let mut stats = IoStats::default();
                for h in handles.values() {
                    stats.absorb(&h.stats());
                }
                Ok((rank_refs, linked, written, physical, stats))
            })
            .collect::<Result<Vec<_>>>()?;
        let refs = refs.as_mut().expect("dedup refs");
        for (rank_refs, linked, written, physical, stats) in per_rank {
            for (k, r) in rank_refs {
                refs.optim.insert(k, r);
            }
            objects_linked += linked;
            bytes_written += written;
            physical_bytes += physical;
            io.absorb(&stats);
            files_written += group_count;
        }
    } else {
        let per_rank: Vec<(u64, IoStats)> = (0..plan.world_size)
            .into_par_iter()
            .map(|rank| -> Result<(u64, IoStats)> {
                let mut handles: BTreeMap<&Path, CheckpointHandle> = BTreeMap::new();
                for src in &plan.sources {
                    handles.insert(src.as_path(), CheckpointHandle::open(src, mode)?);
                }
                let mut per_group: Vec<Option<llmt_zero::ShardState>> = vec![None; group_count];
                let fetch = |handles: &mut BTreeMap<&Path, CheckpointHandle>,
                             src: &Path,
                             unit: llmt_model::LayerUnit,
                             per_group: &mut Vec<Option<llmt_zero::ShardState>>|
                 -> Result<()> {
                    let h = handles.get_mut(src).expect("source handle");
                    for g in map.groups_for_unit(unit).ok_or_else(|| {
                        TailorError::Plan(format!("unit {unit} absent from layout"))
                    })? {
                        per_group[g] = Some(h.group_shard(rank, g)?);
                    }
                    Ok(())
                };
                match pattern {
                    LoadPattern::ParityInterleaved => {
                        for (unit, src) in &plan.assignments {
                            fetch(&mut handles, src, *unit, &mut per_group)?;
                            for h in handles.values_mut() {
                                h.evict();
                            }
                        }
                    }
                    LoadPattern::Sequential => {
                        for src in &plan.sources {
                            for unit in plan.units_from(src) {
                                fetch(&mut handles, src, unit, &mut per_group)?;
                            }
                        }
                    }
                }
                // Emit tensors strictly in group order.
                let mut tensors: Vec<(String, RawTensor)> = Vec::with_capacity(group_count * 3);
                for (g, shard) in per_group.into_iter().enumerate() {
                    let shard = shard
                        .ok_or_else(|| TailorError::Plan(format!("group {g} was never fetched")))?;
                    tensors.extend(engine::shard_state_tensors(&shard, g));
                }
                let (written, _digest) = safetensors::stream_file(
                    &out.optim_shard(rank),
                    &tensors,
                    &BTreeMap::new(),
                    DEFAULT_CHUNK_BYTES,
                )?;
                let mut stats = IoStats::default();
                for h in handles.values() {
                    stats.absorb(&h.stats());
                }
                Ok((written, stats))
            })
            .collect::<Result<Vec<_>>>()?;
        for (written, stats) in &per_rank {
            bytes_written += *written;
            physical_bytes += *written;
            io.absorb(stats);
        }
        files_written += plan.world_size;
    }

    // --- 4. Metadata files (paper §4.4) ----------------------------------
    let zero_meta = ZeroMeta {
        world_size: plan.world_size,
        // Shards are copied through rank-for-rank, so the assembled
        // checkpoint keeps the donor's dp×tp topology.
        saved_topology: donor_meta.saved_topology,
        num_layers: donor_meta.num_layers,
        tied: donor_meta.tied,
        optimizer_step: donor_meta.optimizer_step,
        groups_present: (0..group_count).collect(),
        groups: donor_meta.groups.clone(),
    };
    zero_meta.save(&out.zero_meta())?;
    copy_file(&fs, &donor.paths.config(), &out.config())?;
    copy_file(&fs, &donor.paths.trainer_state(), &out.trainer_state())?;
    fs.write(&out.latest(), format!("global_step{step}\n").as_bytes())
        .map_err(llmt_ckpt::error::io_err(out.latest()))?;
    let manifest = PartialManifest {
        step,
        units: plan.assignments.iter().map(|(u, _)| *u).collect(),
        weight_digests: digests,
        full: true,
        objects: refs,
        topology: donor_meta.saved_topology,
    };
    manifest.save(&out.manifest())?;
    // Seal the assembled checkpoint with a commit marker: resume refuses
    // unmarked directories, and a merge output is as resume-critical as a
    // trainer-written save.
    let marker_bytes = llmt_ckpt::commit_checkpoint_on(&LocalFs, &out)?;
    files_written += 6;
    bytes_written += marker_bytes;
    bytes_written += [
        out.zero_meta(),
        out.config(),
        out.trainer_state(),
        out.latest(),
        out.manifest(),
    ]
    .iter()
    .map(|p| fs.file_len(p).unwrap_or(0))
    .sum::<u64>();

    let duration = start.elapsed();
    // Journal the merge into the output's run root, best-effort: the
    // assembled checkpoint is already committed and sealed, so a journal
    // hiccup must not fail the merge.
    if let Some(run_root) = plan.output.parent() {
        let mut ev = llmt_obs::RunEvent::new("merge", step);
        ev.bytes = bytes_written;
        ev.physical_bytes = physical_bytes;
        ev.files = files_written as u64;
        ev.dedup_hits = objects_linked as u64;
        ev.stages
            .insert("merge".to_string(), duration.as_nanos() as u64);
        let _ = llmt_obs::append_event(&fs, &run_root.join(llmt_obs::EVENTS_FILE), &ev);
    }

    Ok(MergeReport {
        output: plan.output.clone(),
        step,
        duration,
        io,
        bytes_written,
        files_written,
        sources: plan.sources.len(),
        objects_linked,
        physical_bytes,
    })
}

fn copy_file(fs: &dyn Storage, from: &Path, to: &Path) -> Result<()> {
    let wrap = |p: &Path| {
        let p = p.to_path_buf();
        move |e: std::io::Error| TailorError::Ckpt(llmt_ckpt::error::io_err(&p)(e))
    };
    let bytes = fs.read(from).map_err(wrap(from))?;
    fs.write(to, &bytes).map_err(wrap(to))
}
