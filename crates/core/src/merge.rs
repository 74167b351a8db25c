//! Merge execution: assemble the "Frankenstein" checkpoint.
//!
//! A merge writes nothing itself: [`execute_plan`] presents the plan's
//! sources as a [`StateSource`] to [`engine::save`], the one checkpoint
//! writer. What is left here is the paper's question — where does each
//! unit come from: weights out of its source's model file, optimizer
//! groups (located with [`llmt_optim::GroupIndexMap`], paper §4.1/§4.2)
//! out of every rank's shard file. Sources are read *by unit* whatever
//! order the engine asks in, and [`LoadPattern`] decides what survives a
//! unit — Table 7's mechanism; DESIGN.md "Checkpoint engine" has both.

use crate::convert::groups_for_meta;
use crate::error::{Result, TailorError};
use crate::plan::MergePlan;
use crate::recipe::MergeRecipe;
use llmt_cas::{Digest, ObjectStore};
use llmt_ckpt::engine::{self, SaveOptions, StateSource};
use llmt_ckpt::reader::IoStats;
use llmt_ckpt::{CasRefs, CheckpointHandle, CkptError, LoadMode, ObjectRef, SaveRequest};
use llmt_model::naming::unit_param_specs;
use llmt_model::{LayerUnit, ModelConfig};
use llmt_obs::MetricsRegistry;
use llmt_optim::GroupSpec;
use llmt_storage::vfs::LocalFs;
use llmt_tensor::RawTensor;
use llmt_zero::Topology;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

type Tensors = Vec<(String, RawTensor)>;

/// How long fetched source state stays cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadPattern {
    /// Keep every source handle's cache for the whole merge (the default).
    Sequential,
    /// Discard every cache after each unit (the interleaved pattern of
    /// paper §5.4).
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
    /// Logical bytes of the output: payload, metadata files and marker.
    pub bytes_written: u64,
    /// Files written.
    pub files_written: usize,
    /// Number of distinct source checkpoints.
    pub sources: usize,
    /// Payload objects satisfied by hard links into the content-addressed
    /// store without reading or copying tensor bytes (dedup-aware merges
    /// only; 0 for conventional outputs).
    pub objects_linked: usize,
    /// Bytes physically written: new payload plus metadata. Equals
    /// `bytes_written` for conventional merges; little more than the
    /// metadata when every source layer was already stored.
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

/// Execute a resolved plan: one [`engine::save`] of the plan's sources into
/// `plan.output`, deduplicated when an object store sits beside it.
pub fn execute_plan(plan: &MergePlan, mode: LoadMode, pattern: LoadPattern) -> Result<MergeReport> {
    let start = Instant::now();
    let fs = LocalFs;
    let run_root = plan.output.parent().unwrap_or(Path::new(""));
    // An `objects/` store next to the output (or a `CASROOT` redirect to a
    // shared one) makes this a dedup save, exactly like a trainer's.
    let store = Some(ObjectStore::resolve(&fs, run_root)).filter(|s| s.is_present(&fs));
    let source = MergeSource::open(plan, mode, pattern, store.as_ref())?;
    let step = source.donor.trainer_state.global_step;
    let req = SaveRequest {
        dir: &plan.output,
        step,
        source: &source,
        trainer_state: &source.donor.trainer_state,
        units: &LayerUnit::all(&plan.config),
        metrics: &MetricsRegistry::new(),
        store: None,
        bases: None,
    };
    let report = engine::save(&[&fs], &req, &SaveOptions::dedup(store.is_some()))?.report;

    let merged = MergeReport {
        output: plan.output.clone(),
        step,
        duration: start.elapsed(),
        io: source.io(),
        bytes_written: report.total_bytes,
        files_written: report.files_written,
        sources: plan.sources.len(),
        objects_linked: source.linked.load(Ordering::Relaxed),
        physical_bytes: report.physical_bytes,
    };
    // Journal into the output's run root, best-effort: the checkpoint is
    // already committed, so a journal hiccup must not fail the merge.
    let mut ev = llmt_obs::RunEvent::new("merge", step);
    ev.bytes = merged.bytes_written;
    ev.physical_bytes = merged.physical_bytes;
    ev.files = merged.files_written as u64;
    ev.dedup_hits = merged.objects_linked as u64;
    ev.stages
        .insert("merge".to_string(), merged.duration.as_nanos() as u64);
    let _ = llmt_obs::append_event(&fs, &run_root.join(llmt_obs::EVENTS_FILE), &ev);
    Ok(merged)
}

/// Handles on one slice of the sources — the consolidated weights, or one
/// rank's shards — opened lazily per source checkpoint.
#[derive(Default)]
struct Side {
    handles: BTreeMap<PathBuf, CheckpointHandle>,
    /// Groups fetched with their unit that the engine has not asked for yet.
    kept: BTreeMap<usize, Tensors>,
    /// Requests still to come.
    remaining: usize,
}

impl Side {
    fn handle(&mut self, src: &Path, mode: LoadMode) -> llmt_ckpt::Result<&mut CheckpointHandle> {
        if !self.handles.contains_key(src) {
            let handle = CheckpointHandle::open(src, mode)?;
            self.handles.insert(src.to_path_buf(), handle);
        }
        Ok(self.handles.get_mut(src).expect("just inserted"))
    }

    /// One request answered. The parity pattern discards what the handles
    /// cached (whole files, if eager) every time; the last request always
    /// does, because the source outlives the whole save.
    fn served(&mut self, pattern: LoadPattern) {
        self.remaining = self.remaining.saturating_sub(1);
        if pattern == LoadPattern::ParityInterleaved || self.remaining == 0 {
            self.handles.values_mut().for_each(CheckpointHandle::evict);
        }
    }
}

/// The plan's source checkpoints as a [`StateSource`]: metadata projected
/// from the config donor (paper §4.4), payload read by unit from wherever
/// the plan assigns it.
struct MergeSource<'a> {
    plan: &'a MergePlan,
    mode: LoadMode,
    pattern: LoadPattern,
    /// The config donor, opened for its metadata only.
    donor: CheckpointHandle,
    groups: Vec<GroupSpec>,
    /// By logical key: what a source manifest names as an object the
    /// target store was checked to hold (for a weight unit, with its
    /// per-tensor digests). The engine links these instead of asking.
    links: BTreeMap<String, (ObjectRef, BTreeMap<String, u64>)>,
    /// By-reference answers given — the merge's `objects_linked`.
    linked: AtomicUsize,
    /// `[0]` reads the consolidated weights, `[1 + rank]` that rank's shards
    /// (the engine writes rank files in parallel).
    sides: Vec<Mutex<Side>>,
}

impl<'a> MergeSource<'a> {
    fn open(
        plan: &'a MergePlan,
        mode: LoadMode,
        pattern: LoadPattern,
        store: Option<&ObjectStore>,
    ) -> Result<Self> {
        let donor = CheckpointHandle::open(&plan.config_donor, LoadMode::LazyRange)?;
        let groups = groups_for_meta(&donor.config, &donor.zero_meta)?;
        let map = donor.zero_meta.index_map();
        if groups.iter().any(|g| g.unit.is_none()) {
            return Err(TailorError::Plan(format!(
                "{}: only the layer-wise (2L+x) optimizer layout assigns groups to units",
                plan.config_donor.display()
            )));
        }
        let mut links = BTreeMap::new();
        // Requests each side will get: one per key that is not linked.
        let mut left = vec![groups.len(); 1 + plan.world_size];
        left[0] = plan.assignments.len();
        for src in plan.sources.iter().filter(|_| store.is_some()) {
            let manifest = CheckpointHandle::open(src, LoadMode::LazyRange)?.manifest;
            let (refs, fnv) = manifest
                .map(|m| (m.objects.unwrap_or_default(), m.weight_digests))
                .unwrap_or_default();
            let held = |r: &&ObjectRef| {
                let digest = Digest::parse_hex(&r.digest);
                digest.is_ok_and(|d| store.is_some_and(|s| s.contains(&LocalFs, d)))
            };
            for (unit, _) in plan.assignments.iter().filter(|(_, s)| s == src) {
                let key = unit.as_string();
                let fnv: Option<BTreeMap<String, u64>> = unit_param_specs(&plan.config, *unit)
                    .into_iter()
                    .map(|s| fnv.get(&s.name).map(|d| (s.name, *d)))
                    .collect();
                if let (Some(r), Some(fnv)) = (refs.weights.get(&key).filter(held), fnv) {
                    links.insert(key, (r.clone(), fnv));
                    left[0] -= 1;
                }
                for gid in map.groups_for_unit(*unit).unwrap_or_default() {
                    for rank in 0..plan.world_size {
                        let key = CasRefs::optim_key(rank, gid);
                        if let Some(r) = refs.optim.get(&key).filter(held) {
                            links.insert(key, (r.clone(), BTreeMap::new()));
                            left[1 + rank] -= 1;
                        }
                    }
                }
            }
        }
        let sides = left.into_iter().map(|remaining| {
            Mutex::new(Side {
                remaining,
                ..Side::default()
            })
        });
        Ok(MergeSource {
            plan,
            mode,
            pattern,
            donor,
            groups,
            links,
            linked: AtomicUsize::new(0),
            sides: sides.collect(),
        })
    }

    fn source_of(&self, unit: LayerUnit) -> llmt_ckpt::Result<&Path> {
        let assigned = self.plan.assignments.iter().find(|(u, _)| *u == unit);
        let no_source = || CkptError::Incompatible(format!("the plan assigns no source to {unit}"));
        Ok(&assigned.ok_or_else(no_source)?.1)
    }

    /// Read statistics across every handle the merge opened.
    fn io(&self) -> IoStats {
        let mut io = IoStats::default();
        for side in &self.sides {
            let side = side.lock().expect("side poisoned");
            side.handles.values().for_each(|h| io.absorb(&h.stats()));
        }
        io
    }
}

impl StateSource for MergeSource<'_> {
    fn model_config(&self) -> &ModelConfig {
        &self.donor.config
    }

    fn group_specs(&self) -> &[GroupSpec] {
        &self.groups
    }

    fn world_size(&self) -> usize {
        self.plan.world_size
    }

    // Shards pass through rank-for-rank, so the assembled checkpoint
    // keeps the donor's dp×tp topology and shard lengths.
    fn topology(&self) -> Topology {
        self.donor.zero_meta.topology()
    }

    fn tp_shard_lens(&self, gid: usize) -> Option<Vec<usize>> {
        self.donor.zero_meta.groups[gid].tp_shard_lens.clone()
    }

    fn shard_len(&self, gid: usize) -> usize {
        self.donor.zero_meta.groups[gid].shard_len
    }

    fn optimizer_step(&self) -> u64 {
        self.donor.zero_meta.optimizer_step
    }

    fn unit_weight_tensors(&self, unit: LayerUnit) -> llmt_ckpt::Result<Tensors> {
        let src = self.source_of(unit)?;
        let mut side = self.sides[0].lock().expect("side poisoned");
        let tensors = side.handle(src, self.mode)?.unit_weights(unit)?;
        side.served(self.pattern);
        Ok(tensors)
    }

    fn shard_tensors(&self, rank: usize, gid: usize) -> llmt_ckpt::Result<Tensors> {
        let unassignable =
            || CkptError::Incompatible(format!("optimizer group {gid} belongs to no layer unit"));
        let mut side = self.sides[1 + rank].lock().expect("side poisoned");
        if !side.kept.contains_key(&gid) {
            let map = self.donor.zero_meta.index_map();
            let unit = map.unit_for_group(gid).ok_or_else(unassignable)?;
            let src = self.source_of(unit)?;
            for g in map.groups_for_unit(unit).ok_or_else(unassignable)? {
                // A sibling the engine links by reference is never asked for.
                if g == gid || !self.links.contains_key(&CasRefs::optim_key(rank, g)) {
                    let shard = side.handle(src, self.mode)?.group_shard(rank, g)?;
                    side.kept.insert(g, engine::shard_state_tensors(&shard, g));
                }
            }
        }
        let tensors = side.kept.remove(&gid).ok_or_else(unassignable)?;
        side.served(self.pattern);
        Ok(tensors)
    }

    fn stored_object(&self, key: &str) -> Option<(ObjectRef, BTreeMap<String, u64>)> {
        let answer = self.links.get(key).cloned()?;
        self.linked.fetch_add(1, Ordering::Relaxed);
        Some(answer)
    }
}
