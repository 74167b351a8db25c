//! The [`TierManager`]: tier-placement saves, lazy bandwidth-bounded
//! draining down the hierarchy, capacity eviction, read-through
//! restores, and the crash-resumable drain journal.
//!
//! Durability contract (the crash matrix DESIGN.md documents):
//!
//! * A save is *committed* the moment the engine's two-phase commit
//!   completes on the tier that admitted it. If that tier is the memory
//!   tier, the checkpoint is committed-but-volatile until its first
//!   durable drain completes — the DataStates-style bounded-loss window.
//! * The drainer copies a checkpoint's `COMMIT` marker **last**, so a
//!   partially-drained directory on a lower tier is always quarantined
//!   by `scan_run_root` and never trusted for resume.
//! * Drain progress is journaled to `.tier/drain.jsonl` and residency to
//!   `.tier/state.json`; either may be torn by a crash, and open-time
//!   recovery replays the journal idempotently (file copies are
//!   skip-if-length-matches, markers are rewritten, `done` records
//!   re-apply residency).
//! * Memory residency never survives a process crash: open-time recovery
//!   strips the memory tier from every residency set. A checkpoint that
//!   was *only* memory-resident is recorded in `lost_on_crash` — its
//!   partial lower-tier remains (if any) stay quarantined.

use crate::mem::MemStorage;
use crate::sim::{FlakeSpec, ModeledStorage, RebasedStorage};
use llmt_cas::{Digest, ObjectKind, ObjectStore};
use llmt_ckpt::engine::{self, SaveOptions};
use llmt_ckpt::writer::SaveRequest;
use llmt_ckpt::{
    read_seal, restore_checkpoint_with, CheckpointPaths, CheckpointReport, CkptError,
    RestoreRequest, RestoredState,
};
use llmt_obs::{Journal, MetricsRegistry, RunEvent};
use llmt_storage::vfs::{Clock, RetryPolicy, RetryingStorage, Storage, WriteStream};
use llmt_storage::StorageModel;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tier directory under the run root holding manager state.
pub const TIER_DIR: &str = ".tier";
/// Residency/state snapshot, atomically replaced on every change.
pub const STATE_FILE: &str = "state.json";
/// Append-only drain progress journal, replayed on open.
pub const DRAIN_JOURNAL: &str = "drain.jsonl";
/// Backing subtree of the simulated object-store tier.
pub const OBJECT_DIR: &str = "object";

/// A level of the storage hierarchy, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum TierLevel {
    /// Byte-capacity-bounded host memory ([`MemStorage`]). Volatile.
    Mem,
    /// The durable local filesystem tier (whatever `Storage` the run
    /// root lives on — `LocalFs` in production, `FaultyFs` in chaos).
    Fs,
    /// Simulated remote object store: modeled latency/bandwidth,
    /// injectable transient errors, retried access.
    Object,
}

impl TierLevel {
    /// Stable lowercase name (journal/CLI vocabulary).
    pub fn as_str(self) -> &'static str {
        match self {
            TierLevel::Mem => "mem",
            TierLevel::Fs => "fs",
            TierLevel::Object => "object",
        }
    }
}

impl std::fmt::Display for TierLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Object-store tier parameters.
#[derive(Debug, Clone, Copy)]
pub struct ObjectTierConfig {
    /// Latency/bandwidth cost model charged to the manager's clock.
    pub model: StorageModel,
    /// Deterministic transient-error schedule.
    pub flake: FlakeSpec,
    /// Backoff policy for the [`RetryingStorage`] wrapper.
    pub retry: RetryPolicy,
}

impl Default for ObjectTierConfig {
    fn default() -> Self {
        ObjectTierConfig {
            // An S3-class target: high aggregate bandwidth, request
            // latency orders of magnitude above a local fs.
            model: StorageModel {
                write_bw: 1.0e9,
                read_bw: 1.5e9,
                per_file_latency: 30e-3,
            },
            flake: FlakeSpec::none(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Tier hierarchy configuration.
#[derive(Debug, Clone, Copy)]
pub struct TierConfig {
    /// Memory-tier byte capacity; `None` disables the memory tier.
    pub mem_capacity: Option<u64>,
    /// Optional cost model for the memory tier (benchmarks charge DRAM
    /// write time to the clock; `None` makes memory writes free).
    pub mem_model: Option<StorageModel>,
    /// Object-store tier; `None` disables it.
    pub object: Option<ObjectTierConfig>,
    /// Drain copy throttle in bytes/second (the "bandwidth-bounded" part
    /// of lazy draining; charged to the manager's clock per chunk).
    pub drain_bw: f64,
    /// Evict drained memory residents once `used > high_water * capacity`.
    pub evict_high_water: f64,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            mem_capacity: Some(512 << 20),
            mem_model: None,
            object: None,
            drain_bw: 500e6,
            evict_high_water: 0.75,
        }
    }
}

/// One drained (or to-be-drained) checkpoint file, path relative to the
/// run root.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileRec {
    /// Run-root-relative path.
    pub path: String,
    /// File length in bytes.
    pub bytes: u64,
}

/// Where one committed checkpoint currently lives.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Residency {
    /// Total payload bytes of the checkpoint directory.
    pub bytes: u64,
    /// Every file of the checkpoint, commit marker last.
    pub files: Vec<FileRec>,
    /// Tiers holding a complete committed copy.
    pub resident: BTreeSet<TierLevel>,
    /// Tiers still owed a copy, in drain order.
    pub pending: Vec<TierLevel>,
}

/// Persisted manager state (`.tier/state.json`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TierState {
    /// Residency per committed step.
    #[serde(default)]
    pub checkpoints: BTreeMap<u64, Residency>,
    /// Memory-tier capacity at last persist (for offline status views).
    #[serde(default)]
    pub mem_capacity: Option<u64>,
    /// Memory residents evicted after draining, lifetime count.
    #[serde(default)]
    pub evictions: u64,
    /// Bytes copied down the hierarchy, lifetime count.
    #[serde(default)]
    pub drained_bytes: u64,
    /// Steps whose only copy was memory-resident at a crash: committed
    /// then lost — the bounded-loss window the drain exists to close.
    #[serde(default)]
    pub lost_on_crash: Vec<u64>,
}

/// One drain-journal line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "lowercase")]
pub enum DrainRecord {
    /// One file fully copied to `tier`.
    File {
        /// Checkpoint step.
        step: u64,
        /// Destination tier.
        tier: TierLevel,
        /// Run-root-relative path.
        path: String,
        /// Bytes copied.
        bytes: u64,
    },
    /// The whole checkpoint (commit marker included) reached `tier`.
    Done {
        /// Checkpoint step.
        step: u64,
        /// Destination tier.
        tier: TierLevel,
    },
}

/// What one completed drain hop moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Checkpoint step drained.
    pub step: u64,
    /// Tier the copy landed on.
    pub to: TierLevel,
    /// Bytes copied this hop (skip-matched files excluded).
    pub bytes: u64,
    /// Files copied this hop.
    pub files: u64,
}

/// What a tiered save produced.
#[derive(Debug, Clone)]
pub struct TierSaveReport {
    /// The engine's save report.
    pub report: CheckpointReport,
    /// Tier the save durable-committed on (the trainer unblocks here).
    pub placed: TierLevel,
}

/// Offline-readable view of the tier state, for `du`/`report`/`serve`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TierStatus {
    /// Bytes of committed checkpoints resident in memory.
    pub mem_resident_bytes: u64,
    /// Memory-tier capacity, if a memory tier is configured.
    pub mem_capacity: Option<u64>,
    /// Bytes of committed checkpoints resident on the fs tier.
    pub fs_resident_bytes: u64,
    /// Bytes of committed checkpoints resident on the object tier.
    pub object_resident_bytes: u64,
    /// Checkpoint-tier hops still queued for draining.
    pub pending_drains: usize,
    /// Lifetime eviction count.
    pub evictions: u64,
    /// Lifetime bytes drained down the hierarchy.
    pub drained_bytes: u64,
    /// Per-checkpoint residency (step → tiers).
    pub checkpoints: Vec<CheckpointResidency>,
    /// Committed steps lost because their only copy was volatile at a
    /// crash.
    pub lost_on_crash: Vec<u64>,
}

/// One checkpoint's row in [`TierStatus`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointResidency {
    /// Checkpoint step.
    pub step: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Tiers holding a committed copy.
    pub resident: Vec<String>,
    /// Tiers still owed a copy.
    pub pending: Vec<String>,
}

impl TierStatus {
    /// Build the status view from persisted state.
    pub fn from_state(state: &TierState) -> Self {
        let mut s = TierStatus {
            mem_capacity: state.mem_capacity,
            evictions: state.evictions,
            drained_bytes: state.drained_bytes,
            lost_on_crash: state.lost_on_crash.clone(),
            ..TierStatus::default()
        };
        for (step, res) in &state.checkpoints {
            for t in &res.resident {
                match t {
                    TierLevel::Mem => s.mem_resident_bytes += res.bytes,
                    TierLevel::Fs => s.fs_resident_bytes += res.bytes,
                    TierLevel::Object => s.object_resident_bytes += res.bytes,
                }
            }
            s.pending_drains += res.pending.len();
            s.checkpoints.push(CheckpointResidency {
                step: *step,
                bytes: res.bytes,
                resident: res.resident.iter().map(|t| t.as_str().into()).collect(),
                pending: res.pending.iter().map(|t| t.as_str().into()).collect(),
            });
        }
        s
    }
}

/// Read the persisted tier status of a run root, if it has one. Works
/// from any process holding a `Storage` view of the root — this is what
/// `llmtailor du`/`report`/`serve` use; no live manager needed.
pub fn load_status(storage: &dyn Storage, root: &Path) -> io::Result<Option<TierStatus>> {
    let path = root.join(TIER_DIR).join(STATE_FILE);
    if !storage.exists(&path) {
        return Ok(None);
    }
    let bytes = storage.read(&path)?;
    let state: TierState = serde_json::from_slice(&bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("tier state: {e}")))?;
    Ok(Some(TierStatus::from_state(&state)))
}

/// True when `storage` holds the checkpoint's commit marker and every
/// recorded file at its recorded length. Commit markers drain last and
/// checkpoint files are immutable, so this is exactly "the drain hop
/// completed" — recovery uses it to fold in hops the crash interrupted
/// between the last file copy and the state persist.
fn copy_complete(storage: &dyn Storage, root: &Path, step: u64, files: &[FileRec]) -> bool {
    let marker = CheckpointPaths::under(root, step)
        .dir
        .join(llmt_ckpt::layout::COMMIT_FILE);
    storage.exists(&marker)
        && files.iter().all(|f| {
            let p = root.join(&f.path);
            storage.file_len(&p).map(|l| l == f.bytes).unwrap_or(false)
        })
}

/// Composes the tier hierarchy over one run root. See the module docs
/// for the durability contract.
pub struct TierManager {
    root: PathBuf,
    /// Durable base tier. The canonical checkpoint tree lives here.
    fs: Arc<dyn Storage>,
    mem: Option<Arc<MemStorage>>,
    /// Save-facing view of the memory tier (cost-modeled when the
    /// config carries a DRAM model).
    mem_facade: Option<Arc<dyn Storage>>,
    /// Retried, cost-modeled, possibly flaky object tier, rebased onto
    /// `<root>/.tier/object` of the fs storage.
    object: Option<Arc<dyn Storage>>,
    cfg: TierConfig,
    clock: Arc<dyn Clock>,
    metrics: MetricsRegistry,
    journal: Journal,
    state: Mutex<TierState>,
    /// Held across one whole [`Self::persist_state`], so concurrent
    /// persists (a save beside a drain hop) neither share the tmp file
    /// nor land an older snapshot over a newer one.
    persist: Mutex<()>,
}

impl std::fmt::Debug for TierManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierManager")
            .field("root", &self.root)
            .field("mem", &self.mem.is_some())
            .field("object", &self.object.is_some())
            .finish()
    }
}

impl TierManager {
    /// Open (or create) the tier hierarchy over `root` on `fs`,
    /// replaying any crash-interrupted drain journal.
    pub fn open(
        root: &Path,
        fs: Arc<dyn Storage>,
        cfg: TierConfig,
        clock: Arc<dyn Clock>,
        metrics: MetricsRegistry,
    ) -> io::Result<Arc<Self>> {
        let mem = cfg.mem_capacity.map(|cap| Arc::new(MemStorage::new(cap)));
        let mem_facade: Option<Arc<dyn Storage>> = mem.as_ref().map(|m| match cfg.mem_model {
            Some(model) => {
                Arc::new(ModeledStorage::new(m.clone(), model, clock.clone())) as Arc<dyn Storage>
            }
            None => m.clone() as Arc<dyn Storage>,
        });
        let object: Option<Arc<dyn Storage>> = cfg.object.map(|oc| {
            let rebased = RebasedStorage::new(
                fs.clone(),
                root.to_path_buf(),
                root.join(TIER_DIR).join(OBJECT_DIR),
            );
            let modeled = ModeledStorage::with_flake(rebased, oc.model, clock.clone(), oc.flake);
            Arc::new(RetryingStorage::new(modeled, oc.retry, clock.clone())) as Arc<dyn Storage>
        });
        let journal = Journal::for_session(fs.clone(), root, "tier");
        let mgr = TierManager {
            root: root.to_path_buf(),
            fs,
            mem,
            mem_facade,
            object,
            cfg,
            clock,
            metrics,
            journal,
            state: Mutex::new(TierState::default()),
            persist: Mutex::new(()),
        };
        mgr.recover()?;
        Ok(Arc::new(mgr))
    }

    /// The run root this hierarchy serves.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The manager's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Memory-tier bytes currently held (0 without a memory tier).
    pub fn mem_used(&self) -> u64 {
        self.mem.as_ref().map_or(0, |m| m.used_bytes())
    }

    fn state_path(&self) -> PathBuf {
        self.root.join(TIER_DIR).join(STATE_FILE)
    }

    fn drain_journal_path(&self) -> PathBuf {
        self.root.join(TIER_DIR).join(DRAIN_JOURNAL)
    }

    /// Crash recovery: load persisted state, replay the drain journal,
    /// strip volatile residency, record bounded losses.
    fn recover(&self) -> io::Result<()> {
        let state_path = self.state_path();
        let mut state: TierState = if self.fs.exists(&state_path) {
            serde_json::from_slice(&self.fs.read(&state_path)?).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("tier state: {e}"))
            })?
        } else {
            TierState::default()
        };
        state.mem_capacity = self.cfg.mem_capacity;

        // Replay drain `done` records that beat the crash but not the
        // state persist. Torn tails and half-written lines are skipped —
        // the journal only ever *adds* residency the files on disk
        // already prove.
        let jpath = self.drain_journal_path();
        if self.fs.exists(&jpath) {
            let bytes = self.fs.read(&jpath)?;
            for line in bytes.split(|b| *b == b'\n') {
                if line.is_empty() {
                    continue;
                }
                let Ok(rec) = serde_json::from_slice::<DrainRecord>(line) else {
                    continue; // torn tail
                };
                if let DrainRecord::Done { step, tier } = rec {
                    if let Some(res) = state.checkpoints.get_mut(&step) {
                        if res.pending.contains(&tier) {
                            res.pending.retain(|t| *t != tier);
                            res.resident.insert(tier);
                            state.drained_bytes += res.bytes;
                        }
                    }
                }
            }
        }

        // A crash can land after every file of a drain hop (commit
        // marker included) reached the target tier but before the `done`
        // record or state persist made it durable. Probe pending targets
        // for a complete copy — markers drain last and checkpoint files
        // are immutable, so the marker plus full-length files proves the
        // hop finished — and fold it into residency.
        for (step, res) in state.checkpoints.iter_mut() {
            for tier in res.pending.clone() {
                let Some(storage) = self.tier_storage(tier) else {
                    continue;
                };
                if copy_complete(storage.as_ref(), &self.root, *step, &res.files) {
                    res.pending.retain(|t| *t != tier);
                    res.resident.insert(tier);
                    state.drained_bytes += res.bytes;
                }
            }
        }

        // Memory never survives a restart. A checkpoint whose only copy
        // was volatile is gone: committed, then lost inside the bounded
        // window. Its partial lower-tier remains stay quarantined
        // (commit markers drain last), so nothing can resume from them.
        let mut lost = Vec::new();
        for (step, res) in state.checkpoints.iter_mut() {
            res.resident.remove(&TierLevel::Mem);
            if res.resident.is_empty() {
                lost.push(*step);
            }
        }
        for step in &lost {
            let res = state.checkpoints.remove(step).expect("collected above");
            if !state.lost_on_crash.contains(step) {
                state.lost_on_crash.push(*step);
            }
            self.metrics.counter("tier.lost_on_crash").incr();
            // The probe above proved every pending target's copy is
            // incomplete (no committed copy anywhere durable), so the
            // partial drain remains are garbage — reclaim them.
            let dir = CheckpointPaths::under(&self.root, *step).dir;
            for tier in &res.pending {
                if let Some(storage) = self.tier_storage(*tier) {
                    let _ = storage.remove_dir_all(&dir);
                }
            }
        }
        // A step recorded as lost by an *earlier* crash that survives
        // this recovery with a durable copy (re-saved, then drained or
        // probe-completed above) is no longer lost.
        let survivors = &state.checkpoints;
        state.lost_on_crash.retain(|s| !survivors.contains_key(s));
        // A checkpoint that lost its Mem copy also lost Mem as a drain
        // *source*; pending hops now source from the fs tier, which
        // recovery requires to be resident (it is, unless `lost` above).

        *self.state.lock().unwrap() = state;
        self.persist_state()?;
        // The journal is folded into the persisted state; truncate it.
        self.fs.write(&jpath, b"")?;
        Ok(())
    }

    /// Atomically persist `.tier/state.json` (tmp → sync → rename), one
    /// persist at a time: snapshots reach disk in the order they were taken.
    fn persist_state(&self) -> io::Result<()> {
        let _persisting = self
            .persist
            .lock()
            .expect("a persist panicked mid-write; the tmp file may be torn");
        let state = self.state.lock().unwrap().clone();
        let dir = self.root.join(TIER_DIR);
        self.fs.create_dir_all(&dir)?;
        let tmp = dir.join("state.json.tmp");
        let fin = self.state_path();
        let bytes = serde_json::to_vec_pretty(&state)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.fs.write(&tmp, &bytes)?;
        self.fs.sync(&tmp)?;
        // Overwriting rename (the fs tier is POSIX): the previous state
        // snapshot stays intact until the new one is fully durable, so a
        // crash at any point here leaves a readable state file.
        self.fs.rename(&tmp, &fin)?;
        self.fs.sync(&dir)?;
        Ok(())
    }

    /// Current status (live view of the same struct `load_status` reads
    /// offline).
    pub fn status(&self) -> TierStatus {
        TierStatus::from_state(&self.state.lock().unwrap())
    }

    /// Checkpoint-tier hops still queued.
    pub fn pending_drains(&self) -> usize {
        self.state
            .lock()
            .unwrap()
            .checkpoints
            .values()
            .map(|r| r.pending.len())
            .sum()
    }

    /// Save through the tier-placement policy: highest admissible tier
    /// commits (memory first if configured, fs otherwise), lower tiers
    /// are queued for background draining. Returns once the commit is
    /// durable *at the placement tier* — with a memory tier, that is the
    /// trainer's unblock point. Spans and placement counters go to the
    /// manager's registry, not the request's.
    pub fn save(&self, req: &SaveRequest, opts: &SaveOptions) -> llmt_ckpt::Result<TierSaveReport> {
        let dir = CheckpointPaths::under(&self.root, req.step).dir;
        if req.dir != dir {
            return Err(CkptError::Incompatible(format!(
                "TierManager::save: request destination {} is not the manager's {}",
                req.dir.display(),
                dir.display()
            )));
        }
        let mut placements: Vec<&dyn Storage> = Vec::new();
        let mut levels: Vec<TierLevel> = Vec::new();
        if let Some(m) = &self.mem_facade {
            placements.push(&**m);
            levels.push(TierLevel::Mem);
        }
        placements.push(&*self.fs);
        levels.push(TierLevel::Fs);

        let req = SaveRequest {
            metrics: &self.metrics,
            ..*req
        };
        let placed = engine::save(&placements, &req, opts)?;
        let level = levels[placed.placement];
        self.metrics
            .counter(&format!("tier.place.{}", level.as_str()))
            .incr();

        // Enumerate the committed directory on the tier that holds it,
        // commit marker last — the drain copies in this exact order.
        let placement_storage: &dyn Storage = placements[placed.placement];
        let mut files = self
            .collect_files(placement_storage, req.step)
            .map_err(|e| CkptError::Io(dir.clone(), e))?;
        self.append_object_chains(placement_storage, req.step, &mut files)
            .map_err(|e| CkptError::Io(dir.clone(), e))?;
        let bytes: u64 = files.iter().map(|f| f.bytes).sum();

        let mut pending = Vec::new();
        if level == TierLevel::Mem {
            pending.push(TierLevel::Fs);
        }
        if self.object.is_some() {
            pending.push(TierLevel::Object);
        }
        {
            let mut st = self.state.lock().unwrap();
            st.checkpoints.insert(
                req.step,
                Residency {
                    bytes,
                    files,
                    resident: BTreeSet::from([level]),
                    pending,
                },
            );
            // A step recorded as crash-lost that is re-saved durably is
            // no longer lost; a memory placement stays on the books
            // until its first durable drain lands.
            if level != TierLevel::Mem {
                st.lost_on_crash.retain(|s| *s != req.step);
            }
        }
        self.persist_state()
            .map_err(|e| CkptError::Io(self.state_path(), e))?;
        let mut ev = RunEvent::new("place", req.step);
        ev.bytes = bytes;
        ev.tier = Some(level.as_str().into());
        let _ = self.journal.append(&ev);
        Ok(TierSaveReport {
            report: placed.report,
            placed: level,
        })
    }

    /// The files of `checkpoint-<step>` as run-root-relative drain
    /// records, commit marker last.
    fn collect_files(&self, storage: &dyn Storage, step: u64) -> io::Result<Vec<FileRec>> {
        let mut files = Vec::new();
        for (path, bytes) in CheckpointPaths::under(&self.root, step).files_on(storage)? {
            let rel = path.strip_prefix(&self.root).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{} outside run root", path.display()),
                )
            })?;
            files.push(FileRec {
                path: rel.to_string_lossy().into_owned(),
                bytes,
            });
        }
        // Commit marker strictly last: a crashed drain must never leave
        // a marker ahead of the payload it vouches for.
        files.sort_by_key(|f| f.path.ends_with(llmt_ckpt::layout::COMMIT_FILE));
        Ok(files)
    }

    /// Encoded checkpoint links decode through the object store at
    /// restore time (`objects/<hh>/<hex>.obj`, the tip plus every delta
    /// base under it), so a drained copy must carry those store files
    /// too — otherwise the destination tier holds payload it cannot
    /// materialize. Raw links need nothing: their bytes are already in
    /// the checkpoint directory. Re-sorts so the commit marker stays
    /// strictly last in the copy order.
    fn append_object_chains(
        &self,
        storage: &dyn Storage,
        step: u64,
        files: &mut Vec<FileRec>,
    ) -> io::Result<()> {
        // A run redirected into a shared store (CASROOT) keeps its
        // objects outside the run root; the drain only mirrors the run
        // root, so there is nothing tier-local to carry.
        if llmt_cas::is_redirected(storage, &self.root) {
            return Ok(());
        }
        let store = ObjectStore::for_run_root(&self.root);
        let paths = CheckpointPaths::under(&self.root, step);
        let manifest = match read_seal(storage, &paths).manifest {
            Ok(manifest) => manifest,
            Err(CkptError::Io(..)) => return Ok(()), // pre-manifest save
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
        };
        let Some(refs) = manifest.objects else {
            return Ok(());
        };
        let mut chain: BTreeSet<Digest> = BTreeSet::new();
        for (_, object) in refs.iter_all() {
            let Ok(mut cur) = Digest::parse_hex(&object.digest) else {
                continue;
            };
            // A missing object ends the walk: the store is
            // authoritative at restore time.
            while let Ok(info) = store.object_info(storage, cur) {
                match info.kind {
                    // Raw objects restore straight from the link.
                    ObjectKind::LegacyRaw => break,
                    ObjectKind::Full { .. } => {
                        chain.insert(cur);
                        break;
                    }
                    ObjectKind::Delta { base, .. } => {
                        if !chain.insert(cur) {
                            break; // shared tail already walked
                        }
                        cur = base;
                    }
                }
            }
        }
        for digest in chain {
            let path = store.object_path(digest);
            let bytes = storage.file_len(&path)?;
            let rel = path
                .strip_prefix(&self.root)
                .map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("{} outside run root", path.display()),
                    )
                })?
                .to_string_lossy()
                .into_owned();
            files.push(FileRec { path: rel, bytes });
        }
        files.sort_by_key(|f| f.path.ends_with(llmt_ckpt::layout::COMMIT_FILE));
        Ok(())
    }

    fn tier_storage(&self, level: TierLevel) -> Option<Arc<dyn Storage>> {
        match level {
            TierLevel::Mem => self.mem.as_ref().map(|m| m.clone() as Arc<dyn Storage>),
            TierLevel::Fs => Some(self.fs.clone()),
            TierLevel::Object => self.object.clone(),
        }
    }

    /// Run one drain hop: the oldest checkpoint owing a copy moves one
    /// tier down its pending list. Returns `Ok(None)` when the queue is
    /// empty. Bandwidth-bounded: every copied chunk charges
    /// `chunk / drain_bw` to the manager's clock on top of the
    /// destination tier's own cost model.
    pub fn drain_step(&self) -> io::Result<Option<DrainReport>> {
        let (step, target, files) = {
            let st = self.state.lock().unwrap();
            let Some((step, res)) = st
                .checkpoints
                .iter()
                .find(|(_, r)| !r.pending.is_empty())
                .map(|(s, r)| (*s, r.clone()))
            else {
                return Ok(None);
            };
            (step, res.pending[0], res.files)
        };
        let source = {
            let st = self.state.lock().unwrap();
            let res = &st.checkpoints[&step];
            // Prefer the fastest resident copy as the source.
            *res.resident.iter().next().expect("committed => resident")
        };
        let src = self
            .tier_storage(source)
            .ok_or_else(|| io::Error::other(format!("source tier {source} not configured")))?;
        let dst = self
            .tier_storage(target)
            .ok_or_else(|| io::Error::other(format!("target tier {target} not configured")))?;

        let mut copied_bytes = 0u64;
        let mut copied_files = 0u64;
        let chunk = 256 * 1024usize;
        for f in &files {
            let abs = self.root.join(&f.path);
            // Resume-safe skip: checkpoint files are written once and
            // never mutated, so a length match means the copy landed.
            if dst.exists(&abs) && dst.file_len(&abs).ok() == Some(f.bytes) {
                continue;
            }
            if let Some(parent) = abs.parent() {
                dst.create_dir_all(parent)?;
            }
            // The commit marker is the one file whose mere presence
            // changes restore semantics, so it must appear atomically:
            // stage it under a tmp name and rename into place. Ordinary
            // payload files may land torn — without a marker the dir is
            // quarantined, and resume recopies on length mismatch.
            let is_commit = f.path.ends_with(llmt_ckpt::layout::COMMIT_FILE);
            let write_path = if is_commit {
                abs.with_extension("drain-tmp")
            } else {
                abs.clone()
            };
            let data = src.read(&abs)?;
            let mut stream = dst.create_stream(&write_path)?;
            for piece in data.chunks(chunk.max(1)) {
                stream.write_chunk(piece)?;
                if self.cfg.drain_bw > 0.0 {
                    self.clock.sleep(Duration::from_secs_f64(
                        piece.len() as f64 / self.cfg.drain_bw,
                    ));
                }
            }
            stream.finish()?;
            drop(stream);
            if is_commit {
                dst.sync(&write_path)?;
                dst.rename(&write_path, &abs)?;
            }
            copied_bytes += f.bytes;
            copied_files += 1;
            let rec = DrainRecord::File {
                step,
                tier: target,
                path: f.path.clone(),
                bytes: f.bytes,
            };
            self.append_drain_record(&rec)?;
        }
        self.append_drain_record(&DrainRecord::Done { step, tier: target })?;

        let total_bytes = {
            let mut st = self.state.lock().unwrap();
            let res = st.checkpoints.get_mut(&step).expect("still tracked");
            res.pending.retain(|t| *t != target);
            res.resident.insert(target);
            let b = res.bytes;
            st.drained_bytes += b;
            // The step now has a durable copy; a loss recorded for it by
            // an earlier crash is stale.
            if target != TierLevel::Mem {
                st.lost_on_crash.retain(|s| *s != step);
            }
            b
        };
        self.persist_state()?;
        // State now supersedes the journal; truncating bounds replay.
        self.fs.write(&self.drain_journal_path(), b"")?;

        self.metrics.counter("tier.drain.count").incr();
        self.metrics.counter("tier.drain.bytes").add(copied_bytes);
        self.metrics
            .counter(&format!("tier.drain.to.{}", target.as_str()))
            .incr();
        let mut ev = RunEvent::new("drain", step);
        ev.bytes = total_bytes;
        ev.physical_bytes = copied_bytes;
        ev.files = copied_files;
        ev.tier = Some(target.as_str().into());
        let _ = self.journal.append(&ev);

        self.maybe_evict()?;
        Ok(Some(DrainReport {
            step,
            to: target,
            bytes: copied_bytes,
            files: copied_files,
        }))
    }

    /// Drain until the queue is empty.
    pub fn drain_all(&self) -> io::Result<Vec<DrainReport>> {
        let mut out = Vec::new();
        while let Some(r) = self.drain_step()? {
            out.push(r);
        }
        Ok(out)
    }

    fn append_drain_record(&self, rec: &DrainRecord) -> io::Result<()> {
        let mut line = serde_json::to_vec(rec)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        line.push(b'\n');
        self.fs.append(&self.drain_journal_path(), &line)
    }

    /// Write-back eviction: once memory use crosses the high-water mark,
    /// drop the oldest residents that already have a durable fs copy.
    fn maybe_evict(&self) -> io::Result<()> {
        let Some(mem) = &self.mem else { return Ok(()) };
        let cap = mem.capacity() as f64;
        loop {
            if (mem.used_bytes() as f64) <= self.cfg.evict_high_water * cap {
                return Ok(());
            }
            let victim = {
                let st = self.state.lock().unwrap();
                st.checkpoints
                    .iter()
                    .find(|(_, r)| {
                        r.resident.contains(&TierLevel::Mem) && r.resident.contains(&TierLevel::Fs)
                    })
                    .map(|(s, _)| *s)
            };
            let Some(step) = victim else { return Ok(()) };
            let dir = CheckpointPaths::under(&self.root, step).dir;
            mem.remove_dir_all(&dir)?;
            let freed = {
                let mut st = self.state.lock().unwrap();
                let freed = st.checkpoints.get(&step).map_or(0, |r| r.bytes);
                if let Some(res) = st.checkpoints.get_mut(&step) {
                    res.resident.remove(&TierLevel::Mem);
                }
                st.evictions += 1;
                freed
            };
            self.persist_state()?;
            self.metrics.counter("tier.evict.count").incr();
            self.metrics.counter("tier.evict.bytes").add(freed);
            let mut ev = RunEvent::new("evict", step);
            ev.bytes = freed;
            ev.tier = Some(TierLevel::Mem.as_str().into());
            let _ = self.journal.append(&ev);
        }
    }

    /// Read-through storage over the hierarchy: nearest tier wins, a
    /// lower-tier hit is promoted into memory.
    pub fn reader(&self) -> TieredReadStorage {
        let mut tiers = Vec::new();
        if let Some(m) = &self.mem {
            tiers.push((TierLevel::Mem, m.clone() as Arc<dyn Storage>));
        }
        tiers.push((TierLevel::Fs, self.fs.clone()));
        if let Some(o) = &self.object {
            tiers.push((TierLevel::Object, o.clone()));
        }
        TieredReadStorage {
            tiers,
            mem: self.mem.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// Restore `step` through the read-through hierarchy.
    pub fn restore(&self, step: u64, req: &RestoreRequest) -> llmt_ckpt::Result<RestoredState> {
        let dir = CheckpointPaths::under(&self.root, step).dir;
        restore_checkpoint_with(Arc::new(self.reader()), &dir, req, &self.metrics)
    }

    /// Restore `step` from exactly one tier (bit-exactness proofs in the
    /// chaos suite restore from every resident tier independently).
    pub fn restore_from(
        &self,
        level: TierLevel,
        step: u64,
        req: &RestoreRequest,
    ) -> llmt_ckpt::Result<RestoredState> {
        let dir = CheckpointPaths::under(&self.root, step).dir;
        let storage = self
            .tier_storage(level)
            .ok_or_else(|| CkptError::Missing(format!("tier {level} not configured")))?;
        restore_checkpoint_with(storage, &dir, req, &self.metrics)
    }
}

/// Read-through composite [`Storage`]: reads hit the nearest tier
/// holding the path and promote lower-tier hits into the memory tier
/// (whole files, atomically — a partial promote could serve torn
/// bytes). Writes go to the durable fs tier.
pub struct TieredReadStorage {
    tiers: Vec<(TierLevel, Arc<dyn Storage>)>,
    mem: Option<Arc<MemStorage>>,
    metrics: MetricsRegistry,
}

impl std::fmt::Debug for TieredReadStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredReadStorage")
            .field(
                "tiers",
                &self.tiers.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl TieredReadStorage {
    fn fs(&self) -> &Arc<dyn Storage> {
        self.tiers
            .iter()
            .find(|(l, _)| *l == TierLevel::Fs)
            .map(|(_, s)| s)
            .expect("fs tier always present")
    }

    fn hit(&self, path: &Path) -> Option<(TierLevel, &Arc<dyn Storage>)> {
        self.tiers
            .iter()
            .find(|(_, s)| s.exists(path))
            .map(|(l, s)| (*l, s))
    }

    /// Promote whole-file `bytes` into the memory tier, best-effort: an
    /// over-capacity memory tier simply keeps serving from below.
    fn promote(&self, path: &Path, bytes: &[u8], from: TierLevel) {
        if from == TierLevel::Mem {
            return;
        }
        if let Some(mem) = &self.mem {
            if mem.write(path, bytes).is_ok() {
                self.metrics.counter("tier.promote.count").incr();
                self.metrics
                    .counter("tier.promote.bytes")
                    .add(bytes.len() as u64);
            }
        }
    }
}

impl Storage for TieredReadStorage {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.fs().create_dir_all(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.fs().write(path, bytes)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.fs().sync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.fs().rename(from, to)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let Some((level, s)) = self.hit(path) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no tier holds {}", path.display()),
            ));
        };
        self.metrics
            .counter(&format!("tier.read.hit.{}", level.as_str()))
            .incr();
        let bytes = s.read(path)?;
        self.promote(path, &bytes, level);
        Ok(bytes)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        // Memory hits serve the slice directly; lower-tier hits promote
        // the whole file once instead of paying per-chunk latency on a
        // chunked restore (O(files) remote reads, not O(chunks)).
        if let Some(mem) = &self.mem {
            if mem.exists(path) {
                self.metrics.counter("tier.read.hit.mem").incr();
                return mem.read_range(path, offset, len);
            }
        }
        let Some((level, s)) = self.hit(path) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no tier holds {}", path.display()),
            ));
        };
        self.metrics
            .counter(&format!("tier.read.hit.{}", level.as_str()))
            .incr();
        if let Some(mem) = &self.mem {
            let bytes = s.read(path)?;
            self.promote(path, &bytes, level);
            if mem.exists(path) {
                return mem.read_range(path, offset, len);
            }
            // Promote refused (capacity): serve from the fetched buffer.
            if let Some(e) = llmt_storage::range_past_eof(path, offset, len, bytes.len() as u64) {
                return Err(e);
            }
            let start = offset as usize;
            return Ok(bytes[start..start + len].to_vec());
        }
        s.read_range(path, offset, len)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut seen = BTreeSet::new();
        let mut any = false;
        for (_, s) in &self.tiers {
            if let Ok(entries) = s.list_dir(path) {
                any = true;
                seen.extend(entries);
            }
        }
        if any {
            Ok(seen.into_iter().collect())
        } else {
            Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no tier holds dir {}", path.display()),
            ))
        }
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.fs().remove_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.tiers.iter().any(|(_, s)| s.exists(path))
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        match self.hit(path) {
            Some((_, s)) => s.file_len(path),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no tier holds {}", path.display()),
            )),
        }
    }

    fn hard_link(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.fs().hard_link(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.fs().remove_file(path)
    }

    fn create_stream<'a>(&'a self, path: &Path) -> io::Result<Box<dyn WriteStream + 'a>> {
        self.fs().create_stream(path)
    }

    fn mtime(&self, path: &Path) -> io::Result<std::time::SystemTime> {
        match self.hit(path) {
            Some((_, s)) => s.mtime(path),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no tier holds {}", path.display()),
            )),
        }
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.fs().append(path, bytes)
    }
}

/// Handle to a background drain thread. Dropping it (or calling
/// [`DrainerHandle::stop`]) stops the loop and joins the thread.
pub struct DrainerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl DrainerHandle {
    /// Signal the drain loop to stop and join it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for DrainerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawn a background drainer: a thread that runs [`TierManager::drain_step`]
/// whenever work is queued and idles on `poll` otherwise. The poll sleep
/// is a *real* sleep (independent of the manager's injected clock), so a
/// manual-clock manager still drains in the background.
pub fn spawn_drainer(mgr: Arc<TierManager>, poll: Duration) -> DrainerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let thread = std::thread::spawn(move || {
        while !stop2.load(Ordering::SeqCst) {
            match mgr.drain_step() {
                Ok(Some(_)) => {} // keep going while there's work
                Ok(None) => std::thread::sleep(poll),
                Err(_) => std::thread::sleep(poll),
            }
        }
    });
    DrainerHandle {
        stop,
        thread: Some(thread),
    }
}
