//! The store coordinator: one shared CAS root, many concurrent runs.
//!
//! [`Coordinator::open`] owns a shared root laid out as
//!
//! ```text
//! <root>/objects/            the shared content-addressed store
//! <root>/runs/<run_id>/      per-run roots (checkpoints, journals),
//!                            each carrying a CASROOT redirect to <root>
//! <root>/events.jsonl        the collector's GC journal
//! ```
//!
//! and hands out per-run **sessions**:
//!
//! * [`PublisherSession`] — admitted through a bounded permit budget
//!   (save slots + bytes in flight), saves dedup checkpoints whose
//!   objects land in the shared store, and records published digests in
//!   the epoch ledger. Every object it `put`s is pinned on the
//!   coordinator's pin board until a census has seen its committed
//!   manifest, which closes the swept-live-object race exactly (the
//!   store's mtime guard is only the best-effort backstop for
//!   uncoordinated actors).
//! * [`ReaderSession`] — pins the store epoch it begins at; until the
//!   session drops, no collector deletes an object that was reachable at
//!   that epoch.
//! * [`CollectorSession`] — runs publisher-safe two-phase GC:
//!   mark → drain readers (clock-injected timeout) → sweep. On drain
//!   timeout it **forces progress without disrupting active readers**:
//!   the sweep proceeds, but every retired object still reachable from an
//!   active reader's epoch stays on disk (copy-on-write-style — the old
//!   version survives until its last reader ends; the next pass reclaims
//!   it).
//!
//! All storage goes through the [`Storage`] trait and all waiting through
//! the [`Clock`] trait, so the whole coordination protocol is
//! deterministically testable under fault injection (see `tests/chaos.rs`).
//!
//! # Cross-process model
//!
//! The *exact* protections (pin board, epoch ledger, admission) live in
//! this process's memory: publishers and readers of one store should go
//! through one coordinator process. Actors in other processes are still
//! protected, by two on-disk mechanisms:
//!
//! * every `put` — dedup hits included — re-dates its object
//!   ([`Storage::touch`]), so any collector's mtime mark guard refuses to
//!   sweep objects referenced since its census began, whichever process
//!   the reference came from;
//! * collectors exclude each other across processes through the
//!   [`GC_LOCK_FILE`] advisory lock, so two `llmtailor serve --gc`
//!   invocations can never sweep concurrently.
//!
//! What cross-process operation does **not** get is reader pinning: a
//! reader in another process is invisible to this collector's drain, so
//! long cross-process reads of *retired* checkpoints race directory
//! reclamation. Run readers through the owning coordinator process (or
//! only read live checkpoints) when sharing a store between processes.

use crate::error::{io_err, CoordError, CoordResult};
use crate::ledger::{EpochLedger, ReaderTicket};
use llmt_cas::{Digest, ObjectStore, PutObserver, PutOutcome, SweepMark, SweepReport};
use llmt_ckpt::engine::{self, SaveOptions};
use llmt_ckpt::writer::{CheckpointReport, SaveRequest};
use llmt_ckpt::{
    census_run_roots, read_seal, scan_run_root_on, Census, CheckpointPaths, VerifyReport,
};
use llmt_obs::{MetricsRegistry, RunEvent};
use llmt_storage::vfs::{Clock, LocalFs, RetryPolicy, Storage, SystemClock};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Subdirectory of the shared root holding per-run roots.
pub const RUNS_DIR: &str = "runs";

/// Cross-process collector lock file under the shared root. The in-memory
/// `collector_active` flag only guards sessions of *one* coordinator
/// process; this advisory file makes two `llmtailor serve --gc`
/// invocations on the same store exclude each other too. Held for the
/// lifetime of a [`CollectorSession`]; a collector that dies without
/// dropping its session leaves the file behind, which
/// [`Coordinator::break_collector_lock`] (CLI: `serve --break-gc-lock`)
/// clears.
pub const GC_LOCK_FILE: &str = "gc.lock";

/// Distinguishes concurrent lock attempts staging their tmp lock files.
static LOCK_NONCE: AtomicU64 = AtomicU64::new(0);

/// Tuning knobs for a coordinator.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Concurrent publisher sessions admitted at once.
    pub save_slots: usize,
    /// Ceiling on declared bytes in flight across admitted publishers.
    /// A single save larger than the ceiling is admitted alone (clamped),
    /// never deadlocked.
    pub max_inflight_bytes: u64,
    /// How long a collector waits for readers to drain before forcing
    /// progress. Elapses through the injected [`Clock`], so tests with a
    /// `ManualClock` time out deterministically without wall-sleeping.
    pub drain_timeout: Duration,
}

impl Default for CoordConfig {
    fn default() -> Self {
        CoordConfig {
            save_slots: 2,
            max_inflight_bytes: 256 * 1024 * 1024,
            drain_timeout: Duration::from_secs(2),
        }
    }
}

/// Digests `put` into the shared store since the last completed census.
/// Installed as the store's [`PutObserver`], so *every* placement — hits
/// and misses alike — pins its object against the next sweep until a
/// census has seen the committed manifest referencing it. This is the
/// exact fix for the swept-live-object race: an object placed after a
/// census began cannot be deleted by the sweep that used that census.
#[derive(Debug, Default)]
struct PinBoard {
    pins: Mutex<BTreeSet<Digest>>,
}

impl PinBoard {
    fn snapshot(&self) -> BTreeSet<Digest> {
        self.pins.lock().expect("coord pin lock").clone()
    }

    /// Whether `digest` is currently pinned. The sweep consults this per
    /// object *at deletion time*, so a pin that lands after the keep-set
    /// snapshot (a dedup hit racing the sweep) still saves its object.
    fn contains(&self, digest: Digest) -> bool {
        self.pins.lock().expect("coord pin lock").contains(&digest)
    }

    /// Drop pins that `census` now protects; keep in-flight ones.
    fn release_censused(&self, census: &BTreeSet<Digest>) {
        self.pins
            .lock()
            .expect("coord pin lock")
            .retain(|d| !census.contains(d));
    }
}

impl PutObserver for PinBoard {
    fn on_put(&self, outcome: &PutOutcome) {
        self.pins
            .lock()
            .expect("coord pin lock")
            .insert(outcome.digest);
    }
}

/// Bounded admission: save slots plus a bytes-in-flight budget behind a
/// condvar. Publishers beyond the budget queue here; the wait is
/// telemetry-visible as the `coord.admission.wait` span.
#[derive(Debug)]
struct Admission {
    state: Mutex<AdmissionState>,
    cv: Condvar,
}

#[derive(Debug)]
struct AdmissionState {
    slots_free: usize,
    bytes_free: u64,
}

impl Admission {
    fn new(config: &CoordConfig) -> Self {
        Admission {
            state: Mutex::new(AdmissionState {
                slots_free: config.save_slots.max(1),
                bytes_free: config.max_inflight_bytes.max(1),
            }),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self, bytes: u64, max_bytes: u64, metrics: &MetricsRegistry) -> u64 {
        // A request larger than the whole budget is clamped so it can be
        // admitted alone instead of waiting forever.
        let bytes = bytes.min(max_bytes.max(1));
        let wait = metrics.span("coord.admission.wait");
        let mut st = self.state.lock().expect("coord admission lock");
        while st.slots_free == 0 || st.bytes_free < bytes {
            st = self.cv.wait(st).expect("coord admission wait");
        }
        st.slots_free -= 1;
        st.bytes_free -= bytes;
        drop(st);
        wait.finish();
        metrics.gauge("coord.inflight_bytes").add(bytes);
        bytes
    }

    fn try_acquire(&self, bytes: u64, max_bytes: u64, metrics: &MetricsRegistry) -> Option<u64> {
        let bytes = bytes.min(max_bytes.max(1));
        let mut st = self.state.lock().expect("coord admission lock");
        if st.slots_free == 0 || st.bytes_free < bytes {
            return None;
        }
        st.slots_free -= 1;
        st.bytes_free -= bytes;
        drop(st);
        metrics.gauge("coord.inflight_bytes").add(bytes);
        Some(bytes)
    }

    fn release(&self, bytes: u64, metrics: &MetricsRegistry) {
        let mut st = self.state.lock().expect("coord admission lock");
        st.slots_free += 1;
        st.bytes_free += bytes;
        drop(st);
        metrics.gauge("coord.inflight_bytes").sub(bytes);
        self.cv.notify_all();
    }
}

/// A checkpoint withdrawn from service but left on disk until no reader
/// can still reach it.
#[derive(Debug, Clone)]
struct RetiredCheckpoint {
    dir: PathBuf,
    digests: BTreeSet<Digest>,
    retire_epoch: u64,
}

struct Shared {
    storage: Arc<dyn Storage>,
    clock: Arc<dyn Clock>,
    root: PathBuf,
    config: CoordConfig,
    metrics: MetricsRegistry,
    ledger: Mutex<EpochLedger>,
    pins: Arc<PinBoard>,
    admission: Admission,
    retired: Mutex<Vec<RetiredCheckpoint>>,
    collector_active: AtomicBool,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("root", &self.root)
            .field("config", &self.config)
            .finish()
    }
}

/// What one collector pass did.
#[derive(Debug, Clone, Default)]
pub struct CollectReport {
    /// Store epoch at which the mark was taken.
    pub mark_epoch: u64,
    /// Whether the reader drain completed (`false` = forced progress).
    pub drained: bool,
    /// Readers still active when the sweep proceeded.
    pub readers_at_sweep: usize,
    /// Retired checkpoint directories physically removed this pass.
    pub retired_removed: usize,
    /// Retired objects kept because an active reader can still reach
    /// them (forced progress leaves these for the next pass).
    pub reader_pinned_objects: usize,
    /// Distinct digests the census found live.
    pub live_digests: usize,
    /// The store-level sweep outcome.
    pub sweep: SweepReport,
}

/// The store coordinator. Cheap to clone (shared state behind an `Arc`);
/// sessions borrow nothing, so they can move across threads.
#[derive(Debug, Clone)]
pub struct Coordinator {
    shared: Arc<Shared>,
}

impl Coordinator {
    /// Open (creating if necessary) a shared store root on the local
    /// filesystem with default tuning and a real clock.
    pub fn open(root: &Path) -> CoordResult<Coordinator> {
        Self::open_on(
            Arc::new(LocalFs),
            root,
            CoordConfig::default(),
            Arc::new(SystemClock),
        )
    }

    /// Open a coordinator on an explicit storage stack and clock — the
    /// chaos harness passes a fault-injecting storage and a
    /// [`ManualClock`](llmt_storage::vfs::ManualClock) here so every
    /// wait and every fault is deterministic.
    pub fn open_on(
        storage: Arc<dyn Storage>,
        root: &Path,
        config: CoordConfig,
        clock: Arc<dyn Clock>,
    ) -> CoordResult<Coordinator> {
        storage
            .create_dir_all(&root.join(RUNS_DIR))
            .map_err(io_err(root.join(RUNS_DIR)))?;
        let admission = Admission::new(&config);
        Ok(Coordinator {
            shared: Arc::new(Shared {
                storage,
                clock,
                root: root.to_path_buf(),
                config,
                metrics: MetricsRegistry::new(),
                ledger: Mutex::new(EpochLedger::new()),
                pins: Arc::new(PinBoard::default()),
                admission,
                retired: Mutex::new(Vec::new()),
                collector_active: AtomicBool::new(false),
            }),
        })
    }

    /// The shared root.
    pub fn root(&self) -> &Path {
        &self.shared.root
    }

    /// The coordinator's metrics registry (admission waits, in-flight
    /// bytes, session counters).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// Current store epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.ledger.lock().expect("coord ledger").epoch()
    }

    /// Active reader sessions.
    pub fn active_readers(&self) -> usize {
        self.shared
            .ledger
            .lock()
            .expect("coord ledger")
            .active_readers()
    }

    /// The per-run root for `run_id` (`<root>/runs/<run_id>`).
    pub fn run_root(&self, run_id: &str) -> PathBuf {
        self.shared.root.join(RUNS_DIR).join(run_id)
    }

    /// Handle on the shared object store: metrics-wired, observer-pinned,
    /// and retrying transient read faults with the injected clock.
    pub fn store(&self) -> ObjectStore {
        ObjectStore::for_run_root(&self.shared.root)
            .with_metrics(&self.shared.metrics)
            .with_observer(self.shared.pins.clone() as Arc<dyn PutObserver>)
            .with_read_retry(RetryPolicy::default(), self.shared.clock.clone())
    }

    /// Create (idempotently) the run root for `run_id` and redirect its
    /// object store to the shared root, so *any* dedup save into it —
    /// through a session or through the plain engine — places objects in
    /// the shared store.
    pub fn attach_run(&self, run_id: &str) -> CoordResult<PathBuf> {
        validate_run_id(run_id)?;
        let run_root = self.run_root(run_id);
        self.shared
            .storage
            .create_dir_all(&run_root)
            .map_err(io_err(&run_root))?;
        llmt_cas::write_redirect(&*self.shared.storage, &run_root, &self.shared.root)
            .map_err(io_err(&run_root))?;
        Ok(run_root)
    }

    /// Run ids currently attached (subdirectories of `<root>/runs`).
    pub fn attached_runs(&self) -> CoordResult<Vec<String>> {
        let runs = self.shared.root.join(RUNS_DIR);
        let entries = self.shared.storage.list_dir(&runs).map_err(io_err(&runs))?;
        let mut ids: Vec<String> = entries
            .iter()
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(String::from))
            .collect();
        ids.sort();
        Ok(ids)
    }

    /// Tier residency/drain status per attached run, for runs using a
    /// tiered checkpoint store (`llmt-tier`). Runs without a persisted
    /// tier state are skipped; a corrupt state file is an error.
    pub fn drain_status(&self) -> CoordResult<Vec<(String, llmt_tier::TierStatus)>> {
        let mut out = Vec::new();
        for run_id in self.attached_runs()? {
            let run_root = self.run_root(&run_id);
            if let Some(status) = llmt_tier::load_status(&*self.shared.storage, &run_root)
                .map_err(io_err(&run_root))?
            {
                out.push((run_id, status));
            }
        }
        Ok(out)
    }

    /// Admit a publisher for `run_id`, blocking until a save slot and
    /// `declared_bytes` of budget are free. The wait is recorded as the
    /// `coord.admission.wait` span.
    pub fn publisher(&self, run_id: &str, declared_bytes: u64) -> CoordResult<PublisherSession> {
        let run_root = self.attach_run(run_id)?;
        let granted = self.shared.admission.acquire(
            declared_bytes,
            self.shared.config.max_inflight_bytes,
            &self.shared.metrics,
        );
        self.shared
            .metrics
            .counter("coord.sessions.publisher")
            .incr();
        Ok(PublisherSession {
            shared: self.shared.clone(),
            run_root,
            granted_bytes: granted,
        })
    }

    /// Non-blocking [`Coordinator::publisher`]: `Busy` when the permit
    /// budget is exhausted.
    pub fn try_publisher(
        &self,
        run_id: &str,
        declared_bytes: u64,
    ) -> CoordResult<PublisherSession> {
        let run_root = self.attach_run(run_id)?;
        match self.shared.admission.try_acquire(
            declared_bytes,
            self.shared.config.max_inflight_bytes,
            &self.shared.metrics,
        ) {
            Some(granted) => {
                self.shared
                    .metrics
                    .counter("coord.sessions.publisher")
                    .incr();
                Ok(PublisherSession {
                    shared: self.shared.clone(),
                    run_root,
                    granted_bytes: granted,
                })
            }
            None => Err(CoordError::Busy(format!(
                "no free save slot or byte budget for {declared_bytes} declared bytes"
            ))),
        }
    }

    /// Begin a reader session, pinning the current store epoch: until the
    /// session drops, no collector deletes an object reachable at this
    /// epoch.
    pub fn reader(&self) -> ReaderSession {
        let ticket = self
            .shared
            .ledger
            .lock()
            .expect("coord ledger")
            .begin_read();
        self.shared.metrics.counter("coord.sessions.reader").incr();
        ReaderSession {
            shared: self.shared.clone(),
            ticket,
        }
    }

    /// Begin a collector session. Only one collector may be active at a
    /// time — across processes, not just within this coordinator: a
    /// cross-process advisory lock file ([`GC_LOCK_FILE`]) on the shared
    /// root backs the in-memory singleton. A second concurrent request
    /// gets `Busy`, never a deadlock.
    pub fn collector(&self) -> CoordResult<CollectorSession> {
        if self.shared.collector_active.swap(true, Ordering::SeqCst) {
            return Err(CoordError::Busy("another collector is active".into()));
        }
        if let Err(e) = self.acquire_collector_lock() {
            self.shared.collector_active.store(false, Ordering::SeqCst);
            return Err(e);
        }
        self.shared
            .metrics
            .counter("coord.sessions.collector")
            .incr();
        Ok(CollectorSession {
            shared: self.shared.clone(),
        })
    }

    /// Take the cross-process collector lock: stage a unique tmp file,
    /// then hard-link it to [`GC_LOCK_FILE`] — link creation is atomic
    /// and fails with `AlreadyExists` when another process holds the
    /// lock, so there is no check-then-create window.
    fn acquire_collector_lock(&self) -> CoordResult<()> {
        let storage = &*self.shared.storage;
        let lock = self.shared.root.join(GC_LOCK_FILE);
        let nonce = LOCK_NONCE.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .shared
            .root
            .join(format!("{GC_LOCK_FILE}.{}.{nonce}.tmp", std::process::id()));
        let info = format!("collector pid {}\n", std::process::id());
        storage.write(&tmp, info.as_bytes()).map_err(io_err(&tmp))?;
        let linked = storage.hard_link(&tmp, &lock);
        let _ = storage.remove_file(&tmp);
        match linked {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                Err(CoordError::Busy(format!(
                    "another process holds the collector lock at {}; if that \
                     process is dead, remove the file (`llmtailor serve --store \
                     <DIR> --break-gc-lock`)",
                    lock.display()
                )))
            }
            Err(e) => Err(io_err(&lock)(e)),
        }
    }

    /// Remove a stale [`GC_LOCK_FILE`] left behind by a collector process
    /// that died mid-pass. Returns whether a lock file was removed.
    /// Operator recovery only: breaking the lock while a live collector
    /// holds it re-opens the double-collector races it exists to prevent.
    pub fn break_collector_lock(&self) -> CoordResult<bool> {
        let lock = self.shared.root.join(GC_LOCK_FILE);
        match self.shared.storage.remove_file(&lock) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(io_err(&lock)(e)),
        }
    }
}

fn validate_run_id(run_id: &str) -> CoordResult<()> {
    let ok = !run_id.is_empty()
        && run_id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        && run_id != "."
        && run_id != "..";
    if ok {
        Ok(())
    } else {
        Err(CoordError::InvalidRunId(run_id.to_string()))
    }
}

/// A save session admitted by the coordinator. Holds one save slot and
/// its declared byte budget until dropped.
#[derive(Debug)]
pub struct PublisherSession {
    shared: Arc<Shared>,
    run_root: PathBuf,
    granted_bytes: u64,
}

impl PublisherSession {
    /// This session's run root (checkpoints land here; objects land in
    /// the shared store through the `CASROOT` redirect).
    pub fn run_root(&self) -> &Path {
        &self.run_root
    }

    /// Object digests this run's `checkpoint-<step>` manifest references.
    fn checkpoint_digests(&self, step: u64) -> CoordResult<BTreeSet<Digest>> {
        let paths = CheckpointPaths::under(&self.run_root, step);
        let mut census = Census::default();
        let seal = read_seal(&*self.shared.storage, &paths);
        census.absorb(&paths.dir, &seal.manifest?)?;
        Ok(census.refs.into_keys().collect())
    }

    /// Save a checkpoint through the shared store. The request's `dir`,
    /// `metrics` and `store` are replaced by this session's — unlike
    /// `TierManager::save`, which rejects a foreign destination, the
    /// session *grants* the run root, so the checkpoint always lands in
    /// `checkpoint-<step>` under it. Dedup
    /// is forced on — that is the point of the shared CAS — and every
    /// placed object is pinned until the next census. On success the
    /// committed manifest's digests are published into the epoch ledger
    /// (bumping the store epoch), making the checkpoint reachable for
    /// readers that begin afterwards.
    pub fn save(&self, req: &SaveRequest, opts: &SaveOptions) -> CoordResult<CheckpointReport> {
        let opts = SaveOptions {
            dedup: true,
            ..*opts
        };
        let store = ObjectStore::for_run_root(&self.shared.root)
            .with_metrics(&self.shared.metrics)
            .with_observer(self.shared.pins.clone() as Arc<dyn PutObserver>)
            .with_read_retry(RetryPolicy::default(), self.shared.clock.clone());
        let req = SaveRequest {
            dir: &CheckpointPaths::under(&self.run_root, req.step).dir,
            metrics: &self.shared.metrics,
            store: Some(&store),
            ..*req
        };
        let report = engine::save(&[&*self.shared.storage], &req, &opts)?.report;
        let digests = self.checkpoint_digests(req.step)?;
        self.shared
            .ledger
            .lock()
            .expect("coord ledger")
            .publish(digests.iter().map(|d| d.to_hex()));
        Ok(report)
    }

    /// Publish an already-written `checkpoint-<step>` under this
    /// session's run root into the epoch ledger, returning how many
    /// object digests were published.
    ///
    /// This is the commit half of the *cross-process* save path: a
    /// client of the checkpoint daemon writes its dedup save directly
    /// into the shared store (through the `CASROOT` redirect of the run
    /// root this session granted), then asks the daemon — which owns the
    /// ledger — to make the checkpoint reachable. Objects the client
    /// placed are not on the in-process pin board, but dedup placement
    /// re-dates objects, so the store-level mtime mark guard covers them
    /// until the census after this publish sees the manifest.
    pub fn publish_committed(&self, step: u64) -> CoordResult<usize> {
        let digests = self.checkpoint_digests(step)?;
        self.shared
            .ledger
            .lock()
            .expect("coord ledger")
            .publish(digests.iter().map(|d| d.to_hex()));
        Ok(digests.len())
    }

    /// Withdraw `checkpoint-<step>` from service. The directory stays on
    /// disk — readers that began while it was live keep an intact view —
    /// and is physically removed by a later collector pass once no active
    /// reader can reach it. Its digests are retired in the epoch ledger.
    /// Retiring an already-retired checkpoint is a no-op.
    pub fn retire_checkpoint(&self, step: u64) -> CoordResult<()> {
        let dir = CheckpointPaths::under(&self.run_root, step).dir;
        let digests = self.checkpoint_digests(step)?;
        let hexes: Vec<String> = digests.iter().map(|d| d.to_hex()).collect();
        let mut retired = self.shared.retired.lock().expect("coord retired lock");
        if retired.iter().any(|rc| rc.dir == dir) {
            return Ok(());
        }
        let retire_epoch = self
            .shared
            .ledger
            .lock()
            .expect("coord ledger")
            .retire(hexes.iter().map(String::as_str));
        retired.push(RetiredCheckpoint {
            dir,
            digests,
            retire_epoch,
        });
        Ok(())
    }
}

impl Drop for PublisherSession {
    fn drop(&mut self) {
        self.shared
            .admission
            .release(self.granted_bytes, &self.shared.metrics);
    }
}

/// A read session (report / verify / diff / merge-source). Pins its
/// begin-epoch until dropped.
#[derive(Debug)]
pub struct ReaderSession {
    shared: Arc<Shared>,
    ticket: ReaderTicket,
}

impl ReaderSession {
    /// The store epoch this session observes.
    pub fn epoch(&self) -> u64 {
        self.ticket.epoch
    }

    /// Committed checkpoint directories of `run_id` that this session can
    /// reach, newest last. Checkpoints retired at or before this reader's
    /// begin-epoch are excluded: they were already withdrawn when the
    /// session began, and a collector may remove them at any moment. A
    /// checkpoint retired *after* the session began stays listed — this
    /// reader pins it, so the collector leaves it intact.
    pub fn committed_checkpoints(&self, run_id: &str) -> Vec<PathBuf> {
        let run_root = self.shared.root.join(RUNS_DIR).join(run_id);
        let retired = self.shared.retired.lock().expect("coord retired lock");
        scan_run_root_on(&*self.shared.storage, &run_root)
            .committed
            .iter()
            .map(|cp| cp.dir.clone())
            .filter(|dir| {
                !retired
                    .iter()
                    .any(|rc| rc.dir == *dir && rc.retire_epoch <= self.ticket.epoch)
            })
            .collect()
    }

    /// Verify a checkpoint through the coordinator's storage stack.
    /// `deep` additionally streams every payload byte through the restore
    /// engine, re-hashing on read.
    pub fn verify(&self, checkpoint_dir: &Path, deep: bool) -> CoordResult<VerifyReport> {
        llmt_ckpt::verify_checkpoint_on(self.shared.storage.clone(), checkpoint_dir, deep)
            .map_err(CoordError::Ckpt)
    }

    /// Read one object's payload from the shared store (with transient
    /// read faults retried against the injected clock).
    pub fn get_object(&self, digest: Digest) -> CoordResult<Vec<u8>> {
        let store = ObjectStore::for_run_root(&self.shared.root)
            .with_read_retry(RetryPolicy::default(), self.shared.clock.clone());
        store
            .get(&*self.shared.storage, digest)
            .map_err(io_err(store.object_path(digest)))
    }
}

impl Drop for ReaderSession {
    fn drop(&mut self) {
        self.shared
            .ledger
            .lock()
            .expect("coord ledger")
            .end_read(self.ticket);
    }
}

/// A GC session. At most one exists at a time.
#[derive(Debug)]
pub struct CollectorSession {
    shared: Arc<Shared>,
}

impl CollectorSession {
    /// One two-phase GC pass: mark → drain → sweep (see module docs).
    pub fn collect(&self) -> CoordResult<CollectReport> {
        let shared = &self.shared;
        let sp = shared.metrics.span("coord.gc.pass");

        // --- Mark. Everything placed after this point is protected twice:
        // by the pin board (exact) and by the store's mtime guard
        // (best-effort backstop).
        let mark_epoch = shared.ledger.lock().expect("coord ledger").epoch();
        let sweep_mark = SweepMark::now();

        // --- Drain readers through the injected clock. `Clock::sleep`
        // on a ManualClock records instead of sleeping, so chaos tests
        // reach the timeout deterministically.
        let polls = 20u32;
        let poll = shared
            .config
            .drain_timeout
            .checked_div(polls)
            .unwrap_or(Duration::from_millis(1))
            .max(Duration::from_millis(1));
        let mut drained = shared.ledger.lock().expect("coord ledger").active_readers() == 0;
        for _ in 0..polls {
            if drained {
                break;
            }
            shared.clock.sleep(poll);
            drained = shared.ledger.lock().expect("coord ledger").active_readers() == 0;
        }
        let readers_at_sweep = shared.ledger.lock().expect("coord ledger").active_readers();
        if !drained {
            shared.metrics.counter("coord.gc.forced").incr();
        }

        // --- Retired checkpoint directories: remove the ones no active
        // reader can reach. A reader can reach a retired checkpoint iff
        // it began before the retirement epoch. Lock the retired list
        // *before* reading the oldest reader: `retire_checkpoint` bumps
        // the ledger while holding this lock, so the ordering makes the
        // reachability check atomic with respect to concurrent retires —
        // without it, a reader could begin and a checkpoint retire after
        // its begin-epoch in the gap, and a stale `oldest_reader` would
        // let us remove a directory that reader can legitimately reach.
        // (A reader that begins *after* the read pins the then-current
        // epoch, which is >= every retire_epoch already in the list, so
        // it can never reach the entries judged here.)
        let mut retired = shared.retired.lock().expect("coord retired lock");
        let oldest_reader = shared
            .ledger
            .lock()
            .expect("coord ledger")
            .oldest_reader_epoch();
        let mut removed = 0usize;
        let mut kept: Vec<RetiredCheckpoint> = Vec::new();
        for rc in retired.drain(..) {
            let reachable = match oldest_reader {
                None => false,
                Some(oldest) => oldest < rc.retire_epoch,
            };
            if reachable {
                kept.push(rc);
                continue;
            }
            match shared.storage.remove_dir_all(&rc.dir) {
                Ok(()) => removed += 1,
                // Already gone (a crashed earlier pass got partway).
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => removed += 1,
                // Couldn't remove it: keep the entry — and, below, its
                // digests — so a directory still on disk never has its
                // objects swept out from under it. The next pass retries.
                Err(_) => kept.push(rc),
            }
        }
        let reader_pinned: BTreeSet<Digest> = kept
            .iter()
            .flat_map(|rc| rc.digests.iter().copied())
            .collect();
        *retired = kept;
        drop(retired);

        // --- Census: every attached run's committed manifests, through
        // the storage the sweep below runs on (as a private root's GC).
        let runs_dir = shared.root.join(RUNS_DIR);
        let run_dirs = shared
            .storage
            .list_dir(&runs_dir)
            .map_err(io_err(&runs_dir))?;
        let live: BTreeSet<Digest> = census_run_roots(&*shared.storage, &run_dirs)?
            .refs
            .into_keys()
            .collect();
        let live_count = live.len();

        // --- Keep-set: census-live ∪ publisher-pinned ∪ reader-pinned.
        let pinned = shared.pins.snapshot();
        let mut keep = live.clone();
        keep.extend(pinned.iter().copied());
        keep.extend(reader_pinned.iter().copied());

        // --- Sweep, mark-aware, consulting the live pin board per object
        // at deletion time: a dedup hit that lands after the keep-set
        // snapshot above (pinning an old, currently-dead object whose
        // mtime predates the mark) still saves its object.
        let store = ObjectStore::for_run_root(&shared.root).with_metrics(&shared.metrics);
        let sweep = store
            .sweep_guarded(&*shared.storage, &keep, &sweep_mark, &|d| {
                shared.pins.contains(d)
            })
            .map_err(io_err(store.root_dir()))?;

        // --- Bookkeeping: census-protected pins can be released (their
        // manifests now pin them); ledger entries for swept objects are
        // forgotten lazily — the ledger is safety-additive, so stale
        // retired entries only ever widen the keep-set.
        shared.pins.release_censused(&live);
        {
            let mut ledger = shared.ledger.lock().expect("coord ledger");
            let sweepable = ledger.sweepable(mark_epoch);
            let keys: Vec<&str> = sweepable.iter().map(String::as_str).collect();
            ledger.forget(keys);
        }

        // --- Journal the pass in the coordinator's own journal (the
        // collector is its only writer, so a single file is safe).
        let mut ev = RunEvent::new("gc", mark_epoch);
        ev.bytes = sweep.reclaimed_bytes;
        ev.files = sweep.deleted_objects as u64;
        let events_path = shared.root.join(llmt_obs::EVENTS_FILE);
        llmt_obs::append_event(&*shared.storage, &events_path, &ev)
            .map_err(io_err(&events_path))?;

        sp.finish();
        Ok(CollectReport {
            mark_epoch,
            drained,
            readers_at_sweep,
            retired_removed: removed,
            reader_pinned_objects: reader_pinned.len(),
            live_digests: live_count,
            sweep,
        })
    }
}

impl Drop for CollectorSession {
    fn drop(&mut self) {
        // Release the cross-process lock before the in-process flag, so
        // once `collector_active` reads false the file is already gone.
        // Best-effort: a removal failure leaves a stale lock that
        // `break_collector_lock` clears.
        let lock = self.shared.root.join(GC_LOCK_FILE);
        let _ = self.shared.storage.remove_file(&lock);
        self.shared.collector_active.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_ids_are_validated() {
        assert!(validate_run_id("run-1").is_ok());
        assert!(validate_run_id("a.b_c-3").is_ok());
        assert!(validate_run_id("").is_err());
        assert!(validate_run_id("..").is_err());
        assert!(validate_run_id("a/b").is_err());
    }

    #[test]
    fn attach_run_writes_the_redirect() {
        let dir = tempfile::tempdir().unwrap();
        let coord = Coordinator::open(dir.path()).unwrap();
        let run_root = coord.attach_run("run-1").unwrap();
        assert!(llmt_cas::is_redirected(&LocalFs, &run_root));
        assert_eq!(
            llmt_cas::redirect_target(&LocalFs, &run_root).unwrap(),
            dir.path()
        );
        // Idempotent.
        coord.attach_run("run-1").unwrap();
        assert_eq!(coord.attached_runs().unwrap(), vec!["run-1".to_string()]);
    }

    #[test]
    fn drain_status_surfaces_tiered_runs_only() {
        let dir = tempfile::tempdir().unwrap();
        let coord = Coordinator::open(dir.path()).unwrap();
        let plain = coord.attach_run("plain").unwrap();
        let tiered = coord.attach_run("tiered").unwrap();
        assert!(
            coord.drain_status().unwrap().is_empty(),
            "no tier state yet"
        );
        // Opening a tier manager persists `.tier/state.json` in its root.
        let _mgr = llmt_tier::TierManager::open(
            &tiered,
            Arc::new(LocalFs),
            llmt_tier::TierConfig::default(),
            Arc::new(llmt_storage::vfs::ManualClock::default()),
            llmt_obs::MetricsRegistry::new(),
        )
        .unwrap();
        let status = coord.drain_status().unwrap();
        assert_eq!(status.len(), 1);
        assert_eq!(status[0].0, "tiered");
        assert_eq!(status[0].1.pending_drains, 0);
        let _ = plain;
    }

    #[test]
    fn second_collector_gets_busy_not_deadlock() {
        let dir = tempfile::tempdir().unwrap();
        let coord = Coordinator::open(dir.path()).unwrap();
        let first = coord.collector().unwrap();
        match coord.collector() {
            Err(CoordError::Busy(_)) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
        drop(first);
        coord.collector().unwrap();
    }

    #[test]
    fn collector_lock_excludes_collectors_from_other_processes() {
        let dir = tempfile::tempdir().unwrap();
        // Two coordinators on one root model two `llmtailor serve`
        // processes: their in-memory state is disjoint, so only the
        // on-disk lock can mediate.
        let ours = Coordinator::open(dir.path()).unwrap();
        let theirs = Coordinator::open(dir.path()).unwrap();
        let held = ours.collector().unwrap();
        assert!(dir.path().join(GC_LOCK_FILE).exists());
        match theirs.collector() {
            Err(CoordError::Busy(msg)) => assert!(msg.contains(GC_LOCK_FILE)),
            other => panic!("expected Busy, got {other:?}"),
        }
        drop(held);
        assert!(!dir.path().join(GC_LOCK_FILE).exists());
        theirs.collector().unwrap();
    }

    #[test]
    fn stale_collector_lock_is_breakable() {
        let dir = tempfile::tempdir().unwrap();
        let coord = Coordinator::open(dir.path()).unwrap();
        // A collector process that died mid-pass left its lock behind.
        std::fs::write(dir.path().join(GC_LOCK_FILE), b"collector pid 999999\n").unwrap();
        match coord.collector() {
            Err(CoordError::Busy(_)) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
        assert!(coord.break_collector_lock().unwrap());
        assert!(
            !coord.break_collector_lock().unwrap(),
            "second break is a no-op"
        );
        coord.collector().unwrap();
    }

    #[test]
    fn try_publisher_is_bounded_by_slots() {
        let dir = tempfile::tempdir().unwrap();
        let coord = Coordinator::open_on(
            Arc::new(LocalFs),
            dir.path(),
            CoordConfig {
                save_slots: 1,
                ..CoordConfig::default()
            },
            Arc::new(SystemClock),
        )
        .unwrap();
        let held = coord.try_publisher("a", 100).unwrap();
        match coord.try_publisher("b", 100) {
            Err(CoordError::Busy(_)) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
        drop(held);
        coord.try_publisher("b", 100).unwrap();
    }

    #[test]
    fn admission_tracks_inflight_bytes_with_peak() {
        let dir = tempfile::tempdir().unwrap();
        let coord = Coordinator::open(dir.path()).unwrap();
        let a = coord.publisher("a", 1000).unwrap();
        let b = coord.publisher("b", 500).unwrap();
        let gauge = coord.metrics().gauge("coord.inflight_bytes");
        assert_eq!(gauge.current(), 1500);
        drop(a);
        drop(b);
        assert_eq!(gauge.current(), 0);
        assert_eq!(gauge.peak(), 1500);
    }

    #[test]
    fn reader_sessions_move_the_ledger() {
        let dir = tempfile::tempdir().unwrap();
        let coord = Coordinator::open(dir.path()).unwrap();
        assert_eq!(coord.active_readers(), 0);
        let r = coord.reader();
        assert_eq!(coord.active_readers(), 1);
        assert_eq!(r.epoch(), 0);
        drop(r);
        assert_eq!(coord.active_readers(), 0);
    }
}
