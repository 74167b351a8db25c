//! The resident daemon: one process owning one coordinator-managed
//! shared store, serving many concurrent runs over a Unix socket.
//!
//! # Threading model
//!
//! * One **accept** thread polls a non-blocking [`UnixListener`] and
//!   spawns a thread per connection.
//! * Each **connection** thread reads requests with a 100 ms socket
//!   timeout, so it observes shutdown within one tick even while a
//!   client is idle. Sessions ([`PublisherSession`] / [`ReaderSession`])
//!   live in per-connection maps: when a client disconnects — cleanly or
//!   by being killed — its map drops, which releases admission budget
//!   and unpins reader epochs. A killed client can therefore never leak
//!   a save slot.
//! * One **GC** thread runs a guarded collect pass every `gc_interval`.
//! * One **drain** thread advances pending checkpoint-tier hops, one hop
//!   per pending run per `drain_interval` tick. The daemon is the *only*
//!   drainer for its root (single-drainer rule): the tier drain journal
//!   is per-session state, and two drainers would race hop claims.
//!
//! # GC vs. publishers
//!
//! The coordinator's pin board protects in-process puts, but daemon
//! clients write store objects from *their own* process; those puts are
//! only covered by the store-level mtime mark guard. The daemon
//! therefore never sweeps while a publisher session is admitted: a
//! Dekker-style pair of flags (`collecting`, `publishers`) makes the GC
//! pass and `save_begin` admission mutually exclusive without holding a
//! lock across either. GC sets `collecting`, then checks `publishers` —
//! nonzero means *defer* (reported, counted, retried next interval).
//! `save_begin` increments `publishers` after admission, then re-checks
//! `collecting` — set means back out and retry. Either order of the two
//! racing writes leaves at most one side proceeding.
//!
//! # Shutdown ordering
//!
//! `shutdown` flips one flag; then: the accept loop stops taking
//! connections → connection threads observe the flag on their next read
//! tick and exit, retiring their sessions → the GC and drain threads
//! finish their current step and exit → pending tier hops are drained
//! synchronously (flushing the drain WAL) → the socket file is removed.

use crate::protocol::{
    DaemonStatus, GcSummary, LineReader, Request, Response, TenantStatus, DEFAULT_SOCKET_FILE,
};
use llmt_ckpt::{scan_run_root_on, CheckpointPaths};
use llmt_coord::{CoordConfig, CoordError, Coordinator};
use llmt_obs::MetricsRegistry;
use llmt_storage::vfs::{Clock, LocalFs, Storage, SystemClock};
use llmt_tier::{ObjectTierConfig, TierConfig, TierManager};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for a daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Coordinator tuning (save slots, inflight-byte budget, GC drain
    /// timeout).
    pub coord: CoordConfig,
    /// Socket path; defaults to `<root>/llmtailord.sock`.
    pub socket: Option<PathBuf>,
    /// Period of the background GC thread; `None` disables periodic GC
    /// (explicit `Gc` requests still work).
    pub gc_interval: Option<Duration>,
    /// Period of the background tier-drain thread; `None` disables it
    /// (explicit `Drain` requests still work).
    pub drain_interval: Option<Duration>,
    /// Poll granularity for accept/shutdown/interval checks.
    pub tick: Duration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            coord: CoordConfig::default(),
            socket: None,
            gc_interval: Some(Duration::from_secs(30)),
            drain_interval: Some(Duration::from_millis(500)),
            tick: Duration::from_millis(10),
        }
    }
}

/// Shared daemon state; every thread holds an `Arc` to it.
struct Inner {
    coord: Coordinator,
    storage: Arc<dyn Storage>,
    clock: Arc<dyn Clock>,
    root: PathBuf,
    socket: PathBuf,
    config: DaemonConfig,
    metrics: MetricsRegistry,
    shutdown: AtomicBool,
    /// Dekker flag: a GC pass is deciding or sweeping.
    collecting: AtomicBool,
    /// Dekker counter: publisher sessions currently admitted.
    publishers: AtomicUsize,
    /// Monotone session-id source across all connections.
    next_session: AtomicU64,
    /// Connection threads, joined by the accept thread on shutdown.
    conns: Mutex<Vec<JoinHandle<()>>>,
    /// Tier managers opened per run, cached (the single-drainer rule:
    /// one manager instance per run per daemon).
    tiers: Mutex<BTreeMap<String, Arc<TierManager>>>,
    saves_begun: AtomicU64,
    saves_committed: AtomicU64,
    gc_passes: AtomicU64,
    gc_deferred: AtomicU64,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("root", &self.root)
            .field("socket", &self.socket)
            .finish_non_exhaustive()
    }
}

/// A running daemon. Dropping it performs a clean shutdown.
#[derive(Debug)]
pub struct Daemon {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Serve `root` on the local filesystem with a real clock.
    pub fn serve(root: &Path, config: DaemonConfig) -> io::Result<Daemon> {
        Self::serve_on(Arc::new(LocalFs), root, config, Arc::new(SystemClock))
    }

    /// Serve on an explicit storage stack and clock — tests pass
    /// fault-injecting storage here. The Unix socket itself always lives
    /// on the real filesystem.
    pub fn serve_on(
        storage: Arc<dyn Storage>,
        root: &Path,
        config: DaemonConfig,
        clock: Arc<dyn Clock>,
    ) -> io::Result<Daemon> {
        let coord =
            Coordinator::open_on(storage.clone(), root, config.coord.clone(), clock.clone())
                .map_err(io::Error::other)?;
        let socket = config
            .socket
            .clone()
            .unwrap_or_else(|| root.join(DEFAULT_SOCKET_FILE));
        // A stale socket file from a crashed daemon blocks bind; the
        // advisory GC lock (not the socket) is what guards the store.
        let _ = std::fs::remove_file(&socket);
        if let Some(parent) = socket.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let listener = UnixListener::bind(&socket)?;
        listener.set_nonblocking(true)?;

        let metrics = coord.metrics().clone();
        let inner = Arc::new(Inner {
            coord,
            storage,
            clock,
            root: root.to_path_buf(),
            socket,
            config,
            metrics,
            shutdown: AtomicBool::new(false),
            collecting: AtomicBool::new(false),
            publishers: AtomicUsize::new(0),
            next_session: AtomicU64::new(1),
            conns: Mutex::new(Vec::new()),
            tiers: Mutex::new(BTreeMap::new()),
            saves_begun: AtomicU64::new(0),
            saves_committed: AtomicU64::new(0),
            gc_passes: AtomicU64::new(0),
            gc_deferred: AtomicU64::new(0),
        });

        let mut threads = Vec::new();
        {
            let inner = inner.clone();
            threads.push(std::thread::spawn(move || accept_loop(inner, listener)));
        }
        if let Some(period) = inner.config.gc_interval {
            let inner = inner.clone();
            threads.push(std::thread::spawn(move || {
                interval_loop(&inner, period, |i| {
                    let _ = i.gc_once();
                })
            }));
        }
        if let Some(period) = inner.config.drain_interval {
            let inner = inner.clone();
            threads.push(std::thread::spawn(move || {
                interval_loop(&inner, period, |i| i.drain_tick())
            }));
        }
        Ok(Daemon { inner, threads })
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.inner.socket
    }

    /// The shared store root.
    pub fn root(&self) -> &Path {
        &self.inner.root
    }

    /// The daemon's metrics registry (shared with its coordinator).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Current daemon-wide status (same snapshot the `Status` request
    /// serves).
    pub fn status(&self) -> DaemonStatus {
        self.inner.status()
    }

    /// Block until a `Shutdown` request (or [`Daemon::shutdown`] from
    /// another thread) flips the flag, then finish cleanly.
    pub fn join(mut self) {
        while !self.inner.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(self.inner.config.tick);
        }
        self.finish();
    }

    /// Clean shutdown: stop accepting, retire sessions, flush pending
    /// tier drains, remove the socket file.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.finish();
    }

    fn finish(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // All sessions are retired; flush the drain WAL so a restart
        // owes no deferred copies.
        let tiers: Vec<Arc<TierManager>> = self
            .inner
            .tiers
            .lock()
            .expect("tier map")
            .values()
            .cloned()
            .collect();
        for mgr in tiers {
            let _ = mgr.drain_all();
        }
        let _ = std::fs::remove_file(&self.inner.socket);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Run `step` every `period`, polling the shutdown flag every tick.
fn interval_loop(inner: &Arc<Inner>, period: Duration, step: impl Fn(&Inner)) {
    let mut elapsed = Duration::ZERO;
    while !inner.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(inner.config.tick);
        elapsed += inner.config.tick;
        if elapsed >= period {
            elapsed = Duration::ZERO;
            step(inner);
        }
    }
}

fn accept_loop(inner: Arc<Inner>, listener: UnixListener) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let inner2 = inner.clone();
                let handle = std::thread::spawn(move || connection_loop(inner2, stream));
                let mut conns = inner.conns.lock().expect("conn list");
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(inner.config.tick);
            }
            Err(_) => std::thread::sleep(inner.config.tick),
        }
    }
    // Join connection threads: they observe the flag within one read
    // timeout and exit, dropping their session maps.
    let conns: Vec<_> = inner.conns.lock().expect("conn list").drain(..).collect();
    for h in conns {
        let _ = h.join();
    }
}

/// Per-connection session state. Dropping it releases everything the
/// connection held: publisher admission, reader epoch pins.
#[derive(Default)]
struct ConnSessions {
    publishers: HashMap<u64, (llmt_coord::PublisherSession, String)>,
    readers: HashMap<u64, llmt_coord::ReaderSession>,
}

fn connection_loop(inner: Arc<Inner>, mut stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = LineReader::new();
    let mut sessions = ConnSessions::default();
    let stop = {
        let inner = inner.clone();
        move || inner.shutdown.load(Ordering::SeqCst)
    };
    while let Ok(Some(line)) = reader.next_line(&mut stream, &stop) {
        let (resp, quit) = match serde_json::from_str::<Request>(&line) {
            Ok(req) => inner.handle(req, &mut sessions),
            Err(e) => (
                Response::Err {
                    message: format!("malformed request: {e}"),
                },
                false,
            ),
        };
        if crate::protocol::write_message(&mut stream, &resp).is_err() {
            break;
        }
        if quit {
            break;
        }
    }
    // Disconnect (clean or killed client) retires the connection's
    // sessions: admission released, reader epochs unpinned — and the
    // Dekker publisher count must follow, or GC would defer forever on
    // a session only a dead client could have committed.
    let orphaned = sessions.publishers.len();
    drop(sessions);
    if orphaned > 0 {
        inner.publishers.fetch_sub(orphaned, Ordering::SeqCst);
    }
}

impl Inner {
    fn handle(&self, req: Request, sessions: &mut ConnSessions) -> (Response, bool) {
        match req {
            Request::Ping => (Response::Pong, false),
            Request::Attach { run } => match self.coord.attach_run(&run) {
                Ok(root) => (
                    Response::Attached {
                        run_root: root.display().to_string(),
                    },
                    false,
                ),
                Err(e) => (err(e), false),
            },
            Request::SaveBegin {
                run,
                declared_bytes,
                wait,
            } => (self.save_begin(&run, declared_bytes, wait, sessions), false),
            Request::SaveCommit { session, step } => {
                (self.save_commit(session, step, sessions), false)
            }
            Request::SaveAbort { session } => {
                match sessions.publishers.remove(&session) {
                    Some(_) => {
                        // Session drops: admission released, nothing published.
                        self.publishers.fetch_sub(1, Ordering::SeqCst);
                        (Response::Ok, false)
                    }
                    None => (unknown_session(session), false),
                }
            }
            Request::ReadBegin { run } => {
                let reader = self.coord.reader();
                let epoch = reader.epoch();
                let checkpoints = reader
                    .committed_checkpoints(&run)
                    .iter()
                    .map(|p| p.display().to_string())
                    .collect();
                let id = self.next_session.fetch_add(1, Ordering::SeqCst);
                sessions.readers.insert(id, reader);
                (
                    Response::ReadStarted {
                        session: id,
                        epoch,
                        checkpoints,
                    },
                    false,
                )
            }
            Request::Verify { session, dir, deep } => {
                let Some(reader) = sessions.readers.get(&session) else {
                    return (unknown_session(session), false);
                };
                let dir = PathBuf::from(dir);
                // Never verify (= read) paths outside the store the
                // daemon owns on behalf of a client.
                if !dir.starts_with(&self.root) {
                    return (
                        Response::Err {
                            message: format!(
                                "{} is outside the daemon root {}",
                                dir.display(),
                                self.root.display()
                            ),
                        },
                        false,
                    );
                }
                match reader.verify(&dir, deep) {
                    Ok(report) => (
                        Response::Verified {
                            ok: report.ok(),
                            findings: report
                                .findings
                                .iter()
                                .map(|f| format!("{}: {}", f.subject, f.problem))
                                .collect(),
                        },
                        false,
                    ),
                    // A malformed checkpoint is the client's problem,
                    // not a daemon crash.
                    Err(e) => (err(e), false),
                }
            }
            Request::ReadEnd { session } => match sessions.readers.remove(&session) {
                Some(_) => (Response::Ok, false),
                None => (unknown_session(session), false),
            },
            Request::Retire { session, step } => {
                let Some((publisher, _)) = sessions.publishers.get(&session) else {
                    return (unknown_session(session), false);
                };
                match publisher.retire_checkpoint(step) {
                    Ok(()) => (Response::Ok, false),
                    Err(e) => (err(e), false),
                }
            }
            Request::Gc => (self.gc_once(), false),
            Request::Drain { run } => (self.drain_run(&run), false),
            Request::Status => (Response::Status(self.status()), false),
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                (Response::ShuttingDown, true)
            }
        }
    }

    fn save_begin(
        &self,
        run: &str,
        declared_bytes: u64,
        wait: bool,
        sessions: &mut ConnSessions,
    ) -> Response {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return Response::Err {
                    message: "daemon is shutting down".into(),
                };
            }
            if self.collecting.load(Ordering::SeqCst) {
                // A GC pass is running; admission would race the sweep.
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            match self.coord.try_publisher(run, declared_bytes) {
                Ok(session) => {
                    self.publishers.fetch_add(1, Ordering::SeqCst);
                    // Dekker re-check: a GC pass may have set
                    // `collecting` between our check and the increment.
                    // Back out and retry so at most one side proceeds.
                    if self.collecting.load(Ordering::SeqCst) {
                        self.publishers.fetch_sub(1, Ordering::SeqCst);
                        drop(session);
                        std::thread::sleep(Duration::from_millis(2));
                        continue;
                    }
                    let run_root = session.run_root().display().to_string();
                    let id = self.next_session.fetch_add(1, Ordering::SeqCst);
                    sessions.publishers.insert(id, (session, run.to_string()));
                    self.saves_begun.fetch_add(1, Ordering::SeqCst);
                    return Response::SaveStarted {
                        session: id,
                        run_root,
                    };
                }
                Err(CoordError::Busy(message)) => {
                    if wait {
                        // Real sleep, not the injected clock: a manual
                        // clock would spin here without advancing.
                        std::thread::sleep(Duration::from_millis(2));
                        continue;
                    }
                    return Response::Busy { message };
                }
                Err(e) => return err(e),
            }
        }
    }

    fn save_commit(&self, session: u64, step: u64, sessions: &mut ConnSessions) -> Response {
        let Some((publisher, run)) = sessions.publishers.remove(&session) else {
            return unknown_session(session);
        };
        let result = publisher.publish_committed(step);
        // The session drops either way: a failed commit must still
        // release its admission budget.
        let run_root = publisher.run_root().to_path_buf();
        drop(publisher);
        self.publishers.fetch_sub(1, Ordering::SeqCst);
        match result {
            Ok(published) => {
                self.saves_committed.fetch_add(1, Ordering::SeqCst);
                self.metrics
                    .counter(&format!("daemon.tenant.{run}.saves"))
                    .incr();
                if let Ok(bytes) =
                    CheckpointPaths::under(&run_root, step).total_bytes_on(&*self.storage)
                {
                    self.metrics
                        .counter(&format!("daemon.tenant.{run}.published_bytes"))
                        .add(bytes);
                }
                Response::Committed { published }
            }
            Err(e) => err(e),
        }
    }

    /// One guarded GC pass. Defers (without sweeping) while any
    /// publisher session is admitted — see the module docs for why
    /// cross-process publishers make this mandatory, not cautious.
    fn gc_once(&self) -> Response {
        self.collecting.store(true, Ordering::SeqCst);
        let active = self.publishers.load(Ordering::SeqCst);
        if active > 0 {
            self.collecting.store(false, Ordering::SeqCst);
            self.gc_deferred.fetch_add(1, Ordering::SeqCst);
            return Response::GcDeferred {
                active_publishers: active,
            };
        }
        let outcome = self
            .coord
            .collector()
            .and_then(|collector| collector.collect());
        self.collecting.store(false, Ordering::SeqCst);
        match outcome {
            Ok(report) => {
                self.gc_passes.fetch_add(1, Ordering::SeqCst);
                Response::Gc(GcSummary {
                    mark_epoch: report.mark_epoch,
                    drained: report.drained,
                    live_digests: report.live_digests,
                    deleted_objects: report.sweep.deleted_objects,
                    reclaimed_bytes: report.sweep.reclaimed_bytes,
                    retired_removed: report.retired_removed,
                })
            }
            Err(CoordError::Busy(message)) => Response::Busy { message },
            Err(e) => err(e),
        }
    }

    /// The run's tier manager, opened lazily and cached. One instance
    /// per run per daemon — the drain journal is per-session state.
    fn tier_for(&self, run: &str) -> io::Result<Arc<TierManager>> {
        let mut tiers = self.tiers.lock().expect("tier map");
        if let Some(mgr) = tiers.get(run) {
            return Ok(mgr.clone());
        }
        let run_root = self.coord.run_root(run);
        // No memory tier: client processes own their staging RAM; the
        // daemon only advances fs → object hops, so a daemon restart
        // can never mis-report a client's mem-resident step as lost.
        let cfg = TierConfig {
            mem_capacity: None,
            mem_model: None,
            object: Some(ObjectTierConfig::default()),
            ..TierConfig::default()
        };
        let mgr = TierManager::open(
            &run_root,
            self.storage.clone(),
            cfg,
            self.clock.clone(),
            self.metrics.clone(),
        )?;
        tiers.insert(run.to_string(), mgr.clone());
        Ok(mgr)
    }

    /// Drain `run`'s pending tier hops to empty.
    fn drain_run(&self, run: &str) -> Response {
        let has_state = llmt_tier::load_status(&*self.storage, &self.coord.run_root(run))
            .ok()
            .flatten()
            .is_some();
        if !has_state {
            return Response::Drained { hops: 0, bytes: 0 };
        }
        match self.tier_for(run).and_then(|mgr| mgr.drain_all()) {
            Ok(reports) => Response::Drained {
                hops: reports.len() as u64,
                bytes: reports.iter().map(|r| r.bytes).sum(),
            },
            Err(e) => Response::Err {
                message: e.to_string(),
            },
        }
    }

    /// One background drain tick: one hop per run that owes copies.
    fn drain_tick(&self) {
        let Ok(statuses) = self.coord.drain_status() else {
            return;
        };
        for (run, status) in statuses {
            if status.pending_drains == 0 {
                continue;
            }
            if let Ok(mgr) = self.tier_for(&run) {
                let _ = mgr.drain_step();
            }
        }
    }

    fn status(&self) -> DaemonStatus {
        let mut runs = Vec::new();
        let mut drain_pending = 0usize;
        for run in self.coord.attached_runs().unwrap_or_default() {
            let run_root = self.coord.run_root(&run);
            let scan = scan_run_root_on(&*self.storage, &run_root);
            // Prefer the live manager's view; fall back to the
            // persisted tier state for runs the daemon never drained.
            let tier = {
                let tiers = self.tiers.lock().expect("tier map");
                match tiers.get(&run) {
                    Some(mgr) => Some(mgr.status()),
                    None => llmt_tier::load_status(&*self.storage, &run_root)
                        .ok()
                        .flatten(),
                }
            };
            let (pending, lost) = tier
                .map(|t| (t.pending_drains, t.lost_on_crash))
                .unwrap_or((0, Vec::new()));
            drain_pending += pending;
            runs.push(TenantStatus {
                run: run.clone(),
                committed_steps: scan.committed_steps(),
                saves_committed: self
                    .metrics
                    .counter_value(&format!("daemon.tenant.{run}.saves")),
                published_bytes: self
                    .metrics
                    .counter_value(&format!("daemon.tenant.{run}.published_bytes")),
                pending_drains: pending,
                lost_on_crash: lost,
            });
        }
        DaemonStatus {
            root: self.root.display().to_string(),
            epoch: self.coord.epoch(),
            active_readers: self.coord.active_readers(),
            active_publishers: self.publishers.load(Ordering::SeqCst),
            saves_begun: self.saves_begun.load(Ordering::SeqCst),
            saves_committed: self.saves_committed.load(Ordering::SeqCst),
            gc_passes: self.gc_passes.load(Ordering::SeqCst),
            gc_deferred: self.gc_deferred.load(Ordering::SeqCst),
            drain_pending,
            runs,
        }
    }
}

fn err(e: CoordError) -> Response {
    Response::Err {
        message: e.to_string(),
    }
}

fn unknown_session(session: u64) -> Response {
    Response::Err {
        message: format!("unknown session {session}"),
    }
}
