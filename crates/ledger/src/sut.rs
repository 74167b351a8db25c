//! The measured surface: every call the ledger makes into the
//! workspace goes through this file, and nothing else in the crate
//! names a workspace crate. The README lists these signatures so an API
//! change knows which of them it must keep or pair with a benchmark
//! follow-up.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub use llmt_model::LayerUnit;
pub use llmt_storage::vfs::{Storage, WriteStream};
pub use llmt_storage::{RestoreTimings, StageTimings};
pub use llmt_tier::{DrainerHandle, TierManager};
pub use llmt_train::{Trainer, TrainerConfig};
pub use llmtailor::StrategyKind;

/// Errors from the system, flattened: the ledger only names and counts
/// them.
pub type SutResult<T> = Result<T, String>;

fn flat<T, E: std::fmt::Display>(r: Result<T, E>) -> SutResult<T> {
    r.map_err(|e| e.to_string())
}

// ---------------------------------------------------------------- models

/// Model sizes the workloads run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSize {
    /// `ModelConfig::tiny_test` (`--smoke`).
    Tiny,
    /// `ModelConfig::llama32_1b_sim`: 18 units, ~9.7 MB per checkpoint.
    Sim1b,
    /// `ModelConfig::llama31_8b_sim`: 35 units, ~45 MB per checkpoint.
    Sim8b,
}

/// Trainer configuration for a workload: `seq_len 16, micro_batch 2`,
/// no periodic checkpointing (the workload drives every save itself).
pub fn trainer_config(size: ModelSize, world: usize, run_root: &Path, seed: u64) -> TrainerConfig {
    let mut cfg = TrainerConfig::test_default(run_root.to_path_buf());
    cfg.model_config = match size {
        ModelSize::Tiny => llmt_model::ModelConfig::tiny_test(),
        ModelSize::Sim1b => llmt_model::ModelConfig::llama32_1b_sim(),
        ModelSize::Sim8b => llmt_model::ModelConfig::llama31_8b_sim(),
    };
    cfg.world_size = world;
    cfg.seed = seed;
    cfg.data_seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(17);
    cfg.seq_len = 16;
    cfg.micro_batch = 2;
    cfg
}

/// Embedding plus the lower `layers` transformer layers, for
/// `TrainerConfig::frozen_units`.
pub fn frozen_lower(layers: usize) -> Vec<LayerUnit> {
    let mut units = vec![LayerUnit::EmbedTokens];
    units.extend((0..layers).map(LayerUnit::Transformer));
    units
}

pub fn num_layers(cfg: &TrainerConfig) -> usize {
    cfg.model_config.num_hidden_layers
}

pub fn new_trainer(cfg: TrainerConfig, storage: Arc<dyn Storage>) -> Trainer {
    Trainer::with_storage(cfg, storage)
}

/// One optimizer step (the untimed state advance between ops).
pub fn step(t: &mut Trainer) -> f64 {
    t.step_once()
}

// ----------------------------------------------------------------- saves

/// What a save reported, in the units the ledger accounts in.
#[derive(Debug, Clone, Default)]
pub struct SaveInfo {
    pub logical_bytes: u64,
    pub files: u64,
    pub delta_max_chain: u64,
    pub timings: StageTimings,
    /// Units the save stored (empty for drained async saves, which
    /// report only totals).
    pub units: Vec<LayerUnit>,
}

fn save_info(r: &llmt_ckpt::CheckpointReport) -> SaveInfo {
    SaveInfo {
        logical_bytes: r.total_bytes,
        files: r.files_written as u64,
        delta_max_chain: r.delta_max_chain,
        timings: r.timings,
        units: r.units.clone(),
    }
}

/// `Trainer::checkpoint`: synchronous save under the configured strategy.
pub fn save_sync(t: &mut Trainer) -> SutResult<SaveInfo> {
    flat(t.checkpoint()).map(|r| save_info(&r))
}

/// `Trainer::checkpoint_async`: returns once the snapshot is queued.
pub fn save_async_begin(t: &mut Trainer) -> SutResult<()> {
    flat(t.checkpoint_async())
}

/// Wait for every queued async save. `Trainer::train_until` with the
/// current step trains nothing and blocks on the writer; its report
/// carries the drained saves' bytes and stage timings.
pub fn save_async_drain(t: &mut Trainer) -> SutResult<SaveInfo> {
    let step = t.step;
    let r = flat(t.train_until(step, None))?;
    Ok(SaveInfo {
        logical_bytes: r.ckpt_io.bytes + r.ckpt_io.dedup_saved,
        files: r.ckpt_io.files,
        timings: r.ckpt_io.stages,
        ..SaveInfo::default()
    })
}

/// Copy-on-write snapshot accounting of the trainer: (clones, peak bytes).
pub fn snapshot_gauge(t: &Trainer) -> (u64, u64) {
    let g = t.snapshot_gauge();
    (g.clones(), g.peak_bytes())
}

/// How a tier-placed save ended.
pub enum TieredSave {
    /// Committed; the flag says whether the memory tier took it.
    Placed(SaveInfo, bool),
    /// Committed on its tier and queued for draining, but reported as
    /// failed: `TierManager::save` and a concurrent `drain_step` persist
    /// the tier state through one shared `state.json.tmp`, and the
    /// save's rename found the file the drainer had already renamed away.
    StateRace,
}

/// `Trainer::checkpoint_with` + `TierManager::save`: tier-placed save.
pub fn save_tiered(t: &mut Trainer, tiers: &TierManager) -> SutResult<TieredSave> {
    let opts = llmt_ckpt::SaveOptions::default();
    let mut in_mem = false;
    let r = t.checkpoint_with(|req| {
        let placed = tiers.save(req, &opts)?;
        in_mem = placed.placed == llmt_tier::TierLevel::Mem;
        Ok(placed.report)
    });
    match r {
        Ok(r) => Ok(TieredSave::Placed(save_info(&r), in_mem)),
        Err(llmt_ckpt::CkptError::Io(path, e))
            if path.ends_with(llmt_tier::STATE_FILE) && e.kind() == io::ErrorKind::NotFound =>
        {
            Ok(TieredSave::StateRace)
        }
        Err(e) => Err(e.to_string()),
    }
}

/// `Trainer::checkpoint_via_daemon`.
pub fn save_via_daemon(t: &mut Trainer, client: &mut Client, run: &str) -> SutResult<SaveInfo> {
    flat(t.checkpoint_via_daemon(&mut client.0, run)).map(|r| save_info(&r))
}

/// `Trainer::declared_save_bytes`: what a full save is projected to place.
pub fn declared_save_bytes(t: &Trainer) -> u64 {
    t.declared_save_bytes()
}

/// Counter from the trainer's metrics registry (e.g. `cas.dedup.hits`).
pub fn trainer_counter(t: &Trainer, name: &str) -> u64 {
    t.metrics().counter_value(name)
}

// -------------------------------------------------------------- restores

/// `resume_trainer_on`: committed checkpoint → `Trainer` ready to step.
/// Verify-on-read is the restore engine's default and stays on.
pub fn resume(storage: Arc<dyn Storage>, dir: &Path, cfg: TrainerConfig) -> SutResult<Trainer> {
    flat(llmt_train::resume_trainer_on(storage, dir, cfg))
}

/// What `restore_checkpoint_on` reports for the request `resume` makes.
#[derive(Debug, Clone, Default)]
pub struct RestoreInfo {
    pub timings: RestoreTimings,
    pub bytes_fetched: u64,
    pub digests_verified: u64,
    pub resharded: bool,
}

/// The restore `resume` performs (optimizer-only scope, target
/// topology), called directly for the stage values it returns.
pub fn restore_stages(
    storage: Arc<dyn Storage>,
    dir: &Path,
    cfg: &TrainerConfig,
) -> SutResult<RestoreInfo> {
    let req = llmt_ckpt::RestoreRequest {
        topology: Some(cfg.topology()),
        scope: llmt_ckpt::RestoreScope::OptimizerOnly,
        ..llmt_ckpt::RestoreRequest::default()
    };
    let r = flat(llmt_ckpt::restore_checkpoint_on(storage, dir, &req))?.report;
    Ok(RestoreInfo {
        timings: r.timings,
        bytes_fetched: r.bytes_fetched,
        digests_verified: r.digests_verified as u64,
        resharded: r.resharded,
    })
}

pub fn checkpoint_dir(run_root: &Path, step: u64) -> PathBuf {
    llmt_ckpt::CheckpointPaths::under(run_root, step).dir
}

/// Steps and directories of the committed checkpoints under `run_root`.
pub fn committed(run_root: &Path) -> Vec<(u64, PathBuf)> {
    llmt_ckpt::scan_run_root(run_root)
        .committed
        .into_iter()
        .map(|c| (c.step, c.dir))
        .collect()
}

/// `verify_checkpoint_on(.., deep = true)`: findings, empty when sound.
pub fn verify_deep(storage: Arc<dyn Storage>, dir: &Path) -> SutResult<Vec<String>> {
    let report = flat(llmt_ckpt::verify_checkpoint_on(storage, dir, true))?;
    Ok(report
        .findings
        .iter()
        .map(|f| format!("{}: {}", f.subject, f.problem))
        .collect())
}

/// Reader probes on one committed checkpoint: microseconds for one lazy
/// single-tensor read and milliseconds for an eager whole-shard load.
pub fn reader_probe(storage: Arc<dyn Storage>, dir: &Path) -> SutResult<(f64, f64)> {
    let mut lazy = flat(llmt_ckpt::CheckpointHandle::open_on(
        storage.clone(),
        dir,
        llmt_ckpt::LoadMode::LazyRange,
    ))?;
    let gid = lazy
        .zero_meta
        .groups_present
        .first()
        .copied()
        .ok_or("checkpoint stores no optimizer group")?;
    let t0 = Instant::now();
    flat(lazy.group_shard(0, gid))?;
    let lazy_us = t0.elapsed().as_secs_f64() * 1e6;
    let mut eager = flat(llmt_ckpt::CheckpointHandle::open_on(
        storage,
        dir,
        llmt_ckpt::LoadMode::EagerFull,
    ))?;
    let t0 = Instant::now();
    flat(eager.group_shard(0, gid))?;
    let eager_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok((lazy_us, eager_ms))
}

// ------------------------------------------------------- recover / merge

/// What a merge reported.
#[derive(Debug, Clone, Default)]
pub struct MergeInfo {
    pub output: PathBuf,
    pub bytes_read: u64,
    pub files_opened: u64,
    pub full_loads: u64,
    pub bytes_out: u64,
    /// Filled by [`recover_staged`] only.
    pub plan_ms: f64,
    pub exec_ms: f64,
}

fn merge_info(r: &llmtailor::MergeReport) -> MergeInfo {
    MergeInfo {
        output: r.output.clone(),
        bytes_read: r.io.bytes_read,
        files_opened: r.io.files_opened,
        full_loads: r.io.full_loads,
        bytes_out: r.bytes_written,
        plan_ms: 0.0,
        exec_ms: r.duration.as_secs_f64() * 1e3,
    }
}

/// `recover_checkpoint`: effective save log → auto-recipe → merge →
/// commit, into `<run_root>/<name>`.
pub fn recover(
    run_root: &Path,
    cfg: &TrainerConfig,
    failure_step: u64,
    name: &str,
) -> SutResult<MergeInfo> {
    flat(llmt_train::recover_checkpoint(
        run_root,
        &cfg.model_config,
        failure_step,
        name,
    ))
    .map(|(_, r)| merge_info(&r))
}

/// The same recovery in its public pieces, timing planning (log, recipe,
/// `MergePlan::resolve`) apart from `execute_plan`. `interleaved` picks
/// `LoadPattern::ParityInterleaved` (Table 7's worst case).
pub fn recover_staged(
    run_root: &Path,
    cfg: &TrainerConfig,
    failure_step: u64,
    name: &str,
    interleaved: bool,
) -> SutResult<MergeInfo> {
    let t0 = Instant::now();
    let (log, _scan) = flat(llmt_ckpt::effective_save_log(run_root))?;
    let recipe = flat(llmtailor::autorecipe::recipe_from_log(
        &log,
        &cfg.model_config,
        run_root,
        failure_step,
        name,
    ))?;
    let plan = flat(llmtailor::MergePlan::resolve(&recipe))?;
    let plan_ms = t0.elapsed().as_secs_f64() * 1e3;
    let pattern = if interleaved {
        llmtailor::LoadPattern::ParityInterleaved
    } else {
        llmtailor::LoadPattern::Sequential
    };
    let t1 = Instant::now();
    let report = flat(llmtailor::execute_plan(
        &plan,
        llmt_ckpt::LoadMode::EagerFull,
        pattern,
    ))?;
    let mut info = merge_info(&report);
    info.plan_ms = plan_ms;
    info.exec_ms = t1.elapsed().as_secs_f64() * 1e3;
    Ok(info)
}

// ------------------------------------------------------------ maintenance

/// `prune_run`: delete checkpoints that are neither load-bearing nor
/// among the newest `keep_last`. Returns the pruned steps.
pub fn prune(run_root: &Path, cfg: &TrainerConfig, keep_last: usize) -> SutResult<Vec<u64>> {
    flat(llmtailor::prune_run(run_root, &cfg.model_config, keep_last))
}

/// `compact_run_on`: (objects rewritten, bytes of their replacements).
pub fn compact(storage: &dyn Storage, run_root: &Path, max_chain: usize) -> SutResult<(u64, u64)> {
    flat(llmtailor::gc::compact_run_on(storage, run_root, max_chain))
        .map(|r| (r.compacted as u64, r.bytes_after))
}

/// What a single-run GC pass did.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcInfo {
    pub live_objects: u64,
    pub swept_objects: u64,
    pub swept_bytes: u64,
}

/// `collect_garbage_on`.
pub fn collect_garbage(storage: &dyn Storage, run_root: &Path) -> SutResult<GcInfo> {
    let r = flat(llmtailor::gc::collect_garbage_on(storage, run_root))?;
    Ok(GcInfo {
        live_objects: r.sweep.live_objects as u64,
        swept_objects: r.sweep.deleted_objects as u64,
        swept_bytes: r.sweep.reclaimed_bytes,
    })
}

/// Footprint of a run's live checkpoints, from `du_run`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DuInfo {
    /// Bytes conventional full-file saves of the same checkpoints hold.
    pub logical_bytes: u64,
    /// Bytes actually held (objects once, plus unshared files).
    pub physical_bytes: u64,
    /// Bytes of the object store the run resolves to (shared under a
    /// daemon: covers every tenant).
    pub object_bytes: u64,
    pub delta_objects: u64,
    pub encoded_full_objects: u64,
    pub object_count: u64,
}

pub fn du(run_root: &Path) -> SutResult<DuInfo> {
    let r = flat(llmtailor::du_run(run_root))?;
    Ok(DuInfo {
        logical_bytes: r.logical_bytes,
        physical_bytes: r.physical_bytes,
        object_bytes: r.object_bytes,
        delta_objects: r.delta_objects as u64,
        encoded_full_objects: r.encoded_full_objects as u64,
        object_count: r.object_count as u64,
    })
}

// ------------------------------------------------------------------ tiers

/// `TierManager::open`: memory tier of `mem_capacity` bytes over `fs`,
/// no object tier, unthrottled drain (`drain_bw: 0.0`), real clock.
pub fn open_tiers(
    root: &Path,
    fs: Arc<dyn Storage>,
    mem_capacity: u64,
) -> SutResult<Arc<TierManager>> {
    let cfg = llmt_tier::TierConfig {
        mem_capacity: Some(mem_capacity),
        drain_bw: 0.0,
        ..llmt_tier::TierConfig::default()
    };
    flat(TierManager::open(
        root,
        fs,
        cfg,
        Arc::new(llmt_storage::vfs::SystemClock),
        llmt_obs::MetricsRegistry::new(),
    ))
}

/// `TierManager::drain_step`: move the oldest queued checkpoint one tier
/// down. `Ok(false)` when nothing is queued.
pub fn drain_step(tiers: &TierManager) -> SutResult<bool> {
    flat(tiers.drain_step()).map(|hop| hop.is_some())
}

/// `spawn_drainer`: the background thread that calls `drain_step`
/// whenever a hop is queued, polling every `poll` otherwise. Dropping
/// the handle stops and joins it.
pub fn spawn_drainer(tiers: &Arc<TierManager>, poll: std::time::Duration) -> DrainerHandle {
    llmt_tier::spawn_drainer(tiers.clone(), poll)
}

/// `TierManager::drain_all`.
pub fn drain_all(tiers: &TierManager) -> SutResult<()> {
    flat(tiers.drain_all()).map(|_| ())
}

/// Read-through view of the hierarchy (`TierManager::reader`).
pub fn tier_reader(tiers: &TierManager) -> Arc<dyn Storage> {
    Arc::new(tiers.reader())
}

/// What the tier manager reports about itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct TierInfo {
    pub pending_drains: u64,
    pub evictions: u64,
    pub mem_used: u64,
    pub read_promotions: u64,
    pub fallthroughs: u64,
}

pub fn tier_info(tiers: &TierManager) -> TierInfo {
    let s = tiers.status();
    let m = tiers.metrics();
    TierInfo {
        pending_drains: s.pending_drains as u64,
        evictions: s.evictions,
        mem_used: tiers.mem_used(),
        read_promotions: m.counter_value("tier.promote.count"),
        fallthroughs: m.counter_value("ckpt.place.fallthrough"),
    }
}

// ----------------------------------------------------------------- daemon

/// A running in-process daemon.
pub struct DaemonHandle(llmt_daemon::Daemon);

/// `Daemon::serve_on` over `storage`, socket at `socket`, background GC
/// and drain threads off (the workload issues `Gc` itself).
pub fn serve_daemon(
    storage: Arc<dyn Storage>,
    root: &Path,
    socket: &Path,
) -> SutResult<DaemonHandle> {
    let config = llmt_daemon::DaemonConfig {
        socket: Some(socket.to_path_buf()),
        gc_interval: None,
        drain_interval: None,
        ..llmt_daemon::DaemonConfig::default()
    };
    flat(llmt_daemon::Daemon::serve_on(
        storage,
        root,
        config,
        Arc::new(llmt_storage::vfs::SystemClock),
    ))
    .map(DaemonHandle)
}

/// Daemon-side numbers the server exposes.
#[derive(Debug, Clone, Copy, Default)]
pub struct DaemonInfo {
    pub admission_wait_ns: u64,
    pub admission_waits: u64,
    pub inflight_peak_bytes: u64,
    pub gc_deferred: u64,
}

impl DaemonHandle {
    pub fn socket(&self) -> PathBuf {
        self.0.socket().to_path_buf()
    }

    pub fn info(&self) -> DaemonInfo {
        let m = self.0.metrics();
        let s = self.0.status();
        DaemonInfo {
            admission_wait_ns: m.histogram_sum("coord.admission.wait"),
            admission_waits: m.histogram_count("coord.admission.wait"),
            inflight_peak_bytes: m.gauge("coord.inflight_bytes").peak(),
            gc_deferred: s.gc_deferred,
        }
    }

    /// Ordered clean shutdown; joins every daemon thread.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// What one guarded GC pass through the daemon did.
#[derive(Debug, Clone, Copy, Default)]
pub struct DaemonGc {
    pub live_objects: u64,
    pub swept_objects: u64,
    pub swept_bytes: u64,
}

/// One tenant's connection: `DaemonClient`, verb by verb.
pub struct Client(llmt_daemon::DaemonClient);

impl Client {
    pub fn connect(socket: &Path) -> SutResult<Client> {
        flat(llmt_daemon::DaemonClient::connect(socket)).map(Client)
    }

    pub fn ping(&mut self) -> SutResult<()> {
        flat(self.0.ping())
    }

    /// Open a publisher session declaring no bytes; returns its id.
    pub fn save_begin(&mut self, run: &str) -> SutResult<u64> {
        flat(self.0.save_begin(run, 0, true)).map(|(session, _root)| session)
    }

    pub fn save_commit(&mut self, session: u64, step: u64) -> SutResult<usize> {
        flat(self.0.save_commit(session, step))
    }

    pub fn save_abort(&mut self, session: u64) -> SutResult<()> {
        flat(self.0.save_abort(session))
    }

    /// Open a reader session; returns its id and the listed checkpoints.
    pub fn read_begin(&mut self, run: &str) -> SutResult<(u64, Vec<PathBuf>)> {
        flat(self.0.read_begin(run)).map(|(session, _epoch, listed)| (session, listed))
    }

    /// `verify(session, dir, deep = true)`: findings, empty when sound.
    pub fn verify_deep(&mut self, session: u64, dir: &Path) -> SutResult<Vec<String>> {
        let (ok, findings) = flat(self.0.verify(session, dir, true))?;
        Ok(if ok {
            Vec::new()
        } else if findings.is_empty() {
            vec!["not ok, no finding given".into()]
        } else {
            findings
        })
    }

    pub fn read_end(&mut self, session: u64) -> SutResult<()> {
        flat(self.0.read_end(session))
    }

    pub fn retire(&mut self, session: u64, step: u64) -> SutResult<()> {
        flat(self.0.retire(session, step))
    }

    pub fn status(&mut self) -> SutResult<()> {
        flat(self.0.status()).map(|_| ())
    }

    /// The `Gc` verb. `Ok(None)` when the daemon declined this time: a
    /// publisher was admitted (`GcDeferred`) or another pass was already
    /// running (`Busy`); both are the protocol working as designed.
    pub fn gc(&mut self) -> SutResult<Option<DaemonGc>> {
        match self.0.gc() {
            Ok(Some(s)) => Ok(Some(DaemonGc {
                live_objects: s.live_digests as u64,
                swept_objects: s.deleted_objects as u64,
                swept_bytes: s.reclaimed_bytes,
            })),
            Ok(None) => Ok(None),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Run roots the daemon keeps under its store root.
pub fn daemon_run_root(store_root: &Path, run: &str) -> PathBuf {
    store_root.join(llmt_coord::RUNS_DIR).join(run)
}

// ------------------------------------------------------------ cas probes

pub fn sha256(bytes: &[u8]) -> [u8; 32] {
    llmt_cas::Digest::of(bytes).0
}

pub fn lzss_compress(bytes: &[u8]) -> Vec<u8> {
    llmt_cas::codec::lzss_compress(bytes)
}

pub fn lzss_decompress(bytes: &[u8]) -> SutResult<Vec<u8>> {
    flat(llmt_cas::codec::lzss_decompress(bytes))
}

pub fn shuffle4(bytes: &[u8]) -> Vec<u8> {
    llmt_cas::codec::shuffle4(bytes)
}

pub fn xor_into(acc: &mut [u8], other: &[u8]) -> SutResult<()> {
    flat(llmt_cas::codec::xor_into(acc, other))
}

/// Object-store probe: put `images[0]` raw, then each later image as a
/// shuffled-LZSS XOR delta against its predecessor, and read the chain
/// back. Returns milliseconds for (raw put, median delta put,
/// materialize at depth 1, materialize at the deepest link) and the
/// compaction (ms, rewritten bytes) and sweep (ms) of the probe store.
pub fn store_probe(
    storage: &dyn Storage,
    root: &Path,
    images: &[Vec<u8>],
) -> SutResult<StoreProbe> {
    use llmt_cas::{Codec, Digest, ObjectStore};
    let store = ObjectStore::for_run_root(root);
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut out = StoreProbe::default();
    let first = images
        .first()
        .ok_or("store probe needs at least one image")?;
    let t0 = Instant::now();
    flat(store.put(storage, first))?;
    out.put_raw_ms = ms(t0);
    let mut delta_ms = crate::stats::Samples::default();
    let mut digests = vec![Digest::of(first)];
    for pair in images.windows(2) {
        let (base, next) = (&pair[0], &pair[1]);
        let t0 = Instant::now();
        let mut diff = next.clone();
        flat(llmt_cas::codec::xor_into(&mut diff, base))?;
        let payload = Codec::ShuffleLzss.encode(&diff);
        let digest = Digest::of(next);
        flat(store.put_delta(
            storage,
            digest,
            *digests.last().expect("seeded with the raw put"),
            base,
            Codec::ShuffleLzss,
            &payload,
        ))?;
        delta_ms.push(ms(t0));
        digests.push(digest);
    }
    out.put_delta_ms = delta_ms.median();
    out.chain_len = (digests.len() - 1) as u64;
    if digests.len() > 1 {
        let t0 = Instant::now();
        let got = flat(store.materialize(storage, digests[1]))?;
        out.materialize_chain1_ms = ms(t0);
        if got != images[1] {
            return Err("store probe: depth-1 object decoded to different bytes".into());
        }
        let t0 = Instant::now();
        let got = flat(store.materialize(storage, *digests.last().expect("non-empty")))?;
        out.materialize_chaincap_ms = ms(t0);
        if &got != images.last().expect("non-empty") {
            return Err("store probe: deepest object decoded to different bytes".into());
        }
    }
    let t0 = Instant::now();
    let compacted = flat(store.compact_chains(storage, 1))?;
    out.compact_ms = ms(t0);
    out.compact_rewritten_bytes = compacted.bytes_after;
    // Only the tip stays referenced: the sweep has real work to do.
    let live = std::collections::BTreeSet::from([*digests.last().expect("non-empty")]);
    let t0 = Instant::now();
    let swept = flat(store.sweep(storage, &live))?;
    out.sweep_ms = ms(t0);
    out.swept_objects = swept.deleted_objects as u64;
    Ok(out)
}

/// See [`store_probe`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreProbe {
    pub put_raw_ms: f64,
    pub put_delta_ms: f64,
    pub materialize_chain1_ms: f64,
    pub materialize_chaincap_ms: f64,
    pub chain_len: u64,
    pub compact_ms: f64,
    pub compact_rewritten_bytes: u64,
    pub sweep_ms: f64,
    pub swept_objects: u64,
}

/// One `append_event` of a small event on `storage`, in microseconds.
pub fn journal_append_probe(storage: &dyn Storage, path: &Path) -> SutResult<f64> {
    let ev = llmt_obs::RunEvent::new("probe", 0);
    let t0 = Instant::now();
    flat(llmt_obs::append_event(storage, path, &ev))?;
    Ok(t0.elapsed().as_secs_f64() * 1e6)
}

// ----------------------------------------------------------------- oracle

/// Topology-independent image of everything a checkpoint must bring
/// back: weights, gathered optimizer state per group, trainer counters.
#[derive(Debug, Clone, PartialEq)]
pub struct StateImage {
    pub step: u64,
    pub ckpt_event: u64,
    pub optimizer_step: u64,
    pub loss_history: Vec<(u64, f64)>,
    pub data_rng: llmt_tensor::rng::Prng,
    /// Parameter name → the tensor's BF16 bytes, the form checkpoints
    /// store weights in. (A frozen unit's live weights keep their
    /// unrounded f32 initial values while a resume rematerializes them
    /// from the masters through BF16, so the f32 values can differ where
    /// the stored form cannot.)
    pub weights: BTreeMap<String, Vec<u8>>,
    /// Group id → gathered (master, exp_avg, exp_avg_sq), pad dropped.
    pub groups: BTreeMap<usize, [Vec<f32>; 3]>,
}

/// A data RNG state for oracle tests that build a `StateImage` by hand.
#[cfg(test)]
pub fn data_rng(seed: u64) -> llmt_tensor::rng::Prng {
    llmt_tensor::rng::Prng::seed_from_u64(seed)
}

/// Capture `t`'s state. Optimizer shards are gathered through the
/// engine's own layouts, so images taken at dp=4 and dp=2 compare equal
/// exactly when the state is the same.
pub fn state_image(t: &Trainer) -> SutResult<StateImage> {
    let topo = t.engine.topology();
    let mut groups = BTreeMap::new();
    for (g, layout) in t.engine.groups().iter().zip(t.engine.layouts()) {
        let gather = |pick: fn(&llmt_zero::ShardState) -> &Vec<f32>| {
            let shards: Vec<Vec<f32>> = t
                .engine
                .ranks
                .iter()
                .map(|r| pick(&r.shards[g.id]).clone())
                .collect();
            flat(layout.gather_at(&topo, &shards))
        };
        groups.insert(
            g.id,
            [
                gather(|s| &s.master)?,
                gather(|s| &s.exp_avg)?,
                gather(|s| &s.exp_avg_sq)?,
            ],
        );
    }
    Ok(StateImage {
        step: t.step,
        ckpt_event: t.ckpt_event,
        optimizer_step: t.engine.step_count,
        loss_history: t.loss_history.clone(),
        data_rng: t.data_rng.clone(),
        weights: t
            .model
            .params
            .iter()
            .map(|(spec, x)| {
                (
                    spec.name.clone(),
                    x.to_raw(llmt_tensor::DType::BF16).bytes().to_vec(),
                )
            })
            .collect(),
        groups,
    })
}

/// Group ids and parameter names owned by `unit`.
pub fn unit_members(t: &Trainer, unit: LayerUnit) -> (Vec<usize>, Vec<String>) {
    let gids = t
        .engine
        .groups()
        .iter()
        .filter(|g| g.unit == Some(unit))
        .map(|g| g.id)
        .collect();
    let names = llmt_model::naming::unit_param_specs(&t.config.model_config, unit)
        .into_iter()
        .map(|s| s.name)
        .collect();
    (gids, names)
}

/// Bytes of optimizer state — the payload a delta save diffs — of the
/// largest trained groups of `t`, every rank concatenated, until at
/// least `min_bytes` are gathered (or the groups run out): the "unit
/// image" the codec and digest probes run on.
pub fn optimizer_image(t: &Trainer, min_bytes: usize) -> Vec<u8> {
    let frozen = &t.config.frozen_units;
    let mut groups: Vec<usize> = t
        .engine
        .groups()
        .iter()
        .filter(|g| g.unit.is_none_or(|u| !frozen.contains(&u)))
        .map(|g| g.id)
        .collect();
    // Largest first; ties by id so the choice repeats.
    groups.sort_by_key(|gid| {
        (
            std::cmp::Reverse(t.engine.ranks[0].shards[*gid].master.len()),
            *gid,
        )
    });
    let mut out = Vec::new();
    for gid in groups {
        if out.len() >= min_bytes {
            break;
        }
        for rank in &t.engine.ranks {
            let s = &rank.shards[gid];
            for v in [&s.master, &s.exp_avg, &s.exp_avg_sq] {
                out.extend(v.iter().flat_map(|x| x.to_le_bytes()));
            }
        }
    }
    out
}

/// The raw local-filesystem backend (`LocalFs`): what every `TraceFs`
/// wraps, and what the ceiling probes write through directly.
pub fn local_fs() -> llmt_storage::vfs::LocalFs {
    llmt_storage::vfs::LocalFs
}
