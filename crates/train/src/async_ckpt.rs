//! Asynchronous (overlapped) checkpoint writing.
//!
//! The paper positions layer-wise selection as *orthogonal* to I/O-overlap
//! optimizations like DataStates-LLM ("the approaches are not mutually
//! exclusive", §5.1). This module demonstrates that composition: the
//! trainer captures a copy-on-write [`CowSnapshot`] (cloning only the
//! units mutated since the previous snapshot — the only blocking step)
//! and a background thread feeds it through the unified checkpoint
//! engine, so training overlaps with checkpoint I/O. Snapshots carry
//! whatever unit selection the active strategy produced — full, parity,
//! filtered, or dynamic — and whatever [`SaveOptions`] (dedup, chunking)
//! the trainer config implies.
//!
//! Failure handling lives in the engine's single failure path: an error
//! *or panic* during the staged write removes the `.tmp` staging
//! directory and surfaces as an `Err` from [`AsyncCheckpointer::poll`] /
//! [`AsyncCheckpointer::drain`] — the writer thread never takes training
//! down and never leaks staging debris.
//!
//! Consistency note: a crash between snapshot submission and write
//! completion loses that checkpoint (exactly as with any asynchronous
//! checkpointing scheme); recovery then falls back to the previous
//! covered state, which the save log only records after the write
//! succeeds.
//!
//! Because results arrive out of band, failures cannot be allowed to
//! evaporate when a caller never polls: every `Err` that passes through
//! [`AsyncCheckpointer::poll`] / [`AsyncCheckpointer::drain`] — and any
//! result still queued when the writer is dropped — is noted in a
//! last-error slot (surfaced by [`AsyncCheckpointer::take_last_error`]
//! and the next [`AsyncCheckpointer::submit`]) and counted on the
//! `ckpt.async.errors` metric.

use crate::snapshot::CowSnapshot;
use crossbeam::channel::{bounded, Receiver, Sender};
use llmt_ckpt::engine::{self, SaveOptions};
use llmt_ckpt::writer::{CheckpointReport, SaveRequest};
use llmt_ckpt::{CheckpointPaths, CkptError, Result, TrainerState};
use llmt_model::LayerUnit;
use llmt_obs::{Counter, MetricsRegistry};
use llmt_storage::vfs::{LocalFs, Storage};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

/// A snapshot job: everything the writer needs, owned. Built by
/// [`crate::trainer::Trainer::snapshot_job`].
pub struct SnapshotJob {
    /// Run root directory.
    pub root: PathBuf,
    /// Global step of the snapshot.
    pub step: u64,
    /// Copy-on-write capture of the units being saved.
    pub snapshot: CowSnapshot,
    /// Trainer state at the snapshot.
    pub trainer_state: TrainerState,
    /// Units to save.
    pub units: Vec<LayerUnit>,
    /// Engine options (dedup, chunk size, parallelism).
    pub options: SaveOptions,
    /// Wall-clock nanoseconds the trainer spent capturing the snapshot;
    /// folded into the report's stage timings on completion.
    pub snapshot_ns: u64,
}

enum Msg {
    Job(Box<SnapshotJob>),
    Shutdown,
}

/// Background checkpoint writer with a bounded queue (depth 2: one being
/// written, one waiting — deeper queues only add memory pressure).
#[derive(Debug)]
pub struct AsyncCheckpointer {
    tx: Sender<Msg>,
    done_rx: Receiver<(u64, Result<CheckpointReport>)>,
    worker: Option<JoinHandle<()>>,
    in_flight: usize,
    /// Message of the most recent failed write that passed through
    /// poll/drain (or was discovered at drop) and has not been taken yet.
    last_error: Option<String>,
    /// Run-wide count of async write failures (`ckpt.async.errors`).
    errors: Arc<Counter>,
}

impl AsyncCheckpointer {
    /// Spawn the writer thread against the local filesystem.
    pub fn new() -> Self {
        Self::with_storage(Arc::new(LocalFs))
    }

    /// Spawn the writer thread against an arbitrary [`Storage`] — the hook
    /// the fault-injection harness uses to tear writes mid-checkpoint.
    ///
    /// Failures (including panics inside the writer) never take the
    /// training process down: the engine converts them to `Err` results
    /// (cleaning up its staging directory either way), which come back
    /// from [`AsyncCheckpointer::poll`] / [`AsyncCheckpointer::drain`].
    pub fn with_storage(storage: Arc<dyn Storage>) -> Self {
        Self::with_storage_and_metrics(storage, &MetricsRegistry::new())
    }

    /// [`AsyncCheckpointer::with_storage`] sharing a run-wide metrics
    /// registry: the writer records `ckpt.save.*` stage spans into it and
    /// failures bump its `ckpt.async.errors` counter.
    pub fn with_storage_and_metrics(storage: Arc<dyn Storage>, metrics: &MetricsRegistry) -> Self {
        let (tx, rx) = bounded::<Msg>(2);
        let (done_tx, done_rx) = bounded::<(u64, Result<CheckpointReport>)>(64);
        let worker_metrics = metrics.clone();
        let worker = std::thread::Builder::new()
            .name("ckpt-writer".into())
            .spawn(move || {
                while let Ok(Msg::Job(job)) = rx.recv() {
                    let req = SaveRequest {
                        dir: &CheckpointPaths::under(&job.root, job.step).dir,
                        step: job.step,
                        source: &job.snapshot,
                        trainer_state: &job.trainer_state,
                        units: &job.units,
                        metrics: &worker_metrics,
                        store: None,
                        bases: None,
                    };
                    let result = engine::save(&[&*storage], &req, &job.options).map(|placed| {
                        let mut report = placed.report;
                        report.timings.snapshot_ns = job.snapshot_ns;
                        report
                    });
                    // If the receiver is gone the trainer was dropped; stop.
                    if done_tx.send((job.step, result)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn checkpoint writer");
        AsyncCheckpointer {
            tx,
            done_rx,
            worker: Some(worker),
            in_flight: 0,
            last_error: None,
            errors: metrics.counter("ckpt.async.errors"),
        }
    }

    /// Count a failed result and park its message in the last-error slot
    /// (newest failure wins — the older one was already counted).
    fn note_result(&mut self, result: &(u64, Result<CheckpointReport>)) {
        if let (step, Err(e)) = result {
            self.errors.incr();
            self.last_error = Some(format!("async save of step {step} failed: {e}"));
        }
    }

    /// The most recent failed write, if any, clearing the slot. Errors
    /// returned here were already yielded by poll/drain once (or found at
    /// drop); this is the backstop for callers that discarded them.
    pub fn take_last_error(&mut self) -> Option<CkptError> {
        self.last_error.take().map(CkptError::Format)
    }

    /// Queue a snapshot for writing. Blocks only if two snapshots are
    /// already queued (back-pressure against runaway memory use). Errors
    /// if the writer thread is gone instead of panicking — and surfaces
    /// any unconsumed previous failure first, so a caller that ignored a
    /// polled `Err` cannot keep submitting as if nothing happened.
    pub fn submit(&mut self, job: SnapshotJob) -> Result<()> {
        if let Some(e) = self.take_last_error() {
            return Err(e);
        }
        let step = job.step;
        self.tx.send(Msg::Job(Box::new(job))).map_err(|_| {
            CkptError::Format(format!(
                "checkpoint writer thread died before accepting the step-{step} snapshot"
            ))
        })?;
        self.in_flight += 1;
        Ok(())
    }

    /// Completed writes available right now (non-blocking).
    pub fn poll(&mut self) -> Vec<(u64, Result<CheckpointReport>)> {
        let mut out = Vec::new();
        while let Ok(done) = self.done_rx.try_recv() {
            self.in_flight -= 1;
            self.note_result(&done);
            out.push(done);
        }
        out
    }

    /// Wait for every queued write to finish and return all results. A
    /// dead writer thread surfaces as one terminal `Err` entry rather
    /// than a panic, so callers can report and keep training.
    pub fn drain(&mut self) -> Vec<(u64, Result<CheckpointReport>)> {
        let mut out = Vec::new();
        while self.in_flight > 0 {
            match self.done_rx.recv() {
                Ok(done) => {
                    self.in_flight -= 1;
                    self.note_result(&done);
                    out.push(done);
                }
                Err(_) => {
                    let done = (
                        0,
                        Err(CkptError::Format(
                            "checkpoint writer thread died with snapshots still queued".into(),
                        )),
                    );
                    self.note_result(&done);
                    out.push(done);
                    self.in_flight = 0;
                }
            }
        }
        out
    }

    /// Drain, then fail if any queued write failed (the terminal barrier
    /// for callers that need every snapshot durable — end of training, or
    /// a clean shutdown). Successful reports are returned in completion
    /// order; any failure, including one left over from an earlier
    /// unpolled batch, surfaces as the `Err`.
    pub fn wait_idle(&mut self) -> Result<Vec<(u64, CheckpointReport)>> {
        let mut done = Vec::new();
        for (step, result) in self.drain() {
            match result {
                Ok(report) => done.push((step, report)),
                Err(e) => {
                    // This very failure is being surfaced; clearing the
                    // slot keeps later submits from reporting it twice.
                    self.last_error = None;
                    return Err(e);
                }
            }
        }
        if let Some(e) = self.take_last_error() {
            return Err(e);
        }
        Ok(done)
    }

    /// Snapshots currently queued or being written.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }
}

impl Default for AsyncCheckpointer {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for AsyncCheckpointer {
    fn drop(&mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(w) = self.worker.take() {
            if w.join().is_err() {
                self.errors.incr();
            }
        }
        // Results nobody polled must still be counted: a failure that
        // reaches Drop unseen would otherwise vanish from the metrics.
        while let Ok(done) = self.done_rx.try_recv() {
            self.note_result(&done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{Trainer, TrainerConfig};
    use llmt_ckpt::{CheckpointHandle, LoadMode};

    fn snapshot_of(t: &mut Trainer, units: Vec<LayerUnit>, root: PathBuf) -> SnapshotJob {
        let mut job = t.snapshot_job(units).unwrap();
        job.root = root;
        job
    }

    #[test]
    fn async_write_equals_sync_write() {
        let dir_sync = tempfile::tempdir().unwrap();
        let dir_async = tempfile::tempdir().unwrap();
        let mut cfg = TrainerConfig::test_default(dir_sync.path().to_path_buf());
        cfg.ckpt_interval = 3;
        let mut t = Trainer::new(cfg.clone());
        t.train_until(3, None).unwrap(); // writes checkpoint-3 synchronously

        let mut ac = AsyncCheckpointer::new();
        let units = LayerUnit::all(&cfg.model_config);
        ac.submit(snapshot_of(
            &mut t,
            units.clone(),
            dir_async.path().to_path_buf(),
        ))
        .unwrap();
        let results = ac.drain();
        assert_eq!(results.len(), 1);
        let report = results[0].1.as_ref().unwrap();
        assert!(
            report.timings.snapshot_ns > 0,
            "snapshot capture time must be recorded"
        );

        // Bit-identical contents.
        let mut a =
            CheckpointHandle::open(&dir_sync.path().join("checkpoint-3"), LoadMode::EagerFull)
                .unwrap();
        let mut b =
            CheckpointHandle::open(&dir_async.path().join("checkpoint-3"), LoadMode::EagerFull)
                .unwrap();
        for unit in units {
            assert_eq!(a.unit_weights(unit).unwrap(), b.unit_weights(unit).unwrap());
        }
        for rank in 0..cfg.world_size {
            assert_eq!(
                a.rank_state_full(rank).unwrap(),
                b.rank_state_full(rank).unwrap()
            );
        }
    }

    #[test]
    fn snapshot_isolates_from_further_training() {
        // The snapshot must capture the state at submit time even though
        // training continues while the write happens.
        let dir = tempfile::tempdir().unwrap();
        let cfg = TrainerConfig::test_default(dir.path().to_path_buf());
        let mut t = Trainer::new(cfg.clone());
        t.train_until(2, None).unwrap();
        let frozen = t.model.params.clone();

        let mut ac = AsyncCheckpointer::new();
        let units = LayerUnit::all(&cfg.model_config);
        ac.submit(snapshot_of(&mut t, units, dir.path().to_path_buf()))
            .unwrap();
        t.train_until(6, None).unwrap(); // keep training during the write
        let results = ac.drain();
        results[0].1.as_ref().unwrap();

        let mut h =
            CheckpointHandle::open(&dir.path().join("checkpoint-2"), LoadMode::EagerFull).unwrap();
        for unit in LayerUnit::all(&cfg.model_config) {
            for (name, raw) in h.unit_weights(unit).unwrap() {
                let live = frozen.get(&name).unwrap();
                assert_eq!(&llmt_tensor::Tensor::from_raw(&raw), live, "{name}");
            }
        }
    }

    #[test]
    fn multiple_snapshots_complete_in_order() {
        let dir = tempfile::tempdir().unwrap();
        let cfg = TrainerConfig::test_default(dir.path().to_path_buf());
        let mut t = Trainer::new(cfg.clone());
        let mut ac = AsyncCheckpointer::new();
        for target in [1u64, 2, 3] {
            t.train_until(target, None).unwrap();
            ac.submit(snapshot_of(
                &mut t,
                LayerUnit::all(&cfg.model_config),
                dir.path().to_path_buf(),
            ))
            .unwrap();
        }
        let results = ac.drain();
        let steps: Vec<u64> = results.iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, vec![1, 2, 3]);
        assert_eq!(ac.in_flight(), 0);
        for (_, r) in results {
            r.unwrap();
        }
    }

    #[test]
    fn failed_write_is_reported_not_swallowed() {
        let cfg = TrainerConfig::test_default(PathBuf::from("/nonexistent-root/xyz"));
        let mut t = Trainer::new(cfg.clone());
        let mut ac = AsyncCheckpointer::new();
        ac.submit(snapshot_of(
            &mut t,
            LayerUnit::all(&cfg.model_config),
            PathBuf::from("/proc/definitely-not-writable/run"),
        ))
        .unwrap();
        let results = ac.drain();
        assert!(results[0].1.is_err());
    }

    #[test]
    fn injected_fault_surfaces_as_error_and_leaves_nothing_committed() {
        use llmt_storage::vfs::{FaultKind, FaultSpec, FaultyFs};

        let dir = tempfile::tempdir().unwrap();
        let cfg = TrainerConfig::test_default(dir.path().to_path_buf());
        let mut t = Trainer::new(cfg.clone());
        t.train_until(2, None).unwrap();

        // The storage dies mid-save: the write must come back as Err (no
        // panic, no hang) and the run root must hold no committed dir.
        let faulty: Arc<dyn Storage> = Arc::new(FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 4,
                kind: FaultKind::TornWrite {
                    keep_bytes: Some(10),
                },
            },
        ));
        let mut ac = AsyncCheckpointer::with_storage(faulty);
        ac.submit(snapshot_of(
            &mut t,
            LayerUnit::all(&cfg.model_config),
            dir.path().to_path_buf(),
        ))
        .unwrap();
        let results = ac.drain();
        assert_eq!(results.len(), 1);
        assert!(results[0].1.is_err(), "torn write must surface as Err");
        let scan = llmt_ckpt::scan_run_root(dir.path());
        assert!(scan.committed.is_empty(), "{scan:?}");
    }

    #[test]
    fn unconsumed_failures_block_submit_and_are_counted() {
        use llmt_storage::vfs::{FaultKind, FaultSpec, FaultyFs};

        let dir = tempfile::tempdir().unwrap();
        let cfg = TrainerConfig::test_default(dir.path().to_path_buf());
        let mut t = Trainer::new(cfg.clone());
        t.train_until(2, None).unwrap();

        let metrics = MetricsRegistry::new();
        let faulty: Arc<dyn Storage> = Arc::new(FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 4,
                kind: FaultKind::TornWrite {
                    keep_bytes: Some(10),
                },
            },
        ));
        let mut ac = AsyncCheckpointer::with_storage_and_metrics(faulty, &metrics);
        ac.submit(snapshot_of(
            &mut t,
            LayerUnit::all(&cfg.model_config),
            dir.path().to_path_buf(),
        ))
        .unwrap();
        // The caller polls, gets the Err back — and discards it. The
        // failure must not evaporate: it is counted and parked.
        let results = ac.drain();
        assert!(results[0].1.is_err());
        assert_eq!(metrics.counter_value("ckpt.async.errors"), 1);

        // The next submit surfaces the discarded failure.
        let err = ac
            .submit(snapshot_of(
                &mut t,
                LayerUnit::all(&cfg.model_config),
                dir.path().to_path_buf(),
            ))
            .unwrap_err();
        assert!(err.to_string().contains("step 2"), "{err}");

        // Slot cleared: submitting works again. The torn storage is dead,
        // so this save fails too — wait_idle is the terminal barrier that
        // refuses to report a clean shutdown.
        ac.submit(snapshot_of(
            &mut t,
            LayerUnit::all(&cfg.model_config),
            dir.path().to_path_buf(),
        ))
        .unwrap();
        ac.wait_idle().unwrap_err();
        assert_eq!(metrics.counter_value("ckpt.async.errors"), 2);
        assert!(
            ac.take_last_error().is_none(),
            "wait_idle must consume the failure it surfaced"
        );
    }

    #[test]
    fn wait_idle_returns_successes_in_completion_order() {
        let dir = tempfile::tempdir().unwrap();
        let cfg = TrainerConfig::test_default(dir.path().to_path_buf());
        let mut t = Trainer::new(cfg.clone());
        let mut ac = AsyncCheckpointer::new();
        for target in [1u64, 2] {
            t.train_until(target, None).unwrap();
            ac.submit(snapshot_of(
                &mut t,
                LayerUnit::all(&cfg.model_config),
                dir.path().to_path_buf(),
            ))
            .unwrap();
        }
        let done = ac.wait_idle().unwrap();
        let steps: Vec<u64> = done.iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, vec![1, 2]);
        assert_eq!(ac.in_flight(), 0);
    }

    #[test]
    fn failed_async_save_cleans_up_staging() {
        use llmt_storage::vfs::{FaultKind, FaultSpec, FaultyFs};

        let dir = tempfile::tempdir().unwrap();
        let cfg = TrainerConfig::test_default(dir.path().to_path_buf());
        let mut t = Trainer::new(cfg.clone());
        t.train_until(2, None).unwrap();

        // ENOSPC partway through staging: the storage stays alive (deletes
        // still work), so the engine's failure path must remove the `.tmp`
        // staging directory before reporting the error.
        let faulty: Arc<dyn Storage> = Arc::new(FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 5,
                kind: FaultKind::Permanent,
            },
        ));
        let mut ac = AsyncCheckpointer::with_storage(faulty);
        ac.submit(snapshot_of(
            &mut t,
            LayerUnit::all(&cfg.model_config),
            dir.path().to_path_buf(),
        ))
        .unwrap();
        let results = ac.drain();
        assert!(results[0].1.is_err(), "full disk must surface as Err");
        let leftovers: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            leftovers.iter().all(|n| !n.ends_with(".tmp")),
            "async save left tmp debris: {leftovers:?}"
        );
    }
}
