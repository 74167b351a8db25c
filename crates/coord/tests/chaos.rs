//! Multi-actor chaos sweeps over one shared checkpoint store.
//!
//! The acceptance scenario: 4 concurrent publishers + readers + a
//! collector against a single shared CAS under fault injection, asserting
//!
//! * zero swept-live objects — every digest referenced by a surviving
//!   committed checkpoint is still present and byte-identical,
//! * zero torn reads — surviving checkpoints pass `verify --deep`,
//! * the reader-drain timeout forces collector progress *without
//!   disrupting active readers* (a reader holding a retired checkpoint
//!   can still read every one of its objects after a forced sweep),
//! * kill points during a save never damage other runs' checkpoints.
//!
//! Determinism: one sweep drives a seeded single-threaded interleaving of
//! the actors (every schedule reproducible from its seed); a second runs
//! real threads for the acceptance shape; a third sweeps kill points
//! through a fault-injecting storage. Clocks are `ManualClock`, so drain
//! timeouts elapse instantly and nothing wall-sleeps.

use llmt_cas::{Digest, ObjectStore};
use llmt_ckpt::engine::{LiveState, SaveOptions};
use llmt_ckpt::writer::SaveRequest;
use llmt_ckpt::{scan_run_root, CheckpointPaths, TrainerState};
use llmt_coord::{CoordConfig, Coordinator};
use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
use llmt_storage::vfs::{
    Clock, FaultKind, FaultSpec, FaultyFs, LocalFs, ManualClock, RetryPolicy, RetryingStorage,
    Storage,
};
use llmt_tensor::rng::Prng;
use llmt_zero::ZeroEngine;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn make_state(cfg: &ModelConfig, seed: u64) -> (Model, ZeroEngine, TrainerState) {
    let mut model = Model::new(cfg.clone(), seed);
    let mut engine = ZeroEngine::new(
        &model.params,
        build_groups(cfg, GroupLayout::LayerWise),
        2,
        AdamWHyper::default(),
    );
    let mut rng = Prng::seed_from_u64(seed);
    let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
    let batch = Batch::new(tokens, 2, 8);
    let mut grads = ParamSet::zeros(cfg);
    model.loss_and_grad(&batch, &mut grads);
    engine.step(&mut model.params, &grads, 1e-3, true);
    let ts = TrainerState {
        global_step: 1,
        ckpt_event: 0,
        lr_schedule: LrSchedule::Constant { lr: 1e-3 },
        last_lr: 1e-3,
        loss_history: vec![(1, 3.0)],
        data_rng: Prng::seed_from_u64(seed),
        task: "chaos".into(),
        model_name: cfg.model_name.clone(),
        micro_batch: 2,
        grad_accum: 1,
        seq_len: 8,
    };
    (model, engine, ts)
}

fn test_config() -> CoordConfig {
    CoordConfig {
        save_slots: 2,
        max_inflight_bytes: 64 * 1024 * 1024,
        drain_timeout: Duration::from_millis(200),
    }
}

/// Every digest referenced by any committed checkpoint of any attached
/// run, read straight from the manifests on disk.
fn committed_digests(root: &Path) -> BTreeSet<Digest> {
    let mut out = BTreeSet::new();
    let runs = root.join(llmt_coord::RUNS_DIR);
    let Ok(rd) = std::fs::read_dir(&runs) else {
        return out;
    };
    for entry in rd.flatten() {
        for cp in &scan_run_root(&entry.path()).committed {
            let manifest = cp.manifest().expect("manifest parses");
            if let Some(refs) = &manifest.objects {
                for (_, obj) in refs.iter_all() {
                    out.insert(Digest::parse_hex(&obj.digest).expect("manifest digest"));
                }
            }
        }
    }
    out
}

/// The swept-live-object invariant: every committed checkpoint's objects
/// are present and hash back to their digest (no torn reads either).
fn assert_no_swept_live_objects(storage: &dyn Storage, root: &Path) {
    let store = ObjectStore::for_run_root(root);
    for digest in committed_digests(root) {
        let payload = store
            .get(storage, digest)
            .unwrap_or_else(|e| panic!("live object {} swept or unreadable: {e}", digest.to_hex()));
        assert_eq!(
            Digest::of(&payload),
            digest,
            "torn read: object {} does not hash to its name",
            digest.to_hex()
        );
    }
}

fn assert_survivors_verify_deep(storage: Arc<dyn Storage>, root: &Path) {
    let runs = root.join(llmt_coord::RUNS_DIR);
    for entry in std::fs::read_dir(&runs).expect("runs dir").flatten() {
        for cp in &scan_run_root(&entry.path()).committed {
            let report = llmt_ckpt::verify_checkpoint_on(storage.clone(), &cp.dir, true)
                .expect("verify runs");
            assert!(
                report.ok(),
                "{} failed deep verify: {:?}",
                cp.dir.display(),
                report.findings
            );
        }
    }
}

/// One publisher action: admit, save step `step`, drop the permit.
fn publish(
    coord: &Coordinator,
    run: &str,
    step: u64,
    cfg: &ModelConfig,
    model: &Model,
    engine: &ZeroEngine,
    ts: &TrainerState,
) {
    let session = coord.publisher(run, 1 << 20).expect("admit publisher");
    let units = LayerUnit::all(cfg);
    session
        .save(
            &SaveRequest {
                dir: &CheckpointPaths::under(session.run_root(), step).dir,
                step,
                source: &LiveState {
                    config: cfg,
                    params: &model.params,
                    engine,
                },
                trainer_state: ts,
                units: &units,
                metrics: &MetricsRegistry::new(),
                store: None,
                bases: None,
            },
            &SaveOptions::default(),
        )
        .expect("chaos save succeeds");
}

#[test]
fn seeded_interleavings_never_sweep_live_objects() {
    let cfg = ModelConfig::tiny_test();
    let (model, zero, ts) = make_state(&cfg, 13);
    for seed in [1u64, 2, 3, 4] {
        let dir = tempfile::tempdir().unwrap();
        let storage: Arc<dyn Storage> = Arc::new(LocalFs);
        let clock = Arc::new(ManualClock::default());
        let coord =
            Coordinator::open_on(storage.clone(), dir.path(), test_config(), clock).unwrap();
        let runs = ["run-a", "run-b", "run-c", "run-d"];
        let mut steps = [0u64; 4];
        let mut readers = Vec::new();
        let mut rng = Prng::seed_from_u64(seed);
        for _ in 0..40 {
            match rng.below(6) {
                // Publish the next step of a random run.
                0 | 1 => {
                    let r = rng.below(4);
                    steps[r] += 1;
                    publish(&coord, runs[r], steps[r], &cfg, &model, &zero, &ts);
                }
                // Retire a run's oldest checkpoint (if it has spares).
                2 => {
                    let r = rng.below(4);
                    let committed = scan_run_root(&coord.run_root(runs[r])).committed_steps();
                    if committed.len() > 1 {
                        let p = coord.publisher(runs[r], 1024).unwrap();
                        p.retire_checkpoint(committed[0]).unwrap();
                    }
                }
                // Begin or end a reader.
                3 => readers.push(coord.reader()),
                4 => {
                    if !readers.is_empty() {
                        let i = rng.below(readers.len());
                        readers.swap_remove(i);
                    }
                }
                // Collect. Readers may be active: forced progress.
                _ => {
                    let report = coord.collector().unwrap().collect().unwrap();
                    if !readers.is_empty() {
                        assert!(!report.drained, "seed {seed}: drain with active readers");
                    }
                    assert_no_swept_live_objects(&*storage, dir.path());
                }
            }
        }
        drop(readers);
        let report = coord.collector().unwrap().collect().unwrap();
        assert!(report.drained);
        assert_no_swept_live_objects(&*storage, dir.path());
        assert_survivors_verify_deep(storage.clone(), dir.path());
    }
}

#[test]
fn four_threaded_publishers_with_readers_and_collector() {
    let dir = tempfile::tempdir().unwrap();
    let storage: Arc<dyn Storage> = Arc::new(LocalFs);
    let clock = Arc::new(ManualClock::default());
    let coord = Coordinator::open_on(storage.clone(), dir.path(), test_config(), clock).unwrap();
    let cfg = ModelConfig::tiny_test();

    std::thread::scope(|scope| {
        for p in 0..4u64 {
            let coord = coord.clone();
            let cfg = cfg.clone();
            scope.spawn(move || {
                // Same seed across publishers: identical layer payloads, so
                // the four runs genuinely contend on shared objects.
                let (model, zero, ts) = make_state(&cfg, 13);
                let run = format!("run-{p}");
                for step in 1..=3u64 {
                    publish(&coord, &run, step, &cfg, &model, &zero, &ts);
                }
                // Withdraw the first checkpoint so the collector has real
                // reclamation to race against.
                let session = coord.publisher(&run, 1024).unwrap();
                session.retire_checkpoint(1).unwrap();
            });
        }
        for _ in 0..2 {
            let coord = coord.clone();
            let storage = storage.clone();
            scope.spawn(move || {
                for _ in 0..6 {
                    let reader = coord.reader();
                    for p in 0..4u64 {
                        for dir in reader.committed_checkpoints(&format!("run-{p}")) {
                            let report = reader.verify(&dir, false).expect("verify runs");
                            assert!(report.ok(), "torn read under concurrency: {dir:?}");
                        }
                    }
                    drop(reader);
                    std::thread::yield_now();
                }
                let _ = storage; // keep the Arc alive through the scope
            });
        }
        {
            let coord = coord.clone();
            scope.spawn(move || {
                for _ in 0..5 {
                    // The collector singleton may be busy from a previous
                    // iteration that is still sweeping — Busy is expected,
                    // deadlock is not.
                    if let Ok(collector) = coord.collector() {
                        collector.collect().expect("collect succeeds");
                    }
                    std::thread::yield_now();
                }
            });
        }
    });

    // Quiesced: final pass drains cleanly, survivors are intact.
    let report = coord.collector().unwrap().collect().unwrap();
    assert!(report.drained);
    assert_no_swept_live_objects(&*storage, dir.path());
    assert_survivors_verify_deep(storage, dir.path());
    // All 4 runs still have their two surviving checkpoints.
    for p in 0..4u64 {
        let steps = scan_run_root(&coord.run_root(&format!("run-{p}"))).committed_steps();
        assert_eq!(steps, vec![2, 3], "run-{p} lost a live checkpoint");
    }
    // The forked runs deduplicated against each other: all eight
    // survivors name the objects of one checkpoint, stored once each.
    let one_checkpoint: BTreeSet<Digest> = scan_run_root(&coord.run_root("run-0")).committed[0]
        .manifest()
        .unwrap()
        .objects
        .expect("coordinator saves carry object references")
        .iter_all()
        .map(|(_, o)| Digest::parse_hex(&o.digest).unwrap())
        .collect();
    assert_eq!(committed_digests(dir.path()), one_checkpoint);
    let store = ObjectStore::for_run_root(dir.path());
    assert_eq!(
        store.list(&LocalFs).unwrap().len(),
        one_checkpoint.len(),
        "the shared store holds something other than one copy of each live object"
    );
    // Admission held the declared bytes in flight under the budget.
    let peak = coord.metrics().gauge("coord.inflight_bytes").peak();
    assert!(
        peak > 0 && peak <= test_config().max_inflight_bytes,
        "peak in-flight bytes {peak}"
    );
}

/// ROADMAP item 4's first hazard: a collector that cannot *read* part of
/// the catalog — a committed checkpoint's `COMMIT` or manifest, a run
/// root's listing — must fail the pass, not census the checkpoint as
/// absent and sweep its objects. One transient `Interrupted` at every op
/// of a pass in turn, with no retry wrapper in between.
#[test]
fn a_collector_that_cannot_read_the_catalog_refuses_to_sweep() {
    let cfg = ModelConfig::tiny_test();
    // Three live checkpoints of distinct states plus the garbage of a
    // fourth whose directory is gone, then a collector from a fresh
    // process (no publisher pins) on `spec`-faulted storage.
    let scenario = |spec: FaultSpec| {
        let dir = tempfile::tempdir().unwrap();
        let clock = Arc::new(ManualClock::default());
        let coord =
            Coordinator::open_on(Arc::new(LocalFs), dir.path(), test_config(), clock.clone())
                .unwrap();
        for (run, step, seed) in [("run-a", 1, 13), ("run-a", 2, 14), ("run-b", 1, 15)] {
            let (model, zero, ts) = make_state(&cfg, seed);
            publish(&coord, run, step, &cfg, &model, &zero, &ts);
        }
        let (model, zero, ts) = make_state(&cfg, 16);
        publish(&coord, "run-c", 1, &cfg, &model, &zero, &ts);
        std::fs::remove_dir_all(coord.run_root("run-c").join("checkpoint-1")).unwrap();
        drop(coord);
        let objects_before = ObjectStore::for_run_root(dir.path())
            .list(&LocalFs)
            .unwrap()
            .len();

        let faulty = Arc::new(FaultyFs::new(LocalFs, spec));
        let outcome = Coordinator::open_on(faulty.clone(), dir.path(), test_config(), clock)
            .and_then(|coord| coord.collector()?.collect());
        (dir, objects_before, faulty.ops_attempted(), outcome)
    };

    let (dir, _, total_ops, clean) = scenario(FaultSpec::never());
    let clean = clean.expect("healthy pass");
    assert_eq!(clean.live_digests, committed_digests(dir.path()).len());
    assert!(clean.sweep.deleted_objects > 0, "setup produced no garbage");

    let mut refused = BTreeSet::new();
    for at_op in 0..total_ops {
        let (dir, objects_before, _, outcome) = scenario(FaultSpec {
            at_op,
            kind: FaultKind::Transient { failures: 1 },
        });
        // Whatever the fault hit, nothing live is gone.
        assert_no_swept_live_objects(&LocalFs, dir.path());
        assert_survivors_verify_deep(Arc::new(LocalFs), dir.path());
        assert_eq!(
            scan_run_root(&dir.path().join(llmt_coord::RUNS_DIR).join("run-a")).committed_steps(),
            vec![1, 2]
        );
        // A fault on a catalog read is the pass's typed error, and the
        // pass deleted nothing at all.
        let Err(llmt_coord::CoordError::Ckpt(llmt_ckpt::CkptError::Io(path, _))) = &outcome else {
            continue;
        };
        let name = path.file_name().unwrap().to_str().unwrap();
        let door = if name.starts_with("run-") {
            "listing"
        } else {
            name
        };
        refused.insert(door.to_string());
        let store = ObjectStore::for_run_root(dir.path());
        let objects = store.list(&LocalFs).unwrap().len();
        assert_eq!(objects, objects_before, "op {at_op}: swept blind");
    }
    let doors: Vec<&str> = refused.iter().map(String::as_str).collect();
    assert_eq!(doors, ["COMMIT", "listing", "partial_manifest.json"]);
}

#[test]
fn forced_progress_does_not_disturb_an_active_reader() {
    let dir = tempfile::tempdir().unwrap();
    let storage: Arc<dyn Storage> = Arc::new(LocalFs);
    let clock = Arc::new(ManualClock::default());
    let coord =
        Coordinator::open_on(storage.clone(), dir.path(), test_config(), clock.clone()).unwrap();
    let cfg = ModelConfig::tiny_test();
    let (model, zero, ts) = make_state(&cfg, 13);

    publish(&coord, "run-a", 1, &cfg, &model, &zero, &ts);
    let cp1 = coord.run_root("run-a").join("checkpoint-1");
    let pinned = {
        let paths = CheckpointPaths::under(&coord.run_root("run-a"), 1);
        let manifest = llmt_ckpt::read_seal(&LocalFs, &paths).manifest.unwrap();
        manifest
            .objects
            .unwrap()
            .iter_all()
            .map(|(_, o)| Digest::parse_hex(&o.digest).unwrap())
            .collect::<Vec<_>>()
    };
    assert!(!pinned.is_empty());

    // Reader begins while checkpoint-1 is live, then the publisher
    // retires it out from under them.
    let reader = coord.reader();
    {
        let session = coord.publisher("run-a", 1024).unwrap();
        session.retire_checkpoint(1).unwrap();
    }

    // The collector cannot drain (reader held) — the ManualClock makes the
    // timeout elapse instantly, so this is the forced-progress path.
    let report = coord.collector().unwrap().collect().unwrap();
    assert!(!report.drained, "drain should have timed out");
    assert_eq!(report.readers_at_sweep, 1);
    assert!(clock.sleeps() > 0, "drain must wait through the clock");
    assert!(report.reader_pinned_objects > 0);
    assert_eq!(report.retired_removed, 0, "reader-held dir must survive");

    // The active reader still sees every object of the retired checkpoint.
    for d in &pinned {
        let payload = reader
            .get_object(*d)
            .expect("reader-pinned object readable");
        assert_eq!(Digest::of(&payload), *d);
    }
    assert!(cp1.exists(), "retired dir removed under an active reader");

    // Once the reader ends, the next pass reclaims it.
    drop(reader);
    let report = coord.collector().unwrap().collect().unwrap();
    assert!(report.drained);
    assert_eq!(report.retired_removed, 1);
    assert!(!cp1.exists());
    assert_no_swept_live_objects(&*storage, dir.path());
}

#[test]
fn transient_faults_during_chaos_are_absorbed_by_retries() {
    let cfg = ModelConfig::tiny_test();
    let (model, zero, ts) = make_state(&cfg, 13);
    for at_op in [5u64, 40, 150] {
        let dir = tempfile::tempdir().unwrap();
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::default());
        let faulty = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op,
                kind: FaultKind::Transient { failures: 2 },
            },
        );
        let storage: Arc<dyn Storage> = Arc::new(RetryingStorage::new(
            faulty,
            RetryPolicy::default(),
            clock.clone(),
        ));
        let coord =
            Coordinator::open_on(storage.clone(), dir.path(), test_config(), clock).unwrap();
        publish(&coord, "run-a", 1, &cfg, &model, &zero, &ts);
        publish(&coord, "run-b", 1, &cfg, &model, &zero, &ts);
        coord.collector().unwrap().collect().unwrap();
        assert_no_swept_live_objects(&*storage, dir.path());
        assert_survivors_verify_deep(storage.clone(), dir.path());
    }
}

#[test]
fn kill_points_in_one_publisher_never_damage_other_runs() {
    let cfg = ModelConfig::tiny_test();
    let (model, zero, ts) = make_state(&cfg, 13);
    // Healthy baseline save into run-a, then a publisher for run-b writes
    // through its own handle onto the same directory tree (a killed
    // process, not a killed disk) and dies where `spec` says.
    let scenario = |spec: FaultSpec| {
        let dir = tempfile::tempdir().unwrap();
        let clock = Arc::new(ManualClock::default());
        let storage: Arc<dyn Storage> = Arc::new(LocalFs);
        let coord = Coordinator::open_on(storage.clone(), dir.path(), test_config(), clock.clone())
            .unwrap();
        publish(&coord, "run-a", 1, &cfg, &model, &zero, &ts);

        let doomed = Arc::new(FaultyFs::new(LocalFs, spec));
        let doomed_coord =
            Coordinator::open_on(doomed.clone(), dir.path(), test_config(), clock.clone()).unwrap();
        let outcome = doomed_coord
            .publisher("run-b", 1 << 20)
            .and_then(|session| {
                let units = LayerUnit::all(&cfg);
                session.save(
                    &SaveRequest {
                        dir: &CheckpointPaths::under(session.run_root(), 1).dir,
                        step: 1,
                        source: &LiveState {
                            config: &cfg,
                            params: &model.params,
                            engine: &zero,
                        },
                        trainer_state: &ts,
                        units: &units,
                        metrics: &MetricsRegistry::new(),
                        store: None,
                        bases: None,
                    },
                    &SaveOptions::default(),
                )
            });
        (dir, storage, coord, doomed.ops_attempted(), outcome)
    };

    // Census: the ops of an undisturbed publisher, so the kill points
    // below land inside the save however many ops it takes today.
    let (_dir, _, _, total_ops, clean) = scenario(FaultSpec::never());
    clean.expect("undisturbed publisher commits");
    assert!(
        total_ops > 8,
        "publisher used suspiciously few ops: {total_ops}"
    );

    for at_op in [1, total_ops / 4, total_ops / 2, total_ops - 1] {
        let (dir, storage, coord, _, outcome) = scenario(FaultSpec {
            at_op,
            kind: FaultKind::Crash,
        });
        assert!(
            outcome.is_err(),
            "kill point {at_op} of {total_ops} did not fire"
        );

        // Survivors are intact and GC tolerates the wreckage.
        coord.collector().unwrap().collect().unwrap();
        assert_no_swept_live_objects(&*storage, dir.path());
        assert_survivors_verify_deep(storage.clone(), dir.path());
        let steps = scan_run_root(&coord.run_root("run-a")).committed_steps();
        assert_eq!(steps, vec![1], "kill point {at_op} damaged run-a");
    }
}

#[test]
fn admission_queues_excess_publishers_with_visible_waits() {
    let dir = tempfile::tempdir().unwrap();
    let storage: Arc<dyn Storage> = Arc::new(LocalFs);
    let clock = Arc::new(ManualClock::default());
    let coord = Coordinator::open_on(
        storage,
        dir.path(),
        CoordConfig {
            save_slots: 1,
            max_inflight_bytes: 1 << 20,
            drain_timeout: Duration::from_millis(50),
        },
        clock,
    )
    .unwrap();

    let first = coord.publisher("run-a", 1024).unwrap();
    let waiter = {
        let coord = coord.clone();
        std::thread::spawn(move || {
            // Blocks until `first` drops, then succeeds.
            let session = coord.publisher("run-b", 1024).unwrap();
            session.run_root().to_path_buf()
        })
    };
    // Give the waiter time to reach the queue, then free the slot.
    std::thread::sleep(Duration::from_millis(50));
    drop(first);
    let run_root = waiter.join().expect("queued publisher completes");
    assert!(run_root.ends_with("runs/run-b"));
    // The wait is telemetry-visible.
    assert!(coord.metrics().histogram_count("coord.admission.wait") >= 2);
}
