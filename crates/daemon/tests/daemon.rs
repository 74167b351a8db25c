//! Lifecycle tests for `llmtailord`: multi-client chaos (kill points ×
//! transient faults), clean shutdown, interrupted-drain resume, and
//! malformed requests/checkpoints — the daemon must answer every one of
//! them with a typed reply, never a panic.
//!
//! The harness mirrors `crates/coord/tests/chaos.rs`: tiny real model
//! states, fault-injecting storage on the *client* side (the daemon's
//! own store never lies), and the two store invariants asserted after
//! every sweep — zero swept-live objects, survivors verify deep.

use llmt_cas::{Digest, ObjectStore};
use llmt_ckpt::engine::{self, LiveState, SaveOptions};
use llmt_ckpt::writer::SaveRequest;
use llmt_ckpt::{scan_run_root, CheckpointPaths, TrainerState};
use llmt_coord::{CoordConfig, Coordinator};
use llmt_daemon::{Daemon, DaemonClient, DaemonConfig, Request, Response};
use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
use llmt_storage::vfs::{
    FaultKind, FaultSpec, FaultyFs, LocalFs, ManualClock, RetryPolicy, RetryingStorage, Storage,
};
use llmt_tensor::rng::Prng;
use llmt_zero::ZeroEngine;
use std::collections::BTreeSet;
use std::io::{Read, Write};
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
        task: "daemon-chaos".into(),
        model_name: cfg.model_name.clone(),
        micro_batch: 2,
        grad_accum: 1,
        seq_len: 8,
    };
    (model, engine, ts)
}

fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        coord: CoordConfig {
            save_slots: 2,
            max_inflight_bytes: 64 * 1024 * 1024,
            drain_timeout: Duration::from_millis(200),
        },
        socket: None,
        // Background tasks off by default; tests that want them opt in.
        gc_interval: None,
        drain_interval: None,
        tick: Duration::from_millis(5),
    }
}

/// One client-side save through a daemon session: admit, write the
/// checkpoint through `storage` into the granted run root (objects land
/// in the shared store via the `CASROOT` redirect), commit. On a save
/// error the session is deliberately *not* aborted — the caller drops
/// the connection, which is the kill-point semantics.
fn save_via_daemon(
    client: &mut DaemonClient,
    run: &str,
    step: u64,
    storage: &dyn Storage,
    cfg: &ModelConfig,
    state: &(Model, ZeroEngine, TrainerState),
) -> std::io::Result<()> {
    let (model, engine, ts) = state;
    let (session, run_root) = client.save_begin(run, 8 << 20, true)?;
    let units = LayerUnit::all(cfg);
    let req = SaveRequest {
        dir: &CheckpointPaths::under(&run_root, step).dir,
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
    };
    let opts = SaveOptions {
        dedup: true,
        ..SaveOptions::default()
    };
    engine::save(&[storage], &req, &opts).map_err(std::io::Error::other)?;
    client.save_commit(session, step)?;
    Ok(())
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
                "{} fails deep verify: {:?}",
                cp.dir.display(),
                report.findings
            );
        }
    }
}

/// The acceptance sweep: two concurrent client runs through one daemon,
/// one killed mid-save at each kill point (connection dropped with the
/// session open, no abort), the other riding out transient faults under
/// a retry wrapper. After every round a GC pass must run (the dead
/// client's session may not wedge the Dekker exclusion) and both store
/// invariants must hold.
#[test]
fn kill_point_sweep_through_daemon_never_sweeps_live_objects() {
    let cfg = ModelConfig::tiny_test();
    for kill_at in [1u64, 10, 60, 200] {
        let dir = tempfile::tempdir().unwrap();
        let root = dir.path().to_path_buf();
        let daemon = Daemon::serve(&root, daemon_config()).unwrap();
        let socket = daemon.socket().to_path_buf();

        let healthy = {
            let socket = socket.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                // Two consecutive EIO-like failures mid-save; the retry
                // wrapper (manual clock: no wall-sleep backoff) absorbs
                // them and every step commits.
                let spec = FaultSpec {
                    at_op: 40,
                    kind: FaultKind::Transient { failures: 2 },
                };
                let storage = RetryingStorage::new(
                    FaultyFs::with_seed(LocalFs, spec, 7),
                    RetryPolicy::default(),
                    Arc::new(ManualClock::default()),
                );
                let mut client = DaemonClient::connect(&socket).unwrap();
                for step in 1..=3u64 {
                    let state = make_state(&cfg, 100 + step);
                    save_via_daemon(&mut client, "healthy", step, &storage, &cfg, &state)
                        .expect("transient faults must be absorbed");
                }
            })
        };
        let victim = {
            let socket = socket.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                // The process-death model: at op `kill_at` the write
                // tears and every subsequent op fails. On the first
                // error the client is dropped with its session open.
                let spec = FaultSpec {
                    at_op: kill_at,
                    kind: FaultKind::TornWrite { keep_bytes: None },
                };
                let storage = FaultyFs::with_seed(LocalFs, spec, kill_at);
                let mut client = DaemonClient::connect(&socket).unwrap();
                for step in 1..=3u64 {
                    let state = make_state(&cfg, 200 + step);
                    if save_via_daemon(&mut client, "victim", step, &storage, &cfg, &state).is_err()
                    {
                        return; // killed: drop the connection mid-session
                    }
                }
            })
        };
        healthy.join().unwrap();
        victim.join().unwrap();

        // The dead client's session must have been retired on
        // disconnect, so a GC pass runs instead of deferring.
        let mut gc_client = DaemonClient::connect(&socket).unwrap();
        let mut summary = None;
        for _ in 0..200 {
            summary = gc_client.gc().unwrap();
            if summary.is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let summary = summary.expect("GC must eventually run after clients disconnect");
        assert!(summary.live_digests > 0, "healthy run keeps objects live");

        assert_no_swept_live_objects(&LocalFs, &root);
        assert_survivors_verify_deep(Arc::new(LocalFs), &root);
        let healthy_steps =
            scan_run_root(&root.join(llmt_coord::RUNS_DIR).join("healthy")).committed_steps();
        assert_eq!(
            healthy_steps,
            vec![1, 2, 3],
            "kill point {kill_at}: healthy run lost commits"
        );

        let status = gc_client.status().unwrap();
        assert_eq!(status.active_publishers, 0, "kill point {kill_at}");
        daemon.shutdown();
        assert!(!socket.exists(), "socket file must be removed on shutdown");
    }
}

#[test]
fn clean_shutdown_retires_sessions_and_leaves_no_residue() {
    let dir = tempfile::tempdir().unwrap();
    let root = dir.path().to_path_buf();
    let cfg = ModelConfig::tiny_test();
    let daemon = Daemon::serve(&root, daemon_config()).unwrap();
    let socket = daemon.socket().to_path_buf();

    let mut saver = DaemonClient::connect(&socket).unwrap();
    for step in 1..=2u64 {
        let state = make_state(&cfg, step);
        save_via_daemon(&mut saver, "r1", step, &LocalFs, &cfg, &state).unwrap();
    }
    // Leave a publisher session and a reader session open across the
    // shutdown: both must be retired by the daemon, not leaked.
    let mut holder = DaemonClient::connect(&socket).unwrap();
    let _ = holder.save_begin("r1", 1 << 20, true).unwrap();
    let _ = holder.read_begin("r1").unwrap();

    let mut ctl = DaemonClient::connect(&socket).unwrap();
    ctl.shutdown().unwrap();
    daemon.join();

    assert!(!socket.exists(), "socket removed");
    assert!(
        !root.join(llmt_coord::GC_LOCK_FILE).exists(),
        "no stale collector lock"
    );
    let mut residue = Vec::new();
    let mut stack = vec![root.clone()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap().flatten() {
            let p = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".part") || name.ends_with(".tmp") {
                residue.push(p.clone());
            }
            if p.is_dir() {
                stack.push(p);
            }
        }
    }
    assert!(residue.is_empty(), "staging residue survived: {residue:?}");

    // The root restarts cleanly: no orphaned sessions, both commits
    // visible.
    let daemon2 = Daemon::serve(&root, daemon_config()).unwrap();
    let mut client = DaemonClient::connect(daemon2.socket()).unwrap();
    let status = client.status().unwrap();
    assert_eq!(status.active_publishers, 0);
    assert_eq!(status.active_readers, 0);
    let tenant = status.runs.iter().find(|t| t.run == "r1").unwrap();
    assert_eq!(tenant.committed_steps, vec![1, 2]);
    daemon2.shutdown();
}

/// A run saved through a tiered store with its drain queue still full,
/// then abandoned (crash model). The daemon's background drain thread
/// must pick the WAL up and flush every pending hop to the object tier.
#[test]
fn daemon_resumes_an_interrupted_tier_drain() {
    use llmt_tier::{ObjectTierConfig, TierConfig, TierManager};

    let dir = tempfile::tempdir().unwrap();
    let root = dir.path().to_path_buf();
    let coord = Coordinator::open(&root).unwrap();
    let run_root = coord.attach_run("tiered").unwrap();
    drop(coord);

    // Fs + object tiers, zero drain bandwidth charge on a manual clock:
    // the saves land on fs with their object-tier hops queued, then the
    // manager is dropped without draining — the interrupted-drain WAL.
    let tier_cfg = TierConfig {
        mem_capacity: None,
        mem_model: None,
        object: Some(ObjectTierConfig::default()),
        drain_bw: 0.0,
        evict_high_water: 0.75,
    };
    let mgr = TierManager::open(
        &run_root,
        Arc::new(LocalFs),
        tier_cfg,
        Arc::new(ManualClock::default()),
        llmt_obs::MetricsRegistry::new(),
    )
    .unwrap();
    let cfg = ModelConfig::tiny_test();
    let units = LayerUnit::all(&cfg);
    for step in 1..=2u64 {
        let (model, engine, ts) = make_state(&cfg, step);
        mgr.save(
            &SaveRequest {
                dir: &CheckpointPaths::under(&run_root, step).dir,
                step,
                source: &LiveState {
                    config: &cfg,
                    params: &model.params,
                    engine: &engine,
                },
                trainer_state: &ts,
                units: &units,
                metrics: &MetricsRegistry::new(),
                store: None,
                bases: None,
            },
            &SaveOptions::default(),
        )
        .unwrap();
    }
    assert!(
        mgr.pending_drains() > 0,
        "saves must queue object-tier hops"
    );
    drop(mgr);

    let mut config = daemon_config();
    config.drain_interval = Some(Duration::from_millis(10));
    let daemon = Daemon::serve(&root, config).unwrap();
    let mut client = DaemonClient::connect(daemon.socket()).unwrap();

    let mut pending = usize::MAX;
    for _ in 0..1500 {
        let status = client.status().unwrap();
        pending = status.drain_pending;
        if pending == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(pending, 0, "daemon must flush the interrupted drain WAL");
    let (hops, _) = client.drain("tiered").unwrap();
    assert_eq!(hops, 0, "nothing left to drain");
    let object_dir = run_root
        .join(llmt_tier::TIER_DIR)
        .join(llmt_tier::OBJECT_DIR);
    assert!(
        std::fs::read_dir(&object_dir)
            .map(|rd| rd.count() > 0)
            .unwrap_or(false),
        "drained files must exist on the object tier"
    );
    let status = client.status().unwrap();
    let tenant = status.runs.iter().find(|t| t.run == "tiered").unwrap();
    assert!(
        tenant.lost_on_crash.is_empty(),
        "{:?}",
        tenant.lost_on_crash
    );
    daemon.shutdown();
}

/// Satellite: the read-path panic sweep, driven through the daemon API.
/// Malformed checkpoints (absurd safetensors header length, truncated
/// payload) and malformed protocol lines must come back as typed
/// replies; the daemon answers the next request as if nothing happened.
#[test]
fn malformed_checkpoints_and_requests_get_typed_replies() {
    let dir = tempfile::tempdir().unwrap();
    let root = dir.path().to_path_buf();
    let cfg = ModelConfig::tiny_test();
    let daemon = Daemon::serve(&root, daemon_config()).unwrap();
    let socket = daemon.socket().to_path_buf();

    let mut client = DaemonClient::connect(&socket).unwrap();
    let state = make_state(&cfg, 5);
    save_via_daemon(&mut client, "m", 1, &LocalFs, &cfg, &state).unwrap();

    // A daemon save is a dedup save: its payload files are the per-unit
    // and per-(rank, group) links under `units/` and `global_step1/`.
    let ckpt = CheckpointPaths::under(&root.join(llmt_coord::RUNS_DIR).join("m"), 1);
    let mut payloads: Vec<_> = ckpt
        .files_on(&LocalFs)
        .unwrap()
        .into_iter()
        .map(|(path, _)| path)
        .filter(|p| p.extension().is_some_and(|e| e == "safetensors"))
        .collect();
    payloads.sort();
    assert!(payloads.len() >= 2, "need two payload files to corrupt");
    // Corruption A: header length prefix of all-0xFF — near-usize::MAX,
    // the overflow case the bounds check must reject, not wrap past.
    {
        use std::os::unix::fs::FileExt;
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&payloads[0])
            .unwrap();
        f.write_all_at(&[0xFF; 8], 0).unwrap();
    }
    // Corruption B: file truncated below the 8-byte length prefix.
    {
        let bytes = std::fs::read(&payloads[1]).unwrap();
        std::fs::write(&payloads[1], &bytes[..4.min(bytes.len())]).unwrap();
    }

    let (session, _, checkpoints) = client.read_begin("m").unwrap();
    let newest = checkpoints.last().cloned().unwrap();
    let resp = client
        .request(&Request::Verify {
            session,
            dir: newest.display().to_string(),
            deep: true,
        })
        .unwrap();
    match resp {
        Response::Verified { ok, .. } => assert!(!ok, "corrupt checkpoint cannot verify"),
        Response::Err { .. } => {}
        other => panic!("expected a typed failure, got {other:?}"),
    }
    // The daemon survived; the same connection keeps working.
    client.ping().unwrap();

    // A verify outside the daemon's root is refused, not served.
    let resp = client
        .request(&Request::Verify {
            session,
            dir: "/etc".into(),
            deep: false,
        })
        .unwrap();
    assert!(
        matches!(resp, Response::Err { .. }),
        "outside-root path must be refused: {resp:?}"
    );
    client.read_end(session).unwrap();

    // A line of garbage is a typed protocol error on the same
    // connection, and the next well-formed request still answers.
    {
        let mut raw = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        raw.write_all(b"this is not json\n").unwrap();
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            raw.read_exact(&mut byte).unwrap();
            if byte[0] == b'\n' {
                break;
            }
            buf.push(byte[0]);
        }
        let line = String::from_utf8(buf).unwrap();
        assert!(line.contains("malformed request"), "{line}");
        raw.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
        let mut buf = Vec::new();
        loop {
            raw.read_exact(&mut byte).unwrap();
            if byte[0] == b'\n' {
                break;
            }
            buf.push(byte[0]);
        }
        let line = String::from_utf8(buf).unwrap();
        assert!(line.contains("pong"), "{line}");
    }

    daemon.shutdown();
}
