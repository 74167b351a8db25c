//! The trainer → daemon publish path: a real `Trainer` checkpoints
//! through a running `llmtailord` session instead of its private store,
//! and resuming from the daemon-held checkpoint is bit-exact.

use llmt_ckpt::engine::{Parallelism, SaveOptions};
use llmt_daemon::{Daemon, DaemonClient, DaemonConfig};
use llmt_storage::vfs::{FaultKind, FaultSpec, FaultyFs, LocalFs};
use llmt_train::{resume_trainer, Trainer, TrainerConfig};
use std::sync::Arc;
use std::time::Duration;

fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        // Background GC/drain off: this test drives the protocol
        // explicitly and must not race a sweep.
        gc_interval: None,
        drain_interval: None,
        tick: Duration::from_millis(5),
        ..DaemonConfig::default()
    }
}

#[test]
fn trainer_checkpoints_through_daemon_and_resume_is_bit_exact() {
    let store = tempfile::tempdir().unwrap();
    let private = tempfile::tempdir().unwrap();
    let daemon = Daemon::serve(store.path(), daemon_config()).unwrap();
    let mut client = DaemonClient::connect(daemon.socket()).unwrap();

    let cfg = TrainerConfig::test_default(private.path().to_path_buf());
    let mut t = Trainer::new(cfg.clone());
    t.train_until(3, None).unwrap();
    t.checkpoint_via_daemon(&mut client, "run-a").unwrap();
    t.train_until(5, None).unwrap();
    t.checkpoint_via_daemon(&mut client, "run-a").unwrap();

    // The daemon saw both commits and scans both checkpoints.
    let status = client.status().unwrap();
    assert_eq!(status.saves_committed, 2);
    assert_eq!(status.active_publishers, 0, "sessions must be retired");
    let tenant = status.runs.iter().find(|r| r.run == "run-a").unwrap();
    assert_eq!(tenant.committed_steps, vec![3, 5]);
    assert_eq!(tenant.saves_committed, 2);
    assert!(tenant.published_bytes > 0);

    // Deep-verify the newest checkpoint through a daemon reader session.
    let (session, _epoch, checkpoints) = client.read_begin("run-a").unwrap();
    let newest = checkpoints.last().cloned().unwrap();
    let (ok, findings) = client.verify(session, &newest, true).unwrap();
    assert!(
        ok,
        "daemon-held checkpoint failed deep verify: {findings:?}"
    );
    client.read_end(session).unwrap();

    // Resume from the daemon-held checkpoint: every weight tensor and
    // optimizer shard must match the live trainer bit for bit.
    let resumed_root = tempfile::tempdir().unwrap();
    let mut resume_cfg = cfg;
    resume_cfg.run_root = resumed_root.path().to_path_buf();
    let r = resume_trainer(&newest, resume_cfg).unwrap();
    assert_eq!(r.step, t.step);
    for ((spec, x), (_, y)) in r.model.params.iter().zip(t.model.params.iter()) {
        assert_eq!(x.data(), y.data(), "tensor {} diverged", spec.name);
    }
    assert_eq!(r.engine.step_count, t.engine.step_count);
    for rank in 0..r.engine.world_size {
        for (gx, gy) in r.engine.ranks[rank]
            .shards
            .iter()
            .zip(t.engine.ranks[rank].shards.iter())
        {
            assert_eq!(gx, gy, "optimizer shard diverged on rank {rank}");
        }
    }

    daemon.shutdown();
}

#[test]
fn failed_daemon_save_releases_its_session() {
    let store = tempfile::tempdir().unwrap();
    let private = tempfile::tempdir().unwrap();
    let daemon = Daemon::serve(store.path(), daemon_config()).unwrap();
    let mut client = DaemonClient::connect(daemon.socket()).unwrap();

    // A save that dies mid-write (fault injection) must abort its
    // daemon session so the admission budget frees for the next save.
    // The save stays on the calling thread, so op 5 is the same write
    // on every host.
    let cfg = TrainerConfig::test_default(private.path().to_path_buf());
    let spec = FaultSpec {
        at_op: 5,
        kind: FaultKind::Crash,
    };
    let mut t = Trainer::with_storage(cfg, Arc::new(FaultyFs::new(LocalFs, spec)));
    t.train_until(2, None).unwrap();
    let storage = t.storage().clone();
    let declared = t.declared_save_bytes();
    let opts = SaveOptions {
        parallelism: Parallelism::Sequential,
        ..SaveOptions::default()
    };
    t.checkpoint_with(|req| Ok(client.save(&*storage, "run-b", declared, req, &opts)?.0))
        .expect_err("fault-injected save must fail");

    let status = client.status().unwrap();
    assert_eq!(status.active_publishers, 0, "aborted session must release");
    assert_eq!(status.saves_committed, 0);

    daemon.shutdown();
}
