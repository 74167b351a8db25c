//! `daemon_tenants`: two training runs sharing one resident daemon.
//!
//! An in-process `Daemon::serve_on`, two tenant threads, each with its
//! own `DaemonClient` (`sut::Client`), trainer (`llama32_1b_sim`, dp=2) and `TraceFs`.
//! Both tenants start from the same weights with the same frozen
//! backbone, so their saves dedup across runs in the shared store. A
//! tenant iteration is ping → step → ping → `checkpoint_via_daemon`;
//! every fifth iteration also opens a reader session, deep-verifies the
//! newest checkpoint through it, resumes it (one tenant at a time, see
//! `RESUME_TURN`), and retires every step
//! more than four back (so each run keeps a bounded live set and `Gc`
//! has directories and objects to reclaim); every eighth commit asks for
//! an explicit `Gc`, which the daemon defers while the other tenant is
//! mid-save.

use super::{audit_committed, bound_bytes, ms_since, resume_cfg, set_up};
use crate::bench::{Bench, Recorder};
use crate::oracle;
use crate::sut::{
    self, Client, DaemonHandle, ModelSize, StateImage, SutResult, Trainer, TrainerConfig,
};
use crate::tracefs::TraceFs;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

const TENANTS: usize = 2;
const SAVES_PER_ROUND: u64 = 5;
const RETIRE_LAG: u64 = 4;
const GC_EVERY: u64 = 8;
/// Rounds each tenant runs inside the count window.
const COUNT_ROUNDS: u32 = 2;
/// Held by the tenant that is resuming and checking a checkpoint. A
/// resumed trainer beside the bench's own reference copy is the largest
/// transient of an iteration, and both tenants reach it in the same
/// iteration: whether they overlapped decided `peak_rss_mb` and whether
/// the timed resume had company. Taking turns here (the wait is inside
/// no timed op) leaves the saves, the daemon's sessions and `Gc` to
/// contend as before.
static RESUME_TURN: Mutex<()> = Mutex::new(());

struct Tenant {
    run: String,
    fs: Arc<TraceFs>,
    cfg: TrainerConfig,
    trainer: Trainer,
    client: Client,
    /// Where the daemon keeps this run's checkpoints.
    store_run_root: PathBuf,
    refs: BTreeMap<u64, StateImage>,
    /// Steps withdrawn from service; `Gc` removes them when it can.
    retired: Vec<u64>,
    commits: u64,
}

struct State {
    dir: PathBuf,
    daemon_fs: Arc<TraceFs>,
    tenants: Vec<Tenant>,
    /// Last: the daemon is shut down after the clients are gone.
    daemon: Option<DaemonHandle>,
}

impl Drop for State {
    fn drop(&mut self) {
        self.tenants.clear();
        if let Some(d) = self.daemon.take() {
            d.shutdown();
        }
    }
}

fn build(b: &mut Bench, dir: &Path) -> SutResult<State> {
    let store_root = dir.join("store");
    std::fs::create_dir_all(&store_root).map_err(|e| e.to_string())?;
    let daemon_fs = b.local_fs();
    let daemon = sut::serve_daemon(daemon_fs.clone(), &store_root, &dir.join("d.sock"))?;
    let mut tenants = Vec::new();
    for i in 0..TENANTS {
        let run = format!("tenant{i}");
        let fs = b.local_fs();
        // Same model seed (shared backbone), different data streams.
        let mut cfg =
            sut::trainer_config(b.size(ModelSize::Sim1b), 2, &dir.join(&run), b.args.seed);
        cfg.data_seed = cfg.data_seed.wrapping_add(i as u64 + 1);
        cfg.frozen_units = sut::frozen_lower(sut::num_layers(&cfg) / 2);
        // The trainer keeps its save log and journal under its private
        // run root; the checkpoints themselves land in the daemon's store.
        std::fs::create_dir_all(&cfg.run_root).map_err(|e| e.to_string())?;
        let mut trainer = sut::new_trainer(cfg.clone(), fs.clone());
        let t0 = Instant::now();
        let mut client = Client::connect(&daemon.socket())?;
        b.rec
            .book
            .sample("daemon.connect_us", t0.elapsed().as_secs_f64() * 1e6);
        sut::step(&mut trainer);
        let image = sut::state_image(&trainer)?;
        sut::save_via_daemon(&mut trainer, &mut client, &run)?;
        let store_run_root = sut::daemon_run_root(&store_root, &run);
        sut::resume(
            fs.clone(),
            &sut::checkpoint_dir(&store_run_root, trainer.step),
            resume_cfg(&cfg, dir),
        )?;
        let refs = BTreeMap::from([(trainer.step, image)]);
        tenants.push(Tenant {
            run,
            fs,
            cfg,
            trainer,
            client,
            store_run_root,
            refs,
            retired: Vec::new(),
            commits: 1,
        });
    }
    Ok(State {
        dir: dir.to_path_buf(),
        daemon_fs,
        tenants,
        daemon: Some(daemon),
    })
}

/// Time one control call; failures are counted, successes booked in µs.
fn ctl<T>(
    rec: &mut Recorder,
    metric: &'static str,
    what: &str,
    call: impl FnOnce() -> SutResult<T>,
) -> Option<T> {
    let t0 = Instant::now();
    let out = rec.tally.attempt(what, call());
    if out.is_some() {
        rec.book.sample(metric, t0.elapsed().as_secs_f64() * 1e6);
    }
    out
}

fn ping(rec: &mut Recorder, t: &mut Tenant) {
    let op = rec.begin("control", &[]);
    ctl(rec, "ctl_rtt_us", "ping", || t.client.ping());
    rec.end(op, "ping", 0);
}

fn tenant_round(rec: &mut Recorder, t: &mut Tenant, dir: &Path) {
    for i in 0..SAVES_PER_ROUND {
        ping(rec, t);
        rec.advance(&mut t.trainer);
        let Some(image) = rec
            .tally
            .attempt("capture reference", sut::state_image(&t.trainer))
        else {
            return;
        };
        let step = t.trainer.step;
        ping(rec, t);
        let op = rec.begin("save", &[&t.fs]);
        let saved = rec.tally.attempt(
            "checkpoint_via_daemon",
            sut::save_via_daemon(&mut t.trainer, &mut t.client, &t.run),
        );
        let done = rec.end(op, &format!("{}/checkpoint-{step}", t.run), 0);
        let Some(info) = saved else { return };
        rec.book.sample("save_blocked_ms", done.ms);
        rec.book.sample("save_durable_ms", done.ms);
        rec.note_saved(info.logical_bytes, done.ms / 1e3);
        rec.note_save(&done, &info);
        t.refs.insert(step, image);
        t.commits += 1;

        if t.commits.is_multiple_of(GC_EVERY) {
            ping(rec, t);
            let op = rec.begin("gc", &[]);
            let t0 = Instant::now();
            let pass = rec.tally.attempt("Gc", t.client.gc());
            rec.end(op, "Gc", 0);
            // A declined pass (`Some(None)`) is counted daemon-side, as
            // `coord.gc_deferred`.
            if let Some(Some(summary)) = pass {
                rec.book.sample("gc_pass_ms", ms_since(t0));
                rec.book
                    .sample("core.gc.swept_objects", summary.swept_objects as f64);
                rec.book
                    .sample("core.gc.swept_bytes", summary.swept_bytes as f64);
                rec.book
                    .sample("core.gc.live_objects", summary.live_objects as f64);
            }
        }

        if i + 1 == SAVES_PER_ROUND {
            reader_session(rec, t, dir, step);
            ping(rec, t);
            retire_through(rec, t, step.saturating_sub(RETIRE_LAG));
        }
    }
}

/// `read_begin` → `verify(deep)` of the newest checkpoint → `read_end`,
/// then a resume of it through the tenant's own storage.
fn reader_session(rec: &mut Recorder, t: &mut Tenant, dir: &Path, step: u64) {
    ping(rec, t);
    let op = rec.begin("control", &[]);
    let begun = ctl(rec, "daemon.read_begin_us", "read_begin", || {
        t.client.read_begin(&t.run)
    });
    if let Some((session, listed)) = begun {
        let ckpt = sut::checkpoint_dir(&t.store_run_root, step);
        rec.tally.check(listed.contains(&ckpt), || {
            format!("read_begin does not list {}", ckpt.display())
        });
        let t0 = Instant::now();
        let verified = rec
            .tally
            .attempt("verify", t.client.verify_deep(session, &ckpt));
        rec.book.sample("daemon.verify_ms", ms_since(t0));
        if let Some(findings) = verified {
            rec.tally.check(findings.is_empty(), || {
                format!(
                    "daemon deep verify of {}/checkpoint-{step}: {findings:?}",
                    t.run
                )
            });
        }
        rec.tally.attempt("read_end", t.client.read_end(session));
    }
    rec.end(op, "reader session", 0);
    ctl(rec, "daemon.status_us", "status", || t.client.status());

    let _turn = RESUME_TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let ckpt = sut::checkpoint_dir(&t.store_run_root, step);
    let want = &t.refs[&step];
    let op = rec.begin("restore", &[&t.fs]);
    let resumed = rec.tally.attempt(
        "resume",
        sut::resume(t.fs.clone(), &ckpt, resume_cfg(&t.cfg, dir)),
    );
    let done = rec.end(op, &format!("{}/checkpoint-{step}", t.run), 0);
    if let Some(resumed) = resumed {
        rec.book.sample("restore_ms", done.ms);
        rec.note_restore(&done, bound_bytes(want));
        if let Some(got) = rec
            .tally
            .attempt("image of resumed trainer", sut::state_image(&resumed))
        {
            oracle::expect_same(
                &mut rec.tally,
                &format!("resume of {}/checkpoint-{step}", t.run),
                &got,
                want,
            );
        }
    }
    if rec.tracer.enabled() {
        if let Some(info) = rec.tally.attempt(
            "restore stages",
            sut::restore_stages(t.fs.clone(), &ckpt, &t.cfg),
        ) {
            rec.note_restore_stages(&done, &info);
        }
    }
}

/// Retire every live step up to `last` through one publisher session
/// opened for the purpose.
fn retire_through(rec: &mut Recorder, t: &mut Tenant, last: u64) {
    let steps: Vec<u64> = t.refs.range(..=last).map(|(s, _)| *s).collect();
    if steps.is_empty() {
        return;
    }
    let op = rec.begin("control", &[]);
    if let Some(session) = ctl(rec, "daemon.save_begin_us", "save_begin (retire)", || {
        t.client.save_begin(&t.run)
    }) {
        for step in steps {
            if rec
                .tally
                .attempt("retire", t.client.retire(session, step))
                .is_some()
            {
                t.refs.remove(&step);
                t.retired.push(step);
            }
        }
        rec.tally
            .attempt("save_abort", t.client.save_abort(session));
    }
    rec.end(
        op,
        &format!("retire {} through checkpoint-{last}", t.run),
        0,
    );
}

/// The control-plane share of a save, measured apart: a publisher
/// session opened and committed with nothing new to publish.
fn commit_probe(rec: &mut Recorder, t: &mut Tenant) {
    let step = t.trainer.step;
    if let Some(session) = ctl(rec, "daemon.save_begin_us", "save_begin", || {
        t.client.save_begin(&t.run)
    }) {
        ctl(rec, "daemon.save_commit_us", "save_commit", || {
            t.client.save_commit(session, step)
        });
    }
}

/// Every tenant on its own thread (closed loop, one connection each),
/// running rounds from number `from` while `go(rounds done)` holds.
/// Returns what each recorded. A traced run records spans in odd rounds;
/// tenant 0 flips the flag both see.
fn run_tenants(
    b: &Bench,
    s: &mut State,
    from: u32,
    go: &(dyn Fn(u32) -> bool + Sync),
) -> Vec<Recorder> {
    let dir = &s.dir;
    let mut recs = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .tenants
            .iter_mut()
            .map(|t| {
                let mut rec = Recorder::new(b.rec.tracer.clone());
                scope.spawn(move || {
                    let mut rounds = from;
                    while go(rounds) {
                        if t.run == "tenant0" {
                            rec.tracer.set_enabled(b.args.trace && rounds % 2 == 1);
                        }
                        tenant_round(&mut rec, t, dir);
                        rounds += 1;
                    }
                    rec
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(rec) => recs.push(rec),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    b.rec.tracer.set_enabled(b.args.trace);
    recs
}

/// Footprint with both tenants idle: one `Gc` pass nothing defers, then
/// the shared store once plus each run's unshared files.
fn footprint(b: &mut Bench, s: &mut State) {
    let swept = b.rec.tally.attempt("Gc", s.tenants[0].client.gc());
    b.rec.tally.check(matches!(swept, Some(Some(_))), || {
        "the daemon declined a Gc pass with no save in flight".into()
    });
    let mut shared_objects = 0;
    for t in &s.tenants {
        if let Some(du) = b.rec.tally.attempt("du_run", sut::du(&t.store_run_root)) {
            shared_objects = du.object_bytes;
            b.rec.totals.stored_physical += du.physical_bytes - du.object_bytes;
            b.rec.totals.stored_logical += du.logical_bytes;
            b.rec.book.set("cas.store.dedup_hit_share", {
                let hits = sut::trainer_counter(&t.trainer, "cas.dedup.hits") as f64;
                let misses = sut::trainer_counter(&t.trainer, "cas.dedup.misses") as f64;
                hits / (hits + misses).max(1.0)
            });
        }
    }
    b.rec.totals.stored_physical += shared_objects;
}

pub fn run(b: &mut Bench, started: Instant) -> SutResult<f64> {
    let (mut s, setup_s) = set_up(b, started, build)?;
    if b.args.trace {
        let dir = s.dir.clone();
        crate::probes::run(b, &mut s.tenants[0].trainer, &dir)?;
    }
    b.start_section();
    // The count window ends with both tenants idle, so what is stored
    // and what was written do not depend on where the other tenant was.
    for rec in run_tenants(b, &mut s, 0, &|rounds| rounds < COUNT_ROUNDS) {
        b.rec.absorb(&rec);
    }
    footprint(b, &mut s);
    b.close_count_window();
    let bench = &*b;
    let recs = run_tenants(bench, &mut s, COUNT_ROUNDS, &|rounds| {
        bench.more(rounds, COUNT_ROUNDS)
    });
    for rec in &recs {
        b.rec.absorb(rec);
    }
    for t in &mut s.tenants {
        commit_probe(&mut b.rec, t);
    }

    // What the control plane adds on top of a bare round trip.
    let ping_us = b.rec.book.samples("ctl_rtt_us").median();
    b.rec.book.set("daemon.ping_us", ping_us);
    b.rec.book.set(
        "coord.publish_ms",
        (b.rec.book.samples("daemon.save_commit_us").median() - ping_us).max(0.0) / 1e3,
    );
    b.rec.book.set(
        "coord.collect_ms",
        (b.rec.book.samples("gc_pass_ms").median() - ping_us / 1e3).max(0.0),
    );
    if let Some(daemon) = &s.daemon {
        let info = daemon.info();
        b.rec.book.set(
            "coord.admission_wait_ms",
            info.admission_wait_ns as f64 / 1e6 / info.admission_waits.max(1) as f64,
        );
        b.rec.book.set(
            "coord.inflight_peak_mb",
            info.inflight_peak_bytes as f64 / 1e6,
        );
        b.rec.book.set("coord.gc_deferred", info.gc_deferred as f64);
    }
    for t in &s.tenants {
        audit_committed(b, s.daemon_fs.clone(), &t.store_run_root, &t.retired);
    }
    Ok(setup_s)
}
