//! `full_async`: DeepSpeed-style periodic full checkpoints, overlapped.
//!
//! `llama31_8b_sim` at dp=4, plain (non-dedup) full saves through
//! `Trainer::checkpoint_async`, keep-last-2 retention, then resumes of
//! the newest checkpoint — at the saved topology (gated `restore_ms`)
//! and resharded to dp=2 (per-layer). The async writer is drained after
//! every save so durable time is measured without competing compute.

use super::{
    audit_committed, book_footprint, bound_bytes, ms_since, resume_cfg, set_up, timed_rounds,
};
use crate::bench::Bench;
use crate::oracle;
use crate::sut::{self, ModelSize, StateImage, SutResult, Trainer, TrainerConfig};
use crate::tracefs::TraceFs;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const SAVES_PER_ROUND: usize = 2;
const KEEP_LAST: usize = 2;
/// Rounds of the count window (retention is in steady state after two).
const COUNT_ROUNDS: u32 = 3;

struct State {
    /// Parent of the run root; resumed trainers get run roots under it.
    dir: PathBuf,
    fs: Arc<TraceFs>,
    cfg: TrainerConfig,
    cfg_dp2: TrainerConfig,
    trainer: Trainer,
    /// Reference image of every checkpoint that may still be on disk.
    refs: BTreeMap<u64, StateImage>,
}

fn build(b: &mut Bench, dir: &Path) -> SutResult<State> {
    let fs = b.local_fs();
    let mut cfg = sut::trainer_config(b.size(ModelSize::Sim8b), 4, &dir.join("run"), b.args.seed);
    cfg.async_checkpointing = true;
    let mut cfg_dp2 = cfg.clone();
    cfg_dp2.world_size = 2;
    cfg_dp2.async_checkpointing = false;
    cfg_dp2.run_root = dir.join("resumed");
    let mut trainer = sut::new_trainer(cfg.clone(), fs.clone());
    // Warm-up: two steps give the optimizer moments real values, one
    // save + resume fills lazily initialised state and the page cache.
    sut::step(&mut trainer);
    sut::step(&mut trainer);
    let image = sut::state_image(&trainer)?;
    sut::save_async_begin(&mut trainer)?;
    sut::save_async_drain(&mut trainer)?;
    sut::resume(
        fs.clone(),
        &sut::checkpoint_dir(&cfg.run_root, trainer.step),
        resume_cfg(&cfg, dir),
    )?;
    let refs = BTreeMap::from([(trainer.step, image)]);
    Ok(State {
        dir: dir.to_path_buf(),
        fs,
        cfg,
        cfg_dp2,
        trainer,
        refs,
    })
}

/// Resume `step` at the saved topology, timed and checked bit-exact.
fn timed_resume(b: &mut Bench, s: &State, step: u64) {
    let rec = &mut b.rec;
    let ckpt = sut::checkpoint_dir(&s.cfg.run_root, step);
    let want = &s.refs[&step];
    let op = rec.begin("restore", &[&s.fs]);
    let resumed = rec.tally.attempt(
        "resume",
        sut::resume(s.fs.clone(), &ckpt, resume_cfg(&s.cfg, &s.dir)),
    );
    let done = rec.end(op, &format!("checkpoint-{step}"), 0);
    if let Some(resumed) = resumed {
        rec.book.sample("restore_ms", done.ms);
        rec.note_restore(&done, bound_bytes(want));
        if let Some(got) = rec
            .tally
            .attempt("image of resumed trainer", sut::state_image(&resumed))
        {
            oracle::expect_same(
                &mut rec.tally,
                &format!("resume of checkpoint-{step}"),
                &got,
                want,
            );
        }
    }
    if rec.tracer.enabled() {
        if let Some(info) = rec.tally.attempt(
            "restore stages",
            sut::restore_stages(s.fs.clone(), &ckpt, &s.cfg),
        ) {
            rec.note_restore_stages(&done, &info);
        }
    }
}

/// The same checkpoint resharded dp4 -> dp2 (per-layer only).
fn resharded_resume(b: &mut Bench, s: &State, step: u64) {
    let rec = &mut b.rec;
    let ckpt = sut::checkpoint_dir(&s.cfg.run_root, step);
    let want = &s.refs[&step];
    let op = rec.begin("restore", &[&s.fs]);
    let resumed = rec.tally.attempt(
        "resharded resume",
        sut::resume(s.fs.clone(), &ckpt, s.cfg_dp2.clone()),
    );
    let done = rec.end(op, &format!("checkpoint-{step} dp4->dp2"), 0);
    if let Some(resumed) = resumed {
        rec.book.sample("ckpt.restore.reshard_ms", done.ms);
        if let Some(got) = rec
            .tally
            .attempt("image of resharded trainer", sut::state_image(&resumed))
        {
            oracle::expect_same(
                &mut rec.tally,
                &format!("dp4->dp2 resume of checkpoint-{step}"),
                &got,
                want,
            );
        }
    }
    if rec.tracer.enabled() {
        if let Some(info) = rec.tally.attempt(
            "reshard stages",
            sut::restore_stages(s.fs.clone(), &ckpt, &s.cfg_dp2),
        ) {
            rec.tally.check(info.resharded, || {
                "dp4->dp2 restore did not report a reshard".into()
            });
            rec.book.sample(
                "ckpt.restore.reshard_bind_ms",
                info.timings.bind_ns as f64 / 1e6,
            );
        }
    }
}

fn round(b: &mut Bench, s: &mut State, round: u32) {
    for _ in 0..SAVES_PER_ROUND {
        let rec = &mut b.rec;
        rec.advance(&mut s.trainer);
        // The reference is what the checkpoint must bring back: the
        // state the save call is handed.
        let Some(image) = rec
            .tally
            .attempt("capture reference", sut::state_image(&s.trainer))
        else {
            return;
        };
        let step = s.trainer.step;
        let op = rec.begin("save", &[&s.fs]);
        let t0 = Instant::now();
        let begun = rec
            .tally
            .attempt("checkpoint_async", sut::save_async_begin(&mut s.trainer));
        let blocked_ms = ms_since(t0);
        let drained = rec
            .tally
            .attempt("async drain", sut::save_async_drain(&mut s.trainer));
        let done = rec.end(op, &format!("checkpoint-{step}"), 0);
        let (Some(()), Some(info)) = (begun, drained) else {
            return;
        };
        rec.book.sample("save_blocked_ms", blocked_ms);
        rec.book.sample("train.snapshot_ms", blocked_ms);
        rec.book.sample("save_durable_ms", done.ms);
        rec.note_saved(info.logical_bytes, done.ms / 1e3);
        rec.note_save(&done, &info);
        s.refs.insert(step, image);

        let t0 = Instant::now();
        let pruned = rec
            .tally
            .attempt("prune_run", sut::prune(&s.cfg.run_root, &s.cfg, KEEP_LAST));
        rec.book.sample("core.retention.prune_ms", ms_since(t0));
        for step in pruned.unwrap_or_default() {
            s.refs.remove(&step);
        }
        timed_resume(b, s, step);
    }
    if round % 4 == 1 {
        resharded_resume(b, s, s.trainer.step);
    }
}

fn footprint(b: &mut Bench, s: &mut State) {
    book_footprint(b, &s.cfg.run_root);
}

pub fn run(b: &mut Bench, started: Instant) -> SutResult<f64> {
    let (mut s, setup_s) = set_up(b, started, build)?;
    if b.args.trace {
        let dir = s.dir.clone();
        crate::probes::run(b, &mut s.trainer, &dir)?;
    }
    timed_rounds(b, &mut s, COUNT_ROUNDS, round, footprint);

    let (clones, peak) = sut::snapshot_gauge(&s.trainer);
    b.rec.book.set(
        "train.snapshot_clones",
        clones as f64 / b.rec.book.samples("save_blocked_ms").n().max(1) as f64,
    );
    b.rec.book.set("train.peak_staged_mb", peak as f64 / 1e6);
    audit_committed(b, s.fs.clone(), &s.cfg.run_root, &[]);
    if let Some((_, newest)) = sut::committed(&s.cfg.run_root).last() {
        if let Some((lazy_us, eager_ms)) = b
            .rec
            .tally
            .attempt("reader probe", sut::reader_probe(s.fs.clone(), newest))
        {
            b.rec.book.set("ckpt.reader.lazy_tensor_us", lazy_us);
            b.rec.book.set("ckpt.reader.eager_file_ms", eager_ms);
        }
    }
    Ok(setup_s)
}
