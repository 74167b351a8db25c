//! `everystep_delta`: checkpoint every step through the delta-chained,
//! compressed object store.
//!
//! `llama32_1b_sim` at dp=2 with the embedding and the lower half of
//! the layers frozen; synchronous dedup + LZSS + delta-chain (cap 8)
//! saves after every step, and a resume of every checkpoint as soon as
//! it is committed (a crash finds the chain at whatever depth it has).
//! One round is one full chain cycle (cap + 1 saves, so every round sees
//! each chain depth once), then a maintenance pass: `prune_run`,
//! `compact_run_on`, `collect_garbage_on`.
//!
//! A save costs about three times as much at the end of a cycle as at
//! its start, and a resume twice. The median over such a ramp rests on
//! the one or two samples in its middle, so the gated timings of this
//! workload are taken per cycle: the mean of the cycle's ops over the
//! median of the cycle's laps, one sample per round. The raw per-op
//! samples stay in the per-layer table, the resumes at the cap and of
//! the re-rooted checkpoint under names of their own.

use super::{
    audit_committed, book_footprint, bound_bytes, ms_since, resume_cfg, set_up, timed_rounds,
};
use crate::bench::Bench;
use crate::oracle;
use crate::stats::Samples;
use crate::sut::{self, ModelSize, StateImage, SutResult, Trainer, TrainerConfig};
use crate::tracefs::TraceFs;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const CHAIN_CAP: usize = 8;
/// Checkpoints retention keeps beyond the load-bearing ones.
const KEEP_LAST: usize = 4;
/// Chains deeper than this are flattened by the maintenance pass.
const COMPACT_TO: usize = 4;
/// Rounds (chain cycles, each ending in a maintenance pass) of the count
/// window.
const COUNT_ROUNDS: u32 = 2;

struct State {
    /// Parent of the run root; resumed trainers get run roots under it.
    dir: PathBuf,
    fs: Arc<TraceFs>,
    cfg: TrainerConfig,
    trainer: Trainer,
    refs: BTreeMap<u64, StateImage>,
}

fn build(b: &mut Bench, dir: &Path) -> SutResult<State> {
    let fs = b.local_fs();
    let mut cfg = sut::trainer_config(b.size(ModelSize::Sim1b), 2, &dir.join("run"), b.args.seed);
    cfg.dedup_checkpoints = true;
    cfg.ckpt_compress = true;
    cfg.ckpt_delta_chain = CHAIN_CAP;
    cfg.frozen_units = sut::frozen_lower(sut::num_layers(&cfg) / 2);
    let mut trainer = sut::new_trainer(cfg.clone(), fs.clone());
    // Warm-up: the first save is the chain root every later save in the
    // first round deltas against, so each round starts at depth 1.
    sut::step(&mut trainer);
    let image = sut::state_image(&trainer)?;
    sut::save_sync(&mut trainer)?;
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
        trainer,
        refs,
    })
}

/// Resume `step`, time it, and check it bit-exact. Returns the
/// milliseconds of a resume that worked.
fn timed_resume(b: &mut Bench, s: &State, step: u64) -> Option<f64> {
    let rec = &mut b.rec;
    let ckpt = sut::checkpoint_dir(&s.cfg.run_root, step);
    let want = &s.refs[&step];
    let op = rec.begin("restore", &[&s.fs]);
    let resumed = rec.tally.attempt(
        "resume",
        sut::resume(s.fs.clone(), &ckpt, resume_cfg(&s.cfg, &s.dir)),
    );
    let done = rec.end(op, &format!("checkpoint-{step}"), 0);
    let resumed = resumed?;
    rec.book.sample("restore_ms", done.ms);
    rec.note_restore(&done, bound_bytes(want));
    if rec.tracer.enabled() {
        if let Some(info) = rec.tally.attempt(
            "restore stages",
            sut::restore_stages(s.fs.clone(), &ckpt, &s.cfg),
        ) {
            rec.note_restore_stages(&done, &info);
        }
    }
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
    Some(done.ms)
}

fn round(b: &mut Bench, s: &mut State, _round: u32) {
    let (mut laps, mut saves, mut resumes) =
        (Samples::default(), Samples::default(), Samples::default());
    for position in 0..=CHAIN_CAP {
        let rec = &mut b.rec;
        laps.push(rec.advance(&mut s.trainer));
        let Some(image) = rec
            .tally
            .attempt("capture reference", sut::state_image(&s.trainer))
        else {
            return;
        };
        let step = s.trainer.step;
        let op = rec.begin("save", &[&s.fs]);
        let saved = rec
            .tally
            .attempt("checkpoint", sut::save_sync(&mut s.trainer));
        let done = rec.end(op, &format!("checkpoint-{step}"), 0);
        let Some(info) = saved else { return };
        saves.push(done.ms);
        rec.book.sample("save_blocked_ms", done.ms);
        rec.book.sample("save_durable_ms", done.ms);
        rec.note_saved(info.logical_bytes, done.ms / 1e3);
        rec.note_save(&done, &info);
        s.refs.insert(step, image);
        let depth = info.delta_max_chain as usize;
        let deepest = rec.book.value("cas.store.chain_len_max").max(depth as f64);
        rec.book.set("cas.store.chain_len_max", deepest);

        let Some(ms) = timed_resume(b, s, step) else {
            return;
        };
        resumes.push(ms);
        // The two ends of the ramp are named by their position in the
        // cycle, not by reported depth: units whose delta was not
        // smaller than a full object re-root a step early, so after the
        // first cycle the objects of one checkpoint are at mixed depths
        // and "the save that reported depth 8" wanders. The next-to-last
        // save of a round holds the deepest chains, the last re-roots.
        if position + 1 == CHAIN_CAP {
            b.rec.book.sample("ckpt.restore.chain_cap_ms", ms);
        } else if position == CHAIN_CAP {
            b.rec.book.sample("ckpt.restore.chain_root_ms", ms);
        }
    }
    // One sample of each gated timing per completed cycle.
    let lap = laps.median();
    let book = &mut b.rec.book;
    book.sample("save_blocked_laps", saves.mean() / lap);
    book.sample("save_durable_laps", saves.mean() / lap);
    book.sample("restore_laps", resumes.mean() / lap);

    // Maintenance pass: retention, chain compaction, object GC.
    let rec = &mut b.rec;
    let op = rec.begin("gc", &[&s.fs]);
    let t0 = Instant::now();
    let pruned = rec
        .tally
        .attempt("prune_run", sut::prune(&s.cfg.run_root, &s.cfg, KEEP_LAST));
    rec.book.sample("core.retention.prune_ms", ms_since(t0));
    rec.tally.attempt(
        "compact_run_on",
        sut::compact(&*s.fs, &s.cfg.run_root, COMPACT_TO),
    );
    let t0 = Instant::now();
    let gc = rec.tally.attempt(
        "collect_garbage_on",
        sut::collect_garbage(&*s.fs, &s.cfg.run_root),
    );
    rec.book.sample("core.gc.collect_ms", ms_since(t0));
    let done = rec.end(op, "prune+compact+gc", 0);
    rec.book.sample("gc_pass_ms", done.ms);
    if let Some(gc) = gc {
        rec.book
            .sample("core.gc.swept_objects", gc.swept_objects as f64);
        rec.book
            .sample("core.gc.swept_bytes", gc.swept_bytes as f64);
        rec.book
            .sample("core.gc.live_objects", gc.live_objects as f64);
    }
    for step in pruned.unwrap_or_default() {
        s.refs.remove(&step);
    }
    // The pass rewrote and swept objects under the surviving
    // checkpoints: the oldest one must still come back bit-exact.
    if let Some(&oldest) = s.refs.keys().next() {
        let ckpt = sut::checkpoint_dir(&s.cfg.run_root, oldest);
        if let Some(resumed) = rec.tally.attempt(
            "post-maintenance resume",
            sut::resume(s.fs.clone(), &ckpt, resume_cfg(&s.cfg, &s.dir)),
        ) {
            if let Some(got) = rec
                .tally
                .attempt("image of resumed trainer", sut::state_image(&resumed))
            {
                oracle::expect_same(
                    &mut rec.tally,
                    &format!("checkpoint-{oldest} after maintenance"),
                    &got,
                    &s.refs[&oldest],
                );
            }
        }
    }
}

fn footprint(b: &mut Bench, s: &mut State) {
    let hits = sut::trainer_counter(&s.trainer, "cas.dedup.hits") as f64;
    let misses = sut::trainer_counter(&s.trainer, "cas.dedup.misses") as f64;
    b.rec
        .book
        .set("cas.store.dedup_hit_share", hits / (hits + misses).max(1.0));
    if let Some(du) = book_footprint(b, &s.cfg.run_root) {
        let objects = du.object_count.max(1) as f64;
        b.rec
            .book
            .set("cas.store.delta_share", du.delta_objects as f64 / objects);
        b.rec.book.set(
            "cas.store.full_encoded_share",
            du.encoded_full_objects as f64 / objects,
        );
    }
}

pub fn run(b: &mut Bench, started: Instant) -> SutResult<f64> {
    let (mut s, setup_s) = set_up(b, started, build)?;
    if b.args.trace {
        let dir = s.dir.clone();
        crate::probes::run(b, &mut s.trainer, &dir)?;
    }
    timed_rounds(b, &mut s, COUNT_ROUNDS, round, footprint);
    audit_committed(b, s.fs.clone(), &s.cfg.run_root, &[]);
    Ok(setup_s)
}
