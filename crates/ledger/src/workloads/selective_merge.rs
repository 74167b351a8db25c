//! `selective_merge`: the paper's use cases — partial checkpoints, a
//! crash, recovery by merging the newest copy of every unit.
//!
//! `llama31_8b_sim` at dp=4 (Table 7's shape), synchronous plain
//! partial saves. A round is two `Parity` events (together they cover
//! the model), then a crash: `recover_checkpoint` plus a resume of the
//! merged checkpoint, timed together as the gated `restore_ms` (a
//! partial checkpoint cannot be resumed any other way) and apart as
//! `recover_ms`. Every third round adds a `Filtered` event and a second
//! recovery whose sources are three checkpoints deep (per-layer). Every
//! recovered unit is compared bit for bit with the reference taken at
//! the step that unit was last saved.

use super::{audit_committed, bound_bytes, ms_since, resume_cfg, set_up, timed_rounds};
use crate::bench::{remove_tree, Bench};
use crate::oracle::{self, Members};
use crate::sut::{
    self, LayerUnit, ModelSize, StateImage, StrategyKind, SutResult, Trainer, TrainerConfig,
};
use crate::tracefs::TraceFs;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Rounds of the count window: one cycle of Parity, Parity, and
/// Parity + Filtered rounds.
const COUNT_ROUNDS: u32 = 3;

struct State {
    /// Parent of the run root; resumed trainers get run roots under it.
    dir: PathBuf,
    fs: Arc<TraceFs>,
    cfg: TrainerConfig,
    trainer: Trainer,
    members: Members,
    /// Logical bytes of one full checkpoint: what a save of every unit
    /// at the same event would hold.
    full_bytes: u64,
    refs: BTreeMap<u64, StateImage>,
    last_saved: BTreeMap<LayerUnit, u64>,
    merges: u64,
}

fn build(b: &mut Bench, dir: &Path) -> SutResult<State> {
    let fs = b.local_fs();
    let mut cfg = sut::trainer_config(b.size(ModelSize::Sim8b), 4, &dir.join("run"), b.args.seed);
    cfg.strategy = StrategyKind::Full;
    let mut trainer = sut::new_trainer(cfg.clone(), fs.clone());
    // Warm-up: one full save sizes `stored_ratio`'s denominator, gives
    // every unit a first copy, and is resumed once to warm the read path.
    sut::step(&mut trainer);
    let image = sut::state_image(&trainer)?;
    let full = sut::save_sync(&mut trainer)?;
    sut::resume(
        fs.clone(),
        &sut::checkpoint_dir(&cfg.run_root, trainer.step),
        resume_cfg(&cfg, dir),
    )?;
    let members: Members = full
        .units
        .iter()
        .map(|u| (*u, sut::unit_members(&trainer, *u)))
        .collect();
    let last_saved = full.units.iter().map(|u| (*u, trainer.step)).collect();
    let refs = BTreeMap::from([(trainer.step, image)]);
    Ok(State {
        dir: dir.to_path_buf(),
        fs,
        cfg,
        trainer,
        members,
        full_bytes: full.logical_bytes,
        refs,
        last_saved,
        merges: 0,
    })
}

/// One partial save under `strategy` (blocked = durable: synchronous).
fn save_event(b: &mut Bench, s: &mut State, strategy: StrategyKind) -> bool {
    let rec = &mut b.rec;
    rec.advance(&mut s.trainer);
    let Some(image) = rec
        .tally
        .attempt("capture reference", sut::state_image(&s.trainer))
    else {
        return false;
    };
    s.trainer.config.strategy = strategy;
    let step = s.trainer.step;
    let op = rec.begin("save", &[&s.fs]);
    let saved = rec
        .tally
        .attempt("checkpoint", sut::save_sync(&mut s.trainer));
    let done = rec.end(op, &format!("checkpoint-{step}"), 0);
    let Some(info) = saved else { return false };
    rec.book.sample("save_blocked_ms", done.ms);
    rec.book.sample("save_durable_ms", done.ms);
    rec.note_saved(info.logical_bytes, done.ms / 1e3);
    rec.note_save(&done, &info);
    // Table 3/6's size ratio: what the selective events wrote over what
    // full saves at the same events would have (plain saves: logical
    // bytes are the bytes held).
    rec.totals.stored_physical += info.logical_bytes;
    rec.totals.stored_logical += s.full_bytes;
    for unit in &info.units {
        s.last_saved.insert(*unit, step);
    }
    s.refs.insert(step, image);
    true
}

/// Crash now: recover the newest complete state, resume it, check it.
/// `gated` recoveries feed `restore_ms`/`recover_ms`/`read_amp`; the
/// others are booked under `metric` only.
fn crash_and_recover(b: &mut Bench, s: &mut State, gated: bool, metric: &'static str) {
    let rec = &mut b.rec;
    s.merges += 1;
    let name = format!("merged-{}", s.merges);
    let failure_step = s.trainer.step;
    let want_bound = bound_bytes(&s.refs[&failure_step]);
    let op = rec.begin("recover", &[&s.fs]);
    let t0 = Instant::now();
    // A traced round takes the same recovery in its public pieces, for
    // the plan/execute split.
    let merged = if rec.tracer.enabled() {
        rec.tally.attempt(
            "recover (staged)",
            sut::recover_staged(&s.cfg.run_root, &s.cfg, failure_step, &name, false),
        )
    } else {
        rec.tally.attempt(
            "recover_checkpoint",
            sut::recover(&s.cfg.run_root, &s.cfg, failure_step, &name),
        )
    };
    let recover_ms = ms_since(t0);
    let Some(merge) = merged else {
        rec.end(op, &name, 0);
        return;
    };
    let resumed = rec.tally.attempt(
        "resume of merged",
        sut::resume(s.fs.clone(), &merge.output, resume_cfg(&s.cfg, &s.dir)),
    );
    let done = rec.end(op, &name, merge.bytes_out);
    rec.totals.extra_written += merge.bytes_out;
    if let Some(resumed) = resumed {
        if gated {
            rec.book.sample("restore_ms", done.ms);
            rec.book.sample("recover_ms", recover_ms);
            rec.note_restore(&done, want_bound);
            // The merge reads past `TraceFs`; its report says how much.
            rec.totals.restore_read += merge.bytes_read;
            rec.book.sample("core.merge.exec_ms", merge.exec_ms);
            rec.book
                .sample("core.merge.bytes_read", merge.bytes_read as f64);
            rec.book
                .sample("core.merge.files_opened", merge.files_opened as f64);
            rec.book
                .sample("core.merge.full_loads", merge.full_loads as f64);
            rec.book
                .sample("core.merge.bytes_out", merge.bytes_out as f64);
            if rec.tracer.enabled() {
                if let Some(info) = rec.tally.attempt(
                    "restore stages",
                    sut::restore_stages(s.fs.clone(), &merge.output, &s.cfg),
                ) {
                    rec.note_restore_stages(&done, &info);
                }
                rec.book.sample("core.merge.plan_ms", merge.plan_ms);
                rec.tracer.stages(
                    done.span,
                    done.start_ns,
                    &[
                        ("merge.plan", (merge.plan_ms * 1e6) as u64),
                        ("merge.exec", (merge.exec_ms * 1e6) as u64),
                    ],
                );
            }
        } else {
            rec.book.sample(metric, done.ms);
        }
        if let Some(got) = rec
            .tally
            .attempt("image of recovered trainer", sut::state_image(&resumed))
        {
            oracle::expect_merged(
                &mut rec.tally,
                &format!("{name} at step {failure_step}"),
                &got,
                &s.refs,
                &s.last_saved,
                &s.members,
            );
        }
    }
    remove_tree(&merge.output);
}

fn round(b: &mut Bench, s: &mut State, round: u32) {
    if !(save_event(b, s, StrategyKind::Parity) && save_event(b, s, StrategyKind::Parity)) {
        return;
    }
    crash_and_recover(b, s, true, "restore_ms");
    if round % 3 == 2 {
        if !save_event(b, s, StrategyKind::Filtered) {
            return;
        }
        crash_and_recover(b, s, false, "core.merge.filtered_recover_ms");
    }
    // Retention: drop checkpoints that hold no unit's newest copy.
    let rec = &mut b.rec;
    let t0 = Instant::now();
    let pruned = rec
        .tally
        .attempt("prune_run", sut::prune(&s.cfg.run_root, &s.cfg, 0));
    rec.book.sample("core.retention.prune_ms", ms_since(t0));
    for step in pruned.unwrap_or_default() {
        s.refs.remove(&step);
    }
}

/// `stored_ratio` is summed event by event in `save_event`.
fn footprint(_: &mut Bench, _: &mut State) {}

pub fn run(b: &mut Bench, started: Instant) -> SutResult<f64> {
    let (mut s, setup_s) = set_up(b, started, build)?;
    if b.args.trace {
        let dir = s.dir.clone();
        crate::probes::run(b, &mut s.trainer, &dir)?;
    }
    timed_rounds(b, &mut s, COUNT_ROUNDS, round, footprint);

    if b.args.trace {
        // Table 7's worst case: strict model order, caches dropped per unit.
        let name = "merged-interleaved";
        let t0 = Instant::now();
        let merged = b.rec.tally.attempt(
            "interleaved merge",
            sut::recover_staged(&s.cfg.run_root, &s.cfg, s.trainer.step, name, true),
        );
        if let Some(merge) = merged {
            b.rec
                .book
                .set("core.merge.parity_interleaved_ms", ms_since(t0));
            remove_tree(&merge.output);
        }
    }
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
