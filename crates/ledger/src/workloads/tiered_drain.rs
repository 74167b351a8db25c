//! `tiered_drain`: saves commit on a bounded memory tier and drain to
//! the local filesystem in the background.
//!
//! `llama32_1b_sim` at dp=2, an embedded `TierManager` (memory tier of
//! about four checkpoints over `LocalFs`, unthrottled drain) with
//! `spawn_drainer`, the documented deployment. The trainer saves through
//! `checkpoint_with`; the blocked time is the commit on whichever tier
//! took the save, the durable time ends when `TraceFs` sees the
//! checkpoint's `COMMIT` land on the filesystem tier. A round is five
//! save iterations; after the fifth, with the drain in flight, the two
//! steps before it (gated `restore_ms`) and a step evicted from memory
//! long ago (per-layer) are restored read-through; then the round waits
//! for the drain queue to empty, which is part of the save path's wall
//! time.
//!
//! Two defects of the tier manager show in this shape, and the ledger
//! records them instead of steering around them. A save that overlaps a
//! drain hop can lose the race for the shared `state.json.tmp` and
//! report an error although it committed (`tier.save_state_races`; the
//! workload carries on with the next step). And the copies a
//! read-through restore promotes into memory are never evicted, so the
//! restores of evicted steps fill the memory tier within a few rounds;
//! from then on every save falls through to the filesystem
//! (`tier.commit_mem_share`, `tier.fallthroughs`) and that steady state
//! is what the medians describe.

use super::{
    audit_committed, book_footprint, bound_bytes, ms_since, resume_cfg, set_up, timed_rounds,
};
use crate::bench::Bench;
use crate::oracle;
use crate::sut::{
    self, DrainerHandle, ModelSize, StateImage, SutResult, TierManager, TieredSave, Trainer,
    TrainerConfig,
};
use crate::tracefs::TraceFs;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SAVES_PER_ROUND: usize = 5;
/// Checkpoints the memory tier is sized for. Eviction keeps it three
/// quarters full, so three stay resident and one slot takes the next
/// save while the drainer works.
const MEM_CHECKPOINTS: u64 = 4;
/// How far behind the newest step the evicted-step restore reaches:
/// into the round before, whose steps drained before this round began
/// and were evicted by this round's first hops.
const EVICTED_LAG: u64 = 7;
/// Rounds of the count window.
const COUNT_ROUNDS: u32 = 6;
const DRAIN_POLL: Duration = Duration::from_millis(1);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

struct State {
    /// Parent of the run root; resumed trainers get run roots under it.
    dir: PathBuf,
    /// The filesystem tier (drain target, save log, journals).
    fs: Arc<TraceFs>,
    /// The read-through view restores go through.
    reader: Arc<TraceFs>,
    cfg: TrainerConfig,
    trainer: Trainer,
    tiers: Arc<TierManager>,
    /// Stops and joins the drain thread when the state is dropped.
    _drainer: DrainerHandle,
    refs: BTreeMap<u64, StateImage>,
    mem_peak: u64,
    saves: u64,
    in_mem: u64,
    promotions_at_start: u64,
}

fn build(b: &mut Bench, dir: &Path) -> SutResult<State> {
    let fs = b.local_fs();
    let cfg = sut::trainer_config(b.size(ModelSize::Sim1b), 2, &dir.join("run"), b.args.seed);
    let mut trainer = sut::new_trainer(cfg.clone(), fs.clone());
    sut::step(&mut trainer);
    // The memory tier holds about MEM_CHECKPOINTS saves of the size the
    // trainer itself declares for admission control.
    let capacity = sut::declared_save_bytes(&trainer) * MEM_CHECKPOINTS;
    let tiers = sut::open_tiers(&cfg.run_root, fs.clone(), capacity)?;
    let image = sut::state_image(&trainer)?;
    // No drainer yet: this save cannot race.
    sut::save_tiered(&mut trainer, &tiers)?;
    sut::drain_all(&tiers)?;
    let reader = b.wrap(sut::tier_reader(&tiers));
    sut::resume(
        reader.clone(),
        &sut::checkpoint_dir(&cfg.run_root, trainer.step),
        resume_cfg(&cfg, dir),
    )?;
    let promotions_at_start = sut::tier_info(&tiers).read_promotions;
    let drainer = sut::spawn_drainer(&tiers, DRAIN_POLL);
    let refs = BTreeMap::from([(trainer.step, image)]);
    Ok(State {
        dir: dir.to_path_buf(),
        fs,
        reader,
        cfg,
        trainer,
        tiers,
        _drainer: drainer,
        refs,
        mem_peak: 0,
        saves: 0,
        in_mem: 0,
        promotions_at_start,
    })
}

/// Resume `step` read-through, time it under `metric`, check it bit-exact.
fn timed_resume(b: &mut Bench, s: &State, step: u64, metric: &'static str) {
    let rec = &mut b.rec;
    let want = &s.refs[&step];
    let ckpt = sut::checkpoint_dir(&s.cfg.run_root, step);
    let op = rec.begin("restore", &[&s.reader]);
    let resumed = rec.tally.attempt(
        "read-through resume",
        sut::resume(s.reader.clone(), &ckpt, resume_cfg(&s.cfg, &s.dir)),
    );
    let done = rec.end(op, &format!("checkpoint-{step} ({metric})"), 0);
    let Some(resumed) = resumed else { return };
    rec.book.sample(metric, done.ms);
    if metric == "restore_ms" {
        rec.note_restore(&done, bound_bytes(want));
        if rec.tracer.enabled() {
            if let Some(info) = rec.tally.attempt(
                "restore stages",
                sut::restore_stages(s.reader.clone(), &ckpt, &s.cfg),
            ) {
                rec.note_restore_stages(&done, &info);
            }
        }
    }
    if let Some(got) = rec
        .tally
        .attempt("image of resumed trainer", sut::state_image(&resumed))
    {
        oracle::expect_same(
            &mut rec.tally,
            &format!("read-through resume of checkpoint-{step}"),
            &got,
            want,
        );
    }
}

fn round(b: &mut Bench, s: &mut State, _round: u32) {
    let mut entered: Vec<(u64, Instant, u64)> = Vec::new();
    let mut blocked_s = 0.0;
    for i in 0..SAVES_PER_ROUND {
        let rec = &mut b.rec;
        rec.advance(&mut s.trainer);
        let Some(image) = rec
            .tally
            .attempt("capture reference", sut::state_image(&s.trainer))
        else {
            return;
        };
        let step = s.trainer.step;
        let op = rec.begin("save", &[&s.fs]);
        let t0 = Instant::now();
        let saved = rec
            .tally
            .attempt("tier save", sut::save_tiered(&mut s.trainer, &s.tiers));
        let done = rec.end(op, &format!("checkpoint-{step}"), 0);
        let Some(saved) = saved else { return };
        // The trainer was blocked this long whichever way the save ended.
        rec.book.sample("save_blocked_ms", done.ms);
        blocked_s += done.ms / 1e3;
        s.saves += 1;
        match saved {
            TieredSave::Placed(info, in_mem) => {
                s.in_mem += in_mem as u64;
                rec.note_save(&done, &info);
                entered.push((step, t0, info.logical_bytes));
            }
            TieredSave::StateRace => {
                rec.book.add("tier.save_state_races", 1.0);
                entered.push((step, t0, 0));
            }
        }
        s.refs.insert(step, image);
        s.mem_peak = s.mem_peak.max(sut::tier_info(&s.tiers).mem_used);

        if i + 1 == SAVES_PER_ROUND {
            // Read-through restores with the drain in flight.
            timed_resume(b, s, step - 1, "restore_ms");
            timed_resume(b, s, step - 2, "restore_ms");
            if let Some(old) = step.checked_sub(EVICTED_LAG) {
                if s.refs.contains_key(&old) {
                    timed_resume(b, s, old, "tier.promoted_restore_ms");
                }
            }
        }
    }

    // The round's saves are durable once their COMMIT is on the
    // filesystem tier; waiting for the last is save-path wall time.
    let rec = &mut b.rec;
    let t0 = Instant::now();
    let mut logical = 0;
    for (step, entered_at, bytes) in &entered {
        let landed = s.fs.wait_commit(*step, DRAIN_TIMEOUT);
        if rec.tally.check(landed.is_some(), || {
            format!("checkpoint-{step} did not drain within {DRAIN_TIMEOUT:?}")
        }) {
            let durable_ms = landed
                .expect("checked")
                .duration_since(*entered_at)
                .as_secs_f64()
                * 1e3;
            rec.book.sample("save_durable_ms", durable_ms);
            logical += bytes;
        }
    }
    let waited_s = t0.elapsed().as_secs_f64();
    rec.book.sample("tier.drain_lag_ms", waited_s * 1e3);
    rec.note_saved(logical, blocked_s + waited_s);
    // Keep the reference images of the steps a later round may restore.
    let keep_from = s.trainer.step.saturating_sub(EVICTED_LAG);
    s.refs = s.refs.split_off(&keep_from);
    s.fs.forget_commits_before(keep_from);
}

fn footprint(b: &mut Bench, s: &mut State) {
    book_footprint(b, &s.cfg.run_root);
}

/// One save into a memory tier too small for it (falls through to the
/// filesystem), and one synchronous drain hop: traced runs only.
fn probes(b: &mut Bench, s: &State) -> SutResult<()> {
    let probe_root = s.dir.join("tier-probe");
    let fs: Arc<dyn sut::Storage> = Arc::new(sut::local_fs());
    let mut cfg = s.cfg.clone();
    cfg.run_root = probe_root.clone();
    let mut trainer = sut::new_trainer(cfg, fs.clone());
    sut::step(&mut trainer);
    let tiny = sut::open_tiers(&probe_root, fs.clone(), 1024)?;
    let t0 = Instant::now();
    let saved = sut::save_tiered(&mut trainer, &tiny)?;
    b.rec.book.set("tier.fallthrough_save_ms", ms_since(t0));
    b.rec
        .tally
        .check(matches!(saved, TieredSave::Placed(_, false)), || {
            "probe save fit a 1 KiB memory tier".into()
        });
    drop(tiny);

    let roomy = sut::open_tiers(&probe_root, fs, 1 << 30)?;
    sut::step(&mut trainer);
    let TieredSave::Placed(info, _) = sut::save_tiered(&mut trainer, &roomy)? else {
        return Err("probe save raced although nothing drains beside it".into());
    };
    let t0 = Instant::now();
    let hopped = sut::drain_step(&roomy)?;
    let hop_ms = ms_since(t0);
    b.rec
        .tally
        .check(hopped, || "probe save queued no drain hop".into());
    b.rec.book.set("tier.drain_hop_ms", hop_ms);
    b.rec.book.set(
        "tier.drain_mb_s",
        info.logical_bytes as f64 / 1e6 / (hop_ms / 1e3).max(1e-9),
    );
    crate::bench::remove_tree(&probe_root);
    Ok(())
}

pub fn run(b: &mut Bench, started: Instant) -> SutResult<f64> {
    let (mut s, setup_s) = set_up(b, started, build)?;
    if b.args.trace {
        let dir = s.dir.clone();
        crate::probes::run(b, &mut s.trainer, &dir)?;
        probes(b, &s)?;
    }
    timed_rounds(b, &mut s, COUNT_ROUNDS, round, footprint);

    let info = sut::tier_info(&s.tiers);
    b.rec.book.set(
        "tier.commit_mem_share",
        s.in_mem as f64 / s.saves.max(1) as f64,
    );
    b.rec
        .book
        .add("tier.fallthroughs", info.fallthroughs as f64);
    b.rec.book.set(
        "tier.read_promotions",
        (info.read_promotions - s.promotions_at_start) as f64,
    );
    b.rec.tally.check(info.pending_drains == 0, || {
        format!(
            "{} drain hops still queued after the last round",
            info.pending_drains
        )
    });
    b.rec.book.set("tier.evictions", info.evictions as f64);
    b.rec.book.set("tier.mem_peak_mb", s.mem_peak as f64 / 1e6);
    // Every drained checkpoint must verify from the filesystem tier alone.
    audit_committed(b, s.fs.clone(), &s.cfg.run_root, &[]);
    Ok(setup_s)
}
