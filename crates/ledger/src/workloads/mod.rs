//! The five closed-loop workloads. Each owns its set-up, one repeatable
//! round, and an end-of-run audit; `README.md` says why each exists and
//! which layers it is predicted to leave flat.

mod daemon_tenants;
mod everystep_delta;
mod full_async;
mod selective_merge;
mod tiered_drain;

use crate::bench::{remove_tree, Bench};
use crate::stats::Samples;
use crate::sut::{self, StateImage, SutResult, TrainerConfig};
use std::path::Path;
use std::time::Instant;

/// Run the workload `b.args.workload` names.
pub fn run(b: &mut Bench, started: Instant) -> SutResult<f64> {
    match b.args.workload.as_str() {
        "full_async" => full_async::run(b, started),
        "everystep_delta" => everystep_delta::run(b, started),
        "selective_merge" => selective_merge::run(b, started),
        "tiered_drain" => tiered_drain::run(b, started),
        "daemon_tenants" => daemon_tenants::run(b, started),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Build the workload's state, several times over in a gated run so
/// `setup_s` is a median, as the benchmark contract asks (one set-up of
/// a fraction of a second is too noisy to gate): process start → first
/// set-up, plus the median set-up. The last state built is the one the
/// timed section uses. Traced and smoke runs set up once.
fn set_up<S>(
    b: &mut Bench,
    started: Instant,
    build: impl Fn(&mut Bench, &Path) -> SutResult<S>,
) -> SutResult<(S, f64)> {
    let preamble = started.elapsed().as_secs_f64();
    let reps = if b.args.smoke || b.args.trace { 1 } else { 3 };
    let mut durations = Samples::default();
    let mut state = None;
    for i in 0..reps {
        // Drop the previous state first: it may own threads and sockets.
        drop(state.take());
        b.reset_fs();
        let dir = b.sub(&format!("setup{i}"));
        let t0 = Instant::now();
        let built = build(b, &dir)?;
        durations.push(t0.elapsed().as_secs_f64());
        if i + 1 < reps {
            drop(built);
            remove_tree(&dir);
        } else {
            state = Some(built);
        }
    }
    Ok((state.expect("reps >= 1"), preamble + durations.median()))
}

/// The configuration a resume of one of `cfg`'s checkpoints uses:
/// synchronous, with a run root of its own under `dir` so the resumed
/// trainer's journal stays out of the measured run.
fn resume_cfg(cfg: &TrainerConfig, dir: &Path) -> TrainerConfig {
    let mut c = cfg.clone();
    c.async_checkpointing = false;
    let run = cfg
        .run_root
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("run");
    c.run_root = dir.join(format!("resumed-{run}"));
    c
}

/// The timed section: `count_rounds` rounds that make up the count
/// window (`footprint` books what is stored, then the window closes),
/// then rounds until the budget is spent. A traced run records spans in odd rounds only
/// (`trace.overhead_frac` compares the two kinds of round).
fn timed_rounds<S>(
    b: &mut Bench,
    s: &mut S,
    count_rounds: u32,
    round: fn(&mut Bench, &mut S, u32),
    footprint: fn(&mut Bench, &mut S),
) {
    b.start_section();
    let mut rounds = 0;
    while b.more(rounds, count_rounds) {
        b.rec.tracer.set_enabled(b.args.trace && rounds % 2 == 1);
        round(b, s, rounds);
        rounds += 1;
        if rounds == count_rounds {
            b.rec.tracer.set_enabled(b.args.trace);
            footprint(b, s);
            b.close_count_window();
        }
    }
    b.rec.tracer.set_enabled(b.args.trace);
}

/// `du_run` of `run_root` into the `stored_ratio` totals.
fn book_footprint(b: &mut Bench, run_root: &Path) -> Option<sut::DuInfo> {
    let du = b.rec.tally.attempt("du_run", sut::du(run_root))?;
    b.rec.totals.stored_physical = du.physical_bytes;
    b.rec.totals.stored_logical = du.logical_bytes;
    Some(du)
}

/// Bytes of optimizer state a resume binds (masters and both moments).
fn bound_bytes(image: &StateImage) -> u64 {
    image
        .groups
        .values()
        .map(|g| g.iter().map(|v| v.len() as u64 * 4).sum::<u64>())
        .sum()
}

/// Deep-verify every committed checkpoint under `run_root` except the
/// `retired` steps (withdrawn from service, awaiting removal): each is
/// one counted check. Also books the median verify time.
fn audit_committed(
    b: &mut Bench,
    storage: std::sync::Arc<dyn sut::Storage>,
    run_root: &Path,
    retired: &[u64],
) {
    let mut committed = sut::committed(run_root);
    committed.retain(|(step, _)| !retired.contains(step));
    b.rec.tally.check(!committed.is_empty(), || {
        format!("{} holds no committed checkpoint", run_root.display())
    });
    for (step, dir) in committed {
        let t0 = Instant::now();
        let findings = b
            .rec
            .tally
            .attempt("deep verify", sut::verify_deep(storage.clone(), &dir));
        b.rec
            .book
            .sample("ckpt.verify.deep_ms", t0.elapsed().as_secs_f64() * 1e3);
        if let Some(findings) = findings {
            b.rec.tally.check(findings.is_empty(), || {
                format!("checkpoint-{step} fails deep verify: {findings:?}")
            });
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
