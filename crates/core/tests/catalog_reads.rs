//! Reads of a run root are counted: a GC pass (private root or shared
//! store) reads every `COMMIT` and every `partial_manifest.json` exactly
//! once and lists each run root once, and a delta save reads one seal no
//! matter how many checkpoints the root already holds.

use llmt_ckpt::engine::{self, LiveState, SaveOptions};
use llmt_ckpt::writer::SaveRequest;
use llmt_ckpt::{CheckpointPaths, TrainerState};
use llmt_coord::{CoordConfig, Coordinator, RUNS_DIR};
use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
use llmt_storage::vfs::{LocalFs, Storage, SystemClock};
use llmt_tensor::rng::Prng;
use llmt_zero::ZeroEngine;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

#[path = "../../storage/tests/support/recording_fs.rs"]
mod recording_fs;
use recording_fs::{PathReads, RecordingFs};

/// Save `checkpoint-<step>` of a state seeded by `step` through `save`.
fn save_step<T>(cfg: &ModelConfig, root: &Path, step: u64, save: impl FnOnce(&SaveRequest) -> T) {
    let mut model = Model::new(cfg.clone(), step);
    let mut zero = ZeroEngine::new(
        &model.params,
        build_groups(cfg, GroupLayout::LayerWise),
        2,
        AdamWHyper::default(),
    );
    let mut rng = Prng::seed_from_u64(step);
    let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
    let mut grads = ParamSet::zeros(cfg);
    model.loss_and_grad(&Batch::new(tokens, 2, 8), &mut grads);
    zero.step(&mut model.params, &grads, 1e-3, true);
    let ts = TrainerState {
        global_step: step,
        ckpt_event: 0,
        lr_schedule: LrSchedule::Constant { lr: 1e-3 },
        last_lr: 1e-3,
        loss_history: vec![],
        data_rng: rng,
        task: "catalog".into(),
        model_name: cfg.model_name.clone(),
        micro_batch: 2,
        grad_accum: 1,
        seq_len: 8,
    };
    save(&SaveRequest {
        dir: &CheckpointPaths::under(root, step).dir,
        step,
        source: &LiveState {
            config: cfg,
            params: &model.params,
            engine: &zero,
        },
        trainer_state: &ts,
        units: &LayerUnit::all(cfg),
        metrics: &MetricsRegistry::new(),
        store: None,
        bases: None,
    });
}

type Seen = BTreeMap<PathBuf, PathReads>;

/// What `path` saw between two snapshots of a recording storage.
fn since(before: &Seen, after: &Seen, path: &Path) -> PathReads {
    let (b, a) = (
        before.get(path).copied().unwrap_or_default(),
        after.get(path).copied().unwrap_or_default(),
    );
    PathReads {
        reads: a.reads - b.reads,
        bytes: a.bytes - b.bytes,
        lists: a.lists - b.lists,
    }
}

/// One pass read the seal of every checkpoint in `ckpts` once and listed
/// every directory in `listed` once.
fn assert_one_read_each(
    who: &str,
    before: &Seen,
    after: &Seen,
    ckpts: &[CheckpointPaths],
    listed: &[&Path],
) {
    for cp in ckpts {
        for file in [cp.commit_marker(), cp.manifest()] {
            let reads = since(before, after, &file).reads;
            assert_eq!(reads, 1, "{who} read {} {reads} times", file.display());
        }
    }
    for dir in listed {
        let lists = since(before, after, dir).lists;
        assert_eq!(lists, 1, "{who} listed {} {lists} times", dir.display());
    }
}

#[test]
fn a_gc_pass_reads_every_seal_once() {
    let cfg = ModelConfig::tiny_test();

    // Private root: four committed checkpoints, one `collect_garbage_on`.
    let dir = tempfile::tempdir().unwrap();
    let root = dir.path();
    for step in 1..=4 {
        save_step(&cfg, root, step, |req| {
            engine::save(&[&LocalFs], req, &SaveOptions::dedup(true)).unwrap()
        });
    }
    let fs = RecordingFs::new(LocalFs);
    let report = llmtailor::gc::collect_garbage_on(&fs, root).unwrap();
    assert_eq!(report.checkpoints_censused, 4);
    assert_eq!(report.sweep.deleted_objects, 0);
    let ckpts: Vec<_> = (1..=4).map(|s| CheckpointPaths::under(root, s)).collect();
    assert_one_read_each(
        "collect_garbage_on",
        &Seen::new(),
        &fs.seen(),
        &ckpts,
        &[root],
    );

    // Shared store: two runs of two checkpoints, one collector pass.
    let dir = tempfile::tempdir().unwrap();
    let fs = Arc::new(RecordingFs::new(LocalFs));
    let coord = Coordinator::open_on(
        fs.clone(),
        dir.path(),
        CoordConfig::default(),
        Arc::new(SystemClock),
    )
    .unwrap();
    let mut ckpts = Vec::new();
    for (run, steps) in [("run-a", [1, 2]), ("run-b", [3, 4])] {
        for step in steps {
            let session = coord.publisher(run, 1 << 20).unwrap();
            save_step(&cfg, session.run_root(), step, |req| {
                session.save(req, &SaveOptions::default()).unwrap()
            });
            ckpts.push(CheckpointPaths::under(session.run_root(), step));
        }
    }
    let before = fs.seen();
    let report = coord.collector().unwrap().collect().unwrap();
    assert!(report.live_digests > 0);
    assert_eq!(report.sweep.deleted_objects, 0);
    let (run_a, run_b) = (coord.run_root("run-a"), coord.run_root("run-b"));
    let runs = dir.path().join(RUNS_DIR);
    assert_one_read_each(
        "CollectorSession::collect",
        &before,
        &fs.seen(),
        &ckpts,
        &[&runs, &run_a, &run_b],
    );
}

#[test]
fn a_delta_save_reads_one_seal_however_many_checkpoints_exist() {
    let cfg = ModelConfig::tiny_test();
    let dir = tempfile::tempdir().unwrap();
    let root = dir.path();
    let delta = SaveOptions {
        dedup: true,
        compress: true,
        delta_chain: 8,
        ..SaveOptions::default()
    };
    for step in 1..=5 {
        save_step(&cfg, root, step, |req| {
            engine::save(&[&LocalFs], req, &delta).unwrap()
        });
    }
    let fs = RecordingFs::new(LocalFs);
    save_step(&cfg, root, 6, |req| {
        let report = engine::save(&[&fs as &dyn Storage], req, &delta)
            .unwrap()
            .report;
        assert!(report.delta_objects > 0, "the save found no delta base");
    });
    let seen = fs.seen();
    let reads_of = |name: &str| -> u64 {
        seen.iter()
            .filter(|(p, _)| p.file_name().is_some_and(|n| n == name))
            .map(|(_, r)| r.reads)
            .sum()
    };
    assert_eq!(reads_of("COMMIT"), 1);
    assert_eq!(reads_of("partial_manifest.json"), 1);
    let newest = CheckpointPaths::under(root, 5);
    assert_eq!(seen[&newest.commit_marker()].reads, 1);
    assert_eq!(seen[&newest.manifest()].reads, 1);
    assert_eq!(seen[root].lists, 1);
}
