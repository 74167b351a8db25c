//! Cross-world-size resume e2e: the restore engine's resharding-on-load
//! must be invisible to the training trajectory.
//!
//! The ZeRO engine's update is world-size-invariant bit-for-bit (see
//! `engine_equivalence`), and shard padding is exactly zero throughout
//! training, so regathering a group's flat buffer and re-partitioning it
//! for a different world size reconstructs the identical optimizer state.
//! Consequence, asserted here end to end: a run saved at `world_size=2`
//! and resumed at `world_size=4` (and vice versa) produces losses, model
//! bits and optimizer state identical to a run that executed at the
//! target world size the whole time.

use llmt_train::{resume_trainer, Trainer, TrainerConfig};
use std::path::Path;

const END: u64 = 6;
const CKPT: u64 = 3;

fn config(root: &Path, world: usize) -> TrainerConfig {
    let mut cfg = TrainerConfig::test_default(root.to_path_buf());
    cfg.ckpt_interval = CKPT;
    cfg.world_size = world;
    cfg
}

fn cross_world_resume(saved_world: usize, target_world: usize) {
    // Reference: uninterrupted run at the *target* world size.
    let ref_root = tempfile::tempdir().unwrap();
    let mut reference = Trainer::new(config(ref_root.path(), target_world));
    reference.train_until(END, None).unwrap();

    // Crashing run at the *saved* world size: checkpoint at CKPT, die at 4.
    let run_root = tempfile::tempdir().unwrap();
    let mut crashed = Trainer::new(config(run_root.path(), saved_world));
    crashed.train_until(END, Some(4)).unwrap();
    drop(crashed);

    // Resume the saved-world checkpoint with a target-world config: the
    // restore engine regathers and re-partitions every optimizer group.
    let ckpt = run_root.path().join(format!("checkpoint-{CKPT}"));
    let mut resumed = resume_trainer(&ckpt, config(run_root.path(), target_world)).unwrap();
    assert_eq!(resumed.step, CKPT);
    assert_eq!(resumed.engine.ranks.len(), target_world);
    resumed.train_until(END, None).unwrap();

    let ctx = format!("resume {saved_world}->{target_world}");
    assert_eq!(resumed.step, reference.step, "{ctx}: step");
    assert_eq!(
        resumed.loss_history, reference.loss_history,
        "{ctx}: loss trajectory diverged"
    );
    for ((spec, a), (_, b)) in resumed
        .model
        .params
        .iter()
        .zip(reference.model.params.iter())
    {
        assert_eq!(a.data(), b.data(), "{ctx}: tensor {} diverged", spec.name);
    }
    assert_eq!(
        resumed.engine.step_count, reference.engine.step_count,
        "{ctx}: optimizer step count"
    );
    assert_eq!(
        resumed.engine.ranks, reference.engine.ranks,
        "{ctx}: optimizer rank states"
    );
}

#[test]
fn resume_saved_at_2_runs_at_4_bit_exact() {
    cross_world_resume(2, 4);
}

#[test]
fn resume_saved_at_4_runs_at_2_bit_exact() {
    cross_world_resume(4, 2);
}

/// Degenerate but load-bearing corners: collapse to a single rank and
/// expand past the shard-padding boundary.
#[test]
fn resume_across_extreme_world_sizes_is_bit_exact() {
    cross_world_resume(2, 1);
    cross_world_resume(1, 8);
}

/// A resume takes nothing from `TrainerConfig::seed`: the model is built
/// from the restored masters, not initialised and overwritten. Two
/// resumes of one checkpoint under different seeds are the same trainer,
/// at the saved topology and through dp and dp×tp reshards.
#[test]
fn resume_does_not_depend_on_the_init_seed() {
    let run_root = tempfile::tempdir().unwrap();
    let mut saved = Trainer::new(config(run_root.path(), 4));
    saved.train_until(CKPT, None).unwrap();
    drop(saved);
    let ckpt = run_root.path().join(format!("checkpoint-{CKPT}"));

    for (world, tp) in [(4, 1), (2, 1), (2, 2)] {
        let resume_with_seed = |seed: u64| {
            let scratch = tempfile::tempdir().unwrap();
            let mut cfg = config(scratch.path(), world);
            cfg.tensor_parallel = tp;
            cfg.seed = seed;
            let mut t = resume_trainer(&ckpt, cfg).unwrap();
            let before = (t.engine.ranks.clone(), t.engine.step_count);
            let params: Vec<Vec<f32>> = t
                .model
                .params
                .iter()
                .map(|(_, x)| x.data().to_vec())
                .collect();
            let next_loss = t.step_once();
            (before, params, next_loss.to_bits(), t.engine.ranks.clone())
        };
        let a = resume_with_seed(1);
        let b = resume_with_seed(0xDEAD_BEEF);
        assert!(a == b, "dp={world} tp={tp}: resume depends on the seed");
        assert_eq!(a.0 .0.len(), world * tp);
    }
}
