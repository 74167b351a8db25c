//! End-to-end tests of the `llmtailor` CLI binary.

use llmt_ckpt::engine::{self, LiveState, SaveOptions};
use llmt_ckpt::manifest::SaveLog;
use llmt_ckpt::writer::SaveRequest;
use llmt_ckpt::{CheckpointPaths, TrainerState};
use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
use llmt_storage::vfs::LocalFs;
use llmt_tensor::rng::Prng;
use llmt_zero::ZeroEngine;
use std::path::Path;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_llmtailor"))
}

/// Save two complementary partial checkpoints (steps 10, 20) plus the run
/// save log, mimicking a parity run.
fn build_run(root: &Path, cfg: &ModelConfig) {
    let mut model = Model::new(cfg.clone(), 1);
    let mut engine = ZeroEngine::new(
        &model.params,
        build_groups(cfg, GroupLayout::LayerWise),
        2,
        AdamWHyper::default(),
    );
    let mut rng = Prng::seed_from_u64(2);
    let mut log = SaveLog::default();
    let all = LayerUnit::all(cfg);
    for (step, phase) in [(10u64, 0usize), (20, 1)] {
        let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let mut grads = ParamSet::zeros(cfg);
        model.loss_and_grad(&Batch::new(tokens, 2, 8), &mut grads);
        engine.step(&mut model.params, &grads, 1e-3, true);
        let units: Vec<LayerUnit> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == phase)
            .map(|(_, u)| *u)
            .collect();
        let ts = TrainerState {
            global_step: step,
            ckpt_event: phase as u64,
            lr_schedule: LrSchedule::Constant { lr: 1e-3 },
            last_lr: 1e-3,
            loss_history: vec![],
            data_rng: rng.clone(),
            task: "cli-test".into(),
            model_name: cfg.model_name.clone(),
            micro_batch: 2,
            grad_accum: 1,
            seq_len: 8,
        };
        engine::save(
            &[&LocalFs],
            &SaveRequest {
                dir: &CheckpointPaths::under(root, step).dir,
                step,
                source: &LiveState {
                    config: cfg,
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
        for u in units {
            log.record(u, step);
        }
    }
    log.save_on(&LocalFs, &root.join("save_log.json")).unwrap();
}

#[test]
fn autorecipe_emit_and_execute_then_inspect() {
    let dir = tempfile::tempdir().unwrap();
    let cfg = ModelConfig::tiny_test();
    build_run(dir.path(), &cfg);

    // autorecipe --emit + --execute
    let recipe_path = dir.path().join("recipe.yaml");
    let out = cli()
        .args([
            "autorecipe",
            "--run-root",
            dir.path().to_str().unwrap(),
            "--failure-step",
            "25",
            "--output",
            "merged-25",
            "--emit",
            recipe_path.to_str().unwrap(),
            "--execute",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("assembled"), "{stdout}");
    let yaml = std::fs::read_to_string(&recipe_path).unwrap();
    assert!(yaml.contains("passthrough"));
    assert!(yaml.contains("checkpoint-10") && yaml.contains("checkpoint-20"));

    // inspect the merged output
    let merged = dir.path().join("merged-25");
    let out = cli()
        .args(["inspect", merged.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FULL"), "{stdout}");
    assert!(stdout.contains("tiny-test"));

    // inspect a partial source
    let out = cli()
        .args([
            "inspect",
            dir.path().join("checkpoint-10").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("PARTIAL"));
}

#[test]
fn merge_subcommand_runs_a_recipe_file() {
    let dir = tempfile::tempdir().unwrap();
    let cfg = ModelConfig::tiny_test();
    build_run(dir.path(), &cfg);
    // Hand-written recipe covering all units from the two halves.
    let all = LayerUnit::all(&cfg);
    let (a, b): (Vec<_>, Vec<_>) = all.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    let list = |v: Vec<(usize, &LayerUnit)>| {
        v.into_iter()
            .map(|(_, u)| format!("\"{u}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let yaml = format!(
        "merge_method: passthrough\nbase_checkpoint: {root}/checkpoint-20\noutput: {root}/out\nslices:\n  - checkpoint: {root}/checkpoint-10\n    units: [{ua}]\n  - checkpoint: {root}/checkpoint-20\n    units: [{ub}]\n",
        root = dir.path().display(),
        ua = list(a),
        ub = list(b),
    );
    let recipe_path = dir.path().join("r.yaml");
    std::fs::write(&recipe_path, yaml).unwrap();
    for extra in [&[][..], &["--lazy"][..], &["--interleaved"][..]] {
        // Re-merging over the same output dir is fine (files overwritten).
        let mut c = cli();
        c.args(["merge", "--recipe", recipe_path.to_str().unwrap()]);
        c.args(extra);
        let out = c.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn bad_invocations_fail_with_messages() {
    let out = cli().args(["merge"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--recipe"));

    let out = cli().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    let out = cli()
        .args(["inspect", "/nonexistent/dir"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = cli().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn verify_subcommand_passes_clean_and_fails_corrupt() {
    let dir = tempfile::tempdir().unwrap();
    let cfg = ModelConfig::tiny_test();
    build_run(dir.path(), &cfg);
    let ckpt = dir.path().join("checkpoint-10");
    let out = cli()
        .args(["verify", ckpt.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));

    // Corrupt the model file; verify must now fail.
    let model_file = ckpt.join("model.safetensors");
    let mut bytes = std::fs::read(&model_file).unwrap();
    let n = bytes.len();
    bytes[n - 4] ^= 0x55;
    std::fs::write(&model_file, bytes).unwrap();
    let out = cli()
        .args(["verify", ckpt.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("digest mismatch"));
}

#[test]
fn prune_subcommand_dry_run_and_real() {
    let dir = tempfile::tempdir().unwrap();
    let cfg = ModelConfig::tiny_test();
    build_run(dir.path(), &cfg); // two complementary halves at 10 and 20
                                 // Nothing prunable: both halves are load-bearing.
    let out = cli()
        .args([
            "prune",
            "--run-root",
            dir.path().to_str().unwrap(),
            "--keep-last",
            "0",
            "--dry-run",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("would prune 0"));
    assert!(dir.path().join("checkpoint-10").exists());
}

#[test]
fn diff_subcommand_ranks_units_by_drift() {
    let dir = tempfile::tempdir().unwrap();
    let cfg = ModelConfig::tiny_test();
    build_run(dir.path(), &cfg); // halves at steps 10 and 20
                                 // Diff needs common units; the two parity halves share none, so diff
                                 // a checkpoint against itself (zero drift) for the plumbing check.
    let c10 = dir.path().join("checkpoint-10");
    let out = cli()
        .args(["diff", c10.to_str().unwrap(), c10.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("weight RMS"));
    assert!(stdout.contains("0.000000e0"), "{stdout}");

    let out = cli()
        .args(["diff", c10.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "one-arg diff must fail");
}
