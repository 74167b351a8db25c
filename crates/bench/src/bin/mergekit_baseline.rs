//! §3 claim — MergeKit's weights-only merging cannot resume training.
//!
//! Builds two checkpoints from one run, merges them (a) with the
//! weights-only MergeKit baseline and (b) with LLMTailor, then tries to
//! continue training from each. The LLMTailor output resumes with full
//! optimizer state; the MergeKit output has no optimizer state at all, so
//! the best one can do is restart AdamW from zero moments — which
//! produces the loss spike the paper warns about.
//!
//! Run: `cargo run --release -p llmt-bench --bin mergekit_baseline`

use llmt_bench::tables::print_table;
use llmt_ckpt::{safetensors, LoadMode};
use llmt_model::{LayerUnit, ModelConfig};
use llmt_optim::LrSchedule;
use llmt_tensor::Tensor;
use llmt_train::{resume_trainer, Trainer, TrainerConfig};
use llmtailor::{merge_with_recipe, LoadPattern, MergeRecipe, StrategyKind};

fn main() {
    let dir = tempfile::tempdir().unwrap();
    let cfg = ModelConfig::tiny_test();
    let tconf = TrainerConfig {
        model_config: cfg.clone(),
        task: llmt_data::DataTask::Cpt,
        seed: 5,
        data_seed: 5,
        world_size: 2,
        tensor_parallel: 1,
        micro_batch: 2,
        grad_accum: 1,
        seq_len: 32,
        lr_schedule: LrSchedule::Constant { lr: 4e-3 },
        ckpt_interval: 60,
        strategy: StrategyKind::Full,
        run_root: dir.path().to_path_buf(),
        async_checkpointing: false,
        max_grad_norm: None,
        dedup_checkpoints: false,
        frozen_units: Vec::new(),
        ckpt_compress: false,
        ckpt_delta_chain: 0,
    };
    eprintln!("training 120 steps with checkpoints at 60 and 120...");
    let mut t = Trainer::new(tconf.clone());
    t.train_until(120, None).unwrap();
    let loss_at_20 = t.loss_history.last().unwrap().1;
    let c20 = dir.path().join("checkpoint-120");
    // Ground truth: the uninterrupted run continues for 10 more steps.
    let mut reference = t;
    let _ref_losses: Vec<f64> = (0..10).map(|_| reference.step_once()).collect();

    // (a) MergeKit: weights only.
    let mk = llmt_mergekit::WeightsOnlyRecipe {
        merge_method: "passthrough".into(),
        base_model: c20.clone(),
        output: dir.path().join("mergekit-out"),
        slices: vec![],
        t: 0.5,
    };
    let mk_report = llmt_mergekit::merge_weights_only(&mk).unwrap();
    println!(
        "mergekit output resumable? {}",
        llmt_mergekit::is_resumable(&mk_report.output)
    );
    assert!(resume_trainer(&mk_report.output, tconf.clone()).is_err());

    // (b) LLMTailor: full checkpoint merge of the same composition.
    let lt = MergeRecipe {
        merge_method: "passthrough".into(),
        base_checkpoint: c20.clone(),
        output: dir.path().join("llmtailor-out"),
        slices: vec![],
    };
    let lt_report = merge_with_recipe(&lt, LoadMode::EagerFull, LoadPattern::Sequential).unwrap();
    println!(
        "llmtailor output resumable? {}",
        llmt_mergekit::is_resumable(&lt_report.output)
    );

    // Continue training 10 steps from each.
    // LLMTailor path: proper resume.
    let mut lt_trainer = resume_trainer(&lt_report.output, tconf.clone()).unwrap();
    let lt_losses: Vec<f64> = (0..10).map(|_| lt_trainer.step_once()).collect();

    // MergeKit path: load merged weights, but the optimizer must restart
    // from zero moments (there is nothing else to load).
    let mut mk_trainer = Trainer::new(tconf.clone());
    let (tensors, _) = safetensors::read_file(&mk_report.output.join("model.safetensors")).unwrap();
    for (name, raw) in tensors {
        mk_trainer.model.params.set(&name, Tensor::from_raw(&raw));
    }
    // Rebuild the engine's master weights from the loaded model copy
    // (moments start at zero — the spike source).
    let fresh_engine = llmt_zero::ZeroEngine::new(
        &mk_trainer.model.params,
        llmt_optim::build_groups(&cfg, llmt_optim::GroupLayout::LayerWise),
        tconf.world_size,
        llmt_optim::AdamWHyper {
            weight_decay: 0.01,
            ..Default::default()
        },
    );
    mk_trainer.engine = fresh_engine;
    mk_trainer.step = 120;
    let mk_losses: Vec<f64> = (0..10).map(|_| mk_trainer.step_once()).collect();

    let rows: Vec<Vec<String>> = (0..10)
        .map(|i| {
            vec![
                format!("{}", 121 + i),
                format!("{:.4}", lt_losses[i]),
                format!("{:.4}", mk_losses[i]),
            ]
        })
        .collect();
    print_table(
        &format!("Continuation losses (loss at failure step 120 was {loss_at_20:.4})"),
        &[
            "step",
            "LLMTailor resume",
            "MergeKit weights-only + fresh optimizer",
        ],
        &rows,
    );
    // Trajectory fidelity: distance of each continued model from the
    // never-interrupted reference after 10 steps.
    let dist = |m: &llmt_model::Model| -> f64 {
        let mut acc = 0.0f64;
        for ((_, a), (_, b)) in m.params.iter().zip(reference.model.params.iter()) {
            for (x, y) in a.data().iter().zip(b.data().iter()) {
                acc += ((x - y) as f64).powi(2);
            }
        }
        acc.sqrt()
    };
    let lt_dist = dist(&lt_trainer.model);
    let mk_dist = dist(&mk_trainer.model);
    println!("\nparameter L2 distance from the uninterrupted reference after 10 steps:");
    println!("  LLMTailor resume:               {lt_dist:.6}  (exact recovery: 0)");
    println!("  MergeKit weights-only restart:  {mk_dist:.6}  (trajectory lost)");
    assert_eq!(lt_dist, 0.0, "LLMTailor resume must be bit-exact");
    assert!(mk_dist > 0.01, "weights-only restart must diverge");
    let _ = LayerUnit::all(&cfg);
}
