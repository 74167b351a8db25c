//! The motivating observation (paper §1-§2): layer updates are highly
//! non-uniform across depth and time. Trains the 1B-sim model, saving
//! full checkpoints periodically, then prints the per-unit RMS weight
//! change between consecutive checkpoints — the statistic the selective
//! strategies (and our dynamic strategy) exploit.
//!
//! Run: `cargo run --release -p llmt-bench --bin layer_drift`

use llmt_bench::tables::print_table;
use llmt_data::DataTask;
use llmt_model::{LayerUnit, ModelConfig};
use llmt_optim::LrSchedule;
use llmt_train::{Trainer, TrainerConfig};
use llmtailor::{diff_checkpoints, StrategyKind};

fn main() {
    let dir = tempfile::tempdir().unwrap();
    let cfg = TrainerConfig {
        model_config: ModelConfig::llama32_1b_sim(),
        task: DataTask::Cpt,
        seed: 11,
        data_seed: 11,
        world_size: 2,
        tensor_parallel: 1,
        micro_batch: 2,
        grad_accum: 1,
        seq_len: 48,
        lr_schedule: LrSchedule::WarmupCosine {
            peak_lr: 2e-3,
            min_lr: 2e-4,
            warmup_steps: 5,
            total_steps: 40,
        },
        ckpt_interval: 10,
        strategy: StrategyKind::Full,
        run_root: dir.path().to_path_buf(),
        async_checkpointing: false,
        max_grad_norm: None,
        dedup_checkpoints: false,
        frozen_units: Vec::new(),
        ckpt_compress: false,
        ckpt_delta_chain: 0,
    };
    eprintln!("training 40 steps with full checkpoints every 10...");
    let mut t = Trainer::new(cfg.clone());
    t.train_until(40, None).unwrap();
    drop(t);

    let steps = [10u64, 20, 30, 40];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut diffs_per_window = Vec::new();
    for w in steps.windows(2) {
        let a = dir.path().join(format!("checkpoint-{}", w[0]));
        let b = dir.path().join(format!("checkpoint-{}", w[1]));
        diffs_per_window.push(diff_checkpoints(&a, &b).unwrap());
    }
    for unit in LayerUnit::all(&cfg.model_config) {
        let mut row = vec![unit.to_string()];
        for diffs in &diffs_per_window {
            let d = diffs.iter().find(|d| d.unit == unit).unwrap();
            row.push(format!("{:.2e}", d.weight_rms));
        }
        rows.push(row);
    }
    print_table(
        "Per-unit RMS weight change between consecutive checkpoints (Llama3.2-1B-sim, CPT)",
        &["unit", "10->20", "20->30", "30->40"],
        &rows,
    );

    // Quantify the non-uniformity the paper's premise rests on.
    for (i, diffs) in diffs_per_window.iter().enumerate() {
        let transformer: Vec<f64> = diffs
            .iter()
            .filter(|d| matches!(d.unit, LayerUnit::Transformer(_)))
            .map(|d| d.weight_rms)
            .collect();
        let max = transformer.iter().cloned().fold(f64::MIN, f64::max);
        let min = transformer.iter().cloned().fold(f64::MAX, f64::min);
        println!(
            "window {}: max/min transformer-layer drift ratio = {:.2}x",
            i + 1,
            max / min
        );
    }
    println!(
        "\n(the spread across layers is what makes selective checkpointing \
         lossless in practice: stable layers can be saved less often)"
    );
}
