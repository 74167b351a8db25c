//! Ablation: blocking vs overlapped (async) checkpoint writes.
//!
//! The paper notes that layer-wise selection composes with I/O-overlap
//! techniques (§5.1); this binary quantifies the composition on the
//! simulation: training stall per checkpoint under {full, parity} x
//! {blocking, async}. The async path's stall is only the in-memory
//! snapshot; the write happens while training continues.
//!
//! Run: `cargo run --release -p llmt-bench --bin async_overlap`

use llmt_bench::tables::{pct, print_table};
use llmt_data::DataTask;
use llmt_model::ModelConfig;
use llmt_optim::LrSchedule;
use llmt_train::{Trainer, TrainerConfig};
use llmtailor::StrategyKind;

fn run(strategy: StrategyKind, async_ckpt: bool) -> (f64, f64, u64) {
    let dir = tempfile::tempdir().unwrap();
    let mut t = Trainer::new(TrainerConfig {
        model_config: ModelConfig::llama31_8b_sim(),
        task: DataTask::Cpt,
        seed: 9,
        data_seed: 9,
        world_size: 4,
        tensor_parallel: 1,
        micro_batch: 2,
        grad_accum: 1,
        seq_len: 48,
        lr_schedule: LrSchedule::Constant { lr: 1e-3 },
        ckpt_interval: 3,
        strategy,
        run_root: dir.path().to_path_buf(),
        async_checkpointing: async_ckpt,
        max_grad_norm: None,
        dedup_checkpoints: false,
        frozen_units: Vec::new(),
        ckpt_compress: false,
        ckpt_delta_chain: 0,
    });
    let report = t.train_until(18, None).unwrap();
    (
        report.ckpt_secs,
        report.measured_proportion(),
        report.ckpt_io.bytes,
    )
}

fn main() {
    let mut rows = Vec::new();
    for (strat_name, strategy) in [
        ("full", StrategyKind::Full),
        ("parity", StrategyKind::Parity),
    ] {
        for (mode, async_ckpt) in [("blocking", false), ("async", true)] {
            eprintln!("running {strat_name}/{mode}...");
            let (stall, proportion, bytes) = run(strategy, async_ckpt);
            rows.push(vec![
                strat_name.to_string(),
                mode.to_string(),
                format!("{:.3}", stall),
                pct(proportion),
                bytes.to_string(),
            ]);
        }
    }
    print_table(
        "Checkpoint stall: blocking vs overlapped, Llama3.1-8B-sim CPT (6 events)",
        &[
            "strategy",
            "write mode",
            "stall (s)",
            "stall proportion (%)",
            "bytes",
        ],
        &rows,
    );
    println!(
        "\nshape: async cuts the stall to the snapshot cost for either \
         strategy, and composes with parity's 2x byte reduction — the two \
         optimizations are independent, as the paper argues"
    );
}
