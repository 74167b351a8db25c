//! Table 3 — checkpoint volume and checkpoint-time proportion, full vs
//! parity, both as calibrated paper-scale projections and as measured
//! simulation runs.
//!
//! Run: `cargo run --release -p llmt-bench --bin table3`

use llmt_bench::projection::{project, RunShape};
use llmt_bench::tables::{pct, print_table};
use llmt_data::DataTask;
use llmt_model::ModelConfig;
use llmt_optim::LrSchedule;
use llmt_train::{Trainer, TrainerConfig};
use llmtailor::StrategyKind;

fn measured(model: ModelConfig, task: DataTask, strategy: StrategyKind) -> (u64, u64, f64) {
    let dir = tempfile::tempdir().unwrap();
    let mut t = Trainer::new(TrainerConfig {
        model_config: model,
        task,
        seed: 3,
        data_seed: 3,
        world_size: 4,
        tensor_parallel: 1,
        micro_batch: 2,
        grad_accum: 1,
        seq_len: 48,
        lr_schedule: LrSchedule::Constant { lr: 1e-3 },
        ckpt_interval: 4,
        strategy,
        run_root: dir.path().to_path_buf(),
        async_checkpointing: false,
        max_grad_norm: None,
        dedup_checkpoints: false,
        frozen_units: Vec::new(),
        ckpt_compress: false,
        ckpt_delta_chain: 0,
    });
    let report = t.train_until(24, None).unwrap();
    (
        report.ckpt_io.bytes,
        report.ckpt_io.events,
        report.measured_proportion(),
    )
}

fn main() {
    // Paper-scale projection (calibrated once; see llmt_bench::projection).
    let mut rows = Vec::new();
    for (model, shape, paper_gb, paper_pct) in [
        (
            "Llama3.1-8B",
            RunShape::llama8b_cpt(),
            ("1799.52", "899.76"),
            ("4.99", "3.03"),
        ),
        (
            "Qwen2.5-7B",
            RunShape::qwen7b_sft(),
            ("1811.52", "905.76"),
            ("20.63", "12.76"),
        ),
    ] {
        for (ty, strategy, pg, pp) in [
            ("Total", StrategyKind::Full, paper_gb.0, paper_pct.0),
            ("Parity", StrategyKind::Parity, paper_gb.1, paper_pct.1),
        ] {
            let p = project(&shape, strategy, 8);
            rows.push(vec![
                model.to_string(),
                ty.to_string(),
                format!("{:.2}", p.total_ckpt_bytes as f64 / 1e9),
                pg.to_string(),
                pct(p.proportion),
                pp.to_string(),
            ]);
        }
    }
    print_table(
        "Table 3 (paper-scale projection): parity checkpointing",
        &[
            "Model",
            "Type",
            "Total CKPT size (GB)",
            "paper GB",
            "ckpt time (%)",
            "paper %",
        ],
        &rows,
    );

    // Measured at simulation scale.
    eprintln!("\nmeasuring simulation-scale runs (a few minutes)...");
    let mut rows = Vec::new();
    for (name, model, task) in [
        (
            "Llama3.1-8B-sim",
            ModelConfig::llama31_8b_sim(),
            DataTask::Cpt,
        ),
        (
            "Qwen2.5-7B-sim",
            ModelConfig::qwen25_7b_sim(),
            DataTask::Sft,
        ),
    ] {
        let (fb, fe, fp) = measured(model.clone(), task, StrategyKind::Full);
        let (pb, pe, pp) = measured(model, task, StrategyKind::Parity);
        rows.push(vec![
            name.to_string(),
            "Total".into(),
            fb.to_string(),
            fe.to_string(),
            pct(fp),
        ]);
        rows.push(vec![
            name.to_string(),
            "Parity".into(),
            pb.to_string(),
            pe.to_string(),
            pct(pp),
        ]);
        println!(
            "{name}: parity bytes reduction {:.2}x (paper: ~2x)",
            fb as f64 / pb as f64
        );
    }
    print_table(
        "Table 3 (measured, simulation scale)",
        &[
            "Model",
            "Type",
            "ckpt bytes",
            "events",
            "measured ckpt time (%)",
        ],
        &rows,
    );
}
