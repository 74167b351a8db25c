//! Table 6 — checkpoint volume and time proportion, full vs filtered:
//! paper-scale projection plus simulation-scale measurement. Reproduces
//! the headline 4.3x storage (Llama) and 2.8x time-proportion (Qwen)
//! reductions.
//!
//! Run: `cargo run --release -p llmt-bench --bin table6`

use llmt_bench::projection::{project, RunShape};
use llmt_bench::tables::{pct, print_table};
use llmt_data::DataTask;
use llmt_model::ModelConfig;
use llmt_optim::LrSchedule;
use llmt_train::{Trainer, TrainerConfig};
use llmtailor::StrategyKind;

fn main() {
    let mut rows = Vec::new();
    let mut headlines = Vec::new();
    for (model, shape, paper_gb, paper_pct) in [
        (
            "Llama3.1-8B",
            RunShape::llama8b_cpt(),
            ("1799.52", "420"),
            ("4.99", "1.66"),
        ),
        (
            "Qwen2.5-7B",
            RunShape::qwen7b_sft(),
            ("1811.52", "434.56"),
            ("20.63", "7.26"),
        ),
    ] {
        let full = project(&shape, StrategyKind::Full, 8);
        let filt = project(&shape, StrategyKind::Filtered, 8);
        for (ty, p, pg, pp) in [
            ("Total", full, paper_gb.0, paper_pct.0),
            ("Filtered", filt, paper_gb.1, paper_pct.1),
        ] {
            rows.push(vec![
                model.to_string(),
                ty.to_string(),
                format!("{:.2}", p.total_ckpt_bytes as f64 / 1e9),
                pg.to_string(),
                pct(p.proportion),
                pp.to_string(),
            ]);
        }
        headlines.push(format!(
            "{model}: storage reduction {:.2}x (paper {}), time-proportion reduction {:.2}x (paper {})",
            full.total_ckpt_bytes as f64 / filt.total_ckpt_bytes as f64,
            if model.starts_with("Llama") { "4.3x" } else { "4.2x" },
            full.proportion / filt.proportion,
            if model.starts_with("Llama") { "3.0x" } else { "2.8x" },
        ));
    }
    print_table(
        "Table 6 (paper-scale projection): filtered checkpointing",
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
    for h in &headlines {
        println!("{h}");
    }

    eprintln!("\nmeasuring simulation-scale runs...");
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
        let run = |strategy| {
            let dir = tempfile::tempdir().unwrap();
            let mut t = Trainer::new(TrainerConfig {
                model_config: model.clone(),
                task,
                seed: 3,
                data_seed: 3,
                world_size: 4,
                tensor_parallel: 1,
                micro_batch: 2,
                grad_accum: 1,
                seq_len: 48,
                lr_schedule: LrSchedule::Constant { lr: 1e-3 },
                ckpt_interval: 3,
                strategy,
                run_root: dir.path().to_path_buf(),
                async_checkpointing: false,
                max_grad_norm: None,
                dedup_checkpoints: false,
                frozen_units: Vec::new(),
                ckpt_compress: false,
                ckpt_delta_chain: 0,
            });
            let report = t.train_until(30, None).unwrap();
            (report.ckpt_io.bytes, report.measured_proportion())
        };
        let (fb, fp) = run(StrategyKind::Full);
        let (gb, gp) = run(StrategyKind::Filtered);
        rows.push(vec![
            name.to_string(),
            "Total".into(),
            fb.to_string(),
            pct(fp),
        ]);
        rows.push(vec![
            name.to_string(),
            "Filtered".into(),
            gb.to_string(),
            pct(gp),
        ]);
        println!(
            "{name}: measured byte reduction {:.2}x",
            fb as f64 / gb as f64
        );
    }
    print_table(
        "Table 6 (measured, simulation scale)",
        &["Model", "Type", "ckpt bytes", "measured ckpt time (%)"],
        &rows,
    );
}
