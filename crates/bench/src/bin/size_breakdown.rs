//! §2.2 claim — "a single checkpoint must store at least 7x the size of
//! the FP16/BF16 model itself": byte breakdown of real simulation
//! checkpoints and of the paper-scale models.
//!
//! Run: `cargo run --release -p llmt-bench --bin size_breakdown`

use llmt_bench::fixtures::CkptFactory;
use llmt_bench::tables::print_table;
use llmt_model::{LayerUnit, ModelConfig};
use llmt_storage::vfs::LocalFs;

fn main() {
    // Real files at simulation scale.
    let mut rows = Vec::new();
    for cfg in [
        ModelConfig::llama32_1b_sim(),
        ModelConfig::llama31_8b_sim(),
        ModelConfig::qwen25_7b_sim(),
    ] {
        let dir = tempfile::tempdir().unwrap();
        let factory = CkptFactory::new(cfg.clone(), 4, 5, 1);
        let ckpt = factory.save(dir.path(), &LayerUnit::all(&cfg));
        let paths = llmt_ckpt::CheckpointPaths::open_on(&LocalFs, &ckpt).unwrap();
        let model = std::fs::metadata(paths.model()).unwrap().len();
        let optim: u64 = (0..4)
            .map(|r| std::fs::metadata(paths.optim_shard(r)).unwrap().len())
            .sum();
        let total = paths.total_bytes_on(&LocalFs).unwrap();
        rows.push(vec![
            cfg.model_name.clone(),
            model.to_string(),
            optim.to_string(),
            total.to_string(),
            format!("{:.2}", total as f64 / model as f64),
        ]);
    }
    print_table(
        "Checkpoint size breakdown (measured, simulation scale)",
        &[
            "model",
            "bf16 model bytes",
            "optimizer bytes",
            "total bytes",
            "total / model",
        ],
        &rows,
    );

    // Paper-scale arithmetic.
    let mut rows = Vec::new();
    for name in ["llama3.2-1b", "llama3.1-8b", "qwen2.5-7b"] {
        let cfg = ModelConfig::paper_scale(name).unwrap();
        let params: u64 = LayerUnit::all(&cfg)
            .into_iter()
            .flat_map(|u| llmt_model::naming::unit_param_specs(&cfg, u))
            .map(|s| s.numel() as u64)
            .sum();
        let b = llmt_storage::checkpoint_bytes(params, 8);
        rows.push(vec![
            name.to_string(),
            format!("{:.2e}", params as f64),
            format!("{:.2}", b.model as f64 / 1e9),
            format!("{:.2}", b.optim as f64 / 1e9),
            format!("{:.2}", b.total() as f64 / 1e9),
            format!("{:.2}", b.total() as f64 / b.model as f64),
        ]);
    }
    print_table(
        "Checkpoint size breakdown (paper scale; Table 7 reports 17.29 GB for 1B, 112.47 GB for 8B)",
        &["model", "params", "bf16 model GB", "optimizer GB", "total GB", "total / model"],
        &rows,
    );
    println!(
        "\nbreakdown per parameter: 2 B bf16 weight + 4 B fp32 master + 4 B exp_avg \
         + 4 B exp_avg_sq = 14 B = 7x the bf16 copy (paper section 2.2)"
    );
}
