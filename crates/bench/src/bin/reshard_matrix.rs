//! Cross-topology resharding matrix: for every remap pair `{dp, tp} ->
//! {dp', tp'}`, measure how long the offline [`llmt_zero::ReshardPlan`]
//! takes to compute and how long the full restore (verify-on-read,
//! plan-executing bind) takes to execute it.
//!
//! Run: `cargo run --release -p llmt-bench --bin reshard_matrix
//!       [-- --smoke] [-- --out <PATH>]`
//!
//! Emits `BENCH_reshard_matrix.json` (override with `--out`): one record
//! per remap pair with the plan wall-time, the plan's op/element counts,
//! and the restore wall-time. Plan computation does no I/O, so the two
//! numbers separate the paper's offline-tailoring cost from the
//! bandwidth-bound restore cost.
//!
//! `--smoke` runs the matrix on the tiny test model and gates CI: every
//! pair must restore at the requested topology, the reshard flag must
//! track `from != to`, identity plans must be empty, and every plan must
//! move each element exactly once (total elements == total group numel).

use llmt_ckpt::engine::{self, LiveState, SaveOptions};
use llmt_ckpt::{restore_checkpoint, CheckpointPaths, RestoreRequest, SaveRequest, TrainerState};
use llmt_model::{LayerUnit, Model, ModelConfig};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
use llmt_storage::vfs::LocalFs;
use llmt_tensor::rng::Prng;
use llmt_zero::{GroupTopoLayout, ReshardPlan, Topology, ZeroEngine};
use serde_json::json;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn check(ok: bool, what: &str) {
    if !ok {
        eprintln!("reshard_matrix smoke FAILED: {what}");
        std::process::exit(1);
    }
}

/// Save one checkpoint of `cfg` sharded at `topo`; returns its directory.
fn build_checkpoint(root: &Path, cfg: &ModelConfig, topo: Topology) -> PathBuf {
    let model = Model::new(cfg.clone(), 7);
    let engine = ZeroEngine::with_topology(
        &model.params,
        build_groups(cfg, GroupLayout::LayerWise),
        topo,
        AdamWHyper::default(),
    );
    let ts = TrainerState {
        global_step: 1,
        ckpt_event: 0,
        lr_schedule: LrSchedule::Constant { lr: 1e-3 },
        last_lr: 1e-3,
        loss_history: vec![],
        data_rng: Prng::seed_from_u64(9),
        task: "reshard-matrix".into(),
        model_name: cfg.model_name.clone(),
        micro_batch: 2,
        grad_accum: 1,
        seq_len: 8,
    };
    engine::save(
        &[&LocalFs],
        &SaveRequest {
            dir: &CheckpointPaths::under(root, 1).dir,
            step: 1,
            source: &LiveState {
                config: cfg,
                params: &model.params,
                engine: &engine,
            },
            trainer_state: &ts,
            units: &LayerUnit::all(cfg),
            metrics: &MetricsRegistry::new(),
            store: None,
            bases: None,
        },
        &SaveOptions::default(),
    )
    .unwrap()
    .report
    .paths
    .dir
}

/// The per-group topology layouts the restore engine itself would
/// reconstruct; planning over them here isolates the pure plan cost.
fn layouts(cfg: &ModelConfig) -> Vec<GroupTopoLayout> {
    let mut shapes: HashMap<String, Vec<usize>> = HashMap::new();
    for unit in LayerUnit::all(cfg) {
        for spec in llmt_model::naming::unit_param_specs(cfg, unit) {
            shapes.insert(spec.name, spec.shape);
        }
    }
    build_groups(cfg, GroupLayout::LayerWise)
        .iter()
        .map(|g| GroupTopoLayout::from_group(g, |n| shapes.get(n).cloned()).unwrap())
        .collect()
}

struct PairResult {
    from: Topology,
    to: Topology,
    plan_secs: f64,
    plan_ops: usize,
    plan_elements: usize,
    restore_secs: f64,
    bytes_fetched: u64,
    resharded: bool,
}

/// Time plan computation and the full restore for every (from, to) pair.
fn measure(cfg: &ModelConfig, topologies: &[Topology]) -> Vec<PairResult> {
    let group_layouts = layouts(cfg);
    let total_numel: usize = build_groups(cfg, GroupLayout::LayerWise)
        .iter()
        .map(|g| g.numel)
        .sum();

    let root = tempfile::tempdir().unwrap();
    let checkpoints: Vec<PathBuf> = topologies
        .iter()
        .map(|t| build_checkpoint(&root.path().join(format!("{t}")), cfg, *t))
        .collect();

    let mut out = Vec::new();
    for (from, dir) in topologies.iter().zip(&checkpoints) {
        for to in topologies {
            let t0 = Instant::now();
            let plan = ReshardPlan::compute(&group_layouts, *from, *to).unwrap();
            let plan_secs = t0.elapsed().as_secs_f64();
            check(
                plan.total_elements() == total_numel,
                &format!(
                    "{from} -> {to}: plan moves {} of {total_numel} elements",
                    plan.total_elements()
                ),
            );
            check(
                plan.is_identity() == (from == to),
                &format!("{from} -> {to}: identity flag wrong"),
            );

            let req = RestoreRequest {
                topology: Some(*to),
                ..RestoreRequest::default()
            };
            let t0 = Instant::now();
            let state = restore_checkpoint(dir, &req).unwrap();
            let restore_secs = t0.elapsed().as_secs_f64();
            check(
                state.ranks.len() == to.world(),
                &format!("{from} -> {to}: bound {} ranks", state.ranks.len()),
            );
            check(
                state.report.saved_topology == *from && state.report.topology == *to,
                &format!("{from} -> {to}: report topologies wrong"),
            );
            check(
                state.report.resharded == (from != to),
                &format!("{from} -> {to}: resharded flag wrong"),
            );

            out.push(PairResult {
                from: *from,
                to: *to,
                plan_secs,
                plan_ops: plan.total_ops(),
                plan_elements: plan.total_elements(),
                restore_secs,
                bytes_fetched: state.report.bytes_fetched,
                resharded: state.report.resharded,
            });
        }
    }
    out
}

fn report(cfg: &ModelConfig, topologies: &[Topology], pairs: &[PairResult]) -> serde_json::Value {
    json!({
        "bench": "reshard_matrix",
        "model": cfg.model_name,
        "topologies": topologies.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
        "pairs": pairs.iter().map(|p| json!({
            "from": p.from.to_string(),
            "to": p.to.to_string(),
            "plan_secs": p.plan_secs,
            "plan_ops": p.plan_ops,
            "plan_elements": p.plan_elements,
            "restore_secs": p.restore_secs,
            "restore_mb_per_s": if p.restore_secs > 0.0 {
                p.bytes_fetched as f64 / 1e6 / p.restore_secs
            } else { 0.0 },
            "bytes_fetched": p.bytes_fetched,
            "resharded": p.resharded,
        })).collect::<Vec<_>>(),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_reshard_matrix.json"));

    let (cfg, topologies) = if smoke {
        // The full {dp=1..4} x {tp=1,2} matrix on the tiny model.
        let mut v = Vec::new();
        for tp in [1usize, 2] {
            for dp in 1usize..=4 {
                v.push(Topology { dp, tp });
            }
        }
        (ModelConfig::tiny_test(), v)
    } else {
        let v = [1usize, 2, 4]
            .iter()
            .flat_map(|&dp| [1usize, 2].map(|tp| Topology { dp, tp }))
            .collect();
        (ModelConfig::llama31_8b_sim(), v)
    };

    eprintln!(
        "reshard matrix on {}: {} topologies, {} remap pairs...",
        cfg.model_name,
        topologies.len(),
        topologies.len() * topologies.len()
    );
    let pairs = measure(&cfg, &topologies);
    let json = report(&cfg, &topologies, &pairs);
    std::fs::write(&out_path, serde_json::to_string_pretty(&json).unwrap()).unwrap();

    let resharded = pairs.iter().filter(|p| p.resharded).count();
    let max_restore = pairs.iter().map(|p| p.restore_secs).fold(0.0, f64::max);
    let max_plan = pairs.iter().map(|p| p.plan_secs).fold(0.0, f64::max);
    println!(
        "reshard_matrix {} OK: {} pairs ({} resharded), max plan {:.2} ms, \
         max restore {:.1} ms -> {}",
        if smoke { "smoke" } else { "full" },
        pairs.len(),
        resharded,
        max_plan * 1e3,
        max_restore * 1e3,
        out_path.display()
    );
}
