//! Checkpoint layout conversion: consolidated safetensors ↔ sharded
//! per-rank checkpoints at any dp×tp topology.
//!
//! Two on-disk layouts exist in this ecosystem:
//!
//! - **Sharded** — the training checkpoint this repo writes: consolidated
//!   BF16 weights plus per-rank ZeRO optimizer shards laid out for a
//!   specific [`Topology`], committed under a `checkpoint-<step>`
//!   directory.
//! - **Consolidated** — `model.safetensors` + `config.json` and nothing
//!   else: the HF-inference-style directory MergeKit-merged models ship
//!   as. No optimizer state, no trainer metadata.
//!
//! [`convert_checkpoint`] moves state between the two, and between any
//! two topologies of the sharded form:
//!
//! - sharded → sharded at a different `{dp, tp}`: a full restore through
//!   the plan-executing restore engine (verify-on-read stays on), then a
//!   re-save at the target topology. Weights and optimizer state are
//!   moved bit-exactly — AdamW is element-wise, so the repartition is an
//!   implementation detail of the layout, not of the trajectory.
//! - sharded → consolidated: strips the checkpoint down to weights for
//!   inference or for feeding MergeKit-style weight tooling.
//! - consolidated → sharded: imports a weights-only directory (e.g. a
//!   MergeKit merge) as a *trainable* checkpoint at the requested
//!   topology: FP32 masters are widened from the BF16 weights and the
//!   Adam moments start at zero, exactly as a fresh [`ZeroEngine`] would.
//!   Weight bytes survive the round trip unchanged — BF16 → f32 → BF16
//!   is exact.
//!
//! Conversions are deterministic: the same source and target always
//! produce byte-identical output, so round trips can be checked by
//! digest.

use crate::error::{Result, TailorError};
use llmt_ckpt::engine::{self, LiveState, SaveOptions};
use llmt_ckpt::{
    restore_checkpoint_on, safetensors, CheckpointPaths, CheckpointReport, CkptError,
    RestoreRequest, RestoreScope, SaveRequest, TrainerState, ZeroMeta,
};
use llmt_model::{LayerUnit, ModelConfig, ParamSet};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, AdamWHyper, GroupLayout, GroupSpec, LrSchedule};
use llmt_storage::vfs::{LocalFs, Storage};
use llmt_tensor::rng::Prng;
use llmt_tensor::{RawTensor, Tensor};
use llmt_zero::{Topology, ZeroEngine};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What [`convert_checkpoint`] should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetLayout {
    /// A full sharded checkpoint (`checkpoint-<step>` under the output
    /// root) laid out for the given topology.
    Sharded(Topology),
    /// A consolidated `model.safetensors` + `config.json` directory.
    Consolidated,
}

/// What a conversion did.
#[derive(Debug, Clone)]
pub struct ConvertReport {
    /// Directory the converted state landed in.
    pub output: PathBuf,
    /// Global step carried over from the source (0 for consolidated
    /// sources, which have no trainer state).
    pub step: u64,
    /// Topology of the source checkpoint (`None` for consolidated
    /// sources).
    pub source_topology: Option<Topology>,
    /// The produced layout.
    pub target: TargetLayout,
    /// Whether optimizer state was freshly initialized because the source
    /// carried none (consolidated → sharded imports).
    pub fresh_optimizer: bool,
}

/// The two source layouts [`convert_checkpoint`] accepts.
enum SourceKind {
    /// A committed training checkpoint.
    Checkpoint(CheckpointPaths),
    /// A bare weights directory (`model.safetensors` + `config.json`).
    Consolidated,
}

fn classify_source(storage: &dyn Storage, src: &Path) -> Result<SourceKind> {
    if let Some(paths) = CheckpointPaths::open_on(storage, src) {
        if storage.exists(&paths.zero_meta()) {
            return Ok(SourceKind::Checkpoint(paths));
        }
    }
    if storage.exists(&src.join("model.safetensors")) && storage.exists(&src.join("config.json")) {
        return Ok(SourceKind::Consolidated);
    }
    Err(TailorError::Plan(format!(
        "{} is neither a checkpoint directory nor a consolidated model \
         (model.safetensors + config.json)",
        src.display()
    )))
}

/// Convert `src` into `target` layout under `out`, on the local
/// filesystem. See [`convert_checkpoint_on`].
pub fn convert_checkpoint(src: &Path, out: &Path, target: TargetLayout) -> Result<ConvertReport> {
    convert_checkpoint_on(Arc::new(LocalFs), src, out, target)
}

/// Convert `src` into `target` layout under `out`, through a [`Storage`]
/// backend.
///
/// For [`TargetLayout::Sharded`], `out` is treated as a run root and the
/// result lands in `out/checkpoint-<step>` through the regular two-phase
/// commit protocol. For [`TargetLayout::Consolidated`], `out` itself
/// receives `model.safetensors` and `config.json`.
pub fn convert_checkpoint_on(
    storage: Arc<dyn Storage>,
    src: &Path,
    out: &Path,
    target: TargetLayout,
) -> Result<ConvertReport> {
    match classify_source(storage.as_ref(), src)? {
        SourceKind::Checkpoint(paths) => convert_from_checkpoint(storage, &paths, out, target),
        SourceKind::Consolidated => convert_from_consolidated(storage, src, out, target),
    }
}

/// Rebuild the optimizer group composition a checkpoint was saved with.
/// The layout enum is not recorded on disk; it is recovered by matching
/// the candidates against the saved group inventory (count, ids, sizes).
/// Each group keeps the weight decay the checkpoint recorded for it.
pub(crate) fn groups_for_meta(config: &ModelConfig, meta: &ZeroMeta) -> Result<Vec<GroupSpec>> {
    for layout in [GroupLayout::LayerWise, GroupLayout::Stock] {
        let mut groups = build_groups(config, layout);
        let matches = groups.len() == meta.groups.len()
            && groups
                .iter()
                .zip(&meta.groups)
                .all(|(g, m)| g.id == m.id && g.numel == m.numel);
        if matches {
            for (g, m) in groups.iter_mut().zip(&meta.groups) {
                g.weight_decay = m.weight_decay;
            }
            return Ok(groups);
        }
    }
    Err(TailorError::Ckpt(CkptError::Incompatible(format!(
        "cannot reconstruct the optimizer group composition of model '{}' \
         from its config (unknown group layout)",
        config.model_name
    ))))
}

fn convert_from_checkpoint(
    storage: Arc<dyn Storage>,
    paths: &CheckpointPaths,
    out: &Path,
    target: TargetLayout,
) -> Result<ConvertReport> {
    match target {
        TargetLayout::Consolidated => {
            // Weights stream through the restore engine, so verify-on-read
            // covers every byte that ends up in the consolidated file.
            let restored = restore_checkpoint_on(
                storage.clone(),
                &paths.dir,
                &RestoreRequest {
                    scope: RestoreScope::WeightsOnly,
                    ..RestoreRequest::default()
                },
            )?;
            storage
                .create_dir_all(out)
                .map_err(|e| TailorError::Ckpt(CkptError::Io(out.to_path_buf(), e)))?;
            write_consolidated(storage.as_ref(), out, &restored.weights, &restored.config)?;
            Ok(ConvertReport {
                output: out.to_path_buf(),
                step: paths.step,
                source_topology: Some(restored.report.saved_topology),
                target,
                fresh_optimizer: false,
            })
        }
        TargetLayout::Sharded(topo) => {
            // Full restore *at the target topology*: the restore engine
            // plans and executes the remap, shard lengths and digests are
            // checked on read, and what comes back is ready to re-save.
            let restored = restore_checkpoint_on(
                storage.clone(),
                &paths.dir,
                &RestoreRequest {
                    topology: Some(topo),
                    scope: RestoreScope::Full,
                    ..RestoreRequest::default()
                },
            )?;
            let config = restored.config.clone();
            let mut params = ParamSet::zeros(&config);
            set_params(&mut params, &restored.weights)?;
            let mut engine = ZeroEngine::from_rank_states(
                &params,
                groups_for_meta(&config, &restored.zero_meta)?,
                topo,
                AdamWHyper {
                    weight_decay: 0.01,
                    ..Default::default()
                },
                restored.ranks,
            )
            .map_err(|e| TailorError::Ckpt(CkptError::Format(format!("convert: {e}"))))?;
            engine.step_count = restored.zero_meta.optimizer_step;
            let report = save_sharded(
                storage.as_ref(),
                out,
                paths.step,
                (&config, &params, &engine),
                &restored.trainer_state,
            )?;
            Ok(ConvertReport {
                output: report.paths.dir,
                step: paths.step,
                source_topology: Some(restored.report.saved_topology),
                target,
                fresh_optimizer: false,
            })
        }
    }
}

/// A full conventional save of the converted state under `out`.
fn save_sharded(
    storage: &dyn Storage,
    out: &Path,
    step: u64,
    (config, params, engine): (&ModelConfig, &ParamSet, &ZeroEngine),
    trainer_state: &TrainerState,
) -> Result<CheckpointReport> {
    let req = SaveRequest {
        dir: &CheckpointPaths::under(out, step).dir,
        step,
        source: &LiveState {
            config,
            params,
            engine,
        },
        trainer_state,
        units: &LayerUnit::all(config),
        metrics: &MetricsRegistry::new(),
        store: None,
        bases: None,
    };
    Ok(engine::save(&[storage], &req, &SaveOptions::default())?.report)
}

fn convert_from_consolidated(
    storage: Arc<dyn Storage>,
    src: &Path,
    out: &Path,
    target: TargetLayout,
) -> Result<ConvertReport> {
    let config = read_config(storage.as_ref(), &src.join("config.json"))?;
    let (tensors, _meta) =
        safetensors::read_file_on(storage.as_ref(), &src.join("model.safetensors"))?;
    match target {
        TargetLayout::Consolidated => {
            // Canonicalization pass: re-emit the weights in canonical
            // model order with canonical metadata.
            let ordered = canonical_order(&config, tensors)?;
            storage
                .create_dir_all(out)
                .map_err(|e| TailorError::Ckpt(CkptError::Io(out.to_path_buf(), e)))?;
            write_consolidated(storage.as_ref(), out, &ordered, &config)?;
            Ok(ConvertReport {
                output: out.to_path_buf(),
                step: 0,
                source_topology: None,
                target,
                fresh_optimizer: false,
            })
        }
        TargetLayout::Sharded(topo) => {
            let mut params = ParamSet::zeros(&config);
            set_params(&mut params, &tensors)?;
            // No optimizer state to carry: widen FP32 masters from the
            // BF16 weights and start the moments at zero — a MergeKit
            // merge becomes a *trainable* checkpoint at step 0.
            let engine = ZeroEngine::with_topology(
                &params,
                build_groups(&config, GroupLayout::LayerWise),
                topo,
                AdamWHyper {
                    weight_decay: 0.01,
                    ..Default::default()
                },
            );
            let ts = import_trainer_state(&config);
            let report = save_sharded(storage.as_ref(), out, 0, (&config, &params, &engine), &ts)?;
            Ok(ConvertReport {
                output: report.paths.dir,
                step: 0,
                source_topology: None,
                target,
                fresh_optimizer: true,
            })
        }
    }
}

/// Write `model.safetensors` + `config.json` into `out`. Tensors must
/// already be in canonical model order; metadata matches what the save
/// engine stamps, so a same-topology conversion is byte-identical to the
/// checkpoint's own weight file.
fn write_consolidated(
    storage: &dyn Storage,
    out: &Path,
    tensors: &[(String, RawTensor)],
    config: &ModelConfig,
) -> Result<()> {
    let mut meta = std::collections::BTreeMap::new();
    meta.insert("format".to_string(), "pt".to_string());
    safetensors::write_file_on(storage, &out.join("model.safetensors"), tensors, &meta)?;
    let json = serde_json::to_string_pretty(config)
        .map_err(|e| TailorError::Ckpt(CkptError::Format(e.to_string())))?;
    storage
        .write(&out.join("config.json"), json.as_bytes())
        .map_err(|e| TailorError::Ckpt(CkptError::Io(out.join("config.json"), e)))?;
    Ok(())
}

fn read_config(storage: &dyn Storage, path: &Path) -> Result<ModelConfig> {
    let bytes = storage
        .read(path)
        .map_err(|e| TailorError::Ckpt(CkptError::Io(path.to_path_buf(), e)))?;
    serde_json::from_slice(&bytes)
        .map_err(|e| TailorError::Ckpt(CkptError::Format(format!("{}: {e}", path.display()))))
}

/// Overwrite every parameter in `params` from named raw tensors. Fails on
/// unknown names or on gaps — a weights file that does not cover the full
/// model cannot become a checkpoint.
fn set_params(params: &mut ParamSet, tensors: &[(String, RawTensor)]) -> Result<()> {
    let mut seen = 0usize;
    for (name, raw) in tensors {
        if !params.set(name, Tensor::from_raw(raw)) {
            return Err(TailorError::Ckpt(CkptError::Incompatible(format!(
                "weight tensor '{name}' does not exist in the model"
            ))));
        }
        seen += 1;
    }
    if seen != params.len() {
        return Err(TailorError::Ckpt(CkptError::Incompatible(format!(
            "weights cover {seen} of {} model parameters",
            params.len()
        ))));
    }
    Ok(())
}

/// Reorder a name→tensor soup into canonical model order.
fn canonical_order(
    config: &ModelConfig,
    tensors: Vec<(String, RawTensor)>,
) -> Result<Vec<(String, RawTensor)>> {
    let mut by_name: std::collections::HashMap<String, RawTensor> = tensors.into_iter().collect();
    let mut ordered = Vec::with_capacity(by_name.len());
    for unit in LayerUnit::all(config) {
        for spec in llmt_model::naming::unit_param_specs(config, unit) {
            let t = by_name.remove(&spec.name).ok_or_else(|| {
                TailorError::Ckpt(CkptError::Incompatible(format!(
                    "consolidated weights are missing tensor '{}'",
                    spec.name
                )))
            })?;
            ordered.push((spec.name, t));
        }
    }
    if let Some(extra) = by_name.keys().next() {
        return Err(TailorError::Ckpt(CkptError::Incompatible(format!(
            "consolidated weights carry unknown tensor '{extra}'"
        ))));
    }
    Ok(ordered)
}

/// Placeholder trainer state for imported weights-only models: step 0, a
/// fresh data RNG, and neutral run knobs. A resume takes its real knobs
/// from the trainer config, so only the fields that must parse are
/// populated meaningfully.
fn import_trainer_state(config: &ModelConfig) -> TrainerState {
    TrainerState {
        global_step: 0,
        ckpt_event: 0,
        lr_schedule: LrSchedule::Constant { lr: 0.0 },
        last_lr: 0.0,
        loss_history: Vec::new(),
        data_rng: Prng::seed_from_u64(0),
        task: "imported".to_string(),
        model_name: config.model_name.clone(),
        micro_batch: 1,
        grad_accum: 1,
        seq_len: 1,
    }
}
