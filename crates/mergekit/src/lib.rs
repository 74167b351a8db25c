#![warn(missing_docs)]
//! Weights-only passthrough merging — the MergeKit baseline (paper §3).
//!
//! MergeKit composes new *models* from existing ones but cannot produce a
//! resumable *training checkpoint*, for three reasons the paper lists:
//! (1) optimizer states are ignored, (2) auxiliary layers (`embed_tokens`,
//! `norm`, `lm_head`) are not manipulated — the base model's are always
//! retained, and (3) configuration/trainer files are not handled. This
//! crate reproduces exactly that behaviour so the experiments can show the
//! gap LLMTailor fills: its output contains a merged `model.safetensors`
//! and the base `config.json` — nothing else.

pub mod methods;

use llmt_ckpt::error::{io_err, CkptError, Result};
use llmt_ckpt::{safetensors, CheckpointHandle, LoadMode};
use llmt_model::{LayerUnit, ModelConfig};
use llmt_tensor::RawTensor;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One slice of a weights-only recipe: transformer layers only.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightSlice {
    /// Source checkpoint (only its `model.safetensors` is read).
    pub model: PathBuf,
    /// Inclusive transformer-layer range `[start, end]`.
    pub layer_range: [usize; 2],
}

/// A MergeKit-style recipe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightsOnlyRecipe {
    /// Merge method: `passthrough` (copy the slice's layers verbatim),
    /// `linear` or `slerp` (blend the slice's layers with the base at
    /// interpolation parameter [`WeightsOnlyRecipe::t`]).
    pub merge_method: String,
    /// Base model: donates config and every tensor the slices don't cover
    /// (including, always, the auxiliary layers).
    pub base_model: PathBuf,
    /// Output directory.
    pub output: PathBuf,
    /// The slices.
    pub slices: Vec<WeightSlice>,
    /// Interpolation parameter for `linear`/`slerp` (0 = base, 1 = slice).
    #[serde(default = "default_t")]
    pub t: f32,
}

fn default_t() -> f32 {
    0.5
}

impl WeightsOnlyRecipe {
    /// Parse from YAML.
    pub fn from_yaml(text: &str) -> Result<Self> {
        let r: WeightsOnlyRecipe =
            serde_yaml::from_str(text).map_err(|e| CkptError::Format(e.to_string()))?;
        if !matches!(r.merge_method.as_str(), "passthrough" | "linear" | "slerp") {
            return Err(CkptError::Format(format!(
                "unknown merge_method '{}' (passthrough | linear | slerp)",
                r.merge_method
            )));
        }
        Ok(r)
    }
}

/// What the baseline produced.
#[derive(Debug, Clone)]
pub struct WeightsOnlyReport {
    /// Output directory (contains `model.safetensors` + `config.json`).
    pub output: PathBuf,
    /// Bytes written.
    pub bytes_written: u64,
}

/// Execute a weights-only merge. Auxiliary layers always come from the
/// base model; optimizer state and trainer metadata are dropped on the
/// floor — which is why the result cannot resume training.
pub fn merge_weights_only(recipe: &WeightsOnlyRecipe) -> Result<WeightsOnlyReport> {
    let mut base = CheckpointHandle::open(&recipe.base_model, LoadMode::LazyRange)?;
    let config: ModelConfig = base.config.clone();

    // Layer -> source assignment; unlisted layers and all aux layers from base.
    let mut layer_source: BTreeMap<usize, PathBuf> = BTreeMap::new();
    for slice in &recipe.slices {
        let [lo, hi] = slice.layer_range;
        if hi >= config.num_hidden_layers || lo > hi {
            return Err(CkptError::Incompatible(format!(
                "layer range [{lo}, {hi}] invalid for {} layers",
                config.num_hidden_layers
            )));
        }
        for l in lo..=hi {
            if layer_source.insert(l, slice.model.clone()).is_some() {
                return Err(CkptError::Incompatible(format!(
                    "layer {l} claimed by multiple slices"
                )));
            }
        }
    }

    let mut handles: BTreeMap<PathBuf, CheckpointHandle> = BTreeMap::new();
    for slice in &recipe.slices {
        if !handles.contains_key(&slice.model) {
            let h = CheckpointHandle::open(&slice.model, LoadMode::LazyRange)?;
            if !h.config.structurally_equal(&config) {
                return Err(CkptError::Incompatible(format!(
                    "{} incompatible with base model",
                    slice.model.display()
                )));
            }
            handles.insert(slice.model.clone(), h);
        }
    }

    if !matches!(
        recipe.merge_method.as_str(),
        "passthrough" | "linear" | "slerp"
    ) {
        return Err(CkptError::Format(format!(
            "unknown merge_method '{}'",
            recipe.merge_method
        )));
    }
    let mut tensors: Vec<(String, RawTensor)> = Vec::new();
    for unit in LayerUnit::all(&config) {
        let weights = match unit {
            LayerUnit::Transformer(l) => match layer_source.get(&l) {
                Some(src) => {
                    let donated = handles.get_mut(src).unwrap().unit_weights(unit)?;
                    match recipe.merge_method.as_str() {
                        "passthrough" => donated,
                        method => {
                            // Blend with the base model's tensors.
                            let base_w = base.unit_weights(unit)?;
                            donated
                                .into_iter()
                                .zip(base_w)
                                .map(|((name, d), (bn, bw))| {
                                    debug_assert_eq!(name, bn);
                                    let merged = if method == "linear" {
                                        methods::linear_merge(&bw, &d, recipe.t)
                                    } else {
                                        methods::slerp_merge(&bw, &d, recipe.t)
                                    };
                                    (name, merged)
                                })
                                .collect()
                        }
                    }
                }
                None => base.unit_weights(unit)?,
            },
            // MergeKit limitation (2): aux layers always from base.
            _ => base.unit_weights(unit)?,
        };
        tensors.extend(weights);
    }

    std::fs::create_dir_all(&recipe.output).map_err(io_err(&recipe.output))?;
    let mut meta = BTreeMap::new();
    meta.insert("format".to_string(), "pt".to_string());
    let bytes_written =
        safetensors::write_file(&recipe.output.join("model.safetensors"), &tensors, &meta)?;
    // Config travels with the weights so the model is loadable for
    // inference; trainer/optimizer files intentionally do not.
    std::fs::copy(
        recipe.base_model.join("config.json"),
        recipe.output.join("config.json"),
    )
    .map_err(io_err(recipe.base_model.join("config.json")))?;

    Ok(WeightsOnlyReport {
        output: recipe.output.clone(),
        bytes_written,
    })
}

/// Whether a directory contains a *resumable* checkpoint (optimizer shards
/// plus trainer state). MergeKit outputs fail this check; LLMTailor
/// outputs pass it.
pub fn is_resumable(dir: &Path) -> bool {
    let latest = dir.join("latest");
    let Ok(text) = std::fs::read_to_string(&latest) else {
        return false;
    };
    let Some(step) = text.trim().strip_prefix("global_step") else {
        return false;
    };
    let gs = dir.join(format!("global_step{step}"));
    gs.join("zero_meta.json").exists() && dir.join("trainer_state.json").exists()
}

#[cfg(test)]
pub(crate) mod test_helpers {
    use llmt_ckpt::engine::{self, LiveState, SaveOptions};
    use llmt_ckpt::writer::SaveRequest;
    use llmt_ckpt::{CheckpointPaths, TrainerState};
    use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
    use llmt_obs::MetricsRegistry;
    use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
    use llmt_storage::vfs::LocalFs;
    use llmt_tensor::rng::Prng;
    use llmt_zero::ZeroEngine;
    use std::path::{Path, PathBuf};

    pub(crate) fn save_full(root: &Path, cfg: &ModelConfig, seed: u64, steps: u64) -> PathBuf {
        let mut model = Model::new(cfg.clone(), seed);
        let mut engine = ZeroEngine::new(
            &model.params,
            build_groups(cfg, GroupLayout::LayerWise),
            2,
            AdamWHyper::default(),
        );
        let mut rng = Prng::seed_from_u64(seed);
        for _ in 0..steps {
            let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
            let mut grads = ParamSet::zeros(cfg);
            model.loss_and_grad(&Batch::new(tokens, 2, 8), &mut grads);
            engine.step(&mut model.params, &grads, 1e-3, true);
        }
        let ts = TrainerState {
            global_step: steps,
            ckpt_event: 0,
            lr_schedule: LrSchedule::Constant { lr: 1e-3 },
            last_lr: 1e-3,
            loss_history: vec![],
            data_rng: rng,
            task: "test".into(),
            model_name: cfg.model_name.clone(),
            micro_batch: 2,
            grad_accum: 1,
            seq_len: 8,
        };
        engine::save(
            &[&LocalFs],
            &SaveRequest {
                dir: &CheckpointPaths::under(root, steps).dir,
                step: steps,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_helpers::save_full;
    use llmt_ckpt::TrainerState;
    use llmt_model::{Batch, Model, ParamSet};
    use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
    use llmt_tensor::rng::Prng;
    use llmt_zero::ZeroEngine;

    #[test]
    fn merges_layer_weights_but_keeps_base_aux() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        let a = save_full(&dir.path().join("a"), &cfg, 1, 1);
        let b = save_full(&dir.path().join("b"), &cfg, 2, 1);
        let recipe = WeightsOnlyRecipe {
            merge_method: "passthrough".into(),
            base_model: a.clone(),
            output: dir.path().join("out"),
            slices: vec![WeightSlice {
                model: b.clone(),
                layer_range: [1, 1],
            }],
            t: 0.5,
        };
        let report = merge_weights_only(&recipe).unwrap();
        let (tensors, _) =
            safetensors::read_file(&report.output.join("model.safetensors")).unwrap();
        let find = |name: &str| -> RawTensor {
            tensors.iter().find(|(n, _)| n == name).unwrap().1.clone()
        };
        let mut ha = CheckpointHandle::open(&a, LoadMode::EagerFull).unwrap();
        let mut hb = CheckpointHandle::open(&b, LoadMode::EagerFull).unwrap();
        // Layer 1 from b, layer 0 and aux from a.
        assert_eq!(
            find("model.layers.1.self_attn.q_proj.weight"),
            hb.weight("model.layers.1.self_attn.q_proj.weight").unwrap()
        );
        assert_eq!(
            find("model.layers.0.self_attn.q_proj.weight"),
            ha.weight("model.layers.0.self_attn.q_proj.weight").unwrap()
        );
        assert_eq!(
            find("model.embed_tokens.weight"),
            ha.weight("model.embed_tokens.weight").unwrap()
        );
        assert_eq!(find("lm_head.weight"), ha.weight("lm_head.weight").unwrap());
    }

    #[test]
    fn output_is_not_resumable_but_llmtailor_sources_are() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        let a = save_full(&dir.path().join("a"), &cfg, 1, 1);
        assert!(is_resumable(&a), "a real checkpoint is resumable");
        let recipe = WeightsOnlyRecipe {
            merge_method: "passthrough".into(),
            base_model: a,
            output: dir.path().join("out"),
            slices: vec![],
            t: 0.5,
        };
        let report = merge_weights_only(&recipe).unwrap();
        assert!(
            !is_resumable(&report.output),
            "weights-only output must not resume"
        );
        assert!(report.output.join("model.safetensors").exists());
        assert!(report.output.join("config.json").exists());
        // Paper limitation (1): no optimizer files whatsoever.
        let names: Vec<String> = std::fs::read_dir(&report.output)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 2, "exactly model + config, got {names:?}");
    }

    #[test]
    fn yaml_parses_and_validates_method() {
        let y = r#"
merge_method: passthrough
base_model: /a
output: /o
slices:
  - model: /b
    layer_range: [0, 3]
"#;
        let r = WeightsOnlyRecipe::from_yaml(y).unwrap();
        assert_eq!(r.slices[0].layer_range, [0, 3]);
        assert!(WeightsOnlyRecipe::from_yaml(&y.replace("passthrough", "slerp")).is_ok());
        assert!(WeightsOnlyRecipe::from_yaml(&y.replace("passthrough", "ties")).is_err());
    }

    #[test]
    fn overlapping_and_out_of_range_slices_rejected() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        let a = save_full(&dir.path().join("a"), &cfg, 1, 1);
        let mk = |ranges: Vec<[usize; 2]>| WeightsOnlyRecipe {
            merge_method: "passthrough".into(),
            base_model: a.clone(),
            output: dir.path().join("out2"),
            slices: ranges
                .into_iter()
                .map(|r| WeightSlice {
                    model: a.clone(),
                    layer_range: r,
                })
                .collect(),
            t: 0.5,
        };
        assert!(merge_weights_only(&mk(vec![[0, 1], [1, 1]])).is_err());
        assert!(merge_weights_only(&mk(vec![[0, 5]])).is_err());
        assert!(merge_weights_only(&mk(vec![[1, 0]])).is_err());
    }
}

#[cfg(test)]
mod blend_tests {
    use super::*;
    use llmt_model::ModelConfig;
    use std::path::Path;

    fn two_ckpts(dir: &Path, cfg: &ModelConfig) -> (std::path::PathBuf, std::path::PathBuf) {
        let a = crate::test_helpers::save_full(&dir.join("a"), cfg, 1, 1);
        let b = crate::test_helpers::save_full(&dir.join("b"), cfg, 2, 1);
        (a, b)
    }

    #[test]
    fn linear_blend_is_elementwise_average_at_half() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        let (a, b) = two_ckpts(dir.path(), &cfg);
        let recipe = WeightsOnlyRecipe {
            merge_method: "linear".into(),
            base_model: a.clone(),
            output: dir.path().join("out"),
            slices: vec![WeightSlice {
                model: b.clone(),
                layer_range: [0, 1],
            }],
            t: 0.5,
        };
        let report = merge_weights_only(&recipe).unwrap();
        let (tensors, _) =
            llmt_ckpt::safetensors::read_file(&report.output.join("model.safetensors")).unwrap();
        let mut ha = CheckpointHandle::open(&a, LoadMode::EagerFull).unwrap();
        let mut hb = CheckpointHandle::open(&b, LoadMode::EagerFull).unwrap();
        let name = "model.layers.0.self_attn.q_proj.weight";
        let merged = &tensors.iter().find(|(n, _)| n == name).unwrap().1;
        let av = ha.weight(name).unwrap().to_f32s();
        let bv = hb.weight(name).unwrap().to_f32s();
        for ((m, x), y) in merged.to_f32s().iter().zip(av.iter()).zip(bv.iter()) {
            let expect = 0.5 * (x + y);
            // Output is re-encoded to BF16, so allow one BF16 ulp.
            assert!(
                (m - expect).abs() <= expect.abs() * 4e-3 + 1e-6,
                "{m} vs {expect}"
            );
        }
        // Aux layers still come from base verbatim.
        let embed = &tensors
            .iter()
            .find(|(n, _)| n == "model.embed_tokens.weight")
            .unwrap()
            .1;
        assert_eq!(embed, &ha.weight("model.embed_tokens.weight").unwrap());
    }

    #[test]
    fn slerp_blend_produces_finite_weights_and_no_optimizer_files() {
        let cfg = ModelConfig::tiny_test();
        let dir = tempfile::tempdir().unwrap();
        let (a, b) = two_ckpts(dir.path(), &cfg);
        let recipe = WeightsOnlyRecipe {
            merge_method: "slerp".into(),
            base_model: a,
            output: dir.path().join("out"),
            slices: vec![WeightSlice {
                model: b,
                layer_range: [1, 1],
            }],
            t: 0.3,
        };
        let report = merge_weights_only(&recipe).unwrap();
        assert!(
            !is_resumable(&report.output),
            "blended outputs can never resume"
        );
        let (tensors, _) =
            llmt_ckpt::safetensors::read_file(&report.output.join("model.safetensors")).unwrap();
        for (_, t) in &tensors {
            assert!(t.to_f32s().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn recipe_default_t_is_half_and_methods_validate() {
        let y = "merge_method: linear\nbase_model: /a\noutput: /o\nslices: []\n";
        let r = WeightsOnlyRecipe::from_yaml(y).unwrap();
        assert_eq!(r.t, 0.5);
        assert!(WeightsOnlyRecipe::from_yaml(&y.replace("linear", "ties")).is_err());
        assert!(WeightsOnlyRecipe::from_yaml(&y.replace("linear", "slerp")).is_ok());
    }
}
