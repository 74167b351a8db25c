//! Layer-wise checkpoint diffing — the paper's *premise* as a tool.
//!
//! LLMTailor is motivated by the observation that "updates across LLM
//! layers are highly non-uniform ... some layers may undergo more
//! significant changes, while others remain relatively stable" (§1).
//! [`diff_checkpoints`] quantifies exactly that between two checkpoints of
//! the same run: per-unit RMS weight change (and, when both checkpoints
//! are full, the optimizer master-weight change), normalized so units of
//! different sizes compare fairly. The `llmtailor diff` subcommand and the
//! `layer_drift` experiment binary are built on it, and the dynamic
//! selection strategy consumes the same statistic online.

use crate::error::{Result, TailorError};
use llmt_ckpt::{CheckpointHandle, LoadMode};
use llmt_model::LayerUnit;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Per-unit change between two checkpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitDiff {
    /// The unit.
    pub unit: LayerUnit,
    /// RMS of the element-wise weight difference
    /// (`sqrt(mean((a - b)^2))`), from the BF16 model files.
    pub weight_rms: f64,
    /// RMS difference of the FP32 master weights across all ranks, when
    /// both checkpoints store the unit's optimizer state.
    pub master_rms: Option<f64>,
    /// Elements compared.
    pub numel: usize,
}

/// Diff every unit present in *both* checkpoints. Sources must be
/// structurally compatible.
pub fn diff_checkpoints(a: &Path, b: &Path) -> Result<Vec<UnitDiff>> {
    let mut ha = CheckpointHandle::open(a, LoadMode::LazyRange)?;
    let mut hb = CheckpointHandle::open(b, LoadMode::LazyRange)?;
    if !ha.config.structurally_equal(&hb.config) {
        return Err(TailorError::Plan(format!(
            "{} and {} are structurally incompatible",
            a.display(),
            b.display()
        )));
    }
    let in_both: Vec<LayerUnit> = ha
        .units_present()
        .into_iter()
        .filter(|u| hb.units_present().contains(u))
        .collect();
    let map = ha.zero_meta.index_map();
    let world = ha.zero_meta.world_size.min(hb.zero_meta.world_size);

    let mut out = Vec::with_capacity(in_both.len());
    for unit in in_both {
        let wa = ha.unit_weights(unit)?;
        let wb = hb.unit_weights(unit)?;
        let mut acc = 0.0f64;
        let mut numel = 0usize;
        for ((na, ta), (nb, tb)) in wa.iter().zip(wb.iter()) {
            debug_assert_eq!(na, nb);
            let va = ta.to_f32s();
            let vb = tb.to_f32s();
            numel += va.len();
            for (x, y) in va.iter().zip(vb.iter()) {
                acc += ((x - y) as f64).powi(2);
            }
        }
        let weight_rms = (acc / numel.max(1) as f64).sqrt();

        // Master-weight drift when both sides carry the optimizer groups.
        let groups = map.groups_for_unit(unit).unwrap_or_default();
        let have_masters = groups
            .iter()
            .all(|g| ha.zero_meta.has_group(*g) && hb.zero_meta.has_group(*g));
        let master_rms = if have_masters && ha.zero_meta.world_size == hb.zero_meta.world_size {
            let mut macc = 0.0f64;
            let mut mn = 0usize;
            for g in &groups {
                for r in 0..world {
                    let sa = ha.group_shard(r, *g)?;
                    let sb = hb.group_shard(r, *g)?;
                    mn += sa.master.len();
                    for (x, y) in sa.master.iter().zip(sb.master.iter()) {
                        macc += ((x - y) as f64).powi(2);
                    }
                }
            }
            Some((macc / mn.max(1) as f64).sqrt())
        } else {
            None
        };
        out.push(UnitDiff {
            unit,
            weight_rms,
            master_rms,
            numel,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmt_ckpt::engine::{self, LiveState, SaveOptions};
    use llmt_ckpt::writer::SaveRequest;
    use llmt_ckpt::{CheckpointPaths, TrainerState};
    use llmt_model::{Batch, Model, ModelConfig, ParamSet};
    use llmt_obs::MetricsRegistry;
    use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
    use llmt_storage::vfs::LocalFs;
    use llmt_tensor::rng::Prng;
    use llmt_zero::ZeroEngine;
    use std::path::PathBuf;

    fn train_and_save(root: &Path, cfg: &ModelConfig, steps: &[u64]) -> Vec<PathBuf> {
        let mut model = Model::new(cfg.clone(), 3);
        let mut engine = ZeroEngine::new(
            &model.params,
            build_groups(cfg, GroupLayout::LayerWise),
            2,
            AdamWHyper::default(),
        );
        let mut rng = Prng::seed_from_u64(5);
        let mut out = Vec::new();
        let mut step = 0u64;
        for target in steps {
            while step < *target {
                let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
                let mut grads = ParamSet::zeros(cfg);
                model.loss_and_grad(&Batch::new(tokens, 2, 8), &mut grads);
                engine.step(&mut model.params, &grads, 2e-3, true);
                step += 1;
            }
            let ts = TrainerState {
                global_step: step,
                ckpt_event: 0,
                lr_schedule: LrSchedule::Constant { lr: 2e-3 },
                last_lr: 2e-3,
                loss_history: vec![],
                data_rng: rng.clone(),
                task: "diff".into(),
                model_name: cfg.model_name.clone(),
                micro_batch: 2,
                grad_accum: 1,
                seq_len: 8,
            };
            out.push(
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
                .dir,
            );
        }
        out
    }

    #[test]
    fn diff_of_identical_checkpoints_is_zero() {
        let dir = tempfile::tempdir().unwrap();
        let cfg = ModelConfig::tiny_test();
        let ckpts = train_and_save(dir.path(), &cfg, &[2]);
        let diffs = diff_checkpoints(&ckpts[0], &ckpts[0]).unwrap();
        assert_eq!(diffs.len(), cfg.num_units());
        for d in diffs {
            assert_eq!(d.weight_rms, 0.0);
            assert_eq!(d.master_rms, Some(0.0));
        }
    }

    #[test]
    fn diff_detects_training_drift_and_covers_all_units() {
        let dir = tempfile::tempdir().unwrap();
        let cfg = ModelConfig::tiny_test();
        let ckpts = train_and_save(dir.path(), &cfg, &[2, 6]);
        let diffs = diff_checkpoints(&ckpts[0], &ckpts[1]).unwrap();
        assert_eq!(diffs.len(), cfg.num_units());
        for d in &diffs {
            assert!(d.weight_rms > 0.0, "{} did not move", d.unit);
            assert!(d.master_rms.unwrap() > 0.0);
            // Master drift is tracked at full precision, weight drift
            // through the BF16 copy; both must be the same scale.
            let ratio = d.master_rms.unwrap() / d.weight_rms;
            assert!(ratio > 0.2 && ratio < 5.0, "{}: ratio {ratio}", d.unit);
        }
    }

    #[test]
    fn incompatible_checkpoints_rejected() {
        let d1 = tempfile::tempdir().unwrap();
        let d2 = tempfile::tempdir().unwrap();
        let a = train_and_save(d1.path(), &ModelConfig::tiny_test(), &[1]);
        let b = train_and_save(d2.path(), &ModelConfig::tiny_test_tied(), &[1]);
        assert!(diff_checkpoints(&a[0], &b[0]).is_err());
    }
}
