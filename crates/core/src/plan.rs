//! Plan resolution: recipe + source checkpoints -> a validated assignment.
//!
//! Validation enforces what the paper's tool assumes implicitly: every
//! unit of the model is claimed by exactly one source, every source
//! actually contains the units it donates (weights *and* optimizer
//! groups), and all sources are structurally compatible (same dimensions,
//! layer count, tying, world size). The configuration donor is the source
//! with the highest trainer step (§4.4: "copied from the most recent
//! checkpoint").

use crate::error::{Result, TailorError};
use crate::recipe::MergeRecipe;
use llmt_ckpt::{CheckpointHandle, LoadMode};
use llmt_model::{LayerUnit, ModelConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A resolved, validated merge plan.
#[derive(Debug, Clone)]
pub struct MergePlan {
    /// Unit -> source checkpoint directory, in canonical unit order.
    pub assignments: Vec<(LayerUnit, PathBuf)>,
    /// Source whose config/trainer-state files the output inherits.
    pub config_donor: PathBuf,
    /// Structural config all sources share.
    pub config: ModelConfig,
    /// World size of the source shards (and of the output).
    pub world_size: usize,
    /// Output directory.
    pub output: PathBuf,
    /// Distinct source checkpoints, in first-use order.
    pub sources: Vec<PathBuf>,
}

impl MergePlan {
    /// Resolve a recipe against the checkpoints on disk.
    pub fn resolve(recipe: &MergeRecipe) -> Result<MergePlan> {
        recipe.validate()?;
        let expanded = recipe.expanded_slices()?;

        // Open every distinct source once (headers only).
        let mut sources: Vec<PathBuf> = Vec::new();
        let mut handles: BTreeMap<PathBuf, CheckpointHandle> = BTreeMap::new();
        let open = |path: &Path,
                    sources: &mut Vec<PathBuf>,
                    handles: &mut BTreeMap<PathBuf, CheckpointHandle>|
         -> Result<()> {
            if !handles.contains_key(path) {
                let h = CheckpointHandle::open(path, LoadMode::LazyRange)?;
                sources.push(path.to_path_buf());
                handles.insert(path.to_path_buf(), h);
            }
            Ok(())
        };
        open(&recipe.base_checkpoint, &mut sources, &mut handles)?;
        for (path, _) in &expanded {
            open(path, &mut sources, &mut handles)?;
        }

        // Structural compatibility across all sources.
        let base = &handles[&recipe.base_checkpoint];
        let config = base.config.clone();
        let world_size = base.zero_meta.world_size;
        for (path, h) in &handles {
            if !h.config.structurally_equal(&config) {
                return Err(TailorError::Plan(format!(
                    "{} is structurally incompatible with the base checkpoint",
                    path.display()
                )));
            }
            if h.zero_meta.world_size != world_size {
                return Err(TailorError::Plan(format!(
                    "{}: world size {} != base world size {world_size}",
                    path.display(),
                    h.zero_meta.world_size
                )));
            }
            // Same world size is not enough: {dp=4, tp=1} and {dp=2, tp=2}
            // shard along different tensor boundaries, and merge copies
            // shard files rank-for-rank. Reshard with `llmtailor convert`
            // before merging across topologies.
            if h.zero_meta.topology() != base.zero_meta.topology() {
                return Err(TailorError::Plan(format!(
                    "{}: topology {} != base topology {} \
                     (reshard with `llmtailor convert` first)",
                    path.display(),
                    h.zero_meta.topology(),
                    base.zero_meta.topology()
                )));
            }
        }

        // Assign units: slices first (no overlaps), base fills the rest.
        let all_units = LayerUnit::all(&config);
        let mut assignment: BTreeMap<LayerUnit, PathBuf> = BTreeMap::new();
        for (path, units) in &expanded {
            for u in units {
                if !u.exists_in(&config) {
                    return Err(TailorError::Plan(format!(
                        "unit {u} does not exist in model {}",
                        config.model_name
                    )));
                }
                if let Some(prev) = assignment.insert(*u, path.clone()) {
                    if &prev != path {
                        return Err(TailorError::Plan(format!(
                            "unit {u} claimed by both {} and {}",
                            prev.display(),
                            path.display()
                        )));
                    }
                }
            }
        }
        for u in &all_units {
            assignment
                .entry(*u)
                .or_insert_with(|| recipe.base_checkpoint.clone());
        }

        // Sources must actually contain what they donate.
        for (unit, path) in &assignment {
            let h = &handles[path];
            let present = h.units_present();
            if !present.contains(unit) {
                return Err(TailorError::Plan(format!(
                    "{} does not contain unit {unit} (partial checkpoint)",
                    path.display()
                )));
            }
        }

        // Config donor: the most recent source by trainer step.
        let config_donor = handles
            .iter()
            .max_by_key(|(_, h)| h.trainer_state.global_step)
            .map(|(p, _)| p.clone())
            .expect("at least the base checkpoint exists");

        let assignments = all_units
            .iter()
            .map(|u| (*u, assignment[u].clone()))
            .collect();

        Ok(MergePlan {
            assignments,
            config_donor,
            config,
            world_size,
            output: recipe.output.clone(),
            sources,
        })
    }
}
