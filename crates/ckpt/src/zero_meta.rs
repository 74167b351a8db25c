//! Shared ZeRO checkpoint metadata (`zero_meta.json`).
//!
//! Records everything needed to interpret the per-rank shard files without
//! loading them: world size, the layer-wise group layout parameters
//! (`L`, tied — from which `GroupIndexMap` reconstructs every index), the
//! AdamW step counter, and which groups this (possibly partial) checkpoint
//! actually contains.

use crate::error::{io_err, Result};
use llmt_optim::GroupIndexMap;
use llmt_zero::Topology;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Per-group bookkeeping stored in the meta file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupMeta {
    /// Group id (position in the optimizer's group list).
    pub id: usize,
    /// Unpadded element count of the group's flat buffer.
    pub numel: usize,
    /// Elements per rank shard. At `tp = 1` this is `ceil(numel / world)`
    /// and uniform across ranks; at `tp > 1` it is rank 0's length and
    /// [`GroupMeta::tp_shard_lens`] carries the per-tp-slice lengths.
    pub shard_len: usize,
    /// Weight decay of the group.
    pub weight_decay: f32,
    /// Per-tp-rank padded dp-shard lengths (`tp` entries), recorded only
    /// when the saved topology has `tp > 1`. All dp ranks of one tp slice
    /// share a length. Absent (and implied uniform) at `tp = 1` — keeps
    /// the serialized form byte-identical to pre-topology checkpoints.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub tp_shard_lens: Option<Vec<usize>>,
}

impl GroupMeta {
    /// Expected shard length for a linear `rank` under `topo`. Returns
    /// `None` when the metadata is inconsistent (missing or short
    /// `tp_shard_lens` for a `tp > 1` topology, or rank out of range).
    pub fn expected_shard_len(&self, topo: &Topology, rank: usize) -> Option<usize> {
        if rank >= topo.world() {
            return None;
        }
        if topo.tp == 1 {
            return Some(self.numel.div_ceil(topo.dp));
        }
        let (_, tp_rank) = topo.coords(rank);
        self.tp_shard_lens.as_ref()?.get(tp_rank).copied()
    }
}

/// `zero_meta.json` contents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZeroMeta {
    /// Total number of ranks the shards were written by
    /// (`topology.world()`).
    pub world_size: usize,
    /// The dp×tp topology the shards were written at. Absent in
    /// pre-topology checkpoints, which are pure data-parallel — use
    /// [`ZeroMeta::topology`] instead of reading the field directly.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub saved_topology: Option<Topology>,
    /// Transformer layer count (drives the group-index arithmetic).
    pub num_layers: usize,
    /// Whether the model is weight-tied (no `lm_head` group).
    pub tied: bool,
    /// AdamW step counter at save time (1-based count of completed steps).
    pub optimizer_step: u64,
    /// Group ids present in this checkpoint's shard files, ascending.
    pub groups_present: Vec<usize>,
    /// Metadata for *all* groups of the layout (present or not), indexed
    /// by group id.
    pub groups: Vec<GroupMeta>,
}

impl ZeroMeta {
    /// The arithmetic index map for this checkpoint's layout.
    pub fn index_map(&self) -> GroupIndexMap {
        GroupIndexMap {
            num_layers: self.num_layers,
            tied: self.tied,
        }
    }

    /// The saved topology: the recorded one, or `{dp: world_size, tp: 1}`
    /// for pre-topology checkpoints.
    pub fn topology(&self) -> Topology {
        self.saved_topology
            .unwrap_or_else(|| Topology::dp_only(self.world_size))
    }

    /// Whether every group of the layout is present (a full checkpoint).
    pub fn is_full(&self) -> bool {
        self.groups_present.len() == self.groups.len()
    }

    /// Whether a particular group's shards are stored here.
    pub fn has_group(&self, id: usize) -> bool {
        self.groups_present.binary_search(&id).is_ok()
    }

    /// Read from `zero_meta.json`.
    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path).map_err(io_err(path))?;
        Ok(serde_json::from_str(&text)?)
    }
}

/// safetensors names for a group's three state tensors in a shard file.
pub fn shard_tensor_names(group_id: usize) -> [String; 3] {
    [
        format!("group{group_id}.master"),
        format!("group{group_id}.exp_avg"),
        format!("group{group_id}.exp_avg_sq"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ZeroMeta {
        ZeroMeta {
            world_size: 4,
            saved_topology: None,
            num_layers: 2,
            tied: false,
            optimizer_step: 10,
            groups_present: vec![0, 1, 3],
            groups: (0..7)
                .map(|id| GroupMeta {
                    id,
                    numel: 100 + id,
                    shard_len: 26,
                    weight_decay: if id > 3 { 0.01 } else { 0.0 },
                    tp_shard_lens: None,
                })
                .collect(),
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = tempfile::tempdir().unwrap();
        let p = dir.path().join("zero_meta.json");
        let m = sample();
        std::fs::write(&p, serde_json::to_string_pretty(&m).unwrap()).unwrap();
        assert_eq!(ZeroMeta::load(&p).unwrap(), m);
    }

    #[test]
    fn presence_queries() {
        let m = sample();
        assert!(!m.is_full());
        assert!(m.has_group(3));
        assert!(!m.has_group(2));
    }

    #[test]
    fn index_map_matches_fields() {
        let m = sample();
        assert_eq!(m.index_map().group_count(), 7); // 2*2 + 3
    }

    #[test]
    fn topology_defaults_to_pure_dp() {
        let mut m = sample();
        assert_eq!(m.topology(), Topology { dp: 4, tp: 1 });
        m.saved_topology = Some(Topology { dp: 2, tp: 2 });
        assert_eq!(m.topology(), Topology { dp: 2, tp: 2 });
    }

    #[test]
    fn expected_shard_len_handles_both_dimensions() {
        let g = GroupMeta {
            id: 0,
            numel: 10,
            shard_len: 3,
            weight_decay: 0.0,
            tp_shard_lens: None,
        };
        // tp = 1: uniform ceil(numel / dp).
        assert_eq!(g.expected_shard_len(&Topology::dp_only(4), 3), Some(3));
        assert_eq!(g.expected_shard_len(&Topology::dp_only(4), 4), None);
        // tp > 1 without recorded lens: inconsistent metadata.
        assert_eq!(g.expected_shard_len(&Topology { dp: 2, tp: 2 }, 0), None);
        let g2 = GroupMeta {
            tp_shard_lens: Some(vec![3, 2]),
            ..g
        };
        let topo = Topology { dp: 2, tp: 2 };
        assert_eq!(g2.expected_shard_len(&topo, 0), Some(3));
        assert_eq!(g2.expected_shard_len(&topo, 1), Some(2));
        assert_eq!(g2.expected_shard_len(&topo, 2), Some(3));
        assert_eq!(g2.expected_shard_len(&topo, 3), Some(2));
    }

    #[test]
    fn shard_names_are_stable() {
        assert_eq!(
            shard_tensor_names(5),
            [
                "group5.master".to_string(),
                "group5.exp_avg".to_string(),
                "group5.exp_avg_sq".to_string()
            ]
        );
    }
}
