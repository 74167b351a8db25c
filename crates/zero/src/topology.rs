//! Parallelism topology and offline reshard planning (ByteCheckpoint-style).
//!
//! PR 4's resharding-on-load treated the runtime layout as one integer — a
//! data-parallel world size. This module makes the layout an explicit
//! [`Topology`] `{dp, tp}` and turns a layout change into a *plan*: a pure
//! list of [`CopyOp`]s mapping saved shards onto target shards, computed
//! offline with no I/O. The restore engine then executes the plan through
//! its normal fetch→decode→validate→bind stages, so verify-on-read, the
//! fault VFS, and telemetry apply to resharded restores unchanged.
//!
//! ## The two partition dimensions
//!
//! Every parameter group is a flat FP32 buffer (concatenated member
//! tensors, [`llmt_optim::flat::flatten_group`] order). The topology
//! splits it twice:
//!
//! 1. **Tensor parallel** — each member tensor is split across `tp` slices
//!    by Megatron convention: column-parallel matrices (`q/k/v_proj`,
//!    `gate/up_proj`, `embed_tokens`, `lm_head`) split along rows (dim 0,
//!    contiguous), row-parallel matrices (`o_proj`, `down_proj`) split
//!    along columns (dim 1, strided), and 1-D tensors (norms, biases)
//!    split contiguously. Unlike real Megatron we never *replicate* a
//!    tensor: splits are exact partitions, which is what preserves the
//!    bit-exact-trajectory property (AdamW is element-wise, so any exact
//!    partition yields the unsharded trajectory).
//! 2. **Data parallel** — each tp slice is then ZeRO-partitioned across
//!    `dp` ranks into equal shards with zero tail padding, exactly the
//!    PR 4 scheme ([`crate::partition`]).
//!
//! A rank's shard of a group is therefore a set of *runs* — `(start, len)`
//! intervals in group-flat coordinates. Both the source and the target
//! tiling cover `[0, numel)` exactly with no overlap, so a two-pointer
//! sweep over the two interval lists yields the minimal copy plan.
//! At `tp = 1` every tensor contributes one whole-buffer run, the layout
//! degenerates to PR 4's pure DP scheme, and the serialized bytes are
//! identical to pre-topology checkpoints.

use crate::partition::{shard_size, try_shard_range, PartitionError};
use llmt_optim::GroupSpec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dp×tp parallelism layout. Linear rank order is tp-innermost
/// (Megatron convention): `rank = dp_rank * tp + tp_rank`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Topology {
    /// Data-parallel degree (ZeRO shard count per tp slice).
    pub dp: usize,
    /// Tensor-parallel degree (row/column split count per tensor).
    pub tp: usize,
}

impl Topology {
    /// A pure data-parallel topology — the pre-topology layout of a
    /// legacy `world_size` integer.
    pub fn dp_only(world: usize) -> Self {
        Topology { dp: world, tp: 1 }
    }

    /// Total rank count (`dp * tp`).
    pub fn world(&self) -> usize {
        self.dp * self.tp
    }

    /// Reject degenerate topologies (either degree zero).
    pub fn validate(&self) -> Result<(), PartitionError> {
        if self.dp == 0 || self.tp == 0 {
            return Err(PartitionError::ZeroWorld);
        }
        Ok(())
    }

    /// Linear rank of `(dp_rank, tp_rank)`.
    pub fn rank(&self, dp_rank: usize, tp_rank: usize) -> usize {
        dp_rank * self.tp + tp_rank
    }

    /// `(dp_rank, tp_rank)` coordinates of a linear rank.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        (rank / self.tp, rank % self.tp)
    }
}

impl Default for Topology {
    /// The single-rank layout (`dp = 1, tp = 1`).
    fn default() -> Self {
        Topology { dp: 1, tp: 1 }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dp{}tp{}", self.dp, self.tp)
    }
}

/// How a tensor splits across tensor-parallel ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TpSplit {
    /// Column-parallel: split dim 0 (rows); each slice is contiguous.
    Rows,
    /// Row-parallel: split dim 1 (columns); each slice is strided.
    Cols,
    /// 1-D (or unsplittable): contiguous equal split of the flat tensor.
    Flat,
}

impl TpSplit {
    /// Classify a parameter by its HF-style name and shape.
    pub fn classify(name: &str, shape: &[usize]) -> TpSplit {
        if shape.len() < 2 {
            return TpSplit::Flat;
        }
        if name.contains("o_proj.") || name.contains("down_proj.") {
            return TpSplit::Cols;
        }
        // q/k/v_proj, gate/up_proj, embed_tokens, lm_head and any unknown
        // matrix: split rows. Any exact partition is trajectory-exact, so
        // the default only affects which bytes land on which rank.
        TpSplit::Rows
    }
}

/// Plan-construction failure: the checkpoint metadata or requested
/// topology cannot produce a valid exact tiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Shard arithmetic failed (zero degree, rank out of range, ...).
    Partition(PartitionError),
    /// The group's member tensors do not sum to its recorded `numel`.
    NumelMismatch {
        /// Group id.
        group: usize,
        /// `numel` the layout's tensors sum to.
        got: usize,
        /// `numel` the group records.
        expect: usize,
    },
    /// A source shard buffer is shorter than the plan requires.
    ShortSource {
        /// Group id.
        group: usize,
        /// Linear source rank.
        rank: usize,
        /// Buffer length supplied.
        got: usize,
        /// Buffer length the plan requires.
        expect: usize,
    },
    /// Wrong number of per-rank buffers supplied to the executor.
    RankCountMismatch {
        /// Buffers supplied.
        got: usize,
        /// Ranks the topology has.
        expect: usize,
    },
    /// A rank state holds the wrong number of group shards.
    GroupCountMismatch {
        /// Shards the rank state holds.
        got: usize,
        /// Groups the engine has.
        expect: usize,
    },
}

impl From<PartitionError> for PlanError {
    fn from(e: PartitionError) -> Self {
        PlanError::Partition(e)
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Partition(e) => write!(f, "{e}"),
            PlanError::NumelMismatch { group, got, expect } => write!(
                f,
                "group {group} layout covers {got} elements, metadata says {expect}"
            ),
            PlanError::ShortSource {
                group,
                rank,
                got,
                expect,
            } => write!(
                f,
                "group {group} rank {rank} source shard has {got} elements, plan needs {expect}"
            ),
            PlanError::RankCountMismatch { got, expect } => {
                write!(f, "got {got} rank buffers, topology has {expect} ranks")
            }
            PlanError::GroupCountMismatch { got, expect } => write!(
                f,
                "rank state holds {got} group shards, the optimizer has {expect} groups"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// One member tensor's placement inside a group's flat buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TensorLayout {
    /// Offset of the tensor's first element in group-flat coordinates.
    offset: usize,
    /// Tensor shape.
    shape: Vec<usize>,
    /// Split rule.
    split: TpSplit,
}

impl TensorLayout {
    fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// The `(start, len)` runs (group-flat coords) tp rank `t` of degree
    /// `tp` owns of this tensor. Runs are emitted in ascending order.
    fn runs(&self, tp: usize, t: usize, out: &mut Vec<(usize, usize)>) -> Result<(), PlanError> {
        let n = self.numel();
        match self.split {
            TpSplit::Flat => {
                let r = try_shard_range(n, tp, t)?;
                if !r.is_empty() {
                    out.push((self.offset + r.start, r.len()));
                }
            }
            TpSplit::Rows => {
                let rows = self.shape[0];
                let cols: usize = self.shape[1..].iter().product();
                let r = try_shard_range(rows, tp, t)?;
                if !r.is_empty() && cols > 0 {
                    out.push((self.offset + r.start * cols, r.len() * cols));
                }
            }
            TpSplit::Cols => {
                let rows = self.shape[0];
                let cols: usize = self.shape[1..].iter().product();
                let c = try_shard_range(cols, tp, t)?;
                if c.is_empty() {
                    return Ok(());
                }
                if c.len() == cols {
                    // Whole-width slice: one contiguous run.
                    out.push((self.offset, rows * cols));
                } else {
                    for row in 0..rows {
                        out.push((self.offset + row * cols + c.start, c.len()));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The tp-aware layout of one parameter group's flat buffer: where each
/// member tensor sits and how it splits. Pure data — building one does no
/// I/O, and all plan computation happens on these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupTopoLayout {
    /// Group id (index into the engine's group list).
    pub group_id: usize,
    /// Total flat elements.
    pub numel: usize,
    tensors: Vec<TensorLayout>,
}

impl GroupTopoLayout {
    /// Build from a group spec plus a shape lookup (live `ParamSet` specs
    /// or `all_param_specs(&config)` on the restore side).
    pub fn from_group(
        group: &GroupSpec,
        mut shape_of: impl FnMut(&str) -> Option<Vec<usize>>,
    ) -> Result<Self, PlanError> {
        let mut tensors = Vec::with_capacity(group.names.len());
        let mut offset = 0usize;
        for name in &group.names {
            let shape = shape_of(name).ok_or(PlanError::NumelMismatch {
                group: group.id,
                got: offset,
                expect: group.numel,
            })?;
            let split = TpSplit::classify(name, &shape);
            let t = TensorLayout {
                offset,
                shape,
                split,
            };
            offset += t.numel();
            tensors.push(t);
        }
        if offset != group.numel {
            return Err(PlanError::NumelMismatch {
                group: group.id,
                got: offset,
                expect: group.numel,
            });
        }
        Ok(GroupTopoLayout {
            group_id: group.id,
            numel: group.numel,
            tensors,
        })
    }

    /// A layout with a single anonymous flat tensor. At `tp = 1` (both
    /// sides of a plan) the member structure is irrelevant — every layout
    /// degenerates to one whole-buffer run — so this stands in when the
    /// group composition cannot be reconstructed.
    pub fn flat(group_id: usize, numel: usize) -> Self {
        GroupTopoLayout {
            group_id,
            numel,
            tensors: vec![TensorLayout {
                offset: 0,
                shape: vec![numel],
                split: TpSplit::Flat,
            }],
        }
    }

    /// Ordered, coalesced runs tp rank `t` of degree `tp` owns.
    fn tp_runs(&self, tp: usize, t: usize) -> Result<Vec<(usize, usize)>, PlanError> {
        let mut runs = Vec::new();
        for tensor in &self.tensors {
            tensor.runs(tp, t, &mut runs)?;
        }
        // Coalesce adjacent runs (tensors are laid out back-to-back, so at
        // tp=1 this collapses to one run for the whole group).
        let mut out: Vec<(usize, usize)> = Vec::with_capacity(runs.len());
        for (start, len) in runs {
            match out.last_mut() {
                Some((s, l)) if *s + *l == start => *l += len,
                _ => out.push((start, len)),
            }
        }
        Ok(out)
    }

    /// Unpadded element count of tp rank `t`'s slice.
    fn tp_slice_len(&self, tp: usize, t: usize) -> Result<usize, PlanError> {
        Ok(self.tp_runs(tp, t)?.iter().map(|(_, l)| l).sum())
    }

    /// Padded per-rank shard lengths under `topo`, indexed by linear rank.
    /// All dp ranks of one tp slice share a length (`ceil(slice/dp)`);
    /// different tp slices may differ when tensors don't divide evenly.
    pub fn shard_lens(&self, topo: &Topology) -> Result<Vec<usize>, PlanError> {
        topo.validate()?;
        let mut lens = vec![0usize; topo.world()];
        for t in 0..topo.tp {
            let s = shard_size(self.tp_slice_len(topo.tp, t)?, topo.dp);
            for d in 0..topo.dp {
                lens[topo.rank(d, t)] = s;
            }
        }
        Ok(lens)
    }

    /// The exact tiling of `[0, numel)` under `topo`: per flat interval,
    /// which linear rank owns it and at which offset inside its shard.
    /// Returned sorted by `flat_start`; intervals chain with no gap or
    /// overlap (both partition dimensions are exact partitions).
    fn tiling(&self, topo: &Topology) -> Result<Vec<OwnedInterval>, PlanError> {
        topo.validate()?;
        let mut out = Vec::new();
        for t in 0..topo.tp {
            let runs = self.tp_runs(topo.tp, t)?;
            let slice_len: usize = runs.iter().map(|(_, l)| l).sum();
            for d in 0..topo.dp {
                let dp_range = try_shard_range(slice_len, topo.dp, d)?;
                if dp_range.is_empty() {
                    continue;
                }
                let rank = topo.rank(d, t);
                // Walk the runs, intersecting with this dp shard's slice
                // coordinates.
                let mut slice_pos = 0usize;
                for &(run_start, run_len) in &runs {
                    let run_range = slice_pos..slice_pos + run_len;
                    let lo = dp_range.start.max(run_range.start);
                    let hi = dp_range.end.min(run_range.end);
                    if lo < hi {
                        out.push(OwnedInterval {
                            flat_start: run_start + (lo - run_range.start),
                            len: hi - lo,
                            rank,
                            shard_off: lo - dp_range.start,
                        });
                    }
                    slice_pos += run_len;
                }
            }
        }
        out.sort_by_key(|iv| iv.flat_start);
        // Exact-tiling invariant: defensive, should be unbreakable.
        let mut pos = 0usize;
        for iv in &out {
            debug_assert_eq!(iv.flat_start, pos, "tiling gap/overlap");
            pos = iv.flat_start + iv.len;
        }
        debug_assert_eq!(pos, self.numel, "tiling does not cover group");
        Ok(out)
    }

    /// Partition a full flat buffer into per-rank padded shards.
    pub fn partition_at(&self, topo: &Topology, flat: &[f32]) -> Result<Vec<Vec<f32>>, PlanError> {
        let lens = self.shard_lens(topo)?;
        let mut shards: Vec<Vec<f32>> = lens.iter().map(|&l| vec![0.0f32; l]).collect();
        for iv in self.tiling(topo)? {
            shards[iv.rank][iv.shard_off..iv.shard_off + iv.len]
                .copy_from_slice(&flat[iv.flat_start..iv.flat_start + iv.len]);
        }
        Ok(shards)
    }

    /// Reassemble per-rank shards into the full flat buffer, dropping pad.
    /// Bit-exact: every element is copied from exactly one shard.
    pub fn gather_at(&self, topo: &Topology, shards: &[Vec<f32>]) -> Result<Vec<f32>, PlanError> {
        let lens = self.shard_lens(topo)?;
        if shards.len() != lens.len() {
            return Err(PlanError::RankCountMismatch {
                got: shards.len(),
                expect: lens.len(),
            });
        }
        let mut flat = vec![0.0f32; self.numel];
        for iv in self.tiling(topo)? {
            let shard = &shards[iv.rank];
            if shard.len() < iv.shard_off + iv.len {
                return Err(PlanError::ShortSource {
                    group: self.group_id,
                    rank: iv.rank,
                    got: shard.len(),
                    expect: iv.shard_off + iv.len,
                });
            }
            flat[iv.flat_start..iv.flat_start + iv.len]
                .copy_from_slice(&shard[iv.shard_off..iv.shard_off + iv.len]);
        }
        Ok(flat)
    }
}

/// One interval of a group's exact tiling under a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OwnedInterval {
    flat_start: usize,
    len: usize,
    rank: usize,
    shard_off: usize,
}

/// One shard-to-shard copy: `len` elements from source rank's buffer at
/// `src_off` into the target rank's buffer at `dst_off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CopyOp {
    /// Linear source rank.
    pub src_rank: usize,
    /// Offset in the source shard buffer.
    pub src_off: usize,
    /// Linear target rank.
    pub dst_rank: usize,
    /// Offset in the target shard buffer.
    pub dst_off: usize,
    /// Element count.
    pub len: usize,
}

/// The copy plan for one parameter group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupPlan {
    /// Group id.
    pub group_id: usize,
    /// Flat element count of the group.
    pub numel: usize,
    /// Padded shard length per source rank.
    pub src_shard_lens: Vec<usize>,
    /// Padded shard length per target rank.
    pub dst_shard_lens: Vec<usize>,
    /// The copies, in ascending group-flat order.
    pub ops: Vec<CopyOp>,
}

impl GroupPlan {
    /// Intersect the source and target tilings of one group — a two-pointer
    /// sweep over two sorted exact tilings of `[0, numel)`.
    pub fn compute(
        layout: &GroupTopoLayout,
        from: &Topology,
        to: &Topology,
    ) -> Result<Self, PlanError> {
        let src = layout.tiling(from)?;
        let dst = layout.tiling(to)?;
        let mut ops = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < src.len() && j < dst.len() {
            let (a, b) = (&src[i], &dst[j]);
            let lo = a.flat_start.max(b.flat_start);
            let hi = (a.flat_start + a.len).min(b.flat_start + b.len);
            if lo < hi {
                ops.push(CopyOp {
                    src_rank: a.rank,
                    src_off: a.shard_off + (lo - a.flat_start),
                    dst_rank: b.rank,
                    dst_off: b.shard_off + (lo - b.flat_start),
                    len: hi - lo,
                });
            }
            if a.flat_start + a.len <= b.flat_start + b.len {
                i += 1;
            } else {
                j += 1;
            }
        }
        Ok(GroupPlan {
            group_id: layout.group_id,
            numel: layout.numel,
            src_shard_lens: layout.shard_lens(from)?,
            dst_shard_lens: layout.shard_lens(to)?,
            ops,
        })
    }

    /// Execute the plan on one buffer kind: `srcs[rank]` are the saved
    /// shard buffers, the return is the per-target-rank buffers (pad
    /// initialized to `+0.0`, exactly as a fresh partition would be).
    pub fn apply(&self, srcs: &[&[f32]]) -> Result<Vec<Vec<f32>>, PlanError> {
        if srcs.len() != self.src_shard_lens.len() {
            return Err(PlanError::RankCountMismatch {
                got: srcs.len(),
                expect: self.src_shard_lens.len(),
            });
        }
        for (r, (buf, &want)) in srcs.iter().zip(&self.src_shard_lens).enumerate() {
            if buf.len() != want {
                return Err(PlanError::ShortSource {
                    group: self.group_id,
                    rank: r,
                    got: buf.len(),
                    expect: want,
                });
            }
        }
        let mut dsts: Vec<Vec<f32>> = self
            .dst_shard_lens
            .iter()
            .map(|&l| vec![0.0f32; l])
            .collect();
        for op in &self.ops {
            let src = &srcs[op.src_rank][op.src_off..op.src_off + op.len];
            dsts[op.dst_rank][op.dst_off..op.dst_off + op.len].copy_from_slice(src);
        }
        Ok(dsts)
    }

    /// Total elements moved by the plan (equals the group's `numel`).
    pub fn elements(&self) -> usize {
        self.ops.iter().map(|op| op.len).sum()
    }
}

/// A full offline reshard plan: one [`GroupPlan`] per parameter group.
/// Computing one does no I/O and allocates only the op lists.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReshardPlan {
    /// Saved topology.
    pub from: Topology,
    /// Target topology.
    pub to: Topology,
    /// Per-group plans, in group-id order.
    pub groups: Vec<GroupPlan>,
}

impl ReshardPlan {
    /// Plan the remap `from → to` over every group layout.
    pub fn compute(
        layouts: &[GroupTopoLayout],
        from: Topology,
        to: Topology,
    ) -> Result<Self, PlanError> {
        from.validate()?;
        to.validate()?;
        let groups = layouts
            .iter()
            .map(|l| GroupPlan::compute(l, &from, &to))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ReshardPlan { from, to, groups })
    }

    /// Whether the plan is a no-op (identical topologies).
    pub fn is_identity(&self) -> bool {
        self.from == self.to
    }

    /// Total copy ops across all groups.
    pub fn total_ops(&self) -> usize {
        self.groups.iter().map(|g| g.ops.len()).sum()
    }

    /// Total elements moved across all groups.
    pub fn total_elements(&self) -> usize {
        self.groups.iter().map(|g| g.elements()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(id: usize, names: &[(&str, Vec<usize>)]) -> (GroupSpec, Vec<(String, Vec<usize>)>) {
        let numel = names.iter().map(|(_, s)| s.iter().product::<usize>()).sum();
        let spec = GroupSpec {
            id,
            weight_decay: 0.0,
            names: names.iter().map(|(n, _)| n.to_string()).collect(),
            numel,
            unit: None,
        };
        let shapes = names
            .iter()
            .map(|(n, s)| (n.to_string(), s.clone()))
            .collect();
        (spec, shapes)
    }

    fn layout_of(names: &[(&str, Vec<usize>)]) -> GroupTopoLayout {
        let (spec, shapes) = group(0, names);
        GroupTopoLayout::from_group(&spec, |n| {
            shapes.iter().find(|(m, _)| m == n).map(|(_, s)| s.clone())
        })
        .unwrap()
    }

    #[test]
    fn topology_rank_round_trips() {
        let t = Topology { dp: 3, tp: 2 };
        assert_eq!(t.world(), 6);
        for r in 0..t.world() {
            let (d, p) = t.coords(r);
            assert_eq!(t.rank(d, p), r);
        }
        assert_eq!(t.to_string(), "dp3tp2");
        assert!(Topology { dp: 0, tp: 1 }.validate().is_err());
    }

    #[test]
    fn classify_follows_megatron_convention() {
        assert_eq!(
            TpSplit::classify("model.layers.0.self_attn.q_proj.weight", &[8, 8]),
            TpSplit::Rows
        );
        assert_eq!(
            TpSplit::classify("model.layers.0.self_attn.o_proj.weight", &[8, 8]),
            TpSplit::Cols
        );
        assert_eq!(
            TpSplit::classify("model.layers.0.mlp.down_proj.weight", &[8, 16]),
            TpSplit::Cols
        );
        assert_eq!(TpSplit::classify("model.norm.weight", &[8]), TpSplit::Flat);
        assert_eq!(TpSplit::classify("lm_head.weight", &[32, 8]), TpSplit::Rows);
    }

    #[test]
    fn tp1_degenerates_to_pure_dp() {
        let layout = layout_of(&[
            ("a.q_proj.weight", vec![4, 6]),
            ("a.o_proj.weight", vec![6, 4]),
            ("norm.weight", vec![5]),
        ]);
        let flat: Vec<f32> = (0..layout.numel).map(|i| i as f32).collect();
        for dp in [1usize, 2, 3, 7] {
            let topo = Topology::dp_only(dp);
            let shards = layout.partition_at(&topo, &flat).unwrap();
            let legacy = crate::partition::partition_padded(&flat, dp);
            assert_eq!(shards, legacy, "dp={dp} must match legacy partition");
            assert_eq!(layout.gather_at(&topo, &shards).unwrap(), flat);
        }
    }

    #[test]
    fn partition_gather_round_trips_all_topologies() {
        let layout = layout_of(&[
            ("a.q_proj.weight", vec![4, 6]),
            ("a.o_proj.weight", vec![6, 4]),
            ("a.down_proj.weight", vec![3, 7]),
            ("norm.weight", vec![5]),
        ]);
        let flat: Vec<f32> = (0..layout.numel).map(|i| (i * 31 + 7) as f32).collect();
        for dp in 1..=4usize {
            for tp in 1..=3usize {
                let topo = Topology { dp, tp };
                let shards = layout.partition_at(&topo, &flat).unwrap();
                assert_eq!(shards.len(), topo.world());
                let lens = layout.shard_lens(&topo).unwrap();
                for (s, &l) in shards.iter().zip(&lens) {
                    assert_eq!(s.len(), l);
                }
                assert_eq!(
                    layout.gather_at(&topo, &shards).unwrap(),
                    flat,
                    "{topo} round trip"
                );
            }
        }
    }

    #[test]
    fn plan_moves_every_element_exactly_once() {
        let layout = layout_of(&[
            ("a.q_proj.weight", vec![8, 4]),
            ("a.o_proj.weight", vec![4, 8]),
            ("norm.weight", vec![7]),
        ]);
        let flat: Vec<f32> = (0..layout.numel).map(|i| i as f32 * 0.5 + 1.0).collect();
        let topos = [
            Topology { dp: 1, tp: 1 },
            Topology { dp: 4, tp: 1 },
            Topology { dp: 2, tp: 2 },
            Topology { dp: 1, tp: 3 },
            Topology { dp: 3, tp: 2 },
        ];
        for from in topos {
            let src = layout.partition_at(&from, &flat).unwrap();
            for to in topos {
                let plan = GroupPlan::compute(&layout, &from, &to).unwrap();
                assert_eq!(plan.elements(), layout.numel, "{from} -> {to} coverage");
                let srcs: Vec<&[f32]> = src.iter().map(|s| s.as_slice()).collect();
                let dst = plan.apply(&srcs).unwrap();
                let direct = layout.partition_at(&to, &flat).unwrap();
                assert_eq!(dst, direct, "{from} -> {to} must equal direct partition");
            }
        }
    }

    #[test]
    fn plan_rejects_short_source() {
        let layout = layout_of(&[("norm.weight", vec![10])]);
        let from = Topology::dp_only(2);
        let plan = GroupPlan::compute(&layout, &from, &Topology::dp_only(1)).unwrap();
        let short = vec![0.0f32; 4];
        let full = vec![0.0f32; 5];
        let err = plan.apply(&[&short, &full]).unwrap_err();
        assert!(
            matches!(err, PlanError::ShortSource { rank: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn flat_layout_matches_real_layout_at_tp1() {
        let layout = layout_of(&[("a.q_proj.weight", vec![4, 4]), ("norm.weight", vec![3])]);
        let flat_layout = GroupTopoLayout::flat(0, layout.numel);
        let buf: Vec<f32> = (0..layout.numel).map(|i| i as f32).collect();
        for dp in 1..=4usize {
            let topo = Topology::dp_only(dp);
            assert_eq!(
                layout.partition_at(&topo, &buf).unwrap(),
                flat_layout.partition_at(&topo, &buf).unwrap()
            );
        }
    }
}
