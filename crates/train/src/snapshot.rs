//! Bounded-memory copy-on-write snapshots for asynchronous checkpointing.
//!
//! The old async path cloned the entire model `ParamSet` *and* the whole
//! `ZeroEngine` for every submitted snapshot — O(model + optimizer) peak
//! memory per in-flight save, regardless of how little had changed. This
//! module replaces that with per-unit blocks: a [`SnapshotTracker`] keeps
//! an [`Arc`]-shared [`UnitBlock`] (BF16 weights + the unit's optimizer
//! shards) per layer unit, and only re-materializes a block when the
//! trainer has actually mutated that unit since the last capture. Frozen
//! or unselected units ride along as pointer copies, so the peak
//! staged-bytes-resident of an async save is **O(dirty units)**, not
//! O(model).
//!
//! Accounting is explicit: every materialization bumps the clone counter
//! and the resident-bytes gauge on [`StagedGauge`]; every block drop
//! (snapshot written, cache entry invalidated) decrements it. The
//! regression test for the O(dirty) property and the ledger's
//! `train.snapshot_clones`/`train.peak_staged_mb` both read this gauge.

use llmt_ckpt::engine::{self, StateSource};
use llmt_ckpt::{CkptError, Result};
use llmt_model::{LayerUnit, ModelConfig, ParamSet};
use llmt_obs::{Counter, Gauge, MetricsRegistry};
use llmt_optim::GroupSpec;
use llmt_tensor::RawTensor;
use llmt_zero::{ShardState, Topology, ZeroEngine};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Shared counters for snapshot memory accounting: bytes currently staged
/// in live [`UnitBlock`]s, the high-water mark, and how many blocks were
/// ever materialized (cloned out of live state). A view over
/// [`llmt_obs`] primitives, so a run-wide [`MetricsRegistry`] sees the
/// same numbers as callers of the typed accessors.
#[derive(Debug, Default)]
pub struct StagedGauge {
    resident: Arc<Gauge>,
    clones: Arc<Counter>,
}

impl StagedGauge {
    /// A gauge whose underlying metrics live in `metrics` (as
    /// `ckpt.snapshot.resident_bytes` / `ckpt.snapshot.clones`).
    fn from_registry(metrics: &MetricsRegistry) -> Self {
        StagedGauge {
            resident: metrics.gauge("ckpt.snapshot.resident_bytes"),
            clones: metrics.counter("ckpt.snapshot.clones"),
        }
    }

    /// The resident-bytes level itself, for run-owned staged bytes that
    /// are not snapshot blocks (the trainer's decoded delta bases).
    pub(crate) fn resident(&self) -> Arc<Gauge> {
        self.resident.clone()
    }

    fn add(&self, bytes: u64) {
        self.clones.incr();
        self.resident.add(bytes);
    }

    fn sub(&self, bytes: u64) {
        self.resident.sub(bytes);
    }

    /// Bytes currently resident in live snapshot blocks.
    pub fn current_bytes(&self) -> u64 {
        self.resident.current()
    }

    /// High-water mark of [`Self::current_bytes`] over the gauge's life.
    pub fn peak_bytes(&self) -> u64 {
        self.resident.peak()
    }

    /// How many unit blocks were materialized (copied out of live state).
    /// A capture of an unchanged unit reuses the cached block and does
    /// *not* count.
    pub fn clones(&self) -> u64 {
        self.clones.get()
    }
}

/// One layer unit's frozen-in-time checkpoint payload: BF16 weight
/// tensors plus the optimizer shards of every group the unit owns.
/// Shared between the tracker cache and in-flight snapshots via [`Arc`];
/// the backing bytes are released (and the gauge decremented) when the
/// last holder drops.
#[derive(Debug)]
pub struct UnitBlock {
    /// Weight tensors in canonical spec order.
    pub weights: Vec<(String, RawTensor)>,
    /// `(rank, group id, shard state)` for every group this unit owns.
    pub shards: Vec<(usize, usize, ShardState)>,
    byte_len: u64,
    gauge: Arc<StagedGauge>,
}

impl UnitBlock {
    fn new(
        weights: Vec<(String, RawTensor)>,
        shards: Vec<(usize, usize, ShardState)>,
        gauge: Arc<StagedGauge>,
    ) -> Self {
        let weight_bytes: u64 = weights.iter().map(|(_, t)| t.byte_len() as u64).sum();
        // Three F32 vectors (master, exp_avg, exp_avg_sq) per shard.
        let shard_bytes: u64 = shards
            .iter()
            .map(|(_, _, s)| 3 * s.master.len() as u64 * 4)
            .sum();
        let byte_len = weight_bytes + shard_bytes;
        gauge.add(byte_len);
        UnitBlock {
            weights,
            shards,
            byte_len,
            gauge,
        }
    }

    /// Approximate resident bytes of this block.
    pub fn byte_len(&self) -> u64 {
        self.byte_len
    }
}

impl Drop for UnitBlock {
    fn drop(&mut self) {
        self.gauge.sub(self.byte_len);
    }
}

/// Trainer-side copy-on-write bookkeeping. The trainer calls
/// [`SnapshotTracker::mark_dirty`] whenever an optimizer step mutates a
/// unit; [`SnapshotTracker::capture`] then clones exactly the dirty units
/// and reuses cached [`Arc`]s for everything else.
#[derive(Debug, Default)]
pub struct SnapshotTracker {
    /// Monotonic per-unit mutation counter.
    versions: BTreeMap<LayerUnit, u64>,
    /// Blocks captured at a given version. An entry is evicted as soon as
    /// its unit is mutated, so cache residency is bounded by the blocks
    /// in-flight snapshots still hold — not by model size over time.
    cache: BTreeMap<LayerUnit, (u64, Arc<UnitBlock>)>,
    gauge: Arc<StagedGauge>,
}

impl SnapshotTracker {
    /// Fresh tracker with its own gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tracker whose gauge metrics live in `metrics`, so the run-wide
    /// registry observes snapshot residency and clone counts.
    pub fn with_metrics(metrics: &MetricsRegistry) -> Self {
        SnapshotTracker {
            gauge: Arc::new(StagedGauge::from_registry(metrics)),
            ..Self::default()
        }
    }

    /// The shared memory-accounting gauge.
    pub fn gauge(&self) -> Arc<StagedGauge> {
        self.gauge.clone()
    }

    /// Record that live state for `unit` has changed. Bumps the version
    /// and drops the cached block so the next capture re-materializes.
    pub fn mark_dirty(&mut self, unit: LayerUnit) {
        *self.versions.entry(unit).or_insert(0) += 1;
        self.cache.remove(&unit);
    }

    /// The cached block pointer for `unit`, if one is cached. Lets tests
    /// prove that consecutive captures of a clean unit share one block.
    pub fn block_ptr(&self, unit: LayerUnit) -> Option<usize> {
        self.cache.get(&unit).map(|(_, b)| Arc::as_ptr(b) as usize)
    }

    fn capture_unit(
        &mut self,
        config: &ModelConfig,
        params: &ParamSet,
        zero: &ZeroEngine,
        unit: LayerUnit,
    ) -> Result<Arc<UnitBlock>> {
        let version = self.versions.get(&unit).copied().unwrap_or(0);
        if let Some((v, block)) = self.cache.get(&unit) {
            if *v == version {
                return Ok(block.clone());
            }
        }
        let weights = engine::unit_weight_tensors(config, params, unit)?;
        let mut shards = Vec::new();
        for g in zero.groups() {
            if g.unit == Some(unit) {
                for rank in 0..zero.world_size {
                    shards.push((rank, g.id, zero.ranks[rank].shards[g.id].clone()));
                }
            }
        }
        let block = Arc::new(UnitBlock::new(weights, shards, self.gauge.clone()));
        self.cache.insert(unit, (version, block.clone()));
        Ok(block)
    }

    /// Capture a consistent snapshot of `units` for an async save. Clean
    /// units (unchanged since their cached capture) cost a pointer copy;
    /// dirty units are cloned out of live state.
    pub fn capture(
        &mut self,
        config: &ModelConfig,
        params: &ParamSet,
        zero: &ZeroEngine,
        units: &[LayerUnit],
    ) -> Result<CowSnapshot> {
        let groups = zero.groups().to_vec();
        // Per-unit capture needs per-unit optimizer groups; the stock
        // 2-group layout interleaves all layers into inseparable flat
        // buffers (the exact limitation the paper's §4.1 layout removes).
        if !groups.iter().all(|g| g.unit.is_some()) {
            return Err(CkptError::Incompatible(
                "copy-on-write snapshots require the layer-wise (2L+x) group layout".into(),
            ));
        }
        let mut blocks = BTreeMap::new();
        for unit in units {
            blocks.insert(*unit, self.capture_unit(config, params, zero, *unit)?);
        }
        let shard_lens = (0..groups.len()).map(|gid| zero.shard_len(gid)).collect();
        let topology = zero.topology();
        // Per-tp-slice shard lengths, captured while the live engine is
        // still around (the async writer only sees this snapshot). The
        // first `tp` linear ranks are dp-rank 0's tp slices, and every dp
        // rank of one slice shares the slice's length.
        let tp_shard_lens = (0..groups.len())
            .map(|gid| (topology.tp > 1).then(|| zero.shard_lens(gid)[..topology.tp].to_vec()))
            .collect();
        Ok(CowSnapshot {
            config: config.clone(),
            groups,
            shard_lens,
            world_size: zero.world_size,
            topology,
            tp_shard_lens,
            optimizer_step: zero.step_count,
            blocks,
        })
    }
}

/// An immutable point-in-time view of the trainer state for the units of
/// one async save: shared [`UnitBlock`]s plus the small metadata the
/// checkpoint engine needs. Implements
/// [`StateSource`](llmt_ckpt::engine::StateSource), so the background
/// writer hands it to `engine::save` as the request's source.
#[derive(Debug)]
pub struct CowSnapshot {
    /// Model configuration at capture time.
    pub config: ModelConfig,
    /// Optimizer group specs at capture time.
    pub groups: Vec<GroupSpec>,
    /// Per-group shard lengths.
    pub shard_lens: Vec<usize>,
    /// Simulated total world size (`dp * tp` linear ranks).
    pub world_size: usize,
    /// dp×tp topology of the captured engine.
    pub topology: Topology,
    /// Per-group, per-tp-slice shard lengths (`None` for pure-dp groups).
    pub tp_shard_lens: Vec<Option<Vec<usize>>>,
    /// Completed optimizer steps at capture time.
    pub optimizer_step: u64,
    /// The captured unit payloads.
    pub blocks: BTreeMap<LayerUnit, Arc<UnitBlock>>,
}

impl CowSnapshot {
    /// Total bytes resident in this snapshot's blocks (shared blocks are
    /// counted once per snapshot here; the [`StagedGauge`] counts each
    /// block once globally).
    pub fn byte_len(&self) -> u64 {
        self.blocks.values().map(|b| b.byte_len()).sum()
    }

    /// Address of the block backing `unit`, for sharing assertions in
    /// tests.
    pub fn block_ptr(&self, unit: LayerUnit) -> Option<usize> {
        self.blocks.get(&unit).map(|b| Arc::as_ptr(b) as usize)
    }
}

impl StateSource for CowSnapshot {
    fn model_config(&self) -> &ModelConfig {
        &self.config
    }

    fn group_specs(&self) -> &[GroupSpec] {
        &self.groups
    }

    fn world_size(&self) -> usize {
        self.world_size
    }

    fn topology(&self) -> Topology {
        self.topology
    }

    fn tp_shard_lens(&self, gid: usize) -> Option<Vec<usize>> {
        self.tp_shard_lens[gid].clone()
    }

    fn shard_len(&self, gid: usize) -> usize {
        self.shard_lens[gid]
    }

    fn optimizer_step(&self) -> u64 {
        self.optimizer_step
    }

    fn unit_weight_tensors(&self, unit: LayerUnit) -> Result<Vec<(String, RawTensor)>> {
        let block = self.blocks.get(&unit).ok_or_else(|| {
            CkptError::Incompatible(format!("unit {unit} was not captured in this snapshot"))
        })?;
        Ok(block.weights.clone())
    }

    fn shard_tensors(&self, rank: usize, gid: usize) -> Result<Vec<(String, RawTensor)>> {
        let missing = |what: &str| {
            CkptError::Incompatible(format!("rank {rank} group {gid}: {what} in this snapshot"))
        };
        let unit = self
            .groups
            .get(gid)
            .and_then(|g| g.unit)
            .ok_or_else(|| missing("the group belongs to no unit"))?;
        let block = self
            .blocks
            .get(&unit)
            .ok_or_else(|| missing(&format!("unit {unit} was not captured")))?;
        let (_, _, shard) = block
            .shards
            .iter()
            .find(|(r, g, _)| *r == rank && *g == gid)
            .ok_or_else(|| missing(&format!("the shard is missing from unit {unit}'s block")))?;
        Ok(engine::shard_state_tensors(shard, gid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmt_model::Model;
    use llmt_optim::{build_groups, AdamWHyper, GroupLayout};

    fn state(world: usize) -> (ModelConfig, Model, ZeroEngine) {
        let cfg = ModelConfig::tiny_test();
        let model = Model::new(cfg.clone(), 7);
        let zero = ZeroEngine::new(
            &model.params,
            build_groups(&cfg, GroupLayout::LayerWise),
            world,
            AdamWHyper::default(),
        );
        (cfg, model, zero)
    }

    #[test]
    fn clean_units_share_blocks_across_captures() {
        let (cfg, model, zero) = state(2);
        let mut tracker = SnapshotTracker::new();
        let units = LayerUnit::all(&cfg);
        let s1 = tracker.capture(&cfg, &model.params, &zero, &units).unwrap();
        let clones_after_first = tracker.gauge().clones();
        assert_eq!(clones_after_first, units.len() as u64);

        // Nothing marked dirty: second capture is pure pointer copies.
        let s2 = tracker.capture(&cfg, &model.params, &zero, &units).unwrap();
        assert_eq!(tracker.gauge().clones(), clones_after_first);
        for u in &units {
            assert_eq!(s1.block_ptr(*u), s2.block_ptr(*u), "{u}");
        }

        // Dirty exactly one unit: exactly one new block.
        tracker.mark_dirty(units[0]);
        let s3 = tracker.capture(&cfg, &model.params, &zero, &units).unwrap();
        assert_eq!(tracker.gauge().clones(), clones_after_first + 1);
        assert_ne!(s3.block_ptr(units[0]), s1.block_ptr(units[0]));
        assert_eq!(s3.block_ptr(units[1]), s1.block_ptr(units[1]));
    }

    #[test]
    fn gauge_tracks_resident_bytes_through_drops() {
        let (cfg, model, zero) = state(1);
        let mut tracker = SnapshotTracker::new();
        let units = LayerUnit::all(&cfg);
        let gauge = tracker.gauge();
        assert_eq!(gauge.current_bytes(), 0);
        let snap = tracker.capture(&cfg, &model.params, &zero, &units).unwrap();
        let resident = gauge.current_bytes();
        assert_eq!(resident, snap.byte_len());
        assert!(resident > 0);
        assert_eq!(gauge.peak_bytes(), resident);

        // Dropping the snapshot alone frees nothing (cache still holds the
        // blocks); invalidating the cache releases them.
        drop(snap);
        assert_eq!(gauge.current_bytes(), resident);
        for u in &units {
            tracker.mark_dirty(*u);
        }
        assert_eq!(gauge.current_bytes(), 0);
        assert_eq!(gauge.peak_bytes(), resident);
    }

    #[test]
    fn snapshot_serves_engine_tensor_queries() {
        let (cfg, model, zero) = state(2);
        let mut tracker = SnapshotTracker::new();
        let units = LayerUnit::all(&cfg);
        let snap = tracker.capture(&cfg, &model.params, &zero, &units).unwrap();
        assert_eq!(snap.world_size(), 2);
        assert_eq!(snap.optimizer_step(), 0);
        // Weight tensors match a live extraction byte for byte.
        for u in &units {
            let live = engine::unit_weight_tensors(&cfg, &model.params, *u).unwrap();
            let snapped = StateSource::unit_weight_tensors(&snap, *u).unwrap();
            assert_eq!(live.len(), snapped.len());
            for ((an, at), (bn, bt)) in live.iter().zip(snapped.iter()) {
                assert_eq!(an, bn);
                assert_eq!(at.bytes(), bt.bytes());
            }
        }
        // Shard tensors match the live engine's.
        for gid in 0..zero.groups().len() {
            for rank in 0..2 {
                let live = engine::shard_state_tensors(&zero.ranks[rank].shards[gid], gid);
                let snapped = snap.shard_tensors(rank, gid).unwrap();
                for ((an, at), (bn, bt)) in live.iter().zip(snapped.iter()) {
                    assert_eq!(an, bn);
                    assert_eq!(at.bytes(), bt.bytes());
                }
            }
        }
    }

    #[test]
    fn stock_layout_is_rejected() {
        let cfg = ModelConfig::tiny_test();
        let model = Model::new(cfg.clone(), 7);
        let zero = ZeroEngine::new(
            &model.params,
            build_groups(&cfg, GroupLayout::Stock),
            1,
            AdamWHyper::default(),
        );
        let mut tracker = SnapshotTracker::new();
        let err = tracker
            .capture(&cfg, &model.params, &zero, &LayerUnit::all(&cfg))
            .unwrap_err();
        assert!(matches!(err, CkptError::Incompatible(_)));
    }

    #[test]
    fn uncaptured_unit_is_an_error_not_a_panic() {
        let (cfg, model, zero) = state(1);
        let mut tracker = SnapshotTracker::new();
        let snap = tracker
            .capture(&cfg, &model.params, &zero, &[LayerUnit::FinalNorm])
            .unwrap();
        let err = StateSource::unit_weight_tensors(&snap, LayerUnit::EmbedTokens).unwrap_err();
        assert!(matches!(err, CkptError::Incompatible(_)));

        // The shard side: a group of an uncaptured unit, a group id the
        // layout does not have, and a rank the captured block lacks all
        // name the rank and group instead of panicking.
        let map = llmt_optim::GroupIndexMap::from_config(&cfg);
        let embed = map.groups_for_unit(LayerUnit::EmbedTokens).unwrap()[0];
        let norm = map.groups_for_unit(LayerUnit::FinalNorm).unwrap()[0];
        for (rank, gid) in [(0, embed), (0, map.group_count()), (1, norm)] {
            match snap.shard_tensors(rank, gid).unwrap_err() {
                CkptError::Incompatible(msg) => {
                    assert!(msg.contains(&format!("rank {rank} group {gid}")), "{msg}")
                }
                other => panic!("expected Incompatible, got {other}"),
            }
        }
        assert!(snap.shard_tensors(0, norm).is_ok());
    }
}
