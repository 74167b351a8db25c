//! The sharded optimizer engine: AdamW under ZeRO-3 partitioning.
//!
//! Each simulated rank owns one equal shard of every parameter group's
//! master/exp_avg/exp_avg_sq buffers. A step reduce-scatters the gradients
//! (a slice, since our ranks share an address space), updates every shard
//! in parallel, then all-gathers the masters back into the BF16 model
//! copy. Checkpointing reads [`RankState`]s; resuming builds an engine
//! around the restored ones ([`ZeroEngine::from_rank_states`]).

use crate::topology::{GroupTopoLayout, PlanError, Topology};
use llmt_model::ParamSet;
use llmt_optim::flat::{flatten_group, unflatten_group_into};
use llmt_optim::{adamw_update, AdamWHyper, GroupSpec};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One rank's shard of one parameter group's optimizer state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardState {
    /// FP32 master weights shard.
    pub master: Vec<f32>,
    /// First-moment shard.
    pub exp_avg: Vec<f32>,
    /// Second-moment shard.
    pub exp_avg_sq: Vec<f32>,
}

impl ShardState {
    fn zeros_like(master: Vec<f32>) -> Self {
        let n = master.len();
        ShardState {
            master,
            exp_avg: vec![0.0; n],
            exp_avg_sq: vec![0.0; n],
        }
    }
}

/// All shards held by one simulated rank, indexed by group id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankState {
    /// `shards[g]` is this rank's piece of group `g`.
    pub shards: Vec<ShardState>,
}

/// Sharded grouped AdamW across `topology.world()` simulated ranks —
/// data-parallel ZeRO shards of tensor-parallel slices.
#[derive(Debug, Clone)]
pub struct ZeroEngine {
    /// Total number of simulated ranks (`topology.world()`).
    pub world_size: usize,
    topology: Topology,
    groups: Vec<GroupSpec>,
    layouts: Vec<GroupTopoLayout>,
    /// Per-rank optimizer state, indexed by linear rank
    /// (`dp_rank * tp + tp_rank`).
    pub ranks: Vec<RankState>,
    /// 1-based AdamW step counter (0 before any step).
    pub step_count: u64,
    /// Base hyperparameters (`lr` is supplied per step).
    pub hyper: AdamWHyper,
}

impl ZeroEngine {
    /// Initialize a pure data-parallel engine (`{dp: world_size, tp: 1}`):
    /// partition the model's current parameters into per-rank master
    /// shards with zeroed moments.
    pub fn new(
        params: &ParamSet,
        groups: Vec<GroupSpec>,
        world_size: usize,
        hyper: AdamWHyper,
    ) -> Self {
        Self::with_topology(params, groups, Topology::dp_only(world_size), hyper)
    }

    /// Initialize at an explicit dp×tp topology. Each tensor is first
    /// split across tp ranks (Megatron row/column convention, exact
    /// partition), each tp slice then ZeRO-sharded across dp ranks. The
    /// parameter trajectory is bit-identical for every topology — AdamW
    /// is element-wise, so any exact partition is an implementation
    /// detail.
    pub fn with_topology(
        params: &ParamSet,
        groups: Vec<GroupSpec>,
        topology: Topology,
        hyper: AdamWHyper,
    ) -> Self {
        topology.validate().expect("degenerate topology");
        // Invariant: `groups` was built from the same config as `params`,
        // so every member exists. Checkpoint data never reaches this
        // path: restored states enter through `from_rank_states`.
        let layouts = group_layouts(params, &groups).expect("group layout matches live ParamSet");
        let world_size = topology.world();
        let mut ranks: Vec<RankState> = (0..world_size)
            .map(|_| RankState {
                shards: Vec::with_capacity(groups.len()),
            })
            .collect();
        for (group, layout) in groups.iter().zip(&layouts) {
            let flat = flatten_group(params, group).expect("group layout matches live ParamSet");
            let shards = layout
                .partition_at(&topology, &flat)
                .expect("valid topology partitions any group");
            for (r, shard) in shards.into_iter().enumerate() {
                ranks[r].shards.push(ShardState::zeros_like(shard));
            }
        }
        ZeroEngine {
            world_size,
            topology,
            groups,
            layouts,
            ranks,
            step_count: 0,
            hyper,
        }
    }

    /// Build an engine around restored rank states — the checkpoint
    /// resume path. Only the *shapes* of `params` are read (a set freshly
    /// allocated from the model's specs will do), every shard is checked
    /// against the length its layout dictates under `topology`, and
    /// `ranks` is adopted as the engine's state: nothing is flattened,
    /// partitioned or zero-filled only to be replaced. `ranks` is
    /// checkpoint data, so a state that does not fit is a typed error.
    pub fn from_rank_states(
        params: &ParamSet,
        groups: Vec<GroupSpec>,
        topology: Topology,
        hyper: AdamWHyper,
        ranks: Vec<RankState>,
    ) -> Result<Self, PlanError> {
        topology.validate()?;
        let world_size = topology.world();
        if ranks.len() != world_size {
            return Err(PlanError::RankCountMismatch {
                got: ranks.len(),
                expect: world_size,
            });
        }
        let layouts = group_layouts(params, &groups)?;
        if let Some(state) = ranks.iter().find(|r| r.shards.len() != groups.len()) {
            return Err(PlanError::GroupCountMismatch {
                got: state.shards.len(),
                expect: groups.len(),
            });
        }
        for (gi, layout) in layouts.iter().enumerate() {
            for (rank, want) in layout.shard_lens(&topology)?.into_iter().enumerate() {
                let sh = &ranks[rank].shards[gi];
                for buf in [&sh.master, &sh.exp_avg, &sh.exp_avg_sq] {
                    if buf.len() != want {
                        return Err(PlanError::ShortSource {
                            group: gi,
                            rank,
                            got: buf.len(),
                            expect: want,
                        });
                    }
                }
            }
        }
        Ok(ZeroEngine {
            world_size,
            topology,
            groups,
            layouts,
            ranks,
            step_count: 0,
            hyper,
        })
    }

    /// Group specs in optimizer order.
    pub fn groups(&self) -> &[GroupSpec] {
        &self.groups
    }

    /// The engine's dp×tp topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The tp-aware flat-buffer layouts, one per group (plan inputs).
    pub fn layouts(&self) -> &[GroupTopoLayout] {
        &self.layouts
    }

    /// One sharded optimizer step. Gradients are flattened per group,
    /// "reduce-scattered" (sliced) to ranks, each shard updated in parallel,
    /// and masters all-gathered back into `params` (BF16-rounded when
    /// `quantize_bf16` — the mixed-precision model copy).
    pub fn step(&mut self, params: &mut ParamSet, grads: &ParamSet, lr: f32, quantize_bf16: bool) {
        self.step_count += 1;
        let step = self.step_count;
        let topo = self.topology;
        let hyper = self.hyper;
        for (gi, group) in self.groups.iter().enumerate() {
            let layout = &self.layouts[gi];
            let flat_grad =
                flatten_group(grads, group).expect("group layout matches live gradient ParamSet");
            let grad_shards = layout
                .partition_at(&topo, &flat_grad)
                .expect("valid topology partitions any group");
            let hp = AdamWHyper {
                lr,
                weight_decay: group.weight_decay,
                ..hyper
            };
            // Parallel per-rank shard update — the simulated GPUs.
            self.ranks
                .par_iter_mut()
                .zip(grad_shards.par_iter())
                .for_each(|(rank, gshard)| {
                    let sh = &mut rank.shards[gi];
                    adamw_update(
                        &mut sh.master,
                        &mut sh.exp_avg,
                        &mut sh.exp_avg_sq,
                        gshard,
                        &hp,
                        step,
                    );
                });
            // All-gather masters -> model copy.
            let master_shards: Vec<Vec<f32>> = self
                .ranks
                .iter()
                .map(|r| r.shards[gi].master.clone())
                .collect();
            let full = layout
                .gather_at(&topo, &master_shards)
                .expect("engine shards match engine layout");
            unflatten_group_into(params, group, &full, quantize_bf16)
                .expect("gathered master matches live ParamSet layout");
        }
    }

    /// Reconstruct the full (unsharded) master buffer of one group.
    pub fn full_master(&self, group_id: usize) -> Vec<f32> {
        let shards: Vec<Vec<f32>> = self
            .ranks
            .iter()
            .map(|r| r.shards[group_id].master.clone())
            .collect();
        self.layouts[group_id]
            .gather_at(&self.topology, &shards)
            .expect("engine shards match engine layout")
    }

    /// Rank-0 shard length for a group. At `tp = 1` every rank shares this
    /// length (`ceil(numel / world)`); at `tp > 1` use [`Self::shard_lens`]
    /// for the per-rank lengths.
    pub fn shard_len(&self, group_id: usize) -> usize {
        self.shard_lens(group_id)[0]
    }

    /// Padded shard length per linear rank for a group.
    pub fn shard_lens(&self, group_id: usize) -> Vec<usize> {
        self.layouts[group_id]
            .shard_lens(&self.topology)
            .expect("engine topology is valid")
    }

    /// Write the gathered masters into `params` without stepping (used
    /// after loading a checkpoint to materialize the model copy).
    pub fn materialize_params(&self, params: &mut ParamSet, quantize_bf16: bool) {
        for (gi, group) in self.groups.iter().enumerate() {
            let full = self.full_master(gi);
            unflatten_group_into(params, group, &full, quantize_bf16)
                .expect("gathered master matches live ParamSet layout");
        }
    }
}

/// Each group's tp-aware flat-buffer layout, from the shapes of `params`.
fn group_layouts(
    params: &ParamSet,
    groups: &[GroupSpec],
) -> Result<Vec<GroupTopoLayout>, PlanError> {
    groups
        .iter()
        .map(|g| {
            GroupTopoLayout::from_group(g, |n| params.get(n).map(|t| t.shape().dims().to_vec()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmt_model::{Batch, Model, ModelConfig};
    use llmt_optim::{build_groups, GroupLayout, GroupedAdamW};
    use llmt_tensor::rng::Prng;

    fn toy_batch(cfg: &ModelConfig, seed: u64) -> Batch {
        let mut rng = Prng::seed_from_u64(seed);
        let tokens = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        Batch::new(tokens, 2, 8)
    }

    /// Core ZeRO invariant: sharding is an implementation detail. For any
    /// world size the parameter trajectory is bit-identical to the
    /// unsharded reference optimizer.
    #[test]
    fn sharded_equals_unsharded_for_all_world_sizes() {
        let cfg = ModelConfig::tiny_test();
        let base = Model::new(cfg.clone(), 11);
        let hyper = AdamWHyper {
            weight_decay: 0.01,
            ..Default::default()
        };
        // Reference: unsharded.
        let mut ref_model = base.clone();
        let mut ref_opt = GroupedAdamW::new(
            &ref_model.params,
            build_groups(&cfg, GroupLayout::LayerWise),
            hyper,
        )
        .unwrap();
        let mut grads_per_step = Vec::new();
        for s in 0..3u64 {
            let batch = toy_batch(&cfg, 100 + s);
            let mut grads = ParamSet::zeros(&cfg);
            ref_model.loss_and_grad(&batch, &mut grads);
            ref_opt
                .step(&mut ref_model.params, &grads, 1e-3, true)
                .unwrap();
            grads_per_step.push((batch, grads));
        }
        for world in [1usize, 2, 3, 8] {
            let mut m = base.clone();
            let mut engine = ZeroEngine::new(
                &m.params,
                build_groups(&cfg, GroupLayout::LayerWise),
                world,
                hyper,
            );
            for (batch, _) in &grads_per_step {
                let mut grads = ParamSet::zeros(&cfg);
                m.loss_and_grad(batch, &mut grads);
                engine.step(&mut m.params, &grads, 1e-3, true);
            }
            for ((_, a), (_, b)) in m.params.iter().zip(ref_model.params.iter()) {
                assert_eq!(a.data(), b.data(), "world {world} diverged");
            }
        }
    }

    /// The same invariant across dp×tp topologies: the second partition
    /// dimension is also an implementation detail — every topology's
    /// trajectory is bit-identical to the unsharded reference.
    #[test]
    fn topology_sharded_equals_unsharded() {
        let cfg = ModelConfig::tiny_test();
        let base = Model::new(cfg.clone(), 13);
        let hyper = AdamWHyper {
            weight_decay: 0.01,
            ..Default::default()
        };
        let mut ref_model = base.clone();
        let mut ref_opt = GroupedAdamW::new(
            &ref_model.params,
            build_groups(&cfg, GroupLayout::LayerWise),
            hyper,
        )
        .unwrap();
        let batches: Vec<Batch> = (0..3u64).map(|s| toy_batch(&cfg, 300 + s)).collect();
        for batch in &batches {
            let mut grads = ParamSet::zeros(&cfg);
            ref_model.loss_and_grad(batch, &mut grads);
            ref_opt
                .step(&mut ref_model.params, &grads, 1e-3, true)
                .unwrap();
        }
        for topo in [
            Topology { dp: 1, tp: 2 },
            Topology { dp: 2, tp: 2 },
            Topology { dp: 3, tp: 2 },
            Topology { dp: 2, tp: 3 },
        ] {
            let mut m = base.clone();
            let mut engine = ZeroEngine::with_topology(
                &m.params,
                build_groups(&cfg, GroupLayout::LayerWise),
                topo,
                hyper,
            );
            assert_eq!(engine.world_size, topo.world());
            for batch in &batches {
                let mut grads = ParamSet::zeros(&cfg);
                m.loss_and_grad(batch, &mut grads);
                engine.step(&mut m.params, &grads, 1e-3, true);
            }
            for ((_, a), (_, b)) in m.params.iter().zip(ref_model.params.iter()) {
                assert_eq!(a.data(), b.data(), "{topo} diverged");
            }
        }
    }

    #[test]
    fn full_master_reassembles_initial_params() {
        let cfg = ModelConfig::tiny_test();
        let model = Model::new(cfg.clone(), 5);
        let groups = build_groups(&cfg, GroupLayout::LayerWise);
        let engine = ZeroEngine::new(&model.params, groups.clone(), 4, AdamWHyper::default());
        for (gi, group) in groups.iter().enumerate() {
            let flat = flatten_group(&model.params, group).unwrap();
            assert_eq!(engine.full_master(gi), flat, "group {gi}");
        }
    }

    #[test]
    fn shard_lengths_are_uniform_across_ranks() {
        let cfg = ModelConfig::tiny_test();
        let model = Model::new(cfg.clone(), 5);
        let engine = ZeroEngine::new(
            &model.params,
            build_groups(&cfg, GroupLayout::LayerWise),
            3,
            AdamWHyper::default(),
        );
        for gi in 0..engine.groups().len() {
            let want = engine.shard_len(gi);
            for r in &engine.ranks {
                assert_eq!(r.shards[gi].master.len(), want);
            }
        }
    }

    #[test]
    fn from_rank_states_adopts_the_states_at_every_topology() {
        let cfg = ModelConfig::tiny_test();
        for topo in [
            Topology::dp_only(2),
            Topology::dp_only(3),
            Topology { dp: 2, tp: 2 },
        ] {
            let mut model = Model::new(cfg.clone(), 5);
            let groups = build_groups(&cfg, GroupLayout::LayerWise);
            let mut engine = ZeroEngine::with_topology(
                &model.params,
                groups.clone(),
                topo,
                AdamWHyper::default(),
            );
            let mut grads = ParamSet::zeros(&cfg);
            model.loss_and_grad(&toy_batch(&cfg, 9), &mut grads);
            engine.step(&mut model.params, &grads, 1e-3, true);

            let adopted = ZeroEngine::from_rank_states(
                &ParamSet::zeros(&cfg),
                groups,
                topo,
                AdamWHyper::default(),
                engine.ranks.clone(),
            )
            .unwrap();
            assert_eq!(adopted.ranks, engine.ranks, "{topo}");
            assert_eq!(adopted.layouts(), engine.layouts(), "{topo}");
            assert_eq!(adopted.topology(), topo);
            assert_eq!(adopted.world_size, topo.world());
            assert_eq!(adopted.step_count, 0);
            // The masters alone rebuild the model copy.
            let mut restored = ParamSet::zeros(&cfg);
            adopted.materialize_params(&mut restored, true);
            for ((_, a), (_, b)) in restored.iter().zip(model.params.iter()) {
                assert_eq!(a.data(), b.data(), "{topo}");
            }
        }
    }

    /// What lets a resume skip initialising the model: every parameter
    /// belongs to exactly one optimizer group, so materializing from the
    /// adopted masters writes every element of a set allocated as NaN.
    #[test]
    fn every_parameter_is_materialized_from_exactly_one_group() {
        use llmt_tensor::dtype::bf16_round;
        let presets = [
            ModelConfig::llama32_1b_sim(),
            ModelConfig::llama31_8b_sim(),
            ModelConfig::qwen25_7b_sim(),
            ModelConfig::tiny_test(),
            ModelConfig::tiny_test_gqa(),
            ModelConfig::tiny_test_tied(),
        ];
        for (preset, tied) in presets.iter().flat_map(|p| [(p, false), (p, true)]) {
            let cfg = ModelConfig {
                tie_word_embeddings: tied,
                ..preset.clone()
            };
            for layout in [GroupLayout::Stock, GroupLayout::LayerWise] {
                let what = format!("{} tied={tied} {layout:?}", cfg.model_name);
                let groups = build_groups(&cfg, layout);
                let mut owners = std::collections::HashMap::new();
                for name in groups.iter().flat_map(|g| &g.names) {
                    *owners.entry(name.as_str()).or_insert(0usize) += 1;
                }
                for spec in llmt_model::naming::all_param_specs(&cfg) {
                    assert_eq!(
                        owners.remove(spec.name.as_str()),
                        Some(1),
                        "{what}: {}",
                        spec.name
                    );
                }
                assert!(owners.is_empty(), "{what}: groups name unknown tensors");

                let topo = Topology { dp: 2, tp: 2 };
                let value = |gid: usize, i: usize| 1.0 + ((gid * 7919 + i) % 4093) as f32 * 1e-3;
                let mut ranks: Vec<RankState> = (0..topo.world())
                    .map(|_| RankState { shards: Vec::new() })
                    .collect();
                let mut params = ParamSet::zeros(&cfg);
                for (g, layout) in groups.iter().zip(group_layouts(&params, &groups).unwrap()) {
                    let flat: Vec<f32> = (0..g.numel).map(|i| value(g.id, i)).collect();
                    let shards = layout.partition_at(&topo, &flat).unwrap();
                    for (rank, master) in ranks.iter_mut().zip(shards) {
                        rank.shards.push(ShardState::zeros_like(master));
                    }
                }
                let engine = ZeroEngine::from_rank_states(
                    &params,
                    groups,
                    topo,
                    AdamWHyper::default(),
                    ranks,
                )
                .unwrap();
                for (_, t) in params.iter_mut() {
                    t.data_mut().fill(f32::NAN);
                }
                engine.materialize_params(&mut params, true);
                for g in engine.groups() {
                    let got = flatten_group(&params, g).unwrap();
                    assert!(
                        got.iter()
                            .enumerate()
                            .all(|(i, v)| *v == bf16_round(value(g.id, i))),
                        "{what}: group {}",
                        g.id
                    );
                }
                assert!(
                    params
                        .iter()
                        .all(|(_, t)| t.data().iter().all(|v| !v.is_nan())),
                    "{what}: a parameter kept its allocation value"
                );
            }
        }
    }

    #[test]
    fn from_rank_states_rejects_states_that_do_not_fit() {
        let cfg = ModelConfig::tiny_test();
        let model = Model::new(cfg.clone(), 5);
        let groups = build_groups(&cfg, GroupLayout::LayerWise);
        let topo = Topology::dp_only(2);
        let good =
            ZeroEngine::with_topology(&model.params, groups.clone(), topo, AdamWHyper::default())
                .ranks;
        let build = |topo, ranks| {
            ZeroEngine::from_rank_states(
                &model.params,
                groups.clone(),
                topo,
                AdamWHyper::default(),
                ranks,
            )
        };
        assert!(build(topo, good.clone()).is_ok());

        let mut long = good.clone();
        long[1].shards[0].exp_avg.push(0.0);
        assert!(matches!(
            build(topo, long).unwrap_err(),
            PlanError::ShortSource {
                group: 0,
                rank: 1,
                ..
            }
        ));

        let mut fewer_groups = good.clone();
        fewer_groups[0].shards.pop();
        assert!(matches!(
            build(topo, fewer_groups).unwrap_err(),
            PlanError::GroupCountMismatch { .. }
        ));

        // Two rank states cannot fill three ranks.
        assert!(matches!(
            build(Topology::dp_only(3), good.clone()).unwrap_err(),
            PlanError::RankCountMismatch { got: 2, expect: 3 }
        ));
        assert!(build(Topology { dp: 0, tp: 1 }, good.clone()).is_err());

        // A parameter set without the tensors the groups name (no lm_head).
        let err = ZeroEngine::from_rank_states(
            &ParamSet::zeros(&ModelConfig::tiny_test_tied()),
            groups.clone(),
            topo,
            AdamWHyper::default(),
            good,
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::NumelMismatch { .. }), "{err}");
    }

    #[test]
    fn resume_mid_run_continues_identically() {
        // Train 4 steps straight vs train 2, snapshot, restore, train 2.
        let cfg = ModelConfig::tiny_test_tied();
        let hyper = AdamWHyper {
            weight_decay: 0.01,
            ..Default::default()
        };
        let groups = build_groups(&cfg, GroupLayout::LayerWise);
        let run = |resume_at: Option<u64>| -> ParamSet {
            let mut m = Model::new(cfg.clone(), 21);
            let mut e = ZeroEngine::new(&m.params, groups.clone(), 2, hyper);
            let mut snapshot: Option<(Vec<RankState>, u64)> = None;
            for s in 0..4u64 {
                if Some(s) == resume_at {
                    // Simulate failure + restore: rebuild engine from the
                    // snapshot taken at this step boundary.
                    let (ranks, count) = snapshot.clone().unwrap();
                    let mut e2 = ZeroEngine::from_rank_states(
                        &m.params,
                        groups.clone(),
                        Topology::dp_only(2),
                        hyper,
                        ranks,
                    )
                    .unwrap();
                    e2.step_count = count;
                    e2.materialize_params(&mut m.params, true);
                    e = e2;
                }
                let batch = toy_batch(&cfg, 200 + s);
                let mut grads = ParamSet::zeros(&cfg);
                m.loss_and_grad(&batch, &mut grads);
                e.step(&mut m.params, &grads, 1e-3, true);
                if s == 1 {
                    snapshot = Some((e.ranks.clone(), e.step_count));
                }
            }
            m.params
        };
        let straight = run(None);
        let resumed = run(Some(2));
        for ((_, a), (_, b)) in straight.iter().zip(resumed.iter()) {
            assert_eq!(a.data(), b.data(), "resume diverged");
        }
    }
}
