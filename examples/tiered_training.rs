//! Tiered checkpointing walkthrough: the run keeps training (saves
//! unblock on the host-memory tier) while a background drainer copies
//! committed checkpoints down to the local fs tier and a simulated
//! object store. Prints the per-stage span report and the per-tier
//! residency/drain breakdown, then asserts the invariants the tier
//! subsystem promises.
//!
//! Run with: `cargo run --release --example tiered_training`

use llmt_ckpt::engine::{LiveState, SaveOptions};
use llmt_ckpt::writer::SaveRequest;
use llmt_ckpt::{CheckpointPaths, RestoreRequest, TrainerState};
use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
use llmt_obs::MetricsRegistry;
use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
use llmt_storage::vfs::{LocalFs, ManualClock};
use llmt_tier::{spawn_drainer, ObjectTierConfig, TierConfig, TierLevel, TierManager};
use llmt_zero::ZeroEngine;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let dir = tempfile::tempdir().expect("tempdir");
    let root = dir.path();
    let cfg = ModelConfig::tiny_test();

    // Memory tier big enough for a couple of checkpoints; object tier on
    // the default S3-class cost model. The manual clock absorbs every
    // modeled charge, so the example runs at disk speed.
    let clock = Arc::new(ManualClock::default());
    let metrics = llmt_obs::MetricsRegistry::new();
    let tier_cfg = TierConfig {
        mem_capacity: Some(64 << 20),
        mem_model: None,
        object: Some(ObjectTierConfig::default()),
        drain_bw: 200e6, // bandwidth-bounded draining (charged to the clock)
        evict_high_water: 0.75,
    };
    let mgr = TierManager::open(root, Arc::new(LocalFs), tier_cfg, clock, metrics.clone())
        .expect("open tier manager");

    // Background drainer: wakes every few milliseconds and moves one
    // checkpoint-tier hop down the hierarchy per pass.
    let drainer = spawn_drainer(mgr.clone(), Duration::from_millis(2));

    // "Training": the live state evolves between checkpoints; each save
    // commits on the memory tier and unblocks immediately while earlier
    // checkpoints drain underneath.
    let mut model = Model::new(cfg.clone(), 42);
    let mut engine = ZeroEngine::new(
        &model.params,
        build_groups(&cfg, GroupLayout::LayerWise),
        2,
        AdamWHyper::default(),
    );
    let mut rng = llmt_tensor::rng::Prng::seed_from_u64(42);
    let units = LayerUnit::all(&cfg);
    for step in [4u64, 8, 12] {
        let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let mut grads = ParamSet::zeros(&cfg);
        model.loss_and_grad(&Batch::new(tokens, 2, 8), &mut grads);
        engine.step(&mut model.params, &grads, 1e-3, true);
        let ts = TrainerState {
            global_step: step,
            ckpt_event: 0,
            lr_schedule: LrSchedule::Constant { lr: 1e-3 },
            last_lr: 1e-3,
            loss_history: vec![(step, 3.0)],
            data_rng: llmt_tensor::rng::Prng::seed_from_u64(step),
            task: "tiered-example".into(),
            model_name: cfg.model_name.clone(),
            micro_batch: 2,
            grad_accum: 1,
            seq_len: 8,
        };
        let placed = mgr
            .save(
                &SaveRequest {
                    dir: &CheckpointPaths::under(root, step).dir,
                    step,
                    source: &LiveState {
                        config: &cfg,
                        params: &model.params,
                        engine: &engine,
                    },
                    trainer_state: &ts,
                    units: &units,
                    metrics: &MetricsRegistry::new(),
                    store: None,
                    bases: None,
                },
                &SaveOptions::default(),
            )
            .expect("tiered save")
            .placed;
        println!(
            "step {step}: committed on tier '{placed}', {} hop(s) pending",
            mgr.pending_drains()
        );
        assert_eq!(placed, TierLevel::Mem, "saves must unblock on memory");
    }

    // Give the background drainer a moment, then finish the queue
    // deterministically and stop the thread.
    std::thread::sleep(Duration::from_millis(20));
    drainer.stop();
    mgr.drain_all().expect("final drain");
    assert_eq!(mgr.pending_drains(), 0, "queue must fully drain");

    // Per-stage span report: the save pipeline's stages plus the tier
    // counters, all from the same metrics registry.
    println!("\nper-stage spans (ns):");
    for stage in ["encode", "place", "commit"] {
        println!(
            "  ckpt.save.{stage:<7} {:>12}",
            metrics.histogram_sum(&format!("ckpt.save.{stage}"))
        );
    }
    println!("tier counters:");
    let snap = metrics.snapshot();
    for (name, value) in &snap.counters {
        if name.starts_with("tier.") {
            println!("  {name:<24} {value}");
        }
    }

    // Residency: every checkpoint on every durable tier, bit-exact.
    let status = mgr.status();
    println!("\nresidency:");
    for row in &status.checkpoints {
        println!(
            "  step {:>3}: {} bytes on {:?}",
            row.step, row.bytes, row.resident
        );
        assert!(row.resident.contains(&"fs".to_string()));
        assert!(row.resident.contains(&"object".to_string()));
    }
    for step in [4u64, 8, 12] {
        for level in [TierLevel::Fs, TierLevel::Object] {
            mgr.restore_from(level, step, &RestoreRequest::default())
                .unwrap_or_else(|e| panic!("verified restore of {step} from {level}: {e}"));
        }
    }
    assert!(metrics.counter_value("tier.place.mem") >= 3);
    assert!(metrics.counter_value("tier.drain.count") >= 6);
    println!("\ntiered training example OK");
}
