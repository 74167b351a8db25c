//! Physical-vs-logical footprint of *every-step* checkpointing through
//! the delta-chained compressed CAS, plus restore wall-time as a
//! function of delta chain length. Emits `BENCH_delta_ratio.json`
//! (override with `--out`).
//!
//! Run: `cargo run --release -p llmt-bench --bin delta_ratio [-- --smoke]`
//!
//! The measured run freezes the backbone — a linear-probe fine-tune, so
//! frozen units dedup-hit to zero physical bytes after the first save —
//! and checkpoints every step with compression and delta encoding on,
//! so each trained unit (and its optimizer state) stores a shuffled,
//! LZ-packed XOR diff against the previous step. The gate: 20
//! every-step checkpoints must occupy at most 40% of what full saves
//! would have written, the deepest-chain checkpoint must restore
//! bit-exact — including through a fault-injecting VFS behind a retry
//! wrapper — and chain compaction must preserve every checkpoint's
//! bytes and deep-verification verdict.

use llmt_cas::ObjectStore;
use llmt_ckpt::{restore_checkpoint, RestoreRequest};
use llmt_model::{LayerUnit, ModelConfig};
use llmt_storage::vfs::{
    FaultKind, FaultSpec, FaultyFs, LocalFs, ManualClock, RetryPolicy, RetryingStorage,
};
use llmt_train::{resume_trainer, resume_trainer_on, Trainer, TrainerConfig};
use serde_json::json;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const STEPS: u64 = 20;
const CHAIN_CAP: usize = 8;
const RATIO_GATE: f64 = 0.40;

/// The whole backbone frozen — embeddings and every transformer layer —
/// leaving the head and final norm trained: the linear-probe fine-tune
/// the paper's selective checkpointing targets. Frozen units dedup-hit
/// to zero bytes after the first save; the trained units (and their
/// optimizer state, 2x their weight bytes) delta-compress against the
/// previous step.
fn frozen_backbone(cfg: &ModelConfig) -> Vec<LayerUnit> {
    let mut units = vec![LayerUnit::EmbedTokens];
    units.extend((0..cfg.num_hidden_layers).map(LayerUnit::Transformer));
    units
}

fn check(ok: bool, what: &str) {
    if !ok {
        eprintln!("delta_ratio smoke FAILED: {what}");
        std::process::exit(1);
    }
}

/// Longest delta chain under any object the checkpoint references.
fn max_chain_of(root: &Path, step: u64) -> usize {
    let store = ObjectStore::resolve(&LocalFs, root);
    let paths = llmt_ckpt::CheckpointPaths::under(root, step);
    let Ok(manifest) = llmt_ckpt::read_seal(&LocalFs, &paths).manifest else {
        return 0;
    };
    let Some(refs) = manifest.objects else {
        return 0;
    };
    let mut deepest = 0;
    for (_, object) in refs.iter_all() {
        if let Ok(d) = llmt_cas::Digest::parse_hex(&object.digest) {
            if let Ok(hops) = store.chain_len(&LocalFs, d) {
                deepest = deepest.max(hops);
            }
        }
    }
    deepest
}

fn assert_bit_exact(a: &Trainer, b: &Trainer, ctx: &str) {
    check(a.step == b.step, &format!("{ctx}: step mismatch"));
    for ((spec, x), (_, y)) in a.model.params.iter().zip(b.model.params.iter()) {
        check(
            x.data() == y.data(),
            &format!("{ctx}: tensor {} diverged", spec.name),
        );
    }
    check(
        a.engine.ranks == b.engine.ranks,
        &format!("{ctx}: optimizer state diverged"),
    );
}

fn deep_verify_all(root: &Path) {
    for cp in llmt_ckpt::scan_run_root(root).committed {
        let v = llmt_ckpt::verify_checkpoint_on(Arc::new(LocalFs), &cp.dir, true).unwrap();
        check(
            v.ok(),
            &format!("{} failed deep verify: {:?}", cp.dir.display(), v.findings),
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_delta_ratio.json"));

    eprintln!("training {STEPS} steps, checkpointing every step (delta chain cap {CHAIN_CAP})...");
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = TrainerConfig::test_default(dir.path().to_path_buf());
    cfg.ckpt_interval = 1;
    cfg.dedup_checkpoints = true;
    cfg.ckpt_compress = true;
    cfg.ckpt_delta_chain = CHAIN_CAP;
    cfg.frozen_units = frozen_backbone(&cfg.model_config);
    let mut live = Trainer::new(cfg.clone());
    live.train_until(STEPS, None).unwrap();

    // --- footprint gate -----------------------------------------------
    let du = llmtailor::du_run(dir.path()).unwrap();
    check(
        du.checkpoints == STEPS as usize,
        &format!(
            "expected {STEPS} committed checkpoints, found {}",
            du.checkpoints
        ),
    );
    check(du.delta_objects > 0, "no delta objects were written");
    let ratio = du.physical_bytes as f64 / du.logical_bytes as f64;
    check(
        ratio <= RATIO_GATE,
        &format!(
            "every-step run stores {:.1}% of full-save bytes (gate {:.0}%): \
             physical {} vs logical {}",
            ratio * 100.0,
            RATIO_GATE * 100.0,
            du.physical_bytes,
            du.logical_bytes
        ),
    );

    // --- restore wall-time per chain length ---------------------------
    let probe_steps: Vec<u64> = if smoke {
        vec![1, STEPS / 2, STEPS]
    } else {
        (1..=STEPS).collect()
    };
    let mut per_chain = Vec::new();
    for step in &probe_steps {
        let ckpt = dir.path().join(format!("checkpoint-{step}"));
        let chain = max_chain_of(dir.path(), *step);
        let t0 = Instant::now();
        let restored = restore_checkpoint(&ckpt, &RestoreRequest::default()).unwrap();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        check(
            restored.trainer_state.global_step == *step,
            &format!("checkpoint-{step} restored wrong step"),
        );
        per_chain.push(json!({
            "step": step,
            "chain_len": chain,
            "restore_ms": ms,
        }));
    }
    let deepest = max_chain_of(dir.path(), STEPS);
    check(
        deepest > 0,
        "tip checkpoint has no delta chain to restore through",
    );
    check(
        deepest <= CHAIN_CAP,
        &format!("chain {deepest} exceeds the configured cap {CHAIN_CAP}"),
    );

    // --- bit-exact resume from the deepest chain -----------------------
    let tip = dir.path().join(format!("checkpoint-{STEPS}"));
    let baseline = resume_trainer(&tip, cfg.clone()).unwrap();
    assert_bit_exact(&baseline, &live, "clean resume from deepest chain");
    drop(live);

    // ...including through a fault VFS: transient read failures behind a
    // retry wrapper must still decode the whole chain bit-exactly.
    let census = Arc::new(FaultyFs::new(LocalFs, FaultSpec::never()));
    resume_trainer_on(census.clone(), &tip, cfg.clone()).unwrap();
    let total_ops = census.ops_attempted();
    let stride = if smoke { (total_ops / 16).max(1) } else { 1 };
    let mut faulted = 0u64;
    let mut k = 0;
    while k < total_ops {
        let clock = Arc::new(ManualClock::default());
        let faulty = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: k,
                kind: FaultKind::Transient { failures: 2 },
            },
        );
        let storage = Arc::new(RetryingStorage::new(
            faulty,
            RetryPolicy::default(),
            clock.clone(),
        ));
        let resumed = resume_trainer_on(storage, &tip, cfg.clone())
            .unwrap_or_else(|e| panic!("transient fault at op {k} was not absorbed: {e}"));
        assert_bit_exact(&resumed, &baseline, &format!("faulted resume at op {k}"));
        faulted += 1;
        k += stride;
    }
    eprintln!("absorbed transient faults at {faulted} op offsets over {total_ops} restore ops");

    // --- compaction preserves every checkpoint --------------------------
    let compacted = llmtailor::compact_run(dir.path(), 1).unwrap();
    check(
        compacted.compacted > 0,
        "compaction found nothing to flatten",
    );
    check(
        max_chain_of(dir.path(), STEPS) <= 1,
        "compaction left a deep chain behind",
    );
    deep_verify_all(dir.path());
    let recompacted = resume_trainer(&tip, cfg.clone()).unwrap();
    assert_bit_exact(&recompacted, &baseline, "resume after compaction");

    let report = llmtailor::summarize_run(dir.path()).unwrap();
    let out = json!({
        "steps": STEPS,
        "chain_cap": CHAIN_CAP,
        "frozen_units": frozen_backbone(&cfg.model_config).len(),
        "logical_bytes": du.logical_bytes,
        "physical_bytes": du.physical_bytes,
        "physical_over_logical": ratio,
        "gate": RATIO_GATE,
        "delta_objects": du.delta_objects,
        "encoded_full_objects": du.encoded_full_objects,
        "delta_max_chain": du.delta_max_chain,
        "delta_saved_bytes": report.delta_saved_bytes,
        "compactions": report.compactions,
        "restore_per_chain": per_chain,
        "fault_offsets_absorbed": faulted,
    });
    let text = serde_json::to_string_pretty(&out).unwrap();
    std::fs::write(&out_path, &text).unwrap();
    println!("{text}");
    eprintln!(
        "delta_ratio OK: {:.1}% of full-save bytes over {STEPS} every-step checkpoints \
         (wrote {})",
        ratio * 100.0,
        out_path.display()
    );
}
