//! Checkpoint integrity verification.
//!
//! A merged "Frankenstein" checkpoint is only trustworthy if every copied
//! tensor arrived intact; the manifest's FNV digests (written at save and
//! at merge time) make that checkable. `verify_checkpoint` validates, for
//! any full or partial checkpoint:
//!
//! * config.json parses and is self-consistent;
//! * every manifest-listed unit's weight tensors exist with the shapes the
//!   config dictates, and their digests match the manifest;
//! * `zero_meta.json` agrees with the config (`2L+x` group count, unit
//!   arithmetic) and with itself (shard lengths vs numels and world size);
//! * every present group's shards exist in every rank file with the
//!   advertised length and finite values;
//! * every content-addressed file hashes to the object digest the manifest
//!   recorded for it, and its object is still in the store.
//!
//! The payload checks are the restore engine's own ([`crate::restore`]'s
//! file plan, fetch and per-file check), run to the end instead of to the
//! first problem, so a checkpoint verifies iff it restores.

use crate::error::Result;
use crate::reader::{CheckpointHandle, LoadMode};
use crate::restore::{self, FileKind};
use crate::safetensors;
use llmt_model::naming::unit_param_specs;
use llmt_optim::GroupIndexMap;
use llmt_storage::vfs::{LocalFs, Storage};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

/// One verification finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// What was checked (tensor name, group id, file).
    pub subject: String,
    /// What is wrong with it.
    pub problem: String,
}

/// Result of verifying a checkpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerifyReport {
    /// Tensors whose digests were checked.
    pub weights_checked: usize,
    /// (rank, group) shards checked.
    pub shards_checked: usize,
    /// Bytes streamed and digest-checked by the deep pass (0 in shallow mode).
    #[serde(default)]
    pub bytes_verified: u64,
    /// Manifest SHA-256 digests re-verified byte-for-byte by the deep pass.
    #[serde(default)]
    pub deep_digests_verified: usize,
    /// Problems found (empty = checkpoint verifies).
    pub findings: Vec<Finding>,
}

impl VerifyReport {
    /// True when no problems were found.
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Verify a checkpoint directory on the local filesystem (shallow mode).
///
/// Convenience wrapper over [`verify_checkpoint_on`] with [`LocalFs`] and
/// `deep = false`.
pub fn verify_checkpoint(dir: &Path) -> Result<VerifyReport> {
    verify_checkpoint_on(Arc::new(LocalFs), dir, false)
}

/// Verify a checkpoint directory through an arbitrary [`Storage`] backend.
///
/// Every byte verification touches — metadata, weights, optimizer shards,
/// content-addressed object links — flows through `storage`, so fault
/// injection and I/O metering cover verification the same way they cover
/// saves and restores. I/O errors on metadata abort with `Err`; integrity
/// problems (including unreadable payload files) are collected into the
/// report.
///
/// The payload is checked in one pass over the checkpoint's file plan:
/// each file is fetched once (hashed when the manifest has an object
/// digest for it), decoded, put through the restore engine's per-file
/// check, and dropped. With `deep = true` the optimizer shards are kept
/// and bound into rank states as a restore would — proving the checkpoint
/// is not just internally consistent but loadable — and the report counts
/// the bytes and digests verified. A failed bind is a finding, not an
/// abort.
pub fn verify_checkpoint_on(
    storage: Arc<dyn Storage>,
    dir: &Path,
    deep: bool,
) -> Result<VerifyReport> {
    let h = CheckpointHandle::open_on(storage, dir, LoadMode::EagerFull)?;
    let mut report = VerifyReport::default();
    let mut findings = Vec::new();
    let mut find = |subject: &str, problem: String| {
        findings.push(Finding {
            subject: subject.to_string(),
            problem,
        });
    };

    if let Err(e) = h.config.validate() {
        find("config.json", e.to_string());
        report.findings = findings;
        return Ok(report); // everything else depends on the config
    }

    // Commit marker: a torn/garbage/mismatched marker is an integrity
    // finding, not an abort — the rest of the report says how much of the
    // payload is intact.
    if !h.is_committed() {
        find("COMMIT", h.commit_status().describe());
    }

    // ZeRO metadata consistency.
    let meta = &h.zero_meta;
    let map = GroupIndexMap {
        num_layers: meta.num_layers,
        tied: meta.tied,
    };
    if meta.num_layers != h.config.num_hidden_layers || meta.tied != h.config.tie_word_embeddings {
        find(
            "zero_meta.json",
            format!(
                "layout (L={}, tied={}) disagrees with config (L={}, tied={})",
                meta.num_layers,
                meta.tied,
                h.config.num_hidden_layers,
                h.config.tie_word_embeddings
            ),
        );
    }
    if meta.groups.len() != map.group_count() {
        find(
            "zero_meta.json",
            format!(
                "{} groups recorded, 2L+x says {}",
                meta.groups.len(),
                map.group_count()
            ),
        );
    }
    let topo = meta.topology();
    if topo.world() != meta.world_size {
        find(
            "zero_meta.json",
            format!(
                "topology {topo} covers {} ranks but world_size is {}",
                topo.world(),
                meta.world_size
            ),
        );
    }
    for g in &meta.groups {
        // At tp = 1 the uniform ceil formula applies; at tp > 1 rank 0's
        // length must match the recorded per-tp-slice table.
        match g.expected_shard_len(&topo, 0) {
            Some(want) if g.shard_len != want => find(
                &format!("group {}", g.id),
                format!(
                    "shard_len {} != expected {want} under topology {topo}",
                    g.shard_len
                ),
            ),
            None => find(
                &format!("group {}", g.id),
                format!("no expected shard length under topology {topo} (missing tp_shard_lens?)"),
            ),
            _ => {}
        }
    }

    // Payload: one traversal of the file plan. A file that cannot be
    // fetched or decoded is one finding and the pass moves on.
    let mut shard_map = HashMap::new();
    let store = h.store.as_ref().filter(|s| s.is_present(&*h.storage));
    for plan in &h.plans {
        // The link keeps this checkpoint's bytes alive, but a delta tip
        // and every later dedup hit need the store's own copy.
        if let (Ok(Some((digest, _))), Some(store)) = (&plan.expect, store) {
            if !store.contains(&*h.storage, *digest) {
                find(
                    &plan.subject,
                    format!("referenced object {digest} absent from store"),
                );
            }
        }
        let fetched = restore::fetch_payload(&*h.storage, h.store.as_ref(), plan).and_then(
            |(bytes, digest)| {
                let index = safetensors::parse_image(&plan.path, &bytes)?;
                Ok((bytes, digest, index))
            },
        );
        let (bytes, digest, index) = match fetched {
            Ok(f) => f,
            Err(e) => {
                let problem = match &plan.expect {
                    Ok(Some((digest, _))) if !h.storage.exists(&plan.path) => {
                        format!("object-backed file missing (digest {digest})")
                    }
                    _ => format!("unreadable: {e}"),
                };
                find(&plan.subject, problem);
                continue;
            }
        };
        let len = bytes.len() as u64;
        let tensors: Vec<_> = index.views(&bytes).collect();
        let (verified, problems) = restore::validate_file(
            plan,
            len,
            digest,
            &tensors,
            &h.config,
            h.manifest.as_ref(),
            meta,
        );
        for p in problems {
            find(&plan.subject, p.to_string());
        }
        if deep {
            report.bytes_verified += len;
            report.deep_digests_verified += verified;
        }
        // What only verification looks at: the values themselves, and a
        // manifest that lists a weight without a digest.
        match &plan.kind {
            FileKind::Weights { units } => {
                let present: HashSet<&str> = tensors.iter().map(|(n, _)| *n).collect();
                for spec in units.iter().flat_map(|u| unit_param_specs(&h.config, *u)) {
                    if !present.contains(spec.name.as_str()) {
                        continue;
                    }
                    report.weights_checked += 1;
                    if h.manifest
                        .as_ref()
                        .is_some_and(|m| !m.weight_digests.contains_key(&spec.name))
                    {
                        find(&spec.name, "no digest in manifest".into());
                    }
                }
            }
            FileKind::Shards { rank, gids } => {
                let mut by_name = restore::shard_values(&tensors);
                for gid in gids {
                    // A missing tensor is already one of `problems`.
                    let Ok(shard) = restore::take_shard(&mut by_name, *rank, *gid) else {
                        continue;
                    };
                    report.shards_checked += 1;
                    for (name, buf) in [
                        ("master", &shard.master),
                        ("exp_avg", &shard.exp_avg),
                        ("exp_avg_sq", &shard.exp_avg_sq),
                    ] {
                        if buf.iter().any(|v| !v.is_finite()) {
                            find(
                                &format!("rank {rank} group {gid} {name}"),
                                "contains non-finite values".into(),
                            );
                        }
                    }
                    if shard.exp_avg_sq.iter().any(|v| *v < 0.0) {
                        find(
                            &format!("rank {rank} group {gid} exp_avg_sq"),
                            "second moment is negative".into(),
                        );
                    }
                    if deep {
                        shard_map.insert((*rank, *gid), shard);
                    }
                }
            }
        }
    }

    // Deep: bind what was read into rank states at the saved topology,
    // the last stage of a restore.
    if deep && meta.is_full() {
        if let Err(e) = restore::bind_ranks(meta, &h.config, shard_map, topo) {
            find("bind", e.to_string());
        }
    }
    report.findings = findings;
    Ok(report)
}

#[cfg(test)]
#[path = "../../storage/tests/support/recording_fs.rs"]
pub(crate) mod recording_fs;

#[cfg(test)]
pub(crate) mod tests {
    use super::recording_fs::RecordingFs;
    use super::*;
    use crate::engine::{self, LiveState, SaveOptions};
    use crate::writer::SaveRequest;
    use crate::{CheckpointPaths, CkptError, TrainerState};
    use llmt_cas::codec::OBJECT_MAGIC;
    use llmt_cas::{ObjectKind, ObjectStore};
    use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
    use llmt_obs::MetricsRegistry;
    use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
    use llmt_tensor::rng::Prng;
    use llmt_zero::ZeroEngine;
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    fn make_ckpt(root: &Path, units: Option<Vec<LayerUnit>>) -> (PathBuf, ModelConfig) {
        make_ckpts(root, units, &SaveOptions::default(), 1)
    }

    /// Save steps `1..=steps` of one evolving state under `opts`; returns
    /// the last checkpoint's directory.
    pub(crate) fn make_ckpts(
        root: &Path,
        units: Option<Vec<LayerUnit>>,
        opts: &SaveOptions,
        steps: u64,
    ) -> (PathBuf, ModelConfig) {
        let cfg = ModelConfig::tiny_test();
        let mut model = Model::new(cfg.clone(), 3);
        let mut engine = ZeroEngine::new(
            &model.params,
            build_groups(&cfg, GroupLayout::LayerWise),
            2,
            AdamWHyper::default(),
        );
        let mut rng = Prng::seed_from_u64(7);
        let units = units.unwrap_or_else(|| LayerUnit::all(&cfg));
        let mut dir = PathBuf::new();
        for step in 1..=steps {
            let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
            let mut grads = ParamSet::zeros(&cfg);
            model.loss_and_grad(&Batch::new(tokens, 2, 8), &mut grads);
            engine.step(&mut model.params, &grads, 1e-3, true);
            let ts = TrainerState {
                global_step: step,
                ckpt_event: 0,
                lr_schedule: LrSchedule::Constant { lr: 1e-3 },
                last_lr: 1e-3,
                loss_history: vec![],
                data_rng: rng.clone(),
                task: "verify-test".into(),
                model_name: cfg.model_name.clone(),
                micro_batch: 2,
                grad_accum: 1,
                seq_len: 8,
            };
            let req = SaveRequest {
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
            };
            dir = engine::save(&[&LocalFs], &req, opts)
                .unwrap()
                .report
                .paths
                .dir;
        }
        (dir, cfg)
    }

    #[test]
    fn pristine_checkpoints_verify_clean() {
        let root = tempfile::tempdir().unwrap();
        let (dir, cfg) = make_ckpt(root.path(), None);
        let report = verify_checkpoint(&dir).unwrap();
        assert!(report.ok(), "{:?}", report.findings);
        assert_eq!(
            report.weights_checked,
            llmt_model::naming::all_param_specs(&cfg).len()
        );
        assert!(report.shards_checked > 0);
    }

    #[test]
    fn partial_checkpoints_verify_clean_too() {
        let root = tempfile::tempdir().unwrap();
        let (dir, _) = make_ckpt(
            root.path(),
            Some(vec![LayerUnit::Transformer(0), LayerUnit::FinalNorm]),
        );
        let report = verify_checkpoint(&dir).unwrap();
        assert!(report.ok(), "{:?}", report.findings);
    }

    #[test]
    fn inconsistent_config_is_a_finding_never_a_panic() {
        let root = tempfile::tempdir().unwrap();
        let (dir, mut cfg) = make_ckpt(root.path(), None);
        // Valid JSON, impossible model: heads don't divide hidden_size.
        cfg.num_attention_heads = 3;
        std::fs::write(
            dir.join("config.json"),
            serde_json::to_string_pretty(&cfg).unwrap(),
        )
        .unwrap();
        let report = verify_checkpoint(&dir).unwrap();
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.subject == "config.json" && f.problem.contains("invalid model config")),
            "{:?}",
            report.findings
        );
        // The full load paths surface typed errors instead of panicking.
        let err = crate::restore::restore_checkpoint(&dir, &Default::default()).unwrap_err();
        assert!(matches!(err, CkptError::Format(_)), "{err}");
        let mut h = CheckpointHandle::open(&dir, LoadMode::EagerFull).unwrap();
        assert!(matches!(h.load_model().unwrap_err(), CkptError::Format(_)));
    }

    #[test]
    fn corrupted_weight_bytes_are_detected() {
        let root = tempfile::tempdir().unwrap();
        let (dir, _) = make_ckpt(root.path(), None);
        let model_file = dir.join("model.safetensors");
        let mut bytes = std::fs::read(&model_file).unwrap();
        // Flip bits near the end of the data section (inside some tensor).
        let n = bytes.len();
        bytes[n - 20] ^= 0xFF;
        std::fs::write(&model_file, bytes).unwrap();
        let report = verify_checkpoint(&dir).unwrap();
        assert!(!report.ok());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.problem.contains("digest mismatch")),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn truncated_shard_file_is_detected_or_errors() {
        let root = tempfile::tempdir().unwrap();
        let (dir, _) = make_ckpt(root.path(), None);
        let paths = CheckpointPaths::open_on(&LocalFs, &dir).unwrap();
        let shard = paths.optim_shard(1);
        let bytes = std::fs::read(&shard).unwrap();
        std::fs::write(&shard, &bytes[..bytes.len() - 8]).unwrap();
        // Either a clean failure or findings — never a silent pass.
        match verify_checkpoint(&dir) {
            Ok(report) => assert!(!report.ok()),
            Err(_) => {}
        }
    }

    #[test]
    fn nan_in_optimizer_state_is_detected() {
        let root = tempfile::tempdir().unwrap();
        let (dir, _) = make_ckpt(root.path(), None);
        let paths = CheckpointPaths::open_on(&LocalFs, &dir).unwrap();
        let shard = paths.optim_shard(0);
        // Overwrite four bytes inside the data section with a NaN pattern.
        let mut bytes = std::fs::read(&shard).unwrap();
        let n = bytes.len();
        bytes[n - 8..n - 4].copy_from_slice(&f32::NAN.to_le_bytes());
        std::fs::write(&shard, bytes).unwrap();
        let report = verify_checkpoint(&dir).unwrap();
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.problem.contains("non-finite")),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn tampered_zero_meta_is_detected() {
        let root = tempfile::tempdir().unwrap();
        let (dir, _) = make_ckpt(root.path(), None);
        let paths = CheckpointPaths::open_on(&LocalFs, &dir).unwrap();
        let mut meta = crate::ZeroMeta::load(&paths.zero_meta()).unwrap();
        meta.groups[0].shard_len += 1;
        std::fs::write(
            paths.zero_meta(),
            serde_json::to_string_pretty(&meta).unwrap(),
        )
        .unwrap();
        let report = verify_checkpoint(&dir).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| f.problem.contains("shard_len")));
    }

    #[test]
    fn deep_verify_streams_payload_and_stays_clean() {
        let root = tempfile::tempdir().unwrap();
        let (dir, _) = make_ckpt(root.path(), None);
        let report = verify_checkpoint_on(Arc::new(LocalFs), &dir, true).unwrap();
        assert!(report.ok(), "{:?}", report.findings);
        assert!(report.bytes_verified > 0);
        assert!(report.deep_digests_verified > 0);
        // Shallow mode performs no deep streaming.
        let shallow = verify_checkpoint(&dir).unwrap();
        assert_eq!(shallow.bytes_verified, 0);
        assert_eq!(shallow.deep_digests_verified, 0);
    }

    #[test]
    fn deep_verify_reports_unloadable_checkpoints() {
        let root = tempfile::tempdir().unwrap();
        let (dir, _) = make_ckpt(root.path(), None);
        let model_file = dir.join("model.safetensors");
        let bytes = std::fs::read(&model_file).unwrap();
        // Truncate into the data section: the file no longer decodes.
        std::fs::write(&model_file, &bytes[..bytes.len() - 8]).unwrap();
        let report = verify_checkpoint_on(Arc::new(LocalFs), &dir, true).unwrap();
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.subject == "model weights" && f.problem.contains("unreadable")),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn verification_reads_flow_through_storage() {
        // Deduplicated checkpoints are the regression case: object-link
        // bytes used to be read with raw `std::fs`, invisible to fault
        // injection. Every payload file must now show up in the storage's
        // read log.
        let root = tempfile::tempdir().unwrap();
        let (dir, cfg) = make_ckpts(root.path(), None, &SaveOptions::dedup(true), 1);
        let units = LayerUnit::all(&cfg);

        let fs = Arc::new(RecordingFs::new(LocalFs));
        let report = verify_checkpoint_on(fs.clone(), &dir, false).unwrap();
        assert!(report.ok(), "{:?}", report.findings);
        let reads = fs.seen();
        for unit in &units {
            let link = dir.join(format!("units/{}.safetensors", unit.as_string()));
            assert!(
                reads.contains_key(&link),
                "object link {} never read through the storage",
                link.display()
            );
        }
        assert!(
            reads.keys().any(|p| {
                p.to_string_lossy().contains("group") && p.to_string_lossy().contains("rank")
            }),
            "optimizer object links never read through the storage"
        );
    }

    /// The most bytes one pass over `dir` may read from each path that is
    /// not simply "the file, once": an encoded link is only peeked at,
    /// and a store object is read once per chain that visits it.
    fn read_budget(root: &Path, dir: &Path) -> BTreeMap<PathBuf, u64> {
        let h = CheckpointHandle::open(dir, LoadMode::EagerFull).unwrap();
        let store = ObjectStore::for_run_root(root);
        let info = |d| store.object_info(&LocalFs, d).unwrap();
        let mut budget = BTreeMap::new();
        for plan in &h.plans {
            let Ok(Some((digest, _))) = plan.expect else {
                continue;
            };
            if info(digest).kind == ObjectKind::LegacyRaw {
                continue;
            }
            budget.insert(plan.path.clone(), OBJECT_MAGIC.len() as u64);
            let mut hop = Some(digest);
            while let Some(d) = hop {
                *budget.entry(store.object_path(d)).or_default() += info(d).stored_len;
                hop = match info(d).kind {
                    ObjectKind::Delta { base, .. } => Some(base),
                    _ => None,
                };
            }
        }
        budget
    }

    fn assert_every_byte_read_once(fs: &RecordingFs<LocalFs>, root: &Path, dir: &Path, who: &str) {
        let budget = read_budget(root, dir);
        let reads = fs.seen();
        assert!(reads
            .keys()
            .any(|p| p.extension().is_some_and(|e| e == "safetensors")));
        for (path, seen) in reads.iter().filter(|(_, seen)| seen.reads > 0) {
            let bytes = &seen.bytes;
            let len = std::fs::metadata(path).unwrap().len();
            let allowed = budget
                .get(path)
                .copied()
                .unwrap_or(len + OBJECT_MAGIC.len() as u64);
            assert!(
                *bytes <= allowed,
                "{who} read {bytes} bytes of {} ({len} long, {allowed} allowed)",
                path.display()
            );
        }
    }

    #[test]
    fn every_payload_byte_is_read_once() {
        let delta = SaveOptions {
            dedup: true,
            compress: true,
            delta_chain: 4,
            ..SaveOptions::default()
        };
        for (opts, steps) in [
            (SaveOptions::default(), 1),
            (SaveOptions::dedup(true), 1),
            (delta, 2),
        ] {
            let root = tempfile::tempdir().unwrap();
            let (dir, _) = make_ckpts(root.path(), None, &opts, steps);
            let fs = Arc::new(RecordingFs::new(LocalFs));
            let report = verify_checkpoint_on(fs.clone(), &dir, true).unwrap();
            assert!(report.ok(), "{:?}", report.findings);
            assert!(report.bytes_verified > 0);
            assert_every_byte_read_once(&fs, root.path(), &dir, "deep verify");
            if opts.delta_chain > 0 {
                assert!(
                    read_budget(root.path(), &dir).len() > 2,
                    "fixture has no delta chains"
                );
                let fs = Arc::new(RecordingFs::new(LocalFs));
                restore::restore_checkpoint_on(fs.clone(), &dir, &Default::default()).unwrap();
                assert_every_byte_read_once(&fs, root.path(), &dir, "restore");
            }
        }
    }
}
