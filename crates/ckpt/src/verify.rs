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
//!   advertised length and finite values.

use crate::error::{CkptError, Result};
use crate::reader::{CheckpointHandle, LoadMode};
use crate::restore::{self, RestoreRequest};
use llmt_model::naming::unit_param_specs;
use llmt_optim::GroupIndexMap;
use llmt_storage::vfs::{LocalFs, Storage};
use serde::{Deserialize, Serialize};
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
/// Every byte verification touches — metadata, manifest-listed weights,
/// optimizer shards, and content-addressed object links — flows through
/// `storage`, so fault injection and I/O metering cover verification the
/// same way they cover saves and restores. I/O errors on metadata abort
/// with `Err`; integrity problems (including unreadable payload files) are
/// collected into the report.
///
/// With `deep = true` the restore engine additionally streams every payload
/// file back through [`restore::restore_checkpoint_on`] with verify-on-read
/// enabled, recomputing each manifest SHA-256 digest incrementally and
/// binding the result — proving the checkpoint is not just internally
/// consistent but actually loadable. A failed deep pass becomes a finding,
/// not an abort.
pub fn verify_checkpoint_on(
    storage: Arc<dyn Storage>,
    dir: &Path,
    deep: bool,
) -> Result<VerifyReport> {
    let mut h = CheckpointHandle::open_on(storage.clone(), dir, LoadMode::LazyRange)?;
    let mut report = VerifyReport::default();
    let find = |subject: &str, problem: String, report: &mut VerifyReport| {
        report.findings.push(Finding {
            subject: subject.to_string(),
            problem,
        });
    };

    if let Err(e) = h.config.validate() {
        find("config.json", e.to_string(), &mut report);
        return Ok(report); // everything else depends on the config
    }

    // Commit marker: a torn/garbage/mismatched marker is an integrity
    // finding, not an abort — the rest of the report says how much of the
    // payload is intact.
    if !h.is_committed() {
        find("COMMIT", h.commit_status().describe(), &mut report);
    }

    // Content-addressed references (deduplicated checkpoints): every
    // referenced object must back an existing link whose bytes hash to the
    // recorded digest, and — when the run root still has an object store —
    // must be present in it. A bit flip in a shared object corrupts every
    // checkpoint referencing it, so this is checked byte-for-byte.
    let manifest = h.manifest.clone();
    if let Some(refs) = manifest.as_ref().and_then(|m| m.objects.as_ref()) {
        let store = h
            .paths
            .dir
            .parent()
            .map(|root| llmt_cas::ObjectStore::resolve(&*storage, root));
        for (key, object) in refs.iter_all() {
            let link = match key.strip_prefix("rank") {
                // "rank<r>/group<g>" -> per-(rank, group) optimizer file.
                Some(rest) => match rest.split_once("/group") {
                    Some((r, g)) => match (r.parse::<usize>(), g.parse::<usize>()) {
                        (Ok(rank), Ok(gid)) => h.paths.optim_group(rank, gid),
                        _ => {
                            find(key, "unparseable object reference key".into(), &mut report);
                            continue;
                        }
                    },
                    None => {
                        find(key, "unparseable object reference key".into(), &mut report);
                        continue;
                    }
                },
                None => h.paths.unit_weights(key),
            };
            let digest = match llmt_cas::Digest::parse_hex(&object.digest) {
                Ok(d) => d,
                Err(e) => {
                    find(
                        key,
                        format!("malformed object digest '{}': {e}", object.digest),
                        &mut report,
                    );
                    continue;
                }
            };
            match restore::fetch_file_on(&*storage, &link, crate::DEFAULT_CHUNK_BYTES) {
                Err(_) => find(
                    key,
                    format!("object-backed file missing (digest {digest})"),
                    &mut report,
                ),
                Ok((bytes, actual)) => {
                    // Encoded objects (compressed fulls, delta chains)
                    // are compared against their *decoded* image: the
                    // store's chain walk re-derives it, verifying every
                    // hop's digest along the way. Raw objects compare
                    // the streamed bytes directly.
                    let decoded = if llmt_cas::codec::is_encoded(&bytes) {
                        match store
                            .as_ref()
                            .ok_or_else(|| {
                                std::io::Error::other("encoded object outside a run root")
                            })
                            .and_then(|s| s.materialize(&*storage, digest))
                        {
                            Ok(image) => Some((image.len() as u64, digest)),
                            Err(e) => {
                                find(
                                    key,
                                    format!("encoded object failed to materialize: {e}"),
                                    &mut report,
                                );
                                None
                            }
                        }
                    } else {
                        Some((bytes.len() as u64, actual))
                    };
                    if let Some((len, actual)) = decoded {
                        if len != object.bytes {
                            find(
                                key,
                                format!("object length {len} != manifest {}", object.bytes),
                                &mut report,
                            );
                        }
                        if actual != digest {
                            find(
                                key,
                                format!("object digest mismatch: manifest {digest}, file {actual}"),
                                &mut report,
                            );
                        }
                    }
                }
            }
            if let Some(store) = &store {
                if store.is_present(&*storage) && !store.contains(&*storage, digest) {
                    find(
                        key,
                        format!("referenced object {digest} absent from store"),
                        &mut report,
                    );
                }
            }
        }
    }

    // Weights: shape + digest per manifest-listed unit.
    for unit in h.units_present() {
        for spec in unit_param_specs(&h.config, unit) {
            match h.weight(&spec.name) {
                Err(CkptError::Missing(_)) => find(
                    &spec.name,
                    "listed in manifest but absent".into(),
                    &mut report,
                ),
                // A torn payload (truncated data section, unreadable file)
                // is itself an integrity finding; keep checking the rest.
                Err(e) => find(&spec.name, format!("unreadable: {e}"), &mut report),
                Ok(t) => {
                    report.weights_checked += 1;
                    if t.shape().dims() != spec.shape.as_slice() {
                        find(
                            &spec.name,
                            format!("shape {} != expected {:?}", t.shape(), spec.shape),
                            &mut report,
                        );
                    }
                    if let Some(m) = &manifest {
                        match m.weight_digests.get(&spec.name) {
                            None => find(&spec.name, "no digest in manifest".into(), &mut report),
                            Some(d) if *d != t.digest() => find(
                                &spec.name,
                                format!("digest mismatch: manifest {d:#x}, file {:#x}", t.digest()),
                                &mut report,
                            ),
                            _ => {}
                        }
                    }
                }
            }
        }
    }

    // ZeRO metadata consistency.
    let meta = h.zero_meta.clone();
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
            &mut report,
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
            &mut report,
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
            &mut report,
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
                &mut report,
            ),
            None => find(
                &format!("group {}", g.id),
                format!("no expected shard length under topology {topo} (missing tp_shard_lens?)"),
                &mut report,
            ),
            _ => {}
        }
    }

    // Shards: presence, length, finiteness.
    for rank in 0..meta.world_size {
        for gid in &meta.groups_present {
            match h.group_shard(rank, *gid) {
                Err(CkptError::Missing(_)) => find(
                    &format!("rank {rank} group {gid}"),
                    "advertised but absent from shard file".into(),
                    &mut report,
                ),
                Err(e) => find(
                    &format!("rank {rank} group {gid}"),
                    format!("unreadable: {e}"),
                    &mut report,
                ),
                Ok(shard) => {
                    report.shards_checked += 1;
                    let want = meta.groups[*gid]
                        .expected_shard_len(&topo, rank)
                        .unwrap_or(meta.groups[*gid].shard_len);
                    for (name, buf) in [
                        ("master", &shard.master),
                        ("exp_avg", &shard.exp_avg),
                        ("exp_avg_sq", &shard.exp_avg_sq),
                    ] {
                        if buf.len() != want {
                            find(
                                &format!("rank {rank} group {gid} {name}"),
                                format!("length {} != shard_len {want}", buf.len()),
                                &mut report,
                            );
                        }
                        if buf.iter().any(|v| !v.is_finite()) {
                            find(
                                &format!("rank {rank} group {gid} {name}"),
                                "contains non-finite values".into(),
                                &mut report,
                            );
                        }
                    }
                    if shard.exp_avg_sq.iter().any(|v| *v < 0.0) {
                        find(
                            &format!("rank {rank} group {gid} exp_avg_sq"),
                            "second moment is negative".into(),
                            &mut report,
                        );
                    }
                }
            }
        }
    }

    // Deep pass: stream every payload file back through the restore engine
    // with verify-on-read, so each manifest SHA-256 digest is recomputed
    // incrementally over the actual bytes and the checkpoint is proven
    // loadable end to end (decode + shape validation + bind included).
    if deep {
        let req = RestoreRequest {
            require_committed: false,
            ..RestoreRequest::default()
        };
        match restore::restore_checkpoint_on(storage, dir, &req) {
            Ok(state) => {
                report.bytes_verified = state.report.bytes_fetched;
                report.deep_digests_verified = state.report.digests_verified;
            }
            Err(e) => find("restore", format!("deep restore failed: {e}"), &mut report),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, LiveState, SaveOptions};
    use crate::writer::SaveRequest;
    use crate::{CheckpointPaths, TrainerState};
    use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
    use llmt_obs::MetricsRegistry;
    use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
    use llmt_tensor::rng::Prng;
    use llmt_zero::ZeroEngine;
    use std::path::PathBuf;

    fn make_ckpt(root: &Path, units: Option<Vec<LayerUnit>>) -> (PathBuf, ModelConfig) {
        let cfg = ModelConfig::tiny_test();
        let mut model = Model::new(cfg.clone(), 3);
        let mut engine = ZeroEngine::new(
            &model.params,
            build_groups(&cfg, GroupLayout::LayerWise),
            2,
            AdamWHyper::default(),
        );
        let mut rng = Prng::seed_from_u64(7);
        let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let mut grads = ParamSet::zeros(&cfg);
        model.loss_and_grad(&Batch::new(tokens, 2, 8), &mut grads);
        engine.step(&mut model.params, &grads, 1e-3, true);
        let ts = TrainerState {
            global_step: 1,
            ckpt_event: 0,
            lr_schedule: LrSchedule::Constant { lr: 1e-3 },
            last_lr: 1e-3,
            loss_history: vec![],
            data_rng: rng,
            task: "verify-test".into(),
            model_name: cfg.model_name.clone(),
            micro_batch: 2,
            grad_accum: 1,
            seq_len: 8,
        };
        let units = units.unwrap_or_else(|| LayerUnit::all(&cfg));
        let dir = engine::save(
            &[&LocalFs],
            &SaveRequest {
                root,
                step: 1,
                source: &LiveState {
                    config: &cfg,
                    params: &model.params,
                    engine: &engine,
                },
                trainer_state: &ts,
                units: &units,
                metrics: &MetricsRegistry::new(),
                store: None,
            },
            &SaveOptions::default(),
        )
        .unwrap()
        .report
        .paths
        .dir;
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
        let err = crate::restore::restore_checkpoint(
            &dir,
            &crate::restore::RestoreRequest {
                require_committed: false,
                ..Default::default()
            },
        )
        .unwrap_err();
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
        let paths = CheckpointPaths::open(&dir).unwrap();
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
        let paths = CheckpointPaths::open(&dir).unwrap();
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
        let paths = CheckpointPaths::open(&dir).unwrap();
        let mut meta = crate::ZeroMeta::load(&paths.zero_meta()).unwrap();
        meta.groups[0].shard_len += 1;
        meta.save(&paths.zero_meta()).unwrap();
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
        // Truncate into the data section: lazy per-tensor reads may still
        // see some tensors, but a full streamed restore cannot.
        std::fs::write(&model_file, &bytes[..bytes.len() - 8]).unwrap();
        let report = verify_checkpoint_on(Arc::new(LocalFs), &dir, true).unwrap();
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.subject == "restore" && f.problem.contains("deep restore failed")),
            "{:?}",
            report.findings
        );
    }

    /// A [`Storage`] decorator that records every path read through it, so
    /// the tests can prove no verification byte sneaks around the vfs.
    #[derive(Debug, Default)]
    struct RecordingFs {
        inner: LocalFs,
        reads: std::sync::Mutex<Vec<PathBuf>>,
    }

    impl llmt_storage::vfs::Storage for RecordingFs {
        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            self.inner.create_dir_all(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            self.inner.write(path, bytes)
        }
        fn sync(&self, path: &Path) -> std::io::Result<()> {
            self.inner.sync(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.inner.rename(from, to)
        }
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            self.reads.lock().unwrap().push(path.to_path_buf());
            self.inner.read(path)
        }
        fn read_range(&self, path: &Path, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
            self.reads.lock().unwrap().push(path.to_path_buf());
            self.inner.read_range(path, offset, len)
        }
        fn list_dir(&self, path: &Path) -> std::io::Result<Vec<PathBuf>> {
            self.inner.list_dir(path)
        }
        fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
            self.inner.remove_dir_all(path)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
        fn file_len(&self, path: &Path) -> std::io::Result<u64> {
            self.inner.file_len(path)
        }
        fn hard_link(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.inner.hard_link(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            self.inner.remove_file(path)
        }
        fn create_stream<'a>(
            &'a self,
            path: &Path,
        ) -> std::io::Result<Box<dyn llmt_storage::vfs::WriteStream + 'a>> {
            self.inner.create_stream(path)
        }
    }

    #[test]
    fn verification_reads_flow_through_storage() {
        // Deduplicated checkpoints are the regression case: object-link
        // bytes used to be read with raw `std::fs`, invisible to fault
        // injection. Every payload file must now show up in the storage's
        // read log.
        let root = tempfile::tempdir().unwrap();
        let cfg = ModelConfig::tiny_test();
        let mut model = Model::new(cfg.clone(), 3);
        let mut engine = ZeroEngine::new(
            &model.params,
            build_groups(&cfg, GroupLayout::LayerWise),
            2,
            AdamWHyper::default(),
        );
        let mut rng = Prng::seed_from_u64(7);
        let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let mut grads = ParamSet::zeros(&cfg);
        model.loss_and_grad(&Batch::new(tokens, 2, 8), &mut grads);
        engine.step(&mut model.params, &grads, 1e-3, true);
        let ts = TrainerState {
            global_step: 1,
            ckpt_event: 0,
            lr_schedule: LrSchedule::Constant { lr: 1e-3 },
            last_lr: 1e-3,
            loss_history: vec![],
            data_rng: rng,
            task: "verify-test".into(),
            model_name: cfg.model_name.clone(),
            micro_batch: 2,
            grad_accum: 1,
            seq_len: 8,
        };
        let units = LayerUnit::all(&cfg);
        let dir = engine::save(
            &[&LocalFs],
            &SaveRequest {
                root: root.path(),
                step: 1,
                source: &LiveState {
                    config: &cfg,
                    params: &model.params,
                    engine: &engine,
                },
                trainer_state: &ts,
                units: &units,
                metrics: &MetricsRegistry::new(),
                store: None,
            },
            &SaveOptions::dedup(true),
        )
        .unwrap()
        .report
        .paths
        .dir;

        let fs = Arc::new(RecordingFs::default());
        let report = verify_checkpoint_on(fs.clone(), &dir, false).unwrap();
        assert!(report.ok(), "{:?}", report.findings);
        let reads = fs.reads.lock().unwrap();
        for unit in &units {
            let link = dir.join(format!("units/{}.safetensors", unit.as_string()));
            assert!(
                reads.iter().any(|p| p == &link),
                "object link {} never read through the storage",
                link.display()
            );
        }
        assert!(
            reads.iter().any(|p| {
                p.to_string_lossy().contains("group") && p.to_string_lossy().contains("rank")
            }),
            "optimizer object links never read through the storage"
        );
    }
}
