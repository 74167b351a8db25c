//! Robustness of the safetensors parser and checkpoint readers against
//! malformed inputs: every case must fail with a clean error, never panic
//! or mis-read.

use llmt_ckpt::safetensors;
use llmt_ckpt::{CheckpointHandle, CkptError, LoadMode};
use llmt_storage::vfs::LocalFs;
use std::path::Path;

/// The manifest of checkpoint `dir`, as the sealed reader parses it.
fn manifest_of(dir: &Path) -> llmt_ckpt::PartialManifest {
    let paths = llmt_ckpt::CheckpointPaths::open_on(&LocalFs, dir).unwrap();
    llmt_ckpt::read_seal(&LocalFs, &paths).manifest.unwrap()
}

fn write(path: &Path, bytes: &[u8]) {
    std::fs::write(path, bytes).unwrap();
}

fn header_file(header: &str, data_len: usize) -> Vec<u8> {
    let mut out = (header.len() as u64).to_le_bytes().to_vec();
    out.extend_from_slice(header.as_bytes());
    out.extend(std::iter::repeat_n(0u8, data_len));
    out
}

#[test]
fn empty_file_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let p = dir.path().join("x.safetensors");
    write(&p, b"");
    assert!(matches!(
        safetensors::read_file(&p),
        Err(CkptError::Format(_))
    ));
    assert!(safetensors::open_index(&p).is_err());
}

#[test]
fn header_length_exceeding_file_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let p = dir.path().join("x.safetensors");
    let mut bytes = (1_000_000u64).to_le_bytes().to_vec();
    bytes.extend_from_slice(b"{}");
    write(&p, &bytes);
    assert!(safetensors::read_file(&p).is_err());
    assert!(safetensors::open_index(&p).is_err());
}

#[test]
fn non_json_header_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let p = dir.path().join("x.safetensors");
    write(&p, &header_file("this is not json", 0));
    assert!(matches!(
        safetensors::read_file(&p),
        Err(CkptError::Format(_))
    ));
}

#[test]
fn header_array_instead_of_object_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let p = dir.path().join("x.safetensors");
    write(&p, &header_file("[1, 2, 3]", 0));
    assert!(matches!(
        safetensors::read_file(&p),
        Err(CkptError::Format(_))
    ));
}

#[test]
fn unsupported_dtype_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let p = dir.path().join("x.safetensors");
    let h = r#"{"x":{"dtype":"I64","shape":[1],"data_offsets":[0,8]}}"#;
    write(&p, &header_file(h, 8));
    let err = safetensors::read_file(&p).unwrap_err();
    assert!(err.to_string().contains("unsupported dtype"), "{err}");
}

#[test]
fn reversed_offsets_are_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let p = dir.path().join("x.safetensors");
    let h = r#"{"x":{"dtype":"F32","shape":[1],"data_offsets":[8,4]}}"#;
    write(&p, &header_file(h, 8));
    assert!(safetensors::read_file(&p).is_err());
}

#[test]
fn offsets_past_end_of_file_are_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let p = dir.path().join("x.safetensors");
    let h = r#"{"x":{"dtype":"F32","shape":[4],"data_offsets":[0,16]}}"#;
    write(&p, &header_file(h, 4)); // only 4 data bytes present
    let err = safetensors::read_file(&p).unwrap_err();
    assert!(err.to_string().contains("past end"), "{err}");
}

#[test]
fn shape_overflow_does_not_panic() {
    let dir = tempfile::tempdir().unwrap();
    let p = dir.path().join("x.safetensors");
    // numel * size would overflow naive arithmetic; must error, not abort.
    let h = r#"{"x":{"dtype":"F32","shape":[4294967295, 4294967295],"data_offsets":[0,8]}}"#;
    write(&p, &header_file(h, 8));
    assert!(safetensors::read_file(&p).is_err());
}

#[test]
fn checkpoint_dir_with_missing_files_errors_cleanly() {
    let dir = tempfile::tempdir().unwrap();
    let ckpt = dir.path().join("checkpoint-5");
    std::fs::create_dir_all(&ckpt).unwrap();
    // No config/zero_meta/trainer_state at all.
    let err = CheckpointHandle::open(&ckpt, LoadMode::EagerFull).unwrap_err();
    assert!(matches!(err, CkptError::Io(..)));
}

#[test]
fn checkpoint_with_corrupt_config_json_errors_cleanly() {
    let dir = tempfile::tempdir().unwrap();
    let ckpt = dir.path().join("checkpoint-5");
    std::fs::create_dir_all(&ckpt).unwrap();
    std::fs::write(ckpt.join("config.json"), "{not json").unwrap();
    let err = CheckpointHandle::open(&ckpt, LoadMode::EagerFull).unwrap_err();
    assert!(matches!(err, CkptError::Json(_)));
}

// ---------------------------------------------------------------------------
// Corruption of real (initially committed) checkpoints: `verify_checkpoint`
// must downgrade each of these to findings, never a panic or a hard error.
// ---------------------------------------------------------------------------

/// The three on-disk forms of a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Layout {
    /// `model.safetensors` plus one optimizer shard file per rank.
    Conventional,
    /// Deduplicated: every payload file a hard link to a raw store object.
    RawCas,
    /// Deduplicated, compressed and delta-chained: a second save whose
    /// links hold encoded objects with bases in the first.
    DeltaCas,
}

/// Write a full, committed checkpoint and return its directory.
fn committed_ckpt(root: &Path) -> std::path::PathBuf {
    committed_ckpt_impl(root, Layout::Conventional)
}

/// Write a full, committed, *deduplicated* (content-addressed) checkpoint
/// and return its directory.
fn committed_dedup_ckpt(root: &Path) -> std::path::PathBuf {
    committed_ckpt_impl(root, Layout::RawCas)
}

fn committed_ckpt_impl(root: &Path, layout: Layout) -> std::path::PathBuf {
    use llmt_ckpt::engine::{self, LiveState, SaveOptions};
    use llmt_model::{Batch, LayerUnit, Model, ModelConfig, ParamSet};
    use llmt_obs::MetricsRegistry;
    use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
    use llmt_zero::ZeroEngine;

    let cfg = ModelConfig::tiny_test();
    let mut model = Model::new(cfg.clone(), 11);
    let mut engine = ZeroEngine::new(
        &model.params,
        build_groups(&cfg, GroupLayout::LayerWise),
        2,
        AdamWHyper::default(),
    );
    let mut rng = llmt_tensor::rng::Prng::seed_from_u64(5);
    let (opts, steps) = match layout {
        Layout::Conventional => (SaveOptions::default(), 1),
        Layout::RawCas => (SaveOptions::dedup(true), 1),
        Layout::DeltaCas => (
            SaveOptions {
                dedup: true,
                compress: true,
                delta_chain: 4,
                ..SaveOptions::default()
            },
            2,
        ),
    };
    let mut dir = std::path::PathBuf::new();
    for step in 1..=steps {
        let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let mut grads = ParamSet::zeros(&cfg);
        model.loss_and_grad(&Batch::new(tokens, 2, 8), &mut grads);
        engine.step(&mut model.params, &grads, 1e-3, true);
        let ts = llmt_ckpt::TrainerState {
            global_step: step,
            ckpt_event: 0,
            lr_schedule: LrSchedule::Constant { lr: 1e-3 },
            last_lr: 1e-3,
            loss_history: vec![],
            data_rng: rng.clone(),
            task: "malformed-test".into(),
            model_name: cfg.model_name.clone(),
            micro_batch: 2,
            grad_accum: 1,
            seq_len: 8,
        };
        let req = llmt_ckpt::SaveRequest {
            dir: &llmt_ckpt::CheckpointPaths::under(root, step).dir,
            step,
            source: &LiveState {
                config: &cfg,
                params: &model.params,
                engine: &engine,
            },
            trainer_state: &ts,
            units: &LayerUnit::all(&cfg),
            metrics: &MetricsRegistry::new(),
            store: None,
            bases: None,
        };
        dir = engine::save(&[&LocalFs], &req, &opts)
            .unwrap()
            .report
            .paths
            .dir;
    }
    dir
}

#[test]
fn truncated_safetensors_payload_is_a_finding() {
    // Header intact, data section cut short: every tensor whose range runs
    // past the new EOF must surface as an "unreadable" finding.
    let root = tempfile::tempdir().unwrap();
    let dir = committed_ckpt(root.path());
    let model_file = dir.join("model.safetensors");
    let bytes = std::fs::read(&model_file).unwrap();
    std::fs::write(&model_file, &bytes[..bytes.len() - 64]).unwrap();
    let report = llmt_ckpt::verify_checkpoint(&dir).unwrap();
    assert!(!report.ok());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.problem.contains("unreadable")),
        "{:?}",
        report.findings
    );
}

#[test]
fn zero_length_commit_marker_is_a_finding() {
    let root = tempfile::tempdir().unwrap();
    let dir = committed_ckpt(root.path());
    std::fs::write(dir.join("COMMIT"), b"").unwrap();
    let report = llmt_ckpt::verify_checkpoint(&dir).unwrap();
    assert!(
        report.findings.iter().any(|f| f.subject == "COMMIT"),
        "{:?}",
        report.findings
    );
}

#[test]
fn garbage_commit_marker_is_a_finding() {
    let root = tempfile::tempdir().unwrap();
    let dir = committed_ckpt(root.path());
    std::fs::write(dir.join("COMMIT"), b"\xFF\xFEnot a marker\0\0").unwrap();
    let report = llmt_ckpt::verify_checkpoint(&dir).unwrap();
    assert!(
        report.findings.iter().any(|f| f.subject == "COMMIT"),
        "{:?}",
        report.findings
    );
}

#[test]
fn bit_flipped_cas_object_is_a_finding() {
    // A single flipped byte inside a shared content-addressed object must
    // surface as an object digest mismatch — the linked checkpoint file is
    // the same inode, so the corruption is visible through every reference.
    let root = tempfile::tempdir().unwrap();
    let dir = committed_dedup_ckpt(root.path());
    let manifest = manifest_of(&dir);
    let refs = manifest.objects.expect("dedup checkpoint has object refs");
    let (_, object) = refs.iter_all().next().unwrap();
    let hex = &object.digest;
    let object_file = root
        .path()
        .join("objects")
        .join(&hex[..2])
        .join(format!("{hex}.obj"));
    let mut bytes = std::fs::read(&object_file).unwrap();
    let n = bytes.len();
    bytes[n - 3] ^= 0x40; // flip a bit inside the data section
    std::fs::write(&object_file, bytes).unwrap();
    let report = llmt_ckpt::verify_checkpoint(&dir).unwrap();
    assert!(!report.ok());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.problem.contains("object digest mismatch")),
        "{:?}",
        report.findings
    );
}

#[test]
fn missing_cas_object_and_dangling_reference_are_findings() {
    // Delete one referenced object from the store AND its link inside the
    // checkpoint: verify must flag the dangling reference rather than
    // silently skipping the tensor payload it was supposed to cover.
    let root = tempfile::tempdir().unwrap();
    let dir = committed_dedup_ckpt(root.path());
    let manifest = manifest_of(&dir);
    let refs = manifest.objects.expect("dedup checkpoint has object refs");
    let (key, object) = refs
        .weights
        .iter()
        .next()
        .map(|(k, o)| (k.clone(), o.clone()))
        .unwrap();
    let hex = &object.digest;
    std::fs::remove_file(
        root.path()
            .join("objects")
            .join(&hex[..2])
            .join(format!("{hex}.obj")),
    )
    .unwrap();
    std::fs::remove_file(dir.join("units").join(format!("{key}.safetensors"))).unwrap();
    let report = llmt_ckpt::verify_checkpoint(&dir).unwrap();
    assert!(!report.ok());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.problem.contains("object-backed file missing")),
        "{:?}",
        report.findings
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.problem.contains("absent from store")),
        "{:?}",
        report.findings
    );
}

#[test]
fn pristine_dedup_checkpoint_verifies_clean() {
    let root = tempfile::tempdir().unwrap();
    let dir = committed_dedup_ckpt(root.path());
    let report = llmt_ckpt::verify_checkpoint(&dir).unwrap();
    assert!(report.ok(), "{:?}", report.findings);
}

#[test]
fn manifest_digest_mismatch_is_a_finding() {
    // The marker is intact and well-formed, but the manifest it sealed has
    // been rewritten since: the digest no longer matches.
    let root = tempfile::tempdir().unwrap();
    let dir = committed_ckpt(root.path());
    let manifest_file = dir.join("partial_manifest.json");
    let mut text = std::fs::read_to_string(&manifest_file).unwrap();
    text.push('\n'); // byte-level change only; still valid JSON
    std::fs::write(&manifest_file, text).unwrap();
    let report = llmt_ckpt::verify_checkpoint(&dir).unwrap();
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.subject == "COMMIT" && f.problem.contains("digest")),
        "{:?}",
        report.findings
    );
}

// ---------------------------------------------------------------------------
// One verdict per problem: the restore engine, the checkpoint handle and
// verification execute the same file plan, so they cannot disagree about
// a malformed manifest or a damaged payload.
// ---------------------------------------------------------------------------

/// Rewrite a committed checkpoint's manifest and seal it again, so the
/// edit is what the readers judge and not a stale `COMMIT` marker.
fn edit_manifest(dir: &Path, edit: impl FnOnce(&mut llmt_ckpt::PartialManifest)) {
    let path = dir.join("partial_manifest.json");
    let mut manifest = manifest_of(dir);
    edit(&mut manifest);
    let text = serde_json::to_string_pretty(&manifest).unwrap();
    std::fs::write(&path, &text).unwrap();
    let marker = llmt_ckpt::layout::commit_marker_contents(manifest.step, text.as_bytes());
    std::fs::write(dir.join("COMMIT"), marker).unwrap();
}

fn restore(dir: &Path) -> llmt_ckpt::Result<llmt_ckpt::RestoredState> {
    llmt_ckpt::restore_checkpoint(dir, &llmt_ckpt::RestoreRequest::default())
}

#[test]
fn malformed_object_reference_gets_one_verdict_from_every_reader() {
    // (edit, the key every message must name, how a handle reaches the file)
    type Edit = fn(&mut llmt_ckpt::PartialManifest);
    type Read = fn(&mut CheckpointHandle) -> llmt_ckpt::Result<()>;
    let rename_key = |m: &mut llmt_ckpt::PartialManifest| {
        let optim = &mut m.objects.as_mut().unwrap().optim;
        let object = optim.remove("rank0/group1").unwrap();
        optim.insert("rankX/group1".into(), object);
    };
    let break_digest = |m: &mut llmt_ckpt::PartialManifest| {
        let weights = &mut m.objects.as_mut().unwrap().weights;
        weights.get_mut("embed_tokens").unwrap().digest = "not-hex".into();
    };
    let cases: [(Edit, &str, Read); 2] = [
        (rename_key, "rankX/group1", |h| {
            h.group_shard(0, 1).map(drop)
        }),
        (break_digest, "embed_tokens", |h| {
            h.weight("model.embed_tokens.weight").map(drop)
        }),
    ];
    for (edit, key, read) in cases {
        let root = tempfile::tempdir().unwrap();
        let dir = committed_dedup_ckpt(root.path());
        edit_manifest(&dir, edit);

        let err = restore(&dir).map(drop).unwrap_err();
        assert!(
            matches!(&err, CkptError::Format(m) if m.contains(key)),
            "{key}: {err}"
        );
        for mode in [LoadMode::EagerFull, LoadMode::LazyRange] {
            let mut h = CheckpointHandle::open(&dir, mode).unwrap();
            let err = read(&mut h).unwrap_err();
            assert!(
                matches!(&err, CkptError::Format(m) if m.contains(key)),
                "{key} {mode:?}: {err}"
            );
            // Every other file still reads.
            h.group_shard(1, 1).unwrap();
            h.weight("model.norm.weight").unwrap();
        }
        let report = llmt_ckpt::verify_checkpoint(&dir).unwrap();
        let clean_root = tempfile::tempdir().unwrap();
        let clean = llmt_ckpt::verify_checkpoint(&committed_dedup_ckpt(clean_root.path())).unwrap();
        assert_eq!(report.findings.len(), 1, "{key}: {:?}", report.findings);
        assert!(report.findings[0].problem.contains(key), "{report:?}");
        // ... and verification went on past it.
        assert_eq!(
            report.weights_checked + report.shards_checked + 1,
            clean.weights_checked + clean.shards_checked,
            "{key}"
        );
    }
}

/// Decoded tensors of a payload file, whatever form its object takes.
fn payload_tensors(
    root: &Path,
    file: &Path,
    digest: Option<&str>,
) -> safetensors::TensorsAndMetadata {
    let mut image = std::fs::read(file).unwrap();
    if llmt_cas::codec::is_encoded(&image) {
        let digest = llmt_cas::Digest::parse_hex(digest.unwrap()).unwrap();
        image = llmt_cas::ObjectStore::for_run_root(root)
            .materialize(&llmt_storage::vfs::LocalFs, digest)
            .unwrap();
    }
    safetensors::decode_image(file, &image).unwrap()
}

#[test]
fn restore_and_verify_cannot_disagree() {
    #[derive(Debug, Clone, Copy)]
    enum Damage {
        Pristine,
        BitFlip,
        Truncated,
        TensorRenamed,
        MissingLink,
        MissingStoreObject,
        ManifestLengthOffByOne,
    }
    use Damage::*;
    for layout in [Layout::Conventional, Layout::RawCas, Layout::DeltaCas] {
        for damage in [
            Pristine,
            BitFlip,
            Truncated,
            TensorRenamed,
            MissingLink,
            MissingStoreObject,
            ManifestLengthOffByOne,
        ] {
            let cas = layout != Layout::Conventional;
            if !cas && matches!(damage, MissingStoreObject | ManifestLengthOffByOne) {
                continue; // a conventional checkpoint has neither
            }
            let case = format!("{layout:?}/{damage:?}");
            let root = tempfile::tempdir().unwrap();
            let dir = committed_ckpt_impl(root.path(), layout);
            let paths = llmt_ckpt::CheckpointPaths::open_on(&LocalFs, &dir).unwrap();
            let manifest = manifest_of(&dir);
            // The victims: one weights file and one shard file, with the
            // subject both readers file their problems under.
            let (weights, shard) = if cas {
                (
                    (paths.unit_weights("layers.0"), "unit layers.0".to_string()),
                    (paths.optim_group(1, 2), "rank 1 group 2 shard".to_string()),
                )
            } else {
                (
                    (paths.model(), "model weights".to_string()),
                    (paths.optim_shard(1), "rank 1 shards".to_string()),
                )
            };
            let refs = manifest.objects.as_ref();
            let shard_ref = refs.map(|r| r.optim["rank1/group2"].clone());
            let (victim, subject) = match damage {
                Pristine => (std::path::PathBuf::new(), String::new()),
                BitFlip => {
                    let mut bytes = std::fs::read(&weights.0).unwrap();
                    let n = bytes.len();
                    bytes[n - 3] ^= 0x40;
                    std::fs::write(&weights.0, bytes).unwrap();
                    weights
                }
                Truncated => {
                    let bytes = std::fs::read(&shard.0).unwrap();
                    std::fs::write(&shard.0, &bytes[..bytes.len() - 8]).unwrap();
                    shard
                }
                TensorRenamed => {
                    let digest = shard_ref.as_ref().map(|r| r.digest.as_str());
                    let (mut tensors, meta) = payload_tensors(root.path(), &shard.0, digest);
                    tensors[0].0.push_str(".renamed");
                    safetensors::write_file(&shard.0, &tensors, &meta).unwrap();
                    shard
                }
                MissingLink => {
                    std::fs::remove_file(&weights.0).unwrap();
                    weights
                }
                MissingStoreObject => {
                    let hex = &shard_ref.as_ref().unwrap().digest;
                    let object = root.path().join("objects").join(&hex[..2]);
                    std::fs::remove_file(object.join(format!("{hex}.obj"))).unwrap();
                    shard
                }
                ManifestLengthOffByOne => {
                    edit_manifest(&dir, |m| {
                        let weights = &mut m.objects.as_mut().unwrap().weights;
                        weights.get_mut("layers.0").unwrap().bytes += 1;
                    });
                    weights
                }
            };
            let _ = victim;

            let restored = restore(&dir).map(drop);
            let report = llmt_ckpt::verify_checkpoint_on(
                std::sync::Arc::new(llmt_storage::vfs::LocalFs),
                &dir,
                true,
            )
            .unwrap();
            match (damage, restored) {
                (Pristine, restored) => {
                    restored.unwrap_or_else(|e| panic!("{case}: {e}"));
                    assert!(report.ok(), "{case}: {:?}", report.findings);
                }
                (_, Ok(())) => {
                    // Only a store object whose raw link still holds the
                    // bytes can go missing without the restore noticing.
                    assert!(matches!(damage, MissingStoreObject), "{case}");
                    assert!(!report.ok(), "{case}");
                }
                (_, Err(e)) => {
                    // The restore stopped at its first problem; verify
                    // reports that problem, or another, for the same file.
                    let text = e.to_string();
                    let mine: Vec<_> = report
                        .findings
                        .iter()
                        .filter(|f| f.subject == subject)
                        .collect();
                    assert!(!mine.is_empty(), "{case}: {e} vs {:?}", report.findings);
                    assert!(
                        text.contains(&subject) || mine.iter().any(|f| f.problem == text),
                        "{case}: restore says '{text}', verify says {mine:?}"
                    );
                }
            }
        }
    }
}
