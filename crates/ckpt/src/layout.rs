//! Checkpoint directory layout, mirroring HF `Trainer` + DeepSpeed ZeRO-3.
//!
//! ```text
//! <root>/checkpoint-<step>/
//!   config.json                  model hyperparameters
//!   model.safetensors            consolidated BF16 weights (maybe partial)
//!   trainer_state.json           step, RNG, loss history (paper §4.4)
//!   latest                       text file naming the global_step dir
//!   partial_manifest.json        units present (partial checkpoints only)
//!   COMMIT                       commit marker: manifest digest + step
//!   global_step<step>/
//!     zero_meta.json             group layout + world size
//!     bf16_zero_pp_rank_<r>_mp_rank_00_optim_states.safetensors
//! ```
//!
//! Saves are two-phase: everything is staged into `checkpoint-<step>.tmp/`,
//! each file synced, the `COMMIT` marker written last, and the directory
//! atomically renamed into place. A directory without a valid marker —
//! torn mid-save, renamed but digest-tampered, or leftover `.tmp` staging —
//! is *quarantined*: [`scan_run_root`] reports it but recovery, resume and
//! retention never count it as a checkpoint.
//!
//! Only this module knows what a committed checkpoint is: [`read_seal`]
//! reads one directory's marker and manifest through a [`Storage`] and is
//! the sole caller of [`CommitStatus::evaluate`]; [`scan_run_root_on`] is
//! `list_dir` + the same read per entry and keeps the sealed manifests for
//! recovery, retention and [`crate::manifest::census_run_roots`] — for
//! which alone a read that fails is an error and not an absent file.

use crate::error::{io_err, CkptError, Result};
use crate::manifest::PartialManifest;
use llmt_storage::vfs::{LocalFs, Storage};
use llmt_tensor::raw::Fnv1a;
use std::io;
use std::path::{Path, PathBuf};

/// File name of the commit marker inside a checkpoint directory.
pub const COMMIT_FILE: &str = "COMMIT";

/// Magic prefix of a v1 commit marker line.
pub const COMMIT_MAGIC: &str = "llmt-commit-v1";

/// Path builder for one checkpoint directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPaths {
    /// The `checkpoint-<step>` directory.
    pub dir: PathBuf,
    /// Global step the checkpoint was taken at.
    pub step: u64,
}

impl CheckpointPaths {
    /// Paths for `checkpoint-<step>` under a training-run root.
    pub fn under(root: &Path, step: u64) -> Self {
        CheckpointPaths {
            dir: root.join(format!("checkpoint-{step}")),
            step,
        }
    }

    /// Paths for the *staging* directory `checkpoint-<step>.tmp` the writer
    /// assembles a save in before the commit rename.
    pub fn staging_under(root: &Path, step: u64) -> Self {
        CheckpointPaths {
            dir: root.join(format!("checkpoint-{step}.tmp")),
            step,
        }
    }

    /// Whether `dir` is named like a writer staging directory.
    pub fn is_staging_dir(dir: &Path) -> bool {
        matches!(
            dir.file_name().and_then(|n| n.to_str()),
            Some(name) if name.starts_with("checkpoint-") && name.ends_with(".tmp")
        )
    }

    /// Wrap an existing checkpoint directory, inferring the step from its
    /// name (`checkpoint-123` -> 123) or from the `latest` file read
    /// through `storage` (a merge output such as `merged-5`). Staging
    /// directories (`checkpoint-123.tmp`) are never opened: an interrupted
    /// save's `latest` file must not smuggle it in as a real checkpoint.
    pub fn open_on(storage: &dyn Storage, dir: &Path) -> Option<Self> {
        if CheckpointPaths::is_staging_dir(dir) {
            return None;
        }
        let name = dir.file_name()?.to_str()?;
        let step = if let Some(s) = name.strip_prefix("checkpoint-") {
            s.parse::<u64>().ok()?
        } else {
            let latest = storage.read(&dir.join("latest")).ok()?;
            std::str::from_utf8(&latest)
                .ok()?
                .trim()
                .strip_prefix("global_step")?
                .parse::<u64>()
                .ok()?
        };
        Some(CheckpointPaths {
            dir: dir.to_path_buf(),
            step,
        })
    }

    /// `config.json`.
    pub fn config(&self) -> PathBuf {
        self.dir.join("config.json")
    }

    /// Consolidated model weights.
    pub fn model(&self) -> PathBuf {
        self.dir.join("model.safetensors")
    }

    /// `trainer_state.json`.
    pub fn trainer_state(&self) -> PathBuf {
        self.dir.join("trainer_state.json")
    }

    /// The `latest` marker file.
    pub fn latest(&self) -> PathBuf {
        self.dir.join("latest")
    }

    /// Partial-checkpoint manifest.
    pub fn manifest(&self) -> PathBuf {
        self.dir.join("partial_manifest.json")
    }

    /// The `COMMIT` marker file (written last, after every payload sync).
    pub fn commit_marker(&self) -> PathBuf {
        self.dir.join(COMMIT_FILE)
    }

    /// The DeepSpeed-style `global_step<N>` subdirectory.
    pub fn global_step_dir(&self) -> PathBuf {
        self.dir.join(format!("global_step{}", self.step))
    }

    /// Shared ZeRO metadata file.
    pub fn zero_meta(&self) -> PathBuf {
        self.global_step_dir().join("zero_meta.json")
    }

    /// Rank `r`'s optimizer shard file.
    pub fn optim_shard(&self, rank: usize) -> PathBuf {
        self.global_step_dir().join(format!(
            "bf16_zero_pp_rank_{rank}_mp_rank_00_optim_states.safetensors"
        ))
    }

    /// Directory of per-unit weight files in a deduplicated checkpoint
    /// (each file a hard link into the run's object store).
    pub fn units_dir(&self) -> PathBuf {
        self.dir.join("units")
    }

    /// The weight file of one unit in a deduplicated checkpoint.
    /// `unit_key` is the canonical `LayerUnit` string (`layers.3`, …).
    pub fn unit_weights(&self, unit_key: &str) -> PathBuf {
        self.units_dir().join(format!("{unit_key}.safetensors"))
    }

    /// The per-(rank, group) optimizer-state file of a deduplicated
    /// checkpoint — the dedup granule of the 2L+x layout.
    pub fn optim_group(&self, rank: usize, gid: usize) -> PathBuf {
        self.global_step_dir()
            .join(format!("rank{rank}_group{gid}_optim_states.safetensors"))
    }

    /// Every file of the checkpoint (recursive) with its length, as
    /// `storage` holds it. `Storage` has no `is_dir`: a directory is an
    /// entry that lists.
    pub fn files_on(&self, storage: &dyn Storage) -> io::Result<Vec<(PathBuf, u64)>> {
        let mut files = Vec::new();
        let mut stack = vec![storage.list_dir(&self.dir)?];
        while let Some(entries) = stack.pop() {
            for entry in entries {
                match storage.list_dir(&entry) {
                    Ok(children) => stack.push(children),
                    Err(_) => {
                        let len = storage.file_len(&entry)?;
                        files.push((entry, len));
                    }
                }
            }
        }
        Ok(files)
    }

    /// Total size of the checkpoint on `storage` (recursive), in bytes.
    pub fn total_bytes_on(&self, storage: &dyn Storage) -> io::Result<u64> {
        Ok(self.files_on(storage)?.iter().map(|(_, len)| len).sum())
    }
}

/// FNV-1a digest of the manifest bytes, as recorded in the commit marker.
pub fn manifest_digest(manifest_bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(manifest_bytes);
    h.finish()
}

/// Render the commit marker contents for a checkpoint of `step` whose
/// `partial_manifest.json` serializes to `manifest_bytes`.
pub fn commit_marker_contents(step: u64, manifest_bytes: &[u8]) -> String {
    format!(
        "{COMMIT_MAGIC} {:016x} step={step}\n",
        manifest_digest(manifest_bytes)
    )
}

/// Verdict on a checkpoint directory's commit marker. Anything but
/// [`CommitStatus::Committed`] means the directory is quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitStatus {
    /// Marker present, well-formed, digest matches the manifest.
    Committed,
    /// No `COMMIT` file: the save never finished its payload phase.
    Missing,
    /// Marker exists but is empty, non-UTF-8, or malformed (torn marker
    /// write, garbage). The string says what was wrong.
    Corrupt(String),
    /// Marker parses but its digest disagrees with the manifest on disk:
    /// one of the two was tampered with or torn after commit.
    DigestMismatch {
        /// Digest recorded in the marker.
        marker: u64,
        /// Digest of the manifest actually on disk.
        manifest: u64,
    },
    /// Marker present but `partial_manifest.json` is unreadable, so the
    /// digest cannot be checked.
    NoManifest,
    /// The directory is a `checkpoint-<step>.tmp` staging dir: by
    /// definition never committed.
    Staging,
}

impl CommitStatus {
    /// Judge a marker (`None` = file absent/unreadable) against the
    /// manifest bytes (`None` = absent/unreadable).
    pub fn evaluate(marker: Option<&[u8]>, manifest: Option<&[u8]>) -> CommitStatus {
        let Some(marker) = marker else {
            return CommitStatus::Missing;
        };
        let Ok(text) = std::str::from_utf8(marker) else {
            return CommitStatus::Corrupt("marker is not UTF-8".into());
        };
        let text = text.trim();
        if text.is_empty() {
            return CommitStatus::Corrupt("marker is empty".into());
        }
        let mut fields = text.split_whitespace();
        if fields.next() != Some(COMMIT_MAGIC) {
            return CommitStatus::Corrupt(format!("bad magic (want '{COMMIT_MAGIC}')"));
        }
        let digest = match fields.next().map(|h| u64::from_str_radix(h, 16)) {
            Some(Ok(d)) => d,
            _ => return CommitStatus::Corrupt("unparseable digest field".into()),
        };
        let Some(manifest) = manifest else {
            return CommitStatus::NoManifest;
        };
        let actual = manifest_digest(manifest);
        if digest == actual {
            CommitStatus::Committed
        } else {
            CommitStatus::DigestMismatch {
                marker: digest,
                manifest: actual,
            }
        }
    }

    /// True for [`CommitStatus::Committed`].
    pub fn is_committed(&self) -> bool {
        *self == CommitStatus::Committed
    }

    /// Human-readable reason a non-committed directory was quarantined.
    pub fn describe(&self) -> String {
        match self {
            CommitStatus::Committed => "committed".into(),
            CommitStatus::Missing => "COMMIT marker missing (save never completed)".into(),
            CommitStatus::Corrupt(why) => format!("COMMIT marker corrupt: {why}"),
            CommitStatus::DigestMismatch { marker, manifest } => format!(
                "COMMIT digest {marker:016x} disagrees with manifest digest {manifest:016x}"
            ),
            CommitStatus::NoManifest => "COMMIT marker present but manifest unreadable".into(),
            CommitStatus::Staging => "leftover .tmp staging directory".into(),
        }
    }
}

/// What one read of a checkpoint directory's seal found.
#[derive(Debug)]
pub struct Seal {
    /// The commit verdict.
    pub status: CommitStatus,
    /// The manifest, parsed from the bytes the verdict hashed: `Io` when
    /// the file was absent or unreadable, `Json` when it does not parse,
    /// `Quarantined` for a staging directory.
    pub manifest: Result<PartialManifest>,
}

/// Read `COMMIT` and `partial_manifest.json` of a checkpoint directory
/// through `storage`, once each. A failed read counts as an absent file —
/// "not committed", never an error — and a staging directory is
/// [`CommitStatus::Staging`] unread.
pub fn read_seal(storage: &dyn Storage, paths: &CheckpointPaths) -> Seal {
    let (status, bytes) = seal_bytes(storage, paths, false).expect("only a census read fails");
    Seal {
        status,
        manifest: bytes.and_then(|bytes| parse_manifest(paths, &bytes)),
    }
}

/// One catalog read as its caller may take it. Listings, `Status`, resume
/// and recovery read whatever fails as absent ("not committed"). A GC
/// `census` may not: a checkpoint it cannot see is one whose live objects
/// it would sweep, so there only a path that is not there (`NotFound`, or
/// `NotADirectory` for a stray file named like a checkpoint) is absent and
/// every other failure is the pass's error.
fn seen<T>(read: io::Result<T>, path: &Path, census: bool) -> Result<io::Result<T>> {
    use io::ErrorKind::{NotADirectory, NotFound};
    match read {
        Err(e) if census && !matches!(e.kind(), NotFound | NotADirectory) => Err(io_err(path)(e)),
        read => Ok(read),
    }
}

/// [`read_seal`] short of parsing: the verdict and the manifest bytes.
fn seal_bytes(
    storage: &dyn Storage,
    paths: &CheckpointPaths,
    census: bool,
) -> Result<(CommitStatus, Result<Vec<u8>>)> {
    if CheckpointPaths::is_staging_dir(&paths.dir) {
        let status = CommitStatus::Staging;
        let unread = CkptError::Quarantined(paths.dir.clone(), status.describe());
        return Ok((status, Err(unread)));
    }
    let (marker_path, manifest_path) = (paths.commit_marker(), paths.manifest());
    let marker = seen(storage.read(&marker_path), &marker_path, census)?.ok();
    let manifest = seen(storage.read(&manifest_path), &manifest_path, census)?;
    let status = CommitStatus::evaluate(marker.as_deref(), manifest.as_deref().ok());
    Ok((status, manifest.map_err(io_err(manifest_path))))
}

fn parse_manifest(paths: &CheckpointPaths, bytes: &[u8]) -> Result<PartialManifest> {
    serde_json::from_slice(bytes)
        .map_err(|e| CkptError::Json(format!("{}: {e}", paths.manifest().display())))
}

/// One committed checkpoint a scan found, with its sealed manifest.
#[derive(Debug, Clone)]
pub struct SealedCheckpoint {
    /// The `checkpoint-<step>` directory.
    pub dir: PathBuf,
    /// Global step the checkpoint was taken at.
    pub step: u64,
    manifest_bytes: Vec<u8>,
}

impl SealedCheckpoint {
    /// Path builder for this checkpoint.
    pub fn paths(&self) -> CheckpointPaths {
        CheckpointPaths {
            dir: self.dir.clone(),
            step: self.step,
        }
    }

    /// Parse the manifest bytes the scan read and the marker vouches for
    /// (on demand: listings need only steps). An error means this build
    /// cannot parse them: fail, do not guess.
    pub fn manifest(&self) -> Result<PartialManifest> {
        parse_manifest(&self.paths(), &self.manifest_bytes)
    }
}

/// One directory a scan refused to treat as a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedDir {
    /// The offending directory.
    pub dir: PathBuf,
    /// Step parsed from the directory name, when available.
    pub step: Option<u64>,
    /// Why it was quarantined.
    pub status: CommitStatus,
}

/// Result of scanning a run root: committed checkpoints (sorted by step)
/// plus everything that looked like a checkpoint but failed commit checks.
#[derive(Debug, Clone, Default)]
pub struct ScanReport {
    /// Fully committed checkpoints, ascending by step.
    pub committed: Vec<SealedCheckpoint>,
    /// Torn, tampered, or staging directories. Recovery and retention must
    /// neither trust nor delete these automatically.
    pub quarantined: Vec<QuarantinedDir>,
}

impl ScanReport {
    /// Steps of the committed checkpoints, ascending.
    pub fn committed_steps(&self) -> Vec<u64> {
        self.committed.iter().map(|c| c.step).collect()
    }

    /// The newest committed checkpoint, if any.
    pub fn newest_committed(&self) -> Option<&SealedCheckpoint> {
        self.committed.last()
    }
}

/// Scan a run root through `storage`, classifying every `checkpoint-*`
/// entry (including `.tmp` staging leftovers) as committed or quarantined:
/// one `list_dir`, then one seal read per candidate. (`Storage` has no
/// `is_dir`: a stray *file* so named is quarantined as an unsealed dir.)
/// A root that cannot be listed scans as empty and a seal that cannot be
/// read as not committed; `census_scan` is the same scan for the one
/// caller that deletes on the strength of it.
pub fn scan_run_root_on(storage: &dyn Storage, root: &Path) -> ScanReport {
    scan(storage, root, false).expect("only a census scan fails")
}

/// [`scan_run_root_on`] for the GC census: the same reads, but a listing,
/// marker or manifest that fails with anything other than "not there" is
/// a typed [`CkptError::Io`] instead of an absent checkpoint.
pub(crate) fn census_scan(storage: &dyn Storage, root: &Path) -> Result<ScanReport> {
    scan(storage, root, true)
}

fn scan(storage: &dyn Storage, root: &Path, census: bool) -> Result<ScanReport> {
    let mut report = ScanReport::default();
    for dir in seen(storage.list_dir(root), root, census)?.unwrap_or_default() {
        let Some(rest) = dir
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("checkpoint-"))
        else {
            continue;
        };
        if let Some(stem) = rest.strip_suffix(".tmp") {
            report.quarantined.push(QuarantinedDir {
                step: stem.parse().ok(),
                dir,
                status: CommitStatus::Staging,
            });
            continue;
        }
        let Ok(step) = rest.parse::<u64>() else {
            continue;
        };
        let paths = CheckpointPaths { dir, step };
        match seal_bytes(storage, &paths, census)? {
            (CommitStatus::Committed, Ok(manifest_bytes)) => {
                report.committed.push(SealedCheckpoint {
                    dir: paths.dir,
                    step,
                    manifest_bytes,
                })
            }
            (status, _) => report.quarantined.push(QuarantinedDir {
                dir: paths.dir,
                step: Some(step),
                status,
            }),
        }
    }
    report.committed.sort_by_key(|c| c.step);
    report.quarantined.sort_by(|a, b| a.dir.cmp(&b.dir));
    Ok(report)
}

/// [`scan_run_root_on`] on the local filesystem.
pub fn scan_run_root(root: &Path) -> ScanReport {
    scan_run_root_on(&LocalFs, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{previous_refs_on, SaveOptions};
    use crate::reader::{CheckpointHandle, LoadMode};
    use crate::verify::tests::make_ckpts;
    use llmt_storage::vfs::{FaultKind, FaultSpec, FaultyFs};
    use std::sync::Arc;

    #[test]
    fn path_names_match_deepspeed_convention() {
        let cp = CheckpointPaths::under(Path::new("/runs/x"), 100);
        assert_eq!(cp.dir, Path::new("/runs/x/checkpoint-100"));
        assert!(cp
            .optim_shard(3)
            .ends_with("global_step100/bf16_zero_pp_rank_3_mp_rank_00_optim_states.safetensors"));
        assert!(cp.zero_meta().ends_with("global_step100/zero_meta.json"));
    }

    /// Write a sealed checkpoint that holds nothing but its seal.
    fn seal_bare(root: &Path, step: u64) {
        let cp = CheckpointPaths::under(root, step);
        std::fs::create_dir_all(&cp.dir).unwrap();
        let manifest = PartialManifest {
            step,
            units: vec![],
            weight_digests: Default::default(),
            full: false,
            objects: None,
            topology: None,
        };
        let bytes = serde_json::to_string_pretty(&manifest).unwrap();
        std::fs::write(cp.manifest(), &bytes).unwrap();
        std::fs::write(
            cp.commit_marker(),
            commit_marker_contents(step, bytes.as_bytes()),
        )
        .unwrap();
    }

    #[test]
    fn open_parses_step_from_dirname() {
        let cp = CheckpointPaths::open_on(&LocalFs, Path::new("/a/b/checkpoint-250")).unwrap();
        assert_eq!(cp.step, 250);
        assert!(CheckpointPaths::open_on(&LocalFs, Path::new("/a/b/ckpt")).is_none());
    }

    #[test]
    fn open_falls_back_to_latest_file() {
        let dir = tempfile::tempdir().unwrap();
        let oddly_named = dir.path().join("resume_me");
        std::fs::create_dir(&oddly_named).unwrap();
        std::fs::write(oddly_named.join("latest"), "global_step77\n").unwrap();
        let cp = CheckpointPaths::open_on(&LocalFs, &oddly_named).unwrap();
        assert_eq!(cp.step, 77);
    }

    #[test]
    fn list_sorts_by_step() {
        let dir = tempfile::tempdir().unwrap();
        for s in [300u64, 100, 200] {
            seal_bare(dir.path(), s);
        }
        std::fs::create_dir(dir.path().join("not-a-checkpoint")).unwrap();
        let found = scan_run_root(dir.path());
        assert_eq!(found.committed_steps(), vec![100, 200, 300]);
        assert!(found.quarantined.is_empty());
    }

    #[test]
    fn staging_dirs_are_never_opened_as_checkpoints() {
        let dir = tempfile::tempdir().unwrap();
        let staging = CheckpointPaths::staging_under(dir.path(), 9);
        assert!(staging.dir.ends_with("checkpoint-9.tmp"));
        assert!(CheckpointPaths::is_staging_dir(&staging.dir));
        std::fs::create_dir_all(&staging.dir).unwrap();
        // Even with a plausible `latest` file inside, open() refuses.
        std::fs::write(staging.dir.join("latest"), "global_step9\n").unwrap();
        assert!(CheckpointPaths::open_on(&LocalFs, &staging.dir).is_none());
        assert!(scan_run_root(dir.path()).committed.is_empty());
    }

    #[test]
    fn commit_status_judges_marker_against_manifest() {
        let manifest = br#"{"step":5}"#;
        let good = commit_marker_contents(5, manifest);
        assert!(CommitStatus::evaluate(Some(good.as_bytes()), Some(manifest)).is_committed());
        assert_eq!(
            CommitStatus::evaluate(None, Some(manifest)),
            CommitStatus::Missing
        );
        assert!(matches!(
            CommitStatus::evaluate(Some(b""), Some(manifest)),
            CommitStatus::Corrupt(_)
        ));
        assert!(matches!(
            CommitStatus::evaluate(Some(b"\xff\xfe"), Some(manifest)),
            CommitStatus::Corrupt(_)
        ));
        assert!(matches!(
            CommitStatus::evaluate(Some(b"other-magic deadbeef step=5"), Some(manifest)),
            CommitStatus::Corrupt(_)
        ));
        assert!(matches!(
            CommitStatus::evaluate(Some(b"llmt-commit-v1 nothex step=5"), Some(manifest)),
            CommitStatus::Corrupt(_)
        ));
        assert!(matches!(
            CommitStatus::evaluate(Some(good.as_bytes()), Some(b"tampered")),
            CommitStatus::DigestMismatch { .. }
        ));
        assert_eq!(
            CommitStatus::evaluate(Some(good.as_bytes()), None),
            CommitStatus::NoManifest
        );
    }

    /// The verdict table again, as damage done to a real checkpoint:
    /// (case, how to damage `checkpoint-1`, the verdict it must get).
    type Damage = (
        &'static str,
        fn(&CheckpointPaths),
        fn(&CommitStatus) -> bool,
    );
    const DAMAGE: [Damage; 9] = [
        ("pristine", |_| {}, |s| s.is_committed()),
        (
            "marker missing",
            |p| std::fs::remove_file(p.commit_marker()).unwrap(),
            |s| *s == CommitStatus::Missing,
        ),
        (
            "marker empty",
            |p| std::fs::write(p.commit_marker(), b"").unwrap(),
            |s| matches!(s, CommitStatus::Corrupt(_)),
        ),
        (
            "marker non-UTF-8",
            |p| std::fs::write(p.commit_marker(), b"\xff\xfe").unwrap(),
            |s| matches!(s, CommitStatus::Corrupt(_)),
        ),
        (
            "wrong magic",
            |p| std::fs::write(p.commit_marker(), b"other-magic deadbeef step=1").unwrap(),
            |s| matches!(s, CommitStatus::Corrupt(_)),
        ),
        (
            "bad hex",
            |p| std::fs::write(p.commit_marker(), b"llmt-commit-v1 nothex step=1").unwrap(),
            |s| matches!(s, CommitStatus::Corrupt(_)),
        ),
        (
            // Still parses, no longer hashes to what the marker recorded.
            "digest mismatch",
            |p| {
                let mut bytes = std::fs::read(p.manifest()).unwrap();
                bytes.push(b'\n');
                std::fs::write(p.manifest(), bytes).unwrap();
            },
            |s| matches!(s, CommitStatus::DigestMismatch { .. }),
        ),
        (
            "manifest unreadable",
            |p| std::fs::remove_file(p.manifest()).unwrap(),
            |s| *s == CommitStatus::NoManifest,
        ),
        (
            "staging dir",
            |p| std::fs::rename(&p.dir, p.dir.with_extension("tmp")).unwrap(),
            |s| *s == CommitStatus::Staging,
        ),
    ];

    /// The three readers of a seal, each reduced to the verdict it acts
    /// on (`None`: it found nothing to judge).
    fn by_scan(storage: &dyn Storage, root: &Path) -> Option<CommitStatus> {
        let scan = scan_run_root_on(storage, root);
        assert!(scan.committed.len() + scan.quarantined.len() <= 1);
        let quarantined = scan.quarantined.first().map(|q| q.status.clone());
        quarantined.or(scan.committed.first().map(|_| CommitStatus::Committed))
    }
    fn by_handle(storage: Arc<dyn Storage>, dir: &Path) -> Option<CommitStatus> {
        let h = CheckpointHandle::open_on(storage, dir, LoadMode::LazyRange).ok()?;
        Some(h.commit_status().clone())
    }
    fn by_delta_base(storage: &dyn Storage, root: &Path) -> Option<CommitStatus> {
        previous_refs_on(storage, root, 2).map(|_| CommitStatus::Committed)
    }

    #[test]
    fn one_verdict_table_three_consumers() {
        for (case, damage, expected) in DAMAGE {
            let root = tempfile::tempdir().unwrap();
            let (dir, _) = make_ckpts(root.path(), None, &SaveOptions::dedup(true), 1);
            let paths = CheckpointPaths::under(root.path(), 1);
            assert_eq!(dir, paths.dir);
            damage(&paths);
            let pristine = case == "pristine";
            let run = root.path();
            let dir = match case {
                "staging dir" => CheckpointPaths::staging_under(run, 1).dir,
                _ => dir,
            };

            // Fault-free, all three agree with the table.
            let scan = by_scan(&LocalFs, run).unwrap();
            assert!(expected(&scan), "{case}: scan says {scan:?}");
            match by_handle(Arc::new(LocalFs), &dir) {
                Some(handle) => assert_eq!(handle, scan, "{case}"),
                // A staging directory does not open at all.
                None => assert_eq!(scan, CommitStatus::Staging, "{case}"),
            }
            assert_eq!(by_delta_base(&LocalFs, run).is_some(), pristine, "{case}");

            // With the k-th storage op failing, for every k a reader
            // performs: no panic, and "committed" only for the pristine
            // directory — and there only when the failed op was not one
            // the verdict rests on (for the scan and the delta base,
            // every op is).
            type Reader = fn(Arc<dyn Storage>, &Path, &Path) -> Option<CommitStatus>;
            let readers: [(Reader, bool); 3] = [
                (|s, run, _| by_scan(&*s, run), true),
                (|s, _, dir| by_handle(s, dir), false),
                (|s, run, _| by_delta_base(&*s, run), true),
            ];
            for (reader, every_op_counts) in readers {
                for k in 0.. {
                    let spec = FaultSpec {
                        at_op: k,
                        kind: FaultKind::Transient { failures: 1 },
                    };
                    let fs = Arc::new(FaultyFs::new(LocalFs, spec));
                    let verdict = reader(fs.clone(), run, &dir);
                    let committed = verdict.is_some_and(|s| s.is_committed());
                    let fired = fs.ops_attempted() > k;
                    assert!(
                        !committed || pristine,
                        "{case}: op {k} failed, got committed"
                    );
                    assert!(
                        !(committed && fired && every_op_counts),
                        "{case}: op {k} failed and the verdict is still committed"
                    );
                    if !fired {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn scan_classifies_committed_quarantined_and_staging() {
        let dir = tempfile::tempdir().unwrap();
        // Committed checkpoint at step 10.
        let good = CheckpointPaths::under(dir.path(), 10);
        std::fs::create_dir_all(&good.dir).unwrap();
        let manifest = br#"{"step":10,"units":[]}"#;
        std::fs::write(good.manifest(), manifest).unwrap();
        std::fs::write(good.commit_marker(), commit_marker_contents(10, manifest)).unwrap();
        // Unmarked dir at step 20 (torn save).
        let torn = CheckpointPaths::under(dir.path(), 20);
        std::fs::create_dir_all(&torn.dir).unwrap();
        // Staging leftover at step 30.
        let staging = CheckpointPaths::staging_under(dir.path(), 30);
        std::fs::create_dir_all(&staging.dir).unwrap();
        // Unrelated dir: ignored entirely.
        std::fs::create_dir_all(dir.path().join("logs")).unwrap();

        let report = scan_run_root(dir.path());
        assert_eq!(report.committed_steps(), vec![10]);
        assert_eq!(report.newest_committed().unwrap().step, 10);
        // Sealed bytes this build cannot parse stay committed; whoever
        // needs the manifest gets a typed error, not a guess.
        assert!(matches!(
            report.committed[0].manifest(),
            Err(CkptError::Json(_))
        ));
        assert_eq!(report.quarantined.len(), 2);
        let steps: Vec<Option<u64>> = report.quarantined.iter().map(|q| q.step).collect();
        assert!(steps.contains(&Some(20)));
        assert!(steps.contains(&Some(30)));
        for q in &report.quarantined {
            assert!(!q.status.is_committed());
            assert!(!q.status.describe().is_empty());
        }
    }

    #[test]
    fn total_bytes_walks_recursively() {
        let dir = tempfile::tempdir().unwrap();
        let cp = CheckpointPaths::under(dir.path(), 5);
        std::fs::create_dir_all(cp.global_step_dir()).unwrap();
        std::fs::write(cp.config(), b"{}").unwrap();
        std::fs::write(cp.optim_shard(0), vec![0u8; 100]).unwrap();
        assert_eq!(cp.total_bytes_on(&LocalFs).unwrap(), 102);
    }
}
