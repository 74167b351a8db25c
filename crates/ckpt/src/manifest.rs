//! Partial-checkpoint manifest and the cross-checkpoint save log.
//!
//! [`PartialManifest`] lives inside one checkpoint directory and lists the
//! units whose state is actually stored there, with content digests for
//! integrity checking. [`SaveLog`] is the run-level JSON the paper's
//! artifact appendix describes ("an optional JSON file that records the
//! partial checkpointing decisions"): for every unit, the steps at which it
//! was saved — exactly what LLMTailor needs to auto-generate a merge recipe
//! for a given failure step.
//!
//! Both folds over [`scan_run_root_on`]'s sealed manifests live here:
//! [`effective_save_log`] (units held) and [`census_run_roots`] (store
//! objects referenced — the GC liveness census).

use crate::error::{io_err, CkptError, Result};
use crate::layout::{census_scan, scan_run_root_on, ScanReport};
use llmt_cas::Digest;
use llmt_model::LayerUnit;
use llmt_storage::vfs::{LocalFs, Storage};
use llmt_zero::Topology;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Reference to one content-addressed object backing part of a
/// deduplicated checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectRef {
    /// 64-hex-char 256-bit content digest; the object lives at
    /// `<run_root>/objects/<hex[..2]>/<hex>.obj`.
    pub digest: String,
    /// Payload length in bytes.
    pub bytes: u64,
}

/// Object references of a deduplicated (CAS-backed) checkpoint.
///
/// These live *inside* the manifest on purpose: the COMMIT marker carries
/// a digest of the manifest bytes, so sealing a checkpoint atomically
/// seals its object references too — no second protocol needed, and a
/// reference is trusted iff its checkpoint is committed. GC liveness
/// derives from exactly this rule.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CasRefs {
    /// Unit key (canonical [`LayerUnit`] string) -> weights object.
    pub weights: BTreeMap<String, ObjectRef>,
    /// `rank<r>/group<g>` -> optimizer-state object.
    pub optim: BTreeMap<String, ObjectRef>,
}

impl CasRefs {
    /// Map key of the optimizer object for `(rank, gid)`.
    pub fn optim_key(rank: usize, gid: usize) -> String {
        format!("rank{rank}/group{gid}")
    }

    /// Every referenced object, weights then optimizer state.
    pub fn iter_all(&self) -> impl Iterator<Item = (&String, &ObjectRef)> {
        self.weights.iter().chain(self.optim.iter())
    }
}

/// Manifest of one (possibly partial) checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialManifest {
    /// Step the checkpoint was written at.
    pub step: u64,
    /// Units present, ascending canonical order.
    pub units: Vec<LayerUnit>,
    /// FNV-1a digest of each unit's weight tensors (name-keyed).
    pub weight_digests: BTreeMap<String, u64>,
    /// Whether the checkpoint claims to be complete.
    pub full: bool,
    /// Content-addressed object references, for deduplicated checkpoints
    /// whose payload files are hard links into `<run_root>/objects/`.
    /// `None` for conventional checkpoints (and for every pre-CAS
    /// manifest on disk, via the serde default).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub objects: Option<CasRefs>,
    /// dp×tp topology the checkpoint was saved at. Absent in pre-topology
    /// manifests, which are pure data-parallel.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub topology: Option<Topology>,
}

impl PartialManifest {
    /// Does the manifest contain a unit?
    pub fn has_unit(&self, unit: LayerUnit) -> bool {
        self.units.contains(&unit)
    }
}

/// Run-level log of which units were saved at which steps.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SaveLog {
    /// unit (canonical string) -> ascending list of steps it was saved at.
    pub saved_at: BTreeMap<String, Vec<u64>>,
}

impl SaveLog {
    /// Record that `unit` was saved at `step`.
    pub fn record(&mut self, unit: LayerUnit, step: u64) {
        let entry = self.saved_at.entry(unit.as_string()).or_default();
        debug_assert!(entry.last().is_none_or(|l| *l <= step));
        if entry.last() != Some(&step) {
            entry.push(step);
        }
    }

    /// The most recent step `<= failure_step` at which a unit was saved.
    pub fn latest_for(&self, unit: LayerUnit, failure_step: u64) -> Option<u64> {
        let steps = self.saved_at.get(&unit.as_string())?;
        steps.iter().rev().find(|s| **s <= failure_step).copied()
    }

    /// All units that appear anywhere in the log.
    pub fn units(&self) -> Result<Vec<LayerUnit>> {
        self.saved_at
            .keys()
            .map(|k| LayerUnit::parse(k).map_err(CkptError::Format))
            .collect()
    }

    /// Write to a JSON file through a [`Storage`], synced for durability.
    pub fn save_on(&self, storage: &dyn Storage, path: &Path) -> Result<()> {
        let json = serde_json::to_string_pretty(self)?;
        storage.write(path, json.as_bytes()).map_err(io_err(path))?;
        storage.sync(path).map_err(io_err(path))
    }

    /// Read from a JSON file through a [`Storage`].
    pub fn load_on(storage: &dyn Storage, path: &Path) -> Result<Self> {
        let bytes = storage.read(path).map_err(io_err(path))?;
        Ok(serde_json::from_slice(&bytes)?)
    }
}

/// The run's save log as it should be *trusted*: reconciled against the
/// commit markers actually on disk.
///
/// Three crash windows make the raw `save_log.json` unreliable:
///
/// * crash *during* a save — the log was never updated, but a torn
///   (quarantined) directory exists. Filtering log entries to committed
///   steps drops nothing here, but the scan flags the debris.
/// * crash *between* the commit rename and the log write — a fully
///   committed checkpoint exists that the log has never heard of.
///   Absorbing each committed directory's manifest closes that gap (and
///   covers a missing `save_log.json` entirely).
/// * crash *during* the log write — `save_log.json` is a torn prefix that
///   does not parse. It is read as empty: the manifests repeat every entry
///   it could hold for a committed step.
///
/// Returns the reconciled log plus the scan so callers can surface
/// quarantined directories. Reads `LocalFs`, like the resume, recovery and
/// retention passes that call it.
pub fn effective_save_log(run_root: &Path) -> Result<(SaveLog, ScanReport)> {
    let scan = scan_run_root_on(&LocalFs, run_root);
    let committed_steps: BTreeSet<u64> = scan.committed.iter().map(|c| c.step).collect();

    // Sets, not Vecs, while merging: log order + manifest absorption could
    // otherwise interleave steps out of order.
    let mut merged: BTreeMap<String, BTreeSet<u64>> = BTreeMap::new();
    let log_path = run_root.join("save_log.json");
    if LocalFs.exists(&log_path) {
        let logged = match SaveLog::load_on(&LocalFs, &log_path) {
            Ok(logged) => logged,
            Err(CkptError::Json(_)) => SaveLog::default(),
            Err(e) => return Err(e),
        };
        for (unit, steps) in &logged.saved_at {
            let kept: BTreeSet<u64> = steps
                .iter()
                .copied()
                .filter(|s| committed_steps.contains(s))
                .collect();
            if !kept.is_empty() {
                merged.entry(unit.clone()).or_default().extend(kept);
            }
        }
    }
    for cp in &scan.committed {
        let manifest = cp.manifest()?;
        for unit in &manifest.units {
            merged
                .entry(unit.as_string())
                .or_default()
                .insert(manifest.step);
        }
    }

    let log = SaveLog {
        saved_at: merged
            .into_iter()
            .map(|(unit, steps)| (unit, steps.into_iter().collect()))
            .collect(),
    };
    Ok((log, scan))
}

/// GC liveness census: the store objects committed checkpoints reference.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Census {
    /// Committed checkpoints whose references were counted.
    pub checkpoints: usize,
    /// Reference count per object digest.
    pub refs: BTreeMap<Digest, usize>,
}

impl Census {
    /// Count the references of checkpoint `dir`'s manifest — the only code
    /// that turns manifest refs into liveness digests. A malformed digest
    /// is an error, never a skipped entry.
    pub fn absorb(&mut self, dir: &Path, manifest: &PartialManifest) -> Result<()> {
        self.checkpoints += 1;
        for (key, object) in manifest.objects.iter().flat_map(CasRefs::iter_all) {
            let digest = Digest::parse_hex(&object.digest).map_err(|e| {
                CkptError::Format(format!(
                    "{} references malformed digest for '{key}': {e}; \
                     refusing to GC with unknown liveness",
                    dir.display()
                ))
            })?;
            *self.refs.entry(digest).or_insert(0) += 1;
        }
        Ok(())
    }
}

/// Census every committed checkpoint under `run_roots` through `storage`
/// — the storage the caller's sweep must then run on. One scan per root,
/// every seal read once; a sealed manifest that does not parse or carries
/// a malformed digest is an error, not a guess, and so is a root, marker or
/// manifest that is there but cannot be read (`census_scan`): "not found"
/// is "not committed", "unreadable" is a pass that may not sweep.
pub fn census_run_roots(storage: &dyn Storage, run_roots: &[impl AsRef<Path>]) -> Result<Census> {
    let mut census = Census::default();
    for root in run_roots {
        for cp in &census_scan(storage, root.as_ref())?.committed {
            census.absorb(&cp.dir, &cp.manifest()?)?;
        }
    }
    Ok(census)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trip() {
        let dir = tempfile::tempdir().unwrap();
        let p = dir.path().join("partial_manifest.json");
        let mut digests = BTreeMap::new();
        digests.insert("model.norm.weight".to_string(), 0xDEAD_BEEFu64);
        let m = PartialManifest {
            step: 100,
            units: vec![LayerUnit::EmbedTokens, LayerUnit::Transformer(1)],
            weight_digests: digests,
            full: false,
            objects: None,
            topology: None,
        };
        std::fs::write(&p, serde_json::to_string_pretty(&m).unwrap()).unwrap();
        let back: PartialManifest = serde_json::from_slice(&std::fs::read(&p).unwrap()).unwrap();
        assert_eq!(back, m);
        assert!(back.has_unit(LayerUnit::Transformer(1)));
        assert!(!back.has_unit(LayerUnit::FinalNorm));
    }

    #[test]
    fn save_log_latest_for_picks_most_recent_at_or_before() {
        let mut log = SaveLog::default();
        for s in [100u64, 200, 300] {
            log.record(LayerUnit::Transformer(0), s);
        }
        log.record(LayerUnit::Transformer(1), 200);
        assert_eq!(log.latest_for(LayerUnit::Transformer(0), 250), Some(200));
        assert_eq!(log.latest_for(LayerUnit::Transformer(0), 300), Some(300));
        assert_eq!(log.latest_for(LayerUnit::Transformer(0), 99), None);
        assert_eq!(log.latest_for(LayerUnit::Transformer(1), 400), Some(200));
        assert_eq!(log.latest_for(LayerUnit::LmHead, 400), None);
    }

    #[test]
    fn save_log_deduplicates_same_step() {
        let mut log = SaveLog::default();
        log.record(LayerUnit::FinalNorm, 100);
        log.record(LayerUnit::FinalNorm, 100);
        assert_eq!(log.saved_at["norm"], vec![100]);
    }

    #[test]
    fn effective_log_drops_uncommitted_and_absorbs_unlogged_commits() {
        use crate::layout::{commit_marker_contents, CheckpointPaths};

        let dir = tempfile::tempdir().unwrap();

        let write_ckpt = |step: u64, committed: bool| {
            let cp = CheckpointPaths::under(dir.path(), step);
            std::fs::create_dir_all(&cp.dir).unwrap();
            let m = PartialManifest {
                step,
                units: vec![LayerUnit::FinalNorm],
                weight_digests: BTreeMap::new(),
                full: false,
                objects: None,
                topology: None,
            };
            std::fs::write(cp.manifest(), serde_json::to_string_pretty(&m).unwrap()).unwrap();
            if committed {
                let bytes = std::fs::read(cp.manifest()).unwrap();
                std::fs::write(cp.commit_marker(), commit_marker_contents(step, &bytes)).unwrap();
            }
        };
        write_ckpt(10, true);
        write_ckpt(20, false); // torn: manifest written, marker never made it
        write_ckpt(30, true); // committed but crash hit before the log write

        // The log knows about 10 and the torn 20, but not the committed 30.
        let mut log = SaveLog::default();
        log.record(LayerUnit::FinalNorm, 10);
        log.record(LayerUnit::FinalNorm, 20);
        log.save_on(&LocalFs, &dir.path().join("save_log.json"))
            .unwrap();

        let (eff, scan) = effective_save_log(dir.path()).unwrap();
        assert_eq!(eff.saved_at["norm"], vec![10, 30]);
        assert_eq!(scan.committed_steps(), vec![10, 30]);
        assert_eq!(scan.quarantined.len(), 1);
        assert_eq!(scan.quarantined[0].step, Some(20));

        // A crash tore the log itself mid-write: the manifests carry on.
        let log_path = dir.path().join("save_log.json");
        let whole = std::fs::read(&log_path).unwrap();
        std::fs::write(&log_path, &whole[..whole.len() / 2]).unwrap();
        let (eff, _) = effective_save_log(dir.path()).unwrap();
        assert_eq!(eff.saved_at["norm"], vec![10, 30]);
    }

    #[test]
    fn effective_log_works_without_save_log_file() {
        use crate::layout::{commit_marker_contents, CheckpointPaths};

        let dir = tempfile::tempdir().unwrap();
        let cp = CheckpointPaths::under(dir.path(), 5);
        std::fs::create_dir_all(&cp.dir).unwrap();
        let m = PartialManifest {
            step: 5,
            units: vec![LayerUnit::EmbedTokens],
            weight_digests: BTreeMap::new(),
            full: false,
            objects: None,
            topology: None,
        };
        std::fs::write(cp.manifest(), serde_json::to_string_pretty(&m).unwrap()).unwrap();
        let bytes = std::fs::read(cp.manifest()).unwrap();
        std::fs::write(cp.commit_marker(), commit_marker_contents(5, &bytes)).unwrap();

        let (eff, scan) = effective_save_log(dir.path()).unwrap();
        assert_eq!(eff.saved_at["embed_tokens"], vec![5]);
        assert_eq!(scan.committed_steps(), vec![5]);
    }

    #[test]
    fn save_log_round_trip_and_units() {
        let dir = tempfile::tempdir().unwrap();
        let p = dir.path().join("save_log.json");
        let mut log = SaveLog::default();
        log.record(LayerUnit::EmbedTokens, 50);
        log.record(LayerUnit::Transformer(3), 50);
        log.save_on(&LocalFs, &p).unwrap();
        let back = SaveLog::load_on(&LocalFs, &p).unwrap();
        assert_eq!(back, log);
        let mut units = back.units().unwrap();
        units.sort();
        assert_eq!(
            units,
            vec![LayerUnit::EmbedTokens, LayerUnit::Transformer(3)]
        );
    }
}
