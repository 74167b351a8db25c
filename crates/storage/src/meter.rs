//! Byte/file accounting for checkpoint traffic.

use crate::model::StorageModel;
use serde::{Deserialize, Serialize};

/// Wall-clock nanoseconds spent in each stage of the checkpoint engine's
/// save pipeline (snapshot → encode → place → commit). Integer nanos keep
/// the type `Copy`/`Eq` so it can ride inside [`IoTally`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimings {
    /// Capturing trainer state (copy-on-write block materialization for
    /// async saves; zero for sync saves, which borrow live state).
    pub snapshot_ns: u64,
    /// In-memory encode: tensor extraction, safetensors header building,
    /// content digests.
    pub encode_ns: u64,
    /// Payload placement: streaming file writes, object-store puts,
    /// hard links.
    pub place_ns: u64,
    /// Metadata files, COMMIT marker, atomic rename, and fsyncs.
    pub commit_ns: u64,
}

impl StageTimings {
    /// Merge another timing sample.
    pub fn absorb(&mut self, other: &StageTimings) {
        self.snapshot_ns += other.snapshot_ns;
        self.encode_ns += other.encode_ns;
        self.place_ns += other.place_ns;
        self.commit_ns += other.commit_ns;
    }

    /// Total seconds across all stages.
    pub fn total_secs(&self) -> f64 {
        (self.snapshot_ns + self.encode_ns + self.place_ns + self.commit_ns) as f64 * 1e-9
    }
}

/// Wall-clock nanoseconds spent in each stage of the restore engine's
/// load pipeline (enumerate → fetch → decode → validate → bind) — the
/// mirror image of [`StageTimings`]. The middle three stages run fused
/// per file on the rayon pool, so their nanos are summed across workers
/// (CPU time): under parallel restore `fetch_ns + decode_ns` can exceed
/// the pipeline's wall clock — the gap between the ledger's summed
/// `ckpt.restore.*` stage times and its `restore_ms` is that speedup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RestoreTimings {
    /// Metadata reads: config, zero metadata, trainer state, manifest,
    /// commit marker, and building the file fetch plan.
    pub enumerate_ns: u64,
    /// Chunked streaming reads through the `Storage` trait, including the
    /// incremental SHA-256 fed by every fetched byte.
    pub fetch_ns: u64,
    /// safetensors header parsing and tensor materialization.
    pub decode_ns: u64,
    /// Verify-on-read checks: file digests against manifest object refs,
    /// tensor digests/shapes against the manifest, shard-length checks.
    pub validate_ns: u64,
    /// Assembling canonical-order weights and (re)sharded optimizer
    /// rank states.
    pub bind_ns: u64,
}

impl RestoreTimings {
    /// Merge another timing sample.
    pub fn absorb(&mut self, other: &RestoreTimings) {
        self.enumerate_ns += other.enumerate_ns;
        self.fetch_ns += other.fetch_ns;
        self.decode_ns += other.decode_ns;
        self.validate_ns += other.validate_ns;
        self.bind_ns += other.bind_ns;
    }

    /// Total seconds across all stages.
    pub fn total_secs(&self) -> f64 {
        (self.enumerate_ns + self.fetch_ns + self.decode_ns + self.validate_ns + self.bind_ns)
            as f64
            * 1e-9
    }
}

/// Accumulated I/O volume of a training run's checkpoint activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoTally {
    /// Bytes written.
    pub bytes: u64,
    /// Files written.
    pub files: u64,
    /// Checkpoint events.
    pub events: u64,
    /// Bytes that were *not* written because the content-addressed store
    /// already held an identical object (dedup hits). `bytes` counts
    /// physical traffic; `bytes + dedup_saved` is the logical volume.
    #[serde(default)]
    pub dedup_saved: u64,
    /// Per-stage wall-clock time across all recorded saves.
    #[serde(default)]
    pub stages: StageTimings,
}

impl IoTally {
    /// Record one checkpoint of `bytes` across `files`.
    pub fn record(&mut self, bytes: u64, files: u64) {
        self.bytes += bytes;
        self.files += files;
        self.events += 1;
    }

    /// Record bytes a checkpoint avoided writing via deduplication.
    pub fn record_saved(&mut self, bytes: u64) {
        self.dedup_saved += bytes;
    }

    /// Record one save's per-stage timings.
    pub fn record_stages(&mut self, t: &StageTimings) {
        self.stages.absorb(t);
    }

    /// Merge another tally.
    pub fn absorb(&mut self, other: &IoTally) {
        self.bytes += other.bytes;
        self.files += other.files;
        self.events += other.events;
        self.dedup_saved += other.dedup_saved;
        self.stages.absorb(&other.stages);
    }

    /// Modeled write time of the whole tally under a storage model.
    pub fn modeled_write_time(&self, m: &StorageModel) -> f64 {
        m.write_time(self.bytes, self.files)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut t = IoTally::default();
        t.record(100, 2);
        t.record(50, 1);
        assert_eq!(t.bytes, 150);
        assert_eq!(t.files, 3);
        assert_eq!(t.events, 2);
    }

    #[test]
    fn absorb_merges() {
        let mut a = IoTally::default();
        a.record(10, 1);
        let mut b = IoTally::default();
        b.record(20, 2);
        a.absorb(&b);
        assert_eq!(a.bytes, 30);
        assert_eq!(a.files, 3);
        assert_eq!(a.events, 2);
    }

    #[test]
    fn stage_timings_accumulate_through_tally() {
        let mut t = IoTally::default();
        t.record_stages(&StageTimings {
            snapshot_ns: 1,
            encode_ns: 2,
            place_ns: 3,
            commit_ns: 4,
        });
        t.record_stages(&StageTimings {
            snapshot_ns: 10,
            encode_ns: 20,
            place_ns: 30,
            commit_ns: 40,
        });
        assert_eq!(
            t.stages,
            StageTimings {
                snapshot_ns: 11,
                encode_ns: 22,
                place_ns: 33,
                commit_ns: 44,
            }
        );
        let mut other = IoTally::default();
        other.record_stages(&t.stages);
        other.absorb(&t);
        assert_eq!(other.stages.snapshot_ns, 22);
        assert!((t.stages.total_secs() - 110e-9).abs() < 1e-15);
        // Old serialized tallies (no `stages` field) still deserialize.
        let legacy: IoTally = serde_json::from_str(r#"{"bytes":1,"files":1,"events":1}"#).unwrap();
        assert_eq!(legacy.stages, StageTimings::default());
    }

    #[test]
    fn modeled_time_uses_storage_model() {
        let mut t = IoTally::default();
        t.record(1_000_000_000, 10);
        let m = StorageModel {
            write_bw: 1e9,
            read_bw: 1e9,
            per_file_latency: 0.1,
        };
        assert!((t.modeled_write_time(&m) - 2.0).abs() < 1e-9);
    }
}
