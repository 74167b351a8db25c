#![warn(missing_docs)]
//! Checkpoint substrate: serialization format and directory layout.
//!
//! Mirrors what the paper's stack produces on disk:
//! * a consolidated BF16 `model.safetensors` (our [`safetensors`] module is
//!   wire-compatible with the safetensors spec),
//! * per-rank ZeRO optimizer shard files under `global_step{N}/`
//!   (FP32 master + exp_avg + exp_avg_sq per parameter group, paper §2.2),
//! * `config.json` / `trainer_state.json` / `latest` metadata files
//!   (paper §4.4), and
//! * a `partial_manifest.json` recording which units a *partial* checkpoint
//!   actually contains — the artifact the paper's selective strategies
//!   produce and LLMTailor consumes.
//!
//! [`engine::save`] is the single save pipeline (enumerate → snapshot →
//! encode → place → commit) and the one function that stages and commits
//! a checkpoint; [`writer`] holds its request and report types. [`restore`] is its mirror
//! image on the read side (enumerate → fetch → decode → validate → bind):
//! parallel chunked fetches with verify-on-read digests and optimizer
//! resharding-on-load, behind resume, recovery, merge sources and deep
//! verification. [`reader`] loads them
//! either eagerly (whole-file, the paper's semantics: "the optimizer state
//! can only be accessed after the checkpoint is fully loaded") or lazily
//! by byte range (the improvement the paper's §5.4 closing remark
//! anticipates).
//!
//! Saves are *crash-consistent*: staged into `checkpoint-<N>.tmp`, synced
//! file by file, sealed with a `COMMIT` marker carrying the manifest
//! digest, then atomically renamed. [`layout::scan_run_root`] classifies
//! directories that fail these checks as quarantined; recovery and
//! retention only ever count committed checkpoints. All I/O goes through
//! `llmt_storage::vfs::Storage`, so the chaos suite can kill a save at any
//! individual I/O operation.

pub mod engine;
pub mod error;
pub mod layout;
pub mod manifest;
pub mod reader;
pub mod restore;
pub mod safetensors;
pub mod trainer_state;
pub mod verify;
pub mod writer;
pub mod zero_meta;

pub use engine::{
    is_admission_error, LiveState, Parallelism, PlacedSave, SaveOptions, StateSource,
    DEFAULT_CHUNK_BYTES,
};
pub use error::{CkptError, Result};
pub use layout::{
    read_seal, scan_run_root, scan_run_root_on, CheckpointPaths, CommitStatus, QuarantinedDir,
    ScanReport, Seal, SealedCheckpoint,
};
pub use manifest::{
    census_run_roots, effective_save_log, CasRefs, Census, ObjectRef, PartialManifest,
};
pub use reader::{CheckpointHandle, LoadMode};
pub use restore::{
    restore_checkpoint, restore_checkpoint_on, restore_checkpoint_with, RestoreReport,
    RestoreRequest, RestoreScope, RestoredState,
};
pub use trainer_state::TrainerState;
pub use verify::{verify_checkpoint, verify_checkpoint_on, VerifyReport};
pub use writer::{BaseCache, CheckpointReport, SaveRequest};
pub use zero_meta::ZeroMeta;
