#![warn(missing_docs)]
//! Training harness: the loop that produces checkpoints, fails, and
//! resumes — the substrate for every experiment in §5.
//!
//! [`trainer::Trainer`] runs post-training (CPT or SFT) on the synthetic
//! datasets with ZeRO-sharded AdamW, invoking a
//! [`llmtailor::SelectionStrategy`] at every checkpoint interval and
//! recording the decisions in a [`llmt_ckpt::manifest::SaveLog`].
//! [`resume`] rebuilds a trainer from any *full* checkpoint — including the
//! Frankenstein checkpoints LLMTailor assembles — restoring model weights,
//! optimizer shards, step counters and the data-order RNG so that a
//! resumed run is bit-identical to an uninterrupted one when the state is.
//! [`recover`] is the whole failure-recovery workflow from the artifact
//! appendix: save-log JSON -> auto-generated recipe -> merge -> resume.

pub mod async_ckpt;
pub mod recover;
pub mod report;
pub mod resume;
pub mod snapshot;
pub mod trainer;

pub use async_ckpt::{AsyncCheckpointer, SnapshotJob};
pub use recover::recover_checkpoint;
pub use report::RunReport;
pub use resume::{resume_trainer, resume_trainer_on};
pub use snapshot::{CowSnapshot, SnapshotTracker, StagedGauge, UnitBlock};
pub use trainer::{Trainer, TrainerConfig};
