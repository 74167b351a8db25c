#![warn(missing_docs)]
//! LLMTailor: layer-wise tailoring of LLM training checkpoints.
//!
//! This crate is the reproduction of the paper's contribution (§4): a
//! checkpoint-merging framework that filters and assembles *layers* from
//! multiple (possibly partial) checkpoints into one composite checkpoint
//! that is **fully resumable** — model weights, per-rank ZeRO optimizer
//! shards, and configuration files included. The interface follows
//! MergeKit's YAML-recipe style (§3) but, unlike MergeKit, handles
//! optimizer states, the auxiliary layers (`embed_tokens`, `norm`,
//! `lm_head`), and configuration metadata.
//!
//! Pipeline: a [`recipe::MergeRecipe`] (hand-written YAML or auto-generated
//! from a partial-checkpointing [`llmt_ckpt::manifest::SaveLog`] by
//! [`autorecipe`]) is resolved against the source checkpoints into a
//! validated [`plan::MergePlan`], which [`merge`] executes as one
//! [`llmt_ckpt::engine::save`] over the sources — fetching unit weights,
//! locating each unit's optimizer groups via the arithmetic
//! [`llmt_optim::GroupIndexMap`], assembling per-rank shard files in
//! parallel, and carrying the config over from the most recent source
//! (§4.4). [`strategy`] provides the paper's two selective
//! checkpointing policies (parity, §5.2; filtered, §5.3) plus the full
//! baseline.

pub mod autorecipe;
pub mod convert;
pub mod diff;
pub mod dynamic;
pub mod error;
pub mod gc;
pub mod merge;
pub mod plan;
pub mod recipe;
pub mod report;
pub mod retention;
pub mod strategy;

pub use convert::{convert_checkpoint, convert_checkpoint_on, ConvertReport, TargetLayout};
pub use diff::{diff_checkpoints, UnitDiff};
pub use dynamic::{MagnitudeStrategy, UnitDelta};
pub use error::{PlanError, Result, TailorError};
pub use gc::{
    collect_garbage, collect_garbage_on, compact_run, compact_run_on, du_run, DuReport, GcReport,
};
pub use merge::{execute_plan, merge_with_recipe, LoadPattern, MergeReport};
pub use plan::MergePlan;
pub use recipe::{MergeRecipe, SliceSpec};
pub use report::{summarize_events, summarize_run, KindSummary, RunSummary};
pub use retention::{prunable_steps, prune_run};
pub use strategy::{FilterStrategy, FullStrategy, ParityStrategy, SelectionStrategy, StrategyKind};
