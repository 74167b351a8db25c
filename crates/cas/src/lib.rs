//! `llmt-cas` — content-addressed storage for layer-wise checkpoints.
//!
//! LLMTailor's checkpoints are separable per layer unit (the 2L+x
//! optimizer layout), which makes each unit's payload a natural dedup
//! granule: frozen layers, selective-save recipes, and Frankenstein
//! merges all re-emit byte-identical unit payloads. This crate stores
//! each payload once under `<run_root>/objects/`, keyed by a 256-bit
//! content digest, and leaves *referencing* those objects (manifests,
//! commit markers, GC liveness) to `llmt-ckpt` and `llmtailor`.
//!
//! See `DESIGN.md`, "Content-addressed layer store".

pub mod bases;
pub mod codec;
pub mod digest;
pub mod store;

pub use bases::BaseCache;
pub use codec::{Codec, ObjectKind};
pub use digest::{Digest, Hasher};
pub use store::{
    is_redirected, redirect_target, write_redirect, CompactReport, ObjectInfo, ObjectStore,
    PutObserver, PutOutcome, SweepMark, SweepReport, CASROOT_FILE, OBJECTS_DIR,
};
