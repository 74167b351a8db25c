//! Std-only stand-in for `serde_yaml`. JSON is a subset of YAML (flow
//! style), so this writes JSON and reads JSON: documents it wrote itself
//! round-trip, block-style YAML written by hand is refused with an error
//! rather than misread. Nothing on the ledger's measured paths parses
//! YAML; the workspace only needs the crate to resolve and compile.

pub use serde_json::{Error, Value};

/// `Result` with this crate's error.
pub type Result<T> = std::result::Result<T, Error>;

/// Flow-style (JSON) YAML text of `value`.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    serde_json::to_string_pretty(value).map(|s| s + "\n")
}

/// Parse flow-style (JSON) YAML text into `T`.
pub fn from_str<'a, T: serde::Deserialize<'a>>(s: &'a str) -> Result<T> {
    serde_json::from_str(s)
}
