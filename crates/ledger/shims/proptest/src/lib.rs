//! Empty on purpose: see Cargo.toml.
