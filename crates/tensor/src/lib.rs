#![warn(missing_docs)]
//! CPU tensor substrate for the LLMTailor reproduction.
//!
//! The paper's stack runs on PyTorch + CUDA; everything LLMTailor itself does
//! happens on *serialized* tensors (names, shapes, dtypes, raw bytes), while
//! the training loop only needs tensors that are real enough for loss curves
//! and resume-correctness to be meaningful. This crate provides both halves:
//!
//! * [`Tensor`] — an f32, row-major compute tensor with the kernels the
//!   transformer in `llmt-model` needs (rayon-parallel matmul, elementwise
//!   ops, reductions).
//! * [`RawTensor`] — a dtype-tagged byte container ([`DType::F32`],
//!   [`DType::BF16`], [`DType::F16`]) used by the checkpoint layer; software
//!   BF16/F16 conversion lives in [`dtype`].
//! * [`rng`] — a deterministic, seedable RNG façade so every experiment in
//!   the workspace is reproducible bit-for-bit.

pub mod dtype;
pub mod raw;
pub mod rng;
pub mod shape;
pub mod tensor;

pub use dtype::DType;
pub use raw::{RawTensor, RawView};
pub use shape::Shape;
pub use tensor::Tensor;
