//! Dtype-tagged raw tensors — the unit of currency of checkpoint files.
//!
//! LLMTailor never needs to *compute* on checkpointed tensors: merging is a
//! matter of locating named tensors and moving their bytes. `RawTensor`
//! therefore stores little-endian bytes plus a [`DType`] and [`Shape`], and
//! only converts to `f32` at the training boundary.

use crate::dtype::{self, DType};
use crate::shape::Shape;

/// A serialized tensor: dtype + shape + little-endian bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct RawTensor {
    dtype: DType,
    shape: Shape,
    data: Vec<u8>,
}

impl RawTensor {
    /// Wrap existing bytes. Panics if the byte length does not match
    /// `shape.numel() * dtype.size_bytes()`.
    pub fn from_bytes(dtype: DType, shape: impl Into<Shape>, data: Vec<u8>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel() * dtype.size_bytes(),
            "byte length {} does not match shape {} of dtype {}",
            data.len(),
            shape,
            dtype
        );
        RawTensor { dtype, shape, data }
    }

    /// Encode `f32` values into the given storage dtype.
    pub fn from_f32s(values: &[f32], shape: impl Into<Shape>, dtype: DType) -> Self {
        let shape = shape.into();
        assert_eq!(
            values.len(),
            shape.numel(),
            "value count {} does not match shape {}",
            values.len(),
            shape
        );
        let data = dtype::encode_f32s(values, dtype);
        RawTensor { dtype, shape, data }
    }

    /// Storage dtype.
    #[inline]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Raw little-endian bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Size on disk in bytes.
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Consume into the backing byte buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.data
    }

    /// Decode to `f32` values (lossless for all supported dtypes).
    pub fn to_f32s(&self) -> Vec<f32> {
        self.view().to_f32s()
    }

    /// Re-encode into another storage dtype (rounding if narrowing).
    pub fn cast(&self, dtype: DType) -> RawTensor {
        if dtype == self.dtype {
            return self.clone();
        }
        RawTensor::from_f32s(&self.to_f32s(), self.shape.clone(), dtype)
    }

    /// Borrow as a [`RawView`].
    pub fn view(&self) -> RawView<'_> {
        RawView {
            dtype: self.dtype,
            shape: &self.shape,
            data: &self.data,
        }
    }

    /// A cheap non-cryptographic digest of the contents (FNV-1a over dtype,
    /// shape and bytes). Used for checkpoint integrity manifests.
    pub fn digest(&self) -> u64 {
        self.view().digest()
    }
}

/// A [`RawTensor`] whose bytes are borrowed — a tensor still inside the
/// file image it was read in. The restore path checks tensors in this
/// form and copies out only what it keeps, in the form it keeps it in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawView<'a> {
    dtype: DType,
    shape: &'a Shape,
    data: &'a [u8],
}

impl<'a> RawView<'a> {
    /// View `data` as a tensor. `None` if the byte length does not match
    /// `shape.numel() * dtype.size_bytes()`.
    pub fn new(dtype: DType, shape: &'a Shape, data: &'a [u8]) -> Option<Self> {
        (data.len() == shape.numel().checked_mul(dtype.size_bytes())?).then_some(RawView {
            dtype,
            shape,
            data,
        })
    }

    /// Storage dtype.
    #[inline]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Shape.
    #[inline]
    pub fn shape(&self) -> &'a Shape {
        self.shape
    }

    /// Raw little-endian bytes.
    #[inline]
    pub fn bytes(&self) -> &'a [u8] {
        self.data
    }

    /// Copy into an owned tensor.
    pub fn to_raw(&self) -> RawTensor {
        RawTensor {
            dtype: self.dtype,
            shape: self.shape.clone(),
            data: self.data.to_vec(),
        }
    }

    /// Decode to `f32` values (lossless for all supported dtypes).
    pub fn to_f32s(&self) -> Vec<f32> {
        dtype::decode_f32s(self.data, self.dtype)
            .expect("RawView invariant guarantees aligned byte length")
    }

    /// [`RawTensor::digest`] of the owned copy, without making one.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.dtype.as_str().as_bytes());
        for d in self.shape.dims() {
            h.write(&(*d as u64).to_le_bytes());
        }
        h.write(self.data);
        h.finish()
    }
}

/// Minimal FNV-1a 64-bit hasher (stable across platforms and runs, unlike
/// `DefaultHasher`, which is seeded).
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Absorb bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Final digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_f32s_round_trips_f32() {
        let t = RawTensor::from_f32s(&[1.0, 2.0, 3.0, 4.0], [2, 2], DType::F32);
        assert_eq!(t.to_f32s(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.byte_len(), 16);
    }

    #[test]
    fn bf16_cast_narrows_then_widens_losslessly() {
        let t = RawTensor::from_f32s(&[1.0, 0.5, -2.0], [3], DType::BF16);
        assert_eq!(t.byte_len(), 6);
        let wide = t.cast(DType::F32);
        assert_eq!(wide.to_f32s(), vec![1.0, 0.5, -2.0]);
        // Widening then narrowing again is idempotent.
        assert_eq!(wide.cast(DType::BF16), t);
    }

    #[test]
    #[should_panic(expected = "byte length")]
    fn from_bytes_validates_length() {
        RawTensor::from_bytes(DType::F32, [2, 2], vec![0u8; 15]);
    }

    #[test]
    #[should_panic(expected = "value count")]
    fn from_f32s_validates_count() {
        RawTensor::from_f32s(&[1.0], [2, 2], DType::F32);
    }

    #[test]
    fn digest_is_content_sensitive() {
        let a = RawTensor::from_f32s(&[1.0, 2.0], [2], DType::F32);
        let b = RawTensor::from_f32s(&[1.0, 2.5], [2], DType::F32);
        let c = RawTensor::from_f32s(&[1.0, 2.0], [2, 1], DType::F32);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest(), "shape participates in digest");
        assert_eq!(a.digest(), a.clone().digest());
    }

    #[test]
    fn view_agrees_with_the_owned_tensor() {
        let t = RawTensor::from_f32s(&[1.0, -0.5, 3.0, 128.0], [2, 2], DType::BF16);
        let v = RawView::new(t.dtype(), t.shape(), t.bytes()).unwrap();
        assert_eq!(v, t.view());
        assert_eq!(v.digest(), t.digest());
        assert_eq!(v.to_f32s(), t.to_f32s());
        assert_eq!(v.to_raw(), t);
        // One byte short of the shape is not a tensor.
        assert!(RawView::new(t.dtype(), t.shape(), &t.bytes()[1..]).is_none());
    }

    #[test]
    fn cast_same_dtype_is_identity() {
        let t = RawTensor::from_f32s(&[0.1, 0.2], [2], DType::F32);
        assert_eq!(t.cast(DType::F32), t);
    }
}
