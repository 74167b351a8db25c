//! Storage dtypes and software BF16 / F16 conversion.
//!
//! Mixed-precision training (paper §2.2) keeps BF16 model weights next to
//! FP32 master weights and FP32 Adam moments; the 7× checkpoint-size ratio
//! the paper reports is a direct consequence of this dtype layout. We
//! implement the conversions in software so the repository has no hardware
//! or `half`-crate dependency.

use serde::{Deserialize, Serialize};

/// Element type of a serialized tensor.
///
/// String forms match the safetensors spec (`"F32"`, `"BF16"`, `"F16"`) so
/// our container files are readable by other safetensors implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    /// IEEE 754 binary32.
    F32,
    /// bfloat16: 1 sign, 8 exponent, 7 mantissa bits (truncated binary32).
    BF16,
    /// IEEE 754 binary16.
    F16,
}

impl DType {
    /// Size of one element in bytes.
    #[inline]
    pub const fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::BF16 | DType::F16 => 2,
        }
    }

    /// safetensors header name.
    pub const fn as_str(self) -> &'static str {
        match self {
            DType::F32 => "F32",
            DType::BF16 => "BF16",
            DType::F16 => "F16",
        }
    }

    /// Parse a safetensors dtype name.
    pub fn from_str_opt(s: &str) -> Option<Self> {
        match s {
            "F32" => Some(DType::F32),
            "BF16" => Some(DType::BF16),
            "F16" => Some(DType::F16),
            _ => None,
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Convert an `f32` to bfloat16 bits with round-to-nearest-even.
///
/// This matches the rounding PyTorch uses for `.to(torch.bfloat16)`, so our
/// simulated mixed-precision quantization has the same numerics.
#[inline]
pub fn f32_to_bf16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Quiet NaN, preserving the sign bit.
        return ((bits >> 16) as u16) | 0x0040;
    }
    // Round to nearest even: add 0x7FFF plus the LSB of the kept part.
    let round_bit = (bits >> 16) & 1;
    ((bits.wrapping_add(0x7FFF + round_bit)) >> 16) as u16
}

/// Expand bfloat16 bits back to `f32` (exact).
#[inline]
pub fn bf16_bits_to_f32(bits: u16) -> f32 {
    f32::from_bits((bits as u32) << 16)
}

/// Round an `f32` through bfloat16 precision.
///
/// ```
/// use llmt_tensor::dtype::bf16_round;
/// assert_eq!(bf16_round(1.0), 1.0);          // exactly representable
/// assert_ne!(bf16_round(1.001), 1.001);      // rounds to 8-bit mantissa
/// ```
#[inline]
pub fn bf16_round(x: f32) -> f32 {
    bf16_bits_to_f32(f32_to_bf16_bits(x))
}

/// Convert an `f32` to IEEE binary16 bits with round-to-nearest-even.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf / NaN.
        return if mant == 0 {
            sign | 0x7C00
        } else {
            sign | 0x7E00 // quiet NaN
        };
    }

    // Re-bias: f32 bias 127, f16 bias 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7C00; // overflow to infinity
    }
    if unbiased >= -14 {
        // Normal range. Keep 10 mantissa bits, round to nearest even.
        let mant16 = mant >> 13;
        let rest = mant & 0x1FFF;
        let halfway = 0x1000;
        let mut out = sign | (((unbiased + 15) as u16) << 10) | (mant16 as u16);
        if rest > halfway || (rest == halfway && (mant16 & 1) == 1) {
            out = out.wrapping_add(1); // may carry into exponent: correct behaviour
        }
        return out;
    }
    if unbiased >= -25 {
        // Subnormal range: result = round(full * 2^(unbiased + 1)), where
        // `full` is the 24-bit significand representing 1.m * 2^23 and the
        // target ULP is 2^-24.
        let shift = (-unbiased - 1) as u32; // 14..=24
        let full = mant | 0x0080_0000; // implicit leading one
        let mant16 = full >> shift;
        let rest = full & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut out = sign | (mant16 as u16);
        if rest > halfway || (rest == halfway && (mant16 & 1) == 1) {
            out = out.wrapping_add(1); // may carry into the normal range: fine
        }
        return out;
    }
    sign // underflow to signed zero
}

/// Expand IEEE binary16 bits to `f32` (exact).
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1F) as u32;
    let mant = (bits & 0x03FF) as u32;

    if exp == 0x1F {
        return f32::from_bits(sign | 0x7F80_0000 | (mant << 13));
    }
    if exp == 0 {
        if mant == 0 {
            return f32::from_bits(sign);
        }
        // Subnormal: value = mant * 2^-24. Normalize the leading bit out of
        // the 10-bit field.
        let p = 31 - mant.leading_zeros(); // position of the leading one
        let exp32 = 127 - 24 + p;
        let mant_norm = (mant << (10 - p)) & 0x03FF;
        return f32::from_bits(sign | (exp32 << 23) | (mant_norm << 13));
    }
    f32::from_bits(sign | ((exp + 127 - 15) << 23) | (mant << 13))
}

/// Round an `f32` through binary16 precision.
#[inline]
pub fn f16_round(x: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x))
}

/// Encode a slice of `f32` into raw little-endian bytes of the given dtype.
///
/// Each arm is one `chunks_exact_mut` pass over a pre-sized buffer: no
/// per-element capacity check, so the F32 and BF16 arms vectorise.
pub fn encode_f32s(values: &[f32], dtype: DType) -> Vec<u8> {
    fn fill<const N: usize>(values: &[f32], to_bytes: impl Fn(f32) -> [u8; N]) -> Vec<u8> {
        let mut out = vec![0u8; values.len() * N];
        for (dst, v) in out.chunks_exact_mut(N).zip(values) {
            dst.copy_from_slice(&to_bytes(*v));
        }
        out
    }
    match dtype {
        DType::F32 => fill(values, f32::to_le_bytes),
        DType::BF16 => fill(values, |v| f32_to_bf16_bits(v).to_le_bytes()),
        DType::F16 => fill(values, |v| f32_to_f16_bits(v).to_le_bytes()),
    }
}

/// Decode raw little-endian bytes of the given dtype into `f32`s.
///
/// Returns `None` if the byte length is not a multiple of the element size.
/// Each arm collects an exact-size `chunks_exact` iterator, which writes
/// straight into the one allocation and vectorises.
pub fn decode_f32s(bytes: &[u8], dtype: DType) -> Option<Vec<f32>> {
    fn collect<const N: usize>(bytes: &[u8], from_bytes: impl Fn([u8; N]) -> f32) -> Vec<f32> {
        bytes
            .chunks_exact(N)
            .map(|c| from_bytes(c.try_into().expect("chunks_exact yields N bytes")))
            .collect()
    }
    if !bytes.len().is_multiple_of(dtype.size_bytes()) {
        return None;
    }
    Some(match dtype {
        DType::F32 => collect(bytes, f32::from_le_bytes),
        DType::BF16 => collect(bytes, |b| bf16_bits_to_f32(u16::from_le_bytes(b))),
        DType::F16 => collect(bytes, |b| f16_bits_to_f32(u16::from_le_bytes(b))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::BF16.size_bytes(), 2);
        assert_eq!(DType::F16.size_bytes(), 2);
    }

    #[test]
    fn dtype_names_round_trip() {
        for d in [DType::F32, DType::BF16, DType::F16] {
            assert_eq!(DType::from_str_opt(d.as_str()), Some(d));
        }
        assert_eq!(DType::from_str_opt("I64"), None);
    }

    #[test]
    fn bf16_exact_values_survive() {
        // Values with <=7 mantissa bits are exactly representable.
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, -3.5, 1024.0, 0.0078125] {
            assert_eq!(bf16_round(v), v, "value {v}");
        }
    }

    #[test]
    fn bf16_rounds_to_nearest_even() {
        // 1.0 + 2^-8 is exactly halfway between 1.0 and 1.0078125 in bf16;
        // round-to-even chooses 1.0 (mantissa even).
        let halfway = 1.0f32 + 2f32.powi(-8);
        assert_eq!(bf16_round(halfway), 1.0);
        // Just above halfway rounds up.
        let above = 1.0f32 + 2f32.powi(-8) + 2f32.powi(-12);
        assert_eq!(bf16_round(above), 1.0 + 2f32.powi(-7));
    }

    #[test]
    fn bf16_handles_specials() {
        assert!(bf16_bits_to_f32(f32_to_bf16_bits(f32::NAN)).is_nan());
        assert_eq!(bf16_round(f32::INFINITY), f32::INFINITY);
        assert_eq!(bf16_round(f32::NEG_INFINITY), f32::NEG_INFINITY);
        assert_eq!(bf16_round(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn f16_exact_values_survive() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, -3.5, 1024.0, 65504.0] {
            assert_eq!(f16_round(v), v, "value {v}");
        }
    }

    #[test]
    fn f16_overflow_saturates_to_infinity() {
        assert_eq!(f16_round(1e6), f32::INFINITY);
        assert_eq!(f16_round(-1e6), f32::NEG_INFINITY);
    }

    #[test]
    fn f16_subnormals() {
        let tiny = 2f32.powi(-24); // smallest positive f16 subnormal
        assert_eq!(f16_round(tiny), tiny);
        let half_tiny = 2f32.powi(-25); // halfway to zero: round-to-even -> 0
        assert_eq!(f16_round(half_tiny), 0.0);
        let sub = 2f32.powi(-20);
        assert_eq!(f16_round(sub), sub);
    }

    #[test]
    fn f16_specials() {
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        assert_eq!(f16_round(f32::INFINITY), f32::INFINITY);
        assert_eq!(f16_round(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn encode_decode_round_trip_f32() {
        let vals = vec![1.5f32, -2.25, 0.0, 1e-30];
        let bytes = encode_f32s(&vals, DType::F32);
        assert_eq!(decode_f32s(&bytes, DType::F32).unwrap(), vals);
    }

    #[test]
    fn encode_decode_round_trip_bf16() {
        let vals = vec![1.0f32, -0.5, 3.0, 128.0];
        let bytes = encode_f32s(&vals, DType::BF16);
        assert_eq!(bytes.len(), 8);
        assert_eq!(decode_f32s(&bytes, DType::BF16).unwrap(), vals);
    }

    #[test]
    fn decode_rejects_ragged_lengths() {
        assert!(decode_f32s(&[0u8; 3], DType::F32).is_none());
        assert!(decode_f32s(&[0u8; 3], DType::BF16).is_none());
    }

    /// [`encode_f32s`] as it stood before the `chunks_exact_mut` bodies,
    /// kept verbatim as the reference.
    fn encode_f32s_reference(values: &[f32], dtype: DType) -> Vec<u8> {
        let mut out = Vec::with_capacity(values.len() * dtype.size_bytes());
        match dtype {
            DType::F32 => {
                for v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            DType::BF16 => {
                for v in values {
                    out.extend_from_slice(&f32_to_bf16_bits(*v).to_le_bytes());
                }
            }
            DType::F16 => {
                for v in values {
                    out.extend_from_slice(&f32_to_f16_bits(*v).to_le_bytes());
                }
            }
        }
        out
    }

    /// [`decode_f32s`] as it stood before the `chunks_exact` collects.
    fn decode_f32s_reference(bytes: &[u8], dtype: DType) -> Option<Vec<f32>> {
        let esz = dtype.size_bytes();
        if !bytes.len().is_multiple_of(esz) {
            return None;
        }
        let mut out = Vec::with_capacity(bytes.len() / esz);
        match dtype {
            DType::F32 => {
                for c in bytes.chunks_exact(4) {
                    out.push(f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
                }
            }
            DType::BF16 => {
                for c in bytes.chunks_exact(2) {
                    out.push(bf16_bits_to_f32(u16::from_le_bytes([c[0], c[1]])));
                }
            }
            DType::F16 => {
                for c in bytes.chunks_exact(2) {
                    out.push(f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]])));
                }
            }
        }
        Some(out)
    }

    /// Bit patterns, so NaN payloads compare.
    fn bits(values: Option<Vec<f32>>) -> Option<Vec<u32>> {
        values.map(|v| v.into_iter().map(f32::to_bits).collect())
    }

    proptest! {
        /// Any byte string, ragged lengths included, decodes to what the
        /// per-element loop produced (`None` exactly where it did).
        #[test]
        fn decode_matches_the_reference(bytes in prop::collection::vec(any::<u8>(), 0..259)) {
            for dtype in [DType::F32, DType::BF16, DType::F16] {
                prop_assert_eq!(
                    bits(decode_f32s(&bytes, dtype)),
                    bits(decode_f32s_reference(&bytes, dtype))
                );
            }
        }

        /// Any `f32` bit patterns (NaNs, infinities, subnormals) encode to
        /// the bytes the per-element loop produced.
        #[test]
        fn encode_matches_the_reference(raw in prop::collection::vec(any::<u32>(), 0..67)) {
            let values: Vec<f32> = raw.into_iter().map(f32::from_bits).collect();
            for dtype in [DType::F32, DType::BF16, DType::F16] {
                prop_assert_eq!(
                    encode_f32s(&values, dtype),
                    encode_f32s_reference(&values, dtype)
                );
            }
        }
    }
}
