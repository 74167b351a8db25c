//! f32 compute tensor with the kernels the transformer needs.
//!
//! Storage is always row-major `Vec<f32>`; mixed precision is simulated by
//! rounding through BF16 at well-defined points (see `llmt-zero`), not by
//! carrying narrow dtypes through compute. The three matmul variants map
//! onto the three products a linear layer's forward/backward needs, so the
//! model crate never has to materialize a transpose.

use crate::dtype::{bf16_round, DType};
use crate::raw::RawTensor;
use crate::rng::Prng;
use crate::shape::Shape;
use rayon::prelude::*;

/// Row-major f32 tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zero tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Constant-filled tensor.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Wrap an existing buffer. Panics on length/shape mismatch.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer length {} does not match shape {}",
            data.len(),
            shape
        );
        Tensor { shape, data }
    }

    /// Gaussian init with the given std (mean 0).
    pub fn randn(shape: impl Into<Shape>, std: f32, rng: &mut Prng) -> Self {
        let shape = shape.into();
        let mut data = vec![0.0f32; shape.numel()];
        rng.fill_normal(&mut data, 0.0, std);
        Tensor { shape, data }
    }

    /// Shape accessor.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable element view.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable element view.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterpret with a new shape of identical numel.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            self.numel(),
            shape.numel(),
            "reshape {} -> {} changes element count",
            self.shape,
            shape
        );
        self.shape = shape;
        self
    }

    /// Serialize to a [`RawTensor`] in the given storage dtype.
    pub fn to_raw(&self, dtype: DType) -> RawTensor {
        RawTensor::from_f32s(&self.data, self.shape.clone(), dtype)
    }

    /// Deserialize from a [`RawTensor`] (decoding to f32).
    pub fn from_raw(raw: &RawTensor) -> Self {
        Tensor {
            shape: raw.shape().clone(),
            data: raw.to_f32s(),
        }
    }

    /// Round every element through BF16 precision in place — the simulated
    /// "cast the master weights down to the BF16 model copy" step.
    pub fn quantize_bf16_(&mut self) {
        for v in &mut self.data {
            *v = bf16_round(*v);
        }
    }

    /// Element-wise `self += other`. Panics on shape mismatch.
    pub fn add_(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }

    /// Element-wise `self += alpha * other`.
    pub fn axpy_(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy_: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * *b;
        }
    }

    /// Scale all elements in place.
    pub fn scale_(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Zero all elements, keeping the allocation.
    pub fn zero_(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all elements (f64 accumulation for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|v| *v as f64).sum()
    }

    /// L2 norm of all elements.
    pub fn l2_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|v| (*v as f64).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Matrix product `C[m,n] = A[m,k] · B[k,n]`, parallel over rows of C.
    pub fn matmul(&self, b: &Tensor) -> Tensor {
        let (m, k) = self.shape.as_matrix();
        let (kb, n) = b.shape.as_matrix();
        assert_eq!(k, kb, "matmul: inner dims {k} vs {kb}");
        let mut out = vec![0.0f32; m * n];
        let a = &self.data;
        let bd = &b.data;
        out.par_chunks_mut(n).enumerate().for_each(|(i, row)| {
            let arow = &a[i * k..(i + 1) * k];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &bd[p * n..(p + 1) * n];
                for (r, &bv) in row.iter_mut().zip(brow.iter()) {
                    *r += av * bv;
                }
            }
        });
        Tensor::from_vec([m, n], out)
    }

    /// Matrix product with transposed right operand:
    /// `C[m,n] = A[m,k] · B[n,k]ᵀ`. This is a linear layer's forward pass
    /// with a `[out, in]` weight, and is the cache-friendly orientation.
    pub fn matmul_bt(&self, b: &Tensor) -> Tensor {
        let (m, k) = self.shape.as_matrix();
        let (n, kb) = b.shape.as_matrix();
        assert_eq!(k, kb, "matmul_bt: inner dims {k} vs {kb}");
        let mut out = vec![0.0f32; m * n];
        let a = &self.data;
        let bd = &b.data;
        out.par_chunks_mut(n).enumerate().for_each(|(i, row)| {
            let arow = &a[i * k..(i + 1) * k];
            for (j, r) in row.iter_mut().enumerate() {
                let brow = &bd[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (av, bv) in arow.iter().zip(brow.iter()) {
                    acc += av * bv;
                }
                *r = acc;
            }
        });
        Tensor::from_vec([m, n], out)
    }

    /// Matrix product with transposed left operand:
    /// `C[m,n] = A[k,m]ᵀ · B[k,n]`. This is the weight-gradient product
    /// `dW = dYᵀ · X` of a linear layer.
    pub fn matmul_at(&self, b: &Tensor) -> Tensor {
        let (k, m) = self.shape.as_matrix();
        let (kb, n) = b.shape.as_matrix();
        assert_eq!(k, kb, "matmul_at: inner dims {k} vs {kb}");
        let mut out = vec![0.0f32; m * n];
        let a = &self.data;
        let bd = &b.data;
        out.par_chunks_mut(n).enumerate().for_each(|(i, row)| {
            for r in 0..k {
                let av = a[r * m + i];
                if av == 0.0 {
                    continue;
                }
                let brow = &bd[r * n..(r + 1) * n];
                for (o, &bv) in row.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        });
        Tensor::from_vec([m, n], out)
    }

    /// Explicit 2-D transpose (rarely needed thanks to the fused variants).
    pub fn transpose2(&self) -> Tensor {
        let (m, n) = self.shape.as_matrix();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec([n, m], out)
    }

    /// Add a `[n]` bias vector to every row of an `[m, n]` matrix in place.
    pub fn add_row_bias_(&mut self, bias: &Tensor) {
        let (_, n) = self.shape.as_matrix();
        assert_eq!(bias.numel(), n, "bias length mismatch");
        for row in self.data.chunks_exact_mut(n) {
            for (r, b) in row.iter_mut().zip(bias.data.iter()) {
                *r += *b;
            }
        }
    }

    /// Row `i` of a rank-2 tensor.
    pub fn row(&self, i: usize) -> &[f32] {
        let (m, n) = self.shape.as_matrix();
        assert!(i < m, "row {i} out of {m}");
        &self.data[i * n..(i + 1) * n]
    }

    /// Mutable row `i` of a rank-2 tensor.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let (m, n) = self.shape.as_matrix();
        assert!(i < m, "row {i} out of {m}");
        &mut self.data[i * n..(i + 1) * n]
    }

    /// In-place numerically-stable softmax over the last dimension of a
    /// rank-2 tensor.
    pub fn softmax_rows_(&mut self) {
        let (_, n) = self.shape.as_matrix();
        self.data.par_chunks_mut(n).for_each(|row| {
            softmax_slice(row);
        });
    }
}

/// Stable softmax over one slice, in place.
pub fn softmax_slice(row: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |m, v| m.max(*v));
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Dot product of equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape().as_matrix();
        let (_, n) = b.shape().as_matrix();
        let mut out = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.data()[i * k + p] * b.data()[p * n + j];
                }
                out.data_mut()[i * n + j] = acc;
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = Prng::seed_from_u64(1);
        let a = Tensor::randn([7, 5], 1.0, &mut rng);
        let b = Tensor::randn([5, 9], 1.0, &mut rng);
        assert_close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-5);
    }

    #[test]
    fn matmul_bt_matches_naive_with_transpose() {
        let mut rng = Prng::seed_from_u64(2);
        let a = Tensor::randn([4, 6], 1.0, &mut rng);
        let b = Tensor::randn([3, 6], 1.0, &mut rng);
        assert_close(&a.matmul_bt(&b), &naive_matmul(&a, &b.transpose2()), 1e-5);
    }

    #[test]
    fn matmul_at_matches_naive_with_transpose() {
        let mut rng = Prng::seed_from_u64(3);
        let a = Tensor::randn([6, 4], 1.0, &mut rng);
        let b = Tensor::randn([6, 3], 1.0, &mut rng);
        assert_close(&a.matmul_at(&b), &naive_matmul(&a.transpose2(), &b), 1e-5);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_rejects_mismatched_inner_dims() {
        Tensor::zeros([2, 3]).matmul(&Tensor::zeros([4, 2]));
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let mut t = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        t.softmax_rows_();
        for i in 0..2 {
            let s: f32 = t.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(t.row(i).iter().all(|v| *v > 0.0));
        }
        // Larger logits get larger probabilities.
        assert!(t.data()[2] > t.data()[1] && t.data()[1] > t.data()[0]);
    }

    #[test]
    fn softmax_survives_large_logits() {
        let mut t = Tensor::from_vec([1, 3], vec![1e4, 1e4 + 1.0, 1e4 - 1.0]);
        t.softmax_rows_();
        assert!(t.data().iter().all(|v| v.is_finite()));
        let s: f32 = t.data().iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], vec![0., 1., 2., 3., 4., 5.]).reshape([3, 2]);
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.row(2), &[4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "element count")]
    fn reshape_rejects_bad_numel() {
        Tensor::zeros([2, 3]).reshape([4, 2]);
    }

    #[test]
    fn raw_round_trip_f32_is_bit_exact() {
        let mut rng = Prng::seed_from_u64(4);
        let t = Tensor::randn([3, 3], 2.0, &mut rng);
        let back = Tensor::from_raw(&t.to_raw(DType::F32));
        assert_eq!(t, back);
    }

    #[test]
    fn quantize_bf16_matches_raw_cast() {
        let mut rng = Prng::seed_from_u64(5);
        let mut t = Tensor::randn([4, 4], 1.0, &mut rng);
        let via_raw = Tensor::from_raw(&t.to_raw(DType::BF16));
        t.quantize_bf16_();
        assert_eq!(t, via_raw);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_vec([2], vec![1.0, 2.0]);
        let b = Tensor::from_vec([2], vec![10.0, 20.0]);
        a.axpy_(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
        a.scale_(2.0);
        assert_eq!(a.data(), &[12.0, 24.0]);
    }

    #[test]
    fn add_row_bias() {
        let mut a = Tensor::from_vec([2, 2], vec![0.0, 0.0, 1.0, 1.0]);
        a.add_row_bias_(&Tensor::from_vec([2], vec![5.0, 7.0]));
        assert_eq!(a.data(), &[5.0, 7.0, 6.0, 8.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([3], vec![3.0, -4.0, 0.0]);
        assert_eq!(t.sum(), -1.0);
        assert!((t.l2_norm() - 5.0).abs() < 1e-9);
        assert_eq!(t.max_abs(), 4.0);
    }
}
