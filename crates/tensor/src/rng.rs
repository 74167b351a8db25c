//! Deterministic, serializable PRNG.
//!
//! Checkpoint resume must restore *everything whose state evolves during
//! optimization* (paper §2.2) — including the data-order RNG, which the
//! trainer records in `trainer_state.json`. `std` and `rand` RNGs do not
//! expose their state for serialization, so we carry a small xoshiro256**
//! generator whose 4×u64 state round-trips through serde.

use serde::{Deserialize, Serialize};

/// xoshiro256** generator with serializable state.
///
/// ```
/// use llmt_tensor::rng::Prng;
/// let mut a = Prng::seed_from_u64(42);
/// let mut b = a.clone(); // state is plain data: resume == continue
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.below(10) < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Prng {
    state: [u64; 4],
}

#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Prng {
    /// Seed deterministically from a single u64 (via SplitMix64, as the
    /// xoshiro authors recommend).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut s = seed;
        let state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        Prng { state }
    }

    /// Next raw 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in [0, 1).
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in [0, n). Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased sampling.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        let n = n as u64;
        let threshold = n.wrapping_neg() % n; // 2^64 mod n
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    /// Standard normal sample (Box–Muller; one value per call, the pair's
    /// partner is discarded to keep state handling simple).
    pub fn normal(&mut self) -> f32 {
        loop {
            let u1 = self.uniform();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let u2 = self.uniform();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            return (r * theta.cos()) as f32;
        }
    }

    /// Normal with mean/std.
    #[inline]
    pub fn normal_scaled(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Fill a buffer with scaled normals.
    pub fn fill_normal(&mut self, buf: &mut [f32], mean: f32, std: f32) {
        for v in buf.iter_mut() {
            *v = self.normal_scaled(mean, std);
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Raw state, for debugging / golden tests.
    pub fn state(&self) -> [u64; 4] {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Prng::seed_from_u64(42);
        let mut b = Prng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn serde_round_trip_resumes_stream() {
        let mut a = Prng::seed_from_u64(7);
        for _ in 0..13 {
            a.next_u64();
        }
        let json = serde_json::to_string(&a).unwrap();
        let mut b: Prng = serde_json::from_str(&json).unwrap();
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut r = Prng::seed_from_u64(3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Prng::seed_from_u64(9);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let k = r.below(7);
            assert!(k < 7);
            seen[k] = true;
        }
        assert!(seen.iter().all(|s| *s), "all residues hit");
    }

    #[test]
    fn normal_has_sane_moments() {
        let mut r = Prng::seed_from_u64(11);
        let n = 50_000;
        let samples: Vec<f32> = (0..n).map(|_| r.normal()).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Prng::seed_from_u64(5);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "vanishingly unlikely");
    }
}
