//! 256-bit content digests for the object store.
//!
//! The manifest/commit-marker path hashes with FNV-1a, which is fine for
//! torn-write detection but far too weak to *name* content: the store
//! keys every object by digest and treats digest equality as byte
//! equality, so collisions silently alias unrelated layers. This module
//! provides the proper 256-bit digest the CAS needs — SHA-256,
//! implemented in-repo against FIPS 180-4 so the workspace stays
//! dependency-free.
//!
//! The compression function has two backends behind one dispatch point
//! (`compress_blocks`): the x86-64 SHA extensions where the running CPU
//! reports them, and the scalar FIPS code everywhere else. Both fold any
//! number of 64-byte blocks per call and produce the same state word for
//! word, so [`Digest::of`], [`Hasher`] and every object name are the same
//! on every host (an aarch64 `sha2` backend would be a third arm of that
//! one function).
//!
//! The hardware backend is the workspace's first and only `unsafe`
//! (`scripts/ci.sh` holds it to this file). Its safety argument is short:
//! the `#[target_feature]` function is only ever called right after
//! `is_x86_feature_detected!` has confirmed `sha`, `ssse3` and `sse4.1`
//! at run time, and the only memory it touches through raw pointers is
//! the `[u32; 8]` state, one 64-byte block at a time from a
//! `chunks_exact(64)` slice, and the round-constant table — each through
//! the *unaligned* 16-byte load/store, in bounds by construction.

use std::fmt;

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Hasher {
    state: [u32; 8],
    /// Bytes not yet forming a full 64-byte block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    pub fn new() -> Self {
        Hasher {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total: 0,
        }
    }

    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress_blocks);
    }

    pub fn finalize(self) -> Digest {
        self.finalize_with(compress_blocks)
    }

    /// [`Hasher::update`] over an explicit compression function, so the
    /// tests can drive the buffering logic against each backend.
    fn update_with(&mut self, mut data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8])) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, rest) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// [`Hasher::finalize`] over an explicit compression function.
    fn finalize_with(mut self, compress: impl Fn(&mut [u32; 8], &[u8])) -> Digest {
        // Padding: 0x80, zeros to 56 mod 64, then the 64-bit bit length —
        // one block when the buffered tail leaves room for the nine
        // mandatory bytes, two otherwise.
        let mut tail = [0u8; 128];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let padded = if self.buf_len < 56 { 64 } else { 128 };
        let bit_len = self.total.wrapping_mul(8);
        tail[padded - 8..padded].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &tail[..padded]);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }
}

/// Fold `blocks` (a whole number of 64-byte blocks) into `state`: the one
/// dispatch point between the SHA-NI backend and the scalar fallback.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    if !compress_blocks_accelerated(state, blocks) {
        compress_blocks_scalar(state, blocks);
    }
}

/// Run the hardware backend if this CPU has one; `false` means `state`
/// is untouched and the caller must use the scalar code.
fn compress_blocks_accelerated(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: the three features `sha_ni::compress_blocks` is compiled
        // for were detected on the running CPU on the line above.
        unsafe { sha_ni::compress_blocks(state, blocks) };
        return true;
    }
    let _ = (state, blocks);
    false
}

/// FIPS 180-4 §6.2.2, one block at a time. The fallback on every CPU
/// without SHA extensions and the reference the tests hold the hardware
/// backend to.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// SHA-256 on the x86-64 SHA extensions: `sha256rnds2` runs two rounds
/// per instruction on the state held as the register pair ABEF/CDGH, and
/// `sha256msg1`/`sha256msg2` extend the message schedule four words at a
/// time.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Fold `blocks` into `state`; trailing bytes short of a block are
    /// ignored.
    ///
    /// # Safety
    /// The running CPU must support `sha`, `ssse3` and `sse4.1` (and
    /// `sse2`, which x86-64 guarantees).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte shuffle turning four little-endian loads into the
        // big-endian message words.
        let be = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is 32 readable bytes, read as two 16-byte halves
        // with the unaligned load.
        let (dcba, hgfe) = unsafe {
            (
                _mm_loadu_si128(state.as_ptr().cast()),
                _mm_loadu_si128(state.as_ptr().add(4).cast()),
            )
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // The sixteen most recent schedule words, four per register.
            let mut w = [_mm_setzero_si128(); 4];
            for (i, quad) in w.iter_mut().enumerate() {
                // SAFETY: `block` is exactly 64 bytes, so the 16 bytes at
                // offset `16 * i` (i < 4) are in bounds; the load is the
                // unaligned one.
                let le = unsafe { _mm_loadu_si128(block.as_ptr().add(16 * i).cast()) };
                *quad = _mm_shuffle_epi8(le, be);
            }
            for i in 0..16 {
                if i >= 4 {
                    // W[4i..4i+4] from the sixteen words before it.
                    let (v0, v1, v2, v3) =
                        (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                    let sigma0 = _mm_sha256msg1_epu32(v0, v1);
                    let w_minus_7 = _mm_alignr_epi8(v3, v2, 4);
                    w[i % 4] = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w_minus_7), v3);
                }
                // SAFETY: `K` has 64 words and `4 * i + 4 <= 64`.
                let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * i).cast()) };
                let wk = _mm_add_epi32(w[i % 4], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `state` is 32 writable bytes, written as two 16-byte
        // halves with the unaligned store.
        unsafe {
            _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
            _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
        }
    }
}

/// A 256-bit content digest. Equality means byte equality of the hashed
/// payload for all practical purposes; the store relies on this.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Digest of a complete in-memory payload.
    pub fn of(data: &[u8]) -> Digest {
        let mut h = Hasher::new();
        h.update(data);
        h.finalize()
    }

    /// Lowercase 64-char hex form — the object's name in the store and
    /// the reference format in checkpoint manifests.
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).expect("hex nibble"));
            s.push(char::from_digit((b & 0xf) as u32, 16).expect("hex nibble"));
        }
        s
    }

    /// Parse the 64-char hex form. Rejects anything else so corrupted
    /// manifests surface as errors, not aliased objects.
    pub fn parse_hex(s: &str) -> Result<Digest, String> {
        let bytes = s.as_bytes();
        if bytes.len() != 64 {
            return Err(format!("digest must be 64 hex chars, got {}", bytes.len()));
        }
        let mut out = [0u8; 32];
        for (i, pair) in bytes.chunks_exact(2).enumerate() {
            let hi = (pair[0] as char)
                .to_digit(16)
                .ok_or_else(|| format!("bad hex char {:?}", pair[0] as char))?;
            let lo = (pair[1] as char)
                .to_digit(16)
                .ok_or_else(|| format!("bad hex char {:?}", pair[1] as char))?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Ok(Digest(out))
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Compress = fn(&mut [u32; 8], &[u8]);

    fn accelerated(state: &mut [u32; 8], blocks: &[u8]) {
        assert!(compress_blocks_accelerated(state, blocks));
    }

    /// Every compression backend this host can run, by name. A host
    /// without SHA extensions tests the scalar code alone and says so.
    fn backends() -> Vec<(&'static str, Compress)> {
        let mut all: Vec<(&'static str, Compress)> = vec![("scalar", compress_blocks_scalar)];
        if compress_blocks_accelerated(&mut H0.clone(), &[]) {
            all.push(("sha-ni", accelerated));
        } else {
            eprintln!(
                "SKIPPED: this CPU has no SHA extensions, the accelerated backend is untested"
            );
        }
        all
    }

    /// SHA-256 of `pieces` fed one by one through `compress`.
    fn digest_with(compress: Compress, pieces: &[&[u8]]) -> Digest {
        let mut h = Hasher::new();
        for piece in pieces {
            h.update_with(piece, compress);
        }
        h.finalize_with(compress)
    }

    /// `msg` hashes to `hex` on every backend and through the public
    /// entry point.
    fn assert_vector(msg: &[u8], hex: &str) {
        for (name, compress) in backends() {
            assert_eq!(digest_with(compress, &[msg]).to_hex(), hex, "{name}");
        }
        assert_eq!(Digest::of(msg).to_hex(), hex);
    }

    // FIPS 180-4 / NIST CAVP vectors.
    #[test]
    fn empty_input_vector() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_vector() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a_vector() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let payload: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let one_shot = Digest::of(&payload);
        for (name, compress) in backends() {
            for chunk in [1usize, 3, 63, 64, 65, 127] {
                let pieces: Vec<&[u8]> = payload.chunks(chunk).collect();
                assert_eq!(
                    digest_with(compress, &pieces),
                    one_shot,
                    "{name}, chunk size {chunk}"
                );
            }
        }
    }

    /// Cut `data` at the (unsorted, possibly repeated or out-of-range)
    /// offsets in `cuts`.
    fn split_at_all<'a>(data: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut pieces = Vec::with_capacity(cuts.len() + 1);
        let mut from = 0;
        for cut in cuts {
            pieces.push(&data[from..cut]);
            from = cut;
        }
        pieces.push(&data[from..]);
        pieces
    }

    /// Every backend agrees with the scalar one-shot digest on `data`
    /// however it is chunked.
    fn assert_backends_agree(data: &[u8], cuts: &[usize]) {
        let expected = digest_with(compress_blocks_scalar, &[data]);
        for (name, compress) in backends() {
            assert_eq!(
                digest_with(compress, &split_at_all(data, cuts)),
                expected,
                "{name}: {} bytes cut at {cuts:?}",
                data.len()
            );
        }
    }

    #[test]
    fn backends_agree_at_the_padding_edges() {
        let data: Vec<u8> = (0..120u32).map(|i| (i * 31 + 7) as u8).collect();
        for len in [0usize, 1, 55, 56, 63, 64, 65, 119, 120] {
            assert_backends_agree(&data[..len], &[]);
            assert_backends_agree(&data[..len], &[1, 55, 56, 63, 64, 65]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn backends_agree_on_random_lengths_and_chunkings(
            data in prop::collection::vec(any::<u8>(), 0..=4096),
            cuts in prop::collection::vec(any::<usize>(), 0..12),
        ) {
            assert_backends_agree(&data, &cuts);
        }
    }

    #[test]
    fn hex_round_trip_and_rejects() {
        let d = Digest::of(b"round trip");
        assert_eq!(Digest::parse_hex(&d.to_hex()).unwrap(), d);
        assert!(Digest::parse_hex("abc").is_err());
        assert!(Digest::parse_hex(&"g".repeat(64)).is_err());
    }
}
