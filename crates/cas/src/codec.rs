//! Typed object encodings for the content-addressed store.
//!
//! PR 2's store held exactly one kind of object: the raw decoded bytes
//! of a unit payload, keyed by their SHA-256 digest. This module adds a
//! self-describing *encoded* object format so the store can also hold
//!
//! * `Full { codec }` — the whole payload, byte-compressed; and
//! * `Delta { base, codec }` — a compressed XOR diff against another
//!   object (the same unit at the previous checkpoint), whose decoded
//!   bytes hash to this object's own digest.
//!
//! The object's *name* never changes meaning: `objects/<hh>/<hex>.obj`
//! is still the SHA-256 of the **decoded** bytes, so manifests,
//! verify-on-read digests, refcounted GC liveness, and resharding are
//! all untouched by encoding. Only the file's *contents* differ, and a
//! fixed magic header tells readers which kind they are holding.
//!
//! Legacy raw objects have no header: their first 8 bytes are a
//! safetensors header-length prefix (a little-endian `u64` that is in
//! practice a few KiB). The magic constant is chosen so its LE value is
//! ~3.5e18 — no real safetensors header is that long, so raw and
//! encoded objects cannot be confused.
//!
//! The byte codec is an in-repo LZSS (no external dependencies): a
//! 64 KiB sliding window, minimum match 4, maximum match 259, with flag
//! bytes grouping eight literal-or-match tokens. It is not zstd, but on
//! the diff streams deltas produce (mostly zero bytes) it reaches the
//! compression ratios that make every-step checkpointing affordable,
//! and it round-trips bit-exactly (property-tested in
//! `crates/cas/tests/codec_props.rs`).
//!
//! Float tensors need one more trick: the XOR diff of a weight array
//! across one optimizer step zeroes the sign/exponent byte of nearly
//! every element while the low mantissa bytes stay noisy, so zeros land
//! *interleaved* — one per 4-byte element — where an LZ matcher cannot
//! use them. [`Codec::ShuffleLzss`] transposes the buffer into byte
//! planes (Blosc-style shuffle, stride 4) first, turning those
//! per-element zeros into whole contiguous planes of zeros that LZSS
//! collapses. Writers take what [`smallest_encoding`] picks; readers
//! just dispatch on the tag in the header.

use std::io;

/// Magic prefix of every encoded object file. As a little-endian `u64`
/// this reads ~0x314A424F544D4C4C ≈ 3.5e18, far beyond any plausible
/// safetensors header length, so legacy raw objects (which start with
/// that length) can never alias it.
pub const OBJECT_MAGIC: &[u8; 8] = b"LLMTOBJ1";

/// Object kind tag: a self-contained compressed payload.
pub const KIND_FULL: u8 = 1;
/// Object kind tag: a compressed XOR diff against a base object.
pub const KIND_DELTA: u8 = 2;

/// Codec tag: payload bytes are stored verbatim.
pub const CODEC_RAW: u8 = 0;
/// Codec tag: payload bytes are LZSS-compressed.
pub const CODEC_LZSS: u8 = 1;
/// Codec tag: payload bytes are byte-plane shuffled (stride 4), then
/// LZSS-compressed.
pub const CODEC_SHUFFLE_LZSS: u8 = 2;

/// Fixed header length for `Full` objects (magic + kind + codec +
/// logical length).
pub const FULL_HEADER_LEN: usize = 8 + 1 + 1 + 8;
/// Fixed header length for `Delta` objects (`Full` header + 32-byte raw
/// base digest).
pub const DELTA_HEADER_LEN: usize = FULL_HEADER_LEN + 32;

/// Byte codec of an encoded object's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Stored verbatim (used when compression would not shrink).
    Raw,
    /// In-repo LZSS compression.
    Lzss,
    /// Stride-4 byte-plane shuffle, then LZSS. XOR diffs of float
    /// tensors zero the sign/exponent byte of almost every element but
    /// leave the low mantissa bytes noisy; interleaved single zeros are
    /// invisible to an LZ matcher, while shuffling gathers each byte
    /// plane into a contiguous run it compresses well.
    ShuffleLzss,
}

impl Codec {
    fn tag(self) -> u8 {
        match self {
            Codec::Raw => CODEC_RAW,
            Codec::Lzss => CODEC_LZSS,
            Codec::ShuffleLzss => CODEC_SHUFFLE_LZSS,
        }
    }

    fn from_tag(tag: u8) -> io::Result<Self> {
        match tag {
            CODEC_RAW => Ok(Codec::Raw),
            CODEC_LZSS => Ok(Codec::Lzss),
            CODEC_SHUFFLE_LZSS => Ok(Codec::ShuffleLzss),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown object codec tag {other}"),
            )),
        }
    }

    /// Encode `bytes` with this codec. Writers that are free to choose
    /// go through [`smallest_encoding`] instead.
    pub fn encode(self, bytes: &[u8]) -> Vec<u8> {
        match self {
            Codec::Raw => bytes.to_vec(),
            Codec::Lzss => lzss_compress(bytes),
            Codec::ShuffleLzss => lzss_compress(&shuffle4(bytes)),
        }
    }

    /// Decode a payload produced by [`Codec::encode`]. `logical_len` is
    /// the expected decoded length; a mismatch is `InvalidData`.
    pub fn decode(self, payload: &[u8], logical_len: u64) -> io::Result<Vec<u8>> {
        let out = match self {
            Codec::Raw => payload.to_vec(),
            Codec::Lzss => lzss_decompress(payload)?,
            Codec::ShuffleLzss => unshuffle4(&lzss_decompress(payload)?),
        };
        if out.len() as u64 != logical_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "encoded object decoded to {} bytes, header claims {logical_len}",
                    out.len()
                ),
            ));
        }
        Ok(out)
    }
}

/// Parsed header of an object file: what the bytes after it mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    /// Pre-encoding object: the file *is* the decoded payload.
    LegacyRaw,
    /// Self-contained encoded payload.
    Full {
        /// Payload codec.
        codec: Codec,
        /// Decoded length in bytes.
        logical_len: u64,
    },
    /// Compressed XOR diff against `base` (decoded lengths must match).
    Delta {
        /// Payload codec of the diff stream.
        codec: Codec,
        /// Decoded length in bytes (equals the base's decoded length).
        logical_len: u64,
        /// Digest of the base object the diff applies to.
        base: crate::Digest,
    },
}

/// Whether `bytes` begin with the encoded-object magic.
pub fn is_encoded(bytes: &[u8]) -> bool {
    bytes.len() >= OBJECT_MAGIC.len() && &bytes[..OBJECT_MAGIC.len()] == OBJECT_MAGIC
}

/// Serialize a `Full` header.
pub fn full_header(codec: Codec, logical_len: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(FULL_HEADER_LEN);
    h.extend_from_slice(OBJECT_MAGIC);
    h.push(KIND_FULL);
    h.push(codec.tag());
    h.extend_from_slice(&logical_len.to_le_bytes());
    h
}

/// Serialize a `Delta` header.
pub fn delta_header(codec: Codec, logical_len: u64, base: &crate::Digest) -> Vec<u8> {
    let mut h = Vec::with_capacity(DELTA_HEADER_LEN);
    h.extend_from_slice(OBJECT_MAGIC);
    h.push(KIND_DELTA);
    h.push(codec.tag());
    h.extend_from_slice(&logical_len.to_le_bytes());
    h.extend_from_slice(&base.0);
    h
}

/// Parse the header of an object file's leading bytes. Bytes without
/// the magic are a legacy raw object; bytes with the magic but a
/// malformed or truncated header are `InvalidData`.
pub fn parse_header(bytes: &[u8]) -> io::Result<ObjectKind> {
    if !is_encoded(bytes) {
        return Ok(ObjectKind::LegacyRaw);
    }
    if bytes.len() < FULL_HEADER_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "encoded object shorter than its fixed header",
        ));
    }
    let kind = bytes[8];
    let codec = Codec::from_tag(bytes[9])?;
    let logical_len = u64::from_le_bytes(bytes[10..18].try_into().expect("8 bytes"));
    match kind {
        KIND_FULL => Ok(ObjectKind::Full { codec, logical_len }),
        KIND_DELTA => {
            if bytes.len() < DELTA_HEADER_LEN {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "delta object shorter than its header",
                ));
            }
            let mut raw = [0u8; 32];
            raw.copy_from_slice(&bytes[18..50]);
            Ok(ObjectKind::Delta {
                codec,
                logical_len,
                base: crate::Digest(raw),
            })
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown object kind tag {other}"),
        )),
    }
}

/// XOR `a` into `b` element-wise. Both diffing (current ⊕ previous) and
/// patching (previous ⊕ diff) are this same involution; equal lengths
/// are the caller's contract (same unit, same config ⇒ same safetensors
/// image length).
pub fn xor_into(acc: &mut [u8], other: &[u8]) -> io::Result<()> {
    if acc.len() != other.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "xor length mismatch: {} vs {} bytes",
                acc.len(),
                other.len()
            ),
        ));
    }
    for (a, b) in acc.iter_mut().zip(other) {
        *a ^= *b;
    }
    Ok(())
}

/// Gather byte plane `k` of every aligned 4-byte group into a
/// contiguous run: `[a0 b0 c0 d0 a1 b1 c1 d1 ..]` becomes
/// `[a0 a1 .. b0 b1 .. c0 c1 .. d0 d1 ..]`, with any tail bytes (length
/// not a multiple of 4) appended verbatim. A length-preserving
/// bijection on arbitrary byte strings — it never inspects content, so
/// it is safe on whole unit files (safetensors header included).
pub fn shuffle4(buf: &[u8]) -> Vec<u8> {
    let lanes = buf.len() / 4;
    let mut out = vec![0u8; buf.len()];
    let (p0, rest) = out.split_at_mut(lanes);
    let (p1, rest) = rest.split_at_mut(lanes);
    let (p2, rest) = rest.split_at_mut(lanes);
    let (p3, tail) = rest.split_at_mut(lanes);
    let groups = buf.chunks_exact(4);
    tail.copy_from_slice(groups.remainder());
    for ((((group, a), b), c), d) in groups.zip(p0).zip(p1).zip(p2).zip(p3) {
        (*a, *b, *c, *d) = (group[0], group[1], group[2], group[3]);
    }
    out
}

/// Inverse of [`shuffle4`].
pub fn unshuffle4(buf: &[u8]) -> Vec<u8> {
    let lanes = buf.len() / 4;
    let mut out = vec![0u8; buf.len()];
    let (p0, rest) = buf.split_at(lanes);
    let (p1, rest) = rest.split_at(lanes);
    let (p2, rest) = rest.split_at(lanes);
    let (p3, tail) = rest.split_at(lanes);
    let mut groups = out.chunks_exact_mut(4);
    for ((((group, a), b), c), d) in (&mut groups).zip(p0).zip(p1).zip(p2).zip(p3) {
        group.copy_from_slice(&[*a, *b, *c, *d]);
    }
    groups.into_remainder().copy_from_slice(tail);
    out
}

// ---------------------------------------------------------------------
// LZSS: 64 KiB window, min match 4, max match 259.
//
// Token stream: a flag byte announces the next eight tokens, LSB first.
// Flag bit 0 → one literal byte. Flag bit 1 → a match: u16 LE distance
// (1..=65535 back from the current position) followed by one length
// byte storing `len - MIN_MATCH` (so 4..=259). That format is all a
// decoder knows; which matches an encoder finds is its own business. The
// match finder is a hash chain over 4-byte prefixes with a bounded probe
// depth that stops searching where nothing matches (`SKIP_TRIGGER`):
// most of a float diff's byte planes are noise.
// ---------------------------------------------------------------------

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 259;
const WINDOW: usize = 65535;
const HASH_BITS: u32 = 15;
const MAX_PROBES: usize = 32;
/// "No position" in the match finder's tables.
const NO_POS: u32 = u32::MAX;
/// Searched positions without a match before the literal stride grows
/// by one byte (LZ4's skip trigger): the first 32 misses of a run still
/// search every position, the next 32 every second one, and so on.
const SKIP_TRIGGER: u32 = 5;
/// Most bytes emitted as unsearched literals after one failed search: a
/// compressible region that follows noise is entered at most this many
/// bytes late.
const MAX_SKIP: usize = 31;

/// The four bytes at `input[at..]` as one little-endian word.
#[inline]
fn prefix4(input: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(input[at..at + 4].try_into().expect("4-byte slice"))
}

#[inline]
fn hash4(prefix: u32) -> usize {
    (prefix.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `input[a..]` and `input[b..]`, capped
/// at `limit`; the caller guarantees `a < b` and `b + limit <= len`.
#[inline]
fn match_len(input: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let (x, y) = (&input[a..a + limit], &input[b..b + limit]);
    let mut l = 0usize;
    for (p, q) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let p = u64::from_le_bytes(p.try_into().expect("8-byte chunk"));
        let q = u64::from_le_bytes(q.try_into().expect("8-byte chunk"));
        if p != q {
            return l + ((p ^ q).trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < limit && x[l] == y[l] {
        l += 1;
    }
    l
}

/// The match finder's state: `head[h]` is the most recent position
/// whose 4-byte prefix hashes to `h`, `prev` links each position to the
/// one before it in its bucket. A link is only ever followed from a
/// candidate inside the 65 535-byte window, so `prev` is a ring of
/// 65 536 slots indexed by the low position bits, not one slot per input
/// byte. Positions are `u32`: beyond 4 GiB they wrap, which can cost a
/// match the full-width tables would have found but never yields an
/// invalid one (every candidate is compared byte for byte).
struct Chains {
    head: Vec<u32>,
    prev: Vec<u32>,
}

impl Chains {
    fn new() -> Self {
        Chains {
            head: vec![NO_POS; 1 << HASH_BITS],
            prev: vec![NO_POS; WINDOW + 1],
        }
    }

    /// Index `pos` under its 4-byte `prefix` and return the position that
    /// headed its bucket until now.
    #[inline]
    fn insert(&mut self, prefix: u32, pos: usize) -> u32 {
        let head = &mut self.head[hash4(prefix)];
        let before = std::mem::replace(head, pos as u32);
        self.prev[pos & WINDOW] = before;
        before
    }

    /// Index `pos` and return the longest match for `input[pos..]` among
    /// the `MAX_PROBES` most recent positions of its bucket inside the
    /// window, as `(length, distance)`; the length is 0 when no candidate
    /// reaches `MIN_MATCH`. The caller guarantees `MIN_MATCH` bytes at
    /// `pos`.
    #[inline]
    fn longest_match(&mut self, input: &[u8], pos: usize) -> (usize, usize) {
        let prefix = prefix4(input, pos);
        let limit = (input.len() - pos).min(MAX_MATCH);
        let (mut best_len, mut best_dist) = (0usize, 0usize);
        // Indexing `pos` before the search changes nothing: the walk
        // starts from the bucket's previous head.
        let mut cand = self.insert(prefix, pos);
        for _ in 0..MAX_PROBES {
            let dist = (pos as u32).wrapping_sub(cand) as usize;
            if cand == NO_POS || dist == 0 || dist > WINDOW {
                break;
            }
            let at = pos - dist;
            // A candidate from the same bucket with another prefix
            // matches fewer than `MIN_MATCH` bytes and can neither be
            // emitted nor keep a longer one from being taken; one that
            // differs at `best_len` cannot beat the best so far.
            if prefix4(input, at) == prefix && input[at + best_len] == input[pos + best_len] {
                let l = MIN_MATCH
                    + match_len(input, at + MIN_MATCH, pos + MIN_MATCH, limit - MIN_MATCH);
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l == limit {
                        break;
                    }
                }
            }
            cand = self.prev[at & WINDOW];
        }
        (best_len, best_dist)
    }
}

/// The token stream under construction: flag bytes are reserved ahead of
/// the eight tokens they describe and filled in as those arrive.
struct Tokens {
    out: Vec<u8>,
    flag_at: usize,
    flag_bit: u8,
}

impl Tokens {
    /// Reserve the next flag byte if the current one is used up.
    #[inline]
    fn next_flag(&mut self) {
        if self.flag_bit == 8 {
            self.flag_at = self.out.len();
            self.out.push(0);
            self.flag_bit = 0;
        }
    }

    /// One literal token per byte of `bytes`.
    #[inline]
    fn literals(&mut self, mut bytes: &[u8]) {
        while self.flag_bit < 8 && !bytes.is_empty() {
            self.out.push(bytes[0]);
            self.flag_bit += 1;
            bytes = &bytes[1..];
        }
        let mut groups = bytes.chunks_exact(8);
        for group in &mut groups {
            self.out.push(0);
            self.out.extend_from_slice(group);
        }
        let tail = groups.remainder();
        if !tail.is_empty() {
            self.next_flag();
            self.out.extend_from_slice(tail);
            self.flag_bit = tail.len() as u8;
        }
    }

    #[inline]
    fn a_match(&mut self, len: usize, dist: usize) {
        self.next_flag();
        self.out[self.flag_at] |= 1 << self.flag_bit;
        self.flag_bit += 1;
        self.out.extend_from_slice(&(dist as u16).to_le_bytes());
        self.out.push((len - MIN_MATCH) as u8);
    }
}

/// LZSS-compress `input`. Always succeeds; the output of incompressible
/// input grows by one flag byte per eight literals (callers compare
/// sizes and fall back to raw storage when that happens).
///
/// The parse is greedy and does not search noise: every
/// `2^SKIP_TRIGGER` searched positions in a row without a match
/// lengthen, by one byte up to `MAX_SKIP`, the run emitted as unsearched
/// literals after the next miss; the first match resets the stride.
/// Skipped positions are still indexed — a hash and two stores, not a
/// chain walk — so what follows the noise finds every earlier position
/// to match against. Whatever the parse, the stream is the token format
/// above and [`lzss_decompress`] — of this or any earlier build — reads
/// it.
pub fn lzss_compress(input: &[u8]) -> Vec<u8> {
    let mut tokens = Tokens {
        // The worst case (all literals), so noise never regrows the buffer.
        out: Vec::with_capacity(input.len() + input.len() / 8 + 1),
        flag_at: 0,
        flag_bit: 8,
    };
    let mut chains = Chains::new();
    // Positions below this have `MIN_MATCH` bytes left: they can start a
    // match and are indexed.
    let indexable = input.len().saturating_sub(MIN_MATCH - 1);
    let mut pos = 0usize;
    let mut misses = 0u32;

    while pos < indexable {
        let (len, dist) = chains.longest_match(input, pos);
        let end = if len >= MIN_MATCH {
            misses = 0;
            tokens.a_match(len, dist);
            pos + len
        } else {
            misses += 1;
            let run = 1 + ((misses >> SKIP_TRIGGER) as usize).min(MAX_SKIP);
            let end = (pos + run).min(input.len());
            tokens.literals(&input[pos..end]);
            end
        };
        // Index every covered position, matched or skipped, so later
        // matches can start anywhere behind the cursor.
        for covered in pos + 1..end.min(indexable) {
            chains.insert(prefix4(input, covered), covered);
        }
        pos = end;
    }
    tokens.literals(&input[pos..]);
    tokens.out
}

/// The LZSS encoding a writer stores `image` under, and the only place
/// that chooses one: the byte-plane shuffled form, or plain LZSS where
/// that is smaller — tried only on images of at most one LZSS window.
/// Float payloads and their XOR diffs keep their zeros one per element,
/// out of an LZ matcher's reach until gathered into planes; plain wins
/// where a safetensors header outweighs the tensor bytes behind it,
/// which it stops doing well below 64 KiB. Whether the result beats
/// storing `image` raw is the caller's comparison.
pub fn smallest_encoding(image: &[u8]) -> (Codec, Vec<u8>) {
    let shuffled = lzss_compress(&shuffle4(image));
    if image.len() <= WINDOW {
        let plain = lzss_compress(image);
        if plain.len() <= shuffled.len() {
            return (Codec::Lzss, plain);
        }
    }
    (Codec::ShuffleLzss, shuffled)
}

/// Decompress an LZSS stream produced by [`lzss_compress`]. Malformed
/// streams (matches reaching before the start, truncated tokens) are
/// `InvalidData`, never a panic — encoded objects cross the same
/// trust boundary as any other checkpoint payload.
pub fn lzss_decompress(input: &[u8]) -> io::Result<Vec<u8>> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("lzss: {what}"));
    let mut out = Vec::with_capacity(input.len() * 2);
    let mut i = 0usize;
    while i < input.len() {
        let flags = input[i];
        i += 1;
        // Eight literals in a row (the common case on noisy planes).
        if flags == 0 {
            if let Some(literals) = input.get(i..i + 8) {
                out.extend_from_slice(literals);
                i += 8;
                continue;
            }
        }
        for bit in 0..8 {
            if i >= input.len() {
                break;
            }
            if flags & (1 << bit) == 0 {
                out.push(input[i]);
                i += 1;
            } else {
                if i + 3 > input.len() {
                    return Err(bad("truncated match token"));
                }
                let dist = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
                let len = input[i + 2] as usize + MIN_MATCH;
                i += 3;
                if dist == 0 || dist > out.len() {
                    return Err(bad("match distance outside produced output"));
                }
                // `dist < len` repeats the last `dist` bytes: every pass
                // copies all of the period written so far, doubling it.
                let start = out.len() - dist;
                let mut left = len;
                while left > 0 {
                    let n = left.min(out.len() - start);
                    out.extend_from_within(start..start + n);
                    left -= n;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Digest;
    use proptest::prelude::*;

    /// The exhaustive greedy encoder (every position searched and
    /// indexed; PR 16 proved [`lzss_compress`] token-identical to it up to
    /// PR 17), kept verbatim as the size reference for the parse that
    /// skips noise.
    fn lzss_compress_reference(input: &[u8]) -> Vec<u8> {
        fn hash4(bytes: &[u8]) -> usize {
            let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
        }
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; input.len()];
        let mut pos = 0usize;
        let mut flag_at = usize::MAX;
        let mut flag_bit = 8u8;

        let mut push_token = |out: &mut Vec<u8>, is_match: bool| -> usize {
            if flag_bit == 8 {
                out.push(0);
                flag_at = out.len() - 1;
                flag_bit = 0;
            }
            if is_match {
                out[flag_at] |= 1 << flag_bit;
            }
            flag_bit += 1;
            flag_at
        };

        while pos < input.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if pos + MIN_MATCH <= input.len() {
                let h = hash4(&input[pos..]);
                let mut cand = head[h];
                let mut probes = 0usize;
                while cand != usize::MAX && probes < MAX_PROBES {
                    let dist = pos - cand;
                    if dist > WINDOW {
                        break;
                    }
                    let limit = (input.len() - pos).min(MAX_MATCH);
                    let mut l = 0usize;
                    while l < limit && input[cand + l] == input[pos + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                        if l == limit {
                            break;
                        }
                    }
                    cand = prev[cand];
                    probes += 1;
                }
            }
            if best_len >= MIN_MATCH {
                push_token(&mut out, true);
                out.extend_from_slice(&(best_dist as u16).to_le_bytes());
                out.push((best_len - MIN_MATCH) as u8);
                let end = pos + best_len;
                while pos < end {
                    if pos + MIN_MATCH <= input.len() {
                        let h = hash4(&input[pos..]);
                        prev[pos] = head[h];
                        head[h] = pos;
                    }
                    pos += 1;
                }
            } else {
                push_token(&mut out, false);
                out.push(input[pos]);
                if pos + MIN_MATCH <= input.len() {
                    let h = hash4(&input[pos..]);
                    prev[pos] = head[h];
                    head[h] = pos;
                }
                pos += 1;
            }
        }
        out
    }

    /// [`lzss_decompress`] as PR 17 shipped it, kept verbatim: objects in
    /// existing stores are read by builds that have only this, so every
    /// stream a newer encoder emits must decode with it.
    fn lzss_decompress_pr17(input: &[u8]) -> io::Result<Vec<u8>> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("lzss: {what}"));
        let mut out = Vec::with_capacity(input.len() * 2);
        let mut i = 0usize;
        while i < input.len() {
            let flags = input[i];
            i += 1;
            // Eight literals in a row (the common case on noisy planes).
            if flags == 0 {
                if let Some(literals) = input.get(i..i + 8) {
                    out.extend_from_slice(literals);
                    i += 8;
                    continue;
                }
            }
            for bit in 0..8 {
                if i >= input.len() {
                    break;
                }
                if flags & (1 << bit) == 0 {
                    out.push(input[i]);
                    i += 1;
                } else {
                    if i + 3 > input.len() {
                        return Err(bad("truncated match token"));
                    }
                    let dist = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
                    let len = input[i + 2] as usize + MIN_MATCH;
                    i += 3;
                    if dist == 0 || dist > out.len() {
                        return Err(bad("match distance outside produced output"));
                    }
                    // `dist < len` repeats the last `dist` bytes: every pass
                    // copies all of the period written so far, doubling it.
                    let start = out.len() - dist;
                    let mut left = len;
                    while left > 0 {
                        let n = left.min(out.len() - start);
                        out.extend_from_within(start..start + n);
                        left -= n;
                    }
                }
            }
        }
        Ok(out)
    }

    /// xorshift64 bytes.
    fn noise(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// The byte planes of an `f32` array XORed with itself one
    /// optimizer-sized relative step later: two noisy mantissa planes, a
    /// sparse one, a (nearly) zero sign/exponent plane.
    fn float_diff_planes(elements: usize, seed: u64) -> Vec<u8> {
        let mut rnd = noise(seed);
        let mut diff = Vec::with_capacity(elements * 4);
        for _ in 0..elements {
            let w = (rnd() % 2_000_001) as f32 / 1e6 - 1.0;
            let step = 1.0 + ((rnd() % 2001) as f32 - 1000.0) * 1e-6;
            diff.extend_from_slice(&(w.to_bits() ^ (w * step).to_bits()).to_le_bytes());
        }
        shuffle4(&diff)
    }

    /// The regimes the encoder meets: noise, runs (zero runs included),
    /// repeated motifs, byte planes of a float diff, noise → zeros → noise
    /// with stretches shorter and longer than the longest literal stride
    /// (a miss run long enough to reach it comes first), inputs shorter
    /// than a match, and buffers long enough to wrap the 64 KiB link ring.
    fn arb_encoder_input() -> impl Strategy<Value = Vec<u8>> {
        let float_planes =
            (1usize..4096, any::<u64>()).prop_map(|(n, seed)| float_diff_planes(n, seed));
        let transitions = (
            any::<u64>(),
            prop::collection::vec((0usize..4 * MAX_SKIP, 0usize..4 * MAX_SKIP), 1..12),
        )
            .prop_map(|(seed, stretches)| {
                let mut rnd = noise(seed);
                let ramp = (MAX_SKIP + 1) << SKIP_TRIGGER;
                let mut out: Vec<u8> = (0..2 * ramp).map(|_| rnd() as u8).collect();
                for (zeros, noisy) in stretches {
                    out.resize(out.len() + zeros, 0);
                    out.extend((0..noisy).map(|_| rnd() as u8));
                }
                out
            });
        let long = (
            prop::collection::vec(any::<u8>(), 1..600),
            70_000usize..200_000,
        )
            .prop_map(|(motif, len)| {
                // A motif repeated with a drifting byte: matches at many
                // distances, some beyond the window.
                (0..len)
                    .map(|i| motif[i % motif.len()] ^ ((i / 9973) as u8))
                    .collect::<Vec<u8>>()
            });
        prop_oneof![
            4 => prop::collection::vec(any::<u8>(), 0..2048),
            2 => (any::<u8>(), 1usize..2048).prop_map(|(b, n)| vec![b; n]),
            2 => (1usize..100_000).prop_map(|n| vec![0u8; n]),
            3 => (prop::collection::vec(any::<u8>(), 1..32), 1usize..64)
                .prop_map(|(motif, reps)| motif.repeat(reps)),
            3 => float_planes,
            3 => transitions,
            2 => prop::collection::vec(any::<u8>(), 0..MIN_MATCH),
            1 => long,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Whatever the parse, the stream is the format every decoder
        /// reads, and never larger than all-literals.
        #[test]
        fn lzss_streams_decode_with_every_decoder(input in arb_encoder_input()) {
            let packed = lzss_compress(&input);
            prop_assert!(packed.len() <= input.len() + input.len() / 8 + 1);
            prop_assert!(lzss_decompress_pr17(&packed).unwrap() == input);
            prop_assert!(lzss_decompress(&packed).unwrap() == input);
        }

        /// The one selection rule: the pick decodes back, is never larger
        /// than the shuffled form, and plain LZSS is not even tried beyond
        /// one window.
        #[test]
        fn smallest_encoding_decodes_and_obeys_the_window_rule(input in arb_encoder_input()) {
            let (codec, payload) = smallest_encoding(&input);
            prop_assert!(codec.decode(&payload, input.len() as u64).unwrap() == input);
            prop_assert!(payload.len() <= Codec::ShuffleLzss.encode(&input).len());
            prop_assert!(codec != Codec::Raw);
            prop_assert!(input.len() <= WINDOW || codec == Codec::ShuffleLzss);
        }
    }

    #[test]
    fn skipping_noise_costs_under_one_percent_on_float_diffs() {
        for (elements, seed) in [(16 * 1024, 7), (150_000, 8)] {
            let planes = float_diff_planes(elements, seed);
            let packed = lzss_compress(&planes);
            let exhaustive = lzss_compress_reference(&planes);
            assert!(
                exhaustive.len() < planes.len() * 3 / 4,
                "fixture is not a float diff: {} of {} bytes",
                exhaustive.len(),
                planes.len()
            );
            assert!(
                packed.len() * 100 <= exhaustive.len() * 101,
                "{elements} elements: {} bytes against the exhaustive search's {}",
                packed.len(),
                exhaustive.len()
            );
            assert_eq!(lzss_decompress_pr17(&packed).unwrap(), planes);
        }
    }

    #[test]
    fn plain_lzss_is_picked_where_a_header_dominates() {
        // A safetensors image of one tiny tensor: a JSON header and a few
        // payload bytes. Shuffling scatters the text; plain LZSS keeps it.
        let header = br#"{"__metadata__":{"format":"pt"},"model.norm.weight":{"dtype":"BF16","shape":[8],"data_offsets":[0,16]},"model.norm.bias":{"dtype":"BF16","shape":[8],"data_offsets":[16,32]}}"#;
        let mut image = (header.len() as u64).to_le_bytes().to_vec();
        image.extend_from_slice(header);
        image.extend((0..32u8).map(|i| i.wrapping_mul(37)));
        let (codec, payload) = smallest_encoding(&image);
        assert_eq!(codec, Codec::Lzss);
        assert_eq!(payload, lzss_compress(&image));
        // The same header in front of a float diff longer than a window:
        // the shuffled form, without trying.
        let mut big = image.clone();
        big.extend(float_diff_planes(WINDOW / 4, 3));
        assert_eq!(smallest_encoding(&big).0, Codec::ShuffleLzss);
    }

    #[test]
    fn lzss_round_trips_typical_payloads() {
        let cases: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![0u8; 1],
            vec![0u8; 100_000],
            (0..255u8).collect(),
            (0..20_000u32)
                .flat_map(|v| (v % 97).to_le_bytes())
                .collect(),
            b"abcabcabcabcabcabc".to_vec(),
        ];
        for case in cases {
            let packed = lzss_compress(&case);
            let back = lzss_decompress(&packed).unwrap();
            assert_eq!(back, case);
        }
    }

    #[test]
    fn lzss_compresses_sparse_diff_streams_hard() {
        // The delta codec's bread and butter: a long run of zeros with a
        // few changed bytes sprinkled in.
        let mut diff = vec![0u8; 1 << 16];
        for i in (0..diff.len()).step_by(4099) {
            diff[i] = 0xAB;
        }
        let packed = lzss_compress(&diff);
        assert!(
            packed.len() * 20 < diff.len(),
            "sparse diff compressed to {} of {} bytes",
            packed.len(),
            diff.len()
        );
        assert_eq!(lzss_decompress(&packed).unwrap(), diff);
    }

    #[test]
    fn lzss_rejects_malformed_streams_without_panicking() {
        // A match token pointing before the start of the output.
        let bogus = [0b0000_0001u8, 0xFF, 0xFF, 10];
        assert!(lzss_decompress(&bogus).is_err());
        // Truncated match token.
        let truncated = [0b0000_0001u8, 0x01];
        assert!(lzss_decompress(&truncated).is_err());
        // Zero distance.
        let zero = [0b0000_0011u8, b'x', 0x00, 0x00, 0x00];
        assert!(lzss_decompress(&zero).is_err());
    }

    #[test]
    fn headers_round_trip_and_legacy_bytes_parse_as_raw() {
        let d = Digest::of(b"base");
        let full = full_header(Codec::Lzss, 12345);
        assert_eq!(full.len(), FULL_HEADER_LEN);
        assert_eq!(
            parse_header(&full).unwrap(),
            ObjectKind::Full {
                codec: Codec::Lzss,
                logical_len: 12345
            }
        );
        let delta = delta_header(Codec::Lzss, 777, &d);
        assert_eq!(delta.len(), DELTA_HEADER_LEN);
        assert_eq!(
            parse_header(&delta).unwrap(),
            ObjectKind::Delta {
                codec: Codec::Lzss,
                logical_len: 777,
                base: d
            }
        );
        // A safetensors image starts with a small LE header length —
        // nothing like the magic.
        let mut legacy = 192u64.to_le_bytes().to_vec();
        legacy.extend_from_slice(b"{\"t\":{}}");
        assert_eq!(parse_header(&legacy).unwrap(), ObjectKind::LegacyRaw);
    }

    #[test]
    fn malformed_headers_are_invalid_data() {
        let mut short = OBJECT_MAGIC.to_vec();
        short.push(KIND_FULL);
        assert!(parse_header(&short).is_err());
        let mut bad_kind = full_header(Codec::Raw, 1);
        bad_kind[8] = 9;
        assert!(parse_header(&bad_kind).is_err());
        let mut bad_codec = full_header(Codec::Raw, 1);
        bad_codec[9] = 7;
        assert!(parse_header(&bad_codec).is_err());
        let mut truncated_delta = delta_header(Codec::Raw, 1, &Digest::of(b"x"));
        truncated_delta.truncate(30);
        assert!(parse_header(&truncated_delta).is_err());
    }

    #[test]
    fn shuffle4_is_a_bijection_for_every_tail_length() {
        for n in 0..70usize {
            let buf: Vec<u8> = (0..n as u32).map(|i| (i * 37 + 11) as u8).collect();
            let shuffled = shuffle4(&buf);
            assert_eq!(shuffled.len(), buf.len());
            assert_eq!(unshuffle4(&shuffled), buf);
        }
        assert_eq!(
            shuffle4(&[1, 2, 3, 4, 5, 6, 7, 8, 9]),
            vec![1, 5, 2, 6, 3, 7, 4, 8, 9]
        );
    }

    #[test]
    fn shuffle_codec_beats_plain_lzss_on_float_style_diffs() {
        // An XOR diff of a float array across one small update: bytes
        // 0..2 of each element noisy, byte 2 mostly small, byte 3 zero.
        let mut x: u64 = 0x1234_5678_9abc_def0;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let diff: Vec<u8> = (0..8192)
            .flat_map(|_| [rnd() as u8, rnd() as u8, (rnd() % 8) as u8, 0u8])
            .collect();
        let plain = Codec::Lzss.encode(&diff);
        let shuffled = Codec::ShuffleLzss.encode(&diff);
        assert!(
            shuffled.len() < diff.len() * 4 / 5,
            "shuffled diff stayed at {} of {} bytes",
            shuffled.len(),
            diff.len()
        );
        assert!(
            shuffled.len() < plain.len(),
            "shuffle did not beat plain lzss ({} vs {})",
            shuffled.len(),
            plain.len()
        );
        assert_eq!(
            Codec::ShuffleLzss
                .decode(&shuffled, diff.len() as u64)
                .unwrap(),
            diff
        );
    }

    #[test]
    fn xor_is_an_involution() {
        let a: Vec<u8> = (0..1000u32).flat_map(|v| v.to_le_bytes()).collect();
        let b: Vec<u8> = (0..1000u32).flat_map(|v| (v * 7).to_le_bytes()).collect();
        let mut diff = a.clone();
        xor_into(&mut diff, &b).unwrap();
        let mut back = diff.clone();
        xor_into(&mut back, &b).unwrap();
        assert_eq!(back, a);
        let mut short = vec![0u8; 3];
        assert!(xor_into(&mut short, &a).is_err());
    }
}
