//! Property tests for the object codec layer and delta chains: every
//! codec round-trips arbitrary payloads bit-exactly, headers parse back
//! to what was written, XOR patching is an involution, and a store chain
//! of any length up to the cap materializes every hop bit-exactly.

use llmt_cas::codec::{self, Codec, ObjectKind};
use llmt_cas::{Digest, ObjectStore};
use llmt_storage::vfs::LocalFs;
use proptest::prelude::*;

fn arb_codec() -> impl Strategy<Value = Codec> {
    prop_oneof![
        Just(Codec::Raw),
        Just(Codec::Lzss),
        Just(Codec::ShuffleLzss),
    ]
}

/// Byte images spanning the interesting compression regimes: pure
/// noise, long runs, and repeated-motif payloads (what weight shards
/// with shared structure look like to an LZ matcher).
fn arb_image() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..2048),
        (any::<u8>(), 1usize..2048).prop_map(|(b, n)| vec![b; n]),
        (prop::collection::vec(any::<u8>(), 1..32), 1usize..64)
            .prop_map(|(motif, reps)| motif.repeat(reps)),
    ]
}

/// A sparse mutation of `image`: training steps change a run of bytes,
/// leaving the rest identical — the regime delta encoding targets.
fn mutate(image: &[u8], at: usize, patch: &[u8]) -> Vec<u8> {
    let mut next = image.to_vec();
    if next.is_empty() {
        return next;
    }
    let at = at % next.len();
    for (i, b) in patch.iter().enumerate() {
        let idx = (at + i) % next.len();
        next[idx] ^= b.wrapping_add(1); // never a no-op XOR of 0
    }
    next
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every codec decodes its own encoding back to the input, for
    /// payloads across the compressibility spectrum.
    #[test]
    fn codec_round_trips_bit_exact(codec in arb_codec(), image in arb_image()) {
        let payload = codec.encode(&image);
        let back = codec.decode(&payload, image.len() as u64).unwrap();
        prop_assert_eq!(back, image);
    }

    /// LZSS never inflates a payload beyond the per-8-token flag-byte
    /// overhead, and truncating its stream is detected, not misdecoded.
    #[test]
    fn lzss_bounds_and_rejects_truncation(image in arb_image()) {
        let packed = codec::lzss_compress(&image);
        prop_assert!(packed.len() <= image.len() + image.len() / 8 + 2);
        if !packed.is_empty() {
            let torn = &packed[..packed.len() - 1];
            // A torn match token is an error by itself; a dropped literal
            // decodes one byte short, which the codec's length check
            // catches.
            prop_assert!(
                Codec::Lzss.decode(torn, image.len() as u64).is_err() || image.is_empty()
            );
        }
    }

    /// Byte-plane shuffling is a length-preserving bijection for every
    /// buffer length, including non-multiple-of-4 tails.
    #[test]
    fn shuffle4_round_trips(image in arb_image()) {
        let shuffled = codec::shuffle4(&image);
        prop_assert_eq!(shuffled.len(), image.len());
        prop_assert_eq!(codec::unshuffle4(&shuffled), image);
    }

    /// XOR patching is an involution: diff-then-patch restores the
    /// original for any same-length pair.
    #[test]
    fn xor_patch_is_an_involution(a in arb_image(), seed in any::<u64>()) {
        let b: Vec<u8> = a
            .iter()
            .enumerate()
            .map(|(i, x)| x ^ (seed.wrapping_add(i as u64) & 0xff) as u8)
            .collect();
        let mut diff = a.clone();
        codec::xor_into(&mut diff, &b).unwrap();
        let mut back = diff;
        codec::xor_into(&mut back, &b).unwrap();
        prop_assert_eq!(back, a);
    }

    /// Full and delta headers parse back to exactly what was written.
    #[test]
    fn headers_round_trip(codec in arb_codec(), len in any::<u64>(), base in arb_image()) {
        let base = Digest::of(&base);
        let full = codec::full_header(codec, len);
        prop_assert_eq!(
            codec::parse_header(&full).unwrap(),
            ObjectKind::Full { codec, logical_len: len }
        );
        let delta = codec::delta_header(codec, len, &base);
        prop_assert_eq!(
            codec::parse_header(&delta).unwrap(),
            ObjectKind::Delta { codec, logical_len: len, base }
        );
    }

    /// A delta chain of any length from 0 to the compaction-worthy deep
    /// end materializes every hop bit-exactly, for every delta codec.
    #[test]
    fn store_chains_materialize_bit_exact(
        codec in arb_codec(),
        base in prop::collection::vec(any::<u8>(), 64..1024),
        edits in prop::collection::vec(
            (any::<usize>(), prop::collection::vec(any::<u8>(), 1..48)),
            0..8,
        ),
    ) {
        let dir = tempfile::tempdir().unwrap();
        let store = ObjectStore::for_run_root(dir.path());
        let mut images = vec![base];
        for (at, patch) in &edits {
            let next = mutate(images.last().unwrap(), *at, patch);
            images.push(next);
        }
        let mut digests = vec![store.put(&LocalFs, &images[0]).unwrap().digest];
        for i in 1..images.len() {
            let digest = Digest::of(&images[i]);
            if digest == digests[i - 1] {
                // A degenerate edit (wrapped onto itself) can no-op;
                // a real save would dedup-hit here, not delta.
                digests.push(digest);
                continue;
            }
            let mut diff = images[i].clone();
            codec::xor_into(&mut diff, &images[i - 1]).unwrap();
            let payload = codec.encode(&diff);
            // A repeated image (edits can cancel) dedup-hits instead of
            // growing the chain; both outcomes must materialize.
            store
                .put_delta(&LocalFs, digest, digests[i - 1], &images[i - 1], codec, &payload)
                .unwrap();
            digests.push(digest);
        }
        for (i, d) in digests.iter().enumerate() {
            prop_assert_eq!(&store.materialize(&LocalFs, *d).unwrap(), &images[i]);
        }
        // Flattening the chain preserves every hop's bytes.
        store.compact_chains(&LocalFs, 0).unwrap();
        for (i, d) in digests.iter().enumerate() {
            prop_assert_eq!(store.chain_len(&LocalFs, *d).unwrap(), 0);
            prop_assert_eq!(&store.materialize(&LocalFs, *d).unwrap(), &images[i]);
        }
    }
}
