//! Property tests: safetensors round trips and checkpoint-layout laws.

use llmt_ckpt::safetensors;
use llmt_storage::vfs::LocalFs;
use llmt_tensor::{DType, RawTensor};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_dtype() -> impl Strategy<Value = DType> {
    prop_oneof![Just(DType::F32), Just(DType::BF16), Just(DType::F16)]
}

fn arb_tensor() -> impl Strategy<Value = RawTensor> {
    (arb_dtype(), prop::collection::vec(1usize..5, 1..3)).prop_flat_map(|(dtype, dims)| {
        let numel: usize = dims.iter().product();
        prop::collection::vec(any::<u8>(), numel * dtype.size_bytes())
            .prop_map(move |bytes| RawTensor::from_bytes(dtype, dims.clone(), bytes))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary tensor maps survive write -> eager read bit-exactly, and
    /// lazy reads agree with eager reads tensor-by-tensor.
    #[test]
    fn safetensors_round_trip(
        tensors in prop::collection::btree_map("[a-z]{1,8}", arb_tensor(), 1..6),
        meta in prop::collection::btree_map("[a-z]{1,6}", "[a-z]{0,10}", 0..3),
    ) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("t.safetensors");
        let list: Vec<(String, RawTensor)> =
            tensors.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        safetensors::write_file(&path, &list, &meta).unwrap();
        let (back, meta_back) = safetensors::read_file(&path).unwrap();
        prop_assert_eq!(&meta_back, &meta);
        prop_assert_eq!(back.len(), list.len());
        let index = safetensors::open_index(&path).unwrap();
        for (name, t) in &list {
            let found = back.iter().find(|(n, _)| n == name).unwrap();
            prop_assert_eq!(&found.1, t);
            let lazy = safetensors::read_tensor_at(&path, &index, name).unwrap();
            prop_assert_eq!(&lazy, t);
        }
    }

    /// The streaming writer is a drop-in for the whole-buffer encoder:
    /// for arbitrary dtypes, shapes and chunk sizes the file read back is
    /// byte-identical to `encode`'s image, and the hash-first pass the
    /// dedup path uses digests exactly that image.
    #[test]
    fn streaming_writer_matches_whole_buffer_encoder(
        tensors in prop::collection::btree_map("[a-z]{1,8}", arb_tensor(), 1..6),
        meta in prop::collection::btree_map("[a-z]{1,6}", "[a-z]{0,10}", 0..3),
        chunk in 1usize..512,
    ) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("t.safetensors");
        let list: Vec<(String, RawTensor)> =
            tensors.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        let whole = safetensors::encode(&list, &meta).unwrap();
        let len = safetensors::stream_file_on(&LocalFs, &path, &list, &meta, chunk).unwrap();
        prop_assert_eq!(len, whole.len() as u64);
        prop_assert_eq!(std::fs::read(&path).unwrap(), whole.clone());
        let (prefix, total, digest) = safetensors::image_digest(&list, &meta).unwrap();
        prop_assert_eq!(total, whole.len() as u64);
        prop_assert_eq!(digest, llmt_cas::Digest::of(&whole));
        prop_assert_eq!(&whole[..prefix.len()], &prefix[..]);
    }

    /// Raw bytes of the data section are tightly packed: total file size
    /// is 8 + header + sum of tensor bytes.
    #[test]
    fn safetensors_is_tightly_packed(
        tensors in prop::collection::btree_map("[a-z]{1,8}", arb_tensor(), 1..6),
    ) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("t.safetensors");
        let list: Vec<(String, RawTensor)> =
            tensors.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        let written = safetensors::write_file(&path, &list, &BTreeMap::new()).unwrap();
        let data: usize = list.iter().map(|(_, t)| t.byte_len()).sum();
        let index = safetensors::open_index(&path).unwrap();
        prop_assert_eq!(written, index.data_start + data as u64);
        prop_assert_eq!(index.data_len(), data as u64);
    }
}
