//! safetensors container: spec-compatible reader/writer.
//!
//! Wire format: 8-byte little-endian header length `N`, then `N` bytes of
//! JSON mapping tensor names to `{dtype, shape, data_offsets}` (offsets
//! relative to the start of the data section), optionally with a
//! `__metadata__` string map, then the tightly packed tensor data.
//!
//! Two access paths exist on purpose:
//! * [`read_file`] — eager: one sequential read of the whole file. This is
//!   the paper's optimizer-loading semantics (no lazy access).
//! * [`open_index`] + [`read_tensor_at`] — lazy: parse the header, then
//!   range-read single tensors. This models safetensors' zero-copy lazy
//!   loading of model weights, and powers the ablation the paper's §5.4
//!   suggests for future layer-wise checkpoint systems.

use crate::error::{io_err, CkptError, Result};
use llmt_storage::vfs::{LocalFs, Storage};
use llmt_tensor::{DType, RawTensor, RawView, Shape};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Header entry for one tensor.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct HeaderEntry {
    dtype: String,
    shape: Vec<usize>,
    data_offsets: [u64; 2],
}

/// Parsed header: tensor directory plus free-form metadata.
#[derive(Debug, Clone)]
pub struct SafetensorsIndex {
    /// Byte offset of the data section within the file.
    pub data_start: u64,
    /// Name -> (dtype, shape, begin, end) in file order.
    pub entries: Vec<(String, DType, Shape, u64, u64)>,
    /// `__metadata__` string map (empty if absent).
    pub metadata: BTreeMap<String, String>,
}

impl SafetensorsIndex {
    /// Find an entry by name.
    pub fn entry(&self, name: &str) -> Option<&(String, DType, Shape, u64, u64)> {
        self.entries.iter().find(|(n, ..)| n == name)
    }

    /// All tensor names in file order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, ..)| n.as_str())
    }

    /// Total data-section bytes.
    pub fn data_len(&self) -> u64 {
        self.entries.iter().map(|(.., _b, e)| *e).max().unwrap_or(0)
    }

    /// Every tensor in file order, borrowed out of `image` — the complete
    /// image this index was parsed from by [`parse_image`], which checked
    /// every entry's byte range against it.
    pub fn views<'a>(&'a self, image: &'a [u8]) -> impl Iterator<Item = (&'a str, RawView<'a>)> {
        let data = &image[self.data_start as usize..];
        self.entries.iter().map(move |(name, dtype, shape, b, e)| {
            let view = RawView::new(*dtype, shape, &data[*b as usize..*e as usize])
                .expect("parse_header checked the byte range against the shape");
            (name.as_str(), view)
        })
    }
}

/// Build the image prefix — 8-byte little-endian header length plus the
/// JSON header — and return it with the data-section length. Both the
/// whole-buffer [`encode`] and the streaming writers go through this one
/// function, which is what makes their outputs byte-identical.
fn image_prefix(
    tensors: &[(String, RawTensor)],
    metadata: &BTreeMap<String, String>,
) -> Result<(Vec<u8>, u64)> {
    let mut header = serde_json::Map::new();
    if !metadata.is_empty() {
        header.insert("__metadata__".to_string(), serde_json::to_value(metadata)?);
    }
    let mut offset = 0u64;
    for (name, t) in tensors {
        if header.contains_key(name) {
            return Err(CkptError::Format(format!("duplicate tensor name '{name}'")));
        }
        let len = t.byte_len() as u64;
        let entry = HeaderEntry {
            dtype: t.dtype().as_str().to_string(),
            shape: t.shape().dims().to_vec(),
            data_offsets: [offset, offset + len],
        };
        header.insert(name.clone(), serde_json::to_value(&entry)?);
        offset += len;
    }
    let header_bytes = serde_json::to_vec(&serde_json::Value::Object(header))?;
    let mut prefix = Vec::with_capacity(8 + header_bytes.len());
    prefix.extend_from_slice(&(header_bytes.len() as u64).to_le_bytes());
    prefix.extend_from_slice(&header_bytes);
    Ok((prefix, offset))
}

/// Serialize tensors (with optional metadata) into an in-memory
/// safetensors image: 8-byte header length, JSON header, packed data.
pub fn encode(
    tensors: &[(String, RawTensor)],
    metadata: &BTreeMap<String, String>,
) -> Result<Vec<u8>> {
    let (prefix, data_len) = image_prefix(tensors, metadata)?;
    let mut out = Vec::with_capacity(prefix.len() + data_len as usize);
    out.extend_from_slice(&prefix);
    for (_, t) in tensors {
        out.extend_from_slice(t.bytes());
    }
    Ok(out)
}

/// Hash-first pass for content addressing: one traversal of the exact
/// image [`encode`] would produce, but through an incremental SHA-256
/// instead of a buffer. Returns the image prefix (header bytes), the
/// total image length, and its digest. Costs zero storage ops — the
/// dedup path calls this to decide whether any write is needed at all.
pub fn image_digest(
    tensors: &[(String, RawTensor)],
    metadata: &BTreeMap<String, String>,
) -> Result<(Vec<u8>, u64, llmt_cas::Digest)> {
    let (prefix, data_len) = image_prefix(tensors, metadata)?;
    let mut h = llmt_cas::Hasher::new();
    h.update(&prefix);
    for (_, t) in tensors {
        h.update(t.bytes());
    }
    let total = prefix.len() as u64 + data_len;
    Ok((prefix, total, h.finalize()))
}

/// Streaming variant of [`write_file_on`]: tensor bytes go through a
/// [`Storage`] write stream in `chunk_bytes` chunks — one bounded-memory
/// traversal, no whole-file buffer. The file is byte-identical to what
/// [`write_file_on`] produces. Nothing is hashed here: no manifest records
/// a digest for a conventional `model.safetensors` or shard file, and a
/// SHA-256 is computed on the write path only where it names or checks a
/// store object ([`image_digest`], the store's `put_stream`). Returns the
/// file length in bytes.
pub fn stream_file_on(
    storage: &dyn Storage,
    path: &Path,
    tensors: &[(String, RawTensor)],
    metadata: &BTreeMap<String, String>,
    chunk_bytes: usize,
) -> Result<u64> {
    let (prefix, data_len) = image_prefix(tensors, metadata)?;
    let chunk_bytes = chunk_bytes.max(1);
    let mut stream = storage.create_stream(path).map_err(io_err(path))?;
    stream.write_chunk(&prefix).map_err(io_err(path))?;
    for (_, t) in tensors {
        for chunk in t.bytes().chunks(chunk_bytes) {
            stream.write_chunk(chunk).map_err(io_err(path))?;
        }
    }
    stream.finish().map_err(io_err(path))?;
    Ok(prefix.len() as u64 + data_len)
}

/// Serialize tensors (with optional metadata) to a safetensors file.
/// Tensors are written tightly packed in the given order.
pub fn write_file(
    path: &Path,
    tensors: &[(String, RawTensor)],
    metadata: &BTreeMap<String, String>,
) -> Result<u64> {
    write_file_on(&LocalFs, path, tensors, metadata)
}

/// [`write_file`] through a [`Storage`]: write the whole image, then sync
/// it. The sync matters — the commit protocol writes the `COMMIT` marker
/// only after every payload file is durable.
pub fn write_file_on(
    storage: &dyn Storage,
    path: &Path,
    tensors: &[(String, RawTensor)],
    metadata: &BTreeMap<String, String>,
) -> Result<u64> {
    let bytes = encode(tensors, metadata)?;
    storage.write(path, &bytes).map_err(io_err(path))?;
    storage.sync(path).map_err(io_err(path))?;
    Ok(bytes.len() as u64)
}

fn parse_header(path: &Path, header_bytes: &[u8], data_start: u64) -> Result<SafetensorsIndex> {
    let value: serde_json::Value = serde_json::from_slice(header_bytes)
        .map_err(|e| CkptError::Format(format!("{}: bad header JSON: {e}", path.display())))?;
    let obj = value
        .as_object()
        .ok_or_else(|| CkptError::Format(format!("{}: header is not an object", path.display())))?;
    let mut metadata = BTreeMap::new();
    let mut entries = Vec::new();
    for (name, v) in obj {
        if name == "__metadata__" {
            let m: BTreeMap<String, String> = serde_json::from_value(v.clone())?;
            metadata = m;
            continue;
        }
        let e: HeaderEntry = serde_json::from_value(v.clone())
            .map_err(|err| CkptError::Format(format!("entry '{name}': {err}")))?;
        let dtype = DType::from_str_opt(&e.dtype).ok_or_else(|| {
            CkptError::Format(format!("entry '{name}': unsupported dtype {}", e.dtype))
        })?;
        // Untrusted boundary: dimension products must not overflow.
        let numel = e
            .shape
            .iter()
            .try_fold(1u64, |acc, d| acc.checked_mul(*d as u64))
            .and_then(|n| n.checked_mul(dtype.size_bytes() as u64))
            .ok_or_else(|| {
                CkptError::Format(format!("entry '{name}': shape {:?} overflows", e.shape))
            })?;
        let shape = Shape::new(e.shape);
        let [b, end] = e.data_offsets;
        let want = numel;
        if end < b || end - b != want {
            return Err(CkptError::Format(format!(
                "entry '{name}': offsets [{b}, {end}) disagree with shape {shape} dtype {dtype}"
            )));
        }
        entries.push((name.clone(), dtype, shape, b, end));
    }
    entries.sort_by_key(|(.., b, _)| *b);
    Ok(SafetensorsIndex {
        data_start,
        entries,
        metadata,
    })
}

/// Named tensors plus free-form metadata, as stored in one file.
pub type TensorsAndMetadata = (Vec<(String, RawTensor)>, BTreeMap<String, String>);

/// Eagerly read a whole safetensors file (single sequential pass).
pub fn read_file(path: &Path) -> Result<TensorsAndMetadata> {
    read_file_on(&LocalFs, path)
}

/// [`read_file`] through a [`Storage`].
pub fn read_file_on(storage: &dyn Storage, path: &Path) -> Result<TensorsAndMetadata> {
    let all = storage.read(path).map_err(io_err(path))?;
    decode_image(path, &all)
}

/// Parse a complete in-memory safetensors image: its header, checked
/// against the image's length. `path` is only used for error messages.
/// The tensors stay where they are; [`SafetensorsIndex::views`] borrows
/// them out of the same `all`.
pub fn parse_image(path: &Path, all: &[u8]) -> Result<SafetensorsIndex> {
    if all.len() < 8 {
        return Err(CkptError::Format(format!(
            "{}: truncated (no header length)",
            path.display()
        )));
    }
    let hlen = u64::from_le_bytes(all[..8].try_into().expect("slice is 8 bytes")) as usize;
    // Untrusted boundary: checked add — a header length near usize::MAX
    // must not wrap past the bounds check into a slice panic.
    let data_start = match 8usize.checked_add(hlen) {
        Some(ds) if ds <= all.len() => ds,
        _ => {
            return Err(CkptError::Format(format!(
                "{}: truncated header",
                path.display()
            )))
        }
    };
    let index = parse_header(path, &all[8..data_start], data_start as u64)?;
    let data_len = (all.len() - data_start) as u64;
    if let Some((name, ..)) = index.entries.iter().find(|(.., e)| *e > data_len) {
        return Err(CkptError::Format(format!(
            "{}: tensor '{name}' extends past end of file",
            path.display()
        )));
    }
    Ok(index)
}

/// Decode a complete in-memory safetensors image into owned tensors plus
/// metadata. `path` is only used for error messages.
pub fn decode_image(path: &Path, all: &[u8]) -> Result<TensorsAndMetadata> {
    let index = parse_image(path, all)?;
    let tensors = index
        .views(all)
        .map(|(name, t)| (name.to_string(), t.to_raw()))
        .collect();
    Ok((tensors, index.metadata))
}

/// Parse only the header of a safetensors file (cheap).
pub fn open_index(path: &Path) -> Result<SafetensorsIndex> {
    open_index_on(&LocalFs, path)
}

/// [`open_index`] through a [`Storage`].
pub fn open_index_on(storage: &dyn Storage, path: &Path) -> Result<SafetensorsIndex> {
    let len_buf = storage.read_range(path, 0, 8).map_err(io_err(path))?;
    // Untrusted boundary (a daemon serves indexes over client-supplied
    // run roots): a backend returning a short buffer is a typed error,
    // not a panic, and the claimed header length must fit inside the
    // file before it sizes an allocation.
    let len_buf: [u8; 8] = len_buf.try_into().map_err(|b: Vec<u8>| {
        CkptError::Format(format!(
            "{}: short read of the header length prefix ({} bytes)",
            path.display(),
            b.len()
        ))
    })?;
    let hlen = u64::from_le_bytes(len_buf);
    let file_len = storage.file_len(path).map_err(io_err(path))?;
    if hlen.saturating_add(8) > file_len {
        return Err(CkptError::Format(format!(
            "{}: header length {hlen} exceeds file length {file_len}",
            path.display()
        )));
    }
    let hlen = hlen as usize;
    let header = storage.read_range(path, 8, hlen).map_err(io_err(path))?;
    parse_header(path, &header, 8 + hlen as u64)
}

/// Range-read a single tensor using a previously parsed index.
pub fn read_tensor_at(path: &Path, index: &SafetensorsIndex, name: &str) -> Result<RawTensor> {
    read_tensor_at_on(&LocalFs, path, index, name)
}

/// [`read_tensor_at`] through a [`Storage`].
pub fn read_tensor_at_on(
    storage: &dyn Storage,
    path: &Path,
    index: &SafetensorsIndex,
    name: &str,
) -> Result<RawTensor> {
    let (_, dtype, shape, b, e) = index
        .entry(name)
        .ok_or_else(|| CkptError::Missing(format!("tensor '{name}' in {}", path.display())))?;
    let buf = storage
        .read_range(path, index.data_start + b, (e - b) as usize)
        .map_err(io_err(path))?;
    Ok(RawTensor::from_bytes(*dtype, shape.clone(), buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmt_tensor::rng::Prng;
    use llmt_tensor::Tensor;

    fn sample_tensors() -> Vec<(String, RawTensor)> {
        let mut rng = Prng::seed_from_u64(1);
        vec![
            (
                "model.embed_tokens.weight".into(),
                Tensor::randn([8, 4], 1.0, &mut rng).to_raw(DType::BF16),
            ),
            (
                "model.norm.weight".into(),
                Tensor::randn([4], 1.0, &mut rng).to_raw(DType::F32),
            ),
            (
                "group0.master".into(),
                Tensor::randn([16], 1.0, &mut rng).to_raw(DType::F32),
            ),
        ]
    }

    #[test]
    fn write_read_round_trip() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("t.safetensors");
        let tensors = sample_tensors();
        let mut meta = BTreeMap::new();
        meta.insert("format".to_string(), "pt".to_string());
        let bytes = write_file(&path, &tensors, &meta).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let (back, meta_back) = read_file(&path).unwrap();
        assert_eq!(meta_back.get("format").map(String::as_str), Some("pt"));
        assert_eq!(back.len(), tensors.len());
        for ((na, ta), (nb, tb)) in tensors.iter().zip(back.iter()) {
            assert_eq!(na, nb);
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn lazy_read_matches_eager() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("t.safetensors");
        let tensors = sample_tensors();
        write_file(&path, &tensors, &BTreeMap::new()).unwrap();
        let index = open_index(&path).unwrap();
        for (name, t) in &tensors {
            let lazy = read_tensor_at(&path, &index, name).unwrap();
            assert_eq!(&lazy, t, "{name}");
        }
    }

    #[test]
    fn missing_tensor_is_reported() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("t.safetensors");
        write_file(&path, &sample_tensors(), &BTreeMap::new()).unwrap();
        let index = open_index(&path).unwrap();
        let err = read_tensor_at(&path, &index, "nope").unwrap_err();
        assert!(matches!(err, CkptError::Missing(_)));
    }

    #[test]
    fn duplicate_names_rejected_on_write() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("t.safetensors");
        let t = Tensor::zeros([1]).to_raw(DType::F32);
        let err = write_file(
            &path,
            &[("a".into(), t.clone()), ("a".into(), t)],
            &BTreeMap::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CkptError::Format(_)));
    }

    #[test]
    fn truncated_file_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("t.safetensors");
        std::fs::write(&path, [1, 2, 3]).unwrap();
        assert!(matches!(
            read_file(&path).unwrap_err(),
            CkptError::Format(_)
        ));
    }

    #[test]
    fn corrupt_offsets_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("t.safetensors");
        // Hand-build a header whose offsets disagree with the shape.
        let header = br#"{"x":{"dtype":"F32","shape":[2],"data_offsets":[0,4]}}"#;
        let mut bytes = (header.len() as u64).to_le_bytes().to_vec();
        bytes.extend_from_slice(header);
        bytes.extend_from_slice(&[0u8; 4]);
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            read_file(&path).unwrap_err(),
            CkptError::Format(_)
        ));
    }

    #[test]
    fn empty_metadata_is_omitted_and_round_trips() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("t.safetensors");
        write_file(&path, &sample_tensors(), &BTreeMap::new()).unwrap();
        let (_, meta) = read_file(&path).unwrap();
        assert!(meta.is_empty());
    }

    #[test]
    fn streamed_file_is_byte_identical_to_encoded_buffer() {
        let dir = tempfile::tempdir().unwrap();
        let tensors = sample_tensors();
        let mut meta = BTreeMap::new();
        meta.insert("format".to_string(), "pt".to_string());
        let whole = encode(&tensors, &meta).unwrap();
        // Chunk sizes straddling none/one/many chunk boundaries.
        for chunk in [1usize, 7, 64, 1 << 20] {
            let path = dir.path().join(format!("s{chunk}.safetensors"));
            let len = stream_file_on(&LocalFs, &path, &tensors, &meta, chunk).unwrap();
            assert_eq!(len, whole.len() as u64);
            assert_eq!(std::fs::read(&path).unwrap(), whole, "chunk={chunk}");
        }
        let (prefix, total, digest) = image_digest(&tensors, &meta).unwrap();
        assert_eq!(total, whole.len() as u64);
        assert_eq!(digest, llmt_cas::Digest::of(&whole));
        assert_eq!(&whole[..prefix.len()], &prefix[..]);
    }

    #[test]
    fn header_is_valid_json_and_spec_shaped() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("t.safetensors");
        write_file(&path, &sample_tensors(), &BTreeMap::new()).unwrap();
        let all = std::fs::read(&path).unwrap();
        let hlen = u64::from_le_bytes(all[..8].try_into().unwrap()) as usize;
        let v: serde_json::Value = serde_json::from_slice(&all[8..8 + hlen]).unwrap();
        let entry = &v["model.embed_tokens.weight"];
        assert_eq!(entry["dtype"], "BF16");
        assert_eq!(entry["shape"], serde_json::json!([8, 4]));
        assert!(entry["data_offsets"].is_array());
    }
}
