//! The content-addressed object store.
//!
//! Layout, rooted next to a run's checkpoints:
//!
//! ```text
//! <run_root>/objects/<hh>/<64-hex-digest>.obj     # hh = first hex byte
//! <run_root>/objects/<hh>/<64-hex>.<pid>-<n>.part # staging debris only
//! ```
//!
//! Every object is immutable: its name *is* the SHA-256 of its bytes, so
//! a `put` of existing content is a metadata peek (zero counted storage
//! ops), and two checkpoints sharing a layer share one inode. Writes are
//! crash-safe by construction — payloads land in a `.part` file that is
//! fsynced and atomically renamed into place, so a kill leaves either
//! debris (swept by GC) or a complete, correctly-named object.

use crate::codec::{self, Codec, ObjectKind};
use crate::digest::Digest;
use llmt_obs::{Counter, Histogram, MetricsRegistry};
use llmt_storage::vfs::{is_transient, Clock, RetryPolicy, Storage};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

/// Directory name of the store under a run root.
pub const OBJECTS_DIR: &str = "objects";

/// Redirect file a coordinator drops into a run root whose objects live
/// in a *shared* store instead of `<run_root>/objects`. Contains the
/// absolute path of the shared store's root directory (the directory
/// that holds `objects/`), as UTF-8 text.
pub const CASROOT_FILE: &str = "CASROOT";

/// Distinguishes concurrent writers in this process staging the same
/// digest (their payloads are identical, but their `.part` files must
/// not collide).
static TMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// Where a writer stages `digest` inside `fanout` before the rename to
/// its object name. The process id keeps two processes placing the same
/// digest into a shared store apart, the counter two threads of one; the
/// `.part` extension is how the sweep tells staging files from objects.
fn staging_path(fanout: &Path, digest: Digest) -> PathBuf {
    let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
    fanout.join(staging_name(digest, std::process::id(), nonce))
}

fn staging_name(digest: Digest, pid: u32, nonce: u64) -> String {
    format!("{}.{pid}-{nonce}.part", digest.to_hex())
}

/// Upper bound on any chain walk. Far above any configured chain cap;
/// only header corruption (a reference cycle) can reach it, and hitting
/// it is `InvalidData`, never an infinite loop.
const MAX_CHAIN_WALK: usize = 4096;

/// Result of [`ObjectStore::put`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutOutcome {
    /// Content digest — the object's identity. Always the digest of the
    /// *decoded* payload, whatever encoding the object file uses.
    pub digest: Digest,
    /// Logical (decoded) payload length in bytes.
    pub len: u64,
    /// Bytes this put physically staged into the store: the encoded
    /// object size on a miss (== `len` for raw objects), 0 on a hit.
    pub stored_len: u64,
    /// False when the store already held the object (dedup hit).
    pub written: bool,
    /// Depth of the delta chain this put created: 0 for raw/full
    /// objects and dedup hits, `1 + chain_len(base)` for delta puts.
    pub chain_depth: usize,
}

/// What an object file holds, without decoding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectInfo {
    /// Parsed object header (legacy raw files parse as
    /// [`ObjectKind::LegacyRaw`]).
    pub kind: ObjectKind,
    /// On-disk size of the object file, header included.
    pub stored_len: u64,
}

/// Result of [`ObjectStore::compact_chains`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Objects whose headers the pass examined.
    pub examined: usize,
    /// Delta objects rewritten as self-contained `Full` objects.
    pub compacted: usize,
    /// On-disk bytes of the rewritten objects before compaction.
    pub bytes_before: u64,
    /// On-disk bytes of the same objects after compaction.
    pub bytes_after: u64,
}

/// Result of [`ObjectStore::sweep`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Objects retained because the live set references them.
    pub live_objects: usize,
    /// Objects deleted (unreferenced by any committed checkpoint).
    pub deleted_objects: usize,
    /// Bytes reclaimed by deleting dead objects.
    pub reclaimed_bytes: u64,
    /// `.part` staging debris files removed.
    pub debris_removed: usize,
    /// Dead-looking objects (and in-flight `.part` files) *skipped*
    /// because their mtime postdates the sweep's mark point: they were
    /// published after the live set was computed, so their liveness is
    /// unknown. The next sweep, whose census will see them, decides.
    pub pinned_young: usize,
    /// Dead-looking objects kept because the caller's live pin guard
    /// claimed them at deletion time ([`ObjectStore::sweep_guarded`]) —
    /// references that arrived after the keep-set was snapshotted.
    pub pinned_by_guard: usize,
}

/// The instant a sweep's liveness census began. Objects that appear in
/// the store at-or-after this point were necessarily invisible to the
/// census, so [`ObjectStore::sweep_with_mark`] refuses to delete them —
/// this closes the race where a concurrent publisher's freshly-`put`
/// object is swept because the precomputed live set predates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepMark(SystemTime);

impl SweepMark {
    /// A mark at the current wall-clock instant. Take this *before*
    /// computing the live set.
    pub fn now() -> Self {
        SweepMark(SystemTime::now())
    }

    /// A mark at an explicit instant (deterministic tests, or callers
    /// carrying their own epoch clock).
    pub fn at(t: SystemTime) -> Self {
        SweepMark(t)
    }

    /// The mark instant.
    pub fn instant(&self) -> SystemTime {
        self.0
    }
}

/// Callback invoked on every successful [`ObjectStore::put`] /
/// [`ObjectStore::put_stream`] — dedup hits included, since a hit means
/// a new *reference* to an existing object and a GC coordinator must pin
/// it exactly like a fresh write. Wired via
/// [`ObjectStore::with_observer`].
pub trait PutObserver: Send + Sync + std::fmt::Debug {
    /// Called after the object named by `outcome.digest` is durably in
    /// the store (or was already present, for hits).
    fn on_put(&self, outcome: &PutOutcome);
}

/// Transient-read retry wiring of an [`ObjectStore`] (see
/// [`ObjectStore::with_read_retry`]).
#[derive(Debug, Clone)]
struct ReadRetry {
    policy: RetryPolicy,
    clock: Arc<dyn Clock>,
    retries: Arc<AtomicU64>,
}

/// Handle on the `objects/` tree of one run root.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    root: PathBuf,
    /// Dedup accounting, bumped purely in memory (a hit must stay a
    /// zero-storage-op metadata peek). Absent unless wired to a registry.
    hits: Option<Arc<Counter>>,
    misses: Option<Arc<Counter>>,
    saved_bytes: Option<Arc<Counter>>,
    /// Delta-object accounting (`cas.delta.*`), in-memory like the dedup
    /// counters. Absent unless wired to a registry.
    delta_puts: Option<Arc<Counter>>,
    delta_saved_bytes: Option<Arc<Counter>>,
    compactions: Option<Arc<Counter>>,
    chain_len_hist: Option<Arc<Histogram>>,
    /// Backoff-retry wiring for the read paths (`get` / `object_len` /
    /// `list`). Absent = fail on the first transient error, as before.
    read_retry: Option<ReadRetry>,
    /// Chain-walk restarts absorbed by [`ObjectStore::materialize`] after
    /// a concurrent compaction/sweep rewrote a chain mid-walk. Always
    /// counted; mirrored into `cas.materialize.retries` when wired.
    mat_retries: Arc<AtomicU64>,
    mat_retry_counter: Option<Arc<Counter>>,
    /// Pin callback for GC coordination. Absent outside a coordinator.
    observer: Option<Arc<dyn PutObserver>>,
}

impl ObjectStore {
    /// The store owned by `run_root` (i.e. `<run_root>/objects`).
    pub fn for_run_root(run_root: &Path) -> ObjectStore {
        ObjectStore {
            root: run_root.join(OBJECTS_DIR),
            hits: None,
            misses: None,
            saved_bytes: None,
            delta_puts: None,
            delta_saved_bytes: None,
            compactions: None,
            chain_len_hist: None,
            read_retry: None,
            mat_retries: Arc::new(AtomicU64::new(0)),
            mat_retry_counter: None,
            observer: None,
        }
    }

    /// The store a run root actually uses: if the root carries a
    /// [`CASROOT_FILE`] redirect (dropped by a coordinator), the store
    /// rooted at the *shared* path it names; otherwise the run-local
    /// `<run_root>/objects`. An unreadable or empty redirect falls back
    /// to the run-local store — degraded (objects stage locally instead
    /// of deduplicating into the shared store) but never corrupt, since
    /// checkpoints hard-link whatever store they were placed from.
    pub fn resolve(storage: &dyn Storage, run_root: &Path) -> ObjectStore {
        match redirect_target(storage, run_root) {
            Some(shared) => Self::for_run_root(&shared),
            None => Self::for_run_root(run_root),
        }
    }

    /// Wire dedup counters (`cas.dedup.hits` / `cas.dedup.misses` /
    /// `cas.dedup.saved_bytes`) into `metrics`. Counting is in-memory
    /// only; the store's storage-op profile is unchanged.
    pub fn with_metrics(mut self, metrics: &MetricsRegistry) -> ObjectStore {
        self.hits = Some(metrics.counter("cas.dedup.hits"));
        self.misses = Some(metrics.counter("cas.dedup.misses"));
        self.saved_bytes = Some(metrics.counter("cas.dedup.saved_bytes"));
        self.delta_puts = Some(metrics.counter("cas.delta.puts"));
        self.delta_saved_bytes = Some(metrics.counter("cas.delta.bytes_saved"));
        self.compactions = Some(metrics.counter("cas.delta.compactions"));
        self.chain_len_hist = Some(metrics.histogram("cas.delta.chain_len"));
        self.mat_retry_counter = Some(metrics.counter("cas.materialize.retries"));
        self
    }

    /// Retry transient faults on the read paths (`get`, `object_len`,
    /// `list`) with bounded exponential backoff on `clock`, mirroring
    /// what [`llmt_storage::vfs::RetryingStorage`] does for writes.
    /// Terminal errors still surface immediately.
    pub fn with_read_retry(mut self, policy: RetryPolicy, clock: Arc<dyn Clock>) -> ObjectStore {
        self.read_retry = Some(ReadRetry {
            policy,
            clock,
            retries: Arc::new(AtomicU64::new(0)),
        });
        self
    }

    /// Transient-read retries absorbed so far (0 when retry is unwired).
    pub fn read_retries(&self) -> u64 {
        self.read_retry
            .as_ref()
            .map_or(0, |r| r.retries.load(Ordering::SeqCst))
    }

    /// Chain-walk restarts [`ObjectStore::materialize`] absorbed so far
    /// (a concurrent compaction or sweep rewrote the chain mid-walk).
    pub fn materialize_retries(&self) -> u64 {
        self.mat_retries.load(Ordering::SeqCst)
    }

    /// Observe every successful put (hits included) — the coordinator
    /// uses this to pin in-flight objects against concurrent sweeps.
    pub fn with_observer(mut self, observer: Arc<dyn PutObserver>) -> ObjectStore {
        self.observer = Some(observer);
        self
    }

    /// Run `op` under the read-retry policy, if one is wired.
    fn read_op<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let Some(r) = &self.read_retry else {
            return op();
        };
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) && attempt < r.policy.max_retries => {
                    r.clock.sleep(r.policy.delay(attempt));
                    r.retries.fetch_add(1, Ordering::SeqCst);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The `objects/` directory itself.
    pub fn root_dir(&self) -> &Path {
        &self.root
    }

    /// Whether the store exists on disk at all (a run that never wrote a
    /// deduplicated checkpoint has no `objects/` directory).
    pub fn is_present(&self, storage: &dyn Storage) -> bool {
        storage.exists(&self.root)
    }

    /// Final path of the object named by `digest`.
    pub fn object_path(&self, digest: Digest) -> PathBuf {
        let hex = digest.to_hex();
        self.root.join(&hex[..2]).join(format!("{hex}.obj"))
    }

    /// Whether `digest` is stored. Uncounted metadata peek.
    pub fn contains(&self, storage: &dyn Storage, digest: Digest) -> bool {
        storage.exists(&self.object_path(digest))
    }

    /// Store `bytes`, deduplicating on content. Idempotent and crash-safe:
    /// the payload is staged to a `.part` file, fsynced, then renamed to
    /// its digest name. A dedup hit performs no counted storage ops.
    pub fn put(&self, storage: &dyn Storage, bytes: &[u8]) -> io::Result<PutOutcome> {
        self.put_stream(
            storage,
            Digest::of(bytes),
            bytes.len() as u64,
            std::iter::once(bytes),
        )
    }

    /// Streaming [`ObjectStore::put`]: the caller has already digested
    /// the payload (one bounded-memory traversal, e.g. the checkpoint
    /// engine's encode pass) and supplies the content in chunks. A dedup
    /// hit still costs zero counted storage ops (the re-dating touch is
    /// an uncounted metadata op, like `exists`) and never consumes the
    /// iterator. On a miss the chunks are re-hashed as they are staged;
    /// a digest mismatch removes the `.part` file and fails the put, so
    /// a buggy caller can never place bytes under the wrong name.
    pub fn put_stream<'a>(
        &self,
        storage: &dyn Storage,
        digest: Digest,
        len: u64,
        chunks: impl IntoIterator<Item = &'a [u8]>,
    ) -> io::Result<PutOutcome> {
        let path = self.object_path(digest);
        // A hit is a new *reference*, and must be protected like a fresh
        // write: re-date the object so a concurrent mark-sweep's mtime
        // guard pins it (the hit may be on an old, currently-dead object
        // — e.g. a frozen base layer whose last referencing checkpoint
        // was just retired — that a sweep already in flight would
        // otherwise delete before this caller's manifest commits). The
        // touch is an uncounted metadata op, so a hit stays free of
        // counted storage ops. If the object vanished between the
        // existence check and the touch (a racing sweep won), fall
        // through and stage it again like a miss; any other touch
        // failure degrades to the old unre-dated behavior, where the
        // observer pin still protects in-process callers. The hit may be
        // on a *delta* object (same content, previously stored as a diff
        // chain), in which case the whole base chain is re-dated and
        // pinned — a live delta whose base gets swept is undecodable.
        if storage.exists(&path) {
            match self.touch_chain(storage, digest) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Ok(_) | Err(_) => return Ok(self.count_hit(digest, len)),
            }
        }
        let fanout = path.parent().expect("object path has a fanout dir");
        storage.create_dir_all(fanout)?;
        let tmp = staging_path(fanout, digest);
        let mut stream = storage.create_stream(&tmp)?;
        let mut h = crate::digest::Hasher::new();
        let mut staged_len = 0u64;
        for chunk in chunks {
            h.update(chunk);
            staged_len += chunk.len() as u64;
            stream.write_chunk(chunk)?;
        }
        stream.finish()?;
        drop(stream);
        if h.finalize() != digest || staged_len != len {
            let _ = storage.remove_file(&tmp);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("staged payload does not match claimed digest {digest}"),
            ));
        }
        storage.rename(&tmp, &path)?;
        // Make the new directory entry durable before any manifest can
        // reference it (the commit marker seals references, not bytes).
        storage.sync(fanout)?;
        if let Some(misses) = &self.misses {
            misses.incr();
        }
        let out = PutOutcome {
            digest,
            len,
            stored_len: len,
            written: true,
            chain_depth: 0,
        };
        if let Some(obs) = &self.observer {
            obs.on_put(&out);
        }
        Ok(out)
    }

    /// Account (and observe) a dedup hit on `digest` with logical length
    /// `len`. Purely in-memory bookkeeping.
    fn count_hit(&self, digest: Digest, len: u64) -> PutOutcome {
        if let Some(hits) = &self.hits {
            hits.incr();
        }
        if let Some(saved) = &self.saved_bytes {
            saved.add(len);
        }
        let out = PutOutcome {
            digest,
            len,
            stored_len: 0,
            written: false,
            chain_depth: 0,
        };
        // The observer must pin hits too, or a concurrent mark-sweep
        // could census before this caller's manifest commits and delete
        // the shared object.
        if let Some(obs) = &self.observer {
            obs.on_put(&out);
        }
        out
    }

    /// If the store already holds `digest`, register the new reference
    /// (chain-wide re-dating touch, dedup counters, observer pin) and
    /// return the hit outcome; `None` means the caller must stage the
    /// object. This is the encoded-save policy's pre-check: a hit on an
    /// existing object — raw, compressed, or a delta chain — costs no
    /// staging at all.
    pub fn note_hit(&self, storage: &dyn Storage, digest: Digest, len: u64) -> Option<PutOutcome> {
        if !storage.exists(&self.object_path(digest)) {
            return None;
        }
        match self.touch_chain(storage, digest) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Ok(_) | Err(_) => Some(self.count_hit(digest, len)),
        }
    }

    /// Hard-link the stored object `digest` at `dest`, a checkpoint's
    /// payload file.
    ///
    /// `link(2)` fails with `NotFound` when the inode it resolved loses
    /// its last name before the link lands. That is what happens when
    /// another process's put of the same content, or a chain compaction,
    /// renames a fresh copy over the object name at that instant. The
    /// name itself never goes away, so the link is tried again against
    /// the inode that holds it now.
    pub fn link(&self, storage: &dyn Storage, digest: Digest, dest: &Path) -> io::Result<()> {
        let path = self.object_path(digest);
        let mut replaced = 0;
        loop {
            match storage.hard_link(&path, dest) {
                Err(e)
                    if e.kind() == io::ErrorKind::NotFound
                        && replaced < 3
                        && storage.exists(&path) =>
                {
                    replaced += 1
                }
                done => return done,
            }
        }
    }

    /// Read an object's full payload. Transient faults are retried when
    /// [`ObjectStore::with_read_retry`] is wired.
    pub fn get(&self, storage: &dyn Storage, digest: Digest) -> io::Result<Vec<u8>> {
        let path = self.object_path(digest);
        self.read_op(|| storage.read(&path))
    }

    /// Stored length of an object. Retries transients like
    /// [`ObjectStore::get`].
    pub fn object_len(&self, storage: &dyn Storage, digest: Digest) -> io::Result<u64> {
        let path = self.object_path(digest);
        self.read_op(|| storage.file_len(&path))
    }

    /// Enumerate all stored objects as `(digest, len)`. An absent store
    /// lists as empty. Unparseable names are ignored (they are not
    /// addressable, so they are GC debris, not objects). Each underlying
    /// storage op retries transients when retry is wired.
    pub fn list(&self, storage: &dyn Storage) -> io::Result<Vec<(Digest, u64)>> {
        let mut out = Vec::new();
        self.walk(storage, |path| {
            if let Some(d) = object_name(path) {
                out.push((d, self.read_op(|| storage.file_len(path))?));
            }
            Ok(())
        })?;
        out.sort();
        Ok(out)
    }

    /// Sidecar marker of a delta object: `<hex>.delta` next to
    /// `<hex>.obj`, containing the base digest in hex. The marker exists
    /// so the *hit* path can tell "plain object" from "delta chain" with
    /// an uncounted `exists` peek — reading the object header would cost
    /// every dedup hit a storage read. It is written durably *before*
    /// the delta object becomes visible and removed when the object is
    /// compacted into a `Full` or deleted, so a visible delta always has
    /// its marker; the object header stays the authoritative record.
    fn delta_marker_path(&self, digest: Digest) -> PathBuf {
        let hex = digest.to_hex();
        self.root.join(&hex[..2]).join(format!("{hex}.delta"))
    }

    /// Re-date `digest` *and every base under it* so a concurrent
    /// mark-sweep's mtime guard pins the whole chain — re-dating only
    /// the tip would let the sweep collect a live delta's base. Returns
    /// the digests visited, tip first. `NotFound` on the tip means the
    /// object vanished (a racing sweep won); a broken link further down
    /// ends the walk without error — the authoritative header-based
    /// sweep expansion and GC census decide what that means.
    pub fn touch_chain(&self, storage: &dyn Storage, digest: Digest) -> io::Result<Vec<Digest>> {
        let mut visited = Vec::new();
        let mut cur = digest;
        loop {
            let path = self.object_path(cur);
            match storage.touch(&path) {
                Ok(()) => {}
                Err(e) if visited.is_empty() => return Err(e),
                Err(_) => break,
            }
            visited.push(cur);
            if visited.len() > MAX_CHAIN_WALK {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("delta chain under {digest} exceeds {MAX_CHAIN_WALK} hops (cycle?)"),
                ));
            }
            // Uncounted peek: non-delta objects end the walk for free.
            let marker = self.delta_marker_path(cur);
            if !storage.exists(&marker) {
                break;
            }
            let _ = storage.touch(&marker);
            let Some(base) = self.read_marker(storage, &marker) else {
                break;
            };
            if visited.contains(&base) {
                break;
            }
            cur = base;
        }
        Ok(visited)
    }

    /// Parse a delta marker's base digest; unreadable or malformed
    /// markers read as `None` (the object header stays authoritative).
    fn read_marker(&self, storage: &dyn Storage, marker: &Path) -> Option<Digest> {
        let bytes = self.read_op(|| storage.read(marker)).ok()?;
        let text = String::from_utf8(bytes).ok()?;
        Digest::parse_hex(text.trim()).ok()
    }

    /// Read just enough of an object file to parse its header.
    fn header_peek(&self, storage: &dyn Storage, digest: Digest) -> io::Result<ObjectKind> {
        let path = self.object_path(digest);
        let head = match self.read_op(|| storage.read_range(&path, 0, codec::DELTA_HEADER_LEN)) {
            Ok(bytes) => bytes,
            // Shorter than the largest header: small enough to read whole.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                self.read_op(|| storage.read(&path))?
            }
            Err(e) => return Err(e),
        };
        codec::parse_header(&head)
    }

    /// The kind and stored size of an object, without decoding it.
    pub fn object_info(&self, storage: &dyn Storage, digest: Digest) -> io::Result<ObjectInfo> {
        Ok(ObjectInfo {
            kind: self.header_peek(storage, digest)?,
            stored_len: self.object_len(storage, digest)?,
        })
    }

    /// Number of delta hops under `digest`: 0 for raw/`Full` objects,
    /// 1 + the base's chain length for a delta.
    pub fn chain_len(&self, storage: &dyn Storage, digest: Digest) -> io::Result<usize> {
        let mut len = 0usize;
        let mut cur = digest;
        loop {
            match self.header_peek(storage, cur)? {
                ObjectKind::Delta { base, .. } => {
                    len += 1;
                    if len > MAX_CHAIN_WALK {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("delta chain under {digest} exceeds {MAX_CHAIN_WALK} hops"),
                        ));
                    }
                    cur = base;
                }
                _ => return Ok(len),
            }
        }
    }

    /// Store an encoded self-contained (`Full`) object whose *decoded*
    /// bytes hash to `digest`. The payload is decoded and re-hashed
    /// before the object becomes visible — like the raw put's staged
    /// re-hash, a buggy caller can never place bytes under the wrong
    /// name. A hit on an existing object skips staging entirely.
    pub fn put_full_encoded(
        &self,
        storage: &dyn Storage,
        digest: Digest,
        codec: Codec,
        payload: &[u8],
        logical_len: u64,
    ) -> io::Result<PutOutcome> {
        if let Some(hit) = self.note_hit(storage, digest, logical_len) {
            return Ok(hit);
        }
        let decoded = codec.decode(payload, logical_len)?;
        if Digest::of(&decoded) != digest {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("encoded payload does not decode to claimed digest {digest}"),
            ));
        }
        drop(decoded);
        let mut file = codec::full_header(codec, logical_len);
        file.extend_from_slice(payload);
        self.stage_object(storage, digest, &file)?;
        if let Some(misses) = &self.misses {
            misses.incr();
        }
        let out = PutOutcome {
            digest,
            len: logical_len,
            stored_len: file.len() as u64,
            written: true,
            chain_depth: 0,
        };
        if let Some(obs) = &self.observer {
            obs.on_put(&out);
        }
        Ok(out)
    }

    /// Store a delta object: `payload` is the encoded XOR diff of the
    /// new content against `base_image` (the decoded bytes of the object
    /// named `base`, which the caller necessarily holds — it computed
    /// the diff). The decoded-and-patched bytes must hash to `digest`.
    ///
    /// Ordering makes the new reference safe against a concurrent
    /// mark-sweep: the base chain is re-dated (and observer-pinned)
    /// first, then the marker sidecar lands, then the object itself is
    /// staged and renamed in. If the base vanished under a racing sweep
    /// the put fails with `NotFound` and the caller falls back to a full
    /// object; after the rename the base is re-checked, so a delta never
    /// outlives the sweep that collected its base.
    pub fn put_delta(
        &self,
        storage: &dyn Storage,
        digest: Digest,
        base: Digest,
        base_image: &[u8],
        codec: Codec,
        payload: &[u8],
    ) -> io::Result<PutOutcome> {
        let logical_len = base_image.len() as u64;
        if let Some(hit) = self.note_hit(storage, digest, logical_len) {
            return Ok(hit);
        }
        // Verify before anything becomes visible: diff must decode,
        // match the base length, and patch back to the claimed digest.
        let mut patched = codec.decode(payload, logical_len)?;
        codec::xor_into(&mut patched, base_image)?;
        if Digest::of(&patched) != digest {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("delta payload does not patch to claimed digest {digest}"),
            ));
        }
        drop(patched);
        // Re-date and pin the base chain so no concurrent sweep collects
        // it between here and this object's manifest commit.
        let chain = self.touch_chain(storage, base)?;
        if let Some(obs) = &self.observer {
            for d in &chain {
                obs.on_put(&PutOutcome {
                    digest: *d,
                    len: 0,
                    stored_len: 0,
                    written: false,
                    chain_depth: 0,
                });
            }
        }
        let depth = 1 + self.chain_len(storage, base)?;
        // Marker before object: a visible delta must always announce its
        // chain to the uncounted hit-path peek. A crash in between
        // leaves an orphan marker, swept as debris.
        let marker = self.delta_marker_path(digest);
        let fanout = marker.parent().expect("marker path has a fanout dir");
        storage.create_dir_all(fanout)?;
        let mut text = base.to_hex();
        text.push('\n');
        storage.write(&marker, text.as_bytes())?;
        storage.sync(&marker)?;
        let mut file = codec::delta_header(codec, logical_len, &base);
        file.extend_from_slice(payload);
        self.stage_object(storage, digest, &file)?;
        // The base chain was alive when touched; re-check now that the
        // delta is visible, in case a sweep's deletion raced the touch.
        if !storage.exists(&self.object_path(base)) {
            let _ = storage.remove_file(&self.object_path(digest));
            let _ = storage.remove_file(&marker);
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("delta base {base} was swept during the put"),
            ));
        }
        if let Some(misses) = &self.misses {
            misses.incr();
        }
        if let Some(puts) = &self.delta_puts {
            puts.incr();
        }
        if let Some(saved) = &self.delta_saved_bytes {
            saved.add(logical_len.saturating_sub(file.len() as u64));
        }
        if let Some(hist) = &self.chain_len_hist {
            hist.record(depth as u64);
        }
        let out = PutOutcome {
            digest,
            len: logical_len,
            stored_len: file.len() as u64,
            written: true,
            chain_depth: depth,
        };
        if let Some(obs) = &self.observer {
            obs.on_put(&out);
        }
        Ok(out)
    }

    /// Stage `file` (already fully encoded, header included) under the
    /// object name for `digest`: `.part` staging, fsync, atomic rename,
    /// fanout sync — the same crash-safety protocol as raw puts.
    fn stage_object(&self, storage: &dyn Storage, digest: Digest, file: &[u8]) -> io::Result<()> {
        let path = self.object_path(digest);
        let fanout = path.parent().expect("object path has a fanout dir");
        storage.create_dir_all(fanout)?;
        let tmp = staging_path(fanout, digest);
        let mut stream = storage.create_stream(&tmp)?;
        stream.write_chunk(file)?;
        stream.finish()?;
        drop(stream);
        match storage.rename(&tmp, &path) {
            Ok(()) => {}
            // Backends whose rename refuses existing targets (the
            // in-memory tier): replace non-atomically. Such tiers are
            // volatile — their contents do not survive a crash — so the
            // remove/rename window costs nothing durable.
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                storage.remove_file(&path)?;
                storage.rename(&tmp, &path)?;
            }
            Err(e) => return Err(e),
        }
        storage.sync(fanout)
    }

    /// Materialize the *decoded* bytes of `digest`, walking delta chains
    /// down to their base and verifying the SHA-256 of every hop's
    /// decoded image against that hop's object name on the way back up.
    ///
    /// Readers holding an encoded checkpoint hard link must materialize
    /// through the store by logical digest instead of decoding the
    /// link's bytes: after a compaction rewrites the chain, the link
    /// still points at the *old* delta inode, whose base may since have
    /// been collected — the store path always holds a decodable object
    /// for every live digest. A `NotFound` mid-walk (a compaction or
    /// sweep rewrote the chain underneath us) restarts the whole walk
    /// from the tip against the fresh objects. Restarts are governed by
    /// the wired [`RetryPolicy`]/clock when present — bounded attempts
    /// with backoff, so a compaction storm (the daemon's background
    /// compactor rewriting chains in a loop) cannot exhaust a healthy
    /// read in two blind tries — and counted in the
    /// `cas.materialize.retries` metric.
    pub fn materialize(&self, storage: &dyn Storage, digest: Digest) -> io::Result<Vec<u8>> {
        let max_restarts = self
            .read_retry
            .as_ref()
            .map_or(2, |r| r.policy.max_retries.max(2));
        let mut attempt = 0u32;
        loop {
            match self.materialize_once(storage, digest) {
                Ok(bytes) => return Ok(bytes),
                Err(e) if attempt < max_restarts && e.kind() == io::ErrorKind::NotFound => {
                    if let Some(r) = &self.read_retry {
                        r.clock.sleep(r.policy.delay(attempt));
                    }
                    self.mat_retries.fetch_add(1, Ordering::SeqCst);
                    if let Some(c) = &self.mat_retry_counter {
                        c.incr();
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn materialize_once(&self, storage: &dyn Storage, digest: Digest) -> io::Result<Vec<u8>> {
        // Walk the chain tip -> base, collecting each hop's file bytes.
        let mut hops: Vec<(Digest, ObjectKind, Vec<u8>)> = Vec::new();
        let mut cur = digest;
        loop {
            if hops.len() > MAX_CHAIN_WALK {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("delta chain under {digest} exceeds {MAX_CHAIN_WALK} hops (cycle?)"),
                ));
            }
            let file = self.get(storage, cur)?;
            let kind = codec::parse_header(&file)?;
            let next = match kind {
                ObjectKind::Delta { base, .. } => Some(base),
                _ => None,
            };
            hops.push((cur, kind, file));
            match next {
                Some(base) => cur = base,
                None => break,
            }
        }
        // Decode base -> tip, verifying each hop's digest as we go.
        let mut image: Vec<u8> = Vec::new();
        for (hop_digest, kind, file) in hops.into_iter().rev() {
            image = match kind {
                ObjectKind::LegacyRaw => file,
                ObjectKind::Full { codec, logical_len } => {
                    codec.decode(&file[codec::FULL_HEADER_LEN..], logical_len)?
                }
                ObjectKind::Delta {
                    codec, logical_len, ..
                } => {
                    let mut diff = codec.decode(&file[codec::DELTA_HEADER_LEN..], logical_len)?;
                    codec::xor_into(&mut diff, &image)?;
                    diff
                }
            };
            if Digest::of(&image) != hop_digest {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("object {hop_digest} decoded to bytes with a different digest"),
                ));
            }
        }
        Ok(image)
    }

    /// Rewrite every delta object whose chain is longer than `max_chain`
    /// hops into a fresh self-contained `Full` object under the *same*
    /// object name (WAL-truncate idiom: stage the replacement completely,
    /// fsync, atomically swap, then drop the marker). `max_chain = 0`
    /// flattens every delta. Concurrent readers are never broken: the
    /// object path holds either the old chain or the new `Full` at every
    /// instant, readers materialize by digest through this path, and
    /// orphaned bases stay until the next GC census drops them.
    pub fn compact_chains(
        &self,
        storage: &dyn Storage,
        max_chain: usize,
    ) -> io::Result<CompactReport> {
        let mut report = CompactReport::default();
        for (digest, stored_len) in self.list(storage)? {
            report.examined += 1;
            let depth = match self.chain_len(storage, digest) {
                Ok(d) => d,
                // The object (or its chain) vanished under a concurrent
                // sweep — nothing left to compact.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            if depth == 0 || depth <= max_chain {
                continue;
            }
            let image = match self.materialize(storage, digest) {
                Ok(img) => img,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            let logical_len = image.len() as u64;
            let (mut codec, mut payload) = codec::smallest_encoding(&image);
            if payload.len() >= image.len() {
                (codec, payload) = (Codec::Raw, image);
            }
            let mut file = codec::full_header(codec, logical_len);
            file.extend_from_slice(&payload);
            self.stage_object(storage, digest, &file)?;
            // Marker last: a crash before this leaves a Full object with
            // a stale marker — the hit-path walk tolerates it (the chain
            // touch just stops at a missing base) and the next compaction
            // pass removes it.
            let _ = storage.remove_file(&self.delta_marker_path(digest));
            report.compacted += 1;
            report.bytes_before += stored_len;
            report.bytes_after += file.len() as u64;
            if let Some(c) = &self.compactions {
                c.incr();
            }
        }
        // Self-heal stale markers from earlier interrupted passes.
        let mut stale = Vec::new();
        self.walk(storage, |path| {
            if path.extension().is_some_and(|e| e == "delta") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    if let Ok(d) = Digest::parse_hex(stem) {
                        if self.contains(storage, d)
                            && !matches!(self.header_peek(storage, d), Ok(ObjectKind::Delta { .. }))
                        {
                            stale.push(path.to_path_buf());
                        }
                    }
                }
            }
            Ok(())
        })?;
        for marker in stale {
            let _ = storage.remove_file(&marker);
        }
        Ok(report)
    }

    /// Garbage-collect with the mark taken *now*: equivalent to
    /// [`ObjectStore::sweep_with_mark`] with [`SweepMark::now`], so even
    /// this legacy entry point refuses to delete objects that appear
    /// while the walk is in flight.
    ///
    /// Callers that compute `live` ahead of time (every real GC does —
    /// the census reads manifests first) must instead take the mark
    /// *before* the census and call [`ObjectStore::sweep_with_mark`],
    /// otherwise an object published between census and sweep is
    /// deleted out from under its (about-to-commit) checkpoint.
    pub fn sweep(&self, storage: &dyn Storage, live: &BTreeSet<Digest>) -> io::Result<SweepReport> {
        self.sweep_with_mark(storage, live, &SweepMark::now())
    }

    /// Garbage-collect: delete every object whose digest is not in
    /// `live`, plus any `.part` staging debris — except paths whose
    /// mtime is at-or-after `mark`, which are *pinned* this pass
    /// ([`SweepReport::pinned_young`]): they were published after the
    /// live set was computed, so deleting them could tear a concurrent
    /// publisher's checkpoint. Backends without mtimes report
    /// `UNIX_EPOCH` and degrade to the unpinned behavior.
    ///
    /// The mtime guard is wall-clock based and therefore best-effort
    /// against out-of-band publishers (coarse filesystem clocks can lag
    /// the mark by a tick). It covers dedup *hits* as well as fresh
    /// writes, because [`ObjectStore::put_stream`] re-dates an existing
    /// object on every hit; the coordinator closes the race exactly with
    /// put-observer pins on top of this ([`ObjectStore::sweep_guarded`]).
    ///
    /// Crash safety: the sweep only ever deletes paths that are *dead at
    /// the time of the call* — it never touches a live object, so a kill
    /// at any storage op leaves all live objects intact and merely
    /// postpones the remaining deletions to the next sweep. Callers must
    /// compute `live` from committed, non-quarantined manifests *before*
    /// sweeping (checkpoint deletion first, GC second).
    pub fn sweep_with_mark(
        &self,
        storage: &dyn Storage,
        live: &BTreeSet<Digest>,
        mark: &SweepMark,
    ) -> io::Result<SweepReport> {
        self.sweep_guarded(storage, live, mark, &|_| false)
    }

    /// [`ObjectStore::sweep_with_mark`] with a live pin guard: `pinned`
    /// is consulted *per object at deletion time*, so a reference that
    /// lands after the caller snapshotted its keep-set but before the
    /// walk reaches the object still saves it. The coordinator passes
    /// its pin board here — unlike the mtime guard (wall-clock, so
    /// coarse filesystem timestamps can lag the mark by a tick), the
    /// guard is exact for in-process publishers.
    ///
    /// An object that vanishes mid-pass (a racing out-of-band sweep or
    /// manual cleanup got there first) counts as deleted and the walk
    /// continues — only real I/O failures abort the sweep.
    pub fn sweep_guarded(
        &self,
        storage: &dyn Storage,
        live: &BTreeSet<Digest>,
        mark: &SweepMark,
        pinned: &dyn Fn(Digest) -> bool,
    ) -> io::Result<SweepReport> {
        let mut report = SweepReport::default();
        // A live delta's whole base chain is reachable, even though no
        // manifest names the bases directly: expand the keep-set
        // transitively over the authoritative object headers before
        // deleting anything. Deltas referenced only *after* the census
        // (a racing publisher) are covered separately: their put
        // re-dates the chain, so the mtime guard pins the bases, and
        // observer pins cover in-process callers.
        let live = self.expand_over_bases(storage, live);
        let live = &live;
        let young = |path: &Path| -> bool {
            // Uncounted metadata peek; an unreadable mtime (e.g. the
            // file vanished under a concurrent sweep) counts as young —
            // when liveness is uncertain, never delete.
            match storage.mtime(path) {
                Ok(t) => t >= mark.instant(),
                Err(_) => true,
            }
        };
        let gone = |e: &io::Error| e.kind() == io::ErrorKind::NotFound;
        self.walk(storage, |path| {
            match object_name(path) {
                Some(d) if live.contains(&d) => report.live_objects += 1,
                Some(_) if young(path) => report.pinned_young += 1,
                Some(d) if pinned(d) => report.pinned_by_guard += 1,
                Some(d) => match storage.file_len(path) {
                    Ok(len) => match storage.remove_file(path) {
                        Ok(()) => {
                            report.deleted_objects += 1;
                            report.reclaimed_bytes += len;
                            // A dead delta takes its marker with it.
                            let _ = storage.remove_file(&self.delta_marker_path(d));
                        }
                        Err(e) if gone(&e) => report.deleted_objects += 1,
                        Err(e) => return Err(e),
                    },
                    Err(e) if gone(&e) => report.deleted_objects += 1,
                    Err(e) => return Err(e),
                },
                None => {
                    if path.extension().is_some_and(|e| e == "part") {
                        // A young .part is a concurrent publisher's
                        // in-flight staging file, not debris.
                        if young(path) {
                            report.pinned_young += 1;
                        } else {
                            match storage.remove_file(path) {
                                Ok(()) => report.debris_removed += 1,
                                Err(e) if gone(&e) => report.debris_removed += 1,
                                Err(e) => return Err(e),
                            }
                        }
                    } else if path.extension().is_some_and(|e| e == "delta") {
                        // A delta marker belongs to its object; it is
                        // debris only when the object is gone (a crash
                        // between marker write and object rename) and it
                        // is old enough that no in-flight put owns it.
                        if !storage.exists(path) {
                            // Already removed alongside its object
                            // earlier in this very pass.
                        } else if storage.exists(&path.with_extension("obj")) || young(path) {
                            // Owned or possibly in-flight: keep.
                        } else {
                            match storage.remove_file(path) {
                                Ok(()) => report.debris_removed += 1,
                                Err(e) if gone(&e) => report.debris_removed += 1,
                                Err(e) => return Err(e),
                            }
                        }
                    }
                }
            }
            Ok(())
        })?;
        Ok(report)
    }

    /// Close `live` over delta bases: any chain hop under a live digest
    /// is itself reachable. Bases are discovered from the authoritative
    /// object headers; the uncounted marker peek keeps the expansion
    /// free for non-delta objects (the overwhelmingly common case).
    /// Errors reading a header degrade to *not* expanding that hop —
    /// never to deleting more.
    fn expand_over_bases(
        &self,
        storage: &dyn Storage,
        live: &BTreeSet<Digest>,
    ) -> BTreeSet<Digest> {
        let mut expanded = live.clone();
        let mut queue: Vec<Digest> = live.iter().copied().collect();
        while let Some(d) = queue.pop() {
            if !storage.exists(&self.delta_marker_path(d)) {
                continue;
            }
            let Ok(ObjectKind::Delta { base, .. }) = self.header_peek(storage, d) else {
                continue;
            };
            if expanded.insert(base) {
                queue.push(base);
            }
        }
        expanded
    }

    /// Visit every file in the fanout tree.
    fn walk(
        &self,
        storage: &dyn Storage,
        mut f: impl FnMut(&Path) -> io::Result<()>,
    ) -> io::Result<()> {
        if !storage.exists(&self.root) {
            return Ok(());
        }
        let mut fanouts = self.read_op(|| storage.list_dir(&self.root))?;
        fanouts.sort();
        for fanout in fanouts {
            // `Storage` has no `is_dir`: a fan-out is an entry that lists.
            // A stray file (or a fan-out a concurrent sweep removed) is
            // skipped; real I/O errors still surface.
            use io::ErrorKind::{NotADirectory, NotFound};
            let mut entries = match self.read_op(|| storage.list_dir(&fanout)) {
                Ok(entries) => entries,
                Err(e) if matches!(e.kind(), NotADirectory | NotFound) => continue,
                Err(e) => return Err(e),
            };
            entries.sort();
            for entry in entries {
                f(&entry)?;
            }
        }
        Ok(())
    }
}

/// The shared-store root a run root redirects to, if it carries a
/// readable, non-empty [`CASROOT_FILE`].
pub fn redirect_target(storage: &dyn Storage, run_root: &Path) -> Option<PathBuf> {
    let redirect = run_root.join(CASROOT_FILE);
    if !storage.exists(&redirect) {
        return None;
    }
    let bytes = storage.read(&redirect).ok()?;
    let text = String::from_utf8(bytes).ok()?;
    let trimmed = text.trim();
    if trimmed.is_empty() {
        None
    } else {
        Some(PathBuf::from(trimmed))
    }
}

/// Whether `run_root` redirects its objects to a shared store.
pub fn is_redirected(storage: &dyn Storage, run_root: &Path) -> bool {
    redirect_target(storage, run_root).is_some()
}

/// Point `run_root` at the shared store rooted at `shared_root` (the
/// directory holding `objects/`). Written durably: a run root that loses
/// its redirect would silently degrade to a private store.
pub fn write_redirect(
    storage: &dyn Storage,
    run_root: &Path,
    shared_root: &Path,
) -> io::Result<()> {
    let redirect = run_root.join(CASROOT_FILE);
    let mut text = shared_root.display().to_string();
    text.push('\n');
    storage.write(&redirect, text.as_bytes())?;
    storage.sync(&redirect)
}

/// Parse `<64-hex>.obj` file names back into digests.
fn object_name(path: &Path) -> Option<Digest> {
    if path.extension()? != "obj" {
        return None;
    }
    Digest::parse_hex(path.file_stem()?.to_str()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmt_storage::vfs::{FaultKind, FaultSpec, FaultyFs, LocalFs};

    fn store(dir: &Path) -> ObjectStore {
        ObjectStore::for_run_root(dir)
    }

    #[test]
    fn put_get_roundtrip_and_dedup() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let fs = LocalFs;
        let first = s.put(&fs, b"layer bytes").unwrap();
        assert!(first.written);
        assert_eq!(first.len, 11);
        let again = s.put(&fs, b"layer bytes").unwrap();
        assert!(!again.written, "identical content must dedup");
        assert_eq!(again.digest, first.digest);
        assert_eq!(s.get(&fs, first.digest).unwrap(), b"layer bytes");
        assert_eq!(s.object_len(&fs, first.digest).unwrap(), 11);
        assert_eq!(s.list(&fs).unwrap(), vec![(first.digest, 11)]);
    }

    #[test]
    fn dedup_hit_costs_zero_counted_ops() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let fs = FaultyFs::new(LocalFs, FaultSpec::never());
        s.put(&fs, b"once").unwrap();
        let before = fs.ops_attempted();
        let hit = s.put(&fs, b"once").unwrap();
        assert!(!hit.written);
        assert_eq!(
            fs.ops_attempted(),
            before,
            "a dedup hit must be a pure metadata peek"
        );
    }

    #[test]
    fn put_stream_matches_whole_buffer_put() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let fs = LocalFs;
        let payload: Vec<u8> = (0..2048u32).flat_map(|v| v.to_le_bytes()).collect();
        let d = Digest::of(&payload);
        let out = s
            .put_stream(&fs, d, payload.len() as u64, payload.chunks(100))
            .unwrap();
        assert!(out.written);
        assert_eq!(out.digest, d);
        assert_eq!(s.get(&fs, d).unwrap(), payload);
        // Second put of the same content — via either API — is a hit.
        assert!(!s.put(&fs, &payload).unwrap().written);
        let hit = s
            .put_stream(&fs, d, payload.len() as u64, payload.chunks(999))
            .unwrap();
        assert!(!hit.written);
    }

    #[test]
    fn put_stream_hit_costs_zero_counted_ops() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let fs = FaultyFs::new(LocalFs, FaultSpec::never());
        s.put(&fs, b"chunked").unwrap();
        let before = fs.ops_attempted();
        let hit = s
            .put_stream(
                &fs,
                Digest::of(b"chunked"),
                7,
                std::iter::once(&b"chunked"[..]),
            )
            .unwrap();
        assert!(!hit.written);
        assert_eq!(fs.ops_attempted(), before);
    }

    #[test]
    fn dedup_counters_track_hits_and_misses_in_memory() {
        let dir = tempfile::tempdir().unwrap();
        let metrics = MetricsRegistry::new();
        let s = store(dir.path()).with_metrics(&metrics);
        let fs = FaultyFs::new(LocalFs, FaultSpec::never());
        s.put(&fs, b"counted").unwrap();
        assert_eq!(metrics.counter_value("cas.dedup.misses"), 1);
        assert_eq!(metrics.counter_value("cas.dedup.hits"), 0);
        let before = fs.ops_attempted();
        s.put(&fs, b"counted").unwrap();
        assert_eq!(metrics.counter_value("cas.dedup.hits"), 1);
        assert_eq!(metrics.counter_value("cas.dedup.saved_bytes"), 7);
        assert_eq!(
            fs.ops_attempted(),
            before,
            "counting must not add storage ops"
        );
    }

    #[test]
    fn put_stream_rejects_digest_mismatch_without_poisoning_store() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let fs = LocalFs;
        let claimed = Digest::of(b"what the caller promised");
        let err = s
            .put_stream(&fs, claimed, 5, std::iter::once(&b"other"[..]))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Nothing addressable landed, and no .part debris survived.
        assert!(!s.contains(&fs, claimed));
        assert_eq!(s.list(&fs).unwrap(), vec![]);
        let swept = s.sweep(&fs, &BTreeSet::new()).unwrap();
        assert_eq!(swept.debris_removed, 0);
    }

    #[test]
    fn interrupted_put_leaves_only_debris_and_is_retryable() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        // Kill at every op of a single put; the object must either be
        // fully present under its digest name or absent entirely.
        let clean = FaultyFs::new(LocalFs, FaultSpec::never());
        s.put(&clean, b"probe").unwrap();
        let ops_per_put = clean.ops_attempted();
        for k in 0..ops_per_put {
            let kdir = tempfile::tempdir().unwrap();
            let ks = store(kdir.path());
            let fs = FaultyFs::with_seed(
                LocalFs,
                FaultSpec {
                    at_op: k,
                    kind: FaultKind::TornWrite { keep_bytes: None },
                },
                k,
            );
            let err = ks.put(&fs, b"payload-under-test").unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe, "kill {k}");
            let d = Digest::of(b"payload-under-test");
            if ks.contains(&LocalFs, d) {
                assert_eq!(ks.get(&LocalFs, d).unwrap(), b"payload-under-test");
            }
            // Whatever remains, a retry on healthy storage converges.
            let out = ks.put(&LocalFs, b"payload-under-test").unwrap();
            assert_eq!(ks.get(&LocalFs, out.digest).unwrap(), b"payload-under-test");
            // And GC clears any .part debris the kill left behind.
            let live: BTreeSet<Digest> = [out.digest].into();
            let swept = ks.sweep(&LocalFs, &live).unwrap();
            assert_eq!(swept.deleted_objects, 0);
            assert!(ks.contains(&LocalFs, out.digest));
        }
    }

    #[test]
    fn sweep_deletes_only_dead_objects() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let fs = LocalFs;
        let live_obj = s.put(&fs, b"still referenced").unwrap();
        let dead_obj = s.put(&fs, b"orphaned").unwrap();
        let live: BTreeSet<Digest> = [live_obj.digest].into();
        let report = s.sweep(&fs, &live).unwrap();
        assert_eq!(report.live_objects, 1);
        assert_eq!(report.deleted_objects, 1);
        assert_eq!(report.reclaimed_bytes, 8);
        assert!(s.contains(&fs, live_obj.digest));
        assert!(!s.contains(&fs, dead_obj.digest));
    }

    #[test]
    fn sweep_mark_pins_objects_published_after_census() {
        use std::time::{Duration, SystemTime};
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let fs = LocalFs;
        let live_obj = s.put(&fs, b"referenced").unwrap();
        let young = s.put(&fs, b"published after the census").unwrap();
        let live: BTreeSet<Digest> = [live_obj.digest].into();
        // The census (live set) predates `young`: a mark taken back then
        // must pin it instead of sweeping it.
        let mark = SweepMark::at(SystemTime::now() - Duration::from_secs(10));
        let r = s.sweep_with_mark(&fs, &live, &mark).unwrap();
        assert_eq!(r.live_objects, 1);
        assert_eq!(r.deleted_objects, 0);
        assert_eq!(r.pinned_young, 1);
        assert!(s.contains(&fs, young.digest), "young object swept");
        // The next sweep's census sees it; with a mark that postdates the
        // object it is an ordinary dead object again.
        let later = SweepMark::at(SystemTime::now() + Duration::from_secs(10));
        let r = s.sweep_with_mark(&fs, &live, &later).unwrap();
        assert_eq!(r.deleted_objects, 1);
        assert_eq!(r.pinned_young, 0);
        assert!(!s.contains(&fs, young.digest));
        assert!(s.contains(&fs, live_obj.digest));
    }

    #[test]
    fn sweep_mark_pins_in_flight_part_staging_files() {
        use std::time::{Duration, SystemTime};
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let fs = LocalFs;
        let keep = s.put(&fs, b"anchor").unwrap();
        // Fake a concurrent publisher's in-flight staging file.
        let fanout = s.object_path(keep.digest);
        let part = fanout.parent().unwrap().join(format!(
            "{}.99.part",
            Digest::of(b"still streaming").to_hex()
        ));
        std::fs::write(&part, b"partial payl").unwrap();
        let live: BTreeSet<Digest> = [keep.digest].into();
        let mark = SweepMark::at(SystemTime::now() - Duration::from_secs(10));
        let r = s.sweep_with_mark(&fs, &live, &mark).unwrap();
        assert_eq!(r.debris_removed, 0, "in-flight staging file deleted");
        assert_eq!(r.pinned_young, 1);
        assert!(part.exists());
        // Once the mark postdates it, it is abandoned debris.
        let later = SweepMark::at(SystemTime::now() + Duration::from_secs(10));
        let r = s.sweep_with_mark(&fs, &live, &later).unwrap();
        assert_eq!(r.debris_removed, 1);
        assert!(!part.exists());
    }

    #[test]
    fn staging_names_are_unique_per_process_and_call_and_swept_as_debris() {
        use std::time::{Duration, SystemTime};
        let digest = Digest::of(b"placed by two clients at once");
        assert_ne!(staging_name(digest, 7, 0), staging_name(digest, 8, 0));
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let fs = LocalFs;
        let fanout = s.object_path(digest).parent().unwrap().to_path_buf();
        let (a, b) = (staging_path(&fanout, digest), staging_path(&fanout, digest));
        assert_ne!(a, b);
        let pid = std::process::id().to_string();
        for p in [&a, &b] {
            assert!(p.extension().is_some_and(|e| e == "part"), "{p:?}");
            assert!(p.to_string_lossy().contains(&pid), "{p:?}");
        }
        // The sweep handles it like any other staging file: in flight
        // while young, debris once the mark postdates it.
        std::fs::create_dir_all(&fanout).unwrap();
        std::fs::write(&a, b"partial payl").unwrap();
        let live = BTreeSet::new();
        let before = SweepMark::at(SystemTime::now() - Duration::from_secs(10));
        let r = s.sweep_with_mark(&fs, &live, &before).unwrap();
        assert_eq!((r.pinned_young, r.debris_removed), (1, 0));
        let after = SweepMark::at(SystemTime::now() + Duration::from_secs(10));
        let r = s.sweep_with_mark(&fs, &live, &after).unwrap();
        assert_eq!((r.pinned_young, r.debris_removed), (0, 1));
        assert!(!a.exists());
    }

    #[test]
    fn link_survives_the_object_being_replaced_under_its_name() {
        // What a second process placing the same digest does to the
        // first one's link(2): the name is renamed over between lookup
        // and link, and the kernel refuses to link the nameless inode.
        #[derive(Debug)]
        struct ReplacedOnce(std::sync::atomic::AtomicBool);
        impl Storage for ReplacedOnce {
            fn hard_link(&self, a: &Path, b: &Path) -> io::Result<()> {
                if self.0.swap(false, Ordering::SeqCst) {
                    let copy = a.with_extension("1-0.part");
                    std::fs::copy(a, &copy)?;
                    std::fs::rename(&copy, a)?;
                    return Err(io::ErrorKind::NotFound.into());
                }
                LocalFs.hard_link(a, b)
            }
            fn exists(&self, p: &Path) -> bool {
                LocalFs.exists(p)
            }
            fn create_dir_all(&self, p: &Path) -> io::Result<()> {
                LocalFs.create_dir_all(p)
            }
            fn write(&self, p: &Path, b: &[u8]) -> io::Result<()> {
                LocalFs.write(p, b)
            }
            fn sync(&self, p: &Path) -> io::Result<()> {
                LocalFs.sync(p)
            }
            fn rename(&self, a: &Path, b: &Path) -> io::Result<()> {
                LocalFs.rename(a, b)
            }
            fn read(&self, p: &Path) -> io::Result<Vec<u8>> {
                LocalFs.read(p)
            }
            fn read_range(&self, p: &Path, o: u64, l: usize) -> io::Result<Vec<u8>> {
                LocalFs.read_range(p, o, l)
            }
            fn list_dir(&self, p: &Path) -> io::Result<Vec<PathBuf>> {
                LocalFs.list_dir(p)
            }
            fn remove_dir_all(&self, p: &Path) -> io::Result<()> {
                LocalFs.remove_dir_all(p)
            }
            fn file_len(&self, p: &Path) -> io::Result<u64> {
                LocalFs.file_len(p)
            }
            fn remove_file(&self, p: &Path) -> io::Result<()> {
                LocalFs.remove_file(p)
            }
            fn create_stream<'a>(&'a self, p: &Path) -> io::Result<Box<dyn WriteStream + 'a>> {
                LocalFs.create_stream(p)
            }
        }
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let fs = ReplacedOnce(std::sync::atomic::AtomicBool::new(true));
        let digest = s.put(&fs, b"same seed, same layer").unwrap().digest;
        let dest = dir.path().join("units.safetensors");
        s.link(&fs, digest, &dest).unwrap();
        assert_eq!(std::fs::read(&dest).unwrap(), b"same seed, same layer");
        // A name that is really gone is still an error.
        let gone = Digest::of(b"never stored");
        let err = s.link(&fs, gone, &dir.path().join("x")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    /// Storage wrapper that injects a concurrent `put` into the same
    /// store the moment the sweep starts walking it (first `list_dir`).
    #[derive(Debug)]
    struct PutDuringSweep {
        store_root: PathBuf,
        fired: std::sync::atomic::AtomicBool,
    }

    impl PutDuringSweep {
        fn fire(&self) {
            if !self.fired.swap(true, Ordering::SeqCst) {
                let run_root = self.store_root.parent().unwrap();
                ObjectStore::for_run_root(run_root)
                    .put(&LocalFs, b"raced in during the sweep")
                    .unwrap();
            }
        }
    }

    impl Storage for PutDuringSweep {
        fn create_dir_all(&self, p: &Path) -> io::Result<()> {
            LocalFs.create_dir_all(p)
        }
        fn write(&self, p: &Path, b: &[u8]) -> io::Result<()> {
            LocalFs.write(p, b)
        }
        fn sync(&self, p: &Path) -> io::Result<()> {
            LocalFs.sync(p)
        }
        fn rename(&self, a: &Path, b: &Path) -> io::Result<()> {
            LocalFs.rename(a, b)
        }
        fn read(&self, p: &Path) -> io::Result<Vec<u8>> {
            LocalFs.read(p)
        }
        fn read_range(&self, p: &Path, o: u64, l: usize) -> io::Result<Vec<u8>> {
            LocalFs.read_range(p, o, l)
        }
        fn list_dir(&self, p: &Path) -> io::Result<Vec<PathBuf>> {
            self.fire();
            LocalFs.list_dir(p)
        }
        fn remove_dir_all(&self, p: &Path) -> io::Result<()> {
            LocalFs.remove_dir_all(p)
        }
        fn exists(&self, p: &Path) -> bool {
            LocalFs.exists(p)
        }
        fn file_len(&self, p: &Path) -> io::Result<u64> {
            LocalFs.file_len(p)
        }
        fn mtime(&self, p: &Path) -> io::Result<std::time::SystemTime> {
            LocalFs.mtime(p)
        }
        fn touch(&self, p: &Path) -> io::Result<()> {
            LocalFs.touch(p)
        }
        fn hard_link(&self, a: &Path, b: &Path) -> io::Result<()> {
            LocalFs.hard_link(a, b)
        }
        fn remove_file(&self, p: &Path) -> io::Result<()> {
            LocalFs.remove_file(p)
        }
        fn create_stream<'a>(&'a self, p: &Path) -> io::Result<Box<dyn WriteStream + 'a>> {
            LocalFs.create_stream(p)
        }
    }
    use llmt_storage::vfs::WriteStream;

    #[test]
    fn put_during_sweep_keeps_the_object() {
        use std::time::{Duration, SystemTime};
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let anchor = s.put(&LocalFs, b"anchor").unwrap();
        let live: BTreeSet<Digest> = [anchor.digest].into();
        let racing = PutDuringSweep {
            store_root: s.root_dir().to_path_buf(),
            fired: std::sync::atomic::AtomicBool::new(false),
        };
        // Census mark predates the sweep, as in any real GC; the object
        // `put` mid-walk postdates it and must survive no matter where
        // the walk is when it lands.
        let mark = SweepMark::at(SystemTime::now() - Duration::from_secs(10));
        s.sweep_with_mark(&racing, &live, &mark).unwrap();
        let raced = Digest::of(b"raced in during the sweep");
        assert!(
            s.contains(&LocalFs, raced),
            "object published during the sweep was deleted"
        );
        assert_eq!(
            s.get(&LocalFs, raced).unwrap(),
            b"raced in during the sweep"
        );
    }

    /// Set an object's mtime far into the past, simulating a long-dead
    /// object (e.g. a frozen base layer last referenced by a checkpoint
    /// retired ages ago).
    fn age_object(path: &Path) {
        let old = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .unwrap()
            .set_times(std::fs::FileTimes::new().set_modified(old))
            .unwrap();
    }

    #[test]
    fn dedup_hit_redates_a_dead_object_so_the_mark_guard_pins_it() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let fs = LocalFs;
        let out = s.put(&fs, b"frozen base layer").unwrap();
        age_object(&s.object_path(out.digest));
        // A sweep's census starts now and sees the object as dead...
        let mark = SweepMark::now();
        // ...then a publisher dedup-hits it before the sweep arrives.
        // The hit must re-date it so the mark guard applies.
        let hit = s.put(&fs, b"frozen base layer").unwrap();
        assert!(!hit.written);
        let r = s.sweep_with_mark(&fs, &BTreeSet::new(), &mark).unwrap();
        assert_eq!(
            r.deleted_objects, 0,
            "swept an object a live hit references"
        );
        assert_eq!(r.pinned_young, 1);
        assert!(s.contains(&fs, out.digest));
    }

    /// Storage whose `touch` loses the race to a concurrent sweep: the
    /// object vanishes between the existence check and the touch.
    #[derive(Debug)]
    struct SweptBeforeTouch;

    impl Storage for SweptBeforeTouch {
        fn create_dir_all(&self, p: &Path) -> io::Result<()> {
            LocalFs.create_dir_all(p)
        }
        fn write(&self, p: &Path, b: &[u8]) -> io::Result<()> {
            LocalFs.write(p, b)
        }
        fn sync(&self, p: &Path) -> io::Result<()> {
            LocalFs.sync(p)
        }
        fn rename(&self, a: &Path, b: &Path) -> io::Result<()> {
            LocalFs.rename(a, b)
        }
        fn read(&self, p: &Path) -> io::Result<Vec<u8>> {
            LocalFs.read(p)
        }
        fn read_range(&self, p: &Path, o: u64, l: usize) -> io::Result<Vec<u8>> {
            LocalFs.read_range(p, o, l)
        }
        fn list_dir(&self, p: &Path) -> io::Result<Vec<PathBuf>> {
            LocalFs.list_dir(p)
        }
        fn remove_dir_all(&self, p: &Path) -> io::Result<()> {
            LocalFs.remove_dir_all(p)
        }
        fn exists(&self, p: &Path) -> bool {
            LocalFs.exists(p)
        }
        fn file_len(&self, p: &Path) -> io::Result<u64> {
            LocalFs.file_len(p)
        }
        fn touch(&self, p: &Path) -> io::Result<()> {
            // The racing sweep deletes the object just before our touch.
            LocalFs.remove_file(p)?;
            LocalFs.touch(p)
        }
        fn hard_link(&self, a: &Path, b: &Path) -> io::Result<()> {
            LocalFs.hard_link(a, b)
        }
        fn remove_file(&self, p: &Path) -> io::Result<()> {
            LocalFs.remove_file(p)
        }
        fn create_stream<'a>(&'a self, p: &Path) -> io::Result<Box<dyn WriteStream + 'a>> {
            LocalFs.create_stream(p)
        }
    }

    #[test]
    fn hit_on_an_object_swept_mid_put_restages_it() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        s.put(&LocalFs, b"about to vanish").unwrap();
        // The existence check sees the object, then the touch finds it
        // deleted: the put must fall through to staging, not return a
        // "hit" on a file that no longer exists.
        let out = s.put(&SweptBeforeTouch, b"about to vanish").unwrap();
        assert!(out.written, "vanished object reported as a dedup hit");
        assert_eq!(s.get(&LocalFs, out.digest).unwrap(), b"about to vanish");
    }

    #[test]
    fn sweep_guard_saves_objects_pinned_after_the_keep_set_snapshot() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let fs = LocalFs;
        let dead = s.put(&fs, b"dead but re-referenced").unwrap();
        age_object(&s.object_path(dead.digest));
        let mark = SweepMark::now();
        // Keep-set is empty (snapshotted before the reference arrived),
        // but the live guard — the coordinator's pin board — claims the
        // object at deletion time.
        let r = s
            .sweep_guarded(&fs, &BTreeSet::new(), &mark, &|d| d == dead.digest)
            .unwrap();
        assert_eq!(r.deleted_objects, 0);
        assert_eq!(r.pinned_by_guard, 1);
        assert!(s.contains(&fs, dead.digest));
        // Without the guard claim it is an ordinary dead object.
        let r = s
            .sweep_guarded(&fs, &BTreeSet::new(), &mark, &|_| false)
            .unwrap();
        assert_eq!(r.deleted_objects, 1);
        assert!(!s.contains(&fs, dead.digest));
    }

    /// Storage that simulates an out-of-band actor deleting an object
    /// mid-sweep: the first dead object probed vanishes either before
    /// `file_len` or between `file_len` and `remove_file`.
    #[derive(Debug)]
    struct VanishingObject {
        at_len: bool,
        fired: std::sync::atomic::AtomicBool,
    }

    impl VanishingObject {
        fn new(at_len: bool) -> Self {
            VanishingObject {
                at_len,
                fired: std::sync::atomic::AtomicBool::new(false),
            }
        }
    }

    impl Storage for VanishingObject {
        fn create_dir_all(&self, p: &Path) -> io::Result<()> {
            LocalFs.create_dir_all(p)
        }
        fn write(&self, p: &Path, b: &[u8]) -> io::Result<()> {
            LocalFs.write(p, b)
        }
        fn sync(&self, p: &Path) -> io::Result<()> {
            LocalFs.sync(p)
        }
        fn rename(&self, a: &Path, b: &Path) -> io::Result<()> {
            LocalFs.rename(a, b)
        }
        fn read(&self, p: &Path) -> io::Result<Vec<u8>> {
            LocalFs.read(p)
        }
        fn read_range(&self, p: &Path, o: u64, l: usize) -> io::Result<Vec<u8>> {
            LocalFs.read_range(p, o, l)
        }
        fn list_dir(&self, p: &Path) -> io::Result<Vec<PathBuf>> {
            LocalFs.list_dir(p)
        }
        fn remove_dir_all(&self, p: &Path) -> io::Result<()> {
            LocalFs.remove_dir_all(p)
        }
        fn exists(&self, p: &Path) -> bool {
            LocalFs.exists(p)
        }
        fn file_len(&self, p: &Path) -> io::Result<u64> {
            if self.at_len && !self.fired.swap(true, Ordering::SeqCst) {
                LocalFs.remove_file(p)?;
            }
            LocalFs.file_len(p)
        }
        fn mtime(&self, p: &Path) -> io::Result<std::time::SystemTime> {
            LocalFs.mtime(p)
        }
        fn touch(&self, p: &Path) -> io::Result<()> {
            LocalFs.touch(p)
        }
        fn hard_link(&self, a: &Path, b: &Path) -> io::Result<()> {
            LocalFs.hard_link(a, b)
        }
        fn remove_file(&self, p: &Path) -> io::Result<()> {
            if !self.at_len && !self.fired.swap(true, Ordering::SeqCst) {
                LocalFs.remove_file(p)?;
            }
            LocalFs.remove_file(p)
        }
        fn create_stream<'a>(&'a self, p: &Path) -> io::Result<Box<dyn WriteStream + 'a>> {
            LocalFs.create_stream(p)
        }
    }

    #[test]
    fn sweep_tolerates_objects_removed_out_of_band_mid_pass() {
        for at_len in [true, false] {
            let dir = tempfile::tempdir().unwrap();
            let s = store(dir.path());
            let live_obj = s.put(&LocalFs, b"still referenced").unwrap();
            s.put(&LocalFs, b"dead one").unwrap();
            s.put(&LocalFs, b"dead two").unwrap();
            for payload in [b"dead one".as_slice(), b"dead two"] {
                age_object(&s.object_path(Digest::of(payload)));
            }
            age_object(&s.object_path(live_obj.digest));
            let live: BTreeSet<Digest> = [live_obj.digest].into();
            let fs = VanishingObject::new(at_len);
            // The first dead object vanishes mid-pass; the sweep must
            // keep walking and still reclaim the second one.
            let r = s.sweep(&fs, &live).unwrap();
            assert_eq!(r.deleted_objects, 2, "at_len={at_len}");
            assert_eq!(r.live_objects, 1);
            assert_eq!(s.list(&LocalFs).unwrap(), vec![(live_obj.digest, 16)]);
        }
    }

    #[test]
    fn read_paths_retry_transients_with_injected_clock() {
        use llmt_storage::vfs::{ManualClock, RetryPolicy};
        let dir = tempfile::tempdir().unwrap();
        let plain = store(dir.path());
        let out = plain.put(&LocalFs, b"retried payload").unwrap();
        let clock = Arc::new(ManualClock::default());
        let s = store(dir.path()).with_read_retry(RetryPolicy::default(), clock.clone());
        let fs = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 0,
                kind: FaultKind::Transient { failures: 2 },
            },
        );
        // get: ops 0,1 transient, op 2 succeeds.
        assert_eq!(s.get(&fs, out.digest).unwrap(), b"retried payload");
        assert_eq!(clock.sleeps(), 2);
        assert_eq!(s.read_retries(), 2);
        // object_len and list ride the same policy.
        let fs = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 0,
                kind: FaultKind::Transient { failures: 1 },
            },
        );
        assert_eq!(s.object_len(&fs, out.digest).unwrap(), 15);
        let fs = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 0,
                kind: FaultKind::Transient { failures: 1 },
            },
        );
        assert_eq!(s.list(&fs).unwrap(), vec![(out.digest, 15)]);
        assert!(s.read_retries() >= 4);
    }

    #[test]
    fn unwired_reads_still_fail_fast_and_terminal_errors_pass_through() {
        use llmt_storage::vfs::ManualClock;
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let out = s.put(&LocalFs, b"x").unwrap();
        let fs = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 0,
                kind: FaultKind::Transient { failures: 1 },
            },
        );
        // No retry wired: first transient surfaces.
        assert!(s.get(&fs, out.digest).is_err());
        // Retry wired, but the storage is dead: BrokenPipe is terminal.
        let clock = Arc::new(ManualClock::default());
        let s = store(dir.path())
            .with_read_retry(llmt_storage::vfs::RetryPolicy::default(), clock.clone());
        let fs = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 0,
                kind: FaultKind::Crash,
            },
        );
        assert!(s.get(&fs, out.digest).is_err());
        assert_eq!(clock.sleeps(), 0, "terminal errors must not be retried");
    }

    #[derive(Debug, Default)]
    struct RecordingObserver {
        seen: std::sync::Mutex<Vec<PutOutcome>>,
    }

    impl PutObserver for RecordingObserver {
        fn on_put(&self, outcome: &PutOutcome) {
            self.seen.lock().unwrap().push(*outcome);
        }
    }

    #[test]
    fn observer_sees_misses_and_hits() {
        let dir = tempfile::tempdir().unwrap();
        let obs = Arc::new(RecordingObserver::default());
        let s = store(dir.path()).with_observer(obs.clone());
        let out = s.put(&LocalFs, b"observed").unwrap();
        let hit = s.put(&LocalFs, b"observed").unwrap();
        assert!(out.written && !hit.written);
        let seen = obs.seen.lock().unwrap();
        assert_eq!(seen.len(), 2, "hits must be observed too — they pin");
        assert_eq!(seen[0].digest, out.digest);
        assert!(seen[0].written);
        assert!(!seen[1].written);
    }

    #[test]
    fn resolve_follows_casroot_redirect() {
        let shared = tempfile::tempdir().unwrap();
        let run = tempfile::tempdir().unwrap();
        // No redirect: the run-local store.
        let local = ObjectStore::resolve(&LocalFs, run.path());
        assert_eq!(local.root_dir(), run.path().join(OBJECTS_DIR));
        // With a redirect: the shared store.
        write_redirect(&LocalFs, run.path(), shared.path()).unwrap();
        assert!(is_redirected(&LocalFs, run.path()));
        assert_eq!(
            redirect_target(&LocalFs, run.path()).unwrap(),
            shared.path()
        );
        let s = ObjectStore::resolve(&LocalFs, run.path());
        assert_eq!(s.root_dir(), shared.path().join(OBJECTS_DIR));
        let out = s.put(&LocalFs, b"lands in the shared store").unwrap();
        assert!(shared
            .path()
            .join(OBJECTS_DIR)
            .join(&out.digest.to_hex()[..2])
            .join(format!("{}.obj", out.digest.to_hex()))
            .exists());
        assert!(!run.path().join(OBJECTS_DIR).exists());
    }

    #[test]
    fn killed_sweep_never_deletes_a_live_object() {
        // Census the op count of a clean sweep, then kill at every op.
        let census_dir = tempfile::tempdir().unwrap();
        let cs = store(census_dir.path());
        let mut live = BTreeSet::new();
        live.insert(cs.put(&LocalFs, b"live-a").unwrap().digest);
        live.insert(cs.put(&LocalFs, b"live-b").unwrap().digest);
        cs.put(&LocalFs, b"dead-a").unwrap();
        cs.put(&LocalFs, b"dead-b").unwrap();
        let census_fs = FaultyFs::new(LocalFs, FaultSpec::never());
        cs.sweep(&census_fs, &live).unwrap();
        let total_ops = census_fs.ops_attempted();
        assert!(total_ops > 4);

        for k in 0..total_ops {
            let dir = tempfile::tempdir().unwrap();
            let s = store(dir.path());
            let mut live = BTreeSet::new();
            live.insert(s.put(&LocalFs, b"live-a").unwrap().digest);
            live.insert(s.put(&LocalFs, b"live-b").unwrap().digest);
            s.put(&LocalFs, b"dead-a").unwrap();
            s.put(&LocalFs, b"dead-b").unwrap();
            let fs = FaultyFs::with_seed(
                LocalFs,
                FaultSpec {
                    at_op: k,
                    kind: FaultKind::TornWrite { keep_bytes: None },
                },
                k,
            );
            s.sweep(&fs, &live).unwrap_err();
            for d in &live {
                assert!(
                    s.contains(&LocalFs, *d),
                    "kill at op {k} deleted live object {d}"
                );
                assert!(s.get(&LocalFs, *d).is_ok());
            }
            // A post-crash sweep finishes the job.
            let report = s.sweep(&LocalFs, &live).unwrap();
            assert_eq!(report.live_objects, 2, "kill at op {k}");
            assert_eq!(s.list(&LocalFs).unwrap().len(), 2, "kill at op {k}");
        }
    }

    /// Deterministic pseudo-random base image plus `n` successors that
    /// each differ from their predecessor in a sparse run of bytes —
    /// the shape a training step leaves behind.
    fn chain_images(n: usize, len: usize) -> Vec<Vec<u8>> {
        let mut x: u64 = 0x1234_5678_9abc_def0;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let base: Vec<u8> = (0..len).map(|_| (step() & 0xff) as u8).collect();
        let mut images = vec![base];
        for i in 1..=n {
            let mut next = images[i - 1].clone();
            let at = (step() as usize) % (len - 32);
            for b in &mut next[at..at + 24] {
                *b = (step() & 0xff) as u8;
            }
            images.push(next);
        }
        images
    }

    /// Put `images[0]` raw, then every successor as an LZSS-encoded XOR
    /// delta against its predecessor. Returns the digests, base first.
    fn put_chain(s: &ObjectStore, fs: &dyn Storage, images: &[Vec<u8>]) -> Vec<Digest> {
        let mut digests = vec![s.put(fs, &images[0]).unwrap().digest];
        for i in 1..images.len() {
            let digest = Digest::of(&images[i]);
            let mut diff = images[i].clone();
            codec::xor_into(&mut diff, &images[i - 1]).unwrap();
            // Alternate codecs hop to hop: a chain mixes whatever each
            // writer found smallest, and decode must not care.
            let hop_codec = match i % 3 {
                0 => Codec::Raw,
                1 => Codec::Lzss,
                _ => Codec::ShuffleLzss,
            };
            let payload = hop_codec.encode(&diff);
            let out = s
                .put_delta(
                    fs,
                    digest,
                    digests[i - 1],
                    &images[i - 1],
                    hop_codec,
                    &payload,
                )
                .unwrap();
            assert_eq!(out.chain_depth, i);
            assert_eq!(out.len, images[i].len() as u64);
            digests.push(digest);
        }
        digests
    }

    #[test]
    fn delta_chain_materializes_bit_exact_at_every_hop() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let images = chain_images(5, 4096);
        let digests = put_chain(&s, &LocalFs, &images);
        for (i, d) in digests.iter().enumerate() {
            assert_eq!(s.materialize(&LocalFs, *d).unwrap(), images[i], "hop {i}");
            assert_eq!(s.chain_len(&LocalFs, *d).unwrap(), i);
        }
        let info = s.object_info(&LocalFs, digests[5]).unwrap();
        assert!(matches!(info.kind, ObjectKind::Delta { base, .. } if base == digests[4]));
        assert!(matches!(
            s.object_info(&LocalFs, digests[0]).unwrap().kind,
            ObjectKind::LegacyRaw
        ));
        // Deltas of near-identical 4 KiB images are far smaller on disk.
        assert!(info.stored_len < images[5].len() as u64 / 4);
    }

    #[test]
    fn put_full_encoded_roundtrips_and_hits() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let image = vec![7u8; 8192]; // compresses hard
        let digest = Digest::of(&image);
        let payload = Codec::Lzss.encode(&image);
        let out = s
            .put_full_encoded(&LocalFs, digest, Codec::Lzss, &payload, image.len() as u64)
            .unwrap();
        assert!(out.written);
        assert!(out.stored_len < image.len() as u64 / 10);
        assert_eq!(s.materialize(&LocalFs, digest).unwrap(), image);
        let hit = s
            .put_full_encoded(&LocalFs, digest, Codec::Lzss, &payload, image.len() as u64)
            .unwrap();
        assert!(!hit.written);
        assert_eq!(hit.stored_len, 0);
    }

    #[test]
    fn encoded_puts_reject_payloads_that_do_not_decode_to_the_digest() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let images = chain_images(1, 1024);
        let base = s.put(&LocalFs, &images[0]).unwrap().digest;
        let bogus = Digest::of(b"something else entirely");
        let mut diff = images[1].clone();
        codec::xor_into(&mut diff, &images[0]).unwrap();
        let payload = Codec::Lzss.encode(&diff);
        let err = s
            .put_delta(&LocalFs, bogus, base, &images[0], Codec::Lzss, &payload)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!s.contains(&LocalFs, bogus), "rejected delta was staged");
        let err = s
            .put_full_encoded(
                &LocalFs,
                bogus,
                Codec::Lzss,
                &payload,
                images[1].len() as u64,
            )
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!s.contains(&LocalFs, bogus));
    }

    #[test]
    fn materialize_verifies_digests_on_every_hop() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let images = chain_images(3, 2048);
        let digests = put_chain(&s, &LocalFs, &images);
        // Corrupt a payload byte of the mid-chain delta, past its header.
        let victim = s.object_path(digests[1]);
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&victim, &bytes).unwrap();
        let err = s.materialize(&LocalFs, digests[3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // The base below the corruption still materializes.
        assert_eq!(s.materialize(&LocalFs, digests[0]).unwrap(), images[0]);
    }

    #[test]
    fn compact_flattens_deep_chains_without_breaking_readers() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let images = chain_images(5, 4096);
        let digests = put_chain(&s, &LocalFs, &images);
        let report = s.compact_chains(&LocalFs, 2).unwrap();
        assert!(report.compacted >= 1, "{report:?}");
        assert_eq!(report.examined, digests.len());
        for (i, d) in digests.iter().enumerate() {
            assert_eq!(s.materialize(&LocalFs, *d).unwrap(), images[i], "hop {i}");
            let hops = s.chain_len(&LocalFs, *d).unwrap();
            assert!(hops <= 2, "hop {i} still {hops} deep after compaction");
        }
        // A flattened object sheds its chain marker; surviving shallow
        // deltas keep theirs. (Which objects got flattened depends on
        // walk order — compacting a mid-chain object shortens every
        // chain above it — so assert the invariant, not the victims.)
        for d in &digests {
            let is_delta = matches!(
                s.object_info(&LocalFs, *d).unwrap().kind,
                ObjectKind::Delta { .. }
            );
            assert_eq!(
                s.delta_marker_path(*d).exists(),
                is_delta,
                "marker out of sync for {d}"
            );
        }
        // Idempotent: a second pass finds nothing deep.
        let again = s.compact_chains(&LocalFs, 2).unwrap();
        assert_eq!(again.compacted, 0);
    }

    #[test]
    fn compaction_stores_what_the_one_selection_rule_picks() {
        // A chain over float-like bytes (compressible) and one over noise
        // (stored raw): the flattened object is byte for byte the `Full`
        // object a writer would have put for the same image.
        let floats: Vec<u8> = (0..4096u32)
            .flat_map(|i| ((i % 7) as f32).to_le_bytes())
            .collect();
        for base in [floats, chain_images(0, 4096).remove(0)] {
            let dir = tempfile::tempdir().unwrap();
            let s = store(dir.path());
            let mut next = base.clone();
            next[100] ^= 0x55;
            let digests = put_chain(&s, &LocalFs, &[base, next.clone()]);
            assert_eq!(s.compact_chains(&LocalFs, 0).unwrap().compacted, 1);
            let (mut codec, mut payload) = codec::smallest_encoding(&next);
            if payload.len() >= next.len() {
                (codec, payload) = (Codec::Raw, next.clone());
            }
            let mut expected = codec::full_header(codec, next.len() as u64);
            expected.extend_from_slice(&payload);
            assert!(s.get(&LocalFs, digests[1]).unwrap() == expected);
        }
    }

    /// Storage that answers `NotFound` for the first `misses` reads of
    /// one object path — the signature of a compaction storm rewriting
    /// a chain under a walker over and over.
    #[derive(Debug)]
    struct MissingHop {
        victim: PathBuf,
        misses: AtomicU64,
    }

    impl Storage for MissingHop {
        fn create_dir_all(&self, p: &Path) -> io::Result<()> {
            LocalFs.create_dir_all(p)
        }
        fn write(&self, p: &Path, b: &[u8]) -> io::Result<()> {
            LocalFs.write(p, b)
        }
        fn sync(&self, p: &Path) -> io::Result<()> {
            LocalFs.sync(p)
        }
        fn rename(&self, a: &Path, b: &Path) -> io::Result<()> {
            LocalFs.rename(a, b)
        }
        fn read(&self, p: &Path) -> io::Result<Vec<u8>> {
            if p == self.victim {
                let left = self.misses.load(Ordering::SeqCst);
                if left > 0 {
                    self.misses.fetch_sub(1, Ordering::SeqCst);
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        "hop rewritten by a concurrent compaction",
                    ));
                }
            }
            LocalFs.read(p)
        }
        fn read_range(&self, p: &Path, o: u64, l: usize) -> io::Result<Vec<u8>> {
            LocalFs.read_range(p, o, l)
        }
        fn list_dir(&self, p: &Path) -> io::Result<Vec<PathBuf>> {
            LocalFs.list_dir(p)
        }
        fn remove_dir_all(&self, p: &Path) -> io::Result<()> {
            LocalFs.remove_dir_all(p)
        }
        fn exists(&self, p: &Path) -> bool {
            LocalFs.exists(p)
        }
        fn file_len(&self, p: &Path) -> io::Result<u64> {
            LocalFs.file_len(p)
        }
        fn hard_link(&self, a: &Path, b: &Path) -> io::Result<()> {
            LocalFs.hard_link(a, b)
        }
        fn remove_file(&self, p: &Path) -> io::Result<()> {
            LocalFs.remove_file(p)
        }
        fn create_stream<'a>(&'a self, p: &Path) -> io::Result<Box<dyn WriteStream + 'a>> {
            LocalFs.create_stream(p)
        }
    }

    #[test]
    fn materialize_restarts_from_tip_under_the_wired_retry_policy() {
        use llmt_storage::vfs::{ManualClock, RetryPolicy};
        let dir = tempfile::tempdir().unwrap();
        let metrics = MetricsRegistry::new();
        let images = chain_images(2, 1024);
        let digests = put_chain(&store(dir.path()), &LocalFs, &images);
        let clock = Arc::new(ManualClock::default());
        let policy = RetryPolicy {
            max_retries: 6,
            ..RetryPolicy::default()
        };
        let s = store(dir.path())
            .with_metrics(&metrics)
            .with_read_retry(policy, clock.clone());
        // Five straight NotFounds on the mid-chain hop would exhaust the
        // old two blind retries; the wired policy keeps restarting from
        // the tip with backoff until the chain reads clean.
        let fs = MissingHop {
            victim: s.object_path(digests[1]),
            misses: AtomicU64::new(5),
        };
        assert_eq!(s.materialize(&fs, digests[2]).unwrap(), images[2]);
        assert_eq!(s.materialize_retries(), 5);
        assert_eq!(metrics.counter_value("cas.materialize.retries"), 5);
        assert_eq!(clock.sleeps(), 5, "each restart backs off on the clock");
        // Unwired store keeps the old bound: three attempts, then give up.
        let bare = store(dir.path());
        let fs = MissingHop {
            victim: bare.object_path(digests[1]),
            misses: AtomicU64::new(3),
        };
        let err = bare.materialize(&fs, digests[2]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert_eq!(bare.materialize_retries(), 2);
    }

    #[test]
    fn reader_racing_compaction_and_sweep_loop_stays_bit_exact() {
        use llmt_storage::vfs::{ManualClock, RetryPolicy};
        let dir = tempfile::tempdir().unwrap();
        let root = dir.path().to_path_buf();
        // Tip digest -> expected image, grown by the writer each round.
        let tips: Arc<std::sync::Mutex<Vec<(Digest, Vec<u8>)>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let (root, tips, done) = (root.clone(), tips.clone(), done.clone());
            std::thread::spawn(move || {
                let clock = Arc::new(ManualClock::default());
                let s = store(&root).with_read_retry(RetryPolicy::default(), clock);
                let mut reads = 0u64;
                while !done.load(Ordering::SeqCst) || reads == 0 {
                    let Some((tip, want)) = tips.lock().unwrap().last().cloned() else {
                        std::thread::yield_now();
                        continue;
                    };
                    let got = s
                        .materialize(&LocalFs, tip)
                        .unwrap_or_else(|e| panic!("live tip {tip} failed to materialize: {e}"));
                    assert_eq!(got, want, "tip {tip} decoded to different bytes");
                    reads += 1;
                }
                (reads, s.materialize_retries())
            })
        };
        let s = store(&root);
        for round in 0u8..30 {
            // Fresh content every round so each chain is new objects.
            let mut images = vec![vec![round.wrapping_mul(7) ^ 0x11; 2048]];
            for i in 1..4usize {
                let mut next = images[i - 1].clone();
                next[(i * 131 + round as usize * 17) % 2048] ^= 0xa5;
                images.push(next);
            }
            let digests = put_chain(&s, &LocalFs, &images);
            tips.lock().unwrap().push((digests[3], images[3].clone()));
            // Flatten every chain, then sweep the orphaned bases — the
            // window where a mid-walk reader sees NotFound.
            s.compact_chains(&LocalFs, 0).unwrap();
            for (d, _) in s.list(&LocalFs).unwrap() {
                age_object(&s.object_path(d));
            }
            let live: BTreeSet<Digest> = tips.lock().unwrap().iter().map(|(d, _)| *d).collect();
            s.sweep(&LocalFs, &live).unwrap();
        }
        done.store(true, Ordering::SeqCst);
        let (reads, _retries) = reader.join().unwrap();
        assert!(reads > 0, "reader never observed a tip");
        // Every published tip survived the compaction/sweep storm.
        for (tip, want) in tips.lock().unwrap().iter() {
            assert_eq!(&s.materialize(&LocalFs, *tip).unwrap(), want);
        }
    }

    #[test]
    fn sweep_keeps_delta_bases_reachable_from_live_tips() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let images = chain_images(3, 2048);
        let digests = put_chain(&s, &LocalFs, &images);
        let doomed = s.put(&LocalFs, b"unreferenced and old").unwrap().digest;
        for (d, _) in s.list(&LocalFs).unwrap() {
            age_object(&s.object_path(d));
        }
        // Only the tip is manifest-referenced; its bases are live by
        // transitivity over the delta headers.
        let live = BTreeSet::from([digests[3]]);
        let report = s.sweep(&LocalFs, &live).unwrap();
        assert_eq!(report.live_objects, 4, "{report:?}");
        assert_eq!(report.deleted_objects, 1);
        assert!(!s.contains(&LocalFs, doomed));
        assert_eq!(s.materialize(&LocalFs, digests[3]).unwrap(), images[3]);
    }

    #[test]
    fn hit_on_a_delta_tip_redates_the_whole_chain() {
        let dir = tempfile::tempdir().unwrap();
        let s = store(dir.path());
        let images = chain_images(2, 2048);
        let digests = put_chain(&s, &LocalFs, &images);
        for d in &digests {
            age_object(&s.object_path(*d));
        }
        // A sweep's census starts now and sees the chain as dead...
        let mark = SweepMark::now();
        // ...then a dedup hit on the tip lands before the sweep does.
        // The hit must re-date tip *and* bases, or the sweep collects
        // the bases out from under the new reference.
        assert!(s
            .note_hit(&LocalFs, digests[2], images[2].len() as u64)
            .is_some());
        let report = s
            .sweep_with_mark(&LocalFs, &BTreeSet::new(), &mark)
            .unwrap();
        assert_eq!(report.pinned_young, 3, "{report:?}");
        assert_eq!(s.materialize(&LocalFs, digests[2]).unwrap(), images[2]);
    }

    #[test]
    fn killed_put_delta_leaves_base_usable_and_retry_succeeds() {
        let images = chain_images(1, 2048);
        let digest = Digest::of(&images[1]);
        let mut diff = images[1].clone();
        codec::xor_into(&mut diff, &images[0]).unwrap();
        let payload = Codec::Lzss.encode(&diff);
        // Census the op count of a clean delta put.
        let census_dir = tempfile::tempdir().unwrap();
        let cs = store(census_dir.path());
        let base = cs.put(&LocalFs, &images[0]).unwrap().digest;
        let census_fs = FaultyFs::new(LocalFs, FaultSpec::never());
        cs.put_delta(&census_fs, digest, base, &images[0], Codec::Lzss, &payload)
            .unwrap();
        let total_ops = census_fs.ops_attempted();
        assert!(total_ops > 3);

        for k in 0..total_ops {
            let dir = tempfile::tempdir().unwrap();
            let s = store(dir.path());
            let base = s.put(&LocalFs, &images[0]).unwrap().digest;
            let fs = FaultyFs::with_seed(
                LocalFs,
                FaultSpec {
                    at_op: k,
                    kind: FaultKind::TornWrite { keep_bytes: None },
                },
                k,
            );
            let _ = s.put_delta(&fs, digest, base, &images[0], Codec::Lzss, &payload);
            // Whatever the crash left, the base is intact and a clean
            // retry converges to a materializable tip.
            assert_eq!(
                s.materialize(&LocalFs, base).unwrap(),
                images[0],
                "kill at op {k} harmed the base"
            );
            s.put_delta(&LocalFs, digest, base, &images[0], Codec::Lzss, &payload)
                .unwrap();
            assert_eq!(
                s.materialize(&LocalFs, digest).unwrap(),
                images[1],
                "kill at op {k}: retry did not converge"
            );
        }
    }

    #[test]
    fn killed_compaction_leaves_old_chain_or_new_full_never_torn() {
        let images = chain_images(4, 2048);
        // Census a clean compaction pass.
        let census_dir = tempfile::tempdir().unwrap();
        let cs = store(census_dir.path());
        put_chain(&cs, &LocalFs, &images);
        let census_fs = FaultyFs::new(LocalFs, FaultSpec::never());
        cs.compact_chains(&census_fs, 1).unwrap();
        let total_ops = census_fs.ops_attempted();
        assert!(total_ops > 3);

        for k in 0..total_ops {
            let dir = tempfile::tempdir().unwrap();
            let s = store(dir.path());
            let digests = put_chain(&s, &LocalFs, &images);
            let fs = FaultyFs::with_seed(
                LocalFs,
                FaultSpec {
                    at_op: k,
                    kind: FaultKind::TornWrite { keep_bytes: None },
                },
                k,
            );
            let _ = s.compact_chains(&fs, 1);
            // Every digest must still decode bit-exact: each object is
            // either the old chain or the new Full, never a torn hybrid.
            for (i, d) in digests.iter().enumerate() {
                assert_eq!(
                    s.materialize(&LocalFs, *d).unwrap(),
                    images[i],
                    "kill at op {k} tore object {i}"
                );
            }
            // A clean pass after the crash finishes the flattening and
            // clears any stale markers the crash stranded.
            s.compact_chains(&LocalFs, 1).unwrap();
            for (i, d) in digests.iter().enumerate() {
                assert!(s.chain_len(&LocalFs, *d).unwrap() <= 1, "kill at op {k}");
                assert_eq!(s.materialize(&LocalFs, *d).unwrap(), images[i]);
                let marker = s.delta_marker_path(*d);
                if marker.exists() {
                    assert!(
                        matches!(
                            s.object_info(&LocalFs, *d).unwrap().kind,
                            ObjectKind::Delta { .. }
                        ),
                        "kill at op {k}: stale marker on non-delta object {i}"
                    );
                }
            }
        }
    }
}
