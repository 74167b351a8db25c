//! Virtual filesystem layer: a [`Storage`] trait with a passthrough
//! [`LocalFs`], a deterministic fault-injecting [`FaultyFs`], and a
//! [`RetryingStorage`] decorator implementing bounded exponential backoff
//! with an injectable [`Clock`].
//!
//! Everything the checkpoint writer does to disk goes through a
//! `dyn Storage`, which is what makes the crash-consistency story testable:
//! the chaos suite wraps [`LocalFs`] in a [`FaultyFs`] that kills the
//! process-model at the N-th I/O operation, and asserts that recovery only
//! ever trusts *committed* checkpoint directories, no matter which N.
//!
//! Design notes:
//!
//! * The trait is deliberately coarse (whole-file writes, whole-file and
//!   ranged reads) because checkpoint files are written exactly once and
//!   never appended to. Coarse ops give the fault injector a meaningful
//!   op counter: "op 17" is a specific file's write on every run.
//! * [`Storage::exists`] is a metadata peek and does **not** count as an
//!   injectable op — failure atoms are the durability-relevant operations.
//! * Faults are seeded and counted, never random at call time, so a chaos
//!   sweep over `0..total_ops` visits every kill-point exactly once and a
//!   failing seed reproduces byte-for-byte.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io::{self, Read as _, Seek as _, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Abstraction over the small set of filesystem operations the checkpoint
/// layer needs. Implementations must be usable from multiple threads (the
/// writer shards optimizer state across a rayon pool).
pub trait Storage: Send + Sync + fmt::Debug {
    /// Create a directory and all missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Write `bytes` to `path`, replacing any existing file.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Flush a file (or directory) to durable storage — `fsync`.
    fn sync(&self, path: &Path) -> io::Result<()>;

    /// Atomically rename `from` to `to` (same filesystem). Used for the
    /// staging-directory commit rename.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Read the entire file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Read `len` bytes starting at byte `offset`. Fails with
    /// [`io::ErrorKind::UnexpectedEof`] if the file is shorter.
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>>;

    /// List the entries of a directory (non-recursive, unsorted).
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// Recursively delete a directory tree.
    fn remove_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Whether a path exists. A metadata peek: not counted (and never
    /// failed) by fault injectors.
    fn exists(&self, path: &Path) -> bool;

    /// Length of the file at `path` in bytes.
    fn file_len(&self, path: &Path) -> io::Result<u64>;

    /// Hard-link `from` at `to` (link-or-copy: backends without hard
    /// links fall back to a byte copy). Used by the content-addressed
    /// store to materialize an object inside a checkpoint directory
    /// without duplicating its bytes. Fails if `to` already exists.
    fn hard_link(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Delete a single file. Used by object-store GC and staging
    /// cleanup; directories go through [`Storage::remove_dir_all`].
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Open a streaming write handle at `path`, replacing any existing
    /// file. The checkpoint engine pushes tensor payloads through this in
    /// bounded chunks instead of materializing whole-file buffers; fault
    /// injectors count (and can fail or tear) every individual chunk, so
    /// the chaos sweep exercises *mid-file* torn writes, not just
    /// whole-file ones.
    fn create_stream<'a>(&'a self, path: &Path) -> io::Result<Box<dyn WriteStream + 'a>>;

    /// Last-modification time of the file at `path`. A metadata peek,
    /// like [`Storage::exists`]: not counted by fault injectors. The
    /// mark-aware object-store sweep uses this to skip objects staged
    /// *after* its liveness census began; backends without modification
    /// times return [`std::time::UNIX_EPOCH`] ("arbitrarily old"), which
    /// degrades to the pre-mark sweep behavior rather than pinning
    /// everything forever.
    fn mtime(&self, path: &Path) -> io::Result<std::time::SystemTime> {
        let _ = path;
        Ok(std::time::UNIX_EPOCH)
    }

    /// Refresh the last-modification time of the file at `path` to the
    /// current instant, without touching its contents. The object store
    /// re-dates dedup-hit objects through this so a concurrent
    /// mark-sweep's mtime guard covers new *references*, not just new
    /// writes — including references from other processes, which no
    /// in-memory pin board can see. Like [`Storage::mtime`], a metadata
    /// op: not counted by fault injectors. Backends without modification
    /// times (whose `mtime` returns `UNIX_EPOCH`) may keep this default
    /// no-op — their sweeps never consult mtimes anyway.
    fn touch(&self, path: &Path) -> io::Result<()> {
        let _ = path;
        Ok(())
    }

    /// Append `bytes` to `path`, creating the file if absent. The one
    /// consumer is the run-event journal (`events.jsonl`): checkpoint
    /// payload files are still written exactly once, but journal lines
    /// accumulate, and routing them through the trait means the fault
    /// injector can fail or *tear* an append mid-line — which is exactly
    /// the torn-tail case the journal reader must tolerate.
    ///
    /// The default is a read-modify-write for simple test doubles; real
    /// backends override it with a true append.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut cur = if self.exists(path) {
            self.read(path)?
        } else {
            Vec::new()
        };
        cur.extend_from_slice(bytes);
        self.write(path, &cur)
    }
}

/// Shared handles delegate: a tier stack composes `Arc<dyn Storage>`
/// layers, and each layer must itself be usable wherever a `Storage` is
/// expected without re-wrapping.
impl<S: Storage + ?Sized> Storage for Arc<S> {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        (**self).create_dir_all(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        (**self).write(path, bytes)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        (**self).sync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        (**self).rename(from, to)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        (**self).read(path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        (**self).read_range(path, offset, len)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        (**self).list_dir(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        (**self).remove_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        (**self).exists(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        (**self).file_len(path)
    }

    fn hard_link(&self, from: &Path, to: &Path) -> io::Result<()> {
        (**self).hard_link(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        (**self).remove_file(path)
    }

    fn create_stream<'a>(&'a self, path: &Path) -> io::Result<Box<dyn WriteStream + 'a>> {
        (**self).create_stream(path)
    }

    fn mtime(&self, path: &Path) -> io::Result<std::time::SystemTime> {
        (**self).mtime(path)
    }

    fn touch(&self, path: &Path) -> io::Result<()> {
        (**self).touch(path)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        (**self).append(path, bytes)
    }
}

/// Incremental file-write handle returned by [`Storage::create_stream`].
///
/// Usage contract: any number of [`WriteStream::write_chunk`] calls in
/// order, then exactly one [`WriteStream::finish`] (the fsync). Dropping
/// a handle without `finish` leaves whatever chunks already reached the
/// backend — deliberately, since that is precisely the torn state crash
/// recovery must cope with.
pub trait WriteStream {
    /// Append one chunk to the file.
    fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Flush the file to durable storage (`fsync`). Call once, after the
    /// last chunk.
    fn finish(&mut self) -> io::Result<()>;
}

/// The typed error every [`Storage::read_range`] implementation must
/// return for a read past EOF: kind [`io::ErrorKind::UnexpectedEof`],
/// message naming the path, the requested range, and the actual length.
/// Returns `None` when the range fits. Shared by [`LocalFs`], the
/// in-memory tier, and any future backend, so the restore engine can rely
/// on short files *always* erroring instead of silently truncating.
pub fn range_past_eof(path: &Path, offset: u64, len: usize, file_len: u64) -> Option<io::Error> {
    match offset.checked_add(len as u64) {
        Some(end) if end <= file_len => None,
        // Overflowing offset+len is by definition past EOF.
        _ => Some(short_read_err(path, offset, len, file_len)),
    }
}

fn short_read_err(path: &Path, offset: u64, len: usize, file_len: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!(
            "read_range past EOF: {} holds {file_len} byte(s), requested [{offset}, {})",
            path.display(),
            offset.saturating_add(len as u64),
        ),
    )
}

/// Direct passthrough to the local filesystem via `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalFs;

impl Storage for LocalFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        // `File::open` works for directories on Linux, which lets callers
        // fsync the run root after the commit rename.
        fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut f = fs::File::open(path)?;
        let file_len = f.metadata()?.len();
        if let Some(e) = range_past_eof(path, offset, len, file_len) {
            return Err(e);
        }
        f.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        // The length check above can race a concurrent truncation; keep
        // the short-read error typed (and path-attributed) in that case
        // too instead of surfacing a bare "failed to fill whole buffer".
        f.read_exact(&mut buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                short_read_err(path, offset, len, file_len)
            } else {
                e
            }
        })?;
        Ok(buf)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(path)? {
            out.push(entry?.path());
        }
        Ok(out)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::remove_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(fs::metadata(path)?.len())
    }

    fn mtime(&self, path: &Path) -> io::Result<std::time::SystemTime> {
        fs::metadata(path)?.modified()
    }

    fn touch(&self, path: &Path) -> io::Result<()> {
        let f = fs::OpenOptions::new().write(true).open(path)?;
        f.set_times(fs::FileTimes::new().set_modified(std::time::SystemTime::now()))
    }

    fn hard_link(&self, from: &Path, to: &Path) -> io::Result<()> {
        match fs::hard_link(from, to) {
            Ok(()) => Ok(()),
            // Filesystems without hard links (or cross-device layouts)
            // still get correct content, just without the sharing.
            Err(e) if e.kind() == io::ErrorKind::Unsupported => fs::copy(from, to).map(|_| ()),
            Err(e) => Err(e),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_stream<'a>(&'a self, path: &Path) -> io::Result<Box<dyn WriteStream + 'a>> {
        Ok(Box::new(LocalFsStream {
            file: fs::File::create(path)?,
        }))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(bytes)
    }
}

/// [`WriteStream`] over a local file. `File` is unbuffered, so every
/// chunk is issued to the OS immediately — a torn stream leaves exactly
/// the chunks written so far on disk.
#[derive(Debug)]
struct LocalFsStream {
    file: fs::File,
}

impl WriteStream for LocalFsStream {
    fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        self.file.write_all(bytes)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
}

/// What kind of failure [`FaultyFs`] injects once its op counter reaches
/// [`FaultSpec::at_op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// EIO-like: the next `failures` ops fail with
    /// [`io::ErrorKind::Interrupted`], then everything succeeds again.
    /// Models a flaky NFS mount; a retry loop should absorb it.
    Transient {
        /// How many consecutive ops fail before the storage heals.
        failures: u32,
    },
    /// ENOSPC-like: from `at_op` onward every *mutating* op (write, sync,
    /// rename, create) fails with [`io::ErrorKind::StorageFull`]. Reads and
    /// deletes still work, so error-path cleanup can reclaim space.
    Permanent,
    /// The write at exactly `at_op` persists only a prefix of its bytes,
    /// then the process-model dies: every subsequent op fails. `keep_bytes`
    /// picks the prefix length; `None` derives one from the seed so sweeps
    /// exercise varied tear offsets.
    TornWrite {
        /// Bytes of the torn write that reach disk (`None` = seed-derived).
        keep_bytes: Option<u64>,
    },
    /// Hard crash: op `at_op` and everything after it fails without any
    /// partial effect.
    Crash,
}

/// When and how [`FaultyFs`] fails. Serializable so a chaos harness can
/// record the schedule that broke it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Zero-based index of the storage op at which the fault fires.
    pub at_op: u64,
    /// The failure mode.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// A spec whose fault never fires — useful for counting ops.
    pub fn never() -> Self {
        FaultSpec {
            at_op: u64::MAX,
            kind: FaultKind::Crash,
        }
    }
}

/// Deterministic fault-injecting wrapper around another [`Storage`].
///
/// Counts durability-relevant ops (everything except [`Storage::exists`])
/// and injects the configured [`FaultSpec`] when the counter reaches
/// `at_op`. After a [`FaultKind::TornWrite`] or [`FaultKind::Crash`] fires
/// the wrapper is *dead*: all further ops fail with
/// [`io::ErrorKind::BrokenPipe`], modeling a killed process whose
/// filesystem state is frozen mid-save.
#[derive(Debug)]
pub struct FaultyFs<S: Storage> {
    inner: S,
    spec: FaultSpec,
    seed: u64,
    ops: AtomicU64,
    dead: AtomicBool,
}

impl<S: Storage> FaultyFs<S> {
    /// Wrap `inner`, injecting `spec` (seed 0).
    pub fn new(inner: S, spec: FaultSpec) -> Self {
        Self::with_seed(inner, spec, 0)
    }

    /// Wrap `inner` with an explicit seed; the seed only matters for
    /// [`FaultKind::TornWrite`] with `keep_bytes: None`, where it picks the
    /// tear offset deterministically.
    pub fn with_seed(inner: S, spec: FaultSpec, seed: u64) -> Self {
        FaultyFs {
            inner,
            spec,
            seed,
            ops: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        }
    }

    /// Number of ops attempted so far (including the faulted ones).
    pub fn ops_attempted(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Whether a torn-write/crash fault has fired and frozen the storage.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn dead_err() -> io::Error {
        io::Error::new(
            io::ErrorKind::BrokenPipe,
            "simulated crash: storage is dead",
        )
    }

    /// Account one op; returns its index, or an error if already dead.
    fn tick(&self) -> io::Result<u64> {
        if self.is_dead() {
            return Err(Self::dead_err());
        }
        Ok(self.ops.fetch_add(1, Ordering::SeqCst))
    }

    /// Fault decision for a non-write, mutating-or-not op at index `idx`.
    fn gate(&self, idx: u64, mutating: bool) -> io::Result<()> {
        if idx < self.spec.at_op {
            return Ok(());
        }
        match self.spec.kind {
            FaultKind::Transient { failures } => {
                if idx < self.spec.at_op + u64::from(failures) {
                    Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        format!("injected transient I/O error at op {idx}"),
                    ))
                } else {
                    Ok(())
                }
            }
            FaultKind::Permanent => {
                if mutating {
                    Err(io::Error::new(
                        io::ErrorKind::StorageFull,
                        format!("injected permanent storage-full error at op {idx}"),
                    ))
                } else {
                    Ok(())
                }
            }
            FaultKind::TornWrite { .. } | FaultKind::Crash => {
                if idx == self.spec.at_op {
                    self.dead.store(true, Ordering::SeqCst);
                }
                Err(Self::dead_err())
            }
        }
    }

    /// Deterministic tear length in `0..len` derived from seed and op index
    /// (splitmix64 finalizer).
    fn torn_len(&self, idx: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let mut z = self.seed ^ idx.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z % len as u64) as usize
    }
}

impl<S: Storage> Storage for FaultyFs<S> {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let idx = self.tick()?;
        self.gate(idx, true)?;
        self.inner.create_dir_all(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let idx = self.tick()?;
        if idx == self.spec.at_op {
            if let FaultKind::TornWrite { keep_bytes } = self.spec.kind {
                // Persist a prefix, then die. This is the signature failure
                // of a non-atomic checkpoint writer.
                let keep = match keep_bytes {
                    Some(k) => (k as usize).min(bytes.len()),
                    None => self.torn_len(idx, bytes.len()),
                };
                self.inner.write(path, &bytes[..keep])?;
                self.dead.store(true, Ordering::SeqCst);
                return Err(Self::dead_err());
            }
        }
        self.gate(idx, true)?;
        self.inner.write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let idx = self.tick()?;
        if idx == self.spec.at_op {
            if let FaultKind::TornWrite { keep_bytes } = self.spec.kind {
                // A torn append persists a prefix of the *new* bytes after
                // everything already in the file — a torn journal tail.
                let keep = match keep_bytes {
                    Some(k) => (k as usize).min(bytes.len()),
                    None => self.torn_len(idx, bytes.len()),
                };
                self.inner.append(path, &bytes[..keep])?;
                self.dead.store(true, Ordering::SeqCst);
                return Err(Self::dead_err());
            }
        }
        self.gate(idx, true)?;
        self.inner.append(path, bytes)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let idx = self.tick()?;
        self.gate(idx, true)?;
        self.inner.sync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let idx = self.tick()?;
        self.gate(idx, true)?;
        self.inner.rename(from, to)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let idx = self.tick()?;
        self.gate(idx, false)?;
        self.inner.read(path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let idx = self.tick()?;
        self.gate(idx, false)?;
        self.inner.read_range(path, offset, len)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let idx = self.tick()?;
        self.gate(idx, false)?;
        self.inner.list_dir(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        let idx = self.tick()?;
        self.gate(idx, false)?;
        self.inner.remove_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        // Metadata peek: never counted, never failed.
        self.inner.exists(path)
    }

    fn mtime(&self, path: &Path) -> io::Result<std::time::SystemTime> {
        // Metadata peek, like `exists`: uncounted, so adding mtime guards
        // to the sweep does not shift existing kill-point schedules.
        self.inner.mtime(path)
    }

    fn touch(&self, path: &Path) -> io::Result<()> {
        // Uncounted like `mtime`: a dedup hit must stay a pure metadata
        // interaction, and re-dating hits must not shift kill schedules.
        self.inner.touch(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        let idx = self.tick()?;
        self.gate(idx, false)?;
        self.inner.file_len(path)
    }

    fn hard_link(&self, from: &Path, to: &Path) -> io::Result<()> {
        // Linking creates a new directory entry: mutating, like rename.
        let idx = self.tick()?;
        self.gate(idx, true)?;
        self.inner.hard_link(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        // Deletes are allowed under storage-full (like remove_dir_all) so
        // cleanup and GC can still make progress on a full disk.
        let idx = self.tick()?;
        self.gate(idx, false)?;
        self.inner.remove_file(path)
    }

    fn create_stream<'a>(&'a self, path: &Path) -> io::Result<Box<dyn WriteStream + 'a>> {
        // Opening the handle creates the file: one mutating op.
        let idx = self.tick()?;
        self.gate(idx, true)?;
        let inner = self.inner.create_stream(path)?;
        Ok(Box::new(FaultyStream { fs: self, inner }))
    }
}

/// Streaming handle of [`FaultyFs`]: every chunk is a counted op, and a
/// [`FaultKind::TornWrite`] landing on a chunk persists a prefix of that
/// chunk *after* all earlier chunks — a mid-file tear.
struct FaultyStream<'a, S: Storage> {
    fs: &'a FaultyFs<S>,
    inner: Box<dyn WriteStream + 'a>,
}

impl<S: Storage> WriteStream for FaultyStream<'_, S> {
    fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        let idx = self.fs.tick()?;
        if idx == self.fs.spec.at_op {
            if let FaultKind::TornWrite { keep_bytes } = self.fs.spec.kind {
                let keep = match keep_bytes {
                    Some(k) => (k as usize).min(bytes.len()),
                    None => self.fs.torn_len(idx, bytes.len()),
                };
                // Earlier chunks already reached the backend, so the file
                // tears mid-body, not at a whole-file boundary.
                self.inner.write_chunk(&bytes[..keep])?;
                self.fs.dead.store(true, Ordering::SeqCst);
                return Err(FaultyFs::<S>::dead_err());
            }
        }
        self.fs.gate(idx, true)?;
        self.inner.write_chunk(bytes)
    }

    fn finish(&mut self) -> io::Result<()> {
        // The fsync: one mutating op. Transient gates fire before the
        // inner sync, so a retried finish is safe.
        let idx = self.fs.tick()?;
        self.fs.gate(idx, true)?;
        self.inner.finish()
    }
}

/// Time source for retry backoff. Tests inject [`ManualClock`] so backoff
/// is observable without wall-sleeping.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Sleep for (or record) `d`.
    fn sleep(&self, d: Duration);
}

/// Real wall-clock sleeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Records requested sleeps instead of performing them. Deterministic and
/// instantaneous: retry logic can be asserted on (`slept_nanos`) without
/// slowing the test suite down.
#[derive(Debug, Default)]
pub struct ManualClock {
    slept_nanos: AtomicU64,
    sleeps: AtomicU64,
}

impl ManualClock {
    /// Total nanoseconds of sleep requested so far.
    pub fn slept_nanos(&self) -> u64 {
        self.slept_nanos.load(Ordering::SeqCst)
    }

    /// Number of individual sleeps requested so far.
    pub fn sleeps(&self) -> u64 {
        self.sleeps.load(Ordering::SeqCst)
    }
}

impl Clock for ManualClock {
    fn sleep(&self, d: Duration) {
        self.slept_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
        self.sleeps.fetch_add(1, Ordering::SeqCst);
    }
}

/// Bounded exponential backoff parameters: attempt `n` (zero-based) sleeps
/// `min(base_delay_ms << n, max_delay_ms)` before retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure (so `max_retries + 1` attempts total).
    pub max_retries: u32,
    /// Delay before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on any single delay, in milliseconds.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_delay_ms: 10,
            max_delay_ms: 250,
        }
    }
}

impl RetryPolicy {
    /// Backoff delay before retry attempt `attempt` (zero-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        // `checked_shl` only guards the shift amount, not value overflow,
        // so guard on leading zeros to saturate at `max_delay_ms`.
        let exp = if attempt > self.base_delay_ms.leading_zeros() {
            self.max_delay_ms
        } else {
            self.base_delay_ms << attempt
        };
        Duration::from_millis(exp.min(self.max_delay_ms))
    }
}

/// Whether an I/O error is worth retrying. Only the EIO-like
/// [`io::ErrorKind::Interrupted`] class is transient; torn
/// writes/crashes (`BrokenPipe`) and ENOSPC (`StorageFull`) are terminal.
pub fn is_transient(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::Interrupted
}

/// Decorator adding bounded, deterministic exponential backoff around
/// transient errors of an inner [`Storage`]. Non-transient errors pass
/// through immediately.
#[derive(Debug)]
pub struct RetryingStorage<S: Storage> {
    inner: S,
    policy: RetryPolicy,
    clock: Arc<dyn Clock>,
    retries: Arc<AtomicU64>,
}

impl<S: Storage> RetryingStorage<S> {
    /// Wrap `inner` with `policy`, sleeping on `clock`.
    pub fn new(inner: S, policy: RetryPolicy, clock: Arc<dyn Clock>) -> Self {
        RetryingStorage {
            inner,
            policy,
            clock,
            retries: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Wrap `inner` with the default policy and the real [`SystemClock`].
    pub fn with_defaults(inner: S) -> Self {
        Self::new(inner, RetryPolicy::default(), Arc::new(SystemClock))
    }

    /// Access the wrapped storage.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Total transient-error retries performed so far (across all ops and
    /// streams of this decorator).
    pub fn retry_count(&self) -> u64 {
        self.retries.load(Ordering::SeqCst)
    }

    /// Shared handle to the retry counter. Callers that erase the
    /// decorator to `Arc<dyn Storage>` clone this first so telemetry can
    /// still attribute retries to run events.
    pub fn retry_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.retries)
    }

    fn retry<T>(&self, mut op: impl FnMut(&S) -> io::Result<T>) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            match op(&self.inner) {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) && attempt < self.policy.max_retries => {
                    self.clock.sleep(self.policy.delay(attempt));
                    self.retries.fetch_add(1, Ordering::SeqCst);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl<S: Storage> Storage for RetryingStorage<S> {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.retry(|s| s.create_dir_all(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.retry(|s| s.write(path, bytes))
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.retry(|s| s.sync(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.retry(|s| s.rename(from, to))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.retry(|s| s.read(path))
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.retry(|s| s.read_range(path, offset, len))
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.retry(|s| s.list_dir(path))
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.retry(|s| s.remove_dir_all(path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn mtime(&self, path: &Path) -> io::Result<std::time::SystemTime> {
        self.retry(|s| s.mtime(path))
    }

    fn touch(&self, path: &Path) -> io::Result<()> {
        self.retry(|s| s.touch(path))
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.retry(|s| s.file_len(path))
    }

    fn hard_link(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.retry(|s| s.hard_link(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.retry(|s| s.remove_file(path))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.retry(|s| s.append(path, bytes))
    }

    fn create_stream<'a>(&'a self, path: &Path) -> io::Result<Box<dyn WriteStream + 'a>> {
        // `retry` fixes the closure's return type before the borrow it
        // hands out, so a borrowed stream needs its own loop here.
        let mut attempt = 0u32;
        let inner = loop {
            match self.inner.create_stream(path) {
                Ok(s) => break s,
                Err(e) if is_transient(&e) && attempt < self.policy.max_retries => {
                    self.clock.sleep(self.policy.delay(attempt));
                    self.retries.fetch_add(1, Ordering::SeqCst);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        };
        Ok(Box::new(RetryingStream {
            inner,
            policy: self.policy,
            clock: Arc::clone(&self.clock),
            retries: Arc::clone(&self.retries),
        }))
    }
}

/// Streaming handle of [`RetryingStorage`]: each chunk (and the final
/// fsync) is retried independently on transient errors. Safe because the
/// fault model injects transients *before* any partial effect.
struct RetryingStream<'a> {
    inner: Box<dyn WriteStream + 'a>,
    policy: RetryPolicy,
    clock: Arc<dyn Clock>,
    retries: Arc<AtomicU64>,
}

impl RetryingStream<'_> {
    fn retry_op(
        &mut self,
        mut op: impl FnMut(&mut dyn WriteStream) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut attempt = 0u32;
        loop {
            match op(self.inner.as_mut()) {
                Ok(()) => return Ok(()),
                Err(e) if is_transient(&e) && attempt < self.policy.max_retries => {
                    self.clock.sleep(self.policy.delay(attempt));
                    self.retries.fetch_add(1, Ordering::SeqCst);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl WriteStream for RetryingStream<'_> {
    fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.retry_op(|s| s.write_chunk(bytes))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.retry_op(|s| s.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "llmt-vfs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn local_fs_roundtrip_and_range() {
        let dir = tmpdir("local");
        let fs = LocalFs;
        let p = dir.join("f.bin");
        fs.write(&p, b"hello world").unwrap();
        fs.sync(&p).unwrap();
        assert_eq!(fs.read(&p).unwrap(), b"hello world");
        assert_eq!(fs.read_range(&p, 6, 5).unwrap(), b"world");
        assert_eq!(fs.file_len(&p).unwrap(), 11);
        assert!(fs.read_range(&p, 8, 5).is_err());
        let q = dir.join("g.bin");
        fs.rename(&p, &q).unwrap();
        assert!(!fs.exists(&p));
        assert!(fs.exists(&q));
        assert_eq!(fs.list_dir(&dir).unwrap(), vec![q]);
        fs.remove_dir_all(&dir).unwrap();
    }

    /// Satellite regression: past-EOF / short-file `read_range` must be a
    /// typed `UnexpectedEof` error — never a panic, never a silently
    /// truncated buffer. (The in-memory tier runs the same checks in
    /// `llmt-tier`.)
    #[test]
    fn read_range_past_eof_is_a_typed_error_never_truncation() {
        let dir = tmpdir("range-eof");
        let p = dir.join("f.bin");
        LocalFs.write(&p, b"0123456789").unwrap();
        let check = |s: &dyn Storage| {
            // Fully past EOF, straddling EOF, and offset==len with len>0.
            for (off, len) in [(20u64, 1usize), (8, 5), (10, 1), (0, 11)] {
                let e = s.read_range(&p, off, len).unwrap_err();
                assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "({off},{len})");
                let msg = e.to_string();
                assert!(msg.contains("f.bin"), "error names the path: {msg}");
            }
            // Offset+len overflow is past EOF, not a panic.
            let e = s.read_range(&p, u64::MAX, 2).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
            // Boundary reads still work.
            assert_eq!(s.read_range(&p, 10, 0).unwrap(), b"");
            assert_eq!(s.read_range(&p, 4, 6).unwrap(), b"456789");
        };
        check(&LocalFs);
        check(&FaultyFs::new(LocalFs, FaultSpec::never()));
        check(&RetryingStorage::with_defaults(LocalFs));
        let arc: Arc<dyn Storage> = Arc::new(LocalFs);
        check(&arc);
        LocalFs.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn arc_storage_delegates_everything() {
        let dir = tmpdir("arc-delegate");
        let s: Arc<dyn Storage> = Arc::new(LocalFs);
        let p = dir.join("a");
        s.write(&p, b"payload").unwrap();
        s.sync(&p).unwrap();
        assert_eq!(s.read(&p).unwrap(), b"payload");
        assert_eq!(s.file_len(&p).unwrap(), 7);
        let mut h = s.create_stream(&dir.join("b")).unwrap();
        h.write_chunk(b"xy").unwrap();
        h.finish().unwrap();
        drop(h);
        assert_eq!(s.read(&dir.join("b")).unwrap(), b"xy");
        s.append(&dir.join("b"), b"z").unwrap();
        assert_eq!(s.read(&dir.join("b")).unwrap(), b"xyz");
        s.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_fault_heals_after_n_failures() {
        let dir = tmpdir("transient");
        let f = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 1,
                kind: FaultKind::Transient { failures: 2 },
            },
        );
        let p = dir.join("a");
        f.write(&p, b"x").unwrap(); // op 0: ok
        let e = f.write(&p, b"x").unwrap_err(); // op 1: transient
        assert!(is_transient(&e));
        let e = f.write(&p, b"x").unwrap_err(); // op 2: transient
        assert!(is_transient(&e));
        f.write(&p, b"y").unwrap(); // op 3: healed
        assert_eq!(f.read(&p).unwrap(), b"y");
        assert_eq!(f.ops_attempted(), 5);
    }

    #[test]
    fn permanent_fault_blocks_writes_but_allows_cleanup() {
        let dir = tmpdir("permanent");
        let f = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 0,
                kind: FaultKind::Permanent,
            },
        );
        let sub = dir.join("stage.tmp");
        std::fs::create_dir_all(&sub).unwrap();
        std::fs::write(sub.join("partial"), b"junk").unwrap();
        let e = f.write(&sub.join("more"), b"x").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        // Reads and deletes still work: error-path cleanup can proceed.
        f.remove_dir_all(&sub).unwrap();
        assert!(!f.exists(&sub));
    }

    #[test]
    fn hard_link_shares_bytes_and_remove_file_deletes() {
        let dir = tmpdir("link");
        let fs = LocalFs;
        let a = dir.join("obj");
        let b = dir.join("linked");
        fs.write(&a, b"payload").unwrap();
        fs.hard_link(&a, &b).unwrap();
        assert_eq!(fs.read(&b).unwrap(), b"payload");
        // Linking onto an existing entry must fail, not clobber.
        assert!(fs.hard_link(&a, &b).is_err());
        // The link survives deletion of the original name.
        fs.remove_file(&a).unwrap();
        assert!(!fs.exists(&a));
        assert_eq!(fs.read(&b).unwrap(), b"payload");
        fs.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_fs_counts_and_gates_link_and_remove_ops() {
        let dir = tmpdir("link-fault");
        let f = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 2,
                kind: FaultKind::Permanent,
            },
        );
        let a = dir.join("obj");
        f.write(&a, b"x").unwrap(); // op 0
        f.hard_link(&a, &dir.join("l0")).unwrap(); // op 1
                                                   // Op 2 onward: storage full. Linking is mutating and must fail...
        let e = f.hard_link(&a, &dir.join("l1")).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        assert!(!f.exists(&dir.join("l1")));
        // ...while file deletion (GC / cleanup) still proceeds.
        f.remove_file(&dir.join("l0")).unwrap();
        assert!(!f.exists(&dir.join("l0")));
        assert_eq!(f.ops_attempted(), 4);
    }

    #[test]
    fn torn_write_persists_prefix_then_storage_dies() {
        let dir = tmpdir("torn");
        let f = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 0,
                kind: FaultKind::TornWrite {
                    keep_bytes: Some(4),
                },
            },
        );
        let p = dir.join("t");
        let e = f.write(&p, b"0123456789").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::BrokenPipe);
        assert!(f.is_dead());
        // The prefix reached the inner fs; nothing else can happen now.
        assert_eq!(std::fs::read(&p).unwrap(), b"0123");
        assert_eq!(f.read(&p).unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(
            f.remove_dir_all(&dir).unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
    }

    #[test]
    fn seed_derived_tear_is_deterministic_and_in_range() {
        let a = FaultyFs::with_seed(LocalFs, FaultSpec::never(), 7);
        let b = FaultyFs::with_seed(LocalFs, FaultSpec::never(), 7);
        let c = FaultyFs::with_seed(LocalFs, FaultSpec::never(), 8);
        for idx in 0..64 {
            let la = a.torn_len(idx, 1000);
            assert_eq!(la, b.torn_len(idx, 1000));
            assert!(la < 1000);
            let _ = c.torn_len(idx, 1000);
        }
        assert_eq!(a.torn_len(3, 0), 0);
    }

    #[test]
    fn retrying_storage_absorbs_transients_without_wall_sleep() {
        let dir = tmpdir("retry");
        let clock = Arc::new(ManualClock::default());
        let faulty = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 1,
                kind: FaultKind::Transient { failures: 3 },
            },
        );
        let s = RetryingStorage::new(
            faulty,
            RetryPolicy {
                max_retries: 4,
                base_delay_ms: 10,
                max_delay_ms: 250,
            },
            clock.clone(),
        );
        let p = dir.join("r");
        s.write(&p, b"first").unwrap(); // op 0
        s.write(&p, b"second").unwrap(); // ops 1,2,3 fail; op 4 succeeds
        assert_eq!(s.read(&p).unwrap(), b"second");
        assert_eq!(clock.sleeps(), 3);
        // 10ms + 20ms + 40ms of *recorded* backoff, zero wall time.
        assert_eq!(clock.slept_nanos(), 70_000_000);
    }

    #[test]
    fn retrying_storage_gives_up_after_max_retries() {
        let dir = tmpdir("retry-exhaust");
        let clock = Arc::new(ManualClock::default());
        let faulty = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 0,
                kind: FaultKind::Transient { failures: 10 },
            },
        );
        let s = RetryingStorage::new(
            faulty,
            RetryPolicy {
                max_retries: 2,
                base_delay_ms: 1,
                max_delay_ms: 4,
            },
            clock.clone(),
        );
        let e = s.write(&dir.join("x"), b"x").unwrap_err();
        assert!(is_transient(&e));
        assert_eq!(clock.sleeps(), 2);
    }

    #[test]
    fn retrying_storage_passes_terminal_errors_through() {
        let dir = tmpdir("retry-terminal");
        let clock = Arc::new(ManualClock::default());
        let faulty = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 0,
                kind: FaultKind::Permanent,
            },
        );
        let s = RetryingStorage::new(faulty, RetryPolicy::default(), clock.clone());
        let e = s.write(&dir.join("x"), b"x").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        assert_eq!(clock.sleeps(), 0, "terminal errors must not be retried");
    }

    #[test]
    fn retry_policy_delay_is_bounded() {
        let p = RetryPolicy {
            max_retries: 10,
            base_delay_ms: 10,
            max_delay_ms: 100,
        };
        assert_eq!(p.delay(0), Duration::from_millis(10));
        assert_eq!(p.delay(1), Duration::from_millis(20));
        assert_eq!(p.delay(3), Duration::from_millis(80));
        assert_eq!(p.delay(4), Duration::from_millis(100));
        assert_eq!(p.delay(63), Duration::from_millis(100));
        assert_eq!(p.delay(64), Duration::from_millis(100));
    }

    #[test]
    fn stream_write_equals_whole_file_write() {
        let dir = tmpdir("stream-eq");
        let fs = LocalFs;
        let p = dir.join("streamed");
        let payload: Vec<u8> = (0..1000u32).flat_map(|v| v.to_le_bytes()).collect();
        let mut s = fs.create_stream(&p).unwrap();
        for chunk in payload.chunks(17) {
            s.write_chunk(chunk).unwrap();
        }
        s.finish().unwrap();
        drop(s);
        assert_eq!(fs.read(&p).unwrap(), payload);
        // Re-opening a stream truncates, like `Storage::write`.
        let mut s = fs.create_stream(&p).unwrap();
        s.write_chunk(b"short").unwrap();
        s.finish().unwrap();
        drop(s);
        assert_eq!(fs.read(&p).unwrap(), b"short");
        fs.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_stream_counts_every_chunk_and_tears_mid_file() {
        let dir = tmpdir("stream-torn");
        // Op 0 = create, ops 1..=3 = chunks, fault on the middle chunk.
        let f = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 2,
                kind: FaultKind::TornWrite {
                    keep_bytes: Some(3),
                },
            },
        );
        let p = dir.join("t");
        let mut s = f.create_stream(&p).unwrap(); // op 0
        s.write_chunk(b"AAAAAAAA").unwrap(); // op 1
        let e = s.write_chunk(b"BBBBBBBB").unwrap_err(); // op 2: torn
        assert_eq!(e.kind(), io::ErrorKind::BrokenPipe);
        assert!(f.is_dead());
        let e = s.write_chunk(b"CCCCCCCC").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::BrokenPipe);
        drop(s);
        // The first chunk plus a prefix of the torn chunk reached disk:
        // a mid-file tear, unreachable with whole-file writes.
        assert_eq!(std::fs::read(&p).unwrap(), b"AAAAAAAABBB");
        assert_eq!(f.ops_attempted(), 3);
    }

    #[test]
    fn faulty_stream_seed_derived_tear_offsets_vary() {
        let dir = tmpdir("stream-torn-seed");
        let mut lens = std::collections::BTreeSet::new();
        for seed in 0..8u64 {
            let f = FaultyFs::with_seed(
                LocalFs,
                FaultSpec {
                    at_op: 1,
                    kind: FaultKind::TornWrite { keep_bytes: None },
                },
                seed,
            );
            let p = dir.join(format!("t{seed}"));
            let mut s = f.create_stream(&p).unwrap();
            assert!(s.write_chunk(&[7u8; 256]).is_err());
            drop(s);
            lens.insert(std::fs::read(&p).unwrap().len());
        }
        assert!(lens.len() > 1, "seeds should produce varied tear offsets");
        assert!(lens.iter().all(|l| *l < 256));
    }

    #[test]
    fn retrying_stream_absorbs_per_chunk_transients() {
        let dir = tmpdir("stream-retry");
        let clock = Arc::new(ManualClock::default());
        let faulty = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 1,
                kind: FaultKind::Transient { failures: 2 },
            },
        );
        let s = RetryingStorage::new(faulty, RetryPolicy::default(), clock.clone());
        let p = dir.join("r");
        let mut h = s.create_stream(&p).unwrap(); // op 0
        h.write_chunk(b"one").unwrap(); // ops 1,2 transient; op 3 ok
        h.write_chunk(b"two").unwrap(); // op 4
        h.finish().unwrap(); // op 5
        drop(h);
        assert_eq!(clock.sleeps(), 2, "both transients retried in-stream");
        assert_eq!(s.read(&p).unwrap(), b"onetwo");
    }

    #[test]
    fn permanent_fault_stops_stream_chunks() {
        let dir = tmpdir("stream-permanent");
        let f = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 2,
                kind: FaultKind::Permanent,
            },
        );
        let p = dir.join("p");
        let mut s = f.create_stream(&p).unwrap(); // op 0
        s.write_chunk(b"ok").unwrap(); // op 1
        let e = s.write_chunk(b"nope").unwrap_err(); // op 2: ENOSPC
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        drop(s);
        // Storage is full, not dead: cleanup can still delete the file.
        f.remove_file(&p).unwrap();
        assert!(!f.exists(&p));
    }

    #[test]
    fn append_accumulates_lines() {
        let dir = tmpdir("append");
        let fs = LocalFs;
        let p = dir.join("events.jsonl");
        fs.append(&p, b"one\n").unwrap();
        fs.append(&p, b"two\n").unwrap();
        assert_eq!(fs.read(&p).unwrap(), b"one\ntwo\n");
        fs.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_append_tears_only_the_new_bytes() {
        let dir = tmpdir("append-torn");
        let f = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 1,
                kind: FaultKind::TornWrite {
                    keep_bytes: Some(3),
                },
            },
        );
        let p = dir.join("events.jsonl");
        f.append(&p, b"line one\n").unwrap(); // op 0
        let e = f.append(&p, b"line two\n").unwrap_err(); // op 1: torn
        assert_eq!(e.kind(), io::ErrorKind::BrokenPipe);
        assert!(f.is_dead());
        // The earlier line is intact; only a prefix of the new one landed.
        assert_eq!(std::fs::read(&p).unwrap(), b"line one\nlin");
    }

    #[test]
    fn retrying_append_counts_its_retries() {
        let dir = tmpdir("append-retry");
        let clock = Arc::new(ManualClock::default());
        let faulty = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 1,
                kind: FaultKind::Transient { failures: 2 },
            },
        );
        let s = RetryingStorage::new(faulty, RetryPolicy::default(), clock.clone());
        let p = dir.join("events.jsonl");
        s.append(&p, b"a\n").unwrap(); // op 0
        s.append(&p, b"b\n").unwrap(); // ops 1,2 transient; op 3 ok
        assert_eq!(s.read(&p).unwrap(), b"a\nb\n");
        assert_eq!(s.retry_count(), 2);
        assert_eq!(clock.sleeps(), 2);
    }

    #[test]
    fn mtime_is_an_uncounted_metadata_peek() {
        let dir = tmpdir("mtime");
        let f = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 1,
                kind: FaultKind::Permanent,
            },
        );
        let p = dir.join("m");
        f.write(&p, b"x").unwrap(); // op 0
        let before = std::time::SystemTime::now();
        let t = f.mtime(&p).unwrap();
        assert!(t <= before || t.duration_since(before).unwrap().as_secs() < 5);
        assert!(t > std::time::UNIX_EPOCH);
        // Uncounted and never gated: storage is "full" from op 1 onward,
        // but the metadata peek still answers without consuming an op.
        assert_eq!(f.ops_attempted(), 1);
        f.mtime(&p).unwrap();
        assert_eq!(f.ops_attempted(), 1);
    }

    #[test]
    fn touch_redates_a_file_without_changing_bytes_or_op_counts() {
        let dir = tmpdir("touch");
        let f = FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 1,
                kind: FaultKind::Permanent,
            },
        );
        let p = dir.join("t");
        f.write(&p, b"payload").unwrap(); // op 0
        let old = std::time::SystemTime::now() - Duration::from_secs(3600);
        fs::OpenOptions::new()
            .write(true)
            .open(&p)
            .unwrap()
            .set_times(fs::FileTimes::new().set_modified(old))
            .unwrap();
        let before_touch = f.mtime(&p).unwrap();
        // Storage is "full" from op 1 onward, but touch is an uncounted
        // metadata op and must still go through.
        assert_eq!(
            f.write(&p, b"blocked").unwrap_err().kind(), // op 1
            io::ErrorKind::StorageFull
        );
        f.touch(&p).unwrap();
        assert!(f.mtime(&p).unwrap() > before_touch);
        assert_eq!(std::fs::read(&p).unwrap(), b"payload");
        assert_eq!(f.ops_attempted(), 2);
        // Touching a missing file reports NotFound (the dedup-hit fall
        // through-to-restage signal).
        let e = f.touch(&dir.join("missing")).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn fault_spec_serde_roundtrip() {
        let spec = FaultSpec {
            at_op: 42,
            kind: FaultKind::TornWrite { keep_bytes: None },
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: FaultSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
