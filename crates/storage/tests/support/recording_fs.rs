//! Test double shared by path (`#[path = ".../recording_fs.rs"] mod
//! recording_fs;`) between the checkpoint crate's verify tests and the
//! run-root read-count tests: a [`Storage`] wrapper that records reads
//! and listings per path, so a test can prove every byte flows through
//! the vfs and none is read twice. Not part of any library.

use llmt_storage::vfs::{Storage, WriteStream};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// What a [`RecordingFs`] saw of one path: `read`/`read_range` calls
/// (failed ones included), the bytes they returned, and `list_dir` calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathReads {
    /// `read` + `read_range` calls made on the path.
    pub reads: u64,
    /// Bytes those calls returned.
    pub bytes: u64,
    /// `list_dir` calls made on the path.
    pub lists: u64,
}

/// Read-recording wrapper around another [`Storage`], for tests that
/// prove every byte flows through the vfs and none is read twice.
#[derive(Debug)]
pub struct RecordingFs<S: Storage> {
    inner: S,
    seen: Mutex<BTreeMap<PathBuf, PathReads>>,
}

impl<S: Storage> RecordingFs<S> {
    /// Wrap `inner` with an empty record.
    pub fn new(inner: S) -> Self {
        RecordingFs {
            inner,
            seen: Default::default(),
        }
    }

    /// Everything recorded so far, by path.
    pub fn seen(&self) -> BTreeMap<PathBuf, PathReads> {
        self.seen.lock().expect("recording lock").clone()
    }

    fn note(&self, path: &Path, f: impl FnOnce(&mut PathReads)) {
        f(self
            .seen
            .lock()
            .expect("recording lock")
            .entry(path.to_path_buf())
            .or_default());
    }

    fn note_read(&self, path: &Path, out: io::Result<Vec<u8>>) -> io::Result<Vec<u8>> {
        self.note(path, |r| {
            r.reads += 1;
            r.bytes += out.as_ref().map_or(0, |b| b.len() as u64);
        });
        out
    }
}

impl<S: Storage> Storage for RecordingFs<S> {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.write(path, bytes)
    }
    fn sync(&self, path: &Path) -> io::Result<()> {
        self.inner.sync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.note_read(path, self.inner.read(path))
    }
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.note_read(path, self.inner.read_range(path, offset, len))
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.note(path, |r| r.lists += 1);
        self.inner.list_dir(path)
    }
    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_dir_all(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }
    fn hard_link(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.hard_link(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn create_stream<'a>(&'a self, path: &Path) -> io::Result<Box<dyn WriteStream + 'a>> {
        self.inner.create_stream(path)
    }
    fn mtime(&self, path: &Path) -> io::Result<std::time::SystemTime> {
        self.inner.mtime(path)
    }
    fn touch(&self, path: &Path) -> io::Result<()> {
        self.inner.touch(path)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(path, bytes)
    }
}
