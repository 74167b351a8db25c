//! Test double shared by path (`#[path = ".../recording_fs.rs"] mod
//! recording_fs;`) between the checkpoint crate's verify and engine
//! tests and the run-root read-count tests: a [`Storage`] wrapper that
//! records reads and listings per path, so a test can prove every byte
//! flows through the vfs and none is read twice, and every call in
//! order, so a test can compare two op schedules. Not part of any
//! library.

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
    calls: Mutex<Vec<(&'static str, PathBuf)>>,
}

impl<S: Storage> RecordingFs<S> {
    /// Wrap `inner` with an empty record.
    pub fn new(inner: S) -> Self {
        RecordingFs {
            inner,
            seen: Default::default(),
            calls: Default::default(),
        }
    }

    /// Everything recorded so far, by path.
    pub fn seen(&self) -> BTreeMap<PathBuf, PathReads> {
        self.seen.lock().expect("recording lock").clone()
    }

    /// Every [`Storage`] call so far, in order: the method's name and the
    /// path it was made on (the source path of a rename or link).
    pub fn calls(&self) -> Vec<(&'static str, PathBuf)> {
        self.calls.lock().expect("recording lock").clone()
    }

    fn call(&self, op: &'static str, path: &Path) {
        self.calls
            .lock()
            .expect("recording lock")
            .push((op, path.to_path_buf()));
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
        self.call("create_dir_all", path);
        self.inner.create_dir_all(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.call("write", path);
        self.inner.write(path, bytes)
    }
    fn sync(&self, path: &Path) -> io::Result<()> {
        self.call("sync", path);
        self.inner.sync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.call("rename", from);
        self.inner.rename(from, to)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.call("read", path);
        self.note_read(path, self.inner.read(path))
    }
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.call("read_range", path);
        self.note_read(path, self.inner.read_range(path, offset, len))
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.call("list_dir", path);
        self.note(path, |r| r.lists += 1);
        self.inner.list_dir(path)
    }
    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.call("remove_dir_all", path);
        self.inner.remove_dir_all(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.call("exists", path);
        self.inner.exists(path)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.call("file_len", path);
        self.inner.file_len(path)
    }
    fn hard_link(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.call("hard_link", from);
        self.inner.hard_link(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.call("remove_file", path);
        self.inner.remove_file(path)
    }
    fn create_stream<'a>(&'a self, path: &Path) -> io::Result<Box<dyn WriteStream + 'a>> {
        self.call("create_stream", path);
        self.inner.create_stream(path)
    }
    fn mtime(&self, path: &Path) -> io::Result<std::time::SystemTime> {
        self.call("mtime", path);
        self.inner.mtime(path)
    }
    fn touch(&self, path: &Path) -> io::Result<()> {
        self.call("touch", path);
        self.inner.touch(path)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.call("append", path);
        self.inner.append(path, bytes)
    }
}
