//! `TraceFs`: the benchmark's `Storage` wrapper.
//!
//! It forwards every call to the wrapped backend and counts, from the
//! outside, what the system asked of storage: ops, bytes, fsyncs,
//! renames, links, time spent inside the backend. It also timestamps
//! checkpoint commits as they land (the rename that publishes
//! `checkpoint-<step>` or its `COMMIT` marker), which is how the ledger
//! times durability without asking the system. Under `--trace` each call
//! becomes a child span of the op the owning workload thread declared
//! with [`TraceFs::set_op`]. One instance per tenant / tier keeps
//! attribution free of thread-locals: background threads of the system
//! (async writer, drainer, rayon workers) inherit the instance's op.

use crate::sut::{Storage, WriteStream};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Plain snapshot of the counters; subtract two to get one op's share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// `write`, `append` and stream chunk calls.
    pub write_ops: u64,
    /// Bytes passed to those calls.
    pub write_bytes: u64,
    /// `read` and `read_range` calls.
    pub read_ops: u64,
    /// Bytes those calls returned.
    pub read_bytes: u64,
    /// `sync` calls plus stream `finish` calls.
    pub fsyncs: u64,
    pub renames: u64,
    pub links: u64,
    /// Nanoseconds spent inside the backend, summed over calling threads.
    pub busy_ns: u64,
}

impl IoCounts {
    pub fn minus(&self, earlier: &IoCounts) -> IoCounts {
        IoCounts {
            write_ops: self.write_ops - earlier.write_ops,
            write_bytes: self.write_bytes - earlier.write_bytes,
            read_ops: self.read_ops - earlier.read_ops,
            read_bytes: self.read_bytes - earlier.read_bytes,
            fsyncs: self.fsyncs - earlier.fsyncs,
            renames: self.renames - earlier.renames,
            links: self.links - earlier.links,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }

    pub fn plus(&self, other: &IoCounts) -> IoCounts {
        IoCounts {
            write_ops: self.write_ops + other.write_ops,
            write_bytes: self.write_bytes + other.write_bytes,
            read_ops: self.read_ops + other.read_ops,
            read_bytes: self.read_bytes + other.read_bytes,
            fsyncs: self.fsyncs + other.fsyncs,
            renames: self.renames + other.renames,
            links: self.links + other.links,
            busy_ns: self.busy_ns + other.busy_ns,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    write_ops: AtomicU64,
    write_bytes: AtomicU64,
    read_ops: AtomicU64,
    read_bytes: AtomicU64,
    fsyncs: AtomicU64,
    renames: AtomicU64,
    links: AtomicU64,
    busy_ns: AtomicU64,
}

/// Counting, commit-watching, span-emitting `Storage` wrapper.
#[derive(Debug)]
pub struct TraceFs {
    inner: Arc<dyn Storage>,
    counters: Counters,
    tracer: Arc<Tracer>,
    /// Span id of the benchmark op currently driving this instance.
    cur_op: AtomicU64,
    /// When `checkpoint-<step>` became committed on this backend.
    commits: Mutex<BTreeMap<u64, Instant>>,
    commit_landed: Condvar,
}

/// The step a rename publishes, if it is a checkpoint commit: either the
/// staging directory renamed to `checkpoint-<step>`, or a staged marker
/// renamed to `checkpoint-<step>/COMMIT` (tier drains).
fn committed_step(to: &Path) -> Option<u64> {
    let name = to.file_name()?.to_str()?;
    let dir_name = if name == "COMMIT" {
        to.parent()?.file_name()?.to_str()?
    } else {
        name
    };
    dir_name.strip_prefix("checkpoint-")?.parse().ok()
}

impl TraceFs {
    pub fn new(inner: Arc<dyn Storage>, tracer: Arc<Tracer>) -> Arc<TraceFs> {
        Arc::new(TraceFs {
            inner,
            counters: Counters::default(),
            tracer,
            cur_op: AtomicU64::new(0),
            commits: Mutex::new(BTreeMap::new()),
            commit_landed: Condvar::new(),
        })
    }

    pub fn counts(&self) -> IoCounts {
        let c = &self.counters;
        // Relaxed: statistics only, read after the op that produced them
        // returned (or after joining the thread that ran it).
        IoCounts {
            write_ops: c.write_ops.load(Ordering::Relaxed),
            write_bytes: c.write_bytes.load(Ordering::Relaxed),
            read_ops: c.read_ops.load(Ordering::Relaxed),
            read_bytes: c.read_bytes.load(Ordering::Relaxed),
            fsyncs: c.fsyncs.load(Ordering::Relaxed),
            renames: c.renames.load(Ordering::Relaxed),
            links: c.links.load(Ordering::Relaxed),
            busy_ns: c.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Declare the benchmark op (a span id, 0 for none) that storage
    /// calls on this instance belong to from now on.
    pub fn set_op(&self, span_id: u64) {
        self.cur_op.store(span_id, Ordering::Relaxed);
    }

    /// Block until `step` commits on this backend or `timeout` passes.
    pub fn wait_commit(&self, step: u64, timeout: Duration) -> Option<Instant> {
        let deadline = Instant::now() + timeout;
        let mut commits = self.commits.lock().expect("commit map lock poisoned");
        loop {
            if let Some(t) = commits.get(&step) {
                return Some(*t);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            commits = self
                .commit_landed
                .wait_timeout(commits, left)
                .expect("commit map lock poisoned")
                .0;
        }
    }

    /// Forget commit times below `step` (the map would otherwise grow
    /// with the run).
    pub fn forget_commits_before(&self, step: u64) {
        let mut commits = self.commits.lock().expect("commit map lock poisoned");
        *commits = commits.split_off(&step);
    }

    /// Run one backend call: time it, add it to `busy_ns`, emit a span.
    fn call<T>(
        &self,
        name: &'static str,
        bytes_of: impl Fn(&T) -> u64,
        f: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        let start_ns = if self.tracer.enabled() {
            self.tracer.now_ns()
        } else {
            0
        };
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed().as_nanos() as u64;
        self.counters.busy_ns.fetch_add(dur, Ordering::Relaxed);
        if self.tracer.enabled() {
            let bytes = out.as_ref().map_or(0, &bytes_of);
            self.tracer.child(
                self.cur_op.load(Ordering::Relaxed),
                "storage",
                name,
                start_ns,
                start_ns + dur,
                bytes,
            );
        }
        out
    }

    fn count_write(&self, bytes: usize) {
        self.counters.write_ops.fetch_add(1, Ordering::Relaxed);
        self.counters
            .write_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn count_read(&self, out: &io::Result<Vec<u8>>) {
        self.counters.read_ops.fetch_add(1, Ordering::Relaxed);
        if let Ok(bytes) = out {
            self.counters
                .read_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
    }
}

impl Storage for TraceFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.call("create_dir_all", |_| 0, || self.inner.create_dir_all(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.count_write(bytes.len());
        self.call(
            "write",
            |_| bytes.len() as u64,
            || self.inner.write(path, bytes),
        )
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.call("sync", |_| 0, || self.inner.sync(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.counters.renames.fetch_add(1, Ordering::Relaxed);
        let out = self.call("rename", |_| 0, || self.inner.rename(from, to));
        if out.is_ok() {
            if let Some(step) = committed_step(to) {
                self.commits
                    .lock()
                    .expect("commit map lock poisoned")
                    .insert(step, Instant::now());
                self.commit_landed.notify_all();
            }
        }
        out
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let out = self.call(
            "read",
            |b: &Vec<u8>| b.len() as u64,
            || self.inner.read(path),
        );
        self.count_read(&out);
        out
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let out = self.call(
            "read_range",
            |b: &Vec<u8>| b.len() as u64,
            || self.inner.read_range(path, offset, len),
        );
        self.count_read(&out);
        out
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.call("list_dir", |_| 0, || self.inner.list_dir(path))
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.call("remove_dir_all", |_| 0, || self.inner.remove_dir_all(path))
    }

    // `exists`, `file_len`, `mtime`, `touch` are metadata peeks the
    // system itself leaves uncounted (see the `Storage` docs); they are
    // forwarded without a span so tight polling loops stay cheap.
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }

    fn hard_link(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.counters.links.fetch_add(1, Ordering::Relaxed);
        self.call("hard_link", |_| 0, || self.inner.hard_link(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.call("remove_file", |_| 0, || self.inner.remove_file(path))
    }

    fn create_stream<'a>(&'a self, path: &Path) -> io::Result<Box<dyn WriteStream + 'a>> {
        let inner = self.call("create_stream", |_| 0, || self.inner.create_stream(path))?;
        Ok(Box::new(TraceStream { fs: self, inner }))
    }

    fn mtime(&self, path: &Path) -> io::Result<SystemTime> {
        self.inner.mtime(path)
    }

    fn touch(&self, path: &Path) -> io::Result<()> {
        self.inner.touch(path)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.count_write(bytes.len());
        self.call(
            "append",
            |_| bytes.len() as u64,
            || self.inner.append(path, bytes),
        )
    }
}

struct TraceStream<'a> {
    fs: &'a TraceFs,
    inner: Box<dyn WriteStream + 'a>,
}

impl WriteStream for TraceStream<'_> {
    fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.fs.count_write(bytes.len());
        let inner = &mut self.inner;
        self.fs.call(
            "write_chunk",
            |_| bytes.len() as u64,
            || inner.write_chunk(bytes),
        )
    }

    fn finish(&mut self) -> io::Result<()> {
        self.fs.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        let inner = &mut self.inner;
        self.fs.call("finish", |_| 0, || inner.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_renames_are_recognised() {
        assert_eq!(committed_step(Path::new("/r/checkpoint-12")), Some(12));
        assert_eq!(committed_step(Path::new("/r/checkpoint-7/COMMIT")), Some(7));
        assert_eq!(committed_step(Path::new("/r/checkpoint-12.tmp")), None);
        assert_eq!(committed_step(Path::new("/r/objects/ab/cdef.obj")), None);
    }
}
