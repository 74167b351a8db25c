//! Byte-capacity-bounded in-memory [`Storage`] backend — the top of the
//! tier hierarchy.
//!
//! Semantics are object-store-flavored rather than POSIX-flavored where
//! the two differ and the checkpoint layer doesn't care:
//!
//! * Writing a file implicitly creates its parent "directories" (which
//!   are just prefixes tracked so `list_dir` and `exists` behave).
//! * `sync` is a no-op — memory is this tier's definition of durable,
//!   which is exactly why anything resident here must be drained down
//!   before it counts against the paper's durability story.
//! * Capacity is enforced *before* mutation for whole-file writes, so an
//!   admission failure (`StorageFull`) leaves the previous file intact.
//!   Streaming writes check per chunk and can leave a partial file on
//!   overflow, matching real ENOSPC mid-stream; the save engine's
//!   staging cleanup already handles that.

use llmt_storage::vfs::{range_past_eof, Storage, WriteStream};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

#[derive(Debug, Default)]
struct MemInner {
    files: BTreeMap<PathBuf, Vec<u8>>,
    dirs: BTreeSet<PathBuf>,
    used: u64,
}

impl MemInner {
    fn note_parents(&mut self, path: &Path) {
        let mut p = path.parent();
        while let Some(dir) = p {
            if !self.dirs.insert(dir.to_path_buf()) {
                break;
            }
            p = dir.parent();
        }
    }

    /// Capacity check for replacing `path` (currently `old` bytes) with
    /// `new` bytes.
    fn fits(&self, capacity: u64, old: u64, new: u64) -> bool {
        self.used - old + new <= capacity
    }
}

fn full_err(path: &Path, capacity: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::StorageFull,
        format!(
            "memory tier full ({capacity} byte capacity) writing {}",
            path.display()
        ),
    )
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("no such file: {}", path.display()),
    )
}

/// In-memory [`Storage`] with a hard byte capacity. Cheap to clone
/// behind an `Arc`; all state sits under one mutex (checkpoint I/O is
/// dominated by payload copies, not lock traffic).
pub struct MemStorage {
    inner: Mutex<MemInner>,
    capacity: u64,
}

impl fmt::Debug for MemStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.inner.lock().unwrap();
        f.debug_struct("MemStorage")
            .field("capacity", &self.capacity)
            .field("used", &g.used)
            .field("files", &g.files.len())
            .finish()
    }
}

impl MemStorage {
    /// A memory tier holding at most `capacity` payload bytes.
    pub fn new(capacity: u64) -> Self {
        MemStorage {
            inner: Mutex::new(MemInner::default()),
            capacity,
        }
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().unwrap().used
    }

    /// Configured byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

impl Storage for MemStorage {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut g = self.inner.lock().unwrap();
        g.dirs.insert(path.to_path_buf());
        g.note_parents(path);
        Ok(())
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut g = self.inner.lock().unwrap();
        let old = g.files.get(path).map_or(0, |b| b.len() as u64);
        if !g.fits(self.capacity, old, bytes.len() as u64) {
            return Err(full_err(path, self.capacity));
        }
        g.used = g.used - old + bytes.len() as u64;
        g.files.insert(path.to_path_buf(), bytes.to_vec());
        g.note_parents(path);
        Ok(())
    }

    fn sync(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut g = self.inner.lock().unwrap();
        if g.files.contains_key(to) || g.dirs.contains(to) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("rename target exists: {}", to.display()),
            ));
        }
        if let Some(bytes) = g.files.remove(from) {
            g.files.insert(to.to_path_buf(), bytes);
            g.note_parents(to);
            return Ok(());
        }
        if g.dirs.contains(from) {
            // Directory rename: re-prefix every descendant path.
            let moved: Vec<(PathBuf, Vec<u8>)> = g
                .files
                .iter()
                .filter(|(p, _)| p.starts_with(from))
                .map(|(p, b)| (p.clone(), b.clone()))
                .collect();
            for (p, _) in &moved {
                g.files.remove(p);
            }
            for (p, b) in moved {
                let rel = p.strip_prefix(from).expect("starts_with checked");
                g.files.insert(to.join(rel), b);
            }
            let dirs: Vec<PathBuf> = g
                .dirs
                .iter()
                .filter(|d| d.starts_with(from))
                .cloned()
                .collect();
            for d in &dirs {
                g.dirs.remove(d);
            }
            for d in dirs {
                let rel = d.strip_prefix(from).expect("starts_with checked");
                g.dirs.insert(to.join(rel));
            }
            g.note_parents(to);
            return Ok(());
        }
        Err(not_found(from))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let g = self.inner.lock().unwrap();
        g.files.get(path).cloned().ok_or_else(|| not_found(path))
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let g = self.inner.lock().unwrap();
        let bytes = g.files.get(path).ok_or_else(|| not_found(path))?;
        if let Some(e) = range_past_eof(path, offset, len, bytes.len() as u64) {
            return Err(e);
        }
        let start = offset as usize;
        Ok(bytes[start..start + len].to_vec())
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let g = self.inner.lock().unwrap();
        if !g.dirs.contains(path) {
            return Err(not_found(path));
        }
        let mut out: Vec<PathBuf> = g
            .files
            .keys()
            .filter(|p| p.parent() == Some(path))
            .cloned()
            .collect();
        out.extend(g.dirs.iter().filter(|d| d.parent() == Some(path)).cloned());
        Ok(out)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut g = self.inner.lock().unwrap();
        let victims: Vec<PathBuf> = g
            .files
            .keys()
            .filter(|p| p.starts_with(path))
            .cloned()
            .collect();
        for p in victims {
            let len = g.files.remove(&p).map_or(0, |b| b.len() as u64);
            g.used -= len;
        }
        let dirs: Vec<PathBuf> = g
            .dirs
            .iter()
            .filter(|d| d.starts_with(path))
            .cloned()
            .collect();
        for d in dirs {
            g.dirs.remove(&d);
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        let g = self.inner.lock().unwrap();
        g.files.contains_key(path) || g.dirs.contains(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        let g = self.inner.lock().unwrap();
        g.files
            .get(path)
            .map(|b| b.len() as u64)
            .ok_or_else(|| not_found(path))
    }

    fn hard_link(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut g = self.inner.lock().unwrap();
        if g.files.contains_key(to) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("link target exists: {}", to.display()),
            ));
        }
        let bytes = g.files.get(from).cloned().ok_or_else(|| not_found(from))?;
        if !g.fits(self.capacity, 0, bytes.len() as u64) {
            return Err(full_err(to, self.capacity));
        }
        g.used += bytes.len() as u64;
        g.files.insert(to.to_path_buf(), bytes);
        g.note_parents(to);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut g = self.inner.lock().unwrap();
        match g.files.remove(path) {
            Some(b) => {
                g.used -= b.len() as u64;
                Ok(())
            }
            None => Err(not_found(path)),
        }
    }

    fn create_stream<'a>(&'a self, path: &Path) -> io::Result<Box<dyn WriteStream + 'a>> {
        {
            let mut g = self.inner.lock().unwrap();
            // Replace semantics: reclaim the old file immediately, then
            // grow chunk by chunk under per-chunk capacity checks.
            if let Some(old) = g.files.remove(path) {
                g.used -= old.len() as u64;
            }
            g.files.insert(path.to_path_buf(), Vec::new());
            g.note_parents(path);
        }
        Ok(Box::new(MemStream {
            mem: self,
            path: path.to_path_buf(),
        }))
    }
}

struct MemStream<'a> {
    mem: &'a MemStorage,
    path: PathBuf,
}

impl WriteStream for MemStream<'_> {
    fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut g = self.mem.inner.lock().unwrap();
        if !g.fits(self.mem.capacity, 0, bytes.len() as u64) {
            return Err(full_err(&self.path, self.mem.capacity));
        }
        g.used += bytes.len() as u64;
        match g.files.get_mut(&self.path) {
            Some(buf) => {
                buf.extend_from_slice(bytes);
                Ok(())
            }
            None => {
                g.used -= bytes.len() as u64;
                Err(not_found(&self.path))
            }
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip_and_dirs() {
        let m = MemStorage::new(1 << 20);
        let p = Path::new("/run/a/b.bin");
        m.write(p, b"hello").unwrap();
        assert_eq!(m.read(p).unwrap(), b"hello");
        assert_eq!(m.file_len(p).unwrap(), 5);
        assert!(m.exists(Path::new("/run/a")));
        assert!(m.exists(Path::new("/run")));
        let ls = m.list_dir(Path::new("/run/a")).unwrap();
        assert_eq!(ls, vec![PathBuf::from("/run/a/b.bin")]);
        assert_eq!(m.used_bytes(), 5);
    }

    #[test]
    fn capacity_is_enforced_atomically_for_whole_file_writes() {
        let m = MemStorage::new(10);
        m.write(Path::new("/a"), b"12345678").unwrap();
        // Replacing the same file with something that fits post-reclaim
        // is fine...
        m.write(Path::new("/a"), b"0123456789").unwrap();
        // ...but overflow must fail typed and leave the old bytes intact.
        let e = m.write(Path::new("/a"), b"0123456789x").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        assert_eq!(m.read(Path::new("/a")).unwrap(), b"0123456789");
        let e = m.write(Path::new("/b"), b"x").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        assert!(!m.exists(Path::new("/b")));
    }

    #[test]
    fn stream_overflow_mid_file_leaves_partial_like_enospc() {
        let m = MemStorage::new(6);
        let mut s = m.create_stream(Path::new("/a")).unwrap();
        s.write_chunk(b"1234").unwrap();
        let e = s.write_chunk(b"5678").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        drop(s);
        assert_eq!(m.read(Path::new("/a")).unwrap(), b"1234");
        assert_eq!(m.used_bytes(), 4);
    }

    #[test]
    fn dir_rename_moves_descendants() {
        let m = MemStorage::new(1 << 20);
        m.write(Path::new("/r/stage.tmp/x/a"), b"aa").unwrap();
        m.write(Path::new("/r/stage.tmp/b"), b"bb").unwrap();
        m.rename(Path::new("/r/stage.tmp"), Path::new("/r/final"))
            .unwrap();
        assert_eq!(m.read(Path::new("/r/final/x/a")).unwrap(), b"aa");
        assert_eq!(m.read(Path::new("/r/final/b")).unwrap(), b"bb");
        assert!(!m.exists(Path::new("/r/stage.tmp")));
        assert!(m.exists(Path::new("/r/final/x")));
        // Rename onto an existing target is refused (commit renames rely
        // on the destination being fresh).
        m.write(Path::new("/r/other"), b"o").unwrap();
        let e = m
            .rename(Path::new("/r/final"), Path::new("/r/other"))
            .unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn remove_dir_all_reclaims_capacity() {
        let m = MemStorage::new(8);
        m.write(Path::new("/d/a"), b"1234").unwrap();
        m.write(Path::new("/d/b"), b"5678").unwrap();
        assert_eq!(m.used_bytes(), 8);
        m.remove_dir_all(Path::new("/d")).unwrap();
        assert_eq!(m.used_bytes(), 0);
        m.write(Path::new("/e"), b"12345678").unwrap();
    }

    #[test]
    fn read_range_past_eof_is_typed() {
        let m = MemStorage::new(1 << 20);
        m.write(Path::new("/f"), b"0123456789").unwrap();
        for (off, len) in [(20u64, 1usize), (8, 5), (0, 11), (u64::MAX, 2)] {
            let e = m.read_range(Path::new("/f"), off, len).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "({off},{len})");
        }
        assert_eq!(m.read_range(Path::new("/f"), 4, 6).unwrap(), b"456789");
        assert_eq!(m.read_range(Path::new("/f"), 10, 0).unwrap(), b"");
    }

    #[test]
    fn hard_link_copies_bytes_under_capacity() {
        let m = MemStorage::new(10);
        m.write(Path::new("/a"), b"12345").unwrap();
        m.hard_link(Path::new("/a"), Path::new("/b")).unwrap();
        assert_eq!(m.read(Path::new("/b")).unwrap(), b"12345");
        let e = m.hard_link(Path::new("/a"), Path::new("/c")).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        let e = m.hard_link(Path::new("/a"), Path::new("/b")).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::AlreadyExists);
    }
}
