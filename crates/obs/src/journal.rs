//! Crash-safe JSONL run-event journal.
//!
//! One line per completed (or failed) save/restore/merge/GC at
//! `<run_root>/events.jsonl`. Appends go through the
//! [`Storage`] trait, so the fault-injection VFS can fail or *tear* them
//! exactly like checkpoint payload writes. The durability rule mirrors
//! the checkpoint commit protocol's stance on torn writes:
//!
//! * a line is only meaningful once its trailing `\n` is on disk;
//! * on read, an unparseable **final** line (torn tail — the writer died
//!   mid-append) is silently skipped, never an error;
//! * an unparseable line *before* the tail means external corruption; it
//!   is skipped too but counted in [`JournalRead::skipped`] so reports
//!   can surface it.

use llmt_storage::vfs::Storage;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Journal file name under the run root.
pub const EVENTS_FILE: &str = "events.jsonl";

/// Prefix of per-session journal files (`events-<label>.jsonl`).
///
/// Concurrent sessions against one run root (or one shared store root)
/// do not share an append target: `LocalFs` appends with `O_APPEND`, but
/// `Storage::append`'s *default* (what test doubles inherit) is a read +
/// rewrite that can drop a concurrent writer's lines, and a torn tail
/// should name the one writer that died. Each session appends to its own
/// `events-<label>.jsonl`, and [`read_merged_journal`] folds them (plus
/// the single-writer `events.jsonl`) into one stream at report time.
pub const SESSION_EVENTS_PREFIX: &str = "events-";

/// File name of the per-session journal for `label`, with the label
/// sanitized to filesystem-safe characters (`[A-Za-z0-9._-]`, everything
/// else mapped to `-`).
pub fn session_events_file(label: &str) -> String {
    let safe: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect();
    format!("{SESSION_EVENTS_PREFIX}{safe}.jsonl")
}

/// One run event: a completed or failed save, restore, merge, or GC.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunEvent {
    /// Event kind: `"save"`, `"restore"`, `"merge"`, or `"gc"`.
    pub kind: String,
    /// Training step the event belongs to.
    pub step: u64,
    /// Logical payload bytes moved by the event.
    #[serde(default)]
    pub bytes: u64,
    /// Bytes physically written (dedup saves write fewer than `bytes`).
    #[serde(default)]
    pub physical_bytes: u64,
    /// Files written or fetched.
    #[serde(default)]
    pub files: u64,
    /// Content-addressed store hits (objects satisfied without writing).
    #[serde(default)]
    pub dedup_hits: u64,
    /// Bytes the dedup store avoided rewriting.
    #[serde(default)]
    pub dedup_saved_bytes: u64,
    /// Storage retries absorbed while producing this event.
    #[serde(default)]
    pub retries: u64,
    /// Delta objects placed by this event (XOR diffs against a previous
    /// checkpoint's object). Zero in pre-delta journals.
    #[serde(default)]
    pub delta_objects: u64,
    /// Bytes delta/compressed encoding avoided writing (logical minus
    /// stored, summed over encoded objects placed by this event).
    #[serde(default)]
    pub delta_saved_bytes: u64,
    /// Longest delta chain depth placed or compacted by this event.
    #[serde(default)]
    pub delta_max_chain: u64,
    /// Delta chains rewritten into fresh `Full` objects (compaction
    /// events).
    #[serde(default)]
    pub compactions: u64,
    /// Per-stage nanoseconds (e.g. `encode`, `place`, `commit`).
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub stages: BTreeMap<String, u64>,
    /// Error message when the operation failed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// Storage tier the event concerns (`"mem"`, `"fs"`, `"object"`).
    /// Set by tier-placement, drain, and eviction events; absent for
    /// tier-agnostic events, and absent in pre-tiering journals.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub tier: Option<String>,
}

impl RunEvent {
    /// A new event of `kind` at `step`, all tallies zero.
    pub fn new(kind: &str, step: u64) -> Self {
        RunEvent {
            kind: kind.to_string(),
            step,
            ..Default::default()
        }
    }
}

/// Everything a journal read produces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalRead {
    /// Events that parsed, in file order.
    pub events: Vec<RunEvent>,
    /// Unparseable lines *before* the tail (external corruption).
    pub skipped: usize,
    /// Whether a torn (unparseable, newline-less or final) tail line was
    /// dropped.
    pub torn_tail: bool,
}

/// Append handle for `<run_root>/events.jsonl`.
pub struct Journal {
    storage: Arc<dyn Storage>,
    path: PathBuf,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
}

impl Journal {
    /// A journal at `<run_root>/events.jsonl` on `storage`.
    pub fn at_run_root(storage: Arc<dyn Storage>, run_root: &Path) -> Self {
        Journal {
            storage,
            path: run_root.join(EVENTS_FILE),
        }
    }

    /// A per-session journal at `<run_root>/events-<label>.jsonl` — the
    /// concurrency-safe variant of [`Journal::at_run_root`]: sessions
    /// never share an append target (see [`SESSION_EVENTS_PREFIX`]).
    pub fn for_session(storage: Arc<dyn Storage>, run_root: &Path, label: &str) -> Self {
        Journal {
            storage,
            path: run_root.join(session_events_file(label)),
        }
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one event as a single JSON line.
    pub fn append(&self, event: &RunEvent) -> io::Result<()> {
        append_event(&*self.storage, &self.path, event)
    }

    /// Read this journal back (see [`read_journal`]).
    pub fn read(&self) -> io::Result<JournalRead> {
        read_journal(&*self.storage, &self.path)
    }
}

/// Append one event as a single JSON line to `path` on `storage` — the
/// borrowing form of [`Journal::append`] for callers that hold a
/// `&dyn Storage` rather than an `Arc`.
pub fn append_event(storage: &dyn Storage, path: &Path, event: &RunEvent) -> io::Result<()> {
    let mut line =
        serde_json::to_string(event).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    line.push('\n');
    storage.append(path, line.as_bytes())
}

/// Read a journal file. A missing file is an empty journal; a torn tail
/// line is skipped, never an error (the writer died mid-append — the
/// same failure the checkpoint commit marker guards against).
pub fn read_journal(storage: &dyn Storage, path: &Path) -> io::Result<JournalRead> {
    if !storage.exists(path) {
        return Ok(JournalRead::default());
    }
    let bytes = storage.read(path)?;
    Ok(parse_journal(&bytes))
}

/// Read every journal under `run_root` — the single-writer `events.jsonl`
/// plus all per-session `events-*.jsonl` files — as one merged stream.
///
/// Per-file order is preserved, files are visited in sorted name order,
/// and the merged stream is stable-sorted by step so interleaved sessions
/// produce a coherent timeline. Torn tails OR together (any writer that
/// died mid-append is reported); skipped line counts sum.
pub fn read_merged_journal(storage: &dyn Storage, run_root: &Path) -> io::Result<JournalRead> {
    let mut merged = read_journal(storage, &run_root.join(EVENTS_FILE))?;
    let mut session_files: Vec<PathBuf> = match storage.list_dir(run_root) {
        Ok(entries) => entries
            .into_iter()
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(SESSION_EVENTS_PREFIX) && n.ends_with(".jsonl"))
            })
            .collect(),
        // A run root that does not exist (or is unreadable as a
        // directory) simply has no session journals.
        Err(_) => Vec::new(),
    };
    session_files.sort();
    for path in session_files {
        let r = read_journal(storage, &path)?;
        merged.events.extend(r.events);
        merged.skipped += r.skipped;
        merged.torn_tail |= r.torn_tail;
    }
    merged.events.sort_by_key(|ev| ev.step);
    Ok(merged)
}

/// Parse journal bytes per the torn-tail rule.
pub fn parse_journal(bytes: &[u8]) -> JournalRead {
    let text = String::from_utf8_lossy(bytes);
    let mut out = JournalRead::default();
    if text.is_empty() {
        return out;
    }
    let lines: Vec<&str> = text.lines().collect();
    let n = lines.len();
    for (i, line) in lines.into_iter().enumerate() {
        if line.is_empty() {
            continue;
        }
        match serde_json::from_str::<RunEvent>(line) {
            Ok(ev) => out.events.push(ev),
            // The final line is the torn tail exactly when it is
            // unparseable: either its newline never landed, or the torn
            // prefix that did land is not valid JSON.
            Err(_) if i + 1 == n => out.torn_tail = true,
            Err(_) => out.skipped += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmt_storage::vfs::LocalFs;

    fn ev(kind: &str, step: u64) -> RunEvent {
        let mut e = RunEvent::new(kind, step);
        e.bytes = 100 * (step + 1);
        e.stages.insert("encode".into(), 42);
        e
    }

    #[test]
    fn append_then_read_round_trips() {
        let dir = tempfile::tempdir().unwrap();
        let j = Journal::at_run_root(Arc::new(LocalFs), dir.path());
        for step in 0..3 {
            j.append(&ev("save", step)).unwrap();
        }
        let r = j.read().unwrap();
        assert_eq!(r.events.len(), 3);
        assert_eq!(r.skipped, 0);
        assert!(!r.torn_tail);
        assert_eq!(r.events[2], ev("save", 2));
    }

    #[test]
    fn missing_journal_reads_empty() {
        let dir = tempfile::tempdir().unwrap();
        let r = read_journal(&LocalFs, &dir.path().join(EVENTS_FILE)).unwrap();
        assert_eq!(r, JournalRead::default());
    }

    #[test]
    fn torn_tail_is_skipped_silently() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(serde_json::to_string(&ev("save", 0)).unwrap().as_bytes());
        bytes.push(b'\n');
        let second = serde_json::to_string(&ev("save", 1)).unwrap();
        bytes.extend_from_slice(&second.as_bytes()[..second.len() / 2]);
        let r = parse_journal(&bytes);
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.skipped, 0);
        assert!(r.torn_tail);
    }

    #[test]
    fn newline_less_but_complete_tail_still_parses() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(serde_json::to_string(&ev("save", 0)).unwrap().as_bytes());
        let r = parse_journal(&bytes);
        assert_eq!(r.events.len(), 1);
        assert!(!r.torn_tail);
    }

    #[test]
    fn mid_file_corruption_is_counted_not_fatal() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(serde_json::to_string(&ev("save", 0)).unwrap().as_bytes());
        bytes.extend_from_slice(b"\n{not json}\n");
        bytes.extend_from_slice(serde_json::to_string(&ev("gc", 1)).unwrap().as_bytes());
        bytes.push(b'\n');
        let r = parse_journal(&bytes);
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.skipped, 1);
        assert!(!r.torn_tail);
    }

    #[test]
    fn empty_journal_parses_empty() {
        assert_eq!(parse_journal(b""), JournalRead::default());
    }

    #[test]
    fn session_labels_sanitize_to_filesystem_safe_names() {
        assert_eq!(session_events_file("run-3"), "events-run-3.jsonl");
        assert_eq!(session_events_file("a/b c"), "events-a-b-c.jsonl");
    }

    #[test]
    fn per_session_journals_merge_with_the_legacy_file() {
        let dir = tempfile::tempdir().unwrap();
        let fs: Arc<dyn Storage> = Arc::new(LocalFs);
        let legacy = Journal::at_run_root(fs.clone(), dir.path());
        legacy.append(&ev("save", 1)).unwrap();
        let a = Journal::for_session(fs.clone(), dir.path(), "run-a");
        let b = Journal::for_session(fs.clone(), dir.path(), "run-b");
        a.append(&ev("save", 2)).unwrap();
        b.append(&ev("save", 3)).unwrap();
        a.append(&ev("save", 4)).unwrap();
        let r = read_merged_journal(&LocalFs, dir.path()).unwrap();
        let steps: Vec<u64> = r.events.iter().map(|e| e.step).collect();
        assert_eq!(steps, vec![1, 2, 3, 4]);
        assert_eq!(r.skipped, 0);
        assert!(!r.torn_tail);
    }

    #[test]
    fn two_concurrent_writers_never_tear_each_others_lines() {
        // The race per-session journals exist to prevent: two threads
        // appending many lines each. With separate files every line must
        // survive intact; the merged read sees all of them.
        let dir = tempfile::tempdir().unwrap();
        let fs: Arc<dyn Storage> = Arc::new(LocalFs);
        let root = dir.path().to_path_buf();
        let handles: Vec<_> = (0..2)
            .map(|w| {
                let fs = fs.clone();
                let root = root.clone();
                std::thread::spawn(move || {
                    let j = Journal::for_session(fs, &root, &format!("writer-{w}"));
                    for i in 0..50u64 {
                        j.append(&ev("save", w * 1000 + i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let r = read_merged_journal(&LocalFs, &root).unwrap();
        assert_eq!(r.events.len(), 100);
        assert_eq!(r.skipped, 0);
        assert!(!r.torn_tail);
    }

    #[test]
    fn merged_read_reports_a_torn_session_tail() {
        let dir = tempfile::tempdir().unwrap();
        let fs: Arc<dyn Storage> = Arc::new(LocalFs);
        Journal::for_session(fs.clone(), dir.path(), "ok")
            .append(&ev("save", 1))
            .unwrap();
        // Session "dead" died mid-append: complete line, then a torn one.
        let mut bytes = serde_json::to_string(&ev("save", 2)).unwrap().into_bytes();
        bytes.push(b'\n');
        bytes.extend_from_slice(b"{\"kind\":\"sa");
        std::fs::write(dir.path().join(session_events_file("dead")), &bytes).unwrap();
        let r = read_merged_journal(&LocalFs, dir.path()).unwrap();
        assert_eq!(r.events.len(), 2);
        assert!(r.torn_tail);
        assert_eq!(r.skipped, 0);
    }

    #[test]
    fn torn_append_through_faulty_vfs_reads_without_error() {
        use llmt_storage::vfs::{FaultKind, FaultSpec, FaultyFs};
        let dir = tempfile::tempdir().unwrap();
        let faulty = Arc::new(FaultyFs::new(
            LocalFs,
            FaultSpec {
                at_op: 2,
                kind: FaultKind::TornWrite {
                    keep_bytes: Some(5),
                },
            },
        ));
        let j = Journal::at_run_root(faulty, dir.path());
        j.append(&ev("save", 0)).unwrap(); // op 0
        j.append(&ev("save", 1)).unwrap(); // op 1
        j.append(&ev("save", 2)).unwrap_err(); // op 2: torn mid-line, dead
                                               // The process-model died mid-append; a fresh reader must see the
                                               // two complete events and silently drop the torn tail.
        let r = read_journal(&LocalFs, j.path()).unwrap();
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.events[1].step, 1);
        assert_eq!(r.skipped, 0);
        assert!(r.torn_tail);
    }
}
