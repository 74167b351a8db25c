//! The per-process harness one workload runs in: arguments, run
//! directory, op timing against `TraceFs` counters, the correctness
//! tally, and the accumulators the end-to-end and per-layer metrics are
//! computed from.

use crate::calib::Yardstick;
use crate::stats::Samples;
use crate::sut::{self, Storage};
use crate::trace::{covered_ns, Tracer};
use crate::tracefs::{IoCounts, TraceFs};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a workload run was asked for.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed section. Rounds are not cut short: the section
    /// ends at the first round boundary at or after this, and never
    /// before the workload's count window has closed.
    pub seconds: f64,
    pub trace: bool,
    /// `tiny_test` model, a single set-up, and a timed section that ends
    /// with the count window.
    pub smoke: bool,
    /// Where `trace.<workload>.json` goes (traced runs).
    pub trace_dir: Option<PathBuf>,
}

/// Failures and attempts of timed ops and correctness checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one correctness check; a failure is named on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAIL: {}", what());
        }
        ok
    }

    /// Count one operation of the system; an error is named on stderr.
    pub fn attempt<T>(&mut self, what: &str, r: sut::SutResult<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAIL: {what}: {e}");
                None
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Named sample sets and scalars; the per-layer table and the timing
/// medians are read out of this by name.
#[derive(Debug, Default, Clone)]
pub struct Book {
    samples: BTreeMap<&'static str, Samples>,
    values: BTreeMap<&'static str, f64>,
}

impl Book {
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    pub fn samples(&self, name: &str) -> Samples {
        self.samples.get(name).cloned().unwrap_or_default()
    }

    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Median of the samples under `name`, else the scalar, else 0.
    pub fn read(&self, name: &str) -> f64 {
        match self.samples.get(name) {
            Some(s) if s.n() > 0 => s.median(),
            _ => self.value(name),
        }
    }

    pub fn absorb(&mut self, other: &Book) {
        for (k, s) in &other.samples {
            self.samples.entry(k).or_default().extend(s);
        }
        for (k, v) in &other.values {
            *self.values.entry(k).or_insert(0.0) += v;
        }
    }
}

/// Totals the count-based end-to-end metrics are ratios of.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Logical checkpoint bytes saved in the timed section.
    pub logical_saved: u64,
    /// Seconds the save path kept the caller or its own writer busy.
    pub save_wall_s: f64,
    /// Bytes written outside any `TraceFs` (merge output, by its report).
    pub extra_written: u64,
    /// Bytes `Storage` reads returned during restores and recoveries.
    pub restore_read: u64,
    /// Bytes of state those restores bound.
    pub restore_bound: u64,
    /// Footprint at the end of the timed section.
    pub stored_physical: u64,
    pub stored_logical: u64,
}

impl Totals {
    pub fn absorb(&mut self, o: &Totals) {
        self.logical_saved += o.logical_saved;
        self.save_wall_s += o.save_wall_s;
        self.extra_written += o.extra_written;
        self.restore_read += o.restore_read;
        self.restore_bound += o.restore_bound;
        self.stored_physical += o.stored_physical;
        self.stored_logical += o.stored_logical;
    }
}

/// One benchmark op in flight: a parent span plus counter baselines.
pub struct Op {
    span: u64,
    kind: &'static str,
    start_ns: u64,
    t0: Instant,
    fs: Vec<(Arc<TraceFs>, IoCounts)>,
}

/// A finished op.
pub struct Done {
    pub ms: f64,
    pub io: IoCounts,
    pub span: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything a workload thread records into. The two-tenant workload
/// gives each thread its own and merges them.
pub struct Recorder {
    pub tracer: Arc<Tracer>,
    pub tally: Tally,
    pub book: Book,
    pub totals: Totals,
    /// Built on the first lap: a recorder that only collects others'
    /// results (the two-tenant workload's main thread) never holds one.
    yardstick: Option<Yardstick>,
}

impl Recorder {
    pub fn new(tracer: Arc<Tracer>) -> Recorder {
        Recorder {
            tracer,
            tally: Tally::default(),
            book: Book::default(),
            totals: Totals::default(),
            yardstick: None,
        }
    }

    /// What separates two save iterations: a lap of the yardstick on
    /// this thread (what the gated timings of this run are multiples
    /// of), then one optimizer step. Neither is inside a timed op.
    /// Returns the lap, in milliseconds.
    pub fn advance(&mut self, t: &mut sut::Trainer) -> f64 {
        let lap_ms = self.yardstick.get_or_insert_with(Yardstick::new).lap_ms();
        self.book.sample("host.lap_ms", lap_ms);
        let t0 = Instant::now();
        sut::step(t);
        self.book
            .sample("train.step_ms", t0.elapsed().as_secs_f64() * 1e3);
        lap_ms
    }

    /// Start an op of `kind` whose storage traffic flows through `fs`.
    pub fn begin(&self, kind: &'static str, fs: &[&Arc<TraceFs>]) -> Op {
        let span = self.tracer.next_id();
        for f in fs {
            f.set_op(span);
        }
        Op {
            span,
            kind,
            start_ns: self.tracer.now_ns(),
            t0: Instant::now(),
            fs: fs.iter().map(|f| ((*f).clone(), f.counts())).collect(),
        }
    }

    /// Finish `op`: wall time, storage deltas, and its parent span.
    pub fn end(&self, op: Op, name: &str, bytes: u64) -> Done {
        let ms = op.t0.elapsed().as_secs_f64() * 1e3;
        let end_ns = self.tracer.now_ns();
        let mut io = IoCounts::default();
        for (f, before) in &op.fs {
            io = io.plus(&f.counts().minus(before));
            f.set_op(0);
        }
        self.tracer
            .record(op.span, 0, op.kind, name, op.start_ns, end_ns, bytes);
        Done {
            ms,
            io,
            span: op.span,
            start_ns: op.start_ns,
            end_ns,
        }
    }

    /// Milliseconds of `done`'s interval no storage child span covers
    /// (traced runs; 0 otherwise).
    pub fn self_ms(&self, done: &Done) -> f64 {
        if !self.tracer.enabled() {
            return 0.0;
        }
        let children = self.tracer.storage_children(done.span);
        let covered = covered_ns(children, done.start_ns, done.end_ns);
        (done.end_ns - done.start_ns - covered) as f64 / 1e6
    }

    /// Per-save storage counts and engine stage values into the book.
    pub fn note_save(&mut self, done: &Done, info: &sut::SaveInfo) {
        self.book
            .sample("storage.write_ops", done.io.write_ops as f64);
        self.book
            .sample("storage.write_bytes", done.io.write_bytes as f64);
        self.book.sample("storage.fsyncs", done.io.fsyncs as f64);
        self.book.sample("storage.renames", done.io.renames as f64);
        self.book.sample("storage.links", done.io.links as f64);
        self.book
            .sample("storage.busy_ms_per_save", done.io.busy_ns as f64 / 1e6);
        self.book
            .sample("ckpt.engine.files_per_save", info.files as f64);
        let t = &info.timings;
        self.book
            .sample("ckpt.engine.snapshot_ms", t.snapshot_ns as f64 / 1e6);
        self.book
            .sample("ckpt.engine.encode_ms", t.encode_ns as f64 / 1e6);
        self.book
            .sample("ckpt.engine.place_ms", t.place_ns as f64 / 1e6);
        self.book
            .sample("ckpt.engine.commit_ms", t.commit_ns as f64 / 1e6);
        if self.tracer.enabled() {
            self.book.sample("ckpt.engine.self_ms", self.self_ms(done));
            self.tracer.stages(
                done.span,
                done.start_ns,
                &[
                    ("snapshot", t.snapshot_ns),
                    ("encode", t.encode_ns),
                    ("place", t.place_ns),
                    ("commit", t.commit_ns),
                ],
            );
        }
    }

    /// Per-restore storage counts into the book and the read-amp totals.
    pub fn note_restore(&mut self, done: &Done, bound_bytes: u64) {
        self.book
            .sample("storage.read_ops", done.io.read_ops as f64);
        self.book
            .sample("storage.read_bytes", done.io.read_bytes as f64);
        self.book
            .sample("storage.busy_ms_per_restore", done.io.busy_ns as f64 / 1e6);
        if self.tracer.enabled() {
            self.book.sample("ckpt.restore.self_ms", self.self_ms(done));
        }
        self.totals.restore_read += done.io.read_bytes;
        self.totals.restore_bound += bound_bytes;
    }

    /// Stage values of one restore (`sut::restore_stages`) into the book
    /// and, as synthetic children, under `parent`.
    pub fn note_restore_stages(&mut self, parent: &Done, info: &sut::RestoreInfo) {
        let t = &info.timings;
        self.book
            .sample("ckpt.restore.enumerate_ms", t.enumerate_ns as f64 / 1e6);
        self.book
            .sample("ckpt.restore.fetch_ms", t.fetch_ns as f64 / 1e6);
        self.book
            .sample("ckpt.restore.decode_ms", t.decode_ns as f64 / 1e6);
        self.book
            .sample("ckpt.restore.validate_ms", t.validate_ns as f64 / 1e6);
        self.book
            .sample("ckpt.restore.bind_ms", t.bind_ns as f64 / 1e6);
        self.book
            .sample("ckpt.restore.bytes_fetched", info.bytes_fetched as f64);
        self.book.sample(
            "ckpt.restore.digests_verified",
            info.digests_verified as f64,
        );
        self.tracer.stages(
            parent.span,
            parent.start_ns,
            &[
                ("enumerate", t.enumerate_ns),
                ("fetch", t.fetch_ns),
                ("decode", t.decode_ns),
                ("validate", t.validate_ns),
                ("bind", t.bind_ns),
            ],
        );
    }

    /// Account `logical` checkpoint bytes made durable in `wall_s`
    /// seconds of save-path time, split by whether this round is traced
    /// (`trace.overhead_frac` compares the two throughputs).
    pub fn note_saved(&mut self, logical: u64, wall_s: f64) {
        self.totals.logical_saved += logical;
        self.totals.save_wall_s += wall_s;
        let (bytes, secs) = if self.tracer.enabled() {
            ("traced.bytes", "traced.secs")
        } else {
            ("untraced.bytes", "untraced.secs")
        };
        self.book.add(bytes, logical as f64);
        self.book.add(secs, wall_s);
    }

    pub fn absorb(&mut self, other: &Recorder) {
        self.tally.absorb(other.tally);
        self.book.absorb(&other.book);
        self.totals.absorb(&other.totals);
    }
}

/// The process-wide context of one workload run.
pub struct Bench {
    pub args: Args,
    /// Fresh directory this run owns; removed at exit.
    pub dir: PathBuf,
    pub rec: Recorder,
    /// Every `TraceFs` of the current set-up; `write_amp` sums them.
    fs: Vec<Arc<TraceFs>>,
    written_at_start: u64,
    section: Option<Instant>,
    /// Totals and bytes written as of the end of the count window.
    window: Option<(Totals, u64)>,
}

impl Bench {
    pub fn new(args: Args, dir: PathBuf) -> Bench {
        let tracer = Arc::new(Tracer::new(args.trace));
        Bench {
            args,
            dir,
            rec: Recorder::new(tracer),
            fs: Vec::new(),
            written_at_start: 0,
            section: None,
            window: None,
        }
    }

    pub fn size(&self, full: sut::ModelSize) -> sut::ModelSize {
        if self.args.smoke {
            sut::ModelSize::Tiny
        } else {
            full
        }
    }

    /// A `TraceFs` over the local filesystem, registered for `write_amp`.
    pub fn local_fs(&mut self) -> Arc<TraceFs> {
        self.wrap(Arc::new(sut::local_fs()))
    }

    /// A registered `TraceFs` over any backend.
    pub fn wrap(&mut self, inner: Arc<dyn Storage>) -> Arc<TraceFs> {
        let fs = TraceFs::new(inner, self.rec.tracer.clone());
        self.fs.push(fs.clone());
        fs
    }

    /// Forget the file systems of a discarded set-up.
    pub fn reset_fs(&mut self) {
        self.fs.clear();
    }

    fn written(&self) -> u64 {
        self.fs.iter().map(|f| f.counts().write_bytes).sum()
    }

    /// Mark the start of the timed section.
    pub fn start_section(&mut self) {
        self.written_at_start = self.written();
        self.section = Some(Instant::now());
    }

    /// Whether another round should run: always inside the count window
    /// of `count_rounds` rounds; after it, until `--seconds` have passed
    /// since the section started (a smoke run stops with the window).
    pub fn more(&self, rounds_done: u32, count_rounds: u32) -> bool {
        if rounds_done < count_rounds {
            return true;
        }
        !self.args.smoke
            && self
                .section
                .expect("start_section is called before the first round")
                .elapsed()
                < Duration::from_secs_f64(self.args.seconds)
    }

    /// Close the count window: `stored_ratio`, `write_amp` and
    /// `read_amp` are ratios of the totals as they stand now, after a
    /// number of rounds the workload fixes, so that they depend on the
    /// seed and the code and not on how many rounds the host managed in
    /// `--seconds`. The workload books its footprint first.
    pub fn close_count_window(&mut self) {
        let written = self.written() - self.written_at_start + self.rec.totals.extra_written;
        self.window = Some((self.rec.totals, written));
    }

    /// Totals and bytes every registered `TraceFs` was asked to write
    /// (plus what reports said was written past them) in the count window.
    pub fn count_window(&self) -> (Totals, u64) {
        self.window.expect("every workload closes its count window")
    }

    pub fn sub(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

/// Remove a directory tree, tolerating its absence.
pub fn remove_tree(path: &Path) {
    match std::fs::remove_dir_all(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => eprintln!("warning: could not remove {}: {e}", path.display()),
    }
}
