//! Ceiling, codec and store probes (traced runs, before the timed
//! section). They run on payloads captured from the workload's own
//! state — optimizer state of trained groups at consecutive steps — so
//! each stage's MB/s sits beside the ceiling it should be read against.

use crate::bench::Bench;
use crate::stats::Samples;
use crate::sut::{self, Storage, SutResult, Trainer};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Least bytes per captured image: large enough that MB/s figures are
/// not timer noise, small enough that a nine-image chain probes quickly.
const IMAGE_BYTES: usize = 2 << 20;
/// Consecutive-step images captured: a delta chain as deep as the cap
/// `everystep_delta` runs with.
const CHAIN: usize = 8;
/// Stream chunk, the engine's `DEFAULT_CHUNK_BYTES`.
const CHUNK: usize = 256 * 1024;

/// Median MB/s of `f` over `bytes`: at least three repetitions and at
/// least 40 ms in total, so short payloads are not timer noise.
fn mb_per_s(bytes: usize, mut f: impl FnMut()) -> f64 {
    let mut secs = Samples::default();
    let started = Instant::now();
    while secs.n() < 3 || started.elapsed() < Duration::from_millis(40) {
        let t0 = Instant::now();
        f();
        secs.push(t0.elapsed().as_secs_f64());
    }
    bytes as f64 / 1e6 / secs.median().max(1e-9)
}

pub fn run(b: &mut Bench, trainer: &mut Trainer, dir: &Path) -> SutResult<()> {
    let book = &mut b.rec.book;
    let mut images = vec![sut::optimizer_image(trainer, IMAGE_BYTES)];
    for _ in 0..CHAIN {
        sut::step(trainer);
        images.push(sut::optimizer_image(trainer, IMAGE_BYTES));
    }
    let image = &images[1];
    let n = image.len();
    if n == 0 {
        return Err("probe image is empty: the trainer has no trained optimizer group".into());
    }

    let mut sink = vec![0u8; n];
    book.set(
        "ceiling.memcpy_mb_s",
        mb_per_s(n, || sink.copy_from_slice(black_box(image))),
    );
    black_box(&sink);

    // Raw backend, not the counting wrapper: this is the ceiling.
    let fs = sut::local_fs();
    let probe_dir = dir.join("probe");
    fs.create_dir_all(&probe_dir)
        .map_err(|e| format!("probe directory: {e}"))?;
    // A fresh file per repetition: rewriting one file in place makes
    // ext4 flush on the truncate and measures that instead.
    let mut file = probe_dir.join("stream-0.bin");
    let mut write_err = None;
    let mut rep = 0;
    let write_mb_s = mb_per_s(n, || {
        rep += 1;
        file = probe_dir.join(format!("stream-{rep}.bin"));
        let r = (|| {
            let mut stream = fs.create_stream(&file)?;
            for piece in image.chunks(CHUNK) {
                stream.write_chunk(piece)?;
            }
            stream.finish()
        })();
        if let Err(e) = r {
            write_err = Some(e);
        }
    });
    if let Some(e) = write_err {
        return Err(format!("ceiling write probe: {e}"));
    }
    book.set("ceiling.fs_write_mb_s", write_mb_s);
    let mut read_err = None;
    let read_mb_s = mb_per_s(n, || match fs.read(&file) {
        Ok(bytes) => {
            black_box(bytes);
        }
        Err(e) => read_err = Some(e),
    });
    if let Some(e) = read_err {
        return Err(format!("ceiling read probe: {e}"));
    }
    book.set("ceiling.fs_read_mb_s", read_mb_s);

    book.set(
        "cas.digest.sha256_mb_s",
        mb_per_s(n, || {
            black_box(sut::sha256(black_box(image)));
        }),
    );

    // What a delta save encodes: XOR against the previous step, byte
    // planes shuffled, LZSS over that.
    let mut xor = image.clone();
    book.set(
        "cas.codec.xor_mb_s",
        mb_per_s(n, || {
            xor.copy_from_slice(image);
            sut::xor_into(&mut xor, black_box(&images[0])).expect("equal-length images");
        }),
    );
    book.set(
        "cas.codec.shuffle4_mb_s",
        mb_per_s(n, || {
            black_box(sut::shuffle4(black_box(&xor)));
        }),
    );
    let shuffled = sut::shuffle4(&xor);
    let mut packed = Vec::new();
    book.set(
        "cas.codec.lzss_enc_mb_s",
        mb_per_s(n, || packed = sut::lzss_compress(black_box(&shuffled))),
    );
    book.set(
        "cas.codec.delta_payload_ratio",
        packed.len() as f64 / n as f64,
    );
    let mut unpacked = Vec::new();
    let mut dec_err = None;
    book.set(
        "cas.codec.lzss_dec_mb_s",
        mb_per_s(n, || match sut::lzss_decompress(black_box(&packed)) {
            Ok(bytes) => unpacked = bytes,
            Err(e) => dec_err = Some(e),
        }),
    );
    if let Some(e) = dec_err {
        return Err(format!("lzss probe: {e}"));
    }
    b.rec.tally.check(unpacked == shuffled, || {
        "lzss probe: payload did not round-trip".into()
    });

    let p = sut::store_probe(&fs, &probe_dir, &images)?;
    let book = &mut b.rec.book;
    book.set("cas.store.put_raw_ms", p.put_raw_ms);
    book.set("cas.store.put_delta_ms", p.put_delta_ms);
    book.set("cas.store.materialize_ms_chain1", p.materialize_chain1_ms);
    book.set(
        "cas.store.materialize_ms_chaincap",
        p.materialize_chaincap_ms,
    );
    book.set("cas.store.compact_ms", p.compact_ms);
    book.set(
        "cas.store.compact_rewritten_bytes",
        p.compact_rewritten_bytes as f64,
    );
    book.set("cas.store.sweep_ms", p.sweep_ms);
    b.rec
        .tally
        .check(p.chain_len == CHAIN as u64 && p.swept_objects > 0, || {
            format!(
                "store probe built a chain of {} and swept {} objects",
                p.chain_len, p.swept_objects
            )
        });

    let mut append_us = Samples::default();
    for _ in 0..16 {
        append_us.push(sut::journal_append_probe(
            &fs,
            &probe_dir.join("events.jsonl"),
        )?);
    }
    b.rec.book.set("obs.journal_append_us", append_us.median());
    crate::bench::remove_tree(&probe_dir);
    Ok(())
}
