//! `tracefmt`: inspect, convert, and archive trace files.
//!
//! ```text
//! tracefmt dump     FILE        print any trace as text
//! tracefmt pack     FILE OUT    archive a trace (flat, text, or archive input)
//! tracefmt unpack   FILE OUT    convert any trace to a flat binary trace
//! tracefmt inspect  FILE        print an archive's metadata and chunk table
//! tracefmt inspect  DIR         aggregate table over a shard directory
//! tracefmt inspect  FILE --tags per-kind record histogram by chunk range
//! tracefmt verify   FILE        check every chunk; nonzero exit on damage
//! tracefmt summary  FILE        print Table III-style statistics
//! tracefmt sessions FILE        print reconstructed open-close sessions
//! ```
//!
//! Input format is sniffed by magic: `FSTR` is a flat binary trace,
//! `FSTA` a segmented archive (see the `tracestore` crate docs),
//! anything else is parsed as text. Every command reads each format one
//! way: `dump`, `pack`, and `unpack` stream record by record in bounded
//! memory (plus, for archives, one chunk); `summary` and `sessions`
//! collect the same stream into the whole trace.
//!
//! `pack` options: `--chunk-kib N` (raw chunk target, default 256),
//! `--no-compress`, `--name NAME` (footer trace name, default the
//! input file stem).
//!
//! Corrupt or truncated input is a hard error with a nonzero exit and
//! a diagnostic naming the byte offset and the number of records that
//! decoded cleanly before the damage — so a partial copy is caught by
//! the pipeline that reads it, not discovered as a mysteriously short
//! analysis later. `verify` is the deliberate damage assessment: it
//! checks every chunk and itemizes what a recovering reader would lose.

use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::process::exit;

use fstrace::{codec, RecordSink, TextSink, Trace, TraceReader, TraceRecord, TraceWriter};
use tracestore::{Archive, ArchiveOptions, ArchiveWriter, Corruption};

/// Input kinds, sniffed by magic.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    FlatBinary,
    Archive,
    Text,
}

/// Opens `path` and sniffs its format, read position rewound.
fn open_sniffed(path: &str) -> (BufReader<fs::File>, Format) {
    let f = fs::File::open(path).unwrap_or_else(|e| die(&format!("open {path}: {e}")));
    let mut r = BufReader::new(f);
    let mut magic = [0u8; 4];
    let n = r
        .read(&mut magic)
        .unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    r.seek(SeekFrom::Start(0))
        .unwrap_or_else(|e| die(&format!("seek {path}: {e}")));
    let format = match &magic {
        b"FSTR" if n == 4 => Format::FlatBinary,
        b"FSTA" if n == 4 => Format::Archive,
        _ => Format::Text,
    };
    (r, format)
}

/// Streams every record of `path` (any format) into `sink`, returning
/// the record count. Stops quietly when the sink fails — a closed pipe
/// (`| head`) is a normal way to stop reading.
///
/// With `require_order`, time regressions abort: the delta encodings
/// cannot represent them, and clamping would silently alter the trace.
///
/// Damage aborts with a diagnostic: for flat binary input the decoder
/// reports the byte offset and prior record count; for archives it
/// names the failing chunk and its offset.
fn stream_records(path: &str, sink: &mut dyn RecordSink, require_order: bool) -> u64 {
    let (reader, format) = open_sniffed(path);
    let mut n = 0u64;
    let mut last = fstrace::Timestamp::from_ms(0);
    let mut feed = |rec: TraceRecord| -> bool {
        if require_order && rec.time < last {
            die(&format!(
                "{path}: record {} goes back in time; sort the trace first",
                n + 1
            ));
        }
        last = last.max(rec.time);
        n += 1;
        sink.write_record(&rec).is_ok()
    };
    match format {
        Format::FlatBinary => {
            let records =
                TraceReader::new(reader).unwrap_or_else(|e| die(&format!("decode {path}: {e}")));
            for rec in records {
                let rec = rec.unwrap_or_else(|e| die(&format!("decode {path}: {e}")));
                if !feed(rec) {
                    break;
                }
            }
        }
        Format::Archive => {
            drop(reader);
            let archive = open_archive(path);
            for rec in archive.records(Corruption::Fail) {
                let rec = rec.unwrap_or_else(|e| {
                    die(&format!("decode {path}: {e}; run `tracefmt verify {path}`"))
                });
                if !feed(rec) {
                    break;
                }
            }
        }
        Format::Text => {
            for line in reader.lines() {
                let line = line.unwrap_or_else(|e| die(&format!("read {path}: {e}")));
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let rec =
                    codec::from_text(line).unwrap_or_else(|e| die(&format!("parse {path}: {e}")));
                if !feed(rec) {
                    break;
                }
            }
        }
    }
    n
}

fn open_archive(path: &str) -> Archive {
    Archive::open(Path::new(path)).unwrap_or_else(|e| die(&format!("open {path}: {e}")))
}

/// Loads the whole trace, any format, through [`stream_records`]: the
/// same reader `dump`, `pack` and `unpack` use, so damage aborts with
/// the same diagnostic.
fn load(path: &str) -> Trace {
    let mut records = Vec::new();
    stream_records(path, &mut records, false);
    Trace::from_records(records)
}

/// Parses `pack` flags after the two positional paths.
fn pack_options(file: &str, flags: &[String]) -> ArchiveOptions {
    let mut opts = ArchiveOptions {
        name: Path::new(file)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default(),
        ..ArchiveOptions::default()
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--no-compress" => opts.compress = false,
            "--chunk-kib" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--chunk-kib needs a value"));
                let kib: usize = v
                    .parse()
                    .ok()
                    .filter(|&k| k > 0)
                    .unwrap_or_else(|| die(&format!("bad --chunk-kib value {v:?}")));
                opts.chunk_target_bytes = kib << 10;
            }
            "--name" => {
                opts.name = it
                    .next()
                    .unwrap_or_else(|| die("--name needs a value"))
                    .clone();
            }
            other => die(&format!("unknown pack option {other:?}")),
        }
    }
    opts
}

fn cmd_pack(file: &str, out: &str, flags: &[String]) {
    let opts = pack_options(file, flags);
    let f = fs::File::create(out).unwrap_or_else(|e| die(&format!("create {out}: {e}")));
    let mut sink = ArchiveWriter::new(BufWriter::new(f), opts)
        .unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    let records = stream_records(file, &mut sink, true);
    let (mut w, summary) = sink
        .finish()
        .unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    w.flush()
        .unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    eprintln!(
        "{} records, {} chunks, {} bytes ({:.1} bytes/record, {:.2}x compression)",
        records,
        summary.chunks,
        summary.bytes,
        summary.bytes as f64 / records.max(1) as f64,
        obs::ratio(summary.raw_bytes, summary.stored_bytes)
    );
}

fn cmd_unpack(file: &str, out: &str) {
    let f = fs::File::create(out).unwrap_or_else(|e| die(&format!("create {out}: {e}")));
    let mut sink =
        TraceWriter::new(BufWriter::new(f)).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    let records = stream_records(file, &mut sink, true);
    let bytes = sink.bytes_written();
    sink.into_inner()
        .and_then(|mut w| w.flush())
        .unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    eprintln!(
        "{} records, {} bytes ({:.1} bytes/record)",
        records,
        bytes,
        bytes as f64 / records.max(1) as f64
    );
}

/// `inspect --tags`: per-kind record histogram over chunk ranges.
///
/// Decodes every chunk batched ([`fstrace::block::RecordBlock`], tag
/// column only — no record materialization) and prints one row per
/// range of consecutive chunks (at most `TAG_RANGES` ranges, so big
/// archives stay one screenful), plus totals and an open/close balance
/// note: a healthy trace opens and closes in near-equal numbers, so a
/// truncated copy or a lopsided workload shows up directly here.
fn cmd_inspect_tags(file: &str) {
    const TAG_RANGES: usize = 12;
    let archive = open_archive(file);
    let nchunks = archive.chunks().len();
    println!("archive:  {file}");
    println!("records:  {}", archive.meta().total_records);
    println!("chunks:   {nchunks}");
    if nchunks == 0 {
        return;
    }
    let per_range = nchunks.div_ceil(TAG_RANGES);
    println!(
        "{:>11} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "chunks", "create", "open", "close", "seek", "unlink", "truncate", "execve", "total"
    );
    let mut blocks = archive.blocks(Corruption::Fail);
    let mut totals = [0u64; 7];
    for start in (0..nchunks).step_by(per_range) {
        let end = (start + per_range).min(nchunks);
        let mut counts = [0u64; 7];
        for block in blocks.by_ref().take(end - start) {
            let block = block.unwrap_or_else(|e| die(&format!("decode {file}: {e}")));
            for (c, n) in counts.iter_mut().zip(block.kind_counts()) {
                *c += n;
            }
        }
        for (t, c) in totals.iter_mut().zip(counts) {
            *t += c;
        }
        let mut row = format!("{:>11}", format!("{}..{}", start, end - 1));
        for c in counts {
            row.push_str(&format!(" {c:>8}"));
        }
        row.push_str(&format!(" {:>8}", counts.iter().sum::<u64>()));
        println!("{row}");
    }
    let mut row = format!("{:>11}", "total");
    for t in totals {
        row.push_str(&format!(" {t:>8}"));
    }
    row.push_str(&format!(" {:>8}", totals.iter().sum::<u64>()));
    println!("{row}");
    let opens = totals[0] + totals[1]; // create + open both open a file.
    let closes = totals[2];
    println!(
        "balance:  {opens} opens vs {closes} closes ({} unmatched{})",
        opens.abs_diff(closes),
        if opens.abs_diff(closes) * 100 > opens.max(1) * 5 {
            " — >5% imbalance; truncated trace or long-lived sessions"
        } else {
            ""
        }
    );
}

/// `inspect` on a directory: one row per `*.tsa` shard (as written by
/// `tracestored` or any rotation scheme), plus totals and a cross-shard
/// time-ordering check. Shards are taken in lexicographic name order —
/// the daemon's zero-padded `{name}-{seq:05}.tsa` scheme makes that the
/// stream order.
fn cmd_inspect_dir(dir: &str) {
    let mut paths: Vec<std::path::PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| die(&format!("read {dir}: {e}")))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "tsa"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        die(&format!("{dir}: no .tsa shards"));
    }
    println!("shard dir: {dir} ({} shards)", paths.len());
    println!(
        "{:<24} {:>10} {:>7} {:>12} {:>5} {:>12} {:>12}",
        "shard", "records", "chunks", "bytes", "cmp", "first_ms", "last_ms"
    );
    let (mut records, mut chunks, mut bytes) = (0u64, 0usize, 0u64);
    let (mut raw, mut stored) = (0u64, 0u64);
    let mut rebuilt = 0usize;
    let mut prev: Option<(String, u64)> = None; // (name, last_ms) of prior shard
    let mut disorder = Vec::new();
    for path in &paths {
        let name = path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let archive = open_archive(&path.to_string_lossy());
        let meta = archive.meta();
        let index = archive.chunks();
        let (first_ms, last_ms) = match (index.first(), index.last()) {
            (Some(f), Some(l)) => (
                f.first_ticks * fstrace::TICK_MS,
                l.last_ticks * fstrace::TICK_MS,
            ),
            _ => (0, 0),
        };
        let shard_raw: u64 = index.iter().map(|c| c.raw_len as u64).sum();
        let shard_stored: u64 = index.iter().map(|c| c.stored_len as u64).sum();
        println!(
            "{:<24} {:>10} {:>7} {:>12} {:>5} {:>12} {:>12}{}",
            name,
            meta.total_records,
            index.len(),
            archive.byte_len(),
            format!("{:.2}", obs::ratio(shard_raw, shard_stored)),
            first_ms,
            last_ms,
            if archive.footer_rebuilt() {
                "  FOOTER REBUILT"
            } else {
                ""
            }
        );
        if let Some((prev_name, prev_last)) = &prev {
            if !index.is_empty() && first_ms < *prev_last {
                disorder.push(format!(
                    "{name} starts at {first_ms} ms, before {prev_name} ends at {prev_last} ms"
                ));
            }
        }
        if !index.is_empty() {
            prev = Some((name, last_ms));
        }
        records += meta.total_records;
        chunks += index.len();
        bytes += archive.byte_len();
        raw += shard_raw;
        stored += shard_stored;
        rebuilt += archive.footer_rebuilt() as usize;
    }
    println!(
        "{:<24} {:>10} {:>7} {:>12} {:>5}",
        "total",
        records,
        chunks,
        bytes,
        format!("{:.2}", obs::ratio(raw, stored)),
    );
    if rebuilt > 0 {
        println!("footers:  {rebuilt} shard(s) rebuilt by scan — run `tracefmt verify`");
    }
    if disorder.is_empty() {
        println!("order:    shards nonoverlapping in name order");
    } else {
        for d in &disorder {
            println!("order:    OVERLAP — {d}");
        }
        exit(1);
    }
}

fn cmd_inspect(file: &str) {
    if fs::metadata(file).map(|m| m.is_dir()).unwrap_or(false) {
        return cmd_inspect_dir(file);
    }
    let archive = open_archive(file);
    let meta = archive.meta();
    let chunks = archive.chunks();
    let raw: u64 = chunks.iter().map(|c| c.raw_len as u64).sum();
    let stored: u64 = chunks.iter().map(|c| c.stored_len as u64).sum();
    println!("archive:  {file}");
    println!(
        "footer:   {}",
        if archive.footer_rebuilt() {
            "MISSING/CORRUPT (index rebuilt by scan)"
        } else {
            "ok"
        }
    );
    println!("name:     {}", meta.name);
    println!("records:  {}", meta.total_records);
    println!("chunks:   {}", chunks.len());
    println!("bytes:    {}", archive.byte_len());
    println!(
        "payload:  {} raw, {} stored ({:.2}x compression)",
        raw,
        stored,
        obs::ratio(raw, stored)
    );
    if !archive.footer_rebuilt() {
        println!(
            "max ids:  open {}, file {}, user {}",
            meta.max_open, meta.max_file, meta.max_user
        );
    }
    if let (Some(first), Some(last)) = (chunks.first(), chunks.last()) {
        println!(
            "time:     {} ms .. {} ms",
            first.first_ticks * fstrace::TICK_MS,
            last.last_ticks * fstrace::TICK_MS
        );
    }
    println!(
        "{:>5} {:>10} {:>8} {:>10} {:>10} {:>4} {:>12} {:>12}",
        "chunk", "offset", "records", "raw", "stored", "cmp", "first_ms", "last_ms"
    );
    for (i, c) in chunks.iter().enumerate() {
        println!(
            "{:>5} {:>10} {:>8} {:>10} {:>10} {:>4} {:>12} {:>12}",
            i,
            c.offset,
            c.records,
            c.raw_len,
            c.stored_len,
            if c.compressed { "yes" } else { "no" },
            c.first_ticks * fstrace::TICK_MS,
            c.last_ticks * fstrace::TICK_MS,
        );
    }
}

fn cmd_verify(file: &str) {
    // Verify through the chunk-parallel pipeline: every chunk's CRC,
    // header, and decode are still checked, but across worker threads,
    // in bounded memory (the ring, not the whole decoded archive).
    let archive = std::sync::Arc::new(open_archive(file));
    let started = std::time::Instant::now();
    let mut blocks = std::sync::Arc::clone(&archive).pipelined(
        tracestore::Corruption::Skip,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let mut readable = 0u64;
    for b in (&mut blocks).flatten() {
        readable += b.len() as u64;
    }
    let elapsed = started.elapsed();
    let report = blocks.report().clone();
    if archive.footer_rebuilt() {
        println!(
            "footer: MISSING/CORRUPT — index rebuilt from {} intact chunks",
            archive.chunks().len()
        );
    } else {
        println!("footer: ok ({} chunks indexed)", archive.chunks().len());
    }
    for bad in &report.bad_chunks {
        println!(
            "chunk {} at byte offset {}: CORRUPT ({} records lost)",
            bad.index, bad.offset, bad.records_lost
        );
    }
    println!(
        "verified: {} of {} chunks ok, {} records readable, {} lost",
        archive.chunks().len() as u64 - report.chunks_skipped(),
        archive.chunks().len(),
        readable,
        report.records_lost()
    );
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        println!(
            "throughput: {:.1}M records/s ({} records in {:.1} ms)",
            readable as f64 / secs / 1e6,
            readable,
            secs * 1e3
        );
    }
    if !report.is_clean() {
        exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd, file] if cmd == "dump" => {
            let stdout = std::io::stdout();
            let mut sink = TextSink::new(BufWriter::new(stdout.lock()));
            stream_records(file, &mut sink, false);
            let _ = sink.into_inner().flush();
        }
        [cmd, file, out, flags @ ..] if cmd == "pack" => cmd_pack(file, out, flags),
        [cmd, file, out] if cmd == "unpack" => cmd_unpack(file, out),
        [cmd, file] if cmd == "inspect" => cmd_inspect(file),
        [cmd, file, flag] if cmd == "inspect" && flag == "--tags" => cmd_inspect_tags(file),
        [cmd, file] if cmd == "verify" => cmd_verify(file),
        [cmd, file] if cmd == "summary" => {
            let trace = load(file);
            println!("{}", trace.summary());
        }
        [cmd, file] if cmd == "sessions" => {
            let trace = load(file);
            let sessions = trace.sessions();
            println!(
                "{} sessions ({} unclosed, {} anomalies), {} bytes transferred",
                sessions.len(),
                sessions.unclosed(),
                sessions.anomalies(),
                sessions.total_bytes_transferred()
            );
            let stdout = std::io::stdout();
            let mut w = stdout.lock();
            for s in sessions.complete() {
                // Stop quietly when the pipe closes (e.g. under `head`).
                if writeln!(
                    w,
                    "{} {} {} {:?} open@{} {}ms {}B runs={} whole={} seq={}",
                    s.open_id,
                    s.file_id,
                    s.user_id,
                    s.mode,
                    s.open_time.as_ms(),
                    s.open_duration_ms().unwrap_or(0),
                    s.bytes_transferred(),
                    s.runs.len(),
                    s.is_whole_file_transfer(),
                    s.is_sequential(),
                )
                .is_err()
                {
                    break;
                }
            }
        }
        _ => {
            eprintln!(
                "usage: tracefmt dump FILE | pack FILE OUT [--chunk-kib N] [--no-compress] \
                 [--name NAME] | unpack FILE OUT | inspect FILE|DIR [--tags] | verify FILE \
                 | summary FILE | sessions FILE"
            );
            exit(2);
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("tracefmt: {msg}");
    exit(1);
}
