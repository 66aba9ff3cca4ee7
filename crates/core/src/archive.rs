//! Archive-backed trace caching for the experiment drivers.
//!
//! Generating the three workload traces dominates short `repro` runs.
//! With `--archive DIR`, the first run writes each generated trace to
//! a `tracestore` archive under `DIR`, and later runs with the same
//! `--hours`/`--seed` replay the archives instead of regenerating —
//! decoding chunks in parallel, verifying every checksum on the way
//! in. Archive file names carry the generation parameters
//! (`a5-0.25h-s1985.tsa`), so a parameter change misses the cache
//! rather than replaying the wrong trace.
//!
//! A cache hit cannot reconstruct the simulated file system's internal
//! cache counters (those exist only while the workload runs), so the
//! `compare` experiment — the one consumer of that state — always
//! regenerates; `repro` handles that by bypassing the cache when the
//! requested experiments include it.
//!
//! Damaged archives are a cache miss, not an error: an archive that
//! fails verification (rebuilt footer, any bad chunk) is ignored and
//! rewritten from a fresh generation.

use std::fs;
use std::path::{Path, PathBuf};

use fstrace::Trace;
use tracestore::{Archive, ArchiveOptions, ArchiveWriter};

use crate::ReproConfig;

/// The archive file for one trace under one parameter set.
pub fn trace_path(dir: &Path, name: &str, config: &ReproConfig) -> PathBuf {
    dir.join(format!("{}-{}h-s{}.tsa", name, config.hours, config.seed))
}

/// Loads a trace from `path` if it is present and fully intact.
/// Anything less — missing file, rebuilt footer, a single bad chunk —
/// returns `None`: a cached replay must be exactly the trace that was
/// generated, or nothing.
pub fn load_trace(path: &Path, jobs: usize) -> Option<Trace> {
    if !path.exists() {
        return None;
    }
    let archive = match Archive::open(path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("  archive {}: {e}; regenerating", path.display());
            return None;
        }
    };
    if archive.footer_rebuilt() {
        eprintln!("  archive {}: footer damaged; regenerating", path.display());
        return None;
    }
    // Materialize through the overlapped decode pipeline: decode of
    // chunk i+1.. proceeds while chunk i's records append, and the
    // pipeline.* stage spans populate for `repro --metrics`.
    let mut blocks = std::sync::Arc::new(archive).pipelined(tracestore::Corruption::Skip, jobs);
    let mut records = Vec::new();
    for b in (&mut blocks).flatten() {
        b.append_to(&mut records);
    }
    let report = blocks.report().clone();
    if !report.is_clean() {
        eprintln!(
            "  archive {}: {} corrupt chunk(s), {} records lost; regenerating",
            path.display(),
            report.chunks_skipped(),
            report.records_lost()
        );
        return None;
    }
    Some(Trace::from_records(records))
}

/// Writes `trace` to `path` as an archive, atomically (write to a
/// sibling temp file, then rename). A failure only costs the cache —
/// it is reported, not fatal.
pub fn store_trace(path: &Path, name: &str, trace: &Trace) {
    let tmp = path.with_extension("tsa.tmp");
    let result = (|| -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let file = fs::File::create(&tmp)?;
        let mut w = ArchiveWriter::new(
            std::io::BufWriter::new(file),
            ArchiveOptions {
                name: name.to_string(),
                ..ArchiveOptions::default()
            },
        )?;
        for rec in trace.records() {
            w.write(rec)?;
        }
        w.finish()?;
        fs::rename(&tmp, path)
    })();
    if let Err(e) = result {
        let _ = fs::remove_file(&tmp);
        eprintln!("  archive {}: write failed: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstrace::{AccessMode, TraceBuilder};

    fn small_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        for i in 0..200u64 {
            let f = b.new_file_id();
            let o = b.open(i * 40, f, u, AccessMode::ReadOnly, 1024, false);
            b.close(i * 40 + 20, o, 1024);
        }
        b.finish()
    }

    #[test]
    fn store_then_load_roundtrips() {
        let dir = std::env::temp_dir().join("bsdtrace-archive-test-roundtrip");
        let _ = fs::remove_dir_all(&dir);
        let config = ReproConfig {
            hours: 0.25,
            seed: 42,
            ..ReproConfig::default()
        };
        let path = trace_path(&dir, "a5", &config);
        assert_eq!(path.file_name().unwrap(), "a5-0.25h-s42.tsa");

        assert!(load_trace(&path, 2).is_none(), "cold cache misses");
        let trace = small_trace();
        store_trace(&path, "a5", &trace);
        let back = load_trace(&path, 2).expect("warm cache hits");
        assert_eq!(back.records(), trace.records());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_archive_is_a_cache_miss() {
        let dir = std::env::temp_dir().join("bsdtrace-archive-test-damage");
        let _ = fs::remove_dir_all(&dir);
        let config = ReproConfig::default();
        let path = trace_path(&dir, "e3", &config);
        store_trace(&path, "e3", &small_trace());
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        assert!(load_trace(&path, 2).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn forged_record_total_is_a_cache_miss() {
        use tracestore::format::{encode_footer, ArchiveMeta, FOOTER_MAGIC};

        let dir = std::env::temp_dir().join("bsdtrace-archive-test-forged");
        let _ = fs::remove_dir_all(&dir);
        let path = trace_path(&dir, "c4", &ReproConfig::default());
        store_trace(&path, "c4", &small_trace());
        let honest = fs::read(&path).unwrap();
        let archive = Archive::from_bytes(honest.clone()).unwrap();
        let last = archive.chunks().last().expect("one chunk at least");
        let data_end = (last.offset + last.frame_len()) as usize;
        // A CRC-valid footer whose record total disagrees with its own
        // chunk index: sized naively, 2^62 overflows capacity and 2^36
        // exhausts memory.
        for forged in [1u64 << 62, 1 << 36] {
            let meta = ArchiveMeta {
                total_records: forged,
                ..archive.meta().clone()
            };
            let body = encode_footer(&meta, archive.chunks());
            let mut bytes = honest[..data_end].to_vec();
            bytes.extend_from_slice(&body);
            bytes.extend_from_slice(&tracestore::crc32::crc32(&body).to_le_bytes());
            bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&FOOTER_MAGIC);
            fs::write(&path, bytes).unwrap();
            assert!(load_trace(&path, 2).is_none(), "total {forged}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
