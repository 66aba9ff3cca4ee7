//! Query execution over a shard snapshot: sealed archives + live tail.
//!
//! Queries never run under the server's ingest lock. A handler takes a
//! [`DataSnapshot`] — the sealed shard *paths* plus a clone of the
//! open shard's tail — and releases the lock before touching disk.
//! Sealed shards are immutable (fsynced, never rewritten), so reading
//! them lock-free is safe; the tail clone freezes the moving part.
//!
//! The renderers here are the wire format of text replies. The e2e
//! tests assert a served reply equals `render_suite(run_analyzers(..))`
//! of the same records computed locally, so keep them deterministic:
//! fixed field order, fixed float precision, no timestamps.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fsanalysis::{AnalysisStream, AnalysisSuite};
use fstrace::{Timestamp, Trace, TraceRecord, TraceSummary};
use tracestore::{Archive, Corruption};

use crate::protocol::{MAX_ANALYSIS_WINDOWS, MAX_SWEEP_BLOCKS};

/// A consistent view of the served data at one instant.
#[derive(Debug, Clone, Default)]
pub struct DataSnapshot {
    /// Sealed shard files, in stream order.
    pub shards: Vec<PathBuf>,
    /// Records of the still-open shard, in stream order.
    pub tail: Vec<TraceRecord>,
}

fn archive_error(path: &Path, e: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("shard {}: {e}", path.display()),
    )
}

fn invalid_input(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, message)
}

fn open_shard(path: &Path) -> io::Result<Archive> {
    Archive::open(path).map_err(|e| archive_error(path, e))
}

impl DataSnapshot {
    /// Decodes every record — sealed shards via chunk-parallel
    /// pipelined reads, then the tail — into one vector in stream
    /// order.
    pub fn materialize(&self, jobs: usize) -> io::Result<Vec<TraceRecord>> {
        let mut out = Vec::new();
        for path in &self.shards {
            let archive = Arc::new(open_shard(path)?);
            for block in archive.pipelined(Corruption::Fail, jobs) {
                let block = block.map_err(|e| archive_error(path, e))?;
                block.append_to(&mut out);
            }
        }
        out.extend_from_slice(&self.tail);
        Ok(out)
    }

    /// Runs the full Section-5 analyzer suite in one streaming pass:
    /// pipelined block reads over each sealed shard, then the tail.
    /// Bit-identical to `run_analyzers` over [`Self::materialize`].
    ///
    /// # Errors
    ///
    /// Besides read errors, fails without analyzing when the records
    /// span more than [`MAX_ANALYSIS_WINDOWS`] of the shortest window in
    /// `window_secs` — the span is read from each shard's chunk index
    /// before its records are decoded, and from the tail.
    pub fn analyze(&self, window_secs: &[u64], jobs: usize) -> io::Result<AnalysisSuite> {
        let mut span = TimeSpan::default();
        let mut stream = AnalysisStream::new(window_secs);
        for path in &self.shards {
            let archive = Arc::new(open_shard(path)?);
            for chunk in archive.chunks() {
                span.cover(Timestamp::from_ticks(chunk.first_ticks));
                span.cover(Timestamp::from_ticks(chunk.last_ticks));
            }
            span.check(window_secs)?;
            for block in archive.pipelined(Corruption::Fail, jobs) {
                let block = block.map_err(|e| archive_error(path, e))?;
                stream.observe_block(&block);
            }
        }
        if let (Some(first), Some(last)) = (self.tail.first(), self.tail.last()) {
            span.cover(first.time);
            span.cover(last.time);
        }
        span.check(window_secs)?;
        for rec in &self.tail {
            stream.observe(rec);
        }
        Ok(stream.finish())
    }

    /// Computes the Table-III whole-trace summary.
    pub fn summary(&self, jobs: usize) -> io::Result<TraceSummary> {
        let records = self.materialize(jobs)?;
        Ok(TraceSummary::compute(&Trace::from_records(records)))
    }

    /// Records with `from_ms <= time < to_ms`. The footer chunk index
    /// turns this into a seek: shards and chunks whose time ranges
    /// miss the window are never decoded.
    pub fn range(&self, from_ms: u64, to_ms: u64) -> io::Result<Vec<TraceRecord>> {
        let from_ticks = Timestamp::from_ms(from_ms).as_ticks();
        let to_ticks = Timestamp::from_ms(to_ms).as_ticks();
        let mut out = Vec::new();
        for path in &self.shards {
            let archive = open_shard(path)?;
            for rec in archive.records_in_ticks(from_ticks, to_ticks, Corruption::Fail) {
                let rec = rec.map_err(|e| archive_error(path, e))?;
                let ms = rec.time.as_ms();
                if ms >= from_ms && ms < to_ms {
                    out.push(rec);
                }
            }
        }
        out.extend(
            self.tail
                .iter()
                .filter(|r| r.time.as_ms() >= from_ms && r.time.as_ms() < to_ms),
        );
        Ok(out)
    }

    /// Runs a cache-size sweep (LRU, default policy) over the served
    /// trace, one cell per entry of `sizes_kb`.
    ///
    /// # Errors
    ///
    /// Besides read errors, fails without replaying when a size's byte
    /// count overflows `u64`, or when the records would make more than
    /// [`MAX_SWEEP_BLOCKS`] block accesses — counted by one expansion
    /// pass that sums each billed extent's block span.
    pub fn sweep(&self, sizes_kb: &[u64], jobs: usize) -> io::Result<String> {
        let base = cachesim::CacheConfig::default();
        let configs = sizes_kb
            .iter()
            .map(|&kb| {
                let cache_bytes = kb.checked_mul(1024).ok_or_else(|| {
                    invalid_input(format!("sweep: {kb} KiB overflows a 64-bit byte count"))
                })?;
                Ok(cachesim::CacheConfig {
                    cache_bytes,
                    ..base.clone()
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        let records = self.materialize(jobs)?;
        let mut expander = cachesim::EventExpander::new(&base);
        let mut blocks = 0u64;
        for rec in &records {
            expander.feed(rec, &mut |ev| {
                blocks = blocks.saturating_add(ev.block_accesses(base.block_size));
            });
            if blocks > MAX_SWEEP_BLOCKS {
                return Err(invalid_input(format!(
                    "sweep: replaying the records would make more than \
                     {MAX_SWEEP_BLOCKS} block accesses, over the cap"
                )));
            }
        }
        let results = cachesim::sweep::run_source(records.iter(), &configs, jobs);
        let mut out = String::from("cache_kb  miss_ratio  disk_reads  disk_writes\n");
        for (config, metrics) in &results {
            out.push_str(&format!(
                "{:>8}  {:>10.6}  {:>10}  {:>11}\n",
                config.cache_bytes / 1024,
                metrics.miss_ratio(),
                metrics.disk_reads,
                metrics.disk_writes,
            ));
        }
        Ok(out)
    }
}

/// The earliest and latest record times seen so far.
#[derive(Debug, Clone, Copy, Default)]
struct TimeSpan(Option<(Timestamp, Timestamp)>);

impl TimeSpan {
    fn cover(&mut self, t: Timestamp) {
        let (first, last) = self.0.get_or_insert((t, t));
        *first = (*first).min(t);
        *last = (*last).max(t);
    }

    /// Errs when the span covers more than [`MAX_ANALYSIS_WINDOWS`] of
    /// the shortest analysis window.
    fn check(self, window_secs: &[u64]) -> io::Result<()> {
        let (Some((first, last)), Some(&shortest)) = (self.0, window_secs.iter().min()) else {
            return Ok(());
        };
        let window_ms = shortest.saturating_mul(1000).max(1);
        let windows = last.as_ms() / window_ms - first.as_ms() / window_ms + 1;
        if windows > MAX_ANALYSIS_WINDOWS {
            return Err(invalid_input(format!(
                "analyze: records from {first} to {last} span {windows} windows of \
                 {shortest} s, over the cap of {MAX_ANALYSIS_WINDOWS}"
            )));
        }
        Ok(())
    }
}

/// Renders an [`AnalysisSuite`] as the deterministic text the daemon
/// sends over the wire. One figure per line, `{:.6}` floats — equality
/// of two renders is the e2e test's definition of "analyses agree".
pub fn render_suite(suite: &AnalysisSuite) -> String {
    // Several accessors sort lazily and take `&mut self`; work on a
    // clone so rendering never mutates the caller's suite.
    let mut s = suite.clone();
    let mut out = String::new();
    out.push_str("== activity ==\n");
    out.push_str(&format!("total_bytes: {}\n", s.activity.total_bytes));
    out.push_str(&format!("total_users: {}\n", s.activity.total_users));
    out.push_str(&format!("duration_secs: {:.6}\n", s.activity.duration_secs));
    out.push_str(&format!(
        "avg_throughput: {:.6}\n",
        s.activity.avg_throughput
    ));
    out.push_str("== sequentiality ==\n");
    out.push_str(&format!(
        "total_accesses: {}\n",
        s.sequentiality.total_accesses()
    ));
    out.push_str(&format!("total_bytes: {}\n", s.sequentiality.total_bytes()));
    out.push_str(&format!(
        "whole_file_fraction: {:.6}\n",
        s.sequentiality.whole_file_fraction()
    ));
    out.push_str("== run_lengths ==\n");
    out.push_str(&format!("runs: {}\n", s.run_lengths.by_runs.total_weight()));
    for kb in [1u64, 4, 16] {
        out.push_str(&format!(
            "by_runs_le_{}k: {:.6}\n",
            kb,
            s.run_lengths.by_runs.fraction_le(kb * 1024)
        ));
    }
    out.push_str("== sizes ==\n");
    for kb in [1u64, 4, 16, 64] {
        out.push_str(&format!(
            "accesses_le_{}k: {:.6}\n",
            kb,
            s.sizes.fraction_of_accesses_le(kb * 1024)
        ));
    }
    out.push_str("== open_times ==\n");
    out.push_str(&format!(
        "median_ms: {}\n",
        s.open_times
            .median_ms()
            .map_or_else(|| "none".into(), |v| v.to_string())
    ));
    out.push_str(&format!(
        "le_10s: {:.6}\n",
        s.open_times.fraction_le_secs(10.0)
    ));
    out.push_str("== lifetimes ==\n");
    out.push_str(&format!("events: {}\n", s.lifetimes.events.len()));
    out.push_str(&format!("censored: {}\n", s.lifetimes.censored));
    out.push_str(&format!(
        "by_files_le_100s: {:.6}\n",
        s.lifetimes.by_files.fraction_le(100_000)
    ));
    out.push_str("== gaps ==\n");
    out.push_str(&format!("gaps: {}\n", s.gaps.gaps_ms.total_weight()));
    out.push_str(&format!("le_1s: {:.6}\n", s.gaps.fraction_le_secs(1.0)));
    out.push_str("== users ==\n");
    out.push_str(&format!("users: {}\n", s.users.users.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{ShardPolicy, ShardSet};
    use fsanalysis::run_analyzers;
    use fstrace::{AccessMode, FileId, OpenId, RecordSink, TraceEvent, UserId};

    fn synthetic(n: u64) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        for i in 0..n {
            let t = i * 40;
            out.push(TraceRecord::new(
                t,
                TraceEvent::Open {
                    open_id: OpenId(i),
                    file_id: FileId(i % 7),
                    user_id: UserId((i % 3) as u32),
                    mode: AccessMode::ReadOnly,
                    size: 2048 + i * 16,
                    created: i % 5 == 0,
                },
            ));
            out.push(TraceRecord::new(
                t + 20,
                TraceEvent::Close {
                    open_id: OpenId(i),
                    final_pos: 2048 + i * 16,
                },
            ));
        }
        out.sort_by_key(|r| r.time);
        out
    }

    fn snapshot_of(records: &[TraceRecord], split: usize) -> (DataSnapshot, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("tracestored-query-{}-{split}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut set = ShardSet::create(ShardPolicy {
            dir: dir.clone(),
            name: "q".into(),
            ..ShardPolicy::default()
        })
        .unwrap();
        for rec in &records[..split] {
            set.write_record(rec).unwrap();
        }
        set.seal_open().unwrap();
        let shards = set.finish().unwrap();
        (
            DataSnapshot {
                shards: shards.into_iter().map(|s| s.path).collect(),
                tail: records[split..].to_vec(),
            },
            dir,
        )
    }

    #[test]
    fn materialize_analyze_and_range_cover_shards_plus_tail() {
        let records = synthetic(300);
        let (snap, dir) = snapshot_of(&records, 400);
        assert_eq!(snap.materialize(2).unwrap(), records);

        let local = run_analyzers(records.iter(), &[600, 10]);
        let served = snap.analyze(&[600, 10], 2).unwrap();
        assert_eq!(render_suite(&served), render_suite(&local));

        let from = 1000;
        let to = 5000;
        let expect: Vec<_> = records
            .iter()
            .filter(|r| r.time.as_ms() >= from && r.time.as_ms() < to)
            .copied()
            .collect();
        assert_eq!(snap.range(from, to).unwrap(), expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_rejects_a_span_over_the_window_cap() {
        // Two records 10^15 ms apart, one sealed and one in the tail:
        // analyzing them would walk 10^11 ten-second windows.
        let far = 1_000_000_000_000_000;
        let records = vec![
            TraceRecord::new(
                0,
                TraceEvent::Unlink {
                    file_id: FileId(1),
                    user_id: UserId(1),
                },
            ),
            TraceRecord::new(
                far,
                TraceEvent::Unlink {
                    file_id: FileId(2),
                    user_id: UserId(1),
                },
            ),
        ];
        let (snap, dir) = snapshot_of(&records, 1);
        let started = std::time::Instant::now();
        let err = snap.analyze(&[600, 10], 2).unwrap_err();
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("over the cap"), "{err}");
        // The same span in the tail alone, and a span under the cap.
        let tail_only = DataSnapshot {
            shards: Vec::new(),
            tail: records.clone(),
        };
        assert!(tail_only.analyze(&[600, 10], 2).is_err());
        let near = DataSnapshot {
            shards: Vec::new(),
            tail: vec![records[0], TraceRecord::new(3_600_000, records[1].event)],
        };
        assert!(near.analyze(&[600, 10], 2).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_matches_local_compute() {
        let records = synthetic(100);
        let (snap, dir) = snapshot_of(&records, 150);
        let local = TraceSummary::compute(&Trace::from_records(records));
        assert_eq!(snap.summary(2).unwrap().to_string(), local.to_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_is_deterministic_and_does_not_mutate() {
        let records = synthetic(50);
        let suite = run_analyzers(records.iter(), &[600, 10]);
        let a = render_suite(&suite);
        let b = render_suite(&suite);
        assert_eq!(a, b);
        assert!(a.contains("whole_file_fraction"));
    }

    #[test]
    fn sweep_rejects_replays_over_the_block_cap() {
        // An open and a close at 2^62 bytes, one sealed and one in the
        // tail: replaying them would touch 2^50 blocks.
        let records = vec![
            TraceRecord::new(
                0,
                TraceEvent::Open {
                    open_id: OpenId(1),
                    file_id: FileId(1),
                    user_id: UserId(1),
                    mode: AccessMode::ReadOnly,
                    size: 0,
                    created: false,
                },
            ),
            TraceRecord::new(
                10,
                TraceEvent::Close {
                    open_id: OpenId(1),
                    final_pos: 1 << 62,
                },
            ),
        ];
        let (snap, dir) = snapshot_of(&records, 1);
        let started = std::time::Instant::now();
        let err = snap.sweep(&[64, 400], 2).unwrap_err();
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("over the cap"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_rejects_an_overflowing_size() {
        let records = synthetic(20);
        let (snap, dir) = snapshot_of(&records, 20);
        let started = std::time::Instant::now();
        let err = snap.sweep(&[64, 1 << 54], 2).unwrap_err();
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("overflows"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_renders_one_row_per_size() {
        let records = synthetic(80);
        let (snap, dir) = snapshot_of(&records, 100);
        let table = snap.sweep(&[64, 400], 2).unwrap();
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("miss_ratio"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
