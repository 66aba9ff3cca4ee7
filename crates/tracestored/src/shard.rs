//! Sharded archive storage: the daemon's append path.
//!
//! A [`ShardSet`] is a [`RecordSink`] that splits one logical record
//! stream — here, the server-side merge output — into a directory of
//! ordinary `.tsa` archives ("shards"). Each shard is a complete,
//! self-describing [`tracestore`] archive: footer, chunk index, CRCs.
//! Nothing downstream needs to know it was written by a daemon; the
//! existing `Archive` reader, `tracefmt`, and the pipelined analyzers
//! all work on a shard as-is.
//!
//! Rotation rules, in the order they are checked per record:
//!
//! 1. **Time bucket** — with `bucket_ms > 0`, a record whose
//!    `time / bucket_ms` differs from the open shard's bucket seals the
//!    shard first. Shard boundaries then align to wall-clock buckets,
//!    so a time-range query can skip whole shards by name order.
//! 2. **Time regression** — a record older than the last one written
//!    seals the shard. The chunk codec delta-encodes timestamps and
//!    cannot represent a negative step; a fresh shard restarts the
//!    delta base at zero. (The merge output is nondecreasing, so this
//!    fires only for degenerate single-input sessions that send
//!    unsorted data — but it must never corrupt a file.)
//! 3. **Size** — once a shard's *flushed* bytes reach
//!    `shard_target_bytes`, it seals after the current record. The
//!    check uses flushed bytes, so rotation happens on chunk
//!    granularity: a shard is N whole chunks, never a torn one.
//!
//! **Fsync-on-seal**: sealing flushes the final chunk, writes the
//! footer, and calls `File::sync_all` before the shard is published to
//! queries. Records in the open shard live in the in-memory `tail` and
//! are served from there; on a crash, the open shard's file may be
//! footer-less but every *sealed* shard is durable and verifies clean.
//!
//! **Cost per record**: encoding into the open chunk, a `tail` push,
//! and one increment of `tracestored.shard.records_in`, whose handle
//! the set takes once at [`ShardSet::create`] rather than looking it up
//! in the registry per record. A seal adds one to
//! `tracestored.shard.seals`; no metric is named after a shard, so the
//! registry does not grow with them (each [`SealedShard`] carries its
//! own counts). Compression runs once per chunk on the
//! shard writer's one reused [`tracestore::compress::Compressor`]. In
//! the daemon a `ShardSet` belongs to one shard-writer thread
//! (`server.rs`), so none of this runs under the merge's lock.

use std::fs::{self, File};
use std::io::{self, BufWriter};
use std::path::PathBuf;

use fstrace::{RecordSink, TraceRecord};
use tracestore::{ArchiveOptions, ArchiveWriter};

/// Where and how a [`ShardSet`] writes.
#[derive(Debug, Clone)]
pub struct ShardPolicy {
    /// Directory the shards are written into (created if missing).
    pub dir: PathBuf,
    /// Stem of every shard file name: `{name}-{seq:05}.tsa`.
    pub name: String,
    /// Flushed bytes that seal a shard (rule 3). Chunk-granular.
    pub shard_target_bytes: u64,
    /// Wall-clock bucket width for rule 1; `0` disables bucketing.
    pub bucket_ms: u64,
    /// Chunk rotation size inside each shard.
    pub chunk_target_bytes: usize,
    /// Compress chunk payloads.
    pub compress: bool,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        ShardPolicy {
            dir: PathBuf::from("."),
            name: "served".into(),
            shard_target_bytes: 8 << 20,
            bucket_ms: 0,
            chunk_target_bytes: 64 << 10,
            compress: true,
        }
    }
}

/// One durable shard: sealed, fsynced, immutable.
#[derive(Debug, Clone)]
pub struct SealedShard {
    /// Path of the `.tsa` file.
    pub path: PathBuf,
    /// Records in the shard.
    pub records: u64,
    /// Total file size in bytes.
    pub bytes: u64,
    /// Timestamp of the first record, in ms.
    pub first_ms: u64,
    /// Timestamp of the last record, in ms.
    pub last_ms: u64,
}

struct OpenShard {
    writer: ArchiveWriter<BufWriter<File>>,
    path: PathBuf,
    bucket: u64,
    first_ms: u64,
    last_ms: u64,
}

/// A rotating set of archive shards; the server's [`RecordSink`].
pub struct ShardSet {
    policy: ShardPolicy,
    open: Option<OpenShard>,
    sealed: Vec<SealedShard>,
    seq: u64,
    /// Records of the open (unsealed) shard, for live-tail queries.
    tail: Vec<TraceRecord>,
    /// `tracestored.shard.records_in`, looked up once at `create`.
    records_in: obs::Counter,
}

impl ShardSet {
    /// Creates the set, making `policy.dir` if needed.
    pub fn create(policy: ShardPolicy) -> io::Result<ShardSet> {
        fs::create_dir_all(&policy.dir)?;
        Ok(ShardSet {
            policy,
            open: None,
            sealed: Vec::new(),
            seq: 0,
            tail: Vec::new(),
            records_in: obs::global().counter("tracestored.shard.records_in"),
        })
    }

    fn shard_path(&self, seq: u64) -> PathBuf {
        self.policy
            .dir
            .join(format!("{}-{:05}.tsa", self.policy.name, seq))
    }

    fn open_shard(&mut self, bucket: u64, first_ms: u64) -> io::Result<()> {
        let path = self.shard_path(self.seq);
        let file = File::create(&path)?;
        let writer = ArchiveWriter::new(
            BufWriter::new(file),
            ArchiveOptions {
                chunk_target_bytes: self.policy.chunk_target_bytes,
                compress: self.policy.compress,
                name: format!("{}-{:05}", self.policy.name, self.seq),
            },
        )?;
        self.open = Some(OpenShard {
            writer,
            path,
            bucket,
            first_ms,
            last_ms: first_ms,
        });
        self.seq += 1;
        Ok(())
    }

    /// Seals the open shard, if any: final chunk, footer, `fsync`.
    pub fn seal_open(&mut self) -> io::Result<()> {
        let Some(shard) = self.open.take() else {
            return Ok(());
        };
        let _fsync = obs::global().span("tracestored.shard.seal").start();
        let (buf, summary) = shard.writer.finish()?;
        let file = buf.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        obs::global().counter("tracestored.shard.seals").inc();
        self.sealed.push(SealedShard {
            path: shard.path,
            records: summary.records,
            bytes: summary.bytes,
            first_ms: shard.first_ms,
            last_ms: shard.last_ms,
        });
        self.tail.clear();
        Ok(())
    }

    /// Shards sealed so far.
    pub fn sealed(&self) -> &[SealedShard] {
        &self.sealed
    }

    /// Records written into the still-open shard (the live tail).
    pub fn tail(&self) -> &[TraceRecord] {
        &self.tail
    }

    /// Total records accepted, sealed and tail together.
    pub fn records(&self) -> u64 {
        self.sealed.iter().map(|s| s.records).sum::<u64>() + self.tail.len() as u64
    }

    /// Seals the last shard and returns the full durable set.
    pub fn finish(mut self) -> io::Result<Vec<SealedShard>> {
        self.seal_open()?;
        Ok(self.sealed)
    }
}

impl RecordSink for ShardSet {
    fn write_record(&mut self, rec: &TraceRecord) -> io::Result<()> {
        let ms = rec.time.as_ms();
        // `bucket_ms == 0` disables bucketing: everything in bucket 0.
        let bucket = ms.checked_div(self.policy.bucket_ms).unwrap_or(0);
        if let Some(open) = &self.open {
            // Rules 1 and 2: bucket change or time regression.
            if open.bucket != bucket || ms < open.last_ms {
                self.seal_open()?;
            }
        }
        if self.open.is_none() {
            self.open_shard(bucket, ms)?;
        }
        let open = self.open.as_mut().expect("shard opened above");
        open.writer.write(rec)?;
        open.last_ms = ms;
        self.tail.push(*rec);
        self.records_in.inc();
        // Rule 3: size, on flushed (chunk-granular) bytes.
        if open.writer.bytes_flushed() >= self.policy.shard_target_bytes {
            self.seal_open()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstrace::{FileId, OpenId, TraceEvent, UserId};
    use tracestore::{Archive, Corruption};

    fn rec(ms: u64, open: u64) -> TraceRecord {
        TraceRecord::new(
            ms,
            TraceEvent::Open {
                open_id: OpenId(open),
                file_id: FileId(open),
                user_id: UserId(1),
                mode: fstrace::AccessMode::ReadOnly,
                size: 1024,
                created: false,
            },
        )
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tracestored-shard-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn rotates_on_size_and_rereads_everything() {
        let dir = tmpdir("size");
        let mut set = ShardSet::create(ShardPolicy {
            dir: dir.clone(),
            name: "t".into(),
            shard_target_bytes: 2048,
            chunk_target_bytes: 512,
            compress: false,
            bucket_ms: 0,
        })
        .unwrap();
        let records: Vec<_> = (0..2000).map(|i| rec(i * 10, i)).collect();
        for r in &records {
            set.write_record(r).unwrap();
        }
        let sealed = set.finish().unwrap();
        assert!(
            sealed.len() > 1,
            "expected rotation, got {} shard(s)",
            sealed.len()
        );
        let mut back = Vec::new();
        for shard in &sealed {
            let archive = Archive::open(&shard.path).unwrap();
            assert!(!archive.footer_rebuilt());
            for r in archive.records(Corruption::Fail) {
                back.push(r.unwrap());
            }
        }
        assert_eq!(back, records);
        // Shard metadata matches contents.
        assert_eq!(sealed.iter().map(|s| s.records).sum::<u64>(), 2000);
        assert!(sealed.windows(2).all(|w| w[0].last_ms <= w[1].first_ms));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotates_on_time_bucket() {
        let dir = tmpdir("bucket");
        let mut set = ShardSet::create(ShardPolicy {
            dir: dir.clone(),
            name: "b".into(),
            bucket_ms: 1000,
            ..ShardPolicy::default()
        })
        .unwrap();
        for i in 0..10u64 {
            set.write_record(&rec(i * 500, i)).unwrap(); // Buckets 0,0,1,1,2,...
        }
        let sealed = set.finish().unwrap();
        assert_eq!(sealed.len(), 5);
        assert!(sealed.iter().all(|s| s.records == 2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn time_regression_seals_instead_of_corrupting() {
        let dir = tmpdir("regress");
        let mut set = ShardSet::create(ShardPolicy {
            dir: dir.clone(),
            name: "r".into(),
            ..ShardPolicy::default()
        })
        .unwrap();
        set.write_record(&rec(5000, 0)).unwrap();
        set.write_record(&rec(100, 1)).unwrap(); // Goes backwards.
        set.write_record(&rec(200, 2)).unwrap();
        let sealed = set.finish().unwrap();
        assert_eq!(sealed.len(), 2);
        for shard in &sealed {
            let archive = Archive::open(&shard.path).unwrap();
            let (recs, report) = archive.read_all();
            assert_eq!(report.bad_chunks.len(), 0);
            assert!(!recs.is_empty());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_serves_unsealed_records() {
        let dir = tmpdir("tail");
        let mut set = ShardSet::create(ShardPolicy {
            dir: dir.clone(),
            name: "l".into(),
            ..ShardPolicy::default()
        })
        .unwrap();
        let r = rec(10, 1);
        set.write_record(&r).unwrap();
        assert_eq!(set.tail(), &[r]);
        assert_eq!(set.records(), 1);
        set.seal_open().unwrap();
        assert!(set.tail().is_empty());
        assert_eq!(set.records(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
