//! In-memory traces and the convenience builder.

use std::io;

use crate::codec::{self, DecodeError, TraceReader, TraceWriter};
use crate::event::{AccessMode, TraceEvent, TraceRecord};
use crate::ids::{FileId, OpenId, Timestamp, UserId};
use crate::session::SessionSet;
use crate::source;
use crate::summary::TraceSummary;

/// A complete trace: time-ordered records plus derived views.
///
/// # Examples
///
/// ```
/// use fstrace::{AccessMode, TraceBuilder};
///
/// let mut b = TraceBuilder::new();
/// let f = b.new_file_id();
/// let u = b.new_user_id();
/// let o = b.open(0, f, u, AccessMode::WriteOnly, 0, true);
/// b.close(100, o, 2048);
/// b.unlink(5_000, f, u);
/// let trace = b.finish();
/// assert_eq!(trace.len(), 3);
/// assert_eq!(trace.duration_ms(), 5_000);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Wraps records, sorting them into time order (stable, so records
    /// with equal timestamps keep their generation order).
    pub fn from_records(mut records: Vec<TraceRecord>) -> Self {
        records.sort_by_key(|r| r.time);
        Trace { records }
    }

    /// The records in time order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Time of the last record minus time of the first, in milliseconds.
    pub fn duration_ms(&self) -> u64 {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => b.time.since(a.time),
            _ => 0,
        }
    }

    /// Time of the last record.
    pub fn end_time(&self) -> Timestamp {
        self.records
            .last()
            .map(|r| r.time)
            .unwrap_or(Timestamp::ZERO)
    }

    /// Reconstructs per-open sessions (see [`SessionSet`]).
    pub fn sessions(&self) -> SessionSet {
        SessionSet::build(&self.records)
    }

    /// Computes Table III-style summary statistics.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary::compute(self)
    }

    /// Exact size of [`Trace::to_binary`]'s output: the bytes
    /// [`codec::encode_into`] writes, each record encoded into one
    /// reused scratch buffer rather than kept.
    pub fn binary_len(&self) -> usize {
        let mut len = codec::MAGIC.len() + 1;
        let mut scratch = Vec::new();
        let mut prev_ticks = 0u64;
        for r in &self.records {
            scratch.clear();
            prev_ticks = codec::encode_into(&mut scratch, r, prev_ticks);
            len += scratch.len();
        }
        len
    }

    /// Serializes to the compact binary format.
    pub fn to_binary(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = TraceWriter::new(&mut out).expect("vec write cannot fail");
        for r in &self.records {
            w.write(r).expect("vec write cannot fail");
        }
        drop(w);
        out
    }

    /// Deserializes from the binary format.
    pub fn from_binary(bytes: &[u8]) -> Result<Self, DecodeError> {
        Ok(Trace {
            records: TraceReader::new(bytes)?.read_all()?,
        })
    }

    /// Writes the text form, one record per line.
    pub fn write_text<W: io::Write>(&self, mut w: W) -> io::Result<()> {
        for r in &self.records {
            writeln!(w, "{}", codec::to_text(r))?;
        }
        Ok(())
    }

    /// Largest (open id, file id, user id) appearing, for merge offsets.
    pub fn max_ids(&self) -> (u64, u64, u32) {
        let mut o = 0u64;
        let mut fid = 0u64;
        let mut u = 0u32;
        for r in &self.records {
            if let Some(id) = r.event.open_id() {
                o = o.max(id.0);
            }
            if let Some(id) = r.event.file_id() {
                fid = fid.max(id.0);
            }
            if let Some(id) = r.event.user_id() {
                u = u.max(id.0);
            }
        }
        (o, fid, u)
    }

    /// Merges several traces into one time-ordered trace, remapping ids
    /// so that clients never collide — the workload a shared network
    /// file server would see if these machines mounted their files from
    /// it (the scenario Section 6 of the paper opens with).
    ///
    /// A thin wrapper over the streaming k-way
    /// [`merge`](source::merged_records): collecting that iterator
    /// yields exactly the concatenate-remap-stable-sort sequence this
    /// function always produced, so callers that can consume a stream
    /// (the server experiment) skip the materialization entirely.
    pub fn merge(traces: &[Trace]) -> Trace {
        let refs: Vec<&Trace> = traces.iter().collect();
        let records = source::merged_records(&refs).collect();
        Trace { records }
    }

    /// Parses the text form produced by [`Trace::write_text`].
    pub fn from_text(text: &str) -> Result<Self, DecodeError> {
        let mut records = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            records.push(codec::from_text(line)?);
        }
        Ok(Trace::from_records(records))
    }
}

/// Builds traces by hand: assigns ids and appends records.
///
/// Intended for tests and synthetic examples. The file system tracer in
/// the `bsdfs` crate produces records directly from syscall activity; the
/// builder is the manual equivalent.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    records: Vec<TraceRecord>,
    next_open: u64,
    next_file: u64,
    next_user: u32,
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh file id.
    pub fn new_file_id(&mut self) -> FileId {
        let id = FileId(self.next_file);
        self.next_file += 1;
        id
    }

    /// Allocates a fresh user id.
    pub fn new_user_id(&mut self) -> UserId {
        let id = UserId(self.next_user);
        self.next_user += 1;
        id
    }

    /// Appends an `open`/`create` record and returns its open id.
    pub fn open(
        &mut self,
        time_ms: u64,
        file_id: FileId,
        user_id: UserId,
        mode: AccessMode,
        size: u64,
        created: bool,
    ) -> OpenId {
        let open_id = OpenId(self.next_open);
        self.next_open += 1;
        self.records.push(TraceRecord::new(
            time_ms,
            TraceEvent::Open {
                open_id,
                file_id,
                user_id,
                mode,
                size,
                created,
            },
        ));
        open_id
    }

    /// Appends a `close` record.
    pub fn close(&mut self, time_ms: u64, open_id: OpenId, final_pos: u64) {
        self.records.push(TraceRecord::new(
            time_ms,
            TraceEvent::Close { open_id, final_pos },
        ));
    }

    /// Appends a `seek` record.
    pub fn seek(&mut self, time_ms: u64, open_id: OpenId, old_pos: u64, new_pos: u64) {
        self.records.push(TraceRecord::new(
            time_ms,
            TraceEvent::Seek {
                open_id,
                old_pos,
                new_pos,
            },
        ));
    }

    /// Appends an `unlink` record.
    pub fn unlink(&mut self, time_ms: u64, file_id: FileId, user_id: UserId) {
        self.records.push(TraceRecord::new(
            time_ms,
            TraceEvent::Unlink { file_id, user_id },
        ));
    }

    /// Appends a `truncate` record.
    pub fn truncate(&mut self, time_ms: u64, file_id: FileId, new_len: u64, user_id: UserId) {
        self.records.push(TraceRecord::new(
            time_ms,
            TraceEvent::Truncate {
                file_id,
                new_len,
                user_id,
            },
        ));
    }

    /// Appends an `execve` record.
    pub fn execve(&mut self, time_ms: u64, file_id: FileId, user_id: UserId, size: u64) {
        self.records.push(TraceRecord::new(
            time_ms,
            TraceEvent::Execve {
                file_id,
                user_id,
                size,
            },
        ));
    }

    /// Appends a pre-built record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// Finishes the trace, sorting records into time order.
    pub fn finish(self) -> Trace {
        Trace::from_records(self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let f = b.new_file_id();
        let u = b.new_user_id();
        let o = b.open(0, f, u, AccessMode::ReadOnly, 1024, false);
        b.close(500, o, 1024);
        let g = b.new_file_id();
        let o2 = b.open(1_000, g, u, AccessMode::WriteOnly, 0, true);
        b.seek(1_100, o2, 100, 200);
        b.close(1_200, o2, 300);
        b.truncate(2_000, g, 0, u);
        b.unlink(3_000, g, u);
        b.execve(4_000, f, u, 1024);
        b.finish()
    }

    #[test]
    fn builder_assigns_unique_ids() {
        let mut b = TraceBuilder::new();
        assert_ne!(b.new_file_id(), b.new_file_id());
        assert_ne!(b.new_user_id(), b.new_user_id());
        let f = b.new_file_id();
        let u = b.new_user_id();
        let o1 = b.open(0, f, u, AccessMode::ReadOnly, 0, false);
        let o2 = b.open(0, f, u, AccessMode::ReadOnly, 0, false);
        assert_ne!(o1, o2);
    }

    #[test]
    fn from_records_sorts_by_time() {
        let mut b = TraceBuilder::new();
        let f = b.new_file_id();
        let u = b.new_user_id();
        b.unlink(5_000, f, u);
        b.unlink(1_000, f, u);
        let t = b.finish();
        assert!(t.records()[0].time <= t.records()[1].time);
        assert_eq!(t.duration_ms(), 4_000);
    }

    #[test]
    fn binary_roundtrip_preserves_trace() {
        let t = small_trace();
        let bytes = t.to_binary();
        let back = Trace::from_binary(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn to_binary_is_exactly_sized() {
        // Regression: the capacity used to be guessed as len()*8+8,
        // which both over-allocated tiny traces and forced reallocation
        // on traces with wide records. binary_len() must be exact.
        for t in [Trace::default(), small_trace()] {
            let bytes = t.to_binary();
            assert_eq!(bytes.len(), t.binary_len());
        }
        assert_eq!(Trace::default().binary_len(), 5); // Header only.
    }

    #[test]
    fn zero_and_one_record_traces_roundtrip() {
        let empty = Trace::default();
        assert_eq!(Trace::from_binary(&empty.to_binary()).unwrap(), empty);

        let mut b = TraceBuilder::new();
        let f = b.new_file_id();
        let u = b.new_user_id();
        b.execve(123_456, f, u, u64::MAX);
        let one = b.finish();
        let bytes = one.to_binary();
        assert_eq!(bytes.len(), one.binary_len());
        assert_eq!(Trace::from_binary(&bytes).unwrap(), one);
    }

    #[test]
    fn text_roundtrip_preserves_trace() {
        let t = small_trace();
        let mut buf = Vec::new();
        t.write_text(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let back = Trace::from_text(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn text_skips_comments_and_blanks() {
        let t = Trace::from_text("# comment\n\n0 unlink 1 2\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn merge_remaps_ids_without_collisions() {
        let make = |seed: u64| {
            let mut b = TraceBuilder::new();
            let u = b.new_user_id();
            let f = b.new_file_id();
            let o = b.open(seed, f, u, AccessMode::ReadOnly, 100, false);
            b.close(seed + 100, o, 100);
            b.finish()
        };
        let a = make(0);
        let b = make(50);
        let merged = Trace::merge(&[a.clone(), b.clone()]);
        assert_eq!(merged.len(), a.len() + b.len());
        let sessions = merged.sessions();
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions.anomalies(), 0);
        // Ids are distinct across the two sources.
        let mut opens: Vec<u64> = merged
            .records()
            .iter()
            .filter_map(|r| r.event.open_id())
            .map(|o| o.0)
            .collect();
        opens.sort_unstable();
        opens.dedup();
        assert_eq!(opens.len(), 2);
        // Bytes are conserved.
        assert_eq!(
            sessions.total_bytes_transferred(),
            a.sessions().total_bytes_transferred() + b.sessions().total_bytes_transferred()
        );
    }

    #[test]
    fn empty_trace_properties() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.duration_ms(), 0);
        assert_eq!(t.end_time(), Timestamp::ZERO);
        let bytes = t.to_binary();
        assert_eq!(Trace::from_binary(&bytes).unwrap(), t);
    }
}
