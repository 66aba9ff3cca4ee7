//! Streaming record sources, sinks, and the k-way merge.
//!
//! The paper's tracer streamed events off a live kernel for days; this
//! module gives the reproduction the same shape. A [`RecordSource`] is
//! any fallible iterator of [`TraceRecord`]s — an in-memory trace, an
//! incremental [`crate::TraceReader`], or a [`MergeSource`] combining
//! several of either. A [`RecordSink`] is anywhere records go — a
//! `Vec`, a [`TraceWriter`], a [`TextSink`]. Producers that emit
//! records slightly out of order (the workload engine interleaves
//! actors within a scheduling step) pass through a [`ReorderBuffer`],
//! whose occupancy high-water mark is exported as the
//! `fstrace.pipeline.buffered_records_peak` gauge — the observable form
//! of the bounded-memory claim.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::sync::OnceLock;

use crate::codec::{self, DecodeError, TraceWriter};
use crate::event::{TraceEvent, TraceRecord};
use crate::ids::{FileId, OpenId, Timestamp, UserId};
use crate::trace::Trace;

/// A stream of trace records in nondecreasing time order.
///
/// Blanket-implemented for every `Iterator<Item = Result<TraceRecord,
/// DecodeError>>`, so adapters compose with plain iterator combinators;
/// the trait exists to name the contract (time order, fail-stop on the
/// first error) that analyzers and the replay expander rely on.
pub trait RecordSource: Iterator<Item = Result<TraceRecord, DecodeError>> {}

impl<T: Iterator<Item = Result<TraceRecord, DecodeError>> + ?Sized> RecordSource for T {}

/// A destination for a stream of trace records.
///
/// Implemented by `Vec<TraceRecord>` (materialize), [`TraceWriter`]
/// (binary encode), and [`TextSink`] (text encode), so one generator
/// pass can feed any of them without holding the full trace.
pub trait RecordSink {
    /// Accepts one record.
    fn write_record(&mut self, rec: &TraceRecord) -> io::Result<()>;
}

impl RecordSink for Vec<TraceRecord> {
    fn write_record(&mut self, rec: &TraceRecord) -> io::Result<()> {
        self.push(*rec);
        Ok(())
    }
}

impl<W: io::Write> RecordSink for TraceWriter<W> {
    fn write_record(&mut self, rec: &TraceRecord) -> io::Result<()> {
        self.write(rec)
    }
}

impl<S: RecordSink + ?Sized> RecordSink for &mut S {
    fn write_record(&mut self, rec: &TraceRecord) -> io::Result<()> {
        (**self).write_record(rec)
    }
}

/// A [`RecordSink`] emitting the line-oriented text format.
pub struct TextSink<W: io::Write> {
    inner: W,
}

impl<W: io::Write> TextSink<W> {
    /// Wraps a writer.
    pub fn new(inner: W) -> Self {
        TextSink { inner }
    }

    /// Returns the underlying writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: io::Write> RecordSink for TextSink<W> {
    fn write_record(&mut self, rec: &TraceRecord) -> io::Result<()> {
        writeln!(self.inner, "{}", codec::to_text(rec))
    }
}

/// Offsets added to every id of one merge input, so clients never
/// collide in the merged stream (see [`Trace::merge`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdOffsets {
    /// Added to every open id.
    pub open: u64,
    /// Added to every file id.
    pub file: u64,
    /// Added to every user id.
    pub user: u32,
}

/// Returns `rec` with all ids shifted by `off`.
pub fn remap_record(rec: &TraceRecord, off: IdOffsets) -> TraceRecord {
    let event = match rec.event {
        TraceEvent::Open {
            open_id,
            file_id,
            user_id,
            mode,
            size,
            created,
        } => TraceEvent::Open {
            open_id: OpenId(open_id.0 + off.open),
            file_id: FileId(file_id.0 + off.file),
            user_id: UserId(user_id.0 + off.user),
            mode,
            size,
            created,
        },
        TraceEvent::Close { open_id, final_pos } => TraceEvent::Close {
            open_id: OpenId(open_id.0 + off.open),
            final_pos,
        },
        TraceEvent::Seek {
            open_id,
            old_pos,
            new_pos,
        } => TraceEvent::Seek {
            open_id: OpenId(open_id.0 + off.open),
            old_pos,
            new_pos,
        },
        TraceEvent::Unlink { file_id, user_id } => TraceEvent::Unlink {
            file_id: FileId(file_id.0 + off.file),
            user_id: UserId(user_id.0 + off.user),
        },
        TraceEvent::Truncate {
            file_id,
            new_len,
            user_id,
        } => TraceEvent::Truncate {
            file_id: FileId(file_id.0 + off.file),
            new_len,
            user_id: UserId(user_id.0 + off.user),
        },
        TraceEvent::Execve {
            file_id,
            user_id,
            size,
        } => TraceEvent::Execve {
            file_id: FileId(file_id.0 + off.file),
            user_id: UserId(user_id.0 + off.user),
            size,
        },
    };
    TraceRecord {
        time: rec.time,
        event,
    }
}

/// K-way time-ordered merge of several record sources.
///
/// Each input must itself be in nondecreasing time order (every
/// [`RecordSource`] is); the merge then emits the exact sequence a
/// concatenate-remap-stable-sort of the materialized inputs would —
/// records with equal timestamps come out in input order, and within
/// one input in that input's order — while buffering only one record
/// per input. This is what lets the server experiment simulate the sum
/// of N client traces without ever materializing the merged trace.
///
/// On the first error from any input, the merge yields that error and
/// ends; a partially merged stream cannot be resynchronized.
pub struct MergeSource<S> {
    sources: Vec<S>,
    offsets: Vec<IdOffsets>,
    /// Head record of each non-exhausted source, keyed into by `heap`.
    heads: Vec<Option<TraceRecord>>,
    /// Min-heap of (head time, source index); the index tie-break makes
    /// equal-time ordering match stable concatenation order.
    heap: BinaryHeap<Reverse<(Timestamp, usize)>>,
    pending_err: Option<DecodeError>,
    started: bool,
    failed: bool,
}

impl<S> MergeSource<S>
where
    S: Iterator<Item = Result<TraceRecord, DecodeError>>,
{
    /// Combines sources, remapping each one's ids by its offsets.
    pub fn new(sources: Vec<(S, IdOffsets)>) -> Self {
        let (sources, offsets): (Vec<S>, Vec<IdOffsets>) = sources.into_iter().unzip();
        let heads = sources.iter().map(|_| None).collect();
        MergeSource {
            sources,
            offsets,
            heads,
            heap: BinaryHeap::new(),
            pending_err: None,
            started: false,
            failed: false,
        }
    }

    /// Pulls the next record of source `i` into `heads`/`heap`.
    fn advance(&mut self, i: usize) {
        match self.sources[i].next() {
            Some(Ok(rec)) => {
                let rec = remap_record(&rec, self.offsets[i]);
                self.heap.push(Reverse((rec.time, i)));
                self.heads[i] = Some(rec);
            }
            Some(Err(e)) => self.pending_err = Some(e),
            None => {}
        }
    }
}

impl<S> Iterator for MergeSource<S>
where
    S: Iterator<Item = Result<TraceRecord, DecodeError>>,
{
    type Item = Result<TraceRecord, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if !self.started {
            self.started = true;
            for i in 0..self.sources.len() {
                self.advance(i);
            }
        }
        if let Some(e) = self.pending_err.take() {
            self.failed = true;
            return Some(Err(e));
        }
        let Reverse((_, i)) = self.heap.pop()?;
        let rec = self.heads[i].take().expect("heap entry has a head record");
        self.advance(i);
        Some(Ok(rec))
    }
}

/// An infallible in-memory record iterator, for feeding [`MergeSource`].
type TraceRecords<'a> = std::iter::Map<
    std::slice::Iter<'a, TraceRecord>,
    fn(&TraceRecord) -> Result<TraceRecord, DecodeError>,
>;

fn ok_record(rec: &TraceRecord) -> Result<TraceRecord, DecodeError> {
    Ok(*rec)
}

/// Streams the k-way merge of in-memory traces with automatic
/// collision-free id offsets — [`Trace::merge`]'s record sequence
/// without the materialization. The inputs are infallible, so every
/// item is `Ok`.
pub fn merged_records<'a>(traces: &[&'a Trace]) -> MergeSource<TraceRecords<'a>> {
    let mut sources: Vec<(TraceRecords<'a>, IdOffsets)> = Vec::with_capacity(traces.len());
    let mut off = IdOffsets::default();
    for t in traces {
        sources.push((
            t.records().iter().map(ok_record as fn(&TraceRecord) -> _),
            off,
        ));
        let (o, f, u) = t.max_ids();
        off.open += o + 1;
        off.file += f + 1;
        off.user += u + 1;
    }
    MergeSource::new(sources)
}

/// The `fstrace.pipeline.buffered_records_peak` gauge: the most records
/// any [`ReorderBuffer`] in this process has held at once.
fn buffered_records_peak() -> &'static obs::Gauge {
    static CELL: OnceLock<obs::Gauge> = OnceLock::new();
    CELL.get_or_init(|| obs::global().gauge("fstrace.pipeline.buffered_records_peak"))
}

/// A heap entry ordered by (time, arrival sequence) only.
struct Queued {
    rec: TraceRecord,
    seq: u64,
}

impl Queued {
    fn key(&self) -> (Timestamp, u64) {
        (self.rec.time, self.seq)
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Re-sorts a bounded-skew record stream into nondecreasing time order.
///
/// The workload engine emits records in scheduling order: each actor
/// step produces records at or after the step's wake time, but two
/// actors interleave, so the raw emission sequence is only *almost*
/// sorted. Buffering the skew window — and nothing more — reproduces
/// exactly what [`Trace::from_records`]'s stable sort would: records
/// come out ordered by time, ties broken by emission order.
///
/// [`release_before`] drains everything strictly before a watermark the
/// producer promises not to emit under again; [`finish`] drains the
/// rest. Occupancy is recorded into the process-wide
/// `fstrace.pipeline.buffered_records_peak` gauge on every push.
///
/// [`release_before`]: ReorderBuffer::release_before
/// [`finish`]: ReorderBuffer::finish
#[derive(Default)]
pub struct ReorderBuffer {
    heap: BinaryHeap<Reverse<Queued>>,
    next_seq: u64,
    peak: usize,
}

impl ReorderBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        ReorderBuffer::default()
    }

    /// Buffers one record.
    pub fn push(&mut self, rec: TraceRecord) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Queued { rec, seq }));
        if self.heap.len() > self.peak {
            self.peak = self.heap.len();
            buffered_records_peak().record(self.peak as u64);
        }
    }

    /// Writes every buffered record whose (quantized) time is strictly
    /// before `watermark_ms` to `sink`, in time order.
    ///
    /// The caller promises that no record pushed later has a quantized
    /// time below the watermark's quantized time; the comparison is
    /// done in 10 ms ticks, matching the records' own granularity.
    pub fn release_before(
        &mut self,
        watermark_ms: u64,
        sink: &mut dyn RecordSink,
    ) -> io::Result<()> {
        let watermark = Timestamp::from_ms(watermark_ms);
        while let Some(Reverse(q)) = self.heap.peek() {
            if q.rec.time >= watermark {
                break;
            }
            let Reverse(q) = self.heap.pop().expect("peeked entry exists");
            sink.write_record(&q.rec)?;
        }
        Ok(())
    }

    /// Drains every remaining record to `sink` in time order, leaving
    /// the buffer empty but reusable (the arrival-sequence counter and
    /// peak statistic carry over).
    pub fn drain(&mut self, sink: &mut dyn RecordSink) -> io::Result<()> {
        while let Some(Reverse(q)) = self.heap.pop() {
            sink.write_record(&q.rec)?;
        }
        Ok(())
    }

    /// Drains every remaining record to `sink`, in time order.
    pub fn finish(mut self, sink: &mut dyn RecordSink) -> io::Result<()> {
        self.drain(sink)
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Greatest number of records this buffer has held at once.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

/// The `fstrace.fleet.buffered_records_peak` gauge: the most records
/// any [`FleetMerge`] in this process has held at once.
fn fleet_buffered_peak() -> &'static obs::Gauge {
    static CELL: OnceLock<obs::Gauge> = OnceLock::new();
    CELL.get_or_init(|| obs::global().gauge("fstrace.fleet.buffered_records_peak"))
}

/// One input stream of a [`FleetMerge`].
struct FleetInput {
    /// Records pushed but not yet released, in nondecreasing time order
    /// (already remapped by this input's offsets).
    queue: std::collections::VecDeque<TraceRecord>,
    offsets: IdOffsets,
    /// Everything this input will ever emit before `progress` has been
    /// pushed; [`Timestamp`]s below it are final.
    progress: Timestamp,
    finished: bool,
    /// Time of the last pushed record, for the order debug-assert.
    last_time: Timestamp,
    /// `true` while `queue`'s front sits in the release heap.
    in_heap: bool,
}

/// Watermark-gated k-way merge for concurrently produced streams.
///
/// [`MergeSource`] pulls; `FleetMerge` is its push-mode sibling for
/// producers that live on other threads: each simulated machine feeds
/// records (in its own nondecreasing time order) and separately
/// advances a *progress watermark* — a promise that everything it will
/// ever emit before that time has already been pushed. [`release`]
/// then emits every record whose quantized time lies strictly below
/// the **fleet watermark** (the minimum progress over unfinished
/// inputs), ordered by `(time, input index, push order)` — exactly the
/// sequence [`MergeSource`] over the complete per-input streams would
/// produce, and therefore independent of how pushes, progress updates,
/// and releases interleave. That schedule-independence is the fleet
/// determinism contract: a merge fed by N racing threads is
/// byte-identical to the same merge fed serially.
///
/// The slowest input gates the merge, so buffering is bounded by how
/// far ahead producers are allowed to run, not by trace length; the
/// high-water mark feeds the `fstrace.fleet.buffered_records_peak`
/// gauge.
///
/// [`release`]: FleetMerge::release
pub struct FleetMerge {
    inputs: Vec<FleetInput>,
    /// Min-heap of (front-record time, input index) for inputs whose
    /// queue front is eligible; the index tie-break makes equal-time
    /// ordering match stable concatenation order.
    heap: BinaryHeap<Reverse<(Timestamp, usize)>>,
    buffered: usize,
    peak: usize,
    released: u64,
}

impl FleetMerge {
    /// Creates a merge over `offsets.len()` inputs; input `i`'s ids are
    /// shifted by `offsets[i]` so machines never collide.
    pub fn new(offsets: Vec<IdOffsets>) -> Self {
        let inputs = offsets
            .into_iter()
            .map(|offsets| FleetInput {
                queue: std::collections::VecDeque::new(),
                offsets,
                progress: Timestamp::ZERO,
                finished: false,
                last_time: Timestamp::ZERO,
                in_heap: false,
            })
            .collect();
        FleetMerge {
            inputs,
            heap: BinaryHeap::new(),
            buffered: 0,
            peak: 0,
            released: 0,
        }
    }

    /// Number of inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Buffers one record from input `i`.
    ///
    /// Records of one input must arrive in nondecreasing time order
    /// (debug-asserted) — the per-machine [`ReorderBuffer`] guarantees
    /// exactly that.
    ///
    /// # Panics
    ///
    /// Panics if the input is out of range or already finished.
    pub fn push(&mut self, i: usize, rec: &TraceRecord) {
        let input = &mut self.inputs[i];
        assert!(!input.finished, "push to finished fleet input {i}");
        let rec = remap_record(rec, input.offsets);
        debug_assert!(
            rec.time >= input.last_time,
            "fleet input {i} went backwards: {} after {}",
            rec.time,
            input.last_time
        );
        input.last_time = rec.time;
        if input.queue.is_empty() && !input.in_heap {
            input.in_heap = true;
            self.heap.push(Reverse((rec.time, i)));
        }
        input.queue.push_back(rec);
        self.buffered += 1;
        if self.buffered > self.peak {
            self.peak = self.buffered;
            fleet_buffered_peak().record(self.peak as u64);
        }
    }

    /// Advances input `i`'s progress watermark: everything it will ever
    /// emit with a quantized time below `up_to_ms` has been pushed.
    /// Watermarks never move backwards (lower values are ignored).
    pub fn set_progress(&mut self, i: usize, up_to_ms: u64) {
        let t = Timestamp::from_ms(up_to_ms);
        let input = &mut self.inputs[i];
        if t > input.progress {
            input.progress = t;
        }
    }

    /// Marks input `i` complete: no further pushes, and its records no
    /// longer gate the fleet watermark.
    pub fn finish_input(&mut self, i: usize) {
        self.inputs[i].finished = true;
    }

    /// The fleet watermark: the minimum progress over unfinished
    /// inputs, or `None` when every input has finished (nothing gates
    /// the merge any more).
    pub fn watermark(&self) -> Option<Timestamp> {
        self.inputs
            .iter()
            .filter(|input| !input.finished)
            .map(|input| input.progress)
            .min()
    }

    /// Emits every releasable record to `sink` in `(time, input, push
    /// order)` order: records strictly below the fleet watermark, or
    /// everything buffered once all inputs have finished. Returns the
    /// number of records written.
    pub fn release(&mut self, sink: &mut dyn RecordSink) -> io::Result<u64> {
        let gate = self.watermark();
        let mut wrote = 0u64;
        while let Some(&Reverse((time, i))) = self.heap.peek() {
            if gate.is_some_and(|w| time >= w) {
                break;
            }
            self.heap.pop();
            let input = &mut self.inputs[i];
            let rec = input.queue.pop_front().expect("heap entry has a record");
            debug_assert_eq!(rec.time, time);
            input.in_heap = false;
            if let Some(next) = input.queue.front() {
                input.in_heap = true;
                self.heap.push(Reverse((next.time, i)));
            }
            self.buffered -= 1;
            wrote += 1;
            sink.write_record(&rec)?;
        }
        self.released += wrote;
        Ok(wrote)
    }

    /// Releases everything left and consumes the merge.
    ///
    /// # Panics
    ///
    /// Panics if any input has not been [`finish_input`]ed — draining
    /// past a live watermark would break the determinism contract.
    ///
    /// [`finish_input`]: FleetMerge::finish_input
    pub fn finish(mut self, sink: &mut dyn RecordSink) -> io::Result<u64> {
        assert!(
            self.watermark().is_none(),
            "FleetMerge::finish with unfinished inputs"
        );
        self.release(sink)?;
        debug_assert_eq!(self.buffered, 0);
        Ok(self.released)
    }

    /// Records currently buffered across all inputs.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Greatest number of records held at once.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Records released to the sink so far.
    pub fn released(&self) -> u64 {
        self.released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{FillRecords, RecordBlock};
    use crate::event::AccessMode;
    use crate::trace::TraceBuilder;

    fn client(seed: u64, events: u64) -> Trace {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        for i in 0..events {
            let f = b.new_file_id();
            let t = seed + i * 70;
            let o = b.open(t, f, u, AccessMode::ReadOnly, 1000, false);
            b.close(t + 30, o, 1000);
        }
        b.finish()
    }

    /// Splits a trace's encoded form into blocks of `step` records.
    fn blocks_of(trace: &Trace, step: usize) -> Vec<RecordBlock> {
        let mut buf = Vec::new();
        let mut prev = 0u64;
        for r in trace.records() {
            prev = codec::encode_into(&mut buf, r, prev);
        }
        let mut blocks = Vec::new();
        let mut pos = 0;
        let mut ticks = 0u64;
        while pos < buf.len() {
            let mut b = RecordBlock::new();
            ticks = crate::block::decode_block(&buf, &mut pos, ticks, buf.len(), step, &mut b)
                .expect("well-formed");
            blocks.push(b);
        }
        blocks
    }

    #[test]
    fn block_sources_merge_like_record_sources() {
        let a = client(0, 5);
        let b = client(35, 4);
        let sources: Vec<_> = [&a, &b]
            .into_iter()
            .map(|t| {
                (
                    FillRecords::new(blocks_of(t, 3).into_iter()).map(Ok),
                    IdOffsets::default(),
                )
            })
            .collect();
        let streamed: Vec<TraceRecord> = MergeSource::new(sources)
            .map(|r| r.expect("block merge is infallible here"))
            .collect();
        // The oracle: the same merge over plain record iterators.
        let expected: Vec<TraceRecord> = MergeSource::new(
            [&a, &b]
                .into_iter()
                .map(|t| {
                    (
                        t.records().to_vec().into_iter().map(Ok),
                        IdOffsets::default(),
                    )
                })
                .collect(),
        )
        .map(|r| r.expect("record merge is infallible here"))
        .collect();
        assert_eq!(streamed, expected);
    }

    #[test]
    fn merge_matches_materialized_trace_merge() {
        let a = client(0, 5);
        let b = client(35, 4);
        let c = client(10, 3);
        let streamed: Vec<TraceRecord> = merged_records(&[&a, &b, &c])
            .map(|r| r.expect("in-memory merge is infallible"))
            .collect();
        let merged = Trace::merge(&[a, b, c]);
        assert_eq!(streamed, merged.records());
    }

    #[test]
    fn merge_ties_prefer_earlier_source() {
        let a = client(100, 1); // open at 100, close at 130
        let b = client(100, 1);
        let recs: Vec<TraceRecord> = merged_records(&[&a, &b]).map(|r| r.unwrap()).collect();
        // Equal timestamps: source 0's record first, like stable sort.
        assert_eq!(recs[0].time, recs[1].time);
        assert_eq!(recs[0].event.open_id(), Some(OpenId(0)));
        assert!(recs[1].event.open_id().map(|o| o.0) > Some(0));
    }

    #[test]
    fn merge_four_way_ties_match_materialized_merge_byte_for_byte() {
        // Four inputs whose records all land on two 10 ms-quantized
        // ticks: opens at 130–132 ms (all tick 13) and closes at
        // 139/140 ms (ticks 13 and 14), so cross-input timestamp
        // collisions are the norm, not the exception. Tie-breaking must
        // be deterministic — input order first, then each input's own
        // order — and must match what materializing the merge (concat +
        // remap + stable sort) produces, down to the encoded bytes.
        let make = |opens: u64| {
            let mut b = TraceBuilder::new();
            let u = b.new_user_id();
            for i in 0..opens {
                let f = b.new_file_id();
                // Same quantized tick for every input, different raw ms.
                let o = b.open(130 + (i % 3), f, u, AccessMode::ReadOnly, 512, false);
                b.close(139 + (i % 2), o, 512);
            }
            b.finish()
        };
        let traces = [make(3), make(2), make(4), make(1)];
        let refs: Vec<&Trace> = traces.iter().collect();
        let streamed: Vec<TraceRecord> = merged_records(&refs)
            .map(|r| r.expect("in-memory merge is infallible"))
            .collect();
        let materialized = Trace::merge(&traces);
        assert_eq!(streamed, materialized.records());
        // Byte-for-byte: the streamed sequence encodes to exactly the
        // materialized trace's binary form.
        assert_eq!(
            Trace::from_records(streamed).to_binary(),
            materialized.to_binary()
        );
        // And the tie order is the documented one: all records share
        // one of two quantized ticks, so the merge's only freedom is
        // the tie-break.
        let ticks: std::collections::BTreeSet<u64> = materialized
            .records()
            .iter()
            .map(|r| r.time.as_ticks())
            .collect();
        assert_eq!(ticks.len(), 2, "every record sits on a tied tick");
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        assert_eq!(merged_records(&[]).count(), 0);
    }

    #[test]
    fn merge_stops_at_first_source_error() {
        let good = vec![Ok(TraceRecord::new(
            0,
            TraceEvent::Unlink {
                file_id: FileId(0),
                user_id: UserId(0),
            },
        ))];
        let bad: Vec<Result<TraceRecord, DecodeError>> = vec![Err(DecodeError::BadVarint)];
        let mut m = MergeSource::new(vec![
            (good.into_iter(), IdOffsets::default()),
            (bad.into_iter(), IdOffsets::default()),
        ]);
        assert!(m.next().expect("first item").is_err());
        assert!(m.next().is_none());
    }

    #[test]
    fn reorder_buffer_matches_stable_sort() {
        // Emission order: interleaved, slightly out of order, with ties.
        let rec = |t: u64, fid: u64| {
            TraceRecord::new(
                t,
                TraceEvent::Unlink {
                    file_id: FileId(fid),
                    user_id: UserId(0),
                },
            )
        };
        let emitted = vec![
            rec(20, 0),
            rec(10, 1),
            rec(20, 2),
            rec(40, 3),
            rec(30, 4),
            rec(40, 5),
        ];
        let mut buf = ReorderBuffer::new();
        let mut out: Vec<TraceRecord> = Vec::new();
        for (i, r) in emitted.iter().enumerate() {
            buf.push(*r);
            if i == 3 {
                // Producer guarantees nothing below t=30 comes later.
                buf.release_before(30, &mut out).unwrap();
            }
        }
        buf.finish(&mut out).unwrap();
        let expected = Trace::from_records(emitted.clone());
        assert_eq!(out, expected.records());
    }

    #[test]
    fn reorder_buffer_tracks_peak() {
        let mut buf = ReorderBuffer::new();
        for t in [30u64, 20, 10] {
            buf.push(TraceRecord::new(
                t,
                TraceEvent::Unlink {
                    file_id: FileId(0),
                    user_id: UserId(0),
                },
            ));
        }
        assert_eq!(buf.peak(), 3);
        let mut out: Vec<TraceRecord> = Vec::new();
        buf.finish(&mut out).unwrap();
        assert!(out.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(obs::global()
            .snapshot()
            .gauge("fstrace.pipeline.buffered_records_peak")
            .is_some_and(|v| v >= 3));
    }

    /// Feeds two in-memory traces through a [`FleetMerge`] in
    /// `chunk`-sized pushes with progress published after each chunk,
    /// releasing after every update.
    fn fleet_merge_chunked(traces: &[&Trace], chunk: usize) -> Vec<TraceRecord> {
        let offsets = auto_offsets(traces);
        let mut m = FleetMerge::new(offsets);
        let mut out: Vec<TraceRecord> = Vec::new();
        let mut at: Vec<usize> = vec![0; traces.len()];
        loop {
            let mut moved = false;
            for (i, t) in traces.iter().enumerate() {
                let recs = t.records();
                if at[i] >= recs.len() {
                    continue;
                }
                moved = true;
                let end = (at[i] + chunk).min(recs.len());
                for r in &recs[at[i]..end] {
                    m.push(i, r);
                }
                at[i] = end;
                if end == recs.len() {
                    m.set_progress(i, u64::MAX);
                    m.finish_input(i);
                } else {
                    // Everything before the next record's raw time is
                    // pushed; its own tick is still ambiguous.
                    m.set_progress(i, recs[end].time.as_ms());
                }
                m.release(&mut out).unwrap();
            }
            if !moved {
                break;
            }
        }
        m.finish(&mut out).unwrap();
        out
    }

    /// The same collision-free offsets [`merged_records`] would pick.
    fn auto_offsets(traces: &[&Trace]) -> Vec<IdOffsets> {
        let mut offsets = Vec::with_capacity(traces.len());
        let mut off = IdOffsets::default();
        for t in traces {
            offsets.push(off);
            let (o, f, u) = t.max_ids();
            off.open += o + 1;
            off.file += f + 1;
            off.user += u + 1;
        }
        offsets
    }

    #[test]
    fn fleet_merge_matches_pull_merge() {
        let a = client(0, 5);
        let b = client(35, 4);
        let c = client(10, 3);
        let expected: Vec<TraceRecord> = merged_records(&[&a, &b, &c])
            .map(|r| r.expect("in-memory merge is infallible"))
            .collect();
        for chunk in [1, 2, 7, 100] {
            assert_eq!(fleet_merge_chunked(&[&a, &b, &c], chunk), expected);
        }
    }

    #[test]
    fn fleet_merge_ties_break_by_input_then_push_order() {
        // Two byte-identical inputs: every record collides on the same
        // tick, so the output order is pure tie-breaking.
        let a = client(100, 3);
        let b = client(100, 3);
        let expected: Vec<TraceRecord> = merged_records(&[&a, &b])
            .map(|r| r.expect("in-memory merge is infallible"))
            .collect();
        let merged = fleet_merge_chunked(&[&a, &b], 2);
        assert_eq!(merged, expected);
        // Ties resolve input 0 first at every tied tick.
        for w in merged.windows(2) {
            if w[0].time == w[1].time {
                continue;
            }
            assert!(w[0].time < w[1].time);
        }
    }

    #[test]
    fn fleet_merge_watermark_gates_release() {
        let a = client(0, 5); // records at 0,30,70,100,...
        let mut m = FleetMerge::new(vec![IdOffsets::default(), IdOffsets::default()]);
        for r in a.records() {
            m.push(0, r);
        }
        m.set_progress(0, u64::MAX);
        m.finish_input(0);
        // Input 1 is alive with progress 0: nothing may be released.
        let mut out: Vec<TraceRecord> = Vec::new();
        assert_eq!(m.release(&mut out).unwrap(), 0);
        assert!(out.is_empty());
        assert_eq!(m.buffered(), a.len());
        // Progress to 70 ms releases exactly the records below tick 7.
        m.set_progress(1, 70);
        m.release(&mut out).unwrap();
        assert!(out.iter().all(|r| r.time < Timestamp::from_ms(70)));
        assert_eq!(
            out.len(),
            a.records()
                .iter()
                .filter(|r| r.time < Timestamp::from_ms(70))
                .count()
        );
        m.finish_input(1);
        m.finish(&mut out).unwrap();
        assert_eq!(out, a.records());
    }

    #[test]
    fn fleet_merge_tracks_peak_and_gauge() {
        let a = client(0, 4);
        let mut m = FleetMerge::new(vec![IdOffsets::default()]);
        for r in a.records() {
            m.push(0, r);
        }
        assert_eq!(m.peak(), a.len());
        m.set_progress(0, u64::MAX);
        m.finish_input(0);
        let mut out: Vec<TraceRecord> = Vec::new();
        let released = m.finish(&mut out).unwrap();
        assert_eq!(released, a.len() as u64);
        assert!(obs::global()
            .snapshot()
            .gauge("fstrace.fleet.buffered_records_peak")
            .is_some_and(|v| v >= a.len() as u64));
    }

    #[test]
    #[should_panic(expected = "unfinished inputs")]
    fn fleet_merge_finish_requires_finished_inputs() {
        let m = FleetMerge::new(vec![IdOffsets::default()]);
        let mut out: Vec<TraceRecord> = Vec::new();
        m.finish(&mut out).unwrap();
    }

    #[test]
    fn reorder_buffer_drain_keeps_buffer_reusable() {
        let rec = |t: u64, fid: u64| {
            TraceRecord::new(
                t,
                TraceEvent::Unlink {
                    file_id: FileId(fid),
                    user_id: UserId(0),
                },
            )
        };
        let mut buf = ReorderBuffer::new();
        buf.push(rec(30, 0));
        buf.push(rec(10, 1));
        let mut out: Vec<TraceRecord> = Vec::new();
        buf.drain(&mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert!(buf.is_empty());
        // Still usable after draining; peak carries over.
        buf.push(rec(50, 2));
        buf.drain(&mut out).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(buf.peak(), 2);
    }

    #[test]
    fn text_sink_writes_parseable_lines() {
        let t = client(0, 2);
        let mut sink = TextSink::new(Vec::new());
        for r in t.records() {
            sink.write_record(r).unwrap();
        }
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(Trace::from_text(&text).unwrap(), t);
    }
}
