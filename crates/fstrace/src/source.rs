//! Streaming record sources, sinks, and the k-way merge.
//!
//! The paper's tracer streamed events off a live kernel for days; this
//! module gives the reproduction the same shape. A record source is any
//! fallible iterator of [`TraceRecord`]s in time order that stops at its
//! first error — an in-memory trace or an incremental
//! [`crate::TraceReader`]. A [`RecordSink`] is anywhere
//! records go — a `Vec`, a [`TraceWriter`], a [`TextSink`]. One k-way
//! merge, [`FleetMerge`], combines time-ordered streams; producers push
//! into it, and [`merged_records`] pulls in-memory traces through it.
//! Producers that emit records slightly out of order (the workload
//! engine interleaves actors within a scheduling step) pass through a
//! [`ReorderBuffer`], whose occupancy high-water mark is exported as
//! the `fstrace.pipeline.buffered_records_peak` gauge — the observable
//! form of the bounded-memory claim.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::sync::OnceLock;

use crate::codec::{self, TraceWriter};
use crate::event::{TraceEvent, TraceRecord};
use crate::ids::Timestamp;
use crate::trace::Trace;

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

impl IdOffsets {
    /// Returns `rec` with all ids shifted by these offsets, or `None`
    /// if a shifted id overflows its type.
    pub fn checked_remap(self, rec: &TraceRecord) -> Option<TraceRecord> {
        let mut out = *rec;
        match &mut out.event {
            TraceEvent::Open {
                open_id,
                file_id,
                user_id,
                ..
            } => {
                open_id.0 = open_id.0.checked_add(self.open)?;
                file_id.0 = file_id.0.checked_add(self.file)?;
                user_id.0 = user_id.0.checked_add(self.user)?;
            }
            TraceEvent::Close { open_id, .. } | TraceEvent::Seek { open_id, .. } => {
                open_id.0 = open_id.0.checked_add(self.open)?;
            }
            TraceEvent::Unlink { file_id, user_id }
            | TraceEvent::Truncate {
                file_id, user_id, ..
            }
            | TraceEvent::Execve {
                file_id, user_id, ..
            } => {
                file_id.0 = file_id.0.checked_add(self.file)?;
                user_id.0 = user_id.0.checked_add(self.user)?;
            }
        }
        Some(out)
    }
}

/// Returns `rec` with all ids shifted by `off`.
///
/// # Panics
///
/// Panics if a shifted id overflows; input from outside the process
/// goes through [`IdOffsets::checked_remap`] instead.
pub fn remap_record(rec: &TraceRecord, off: IdOffsets) -> TraceRecord {
    off.checked_remap(rec).expect("id offset overflows")
}

/// Streams the k-way merge of in-memory traces with automatic
/// collision-free id offsets — [`Trace::merge`]'s record sequence
/// without the materialization.
///
/// A pull driver over [`FleetMerge`]: it always advances the input
/// whose progress is lowest (the one with the earliest unpushed
/// record), pushes that input's records for its next tick, and yields
/// whatever the merge releases. The output is therefore the
/// concatenate-remap-stable-sort sequence — equal timestamps in input
/// order, each input's own order kept — while at most one tick's
/// records per input are buffered. This is what lets the server
/// experiment simulate the sum of N client traces without ever
/// materializing the merged trace.
pub fn merged_records<'a>(traces: &[&'a Trace]) -> MergedRecords<'a> {
    let mut merge = FleetMerge::new(auto_offsets(traces));
    let inputs: Vec<&[TraceRecord]> = traces.iter().map(|t| t.records()).collect();
    for (i, recs) in inputs.iter().enumerate() {
        if recs.is_empty() {
            merge.finish_input(i);
        }
    }
    MergedRecords {
        inputs,
        merge,
        released: Vec::new(),
        next: 0,
    }
}

/// Collision-free offsets for merging `traces`: each input's ids start
/// past every id of the inputs before it.
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

/// The iterator [`merged_records`] returns.
pub struct MergedRecords<'a> {
    /// Each input's records not yet pushed into `merge`.
    inputs: Vec<&'a [TraceRecord]>,
    merge: FleetMerge,
    /// Records the last release emitted; `next` indexes the first not
    /// yet yielded.
    released: Vec<TraceRecord>,
    next: usize,
}

impl Iterator for MergedRecords<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        loop {
            if let Some(&rec) = self.released.get(self.next) {
                self.next += 1;
                return Some(rec);
            }
            self.released.clear();
            self.next = 0;
            // An input's progress is the time of its first unpushed
            // record; ties go to the lowest index.
            let (i, tick) = self
                .inputs
                .iter()
                .enumerate()
                .filter_map(|(i, recs)| recs.first().map(|r| (i, r.time)))
                .min_by_key(|&(_, time)| time)?;
            let recs = self.inputs[i];
            let n = recs.iter().take_while(|r| r.time == tick).count();
            for rec in &recs[..n] {
                self.merge.push(i, rec);
            }
            self.inputs[i] = &recs[n..];
            match self.inputs[i].first() {
                Some(next) => self.merge.set_progress(i, next.time.as_ms()),
                None => self.merge.finish_input(i),
            }
            self.merge
                .release(&mut self.released)
                .expect("writing to a Vec cannot fail");
        }
    }
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

/// Watermark-gated k-way merge of time-ordered streams.
///
/// Producers push: each input (a simulated machine, an ingest
/// connection, or one trace under [`merged_records`]) feeds records in
/// its own nondecreasing time order and separately advances a
/// *progress watermark* — a promise that everything it will ever emit
/// before that time has already been pushed. [`release`] then emits
/// every record whose quantized time lies strictly below the **fleet
/// watermark** (the minimum progress over unfinished inputs), ordered
/// by `(time, input index, push order)` — exactly the sequence a
/// concatenate-remap-stable-sort of the complete per-input streams
/// would produce, and therefore independent of how pushes, progress
/// updates, and releases interleave. That schedule-independence is the
/// fleet determinism contract: a merge fed by N racing threads is
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

    /// Input `i`'s progress watermark, or `None` once it has finished.
    pub fn progress(&self, i: usize) -> Option<Timestamp> {
        let input = &self.inputs[i];
        (!input.finished).then_some(input.progress)
    }

    /// The fleet watermark: the minimum progress over unfinished
    /// inputs, or `None` when every input has finished (nothing gates
    /// the merge any more).
    pub fn watermark(&self) -> Option<Timestamp> {
        (0..self.inputs.len())
            .filter_map(|i| self.progress(i))
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
    use crate::event::AccessMode;
    use crate::ids::{FileId, OpenId, UserId};
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

    /// The independent model of every merge: concatenate the remapped
    /// inputs in order and let `from_records`' stable sort arrange them.
    fn concat_remap_stable_sort(traces: &[&Trace]) -> Vec<TraceRecord> {
        let mut concat = Vec::new();
        for (t, off) in traces.iter().zip(auto_offsets(traces)) {
            concat.extend(t.records().iter().map(|r| remap_record(r, off)));
        }
        Trace::from_records(concat).records().to_vec()
    }

    #[test]
    fn merge_matches_materialized_trace_merge() {
        let a = client(0, 5);
        let b = client(35, 4);
        let c = client(10, 3);
        let streamed: Vec<TraceRecord> = merged_records(&[&a, &b, &c]).collect();
        let merged = Trace::merge(&[a, b, c]);
        assert_eq!(streamed, merged.records());
    }

    #[test]
    fn merge_ties_prefer_earlier_source() {
        let a = client(100, 1); // open at 100, close at 130
        let b = client(100, 1);
        let recs: Vec<TraceRecord> = merged_records(&[&a, &b]).collect();
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
        let streamed: Vec<TraceRecord> = merged_records(&refs).collect();
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
    fn pull_merge_buffers_at_most_one_tick_per_input() {
        // Every record of these clients sits on its own tick.
        let traces = [client(0, 40), client(35, 30), client(10, 20)];
        let refs: Vec<&Trace> = traces.iter().collect();
        let mut merged = merged_records(&refs);
        let mut yielded = 0;
        while merged.next().is_some() {
            yielded += 1;
            assert!(merged.merge.buffered() <= refs.len());
        }
        assert_eq!(yielded, 180);
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

    #[test]
    fn fleet_merge_matches_pull_merge() {
        // Pushed in any chunking, or pulled by `merged_records`, the
        // merge is the concatenate-remap-stable-sort sequence.
        let a = client(0, 5);
        let b = client(35, 4);
        let c = client(10, 3);
        let expected = concat_remap_stable_sort(&[&a, &b, &c]);
        for chunk in [1, 2, 7, 100] {
            assert_eq!(fleet_merge_chunked(&[&a, &b, &c], chunk), expected);
        }
        assert_eq!(merged_records(&[&a, &b, &c]).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn fleet_merge_ties_break_by_input_then_push_order() {
        // Two byte-identical inputs: every record collides on the same
        // tick, so the output order is pure tie-breaking.
        let a = client(100, 3);
        let b = client(100, 3);
        let expected = concat_remap_stable_sort(&[&a, &b]);
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
        assert_eq!(m.progress(0), None);
        // Input 1 is alive with progress 0: nothing may be released.
        assert_eq!(m.progress(1), Some(Timestamp::ZERO));
        let mut out: Vec<TraceRecord> = Vec::new();
        assert_eq!(m.release(&mut out).unwrap(), 0);
        assert!(out.is_empty());
        assert_eq!(m.buffered(), a.len());
        // Progress to 70 ms releases exactly the records below tick 7;
        // a lower promise later does not move it back.
        m.set_progress(1, 70);
        m.set_progress(1, 30);
        assert_eq!(m.progress(1), Some(Timestamp::from_ms(70)));
        assert_eq!(m.watermark(), m.progress(1));
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
    fn checked_remap_rejects_every_overflowing_id() {
        let off = IdOffsets {
            open: 5,
            file: 6,
            user: 7,
        };
        let open = TraceRecord::new(
            10,
            TraceEvent::Open {
                open_id: OpenId(1),
                file_id: FileId(2),
                user_id: UserId(3),
                mode: AccessMode::ReadOnly,
                size: 0,
                created: false,
            },
        );
        let shifted = off.checked_remap(&open).unwrap();
        assert_eq!(shifted, remap_record(&open, off));
        assert_eq!(shifted.event.open_id(), Some(OpenId(6)));
        assert_eq!(shifted.event.file_id(), Some(FileId(8)));
        assert_eq!(shifted.event.user_id(), Some(UserId(10)));
        for over in [
            IdOffsets {
                open: u64::MAX,
                ..off
            },
            IdOffsets {
                file: u64::MAX,
                ..off
            },
            IdOffsets {
                user: u32::MAX,
                ..off
            },
        ] {
            assert_eq!(over.checked_remap(&open), None, "{over:?}");
        }
        let unlink = TraceRecord::new(
            10,
            TraceEvent::Unlink {
                file_id: FileId(1),
                user_id: UserId(1),
            },
        );
        // An unlink carries no open id, so no open offset overflows it.
        let open_only = IdOffsets {
            open: u64::MAX,
            ..IdOffsets::default()
        };
        assert_eq!(open_only.checked_remap(&unlink), Some(unlink));
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
