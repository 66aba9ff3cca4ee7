//! Property-based tests for the trace format.

use proptest::prelude::*;

use fstrace::block::{decode_block, get_varint_fast, RecordBlock};
use fstrace::codec::{decode_from, from_text, get_varint, to_text, DecodeError};
use fstrace::source::remap_record;
use fstrace::{
    merged_records, AccessMode, FileId, IdOffsets, OpenId, ReorderBuffer, Timestamp, Trace,
    TraceEvent, TraceReader, TraceRecord, UserId,
};

/// Whole-buffer scalar decode: the oracle both batched paths must match
/// record for record and error for error.
fn scalar_decode(buf: &[u8]) -> (Vec<TraceRecord>, Option<DecodeError>) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut prev = 0u64;
    while pos < buf.len() {
        match decode_from(buf, &mut pos, prev) {
            Ok((r, t)) => {
                out.push(r);
                prev = t;
            }
            Err(e) => return (out, Some(e)),
        }
    }
    (out, None)
}

/// Batched decode of the same buffer, in deliberately small batches so
/// the cross-batch tick chaining is exercised.
fn batched_decode(buf: &[u8]) -> (Vec<TraceRecord>, Option<DecodeError>) {
    let mut block = RecordBlock::new();
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut prev = 0u64;
    while pos < buf.len() {
        match decode_block(buf, &mut pos, prev, buf.len(), 7, &mut block) {
            Ok(t) => {
                prev = t;
                block.append_to(&mut out);
                if block.is_empty() {
                    break;
                }
            }
            Err(e) => {
                block.append_to(&mut out);
                return (out, Some(e));
            }
        }
    }
    (out, None)
}

fn assert_same_outcome(
    scalar: (Vec<TraceRecord>, Option<DecodeError>),
    batched: (Vec<TraceRecord>, Option<DecodeError>),
) {
    assert_eq!(scalar.0, batched.0);
    assert_eq!(format!("{:?}", scalar.1), format!("{:?}", batched.1));
}

fn arb_mode() -> impl Strategy<Value = AccessMode> {
    prop_oneof![
        Just(AccessMode::ReadOnly),
        Just(AccessMode::WriteOnly),
        Just(AccessMode::ReadWrite),
    ]
}

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (
            0u64..1000,
            0u64..1000,
            0u32..64,
            arb_mode(),
            0u64..10_000_000,
            any::<bool>()
        )
            .prop_map(|(o, f, u, mode, size, created)| TraceEvent::Open {
                open_id: OpenId(o),
                file_id: FileId(f),
                user_id: UserId(u),
                mode,
                size,
                created,
            }),
        (0u64..1000, 0u64..10_000_000).prop_map(|(o, p)| TraceEvent::Close {
            open_id: OpenId(o),
            final_pos: p,
        }),
        (0u64..1000, 0u64..10_000_000, 0u64..10_000_000).prop_map(|(o, a, b)| {
            TraceEvent::Seek {
                open_id: OpenId(o),
                old_pos: a,
                new_pos: b,
            }
        }),
        (0u64..1000, 0u32..64).prop_map(|(f, u)| TraceEvent::Unlink {
            file_id: FileId(f),
            user_id: UserId(u),
        }),
        (0u64..1000, 0u64..10_000_000, 0u32..64).prop_map(|(f, l, u)| TraceEvent::Truncate {
            file_id: FileId(f),
            new_len: l,
            user_id: UserId(u),
        }),
        (0u64..1000, 0u32..64, 0u64..10_000_000).prop_map(|(f, u, s)| TraceEvent::Execve {
            file_id: FileId(f),
            user_id: UserId(u),
            size: s,
        }),
    ]
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u64..1_000_000u64, arb_event()), 0..200).prop_map(|pairs| {
        Trace::from_records(
            pairs
                .into_iter()
                .map(|(t, e)| TraceRecord::new(t, e))
                .collect(),
        )
    })
}

/// Like [`arb_trace`] but over a handful of 10 ms ticks, so traces
/// collide on timestamps constantly — the interesting regime for merge
/// tie-breaking.
fn arb_tied_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u64..300u64, arb_event()), 0..60).prop_map(|pairs| {
        Trace::from_records(
            pairs
                .into_iter()
                .map(|(t, e)| TraceRecord::new(t, e))
                .collect(),
        )
    })
}

/// A reader returning at most `chunk` bytes per call, exercising the
/// incremental decoder's refill path at every possible split point.
struct TrickleReader<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl std::io::Read for TrickleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

proptest! {
    /// Binary encode/decode is the identity on any trace.
    #[test]
    fn binary_roundtrip(trace in arb_trace()) {
        let bytes = trace.to_binary();
        let back = Trace::from_binary(&bytes).unwrap();
        prop_assert_eq!(back, trace);
    }

    /// Text encode/decode is the identity on any record.
    #[test]
    fn text_roundtrip(t in 0u64..1_000_000u64, e in arb_event()) {
        let rec = TraceRecord::new(t, e);
        let back = from_text(&to_text(&rec)).unwrap();
        prop_assert_eq!(back, rec);
    }

    /// Timestamps quantize down and never up.
    #[test]
    fn timestamp_quantization(ms in 0u64..u64::MAX / 2) {
        let t = Timestamp::from_ms(ms);
        prop_assert!(t.as_ms() <= ms);
        prop_assert!(ms - t.as_ms() < 10);
        prop_assert_eq!(t.as_ms() % 10, 0);
    }

    /// Session reconstruction conserves transferred bytes: the sum over
    /// runs equals the positional deltas implied by the raw events.
    #[test]
    fn sessions_conserve_bytes(
        moves in prop::collection::vec((0u64..5000u64, 0u64..5000u64), 0..10),
        final_extra in 0u64..5000u64,
    ) {
        // Build one well-formed session: seeks with old_pos = current pos
        // + an advance, so every event is consistent.
        let mut b = fstrace::TraceBuilder::new();
        let f = b.new_file_id();
        let u = b.new_user_id();
        let o = b.open(0, f, u, AccessMode::ReadWrite, 10_000, false);
        let mut pos = 0u64;
        let mut expected = 0u64;
        let mut time = 10u64;
        for (advance, target) in moves {
            let old = pos + advance;
            expected += advance;
            b.seek(time, o, old, target);
            pos = target;
            time += 10;
        }
        b.close(time, o, pos + final_extra);
        expected += final_extra;
        let trace = b.finish();
        let sessions = trace.sessions();
        prop_assert_eq!(sessions.anomalies(), 0);
        prop_assert_eq!(sessions.total_bytes_transferred(), expected);
    }

    /// Summary event counts always sum to the record count.
    #[test]
    fn summary_counts_sum(trace in arb_trace()) {
        let s = trace.summary();
        let total: u64 = s.event_counts.iter().sum();
        prop_assert_eq!(total, s.records);
        prop_assert_eq!(s.records, trace.len() as u64);
    }

    /// Every proper prefix of a valid binary trace decodes to a clean
    /// error or a shorter record list — never a panic, never phantom
    /// records beyond what the prefix holds.
    #[test]
    fn truncated_binary_never_panics(trace in arb_trace(), cut in 0usize..4096) {
        let bytes = trace.to_binary();
        let cut = cut % bytes.len().max(1); // Proper prefix of any length.
        match Trace::from_binary(&bytes[..cut]) {
            Ok(t) => prop_assert!(t.len() <= trace.len()),
            Err(e) => {
                // The error formats without panicking, too.
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    /// Records with timestamps at and around the 10 ms quantization
    /// boundary survive a binary round trip: encoding uses quantized
    /// tick deltas, so two records in the same tick must not drift.
    #[test]
    fn quantization_edge_roundtrip(
        base in 0u64..1_000_000u64,
        offsets in prop::collection::vec(0u64..30, 1..20),
        e in arb_event(),
    ) {
        // Timestamps cluster within a few ticks of `base`, hitting the
        // x9/x0 boundaries where quantized deltas could misaccumulate.
        let mut ms: Vec<u64> = offsets.iter().map(|&o| base + o).collect();
        ms.sort_unstable();
        let records: Vec<TraceRecord> = ms
            .iter()
            .map(|&t| TraceRecord::new(t, e))
            .collect();
        let trace = Trace::from_records(records.clone());
        let back = Trace::from_binary(&trace.to_binary()).unwrap();
        prop_assert_eq!(back.len(), records.len());
        for (got, want) in back.records().iter().zip(&records) {
            // The codec stores quantized ticks: each decoded time must
            // equal the quantized original exactly (no cumulative
            // drift), and quantization only rounds down, within 10 ms.
            prop_assert_eq!(got.time, want.time);
            prop_assert_eq!(got.time.as_ms(), want.time.as_ms() / 10 * 10);
        }
    }

    /// The streaming k-way merge emits exactly what concatenate, remap,
    /// stable-sort of the materialized inputs would — equal timestamps
    /// resolve to input order, and each input's internal order is kept.
    /// The tied time range makes cross-input collisions the common case.
    #[test]
    fn merge_matches_concat_remap_stable_sort(
        traces in prop::collection::vec(arb_tied_trace(), 0..4),
    ) {
        let refs: Vec<&Trace> = traces.iter().collect();
        let streamed: Vec<TraceRecord> = merged_records(&refs).collect();
        // Independent model: concatenate the remapped inputs in order
        // and let from_records' stable sort arrange them.
        let mut off = IdOffsets::default();
        let mut concat: Vec<TraceRecord> = Vec::new();
        for t in &traces {
            concat.extend(t.records().iter().map(|r| remap_record(r, off)));
            let (o, f, u) = t.max_ids();
            off.open += o + 1;
            off.file += f + 1;
            off.user += u + 1;
        }
        let model = Trace::from_records(concat);
        prop_assert_eq!(&streamed[..], model.records());
    }

    /// The reorder buffer's watermark protocol reproduces the stable
    /// sort for any emission sequence that honors the promise: records
    /// pushed after `release_before(w)` never land below `w`.
    #[test]
    fn reorder_buffer_equals_stable_sort(
        early in prop::collection::vec((0u64..1000u64, arb_event()), 0..50),
        late in prop::collection::vec((0u64..1000u64, arb_event()), 0..50),
        watermark in 0u64..1000,
    ) {
        let early: Vec<TraceRecord> = early
            .into_iter()
            .map(|(t, e)| TraceRecord::new(t, e))
            .collect();
        let late: Vec<TraceRecord> = late
            .into_iter()
            .map(|(t, e)| TraceRecord::new(watermark + t, e))
            .collect();
        let mut buf = ReorderBuffer::new();
        let mut out: Vec<TraceRecord> = Vec::new();
        for r in &early {
            buf.push(*r);
        }
        buf.release_before(watermark, &mut out).unwrap();
        // Early releases stay strictly below the quantized watermark.
        let w = Timestamp::from_ms(watermark);
        prop_assert!(out.iter().all(|r| r.time < w));
        for r in &late {
            buf.push(*r);
        }
        buf.finish(&mut out).unwrap();
        let mut all = early;
        all.extend(late.iter().copied());
        let expected = Trace::from_records(all);
        prop_assert_eq!(&out[..], expected.records());
    }

    /// Incremental decoding through an adversarially tiny reader (down
    /// to one byte per read) yields the same records as whole-buffer
    /// decoding, for any chunk size.
    #[test]
    fn chunked_reader_matches_from_binary(trace in arb_trace(), chunk in 1usize..17) {
        let bytes = trace.to_binary();
        let reader = TrickleReader { data: &bytes, pos: 0, chunk };
        let records: Vec<TraceRecord> = TraceReader::new(reader)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        prop_assert_eq!(&records[..], trace.records());
    }

    /// `binary_len` predicts the encoded size exactly for any trace, so
    /// `to_binary` never reallocates.
    #[test]
    fn binary_len_is_exact(trace in arb_trace()) {
        prop_assert_eq!(trace.to_binary().len(), trace.binary_len());
    }

    /// Adversarial byte strings: the scalar and unrolled varint readers
    /// agree on every input — same value and position on success, same
    /// error otherwise. The biased second half raises the density of
    /// continuation bytes, the regime where overflow handling lives.
    #[test]
    fn varint_readers_agree_on_adversarial_bytes(
        bytes in prop::collection::vec(
            prop_oneof![any::<u8>(), 0x80u8..=0xFFu8],
            0..24,
        ),
    ) {
        let mut p1 = 0usize;
        let mut p2 = 0usize;
        let r1 = get_varint(&bytes, &mut p1);
        let r2 = get_varint_fast(&bytes, &mut p2);
        match (&r1, &r2) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a, b);
                prop_assert_eq!(p1, p2);
            }
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
            _ => prop_assert!(false, "readers disagree: {:?} vs {:?}", r1, r2),
        }
    }

    /// Varints can never decode to a value that re-encodes wider than
    /// it was read — the overflow fix means silent wrapping is gone.
    #[test]
    fn varint_never_wraps_silently(v in any::<u64>(), junk in 0u8..4) {
        // A valid encoding plus `junk` spurious continuation bytes must
        // either decode to exactly `v` (junk untouched) or error.
        let mut buf = Vec::new();
        fstrace::codec::put_varint(&mut buf, v);
        for _ in 0..junk {
            let last = buf.len() - 1;
            buf[last] |= 0x80;
            buf.push(0x01);
        }
        for reader in [get_varint, get_varint_fast as fn(&[u8], &mut usize) -> _] {
            let mut pos = 0usize;
            match reader(&buf, &mut pos) {
                Ok(got) if junk == 0 => prop_assert_eq!(got, v),
                Ok(got) => {
                    // Extending the encoding may still be in range; the
                    // decoded value must then be bit-exact, never wrapped.
                    let mut re = Vec::new();
                    fstrace::codec::put_varint(&mut re, got);
                    prop_assert!(re.len() <= buf.len());
                }
                Err(_) => {}
            }
        }
    }

    /// Batched ≡ scalar on pure adversarial byte soup.
    #[test]
    fn decoders_agree_on_adversarial_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        assert_same_outcome(scalar_decode(&bytes), batched_decode(&bytes));
    }

    /// Batched ≡ scalar on corrupted real traces: a valid record stream
    /// with one byte flipped and random trailing garbage. This walks
    /// the deep error paths (bad tags, bad modes, out-of-range users,
    /// truncations mid-payload) that byte soup rarely reaches.
    #[test]
    fn decoders_agree_on_corrupted_traces(
        trace in arb_trace(),
        tail in prop::collection::vec(any::<u8>(), 0..40),
        flip in 0usize..4096,
        xor in any::<u8>(),
    ) {
        let mut bytes = trace.to_binary()[5..].to_vec();
        bytes.extend(tail);
        if !bytes.is_empty() {
            let i = flip % bytes.len();
            bytes[i] ^= xor;
        }
        assert_same_outcome(scalar_decode(&bytes), batched_decode(&bytes));
    }

    /// Batched ≡ scalar on every valid trace (the bit-identity claim on
    /// the success path, including timestamps resolved across batches).
    #[test]
    fn decoders_agree_on_valid_traces(trace in arb_trace()) {
        let bytes = trace.to_binary();
        let (recs, err) = batched_decode(&bytes[5..]);
        prop_assert!(err.is_none());
        prop_assert_eq!(&recs[..], trace.records());
    }
}

/// The batched `TraceReader` reports truncation exactly like the scalar
/// whole-buffer oracle at *every* possible prefix of a stream — same
/// surviving records, same stream-absolute offset, same record count —
/// regardless of how the underlying reader chunks its bytes.
#[test]
fn truncation_at_every_prefix_matches_scalar_offsets() {
    let mut b = fstrace::TraceBuilder::new();
    let u = b.new_user_id();
    for i in 0..40u64 {
        let f = b.new_file_id();
        let o = b.open(i * 37, f, u, AccessMode::ReadWrite, 100 + i * 1000, false);
        b.seek(i * 37 + 5, o, 50, 0);
        b.close(i * 37 + 9, o, 100 + i * 1000);
    }
    let trace = b.finish();
    let bytes = trace.to_binary();
    assert!(bytes.len() > 100);
    for cut in 5..=bytes.len() {
        let slice = &bytes[..cut];
        let (want_recs, want_err) = scalar_decode(&slice[5..]);
        for chunk in [usize::MAX, 7] {
            let reader = TrickleReader {
                data: slice,
                pos: 0,
                chunk,
            };
            let mut r = TraceReader::new(reader).unwrap();
            let mut got = Vec::new();
            let got_err = loop {
                match r.next_record() {
                    Some(Ok(rec)) => got.push(rec),
                    Some(Err(e)) => break Some(e),
                    None => break None,
                }
            };
            assert_eq!(got, want_recs, "cut {cut} chunk {chunk}");
            match (&want_err, &got_err) {
                (None, None) => {}
                (
                    Some(DecodeError::Truncated { offset, .. }),
                    Some(DecodeError::Truncated {
                        offset: got_off,
                        records: got_n,
                    }),
                ) => {
                    // The oracle offset is payload-relative; the reader
                    // reports it stream-absolute (header included).
                    assert_eq!(*got_off, offset + 5, "cut {cut} chunk {chunk}");
                    assert_eq!(*got_n, want_recs.len() as u64, "cut {cut}");
                    assert_eq!(r.records_decoded(), want_recs.len() as u64);
                    assert!(*got_off >= r.byte_offset());
                }
                (a, b) => assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "cut {cut} chunk {chunk}"
                ),
            }
        }
    }
}
