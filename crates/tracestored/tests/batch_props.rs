//! The wire's record-batch decoder against a scalar oracle.
//!
//! [`decode_records`] decodes a batch through the columnar
//! `fstrace::block::decode_block`; [`scalar_records`] below decodes the
//! same bytes one record at a time with `codec::decode_from`. On random
//! batches, on every truncation of each, and on single-byte flips,
//! either both return the same records or both fail, and neither
//! panics.

use proptest::prelude::*;

use fstrace::codec::{decode_from, get_varint, DecodeError};
use fstrace::{AccessMode, FileId, OpenId, TraceEvent, TraceRecord, UserId};
use tracestored::protocol::{decode_records, encode_records};

/// A batch decoded one record at a time: a varint count, that many
/// records with the tick base starting at zero, and nothing after them.
fn scalar_records(buf: &[u8]) -> Result<Vec<TraceRecord>, DecodeError> {
    let mut pos = 0;
    let count = get_varint(buf, &mut pos)?;
    let mut out = Vec::new();
    let mut prev = 0;
    for _ in 0..count {
        let (rec, ticks) = decode_from(buf, &mut pos, prev)?;
        prev = ticks;
        out.push(rec);
    }
    if pos != buf.len() {
        return Err(DecodeError::BadField("record batch trailer"));
    }
    Ok(out)
}

/// Both decoders on `buf`: the same records, or an error from each.
fn assert_agree(buf: &[u8]) {
    match (decode_records(buf), scalar_records(buf)) {
        (Ok(columnar), Ok(scalar)) => assert_eq!(columnar, scalar),
        (Err(_), Err(_)) => {}
        (columnar, scalar) => {
            panic!("decoders disagree on {buf:?}: columnar {columnar:?}, scalar {scalar:?}")
        }
    }
}

fn arb_mode() -> impl Strategy<Value = AccessMode> {
    prop_oneof![
        Just(AccessMode::ReadOnly),
        Just(AccessMode::WriteOnly),
        Just(AccessMode::ReadWrite),
    ]
}

/// Every event kind, with fields over their whole range so varints of
/// every length (and the decoders' slow paths) turn up.
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            arb_mode(),
            any::<u64>(),
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
        (any::<u64>(), any::<u64>()).prop_map(|(o, p)| TraceEvent::Close {
            open_id: OpenId(o),
            final_pos: p,
        }),
        (0u64..1000, any::<u64>(), 0u64..10_000).prop_map(|(o, a, b)| TraceEvent::Seek {
            open_id: OpenId(o),
            old_pos: a,
            new_pos: b,
        }),
        (0u64..1000, any::<u32>()).prop_map(|(f, u)| TraceEvent::Unlink {
            file_id: FileId(f),
            user_id: UserId(u),
        }),
        (any::<u64>(), 0u64..10_000, 0u32..64).prop_map(|(f, l, u)| TraceEvent::Truncate {
            file_id: FileId(f),
            new_len: l,
            user_id: UserId(u),
        }),
        (0u64..1000, 0u32..64, any::<u64>()).prop_map(|(f, u, s)| TraceEvent::Execve {
            file_id: FileId(f),
            user_id: UserId(u),
            size: s,
        }),
    ]
}

/// An encoded batch of records in nondecreasing time order.
fn arb_batch() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u64..100_000, arb_event()), 0..60).prop_map(|steps| {
        let mut t = 0;
        let records: Vec<TraceRecord> = steps
            .into_iter()
            .map(|(dt, event)| {
                t += dt;
                TraceRecord::new(t, event)
            })
            .collect();
        let mut buf = Vec::new();
        encode_records(&mut buf, &records);
        buf
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A whole batch decodes the same both ways, and so does every
    /// prefix of it (each one a truncated batch).
    #[test]
    fn batches_and_their_truncations_decode_alike(buf in arb_batch()) {
        prop_assert!(decode_records(&buf).is_ok());
        for end in 0..=buf.len() {
            assert_agree(&buf[..end]);
        }
    }

    /// A batch with one byte flipped, in its count or in any record,
    /// decodes the same both ways.
    #[test]
    fn flipped_bytes_decode_alike(
        buf in arb_batch(),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..16),
    ) {
        for (at, mask) in flips {
            let mut bad = buf.clone();
            let at = at % bad.len();
            bad[at] ^= mask;
            assert_agree(&bad);
        }
    }
}
