//! The chunk compressor against the encoder it replaced.
//!
//! [`Compressor`] keeps one hash table and one output buffer across
//! calls and compares candidates with word loads; [`oracle_compress`]
//! below is the original scalar encoder, verbatim. Every archive and
//! shard on disk was written by the oracle's token stream, so the two
//! must agree byte for byte on every input — including when one
//! compressor is reused across a sequence of inputs, where a table left
//! over from one input must not leak into the next. Every stream must
//! also decode back to its input.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use fstrace::codec::put_varint;
use tracestore::compress::{compress, decompress_into, Compressor};

mod oracle {
    //! The encoder as it stood before [`super::Compressor`], kept as
    //! the reference.

    use super::put_varint;

    const MIN_MATCH: usize = 4;
    pub const MAX_MATCH: usize = MIN_MATCH + 0x7f;
    const MAX_LITERAL: usize = 128;
    const MAX_OFFSET: usize = 0xFFFF;
    const HASH_BITS: u32 = 15;

    fn hash4(bytes: &[u8]) -> usize {
        let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }

    pub fn compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        put_varint(&mut out, input.len() as u64);
        let mut table = vec![u32::MAX; 1 << HASH_BITS];
        let mut pos = 0usize;
        let mut literal_start = 0usize;

        let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
            let mut at = from;
            while at < to {
                let n = (to - at).min(MAX_LITERAL);
                out.push((n - 1) as u8);
                out.extend_from_slice(&input[at..at + n]);
                at += n;
            }
        };

        while pos + MIN_MATCH <= input.len() {
            let h = hash4(&input[pos..]);
            let cand = table[h] as usize;
            table[h] = pos as u32;
            let found = cand != u32::MAX as usize
                && pos - cand <= MAX_OFFSET
                && input[cand..cand + MIN_MATCH] == input[pos..pos + MIN_MATCH];
            if !found {
                pos += 1;
                continue;
            }
            // Extend the match as far as the token can express.
            let limit = (input.len() - pos).min(MAX_MATCH);
            let mut len = MIN_MATCH;
            while len < limit && input[cand + len] == input[pos + len] {
                len += 1;
            }
            flush_literals(&mut out, literal_start, pos);
            out.push(0x80 | (len - MIN_MATCH) as u8);
            out.extend_from_slice(&((pos - cand) as u16).to_le_bytes());
            // Seed the table across the matched span so later data can
            // reference any position inside it.
            let end = pos + len;
            pos += 1;
            while pos < end && pos + MIN_MATCH <= input.len() {
                table[hash4(&input[pos..])] = pos as u32;
                pos += 1;
            }
            pos = end;
            literal_start = end;
        }
        flush_literals(&mut out, literal_start, input.len());
        out
    }
}

use oracle::compress as oracle_compress;

/// Back-distances around the 2-byte offset's reach (65,535): one
/// inside, the limit, and two just past it.
const FAR_COPIES: [usize; 4] = [65_534, 65_535, 65_536, 65_537];
const MAX_INPUT: usize = 200 << 10;

/// A sequence of 1 to 5 inputs for one reused compressor. Each input
/// has a length class (0–3 bytes, short, around one window, or up to
/// [`MAX_INPUT`]) and is built from segments: random bytes over an
/// alphabet of 2 to 256 symbols, long single-byte runs, copies from
/// the window's edge, and near copies longer than a match token holds.
struct InputSequence;

impl InputSequence {
    fn input(rng: &mut TestRng) -> Vec<u8> {
        let len = match rng.below(4) {
            0 => rng.below(4) as usize,
            1 => 4 + rng.below(400) as usize,
            2 => 60_000 + rng.below(10_000) as usize,
            _ => 65_537 + rng.below((MAX_INPUT - 65_537) as u64) as usize,
        };
        let alphabet = 2 + rng.below(255);
        let mut data = Vec::with_capacity(len);
        while data.len() < len {
            let want = len - data.len();
            match rng.below(5) {
                0 | 1 => {
                    let n = 1 + rng.below(2_000) as usize;
                    data.extend((0..n.min(want)).map(|_| rng.below(alphabet) as u8));
                }
                2 => {
                    let n = oracle::MAX_MATCH + rng.below(3_000) as usize;
                    let byte = rng.below(alphabet) as u8;
                    data.extend(std::iter::repeat_n(byte, n.min(want)));
                }
                3 => {
                    let back = FAR_COPIES[rng.below(4) as usize];
                    if data.len() >= back {
                        let n = 4 + rng.below(300) as usize;
                        copy_back(&mut data, back, n.min(want));
                    }
                }
                _ => {
                    let back = 1 + rng.below(1_000) as usize;
                    if data.len() >= back {
                        let n = oracle::MAX_MATCH + rng.below(400) as usize;
                        copy_back(&mut data, back, n.min(want));
                    }
                }
            }
        }
        data
    }
}

/// Appends `n` bytes copied from `back` bytes behind the end, one at a
/// time so an overlapping copy repeats its pattern.
fn copy_back(data: &mut Vec<u8>, back: usize, n: usize) {
    for _ in 0..n {
        data.push(data[data.len() - back]);
    }
}

impl Strategy for InputSequence {
    type Value = Vec<Vec<u8>>;
    fn generate(&self, rng: &mut TestRng) -> Vec<Vec<u8>> {
        let count = 1 + rng.below(5) as usize;
        (0..count).map(|_| InputSequence::input(rng)).collect()
    }
}

fn assert_matches_oracle(compressor: &mut Compressor, input: &[u8], scratch: &mut Vec<u8>) {
    let expected = oracle_compress(input);
    let got = compressor.compress(input);
    assert!(
        got == expected.as_slice(),
        "stream of a {}-byte input differs from the oracle's ({} vs {} bytes)",
        input.len(),
        got.len(),
        expected.len()
    );
    decompress_into(got, input.len(), scratch).expect("stream decodes");
    assert!(scratch == input, "stream does not round-trip");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reused_compressor_matches_the_oracle(inputs in InputSequence) {
        let mut compressor = Compressor::new();
        let mut scratch = Vec::new();
        for input in &inputs {
            assert_matches_oracle(&mut compressor, input, &mut scratch);
        }
        // The one-shot form is the same encoder.
        let last = inputs.last().expect("at least one input");
        prop_assert_eq!(compress(last), oracle_compress(last));
    }
}

/// Inputs a random draw rarely hits, each after a long input so the
/// table is full of stale positions when it starts.
#[test]
fn edge_inputs_match_the_oracle_after_a_full_table() {
    let mut rng = TestRng::for_case("compress_oracle::edges", 0);
    let warm: Vec<u8> = (0..MAX_INPUT).map(|_| rng.below(7) as u8).collect();
    let mut far = warm[..70_000].to_vec();
    copy_back(&mut far, 65_535, 500);
    let mut too_far = warm[..70_000].to_vec();
    copy_back(&mut too_far, 65_536, 500);
    let edges: Vec<Vec<u8>> = vec![
        vec![],
        vec![9],
        vec![9, 9],
        vec![9, 9, 9],
        vec![9; 4],
        vec![0; 5_000],
        (0..=255u8).cycle().take(4_000).collect(),
        far,
        too_far,
        warm[..4].to_vec(),
    ];
    let mut compressor = Compressor::new();
    let mut scratch = Vec::new();
    for input in &edges {
        assert_matches_oracle(&mut compressor, &warm, &mut scratch);
        assert_matches_oracle(&mut compressor, input, &mut scratch);
    }
}
