//! A small LZ77 compressor for chunk payloads.
//!
//! The build environment is offline, so no external compression crate
//! can be used; this module implements a byte-oriented LZ77 variant
//! (greedy hash-table matching, 64 KB window) tuned for the archive's
//! payloads — varint record streams full of repeated id/size patterns.
//! Ratios of 1.5–3× are typical on workload traces; the point is not
//! to rival zstd but to make compression a real, optional stage of the
//! chunk pipeline with a decoder that is robust to arbitrary input.
//!
//! # Stream layout
//!
//! ```text
//! stream := raw_len:varint token*
//! token  := ctrl:u8 ...
//!   ctrl < 0x80  → literal run: ctrl+1 bytes follow (1..=128)
//!   ctrl >= 0x80 → match: length = (ctrl & 0x7f) + MIN_MATCH,
//!                  followed by a 2-byte LE back-offset (1..=65535)
//! ```
//!
//! Matches copy `length` bytes from `offset` bytes behind the current
//! output position; overlapping copies are allowed (RLE falls out for
//! free with `offset == 1`).

use fstrace::codec::{get_varint, put_varint, DecodeError};

/// Shortest match worth encoding: a match token costs 3 bytes.
const MIN_MATCH: usize = 4;
/// Longest match one token encodes.
const MAX_MATCH: usize = MIN_MATCH + 0x7f;
/// Longest literal run one token encodes.
const MAX_LITERAL: usize = 128;
/// Window the 2-byte offset can reach back.
const MAX_OFFSET: usize = 0xFFFF;
/// Hash-table size (single probe per position).
const HASH_BITS: u32 = 15;

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Compresses `input`, appending the stream to a fresh buffer.
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

/// Decompresses a [`compress`] stream into `out`, checking it declares
/// exactly `expected_len` bytes and reproduces them with no input left
/// over. `out` is cleared and refilled, so a loop over many chunks
/// reuses one allocation at the high-water chunk size.
///
/// Any malformed stream — bad length, out-of-window offset, overrun,
/// trailing garbage — yields an error; the decoder never panics and
/// never grows `out` beyond `expected_len`, nor reserves more than the
/// stream's tokens could decode to. On error the buffer's contents are
/// unspecified.
pub fn decompress_into(
    stream: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), DecodeError> {
    let corrupt = || DecodeError::BadField("compressed chunk payload");
    let mut pos = 0usize;
    let raw_len = get_varint(stream, &mut pos)? as usize;
    if raw_len != expected_len {
        return Err(corrupt());
    }
    out.clear();
    // A 3-byte match token yields at most `MAX_MATCH` bytes and a
    // literal token less than its own length, so a header claiming more
    // than that over a short stream reserves only what it could fill.
    let decodable = (stream.len() - pos).div_ceil(3).saturating_mul(MAX_MATCH);
    out.reserve(raw_len.min(decodable));
    while out.len() < raw_len {
        let &ctrl = stream.get(pos).ok_or_else(corrupt)?;
        pos += 1;
        if ctrl < 0x80 {
            let n = ctrl as usize + 1;
            let lit = stream.get(pos..pos + n).ok_or_else(corrupt)?;
            if out.len() + n > raw_len {
                return Err(corrupt());
            }
            out.extend_from_slice(lit);
            pos += n;
        } else {
            let len = (ctrl & 0x7f) as usize + MIN_MATCH;
            let off_bytes = stream.get(pos..pos + 2).ok_or_else(corrupt)?;
            pos += 2;
            let offset = u16::from_le_bytes([off_bytes[0], off_bytes[1]]) as usize;
            if offset == 0 || offset > out.len() || out.len() + len > raw_len {
                return Err(corrupt());
            }
            let start = out.len() - offset;
            if offset >= len {
                // Disjoint source and destination: one memcpy.
                out.extend_from_within(start..start + len);
            } else {
                // Overlapping copy (offset < len, e.g. RLE): the source
                // grows as we write, so copy a source-sized run at a
                // time — each run doubles the available pattern.
                let mut done = 0usize;
                while done < len {
                    let n = offset.min(len - done);
                    let from = out.len() - offset;
                    out.extend_from_within(from..from + n);
                    done += n;
                }
            }
        }
    }
    if pos != stream.len() {
        return Err(corrupt());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decompress(stream: &[u8], expected_len: usize) -> Result<Vec<u8>, DecodeError> {
        let mut out = Vec::new();
        decompress_into(stream, expected_len, &mut out)?;
        Ok(out)
    }

    fn roundtrip(data: &[u8]) {
        let packed = compress(data);
        let back = decompress(&packed, data.len()).expect("roundtrip");
        assert_eq!(back, data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn repetitive_data_shrinks() {
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 13) as u8).collect();
        let packed = compress(&data);
        assert!(
            packed.len() * 3 < data.len(),
            "{} vs {}",
            packed.len(),
            data.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn incompressible_data_grows_bounded() {
        // A pseudo-random byte stream: worst case is the literal-run
        // framing, one control byte per 128 literals plus the header.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        let packed = compress(&data);
        assert!(packed.len() <= data.len() + data.len() / 128 + 16);
        roundtrip(&data);
    }

    #[test]
    fn overlapping_rle_copies() {
        let mut data = vec![7u8; 1000];
        data.extend_from_slice(b"tail");
        roundtrip(&data);
        let packed = compress(&data);
        assert!(packed.len() < 64, "RLE should collapse: {}", packed.len());
    }

    #[test]
    fn huge_declared_length_reserves_only_what_the_tokens_can_fill() {
        // A header claiming 2^28 bytes (the chunk cap) over one token
        // byte: the decoder must fail without reserving 256 MiB.
        let raw_len = 1usize << 28;
        let mut stream = Vec::new();
        put_varint(&mut stream, raw_len as u64);
        stream.push(0x80);
        let mut out = Vec::new();
        assert!(decompress_into(&stream, raw_len, &mut out).is_err());
        assert!(out.capacity() < 1024, "reserved {} bytes", out.capacity());
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let data = b"some compressible compressible compressible data".to_vec();
        let packed = compress(&data);
        // Wrong expected length.
        assert!(decompress(&packed, data.len() + 1).is_err());
        // Truncations at every point.
        for cut in 0..packed.len() {
            let _ = decompress(&packed[..cut], data.len());
        }
        // Single-byte corruptions either roundtrip wrong or error —
        // never panic, never produce more than expected_len bytes.
        let mut copy = packed.clone();
        for i in 0..copy.len() {
            copy[i] ^= 0xA5;
            if let Ok(out) = decompress(&copy, data.len()) {
                assert_eq!(out.len(), data.len());
            }
            copy[i] ^= 0xA5;
        }
    }
}
