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
//!
//! # Encoder
//!
//! Greedy, one probe per position: a 32k-entry table maps the hash of
//! the 4 bytes at a position to the last position with that hash. A
//! candidate is taken when it lies within the window and its 4 bytes
//! equal the current ones (one `u32` load each); the match then
//! extends 8 bytes per step (`u64` xor, `trailing_zeros`) up to
//! `MAX_MATCH`. Every position a match covers is entered in the table.
//!
//! [`Compressor`] keeps the table and the output buffer between calls
//! and resets the table with `fill` at the start of each one, so an
//! [`ArchiveWriter`](crate::ArchiveWriter) compressing chunk after
//! chunk allocates neither per chunk, and each chunk's stream depends
//! on that chunk alone. [`compress`] is the same encoder run once; the
//! two are byte-identical by construction, and
//! `tests/compress_oracle.rs` holds them to the original scalar encoder.

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
/// A table slot no position has filled since the last reset.
const EMPTY: u32 = u32::MAX;

fn load32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte window"))
}

fn load64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte window"))
}

fn hash4(v: u32) -> usize {
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// A reusable compressor: one hash table and one output buffer, kept
/// across calls, so a writer that compresses chunk after chunk
/// allocates neither per chunk. Each call resets the table (`fill`),
/// so no position from one input can match into the next: the stream
/// for an input depends on that input alone, and equals [`compress`]'s.
pub struct Compressor {
    /// Last position seen for each 4-byte hash, or [`EMPTY`].
    table: Vec<u32>,
    out: Vec<u8>,
}

impl Default for Compressor {
    fn default() -> Self {
        Compressor::new()
    }
}

impl Compressor {
    /// A compressor with its table allocated and an empty output.
    pub fn new() -> Compressor {
        Compressor {
            table: vec![EMPTY; 1 << HASH_BITS],
            out: Vec::new(),
        }
    }

    /// Compresses `input`; the returned stream lives until the next
    /// call.
    pub fn compress(&mut self, input: &[u8]) -> &[u8] {
        let Compressor { table, out } = self;
        table.fill(EMPTY);
        out.clear();
        out.reserve(input.len() / 2 + 16);
        put_varint(out, input.len() as u64);
        let mut pos = 0usize;
        let mut literal_start = 0usize;
        while pos + MIN_MATCH <= input.len() {
            let v = load32(input, pos);
            let h = hash4(v);
            let cand = table[h] as usize;
            table[h] = pos as u32;
            // One 4-byte load decides a candidate: `cand < pos` always
            // (the table only holds earlier positions), so its window
            // is in bounds.
            let found =
                cand != EMPTY as usize && pos - cand <= MAX_OFFSET && load32(input, cand) == v;
            if !found {
                pos += 1;
                continue;
            }
            let len = match_len(input, cand, pos);
            flush_literals(out, &input[literal_start..pos]);
            out.push(0x80 | (len - MIN_MATCH) as u8);
            out.extend_from_slice(&((pos - cand) as u16).to_le_bytes());
            // Seed the table across the matched span so later data can
            // reference any position inside it.
            let end = pos + len;
            pos += 1;
            while pos < end && pos + MIN_MATCH <= input.len() {
                table[hash4(load32(input, pos))] = pos as u32;
                pos += 1;
            }
            pos = end;
            literal_start = end;
        }
        flush_literals(out, &input[literal_start..]);
        out
    }
}

/// Length of the match at `pos` against `cand < pos`, whose first
/// `MIN_MATCH` bytes are known equal: as far as the bytes agree, capped
/// at `MAX_MATCH` and the input's end. Compares 8 bytes per step (the
/// first differing byte is the xor's lowest set byte), then bytewise.
fn match_len(input: &[u8], cand: usize, pos: usize) -> usize {
    let limit = (input.len() - pos).min(MAX_MATCH);
    let mut len = MIN_MATCH;
    while len + 8 <= limit {
        let diff = load64(input, cand + len) ^ load64(input, pos + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && input[cand + len] == input[pos + len] {
        len += 1;
    }
    len
}

/// Emits `literals` as runs of at most `MAX_LITERAL` bytes.
fn flush_literals(out: &mut Vec<u8>, literals: &[u8]) {
    for run in literals.chunks(MAX_LITERAL) {
        out.push((run.len() - 1) as u8);
        out.extend_from_slice(run);
    }
}

/// Compresses `input` into a fresh buffer: [`Compressor::compress`]
/// with a one-use compressor.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut compressor = Compressor::new();
    compressor.compress(input);
    compressor.out
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
