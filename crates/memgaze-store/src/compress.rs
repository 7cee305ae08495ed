//! General-purpose LZ-style block compression for shard blobs.
//!
//! Shard frame payloads are already delta-chained varints (the MGZT
//! codec), but real traces still carry long-range redundancy the delta
//! chain cannot see: repeated ip sets across samples, periodic address
//! walks, identical sample shapes. A byte-oriented LZ77 pass on top
//! picks that up cheaply, and — unlike a trace-aware recoding — stays
//! content-agnostic, so the blob store can hold any bytes.
//!
//! The format is a classic greedy LZ with varint tokens, chosen for
//! decode simplicity over ratio (this is a storage tier, not an archive
//! format):
//!
//! ```text
//! stream   := raw_len varint | sequence*
//! sequence := lit_len varint | literal bytes
//!           | (match only if output still short of raw_len)
//!             (match_len - MIN_MATCH) varint | distance varint (>= 1)
//! ```
//!
//! The decoder stops exactly when `raw_len` bytes have been produced,
//! so no terminator token is needed; a final all-literal tail simply
//! omits the match. Matches may overlap their own output (distance <
//! match length), giving RLE for free. The encoder finds matches with a
//! single-probe hash table over 4-byte windows — the LZ4 strategy —
//! so compression is one pass, O(n), with a fixed 64 KiB table.
//!
//! [`compress`] never fails; [`decompress`] returns a typed detail
//! string for every malformation (truncation, bad distance, output
//! overrun, trailing bytes) and never panics — the blob layer maps
//! those into [`StoreError::CorruptBlob`](crate::StoreError::CorruptBlob).

use memgaze_model::wire::{Reader, WireError, Writer};

/// Matches shorter than this cost more to encode than to emit literally.
const MIN_MATCH: usize = 4;
/// log2 of the match hash table size.
const HASH_BITS: u32 = 14;
/// Sentinel for an empty hash-table slot.
const NO_POS: u32 = u32::MAX;

/// Hash of a 4-byte window, Fibonacci-style multiplicative.
#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// Compress `src`. The output always decodes back to `src` exactly; it
/// is *usually* smaller, but incompressible input costs a few bytes of
/// framing overhead — callers compare lengths and keep the raw form
/// when compression does not pay (see the blob encoder).
pub fn compress(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 2 + 16);
    let mut w = Writer::new(&mut out);
    w.varint(src.len() as u64);
    if src.len() < MIN_MATCH {
        if !src.is_empty() {
            w.len_bytes(src);
        }
        return out;
    }
    let mut head = vec![NO_POS; 1 << HASH_BITS];
    let mut i = 0usize;
    let mut lit_start = 0usize;
    // The last window whose 4 bytes fit entirely in `src`.
    let last_window = src.len() - MIN_MATCH;
    while i <= last_window {
        let h = hash4(&src[i..]);
        let cand = head[h];
        head[h] = i as u32;
        let matched = cand != NO_POS && {
            let c = cand as usize;
            src[c..c + MIN_MATCH] == src[i..i + MIN_MATCH]
        };
        if !matched {
            i += 1;
            continue;
        }
        let cand = cand as usize;
        // Extend the match greedily past the mandatory 4 bytes.
        let mut len = MIN_MATCH;
        while i + len < src.len() && src[cand + len] == src[i + len] {
            len += 1;
        }
        w.len_bytes(&src[lit_start..i]);
        w.varint((len - MIN_MATCH) as u64);
        w.varint((i - cand) as u64);
        // Seed the table inside the match so later data can still find
        // these positions; a sparse stride keeps long matches O(1)-ish
        // without giving up short-range repeats.
        let stride = (len / 16).max(1);
        let mut p = i + 1;
        while p + MIN_MATCH <= src.len() && p < i + len {
            head[hash4(&src[p..])] = p as u32;
            p += stride;
        }
        i += len;
        lit_start = i;
    }
    // Input ending exactly at a match needs no empty trailing literal
    // run — the decoder stops at the declared length.
    if lit_start < src.len() {
        w.len_bytes(&src[lit_start..]);
    }
    out
}

/// Decompress a [`compress`] stream, checking it declares exactly
/// `expected_len` bytes. Every malformation is a typed detail string;
/// nothing panics. The declared length is not trusted for allocation:
/// matches expand without bound, so the output reserves at most one
/// byte per input byte and grows only as bytes are produced.
pub fn decompress(src: &[u8], expected_len: usize) -> Result<Vec<u8>, String> {
    let detail = |e: WireError| e.to_string();
    let mut r = Reader::new(src);
    let raw_len = r.usize("raw length").map_err(detail)?;
    if raw_len != expected_len {
        return Err(format!(
            "stream declares {raw_len} raw bytes, catalog expects {expected_len}"
        ));
    }
    let mut out = Vec::with_capacity(r.capacity(raw_len));
    while out.len() < raw_len {
        let lit_len = r.usize("literal length").map_err(detail)?;
        if lit_len > raw_len - out.len() {
            return Err(format!(
                "literal run of {lit_len} overruns output ({} of {raw_len} produced)",
                out.len()
            ));
        }
        out.extend_from_slice(r.bytes(lit_len, "literal run").map_err(detail)?);
        if out.len() == raw_len {
            break;
        }
        let match_len = r
            .usize("match length")
            .map_err(detail)?
            .saturating_add(MIN_MATCH);
        let dist = r.usize("match distance").map_err(detail)?;
        if dist == 0 || dist > out.len() {
            return Err(format!(
                "match distance {dist} with only {} bytes produced",
                out.len()
            ));
        }
        if match_len > raw_len - out.len() {
            return Err(format!(
                "match of {match_len} overruns output ({} of {raw_len} produced)",
                out.len()
            ));
        }
        // Byte-at-a-time copy: overlapping matches (dist < len) must see
        // the bytes they just produced.
        let start = out.len() - dist;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }
    r.finish("lz stream").map_err(detail)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let back = decompress(&c, data.len()).expect("decompress");
        assert_eq!(back, data);
    }

    #[test]
    fn roundtrips_edge_shapes() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
        roundtrip(&[0u8; 10_000]);
        roundtrip(b"abcabcabcabcabcabcabcabc");
        let mixed: Vec<u8> = (0u32..5000)
            .map(|i| ((i.wrapping_mul(2654435761)) >> 13) as u8 ^ (i as u8 & 0x3f))
            .collect();
        roundtrip(&mixed);
    }

    #[test]
    fn repetitive_input_actually_shrinks() {
        let data: Vec<u8> = b"sample-frame-payload-"
            .iter()
            .copied()
            .cycle()
            .take(8192)
            .collect();
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 4,
            "8 KiB of period-21 text should compress well, got {} bytes",
            c.len()
        );
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn overlapping_match_is_rle() {
        let mut data = vec![7u8; 4096];
        data.extend_from_slice(b"tail");
        let c = compress(&data);
        assert!(
            c.len() < 64,
            "run-length input should be tiny, got {}",
            c.len()
        );
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn malformed_streams_are_typed_errors() {
        let good = compress(b"abcdabcdabcdabcd-abcdabcd");
        // Wrong expected length.
        assert!(decompress(&good, 7).unwrap_err().contains("expects 7"));
        // Truncations at every prefix either error or cannot silently
        // produce the full output.
        for cut in 0..good.len() {
            match decompress(&good[..cut], 25) {
                Ok(out) => panic!("truncated prefix of {cut} bytes decoded to {out:?}"),
                Err(detail) => assert!(!detail.is_empty()),
            }
        }
        // A match distance pointing before the start of output.
        let mut bad = Vec::new();
        let mut w = Writer::new(&mut bad);
        w.varint(8); // raw_len
        w.len_bytes(b"x"); // one literal
        w.varint(0); // match_len = MIN_MATCH
        w.varint(5); // distance 5 > 1 byte produced
        assert!(decompress(&bad, 8).unwrap_err().contains("distance"));
        // Trailing garbage after a complete stream.
        let mut trailing = compress(b"done");
        trailing.push(0xff);
        assert!(decompress(&trailing, 4).unwrap_err().contains("trailing"));
    }

    #[test]
    fn zero_distance_is_rejected() {
        let mut bad = Vec::new();
        let mut w = Writer::new(&mut bad);
        w.varint(9);
        w.len_bytes(b"abcd");
        w.varint(1); // match_len 5
        w.varint(0); // distance 0
        assert!(decompress(&bad, 9).unwrap_err().contains("distance 0"));
    }
}
