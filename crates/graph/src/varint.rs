//! LEB128 varint gap codec for compressed adjacency storage.
//!
//! Sorted neighbor lists compress well as *gaps*: the first target is
//! stored absolute, every following target as its difference from the
//! predecessor, each value LEB128-encoded (7 payload bits per byte, high
//! bit = continuation). Scale-free adjacency lists sort into dense runs,
//! so most gaps fit one byte — the webgraph/GBBS observation that buys
//! several-fold more edges per cache byte (DESIGN.md §14).
//!
//! The codec is deliberately permissive about *zero gaps*: with
//! `GraphConfig { dedup: false }` a vertex's sorted target list may contain
//! duplicates, which gap-encode as `0`. LEB128 represents zero as a single
//! `0x00` byte, so duplicate targets round-trip exactly rather than
//! corrupting the stream — the encoder requires only that input lists are
//! sorted (non-decreasing), never that they are strict.

/// Upper bound on the encoded size of one `u64` (⌈64 / 7⌉ bytes).
pub const MAX_VARINT_BYTES: usize = 10;

/// Append the LEB128 encoding of `v` to `out`.
#[inline]
fn encode_u64(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode one LEB128 value at `*pos`, advancing `*pos` past it.
///
/// Panics on a truncated stream or a value wider than 64 bits — both mean
/// the byte pool is corrupt, and the storage layer below already CRC-guards
/// against silent corruption, so this is a programming error, not data.
#[inline]
fn decode_u64(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = buf[*pos];
        *pos += 1;
        debug_assert!(shift < 64, "varint wider than u64");
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Gap-encode a sorted (non-decreasing) target list: first value absolute,
/// the rest as deltas. Duplicates (zero gaps) are accepted — see the module
/// docs. Returns the number of bytes appended.
pub fn encode_gaps(targets: &[u64], out: &mut Vec<u8>) -> usize {
    let before = out.len();
    let mut prev = 0u64;
    for (i, &t) in targets.iter().enumerate() {
        if i == 0 {
            encode_u64(t, out);
        } else {
            debug_assert!(t >= prev, "gap encoding requires sorted targets: {t} < {prev}");
            encode_u64(t - prev, out);
        }
        prev = t;
    }
    out.len() - before
}

/// Decode `count` gap-encoded targets from `buf` into `out` (appended).
pub fn decode_gaps(buf: &[u8], count: usize, out: &mut Vec<u64>) {
    let mut dec = GapDecoder::new(buf);
    out.reserve(count);
    for _ in 0..count {
        out.push(dec.next_target());
    }
}

/// Streaming gap decoder — the early-exit path for bottom-up BFS scans:
/// callers pull one target at a time and stop as soon as a predicate hits,
/// paying decode CPU only for the scanned prefix.
pub struct GapDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
    prev: u64,
    first: bool,
}

impl<'a> GapDecoder<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0, prev: 0, first: true }
    }

    /// Decode the next target. The caller bounds the pull count by the
    /// vertex's degree (from the DRAM degree table).
    #[inline]
    pub fn next_target(&mut self) -> u64 {
        let raw = decode_u64(self.buf, &mut self.pos);
        let t = if self.first { raw } else { self.prev + raw };
        self.first = false;
        self.prev = t;
        t
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(targets: &[u64]) {
        let mut buf = Vec::new();
        let n = encode_gaps(targets, &mut buf);
        assert_eq!(n, buf.len());
        let mut out = Vec::new();
        decode_gaps(&buf, targets.len(), &mut out);
        assert_eq!(out, targets);
    }

    #[test]
    fn single_values_roundtrip() {
        for v in [0u64, 1, 127, 128, 129, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            encode_u64(v, &mut buf);
            assert!(buf.len() <= MAX_VARINT_BYTES);
            let mut pos = 0;
            assert_eq!(decode_u64(&buf, &mut pos), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn small_values_take_one_byte() {
        let mut buf = Vec::new();
        encode_u64(127, &mut buf);
        assert_eq!(buf.len(), 1);
        buf.clear();
        encode_u64(128, &mut buf);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn gap_lists_roundtrip() {
        roundtrip(&[]);
        roundtrip(&[0]);
        roundtrip(&[u64::MAX]);
        roundtrip(&[1, 2, 3, 4, 5]);
        roundtrip(&[10, 1000, 1_000_000, 1_000_000_000_000]);
        roundtrip(&[0, u64::MAX]); // the maximum possible gap
    }

    #[test]
    fn zero_gaps_from_duplicates_roundtrip() {
        // dedup-off construction: duplicate targets are legal input
        roundtrip(&[7, 7, 7, 9, 9, 12]);
        roundtrip(&[0, 0]);
        roundtrip(&[u64::MAX, u64::MAX]);
    }

    #[test]
    fn dense_runs_compress_to_one_byte_per_edge() {
        let targets: Vec<u64> = (1000..2000).collect();
        let mut buf = Vec::new();
        encode_gaps(&targets, &mut buf);
        // absolute head (2 bytes) + 999 single-byte gaps
        assert_eq!(buf.len(), 2 + 999);
    }

    #[test]
    fn streaming_decoder_matches_bulk() {
        let targets = [3u64, 3, 40, 1000, 1000, u64::MAX];
        let mut buf = Vec::new();
        encode_gaps(&targets, &mut buf);
        let mut dec = GapDecoder::new(&buf);
        for &want in &targets {
            assert_eq!(dec.next_target(), want);
        }
        assert_eq!(dec.consumed(), buf.len());
    }
}
