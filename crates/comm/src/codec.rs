//! The byte-level wire format: fixed-size record codecs, frames, and the
//! reusable frame-buffer pool.
//!
//! Every payload that crosses a mailbox channel is encoded as a fixed-size
//! record and packed, together with its final-destination rank, into a
//! *frame*:
//!
//! ```text
//! frame   := header record* crc?
//! header  := record_size: u32 LE | record_count: u32 LE      (8 bytes)
//! record  := dst_rank: u32 LE | payload: WIRE_SIZE bytes
//! crc     := crc32(header record*): u32 LE                   (4 bytes)
//! ```
//!
//! The CRC trailer is appended by the mailbox when its integrity layer is
//! enabled (the default): [`frame_seal`] stamps it at flush time and
//! [`frame_verify_and_strip`] checks it on arrival, so any bit flip
//! anywhere in a frame — header, routing prefix, payload, or the trailer
//! itself — is detected before a single record is decoded.
//!
//! Frames are plain `Vec<u8>` buffers recycled through a [`FramePool`]
//! free list, so steady-state traversal ships frames without allocating.
//! Routed topologies forward transit records by copying raw record bytes
//! between frames — intermediate hops never decode payloads.

/// Fixed-size binary encoding for one wire record payload.
///
/// `encode` writes exactly [`WireCodec::WIRE_SIZE`] bytes; `decode` reads
/// them back. Types that carry rank-replicated context that cannot travel
/// on the wire (e.g. a shared subset table) declare it as
/// [`WireCodec::DecodeCtx`] and receive it at decode time; plain POD types
/// use `()`.
pub trait WireCodec: Sized {
    /// Encoded payload size in bytes (excluding the 4-byte routing prefix).
    const WIRE_SIZE: usize;

    /// Rank-local context needed to reconstruct a value from its bytes.
    type DecodeCtx: Clone + Send + Sync + 'static;

    /// Write exactly `WIRE_SIZE` bytes into `buf` (`buf.len() == WIRE_SIZE`).
    fn encode(&self, buf: &mut [u8]);

    /// Read a value back from exactly `WIRE_SIZE` bytes.
    fn decode(buf: &[u8], ctx: &Self::DecodeCtx) -> Self;
}

// --- primitive impls ------------------------------------------------------

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl WireCodec for $t {
            const WIRE_SIZE: usize = std::mem::size_of::<$t>();
            type DecodeCtx = ();

            #[inline]
            fn encode(&self, buf: &mut [u8]) {
                buf.copy_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn decode(buf: &[u8], _ctx: &()) -> Self {
                <$t>::from_le_bytes(buf.try_into().unwrap())
            }
        }
    )*};
}

impl_wire_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl WireCodec for () {
    const WIRE_SIZE: usize = 0;
    type DecodeCtx = ();

    #[inline]
    fn encode(&self, _buf: &mut [u8]) {}

    #[inline]
    fn decode(_buf: &[u8], _ctx: &()) -> Self {}
}

impl<A, B> WireCodec for (A, B)
where
    A: WireCodec<DecodeCtx = ()>,
    B: WireCodec<DecodeCtx = ()>,
{
    const WIRE_SIZE: usize = A::WIRE_SIZE + B::WIRE_SIZE;
    type DecodeCtx = ();

    #[inline]
    fn encode(&self, buf: &mut [u8]) {
        self.0.encode(&mut buf[..A::WIRE_SIZE]);
        self.1.encode(&mut buf[A::WIRE_SIZE..]);
    }

    #[inline]
    fn decode(buf: &[u8], _ctx: &()) -> Self {
        (A::decode(&buf[..A::WIRE_SIZE], &()), B::decode(&buf[A::WIRE_SIZE..], &()))
    }
}

impl<A, B, C> WireCodec for (A, B, C)
where
    A: WireCodec<DecodeCtx = ()>,
    B: WireCodec<DecodeCtx = ()>,
    C: WireCodec<DecodeCtx = ()>,
{
    const WIRE_SIZE: usize = A::WIRE_SIZE + B::WIRE_SIZE + C::WIRE_SIZE;
    type DecodeCtx = ();

    #[inline]
    fn encode(&self, buf: &mut [u8]) {
        self.0.encode(&mut buf[..A::WIRE_SIZE]);
        self.1.encode(&mut buf[A::WIRE_SIZE..A::WIRE_SIZE + B::WIRE_SIZE]);
        self.2.encode(&mut buf[A::WIRE_SIZE + B::WIRE_SIZE..]);
    }

    #[inline]
    fn decode(buf: &[u8], _ctx: &()) -> Self {
        (
            A::decode(&buf[..A::WIRE_SIZE], &()),
            B::decode(&buf[A::WIRE_SIZE..A::WIRE_SIZE + B::WIRE_SIZE], &()),
            C::decode(&buf[A::WIRE_SIZE + B::WIRE_SIZE..], &()),
        )
    }
}

// --- frames ---------------------------------------------------------------

/// Frame header: `record_size: u32` + `record_count: u32`, little-endian.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Per-record routing prefix (the final-destination rank).
pub const RECORD_DST_BYTES: usize = 4;

/// One encoded frame travelling between ranks. A thin newtype over the
/// pooled byte buffer so transport channels carry a distinct message type.
#[derive(Debug)]
pub struct Frame {
    pub buf: Vec<u8>,
}

/// Start a frame in `buf`: clear it and write the header for records of
/// `record_size` bytes (routing prefix included), count 0.
#[inline]
pub fn frame_init(buf: &mut Vec<u8>, record_size: u32) {
    buf.clear();
    buf.extend_from_slice(&record_size.to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
}

/// Finalize a frame's record count.
#[inline]
pub fn frame_set_count(buf: &mut [u8], count: u32) {
    buf[4..8].copy_from_slice(&count.to_le_bytes());
}

/// The record size (routing prefix included) a frame was built with.
#[inline]
pub fn frame_record_size(buf: &[u8]) -> u32 {
    u32::from_le_bytes(buf[0..4].try_into().unwrap())
}

/// The number of records in a finalized frame.
#[inline]
pub fn frame_record_count(buf: &[u8]) -> u32 {
    u32::from_le_bytes(buf[4..8].try_into().unwrap())
}

// --- frame integrity ------------------------------------------------------

/// Size of the CRC32 trailer appended to integrity-protected frames.
pub const FRAME_CRC_BYTES: usize = 4;

/// CRC-32 (IEEE 802.3, reflected) shared with the NVRAM layer's per-page
/// checksums; detects any single-bit error and any error burst up to 32
/// bits, which covers the fault plan's one-bit corruption exactly.
pub use havoq_util::crc::crc32;

/// Seal a finalized frame: append the CRC32 trailer covering everything
/// currently in `buf` (header + records).
#[inline]
pub fn frame_seal(buf: &mut Vec<u8>) {
    let crc = crc32(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Verify a sealed frame and strip its trailer. Returns `false` — leaving
/// `buf` untouched — when the frame is too short or the CRC mismatches;
/// the caller NACKs it instead of decoding garbage.
#[inline]
#[must_use]
pub fn frame_verify_and_strip(buf: &mut Vec<u8>) -> bool {
    if buf.len() < FRAME_HEADER_BYTES + FRAME_CRC_BYTES {
        return false;
    }
    let split = buf.len() - FRAME_CRC_BYTES;
    let want = u32::from_le_bytes(buf[split..].try_into().unwrap());
    if crc32(&buf[..split]) != want {
        return false;
    }
    buf.truncate(split);
    true
}

/// Free list of reusable frame buffers, bounded so pathological fan-out
/// cannot hoard memory. Steady-state traversal receives roughly as many
/// frames as it sends, so the pool self-sustains after warm-up and the
/// `allocated` counter stops moving.
pub struct FramePool {
    free: Vec<Vec<u8>>,
    max_free: usize,
    frame_bytes: usize,
    allocated: u64,
    reused: u64,
}

impl FramePool {
    pub fn new(frame_bytes: usize, max_free: usize) -> Self {
        Self { free: Vec::new(), max_free, frame_bytes, allocated: 0, reused: 0 }
    }

    /// Take a cleared buffer with `frame_bytes` capacity.
    pub fn get(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(mut b) => {
                self.reused += 1;
                b.clear();
                b
            }
            None => {
                self.allocated += 1;
                Vec::with_capacity(self.frame_bytes)
            }
        }
    }

    /// A pooled copy of `frame` (the retransmit buffer's and the fault
    /// plan's second copies), so the counters see every buffer a mailbox
    /// holds.
    pub fn copy_of(&mut self, frame: &[u8]) -> Vec<u8> {
        let mut buf = self.get();
        buf.extend_from_slice(frame);
        buf
    }

    /// Return a buffer to the free list (dropped if the list is full).
    pub fn put(&mut self, buf: Vec<u8>) {
        if self.free.len() < self.max_free {
            self.free.push(buf);
        }
    }

    /// Buffers ever allocated from the system.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// `get` calls served from the free list.
    pub fn reused(&self) -> u64 {
        self.reused
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireCodec<DecodeCtx = ()> + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = vec![0u8; T::WIRE_SIZE];
        v.encode(&mut buf);
        assert_eq!(T::decode(&buf, &()), v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0xabu8);
        roundtrip(0xab_cdu16);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX - 7);
        roundtrip(-123i64);
        roundtrip((1u64, 2u32));
        roundtrip((9u64, 8u64, 255u8));
        roundtrip(());
    }

    #[test]
    fn encoding_is_little_endian() {
        let mut buf = [0u8; 4];
        0x0102_0304u32.encode(&mut buf);
        assert_eq!(buf, [4, 3, 2, 1]);
    }

    #[test]
    fn frame_header_roundtrip() {
        let mut buf = Vec::new();
        frame_init(&mut buf, 28);
        assert_eq!(buf.len(), FRAME_HEADER_BYTES);
        buf.extend_from_slice(&[0u8; 28 * 3]);
        frame_set_count(&mut buf, 3);
        assert_eq!(frame_record_size(&buf), 28);
        assert_eq!(frame_record_count(&buf), 3);
    }

    #[test]
    fn crc32_known_vector() {
        // the canonical CRC-32/IEEE check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sealed_frame_roundtrips_and_detects_any_single_bit_flip() {
        let mut buf = Vec::new();
        frame_init(&mut buf, 12);
        buf.extend_from_slice(&[0xA5u8; 12 * 2]);
        frame_set_count(&mut buf, 2);
        let clean = buf.clone();
        frame_seal(&mut buf);
        assert_eq!(buf.len(), clean.len() + FRAME_CRC_BYTES);

        let mut ok = buf.clone();
        assert!(frame_verify_and_strip(&mut ok));
        assert_eq!(ok, clean, "trailer stripped, payload untouched");

        for bit in 0..buf.len() * 8 {
            let mut flipped = buf.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let before = flipped.clone();
            assert!(!frame_verify_and_strip(&mut flipped), "bit {bit} flip went undetected");
            assert_eq!(flipped, before, "failed verification must not mutate the frame");
        }
    }

    #[test]
    fn runt_frames_fail_verification() {
        let mut tiny = vec![0u8; FRAME_HEADER_BYTES + FRAME_CRC_BYTES - 1];
        assert!(!frame_verify_and_strip(&mut tiny));
    }

    #[test]
    fn pool_reuses_buffers() {
        let mut pool = FramePool::new(4096, 8);
        let a = pool.get();
        let b = pool.get();
        assert_eq!(pool.allocated(), 2);
        pool.put(a);
        pool.put(b);
        let c = pool.get();
        assert_eq!(c.capacity(), 4096);
        assert_eq!(pool.allocated(), 2, "no new allocation after recycling");
        assert_eq!(pool.reused(), 1);
    }

    #[test]
    fn pool_bounds_its_free_list() {
        let mut pool = FramePool::new(64, 2);
        for _ in 0..5 {
            let b = pool.get();
            pool.put(b);
        }
        pool.put(Vec::new());
        pool.put(Vec::new());
        pool.put(Vec::new());
        assert!(pool.free.len() <= 2);
    }
}
