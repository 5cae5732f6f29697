//! In-tree CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) at memory speed.
//!
//! Shared by the comm layer (frame trailers on the wire) and the NVRAM
//! layer (per-page write-back checksums), so both planes of the
//! end-to-end integrity story detect corruption with the same code. The
//! build environment has no registry access, so this replaces the usual
//! `crc32fast` dependency.
//!
//! Two kernels sit behind [`crc32`], both bit-identical to the one-table
//! byte loop they replaced (kept as the test reference):
//!
//! * **slice-by-16** — portable; sixteen `const`-built 256-entry tables
//!   retire 16 input bytes per step with independent lookups. Used on every
//!   target, for buffers under 64 bytes, and for the sub-16-byte tail the
//!   folding kernel leaves.
//! * **carry-less-multiply folding** — `x86_64` only, taken when the CPU
//!   reports `pclmulqdq` and `sse4.1` (`is_x86_feature_detected!`, which
//!   std resolves once and caches): four 128-bit accumulators are folded
//!   across 64 input bytes per step, then reduced 512 → 128 → 64 → 32 bits,
//!   the last step by Barrett reduction (Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel 2009, reflected variant).
//!
//! The polynomial is still IEEE, not Castagnoli: a hardware `crc32c` path
//! would have changed every checksum already on the wire and in the page
//! side table; folding gets memory speed with none of that.

/// Reflected IEEE 802.3 generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic one-byte table; `TABLES[k][b]` is the state
/// byte `b` leaves after `k` further zero bytes, so sixteen lookups — one
/// per input byte, each in the table matching its distance from the end of
/// the block — combine by XOR into the state after the whole block.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// CRC-32 of `bytes`. Detects any single-bit error and any error burst up
/// to 32 bits long; random multi-bit corruption slips through with
/// probability 2^-32.
pub fn crc32(bytes: &[u8]) -> u32 {
    !update_folding(!0, bytes).unwrap_or_else(|| update_slice16(!0, bytes))
}

/// Advance the raw (un-inverted) CRC register over `bytes` with the folding
/// kernel; `None` where this host, or this length, cannot run it.
fn update_folding(state: u32, bytes: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_BYTES && clmul::detected() {
        // SAFETY: `clmul::update` is safe code whose only requirement is
        // that the CPU implements `pclmulqdq` and `sse4.1`, which
        // `clmul::detected()` has just confirmed on this very CPU.
        return Some(unsafe { clmul::update(state, bytes) });
    }
    let _ = (state, bytes); // unused off x86_64
    None
}

/// The same over the sixteen tables, 16 bytes at a time.
fn update_slice16(mut state: u32, bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<16>();
    for b in blocks {
        let head = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ state;
        state = TABLES[15][(head & 0xFF) as usize]
            ^ TABLES[14][((head >> 8) & 0xFF) as usize]
            ^ TABLES[13][((head >> 16) & 0xFF) as usize]
            ^ TABLES[12][(head >> 24) as usize];
        for (i, &byte) in b[4..].iter().enumerate() {
            state ^= TABLES[11 - i][byte as usize];
        }
    }
    for &byte in tail {
        state = TABLES[0][((state ^ byte as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The four accumulators need 64 bytes to start; shorter buffers are
    /// the table kernel's.
    pub(super) const MIN_BYTES: usize = 64;

    // Fold and reduction constants in the reflected domain:
    // `bit_reverse_32(x^n mod P) << 1` for the fold distances below,
    // `bit_reverse_33` of P itself and of `floor(x^64 / P)` for the Barrett
    // step. `tests::fold_constants_are_powers_of_x_mod_p` re-derives every
    // one of them by polynomial long division.
    /// x^(512+32) mod P: carries an accumulator's low half 64 bytes forward.
    pub(super) const FOLD_512_LO: i64 = 0x1_5444_2bd4;
    /// x^(512-32) mod P: carries an accumulator's high half 64 bytes forward.
    pub(super) const FOLD_512_HI: i64 = 0x1_c6e4_1596;
    /// x^(128+32) mod P.
    pub(super) const FOLD_128_LO: i64 = 0x1_7519_97d0;
    /// x^(128-32) mod P; also the 128 → 96 bit reduction.
    pub(super) const FOLD_128_HI: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: the 96 → 64 bit reduction.
    pub(super) const FOLD_64: i64 = 0x1_63cd_6124;
    /// P, 33 bits.
    pub(super) const BARRETT_P: i64 = 0x1_db71_0641;
    /// floor(x^64 / P), 33 bits.
    pub(super) const BARRETT_MU: i64 = 0x1_f701_1641;

    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    #[inline]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is a live reference to exactly 16 readable bytes
        // and `_mm_loadu_si128` has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `acc` carried forward by the distance `keys` encodes, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, keys: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advance the raw CRC register over `bytes` (at least [`MIN_BYTES`];
    /// fewer panics). Safe code: callable without `unsafe` from functions
    /// with the same target features, and from anywhere else only inside an
    /// `unsafe` block asserting the CPU has them.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (first, rest) = blocks.split_at(4);
        let (quads, singles) = rest.as_chunks::<4>();

        // the register enters as the highest-order 32 bits of the message
        let mut acc = [
            _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(state as i32)),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        let by_512 = _mm_set_epi64x(FOLD_512_HI, FOLD_512_LO);
        for quad in quads {
            for (a, block) in acc.iter_mut().zip(quad) {
                *a = fold(*a, by_512, load(block));
            }
        }
        let by_128 = _mm_set_epi64x(FOLD_128_HI, FOLD_128_LO);
        let mut x = acc[0];
        for &next in &acc[1..] {
            x = fold(x, by_128, next);
        }
        for block in singles {
            x = fold(x, by_128, load(block));
        }

        // 128 -> 96 -> 64 bits
        let low32 = _mm_set_epi64x(0, 0xFFFF_FFFF);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, by_128, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, FOLD_64), 0x00),
            _mm_srli_si128(x, 4),
        );
        // 64 -> 32 bits, Barrett: q = low32(x) * mu, r = x ^ low32(q) * P
        let p_mu = _mm_set_epi64x(BARRETT_MU, BARRETT_P);
        let q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
        let r = _mm_xor_si128(x, _mm_clmulepi64_si128(_mm_and_si128(q, low32), p_mu, 0x00));
        super::update_slice16(_mm_extract_epi32(r, 1) as u32, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TestRng;

    /// The parent implementation, verbatim: one table, one byte per step.
    fn reference(bytes: &[u8]) -> u32 {
        const fn build_crc32_table() -> [u32; 256] {
            let mut table = [0u32; 256];
            let mut i = 0;
            while i < 256 {
                let mut c = i as u32;
                let mut k = 0;
                while k < 8 {
                    c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                    k += 1;
                }
                table[i] = c;
                i += 1;
            }
            table
        }
        static CRC32_TABLE: [u32; 256] = build_crc32_table();
        let mut c = !0u32;
        for &b in bytes {
            c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    fn slice16(bytes: &[u8]) -> u32 {
        !update_slice16(!0, bytes)
    }

    fn folding(bytes: &[u8]) -> Option<u32> {
        update_folding(!0, bytes).map(|state| !state)
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = TestRng::new(seed);
        (0..len).map(|_| rng.u8()).collect()
    }

    fn assert_all_agree(bytes: &[u8], what: &str) {
        let want = reference(bytes);
        assert_eq!(slice16(bytes), want, "slice-by-16: {what}");
        assert_eq!(crc32(bytes), want, "dispatch: {what}");
        if let Some(got) = folding(bytes) {
            assert_eq!(got, want, "clmul: {what}");
        }
    }

    /// `cargo test -p havoq-util crc::tests::host_kernel -- --nocapture`
    /// names the kernel `crc32` runs on this host for buffers of 64 B and up.
    #[test]
    fn host_kernel() {
        let folds = folding(&[0u8; 64]).is_some();
        println!(
            "crc32 kernel on this host: {}",
            if folds { "pclmulqdq fold-by-4 (slice-by-16 under 64 B)" } else { "slice-by-16" }
        );
    }

    #[test]
    fn known_vector() {
        // the canonical CRC-32/IEEE check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(slice16(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // long enough for the folding kernel: the check string eight times
        assert_all_agree(&b"123456789".repeat(8), "72-byte check string");
    }

    #[test]
    fn kernels_agree_on_every_length_and_alignment() {
        let pool = seeded_bytes(0xC4C32, 600 + 16);
        for offset in 0..16 {
            for len in 0..=600 {
                assert_all_agree(&pool[offset..offset + len], &format!("len {len} at +{offset}"));
            }
        }
    }

    #[test]
    fn kernels_agree_on_frame_page_and_bulk_sizes() {
        // default frame (8 + 64 x 28 + 4), one page, and a buffer that
        // keeps the fold-by-4 loop busy with every tail length after it
        for len in [1804, 4096, (1 << 20) + 1, (1 << 20) + 63, (1 << 20) + 77] {
            assert_all_agree(&seeded_bytes(len as u64, len), &format!("len {len}"));
        }
    }

    #[test]
    fn single_bit_flips_always_detected_on_both_kernels() {
        // a sealed default frame: 1800 bytes of header + records, then the
        // little-endian CRC trailer; every one of its 14 432 bits is flipped
        let mut sealed = seeded_bytes(7, 1800);
        sealed.extend_from_slice(&crc32(&sealed).to_le_bytes());
        let verifies = |kernel: &dyn Fn(&[u8]) -> u32, frame: &[u8]| {
            let (body, trailer) = frame.split_at(frame.len() - 4);
            kernel(body) == u32::from_le_bytes(trailer.try_into().unwrap())
        };
        let fold_or_skip = |b: &[u8]| folding(b).unwrap_or_else(|| slice16(b));
        assert!(verifies(&slice16, &sealed) && verifies(&fold_or_skip, &sealed));
        for bit in 0..sealed.len() * 8 {
            sealed[bit / 8] ^= 1 << (bit % 8);
            assert!(!verifies(&slice16, &sealed), "slice-by-16 missed bit {bit}");
            assert!(!verifies(&fold_or_skip, &sealed), "clmul missed bit {bit}");
            sealed[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// The folding constants are not trusted: each is re-derived here from
    /// the polynomial by shift-and-subtract in the ordinary (unreflected)
    /// domain, then bit-reversed into the form the kernel multiplies by.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_powers_of_x_mod_p() {
        const P: u64 = 0x1_04C1_1DB7;
        let x_pow_mod_p = |n: u32| {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r >> 32 != 0 {
                    r ^= P;
                }
            }
            r as u32
        };
        let fold = |n: u32| (x_pow_mod_p(n).reverse_bits() as i64) << 1;
        assert_eq!(clmul::FOLD_512_LO, fold(512 + 32));
        assert_eq!(clmul::FOLD_512_HI, fold(512 - 32));
        assert_eq!(clmul::FOLD_128_LO, fold(128 + 32));
        assert_eq!(clmul::FOLD_128_HI, fold(128 - 32));
        assert_eq!(clmul::FOLD_64, fold(64));

        let reverse_33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        assert_eq!(clmul::BARRETT_P, reverse_33(P));
        // floor(x^64 / P) by long division
        let (mut rem, mut quot) = (1u128 << 64, 0u64);
        while rem >> 32 != 0 {
            let shift = 127 - rem.leading_zeros() - 32;
            quot |= 1 << shift;
            rem ^= (P as u128) << shift;
        }
        assert_eq!(clmul::BARRETT_MU, reverse_33(quot));
        assert_eq!(POLY, (P as u32).reverse_bits(), "the table polynomial is the same P");
    }
}
