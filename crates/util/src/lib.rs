//! Dependency-free utilities shared across the workspace.
//!
//! The build environment has no access to a crates.io registry, so the
//! handful of small external crates the workspace used to lean on are
//! implemented here instead:
//!
//! - [`FxHashMap`] / [`FxHashSet`]: `HashMap`/`HashSet` using the Fx hash
//!   (the rustc-internal multiplicative hash) — non-cryptographic, very
//!   fast on the small integer keys the graph code hashes.
//! - [`Histogram`]: a tiny fixed-bucket histogram for instrumentation
//!   (I/O queue depths, frame fills) with exact mean/max tracking.
//! - [`testing`]: a deterministic property-test harness (seeded cases +
//!   a small PRNG) replacing proptest for the invariant suites.
//! - [`crc`]: table-driven CRC-32 shared by the wire frames and the page
//!   cache's per-page write-back checksums.
//! - [`parallel`]: a scoped worker pool, atomic bitmap, and per-worker
//!   cells backing the intra-rank parallel traversal (DESIGN.md §11).

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod crc;
pub mod parallel;
pub mod testing;

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed by [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiplicative hash used inside rustc: fold each word into the
/// state with a rotate + xor + multiply. Not DoS-resistant; the workspace
/// only hashes trusted vertex ids and file offsets.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(tail) | (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// Number of linear buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A tiny fixed-size linear histogram for instrumentation counters.
///
/// Samples are `u64` values; sample `v` lands in bucket `min(v, 31)`, so
/// the histogram resolves depths 0..=30 exactly and lumps everything
/// larger into the final bucket. Alongside the buckets it tracks the
/// exact sum, count, and max, so [`Histogram::mean`] and
/// [`Histogram::max`] are exact even for clamped samples.
///
/// `Copy` and allocation-free on purpose: snapshots of live counters get
/// embedded in stats structs that cross thread and (simulated) rank
/// boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    sum: u64,
    count: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram { buckets: [0; HISTOGRAM_BUCKETS], sum: 0, count: 0, max: 0 }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = (value as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.sum += value;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum sample (0 if empty).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean of the samples (0.0 if empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Per-bucket counts; bucket `i < 31` holds samples equal to `i`,
    /// bucket 31 holds samples `>= 31`.
    #[inline]
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Fold another histogram into this one (used to aggregate per-rank
    /// or per-worker histograms).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.sum += other.sum;
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, i * 3);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&(i * 3)));
        }
    }

    #[test]
    fn set_dedups() {
        let mut s: FxHashSet<(u64, u64)> = FxHashSet::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
        assert!(s.insert((2, 1)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn hasher_is_deterministic_and_spreads() {
        let h = |v: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(v);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        let mut outs: FxHashSet<u64> = FxHashSet::default();
        for i in 0..10_000u64 {
            outs.insert(h(i));
        }
        assert_eq!(outs.len(), 10_000, "no collisions on small sequential keys");
    }

    #[test]
    fn string_keys_work() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("alpha".into(), 1);
        m.insert("beta".into(), 2);
        assert_eq!(m["alpha"], 1);
        assert_eq!(m["beta"], 2);
    }

    #[test]
    fn histogram_records_and_means() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        for v in [0u64, 1, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 6);
        assert_eq!(h.max(), 3);
        assert_eq!(h.mean(), 1.5);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[3], 1);
    }

    #[test]
    fn histogram_clamps_to_last_bucket_but_keeps_exact_stats() {
        let mut h = Histogram::new();
        h.record(1000);
        h.record(31);
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 1], 2);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 1031);
    }

    #[test]
    fn histogram_merge_is_additive() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(2);
        a.record(5);
        b.record(7);
        b.record(40);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.sum(), 54);
        assert_eq!(merged.max(), 40);
        assert_eq!(merged.buckets()[2], 1);
        assert_eq!(merged.buckets()[7], 1);
        assert_eq!(merged.buckets()[HISTOGRAM_BUCKETS - 1], 1);
    }
}
