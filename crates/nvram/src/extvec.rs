//! Typed external arrays over the page cache.
//!
//! The paper's semi-external design keeps the vertex set (algorithm state,
//! CSR offsets) in DRAM and the edge set in NVRAM. [`ExternalVec<T>`] is the
//! edge-set container: a fixed-length typed array whose bytes live behind a
//! [`PageCache`], with bulk range reads for adjacency-list scans.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cache::PageCache;

/// Plain-old-data element that can live on a byte-addressed device.
///
/// # Safety
/// Implementors must be fixed-size values with no padding or invalid bit
/// patterns under the provided little-endian encoding.
pub trait Pod: Copy + Sized {
    const BYTES: usize;
    fn write_le(&self, out: &mut [u8]);
    fn read_le(inp: &[u8]) -> Self;
}

macro_rules! impl_pod_int {
    ($($t:ty),*) => {$(
        impl Pod for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn write_le(&self, out: &mut [u8]) {
                out[..Self::BYTES].copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(inp: &[u8]) -> Self {
                let mut b = [0u8; std::mem::size_of::<$t>()];
                b.copy_from_slice(&inp[..Self::BYTES]);
                <$t>::from_le_bytes(b)
            }
        }
    )*};
}

impl_pod_int!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

thread_local! {
    /// Reused byte buffer of [`ExternalVec::read_range`]: adjacency reads
    /// call it once per visitor, so a fresh buffer each time would put an
    /// allocation on every edge scan.
    static READ_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Bump allocator that parcels one cached device into typed arrays.
pub struct ExtStore {
    cache: Arc<PageCache>,
    next_offset: AtomicU64,
}

impl ExtStore {
    pub fn new(cache: Arc<PageCache>) -> Self {
        Self { cache, next_offset: AtomicU64::new(0) }
    }

    pub fn cache(&self) -> &Arc<PageCache> {
        &self.cache
    }

    /// Allocate a zeroed external array of `len` elements, page-aligned so
    /// arrays never share pages (matches the paper's per-structure files).
    pub fn alloc<T: Pod>(&self, len: usize) -> ExternalVec<T> {
        let bytes = (len * T::BYTES) as u64;
        let page = self.cache.config().page_size as u64;
        let aligned = bytes.div_ceil(page) * page;
        let base = self.next_offset.fetch_add(aligned, Ordering::SeqCst);
        // Announce the allocated extent so readahead can run to the end of
        // the array even before its bytes reach the device.
        self.cache.note_len(base + aligned);
        ExternalVec { cache: Arc::clone(&self.cache), base, len, _t: PhantomData }
    }

    /// Allocate and fill from a slice.
    pub fn alloc_from<T: Pod>(&self, data: &[T]) -> ExternalVec<T> {
        let v = self.alloc::<T>(data.len());
        v.write_range(0, data);
        v
    }
}

/// Fixed-length typed array stored behind the page cache.
pub struct ExternalVec<T: Pod> {
    cache: Arc<PageCache>,
    base: u64,
    len: usize,
    _t: PhantomData<T>,
}

impl<T: Pod> ExternalVec<T> {
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn offset_of(&self, index: usize) -> u64 {
        debug_assert!(index <= self.len, "external index {index} out of bounds {}", self.len);
        self.base + (index * T::BYTES) as u64
    }

    /// Read one element.
    pub fn get(&self, index: usize) -> T {
        assert!(index < self.len, "index {index} out of bounds {}", self.len);
        let mut buf = [0u8; 16];
        self.cache.read_at(self.offset_of(index), &mut buf[..T::BYTES]);
        T::read_le(&buf)
    }

    /// Write one element.
    pub fn set(&self, index: usize, value: T) {
        assert!(index < self.len, "index {index} out of bounds {}", self.len);
        let mut buf = [0u8; 16];
        value.write_le(&mut buf);
        self.cache.write_at(self.offset_of(index), &buf[..T::BYTES]);
    }

    /// Hint that `[start, start + len)` will be read soon: in async I/O
    /// mode this queues background prefetch for the covered pages that are
    /// not already cached or being filled, and returns immediately; a
    /// fully resident range queues nothing (see [`PageCache::advise`]).
    /// A no-op otherwise.
    pub fn advise(&self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        debug_assert!(start + len <= self.len, "advise range out of bounds");
        self.cache.advise(self.offset_of(start), (len * T::BYTES) as u64);
    }

    /// Bulk-read `[start, start + out.len())` — the adjacency-scan fast path:
    /// one cache traversal per page rather than per element.
    pub fn read_range(&self, start: usize, out: &mut [T]) {
        assert!(start + out.len() <= self.len, "range out of bounds");
        if out.is_empty() {
            return;
        }
        READ_SCRATCH.with(|b| {
            let mut bytes = b.borrow_mut();
            bytes.clear();
            bytes.resize(out.len() * T::BYTES, 0);
            self.cache.read_at(self.offset_of(start), &mut bytes);
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = T::read_le(&bytes[i * T::BYTES..]);
            }
        });
    }

    /// Bulk-write `data` at `start`.
    pub fn write_range(&self, start: usize, data: &[T]) {
        assert!(start + data.len() <= self.len, "range out of bounds");
        if data.is_empty() {
            return;
        }
        let mut bytes = vec![0u8; data.len() * T::BYTES];
        for (i, v) in data.iter().enumerate() {
            v.write_le(&mut bytes[i * T::BYTES..]);
        }
        self.cache.write_at(self.offset_of(start), &bytes);
    }

    /// Copy the whole array into memory (tests / small arrays only).
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = vec![T::read_le(&[0u8; 16]); self.len];
        self.read_range(0, &mut out);
        out
    }
}

impl ExternalVec<u8> {
    /// Byte-granular bulk read straight into `out`, skipping the generic
    /// per-element decode loop — the compressed-CSR decode path reads
    /// varint byte slices at arbitrary (unaligned) offsets, routinely
    /// spanning page boundaries, and the cache already splits one logical
    /// read across the covered pages.
    pub fn read_bytes(&self, start: usize, out: &mut [u8]) {
        assert!(start + out.len() <= self.len, "range out of bounds");
        if out.is_empty() {
            return;
        }
        self.cache.read_at(self.offset_of(start), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PageCacheConfig;
    use crate::device::{BlockDevice, MemDevice};

    fn store(pages: usize) -> ExtStore {
        let dev = Arc::new(MemDevice::new());
        let cache = Arc::new(PageCache::new(
            dev as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 128,
                capacity_pages: pages,
                shards: 2,
                ..PageCacheConfig::default()
            },
        ));
        ExtStore::new(cache)
    }

    #[test]
    fn get_set_roundtrip() {
        let st = store(8);
        let v = st.alloc::<u64>(100);
        for i in 0..100 {
            v.set(i, (i * i) as u64);
        }
        for i in 0..100 {
            assert_eq!(v.get(i), (i * i) as u64);
        }
    }

    #[test]
    fn zero_initialized() {
        let st = store(8);
        let v = st.alloc::<u32>(50);
        assert!(v.to_vec().iter().all(|&x| x == 0));
    }

    #[test]
    fn bulk_range_roundtrip_across_pages() {
        let st = store(4); // tiny cache forces eviction during the scan
        let data: Vec<u64> = (0..1000).map(|i| i * 3 + 1).collect();
        let v = st.alloc_from(&data);
        let mut out = vec![0u64; 1000];
        v.read_range(0, &mut out);
        assert_eq!(out, data);
        // partial range
        let mut mid = vec![0u64; 10];
        v.read_range(495, &mut mid);
        assert_eq!(mid, data[495..505]);
    }

    #[test]
    fn arrays_do_not_alias() {
        let st = store(16);
        let a = st.alloc::<u64>(10);
        let b = st.alloc::<u64>(10);
        for i in 0..10 {
            a.set(i, 1000 + i as u64);
            b.set(i, 2000 + i as u64);
        }
        for i in 0..10 {
            assert_eq!(a.get(i), 1000 + i as u64);
            assert_eq!(b.get(i), 2000 + i as u64);
        }
    }

    #[test]
    fn mixed_element_types() {
        let st = store(8);
        let a = st.alloc::<u32>(7);
        let b = st.alloc::<f64>(7);
        for i in 0..7 {
            a.set(i, i as u32 * 11);
            b.set(i, i as f64 / 3.0);
        }
        for i in 0..7 {
            assert_eq!(a.get(i), i as u32 * 11);
            assert!((b.get(i) - i as f64 / 3.0).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_get_panics() {
        let st = store(4);
        let v = st.alloc::<u64>(3);
        let _ = v.get(3);
    }

    #[test]
    fn byte_reads_span_page_boundaries() {
        // page_size = 128: every 128th byte starts a new page, so these
        // windows cross one or more boundaries at unaligned offsets
        let st = store(4);
        let data: Vec<u8> = (0..1024u32).map(|i| (i.wrapping_mul(37) % 251) as u8).collect();
        let v = st.alloc_from(&data);
        for (start, len) in [(0usize, 1024usize), (127, 2), (100, 300), (511, 513), (1, 255)] {
            let mut out = vec![0u8; len];
            v.read_bytes(start, &mut out);
            assert_eq!(out, data[start..start + len], "window [{start}, +{len})");
        }
        // the generic path agrees with the byte fast path
        let mut generic = vec![0u8; 300];
        v.read_range(100, &mut generic);
        let mut fast = vec![0u8; 300];
        v.read_bytes(100, &mut fast);
        assert_eq!(generic, fast);
    }

    #[test]
    fn works_through_tiny_cache_with_spill() {
        // cache: 2 pages of 128B = 256B; array: 4KB -> constant spill
        let st = store(2);
        let n = 512;
        let v = st.alloc::<u64>(n);
        for i in 0..n {
            v.set(i, (n - i) as u64);
        }
        for i in (0..n).rev() {
            assert_eq!(v.get(i), (n - i) as u64);
        }
        let stats = st.cache().stats();
        assert!(stats.evictions > 0, "expected spill, got {stats:?}");
    }
}
