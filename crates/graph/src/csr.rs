//! Local compressed-sparse-row storage, in memory or semi-external.
//!
//! Each rank stores its partition of the edge list as CSR (paper Section
//! III-A1: "we choose to store each local partition as a compressed sparse
//! row"). In the semi-external configurations the offset array and all
//! algorithm state stay in DRAM while the target array lives behind the
//! NVRAM page cache — the paper's Section VIII-A argument for why edge-list
//! partitioning suits semi-external memory (vertex-proportional state in
//! memory, edge-proportional bulk on flash).
//!
//! The third storage variant compresses the external target pool: sorted
//! neighbor lists are delta-encoded with LEB128 varint gaps
//! ([`crate::varint`]) into a byte-granular pool, and the per-vertex
//! `offsets` become *byte* offsets paired with a DRAM degree table. Slices
//! are decoded on access into a per-thread scratch buffer, trading decode
//! CPU for several-fold more edges per cache byte (DESIGN.md §14).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use havoq_nvram::cache::{CacheStatsSnapshot, PageCache, PageCacheConfig};
use havoq_nvram::device::{BlockDevice, DeviceProfile, MemDevice, SimNvram};
use havoq_nvram::extvec::{ExtStore, ExternalVec};

use crate::types::Edge;
use crate::varint;

/// Where the CSR target array lives.
#[derive(Clone, Copy, Debug)]
pub enum CsrStorage {
    /// Targets in DRAM (the paper's BG/P configuration).
    InMemory,
    /// Targets behind a page cache over a simulated NVRAM device (the
    /// Hyperion-DIT configuration).
    External { profile: DeviceProfile, cache: PageCacheConfig },
    /// Targets gap-compressed (varint deltas over sorted neighbor lists)
    /// into a byte pool behind the page cache; adjacency slices are decoded
    /// on access. Duplicate targets (`GraphConfig { dedup: false }`) encode
    /// as zero gaps and round-trip exactly (see [`crate::varint`]).
    ExternalCompressed { profile: DeviceProfile, cache: PageCacheConfig },
}

impl CsrStorage {
    /// Short label for bench tables and test matrices.
    pub fn label(&self) -> &'static str {
        match self {
            CsrStorage::InMemory => "mem",
            CsrStorage::External { .. } => "ext",
            CsrStorage::ExternalCompressed { .. } => "ext-comp",
        }
    }
}

/// Graph construction options.
#[derive(Clone, Copy, Debug)]
pub struct GraphConfig {
    pub storage: CsrStorage,
    /// Drop duplicate edges during construction.
    pub dedup: bool,
    /// Global vertex count. `None` infers `max endpoint + 1` from the edge
    /// list; set it explicitly when trailing vertices may be isolated.
    pub num_vertices: Option<u64>,
}

impl Default for GraphConfig {
    fn default() -> Self {
        Self { storage: CsrStorage::InMemory, dedup: true, num_vertices: None }
    }
}

impl GraphConfig {
    /// Semi-external configuration with the given device tier and cache
    /// capacity.
    pub fn external(profile: DeviceProfile, cache: PageCacheConfig) -> Self {
        Self { storage: CsrStorage::External { profile, cache }, ..Self::default() }
    }

    /// Semi-external gap-compressed configuration: same device tier and
    /// cache budget as [`GraphConfig::external`], but targets are stored as
    /// varint gap bytes and decoded per slice on access.
    pub fn external_compressed(profile: DeviceProfile, cache: PageCacheConfig) -> Self {
        Self { storage: CsrStorage::ExternalCompressed { profile, cache }, ..Self::default() }
    }

    /// Set the global vertex count explicitly.
    pub fn with_num_vertices(mut self, n: u64) -> Self {
        self.num_vertices = Some(n);
        self
    }
}

enum Targets {
    Mem(Vec<u64>),
    Ext {
        vec: ExternalVec<u64>,
        cache: Arc<PageCache>,
    },
    ExtCompressed {
        /// Varint gap bytes, all vertices concatenated; `offsets` index it
        /// in *bytes*.
        pool: ExternalVec<u8>,
        cache: Arc<PageCache>,
        /// DRAM degree table — byte offsets can't recover element counts.
        degrees: Vec<u64>,
        /// Uncompressed size (`num_edges * 8`), for the compression ratio.
        raw_bytes: u64,
        /// Slices decoded since construction.
        adj_decodes: AtomicU64,
        /// Encoded bytes pulled through the decoder since construction.
        adj_decoded_bytes: AtomicU64,
    },
}

/// Storage-layer counters for the compressed CSR: how big the encoded pool
/// is versus raw `u64` targets, and how much decode work traversals did.
/// Embedded in `TraversalStats` (as `csr`, as a per-traversal delta) next
/// to the page-cache counters so the decode-CPU-vs-IO-stall trade is
/// measured, not guessed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CsrStorageSnapshot {
    /// Total edges stored.
    pub num_edges: u64,
    /// Bytes of the encoded target pool.
    pub encoded_bytes: u64,
    /// Bytes the same targets would occupy uncompressed (`num_edges * 8`).
    pub raw_bytes: u64,
    /// Adjacency slices decoded since construction.
    pub adj_decodes: u64,
    /// Encoded bytes pulled through the decoder since construction.
    pub adj_decoded_bytes: u64,
}

impl CsrStorageSnapshot {
    /// The decode work done since the earlier snapshot `before` of the
    /// same CSR; the three sizes are not counters and pass through.
    pub fn since(&self, before: &Self) -> Self {
        Self {
            adj_decodes: self.adj_decodes - before.adj_decodes,
            adj_decoded_bytes: self.adj_decoded_bytes - before.adj_decoded_bytes,
            ..*self
        }
    }

    /// Encoded bytes per stored edge (8.0 for the uncompressed layout).
    pub fn bytes_per_edge(&self) -> f64 {
        if self.num_edges == 0 {
            0.0
        } else {
            self.encoded_bytes as f64 / self.num_edges as f64
        }
    }

    /// `raw_bytes / encoded_bytes` — edges-per-cache-byte multiplier versus
    /// the uncompressed layout at equal cache budget.
    pub fn compression_ratio(&self) -> f64 {
        if self.encoded_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.encoded_bytes as f64
        }
    }
}

/// One rank's CSR partition covering the contiguous vertex range
/// `[vertex_base, vertex_base + num_vertices)`.
pub struct LocalCsr {
    /// `offsets[i]..offsets[i+1]` indexes local vertex i's targets — in
    /// elements for `Mem`/`Ext`, in *bytes* of the encoded pool for
    /// `ExtCompressed` (degrees then come from the DRAM degree table).
    offsets: Vec<u64>,
    /// Total edge count, independent of offset granularity.
    edge_count: u64,
    targets: Targets,
}

thread_local! {
    /// Scratch buffer for external adjacency reads (one rank = one thread).
    static ADJ_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Scratch for the encoded byte slice of one compressed adjacency read.
    static BYTE_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

impl LocalCsr {
    /// Build from this rank's slice of the globally sorted edge list.
    /// `edges` must be sorted by `(src, dst)` with all sources inside
    /// `[vertex_base, vertex_base + num_vertices)`; duplicate/self-loop
    /// filtering has already happened upstream.
    pub fn build(
        vertex_base: u64,
        num_vertices: usize,
        edges: &[Edge],
        storage: CsrStorage,
    ) -> Self {
        let mut offsets = vec![0u64; num_vertices + 1];
        for e in edges {
            debug_assert!(
                e.src >= vertex_base && e.src < vertex_base + num_vertices as u64,
                "edge source {} outside partition [{vertex_base}, +{num_vertices})",
                e.src
            );
            offsets[(e.src - vertex_base) as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        debug_assert!(edges.windows(2).all(|w| w[0].key() <= w[1].key()), "edges not sorted");
        let edge_count = edges.len() as u64;
        let targets = match storage {
            CsrStorage::InMemory => Targets::Mem(edges.iter().map(|e| e.dst).collect()),
            CsrStorage::External { profile, cache } => {
                let device: Arc<dyn BlockDevice> =
                    Arc::new(SimNvram::new(MemDevice::new(), profile));
                let cache = Arc::new(PageCache::new(device, cache));
                let store = ExtStore::new(Arc::clone(&cache));
                let tmp: Vec<u64> = edges.iter().map(|e| e.dst).collect();
                let vec = store.alloc_from(&tmp);
                // construction traffic shouldn't pollute traversal stats
                cache.flush();
                cache.reset_stats();
                Targets::Ext { vec, cache }
            }
            CsrStorage::ExternalCompressed { profile, cache } => {
                // Gap-encode each vertex's sorted slice, then rewrite the
                // element offsets into byte offsets over the encoded pool.
                let mut pool_bytes = Vec::new();
                let mut byte_offsets = vec![0u64; num_vertices + 1];
                let mut degrees = vec![0u64; num_vertices];
                let mut slice = Vec::new();
                for li in 0..num_vertices {
                    let (s, e) = (offsets[li] as usize, offsets[li + 1] as usize);
                    degrees[li] = (e - s) as u64;
                    slice.clear();
                    slice.extend(edges[s..e].iter().map(|ed| ed.dst));
                    varint::encode_gaps(&slice, &mut pool_bytes);
                    byte_offsets[li + 1] = pool_bytes.len() as u64;
                }
                offsets = byte_offsets;
                let device: Arc<dyn BlockDevice> =
                    Arc::new(SimNvram::new(MemDevice::new(), profile));
                let cache = Arc::new(PageCache::new(device, cache));
                let store = ExtStore::new(Arc::clone(&cache));
                let pool = store.alloc_from(&pool_bytes);
                cache.flush();
                cache.reset_stats();
                Targets::ExtCompressed {
                    pool,
                    cache,
                    degrees,
                    raw_bytes: edge_count * 8,
                    adj_decodes: AtomicU64::new(0),
                    adj_decoded_bytes: AtomicU64::new(0),
                }
            }
        };
        Self { offsets, edge_count, targets }
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.edge_count
    }

    /// Local out-degree of local vertex `li` (this partition's slice of the
    /// adjacency list only). On compressed storage this reads the DRAM
    /// degree table — never the encoded pool.
    #[inline]
    pub fn local_out_degree(&self, li: usize) -> u64 {
        match &self.targets {
            Targets::ExtCompressed { degrees, .. } => degrees[li],
            _ => self.offsets[li + 1] - self.offsets[li],
        }
    }

    /// Run `f` over local vertex `li`'s (sorted) targets.
    #[inline]
    pub fn with_adj<R>(&self, li: usize, f: impl FnOnce(&[u64]) -> R) -> R {
        let start = self.offsets[li] as usize;
        let end = self.offsets[li + 1] as usize;
        match &self.targets {
            Targets::Mem(t) => f(&t[start..end]),
            Targets::Ext { vec, .. } => ADJ_SCRATCH.with(|s| {
                let mut s = s.borrow_mut();
                s.clear();
                s.resize(end - start, 0);
                // overlap: queue background prefetch of the whole slice
                // (no-op in sync I/O mode) before the blocking scan
                vec.advise(start, end - start);
                vec.read_range(start, &mut s);
                f(&s)
            }),
            Targets::ExtCompressed { pool, degrees, adj_decodes, adj_decoded_bytes, .. } => {
                let degree = degrees[li] as usize;
                if degree == 0 {
                    return f(&[]);
                }
                adj_decodes.fetch_add(1, Ordering::Relaxed);
                adj_decoded_bytes.fetch_add((end - start) as u64, Ordering::Relaxed);
                BYTE_SCRATCH.with(|b| {
                    let mut b = b.borrow_mut();
                    b.clear();
                    b.resize(end - start, 0);
                    pool.advise(start, end - start);
                    pool.read_bytes(start, &mut b);
                    ADJ_SCRATCH.with(|s| {
                        let mut s = s.borrow_mut();
                        s.clear();
                        varint::decode_gaps(&b, degree, &mut s);
                        f(&s)
                    })
                })
            }
        }
    }

    /// Scan local vertex `li`'s targets in order until `pred` returns true,
    /// yielding `(targets_scanned, Some(hit))` — or `(degree, None)` after a
    /// full scan. On compressed storage this streams the gap decoder and
    /// stops decoding at the hit; on the other backends it walks the slice.
    /// The scanned count is identical across storages, so `edges_inspected`
    /// fingerprints stay storage-invariant.
    pub fn scan_adj(&self, li: usize, mut pred: impl FnMut(u64) -> bool) -> (u64, Option<u64>) {
        if let Targets::ExtCompressed { pool, degrees, adj_decodes, adj_decoded_bytes, .. } =
            &self.targets
        {
            let degree = degrees[li] as usize;
            if degree == 0 {
                return (0, None);
            }
            let start = self.offsets[li] as usize;
            let end = self.offsets[li + 1] as usize;
            adj_decodes.fetch_add(1, Ordering::Relaxed);
            adj_decoded_bytes.fetch_add((end - start) as u64, Ordering::Relaxed);
            return BYTE_SCRATCH.with(|b| {
                let mut b = b.borrow_mut();
                b.clear();
                b.resize(end - start, 0);
                pool.advise(start, end - start);
                pool.read_bytes(start, &mut b);
                let mut dec = varint::GapDecoder::new(&b);
                for scanned in 0..degree as u64 {
                    let t = dec.next_target();
                    if pred(t) {
                        return (scanned + 1, Some(t));
                    }
                }
                (degree as u64, None)
            });
        }
        self.with_adj(li, |adj| {
            for (scanned, &t) in adj.iter().enumerate() {
                if pred(t) {
                    return (scanned as u64 + 1, Some(t));
                }
            }
            (adj.len() as u64, None)
        })
    }

    /// True if local vertex `li`'s slice contains `target` (binary search —
    /// targets are sorted because edges were sorted by `(src, dst)`).
    pub fn adj_contains(&self, li: usize, target: u64) -> bool {
        self.with_adj(li, |adj| adj.binary_search(&target).is_ok())
    }

    /// Page-cache statistics (external storage only).
    pub fn cache_stats(&self) -> Option<CacheStatsSnapshot> {
        match &self.targets {
            Targets::Mem(_) => None,
            Targets::Ext { cache, .. } | Targets::ExtCompressed { cache, .. } => {
                Some(cache.stats())
            }
        }
    }

    /// I/O engine statistics — queue depths, outstanding gauge, service
    /// times (external storage only).
    pub fn io_stats(&self) -> Option<havoq_nvram::IoStatsSnapshot> {
        match &self.targets {
            Targets::Mem(_) => None,
            Targets::Ext { cache, .. } | Targets::ExtCompressed { cache, .. } => {
                Some(cache.io_stats())
            }
        }
    }

    /// The page cache (external storage only), e.g. to clear before a
    /// cold-cache run.
    pub fn cache(&self) -> Option<&Arc<PageCache>> {
        match &self.targets {
            Targets::Mem(_) => None,
            Targets::Ext { cache, .. } | Targets::ExtCompressed { cache, .. } => Some(cache),
        }
    }

    /// Compression + decode counters (compressed storage only).
    pub fn storage_snapshot(&self) -> Option<CsrStorageSnapshot> {
        match &self.targets {
            Targets::ExtCompressed { raw_bytes, adj_decodes, adj_decoded_bytes, .. } => {
                Some(CsrStorageSnapshot {
                    num_edges: self.edge_count,
                    encoded_bytes: *self.offsets.last().unwrap(),
                    raw_bytes: *raw_bytes,
                    adj_decodes: adj_decodes.load(Ordering::Relaxed),
                    adj_decoded_bytes: adj_decoded_bytes.load(Ordering::Relaxed),
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_edges() -> Vec<Edge> {
        // base 10, 4 vertices: 10->{11,12}, 11->{10}, 13->{10,11,12}
        vec![
            Edge::new(10, 11),
            Edge::new(10, 12),
            Edge::new(11, 10),
            Edge::new(13, 10),
            Edge::new(13, 11),
            Edge::new(13, 12),
        ]
    }

    fn check(csr: &LocalCsr) {
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 6);
        assert_eq!(csr.local_out_degree(0), 2);
        assert_eq!(csr.local_out_degree(1), 1);
        assert_eq!(csr.local_out_degree(2), 0);
        assert_eq!(csr.local_out_degree(3), 3);
        csr.with_adj(0, |a| assert_eq!(a, &[11, 12]));
        csr.with_adj(2, |a| assert!(a.is_empty()));
        csr.with_adj(3, |a| assert_eq!(a, &[10, 11, 12]));
        assert!(csr.adj_contains(3, 11));
        assert!(!csr.adj_contains(3, 13));
        assert!(!csr.adj_contains(2, 10));
    }

    #[test]
    fn in_memory_build() {
        let csr = LocalCsr::build(10, 4, &sample_edges(), CsrStorage::InMemory);
        check(&csr);
        assert!(csr.cache_stats().is_none());
    }

    #[test]
    fn external_build_matches_in_memory() {
        let storage = CsrStorage::External {
            profile: DeviceProfile::dram(),
            cache: PageCacheConfig {
                page_size: 64,
                capacity_pages: 2,
                shards: 1,
                ..PageCacheConfig::default()
            },
        };
        let csr = LocalCsr::build(10, 4, &sample_edges(), storage);
        check(&csr);
        let stats = csr.cache_stats().unwrap();
        assert!(stats.accesses() > 0, "external reads must hit the cache layer");
    }

    #[test]
    fn external_large_adjacency_spills() {
        let base = 0u64;
        let n = 64usize;
        let mut edges = Vec::new();
        for v in 0..n as u64 {
            for t in 0..32u64 {
                edges.push(Edge::new(v, (v + t) % n as u64));
            }
        }
        edges.sort_unstable_by_key(|e| e.key());
        edges.dedup();
        let storage = CsrStorage::External {
            profile: DeviceProfile::dram(),
            cache: PageCacheConfig {
                page_size: 256,
                capacity_pages: 4,
                shards: 2,
                ..PageCacheConfig::default()
            },
        };
        let csr = LocalCsr::build(base, n, &edges, storage);
        // two sweeps: second should be recognizable in stats as well
        let mut count = 0u64;
        for _ in 0..2 {
            for v in 0..n {
                csr.with_adj(v, |a| count += a.len() as u64);
            }
        }
        assert_eq!(count, 2 * csr.num_edges());
        let st = csr.cache_stats().unwrap();
        assert!(st.evictions > 0, "tiny cache must evict: {st:?}");
    }

    #[test]
    fn external_async_io_matches_in_memory() {
        use havoq_nvram::IoConfig;
        let storage = CsrStorage::External {
            profile: DeviceProfile::fusion_io(),
            cache: PageCacheConfig {
                page_size: 64,
                capacity_pages: 8,
                shards: 2,
                readahead_pages: 4,
                io: IoConfig::asynchronous(),
            },
        };
        let csr = LocalCsr::build(10, 4, &sample_edges(), storage);
        check(&csr);
        let io = csr.io_stats().unwrap();
        assert!(io.workers > 0, "async engine must be running: {io:?}");
    }

    #[test]
    fn empty_partition() {
        let csr = LocalCsr::build(5, 0, &[], CsrStorage::InMemory);
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(csr.num_edges(), 0);
    }

    fn compressed_storage(page_size: usize, pages: usize) -> CsrStorage {
        CsrStorage::ExternalCompressed {
            profile: DeviceProfile::dram(),
            cache: PageCacheConfig {
                page_size,
                capacity_pages: pages,
                shards: 1,
                ..PageCacheConfig::default()
            },
        }
    }

    #[test]
    fn compressed_build_matches_in_memory() {
        let csr = LocalCsr::build(10, 4, &sample_edges(), compressed_storage(64, 2));
        check(&csr);
        let snap = csr.storage_snapshot().unwrap();
        assert_eq!(snap.num_edges, 6);
        assert_eq!(snap.raw_bytes, 48);
        assert!(snap.encoded_bytes < snap.raw_bytes, "gaps must compress: {snap:?}");
        assert!(snap.adj_decodes > 0, "check() decoded slices");
        assert!(csr.cache_stats().unwrap().accesses() > 0);
    }

    #[test]
    fn compressed_empty_adjacency_decodes_nothing() {
        let csr = LocalCsr::build(10, 4, &sample_edges(), compressed_storage(64, 2));
        let before = csr.storage_snapshot().unwrap().adj_decodes;
        csr.with_adj(2, |a| assert!(a.is_empty()));
        assert_eq!(csr.storage_snapshot().unwrap().adj_decodes, before);
    }

    #[test]
    fn compressed_large_adjacency_spills_across_pages() {
        // dense neighbor runs + tiny pages: slices straddle page boundaries
        let n = 64usize;
        let mut edges = Vec::new();
        for v in 0..n as u64 {
            for t in 0..32u64 {
                edges.push(Edge::new(v, (v + t) % n as u64));
            }
        }
        edges.sort_unstable_by_key(|e| e.key());
        edges.dedup();
        let mem = LocalCsr::build(0, n, &edges, CsrStorage::InMemory);
        let comp = LocalCsr::build(0, n, &edges, compressed_storage(64, 3));
        for v in 0..n {
            mem.with_adj(v, |want| {
                comp.with_adj(v, |got| assert_eq!(got, want, "vertex {v}"));
            });
            assert_eq!(comp.local_out_degree(v), mem.local_out_degree(v));
        }
        let st = comp.cache_stats().unwrap();
        assert!(st.evictions > 0, "tiny cache must evict: {st:?}");
        let snap = comp.storage_snapshot().unwrap();
        // mostly gap-1 runs: near one byte per edge after the absolute head
        assert!(snap.bytes_per_edge() < 2.0, "expected dense compression: {snap:?}");
        assert!(snap.compression_ratio() > 4.0, "{snap:?}");
    }

    #[test]
    fn compressed_accepts_duplicate_targets() {
        // dedup: false upstream — zero gaps must round-trip exactly
        let edges = vec![
            Edge::new(0, 5),
            Edge::new(0, 5),
            Edge::new(0, 5),
            Edge::new(0, 9),
            Edge::new(1, 9),
            Edge::new(1, 9),
        ];
        let csr = LocalCsr::build(0, 2, &edges, compressed_storage(64, 2));
        csr.with_adj(0, |a| assert_eq!(a, &[5, 5, 5, 9]));
        csr.with_adj(1, |a| assert_eq!(a, &[9, 9]));
        assert_eq!(csr.num_edges(), 6);
        assert_eq!(csr.local_out_degree(0), 4);
    }

    #[test]
    fn scan_adj_counts_match_across_storages() {
        let edges = sample_edges();
        let mem = LocalCsr::build(10, 4, &edges, CsrStorage::InMemory);
        let comp = LocalCsr::build(10, 4, &edges, compressed_storage(64, 2));
        for li in 0..4 {
            for needle in [10u64, 11, 12, 13, 99] {
                let want = mem.scan_adj(li, |t| t == needle);
                let got = comp.scan_adj(li, |t| t == needle);
                assert_eq!(got, want, "li={li} needle={needle}");
            }
        }
        // early exit: hit on the first target scans exactly one
        assert_eq!(comp.scan_adj(3, |t| t == 10), (1, Some(10)));
        // miss scans the whole degree
        assert_eq!(comp.scan_adj(3, |t| t == 99), (3, None));
    }

    #[test]
    fn compressed_snapshot_zero_after_build() {
        let csr = LocalCsr::build(10, 4, &sample_edges(), compressed_storage(64, 2));
        let snap = csr.storage_snapshot().unwrap();
        assert_eq!(snap.adj_decodes, 0, "construction must not decode");
        assert_eq!(snap.adj_decoded_bytes, 0);
    }
}
