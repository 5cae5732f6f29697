//! The only file that calls into the library crates (`havoq-util`,
//! `havoq-comm`, `havoq-nvram`, `havoq-graph`, `havoq-core`). Everything
//! else in the benchmark sees the plain types defined here, so when a
//! later issue reshapes a library interface (ROADMAP items 2 and 3) this
//! adapter changes and the workloads, metrics and numbers do not.
//!
//! Every layer is measured from outside, around public calls: the first
//! half of the file is what the workloads run, the second half the
//! isolated probe bodies.

use std::hint::black_box;
use std::ops::AddAssign;
use std::sync::Arc;
use std::time::{Duration, Instant};

use havoq_comm::codec::{frame_init, frame_seal, frame_set_count, frame_verify_and_strip};
use havoq_comm::{CommWorld, Mailbox, MailboxConfig, Quiescence, RankCtx, WireCodec};
use havoq_core::algorithms::bfs::{bfs, BfsConfig, BfsData, BfsResult, BfsVisitor};
use havoq_core::algorithms::triangle::{triangle_count, TriangleConfig};
use havoq_core::algorithms::validate::validate_bfs;
use havoq_core::batch::{self, AdmissionQueue, BatchConfig, QueryBatch, ShedPolicy};
use havoq_core::direction::{direction_bfs, DirectionMode};
use havoq_core::TraversalStats;
use havoq_graph::csr::GraphConfig;
use havoq_graph::dist::{DistGraph, PartitionStrategy};
use havoq_graph::gen::rmat::RmatGenerator;
use havoq_graph::gen::smallworld::SmallWorldGenerator;
use havoq_graph::types::{Edge, VertexId};
use havoq_graph::varint;
use havoq_nvram::{
    BlockDevice, DeviceProfile, IoConfig, MemDevice, PageCache, PageCacheConfig, SimNvram,
};
use havoq_util::crc::crc32;
use havoq_util::parallel::WorkerPool;

// --- worlds ---------------------------------------------------------------

/// One rank of a running world.
pub struct Rank<'a> {
    ctx: &'a RankCtx,
}

/// Run `f` on `ranks` rank threads of one process; results in rank order.
pub fn run_world<R: Send>(ranks: usize, f: impl Fn(&Rank) -> R + Sync) -> Vec<R> {
    CommWorld::run(ranks, |ctx| f(&Rank { ctx }))
}

impl Rank<'_> {
    pub fn id(&self) -> usize {
        self.ctx.rank()
    }

    pub fn barrier(&self) {
        self.ctx.barrier();
    }

    pub fn max(&self, v: u64) -> u64 {
        self.ctx.all_reduce_max(v)
    }

    pub fn sum(&self, v: u64) -> u64 {
        self.ctx.all_reduce_sum(v)
    }
}

// --- graphs ---------------------------------------------------------------

/// The generators the workloads use. Both are symmetrized with self-loops
/// dropped before construction.
#[derive(Clone, Copy, Debug)]
pub enum GraphKind {
    /// Graph500 RMAT, edge factor 16.
    Rmat { scale: u32 },
    /// Watts–Strogatz ring of uniform degree with a rewired share.
    SmallWorld { log2_vertices: u32, degree: u64, rewire: f64 },
}

enum Generator {
    Rmat(RmatGenerator),
    SmallWorld(SmallWorldGenerator),
}

impl GraphKind {
    pub fn num_vertices(&self) -> u64 {
        match *self {
            GraphKind::Rmat { scale } => 1 << scale,
            GraphKind::SmallWorld { log2_vertices, .. } => 1 << log2_vertices,
        }
    }

    fn generator(&self) -> Generator {
        match *self {
            GraphKind::Rmat { scale } => Generator::Rmat(RmatGenerator::graph500(scale)),
            GraphKind::SmallWorld { log2_vertices, degree, rewire } => Generator::SmallWorld(
                SmallWorldGenerator::new(1 << log2_vertices, degree).with_rewire(rewire),
            ),
        }
    }

    /// Every generated edge once, as generated (one direction), for the
    /// benchmark's serial reference.
    pub fn all_edges(&self, seed: u64) -> Vec<(u64, u64)> {
        let edges = match self.generator() {
            Generator::Rmat(g) => g.edges(seed),
            Generator::SmallWorld(g) => g.edges(seed),
        };
        edges.into_iter().map(|e| (e.src, e.dst)).collect()
    }
}

/// Where the CSR targets live.
#[derive(Clone, Copy, Debug)]
pub enum Storage {
    Mem,
    /// Gap-compressed targets behind the page cache over the simulated
    /// Fusion-io device: 4 KiB pages, 8 shards, readahead 8, asynchronous
    /// I/O, and a cache of 1/32 of the raw `u64` edge array.
    ExtComp {
        raw_edge_bytes: u64,
    },
}

const EXT_PAGE_BYTES: usize = 4096;
const EXT_SHARDS: usize = 8;

fn ext_cache(raw_edge_bytes: u64) -> PageCacheConfig {
    PageCacheConfig {
        page_size: EXT_PAGE_BYTES,
        // at least one page per shard, which only the smoke sizes need
        capacity_pages: (raw_edge_bytes as usize / EXT_PAGE_BYTES / 32).max(EXT_SHARDS),
        shards: EXT_SHARDS,
        readahead_pages: 8,
        io: IoConfig::asynchronous(),
        ..PageCacheConfig::default()
    }
}

/// This rank's share of the generated edge list, symmetrized.
pub struct LocalEdges(Vec<Edge>);

pub fn generate(rank: &Rank, kind: GraphKind, seed: u64) -> LocalEdges {
    let (r, p) = (rank.ctx.rank(), rank.ctx.size());
    let mut local = match kind.generator() {
        Generator::Rmat(g) => g.edges_for_rank(seed, r, p),
        Generator::SmallWorld(g) => g.edges_for_rank(seed, r, p),
    };
    let reversed: Vec<Edge> =
        local.iter().filter(|e| !e.is_self_loop()).map(|e| e.reversed()).collect();
    local.extend(reversed);
    LocalEdges(local)
}

/// One rank's partition of the distributed graph.
pub struct Graph(DistGraph);

/// Collective: `DistGraph::build` with edge-list partitioning.
pub fn build(rank: &Rank, edges: LocalEdges, kind: GraphKind, storage: Storage) -> Graph {
    let cfg = match storage {
        Storage::Mem => GraphConfig::default(),
        Storage::ExtComp { raw_edge_bytes } => {
            GraphConfig::external_compressed(DeviceProfile::fusion_io(), ext_cache(raw_edge_bytes))
        }
    }
    .with_num_vertices(kind.num_vertices());
    let g = DistGraph::build(rank.ctx, edges.0, PartitionStrategy::EdgeList, cfg);
    rank.ctx.barrier();
    Graph(g)
}

/// Cumulative storage-layer counters of one rank's partition; all zero on
/// in-memory storage. Callers subtract two snapshots.
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub prefetches: u64,
    pub dropped_prefetches: u64,
    pub io_stall_ns: u64,
    pub evict_stall_ns: u64,
    /// High-water mark, not cumulative.
    pub io_queue_peak: u64,
    pub adj_decodes: u64,
    pub adj_decoded_bytes: u64,
}

impl StorageCounters {
    /// What happened since the earlier snapshot `before`.
    pub fn since(self, before: Self) -> Self {
        Self {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            prefetches: self.prefetches - before.prefetches,
            dropped_prefetches: self.dropped_prefetches - before.dropped_prefetches,
            io_stall_ns: self.io_stall_ns - before.io_stall_ns,
            evict_stall_ns: self.evict_stall_ns - before.evict_stall_ns,
            io_queue_peak: self.io_queue_peak,
            adj_decodes: self.adj_decodes - before.adj_decodes,
            adj_decoded_bytes: self.adj_decoded_bytes - before.adj_decoded_bytes,
        }
    }
}

impl AddAssign for StorageCounters {
    fn add_assign(&mut self, o: Self) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
        self.prefetches += o.prefetches;
        self.dropped_prefetches += o.dropped_prefetches;
        self.io_stall_ns += o.io_stall_ns;
        self.evict_stall_ns += o.evict_stall_ns;
        self.io_queue_peak = self.io_queue_peak.max(o.io_queue_peak);
        self.adj_decodes += o.adj_decodes;
        self.adj_decoded_bytes += o.adj_decoded_bytes;
    }
}

impl Graph {
    /// Call `f(vertex, local_index)` for every vertex this rank masters.
    pub fn for_each_master(&self, mut f: impl FnMut(u64, usize)) {
        for v in self.0.local_vertices() {
            if self.0.is_master(v) {
                f(v.0, self.0.local_index(v));
            }
        }
    }

    pub fn storage_counters(&self) -> StorageCounters {
        let csr = self.0.csr();
        let cache = csr.cache_stats().unwrap_or_default();
        let snap = csr.storage_snapshot().unwrap_or_default();
        StorageCounters {
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
            prefetches: cache.prefetches,
            dropped_prefetches: cache.dropped_prefetches,
            io_stall_ns: cache.io_stall_ns,
            evict_stall_ns: cache.evict_stall_ns,
            io_queue_peak: csr.io_stats().map_or(0, |io| io.peak_outstanding),
            adj_decodes: snap.adj_decodes,
            adj_decoded_bytes: snap.adj_decoded_bytes,
        }
    }

    /// Encoded bytes per stored edge (compressed storage), else the raw 8.
    pub fn bytes_per_edge(&self) -> f64 {
        self.0.csr().storage_snapshot().map_or(8.0, |s| s.bytes_per_edge())
    }
}

// --- what a traversal reports ----------------------------------------------

/// The boundary counters of one op on one rank, as the public calls return
/// them in `TraversalStats`. Summed over ranks and ops by the caller.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpCounters {
    pub visitors_executed: u64,
    pub visitors_pushed: u64,
    pub ghost_checked: u64,
    pub ghost_filtered: u64,
    pub payload_sent: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub frames_sent: u64,
    /// Sum over frames of their fill ratio (`mean_frame_fill * frames_sent`).
    pub frame_fill_sum: f64,
    pub backpressure_stalls: u64,
    pub termination_waves: u64,
    pub frontier_words_sent: u64,
    pub edges_inspected: u64,
    /// Levels are world-agreed, not per-rank work: read them from rank 0.
    pub top_levels: u64,
    pub bottom_levels: u64,
}

impl From<&TraversalStats> for OpCounters {
    fn from(s: &TraversalStats) -> Self {
        Self {
            visitors_executed: s.visitors_executed,
            visitors_pushed: s.visitors_pushed,
            ghost_checked: s.ghost_checked,
            ghost_filtered: s.ghost_filtered,
            payload_sent: s.payload_sent,
            bytes_sent: s.bytes_sent,
            bytes_received: s.bytes_received,
            frames_sent: s.frames_sent,
            frame_fill_sum: s.mean_frame_fill * s.frames_sent as f64,
            backpressure_stalls: s.backpressure_stalls,
            termination_waves: s.termination_waves,
            frontier_words_sent: s.frontier_words_sent,
            edges_inspected: s.edges_inspected,
            top_levels: s.top_down_levels,
            bottom_levels: s.bottom_up_levels,
        }
    }
}

impl AddAssign for OpCounters {
    fn add_assign(&mut self, o: Self) {
        self.visitors_executed += o.visitors_executed;
        self.visitors_pushed += o.visitors_pushed;
        self.ghost_checked += o.ghost_checked;
        self.ghost_filtered += o.ghost_filtered;
        self.payload_sent += o.payload_sent;
        self.bytes_sent += o.bytes_sent;
        self.bytes_received += o.bytes_received;
        self.frames_sent += o.frames_sent;
        self.frame_fill_sum += o.frame_fill_sum;
        self.backpressure_stalls += o.backpressure_stalls;
        self.termination_waves += o.termination_waves;
        self.frontier_words_sent += o.frontier_words_sent;
        self.edges_inspected += o.edges_inspected;
        self.top_levels += o.top_levels;
        self.bottom_levels += o.bottom_levels;
    }
}

// --- the kernels ------------------------------------------------------------

/// One BFS tree as this rank holds it.
pub struct BfsOut {
    /// World totals, identical on every rank.
    pub visited: u64,
    pub traversed_edges: u64,
    pub max_level: u64,
    pub counters: OpCounters,
    state: Vec<BfsData>,
}

impl BfsOut {
    fn new(r: BfsResult) -> Self {
        Self {
            visited: r.visited_count,
            traversed_edges: r.traversed_edges,
            max_level: r.max_level,
            counters: OpCounters::from(&r.stats),
            state: r.local_state,
        }
    }

    /// `(length, parent)` of the local vertex at `local_index`; both
    /// `u64::MAX` where unreached.
    pub fn state(&self, local_index: usize) -> (u64, u64) {
        let d = &self.state[local_index];
        (d.length, d.parent)
    }
}

/// Collective: `bfs` on the asynchronous visitor queue, library-default
/// configuration apart from the intra-rank thread count.
pub fn bfs_async(rank: &Rank, g: &Graph, key: u64, threads: usize) -> BfsOut {
    BfsOut::new(bfs(rank.ctx, &g.0, VertexId(key), &BfsConfig::default().with_threads(threads)))
}

/// Collective: `direction_bfs` with `DirectionMode::Auto`.
pub fn bfs_diropt(rank: &Rank, g: &Graph, key: u64) -> BfsOut {
    let cfg = BfsConfig::default().with_direction(DirectionMode::Auto);
    BfsOut::new(direction_bfs(rank.ctx, &g.0, VertexId(key), &cfg).result)
}

/// Collective: the library's own distributed tree validator.
pub fn validate_tree(rank: &Rank, g: &Graph, key: u64, tree: &BfsOut) -> bool {
    validate_bfs(rank.ctx, &g.0, VertexId(key), &tree.state).is_valid()
}

pub struct TriangleOut {
    pub triangles: u64,
    pub counters: OpCounters,
}

/// Collective: `triangle_count`, library-default configuration.
pub fn triangles(rank: &Rank, g: &Graph) -> TriangleOut {
    let r = triangle_count(rank.ctx, &g.0, &TriangleConfig::default());
    TriangleOut { triangles: r.triangles, counters: OpCounters::from(&r.stats) }
}

/// What one served batch reports.
pub struct BatchOut {
    /// `(visited, max_level, traversed_edges)` per admitted query, in
    /// admission order.
    pub per_query: Vec<(u64, u64, u64)>,
    /// The per-query execution ledger summed to the batch totals.
    pub ledger_ok: bool,
    /// World total of (query, vertex) claims executed.
    pub claims: u64,
    pub counters: OpCounters,
}

/// Widest batch the engine multiplexes through one traversal.
pub const BATCH_CAPACITY: usize = batch::MAX_BATCH;

/// Collective: admit `sources` into one `QueryBatch` and run it as a
/// batched BFS, library-default `BatchConfig`.
pub fn bfs_batch(rank: &Rank, g: &Graph, sources: &[u64]) -> Result<BatchOut, String> {
    let mut qb = QueryBatch::new(BATCH_CAPACITY);
    for &s in sources {
        qb.try_admit(VertexId(s)).map_err(|e| e.to_string())?;
    }
    let r = qb.run_bfs(rank.ctx, &g.0, &BatchConfig::default());
    Ok(BatchOut {
        per_query: r
            .per_query
            .iter()
            .map(|q| (q.visited_count, q.max_level, q.traversed_edges))
            .collect(),
        ledger_ok: r.ledger.check(sources.len()).is_ok(),
        claims: r.ledger.executed_total,
        counters: OpCounters::from(&r.stats),
    })
}

/// The event-clock admission scheduler, bounded backlog, newest rejected.
pub struct Admission(AdmissionQueue);

impl Admission {
    pub fn new(max_backlog: usize) -> Self {
        Self(
            AdmissionQueue::new(BATCH_CAPACITY)
                .with_max_backlog(max_backlog)
                .with_shed_policy(ShedPolicy::RejectNew),
        )
    }

    /// `false` when the arrival was shed at the backlog bound.
    pub fn offer(&mut self, at_ns: u64, source: u64) -> bool {
        self.0.offer(batch::Arrival::new(at_ns, VertexId(source)))
    }

    /// Form the next batch: `(at_ns, source)` of every admitted query.
    pub fn start_batch(&mut self) -> Vec<(u64, u64)> {
        self.0.start_batch().iter().map(|a| (a.at_ns, a.source.0)).collect()
    }

    pub fn finish_batch(&mut self, service_ns: u64) {
        self.0.finish_batch(service_ns);
    }

    pub fn clock_ns(&self) -> u64 {
        self.0.clock_ns()
    }

    pub fn pending(&self) -> usize {
        self.0.pending_len()
    }

    pub fn peak_backlog(&self) -> usize {
        self.0.peak_backlog()
    }

    pub fn shed(&self) -> u64 {
        self.0.shed_total()
    }

    pub fn served(&self) -> usize {
        self.0.latencies_ns().len()
    }
}

// --- probe bodies ------------------------------------------------------------
//
// Each runs `iters` iterations of one isolated layer operation and returns
// the time they took; `probes.rs` sizes `iters` and takes medians.

/// A BFS visitor record as it crosses the wire.
fn sample_visitor(i: u64) -> BfsVisitor {
    BfsVisitor { vertex: VertexId(i.wrapping_mul(0x9E37_79B9) & 0xFFFF), length: i & 15, parent: i }
}

/// `crc32` over `buf`.
pub fn probe_crc(buf: &[u8], iters: u64) -> Duration {
    let t = Instant::now();
    for _ in 0..iters {
        black_box(crc32(black_box(buf)));
    }
    t.elapsed()
}

const RECORD_BYTES: usize = havoq_comm::RECORD_DST_BYTES + BfsVisitor::WIRE_SIZE;
const FRAME_OVERHEAD_BYTES: usize =
    havoq_comm::FRAME_HEADER_BYTES + havoq_comm::codec::FRAME_CRC_BYTES;

/// Records in a full frame under the default `MailboxConfig`; the count
/// limit binds before the byte limit for every visitor the workloads use.
pub fn default_frame_records() -> usize {
    let cfg = MailboxConfig::default();
    cfg.batch_size.min((cfg.frame_bytes - FRAME_OVERHEAD_BYTES) / RECORD_BYTES)
}

/// Bytes of one such frame of BFS visitor records (header and CRC
/// trailer included).
pub fn default_frame_bytes() -> usize {
    FRAME_OVERHEAD_BYTES + default_frame_records() * RECORD_BYTES
}

/// `frame_init` + fill + `frame_seal` + `frame_verify_and_strip` on one
/// frame of `frame_bytes`, the work the mailbox does per shipped frame
/// beyond encoding its records.
pub fn probe_seal_verify(frame_bytes: usize, iters: u64) -> Duration {
    let record = RECORD_BYTES;
    let records = (frame_bytes - FRAME_OVERHEAD_BYTES) / record;
    let mut body = vec![0u8; records * record];
    for (i, rec) in body.chunks_exact_mut(record).enumerate() {
        rec[..4].copy_from_slice(&1u32.to_le_bytes());
        sample_visitor(i as u64).encode(&mut rec[4..]);
    }
    let mut buf = Vec::with_capacity(frame_bytes);
    let t = Instant::now();
    for _ in 0..iters {
        frame_init(&mut buf, record as u32);
        buf.extend_from_slice(black_box(&body));
        frame_set_count(&mut buf, records as u32);
        frame_seal(&mut buf);
        assert!(frame_verify_and_strip(black_box(&mut buf)), "a clean frame must verify");
    }
    t.elapsed()
}

/// `WireCodec` encode + decode of one BFS visitor.
pub fn probe_record_roundtrip(iters: u64) -> Duration {
    let mut buf = [0u8; BfsVisitor::WIRE_SIZE];
    let mut acc = 0u64;
    let t = Instant::now();
    for i in 0..iters {
        black_box(sample_visitor(i)).encode(&mut buf);
        acc = acc.wrapping_add(BfsVisitor::decode(black_box(&buf), &()).length);
    }
    black_box(acc);
    t.elapsed()
}

/// Two ranks each send `payloads` visitor records to the other through a
/// default-config `Mailbox` and drain until `Quiescence` confirms; returns
/// the slower rank's time.
pub fn probe_mailbox_exchange(payloads: u64) -> Duration {
    let out = run_world(2, |rank| {
        let ctx = rank.ctx;
        let tag = ctx.auto_tag();
        let mut mb = Mailbox::<BfsVisitor>::open(ctx, tag, MailboxConfig::default());
        let mut q = Quiescence::new(ctx, tag);
        let peer = 1 - ctx.rank();
        let mut got = Vec::new();
        ctx.barrier();
        let t = Instant::now();
        for i in 0..payloads {
            mb.send(peer, sample_visitor(i));
            if i % 128 == 127 {
                mb.poll(&mut got);
                got.clear();
            }
        }
        loop {
            if mb.poll(&mut got) == 0 {
                mb.flush();
                if q.poll(mb.sent_count(), mb.received_count(), mb.pending_out() == 0) {
                    break;
                }
            }
            got.clear();
        }
        assert_eq!(mb.received_count(), payloads, "every payload must arrive exactly once");
        t.elapsed()
    });
    out.into_iter().max().expect("two ranks")
}

/// `iters` back-to-back `all_reduce_sum` calls on two ranks.
pub fn probe_all_reduce(iters: u64) -> Duration {
    let out = run_world(2, |rank| {
        rank.barrier();
        let t = Instant::now();
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_add(rank.sum(i));
        }
        black_box(acc);
        t.elapsed()
    });
    out.into_iter().max().expect("two ranks")
}

/// Termination detection on an idle two-rank world, `iters` times over;
/// returns the time and the detector waves it took.
pub fn probe_idle_termination(iters: u64) -> (Duration, u64) {
    let out = run_world(2, |rank| {
        rank.barrier();
        let mut waves = 0u64;
        let t = Instant::now();
        for i in 0..iters {
            let mut q = Quiescence::new(rank.ctx, i);
            while !q.poll(0, 0, true) {
                std::hint::spin_loop();
            }
            waves += q.waves_run();
        }
        (t.elapsed(), waves)
    });
    out.into_iter().max().expect("two ranks")
}

/// `WorkerPool::broadcast` of an empty job to two workers.
pub fn probe_pool_broadcast(iters: u64) -> Duration {
    let pool = WorkerPool::new(2);
    let t = Instant::now();
    for _ in 0..iters {
        pool.broadcast(&|w| {
            black_box(w);
        });
    }
    t.elapsed()
}

fn probe_cache(pages: usize, profile: Option<DeviceProfile>, async_io: bool) -> PageCache {
    let mem = MemDevice::with_capacity(16 << 20);
    let dev: Arc<dyn BlockDevice> = match profile {
        None => Arc::new(mem),
        Some(p) => Arc::new(SimNvram::new(mem, p)),
    };
    let mut cfg = PageCacheConfig {
        page_size: EXT_PAGE_BYTES,
        capacity_pages: pages,
        shards: EXT_SHARDS,
        ..PageCacheConfig::default()
    };
    if async_io {
        cfg.readahead_pages = 8;
        cfg.io = IoConfig::asynchronous();
    }
    PageCache::new(dev, cfg)
}

/// 8-byte reads of a resident page.
pub fn probe_cache_hit(iters: u64) -> Duration {
    let cache = probe_cache(256, None, false);
    cache.write_at(0, &[1u8; EXT_PAGE_BYTES]);
    let mut buf = [0u8; 8];
    let t = Instant::now();
    for _ in 0..iters {
        cache.read_at(black_box(512), &mut buf);
    }
    black_box(buf);
    t.elapsed()
}

/// Reads that each miss an 8-page cache over the Fusion-io profile.
pub fn probe_cache_miss(iters: u64) -> Duration {
    let cache = probe_cache(8, Some(DeviceProfile::fusion_io()), false);
    let mut buf = [0u8; 64];
    let mut page = 0u64;
    let t = Instant::now();
    for _ in 0..iters {
        page = (page + 97) % 4096;
        cache.read_at(page * EXT_PAGE_BYTES as u64, &mut buf);
    }
    black_box(buf);
    t.elapsed()
}

/// Bytes one sequential sweep of [`probe_cache_seq_read`] reads.
pub const SEQ_SWEEP_BYTES: u64 = 4 << 20;

/// Sequential page reads through a 64-page cache over the Fusion-io
/// profile with asynchronous I/O and readahead 8, as the external
/// workload configures it.
pub fn probe_cache_seq_read(sweeps: u64) -> Duration {
    let cache = probe_cache(64, Some(DeviceProfile::fusion_io()), true);
    cache.note_len(SEQ_SWEEP_BYTES);
    let mut buf = [0u8; EXT_PAGE_BYTES];
    let t = Instant::now();
    for _ in 0..sweeps {
        for page in 0..SEQ_SWEEP_BYTES / EXT_PAGE_BYTES as u64 {
            cache.read_at(page * EXT_PAGE_BYTES as u64, &mut buf);
        }
    }
    black_box(buf);
    t.elapsed()
}

/// Adjacency lists gap-encoded the way the compressed CSR stores them.
pub struct EncodedLists {
    bytes: Vec<u8>,
    /// `(byte offset, element count)` per list.
    index: Vec<(usize, usize)>,
    pub edges: u64,
}

pub fn encode_lists<'a>(lists: impl Iterator<Item = &'a [u64]>) -> EncodedLists {
    let mut enc = EncodedLists { bytes: Vec::new(), index: Vec::new(), edges: 0 };
    for list in lists {
        enc.index.push((enc.bytes.len(), list.len()));
        varint::encode_gaps(list, &mut enc.bytes);
        enc.edges += list.len() as u64;
    }
    enc
}

/// `decode_gaps` over every list, `sweeps` times.
pub fn probe_varint_decode(enc: &EncodedLists, sweeps: u64) -> Duration {
    let mut out = Vec::new();
    let t = Instant::now();
    for _ in 0..sweeps {
        for (i, &(start, count)) in enc.index.iter().enumerate() {
            let end = enc.index.get(i + 1).map_or(enc.bytes.len(), |n| n.0);
            out.clear();
            varint::decode_gaps(black_box(&enc.bytes[start..end]), count, &mut out);
            black_box(&out);
        }
    }
    t.elapsed()
}

/// `with_adj` over every local vertex in vertex order; returns the time
/// and the edges read.
pub fn probe_with_adj_sweep(g: &Graph) -> (Duration, u64) {
    let csr = g.0.csr();
    let mut edges = 0u64;
    let mut acc = 0u64;
    let t = Instant::now();
    for li in 0..csr.num_vertices() {
        csr.with_adj(li, |adj| {
            edges += adj.len() as u64;
            acc = acc.wrapping_add(adj.last().copied().unwrap_or(0));
        });
    }
    black_box(acc);
    (t.elapsed(), edges)
}

/// `scan_adj` with a predicate that never hits, over every local vertex.
pub fn probe_scan_adj_sweep(g: &Graph) -> (Duration, u64) {
    let csr = g.0.csr();
    let mut edges = 0u64;
    let t = Instant::now();
    for li in 0..csr.num_vertices() {
        edges += csr.scan_adj(li, |t| black_box(t) == u64::MAX).0;
    }
    (t.elapsed(), edges)
}

/// Offer / start / finish on the admission scheduler with a synthetic
/// arrival stream and service times; returns the time and queries offered.
pub fn probe_admission(queries: u64) -> Duration {
    let mut aq = Admission::new(256);
    let (mut offered, mut at_ns) = (0u64, 0u64);
    let t = Instant::now();
    while offered < queries {
        while offered < queries && (aq.pending() == 0 || at_ns <= aq.clock_ns()) {
            at_ns += 1_500_000 + (offered % 7) * 100_000;
            aq.offer(at_ns, offered & 31);
            offered += 1;
        }
        let width = aq.start_batch().len() as u64;
        aq.finish_batch(40_000_000 + width * 1_000_000);
    }
    black_box(aq.served());
    t.elapsed()
}
