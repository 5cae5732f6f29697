//! Batched multi-source traversal (MS-BFS style).
//!
//! The engine so far runs one traversal per [`VisitorQueue::do_traversal`]
//! call; the production workload the paper targets is thousands of
//! concurrent queries. The standard remedy (Buluç–Madduri style batching)
//! multiplexes up to [`MAX_BATCH`] searches through one shared traversal:
//! per-vertex state widens to one payload slot *per query* and every
//! visitor carries an `active_mask: u64` naming the queries it advances,
//! so a single edge scan serves every query whose frontier crosses that
//! vertex at the same depth. On scale-free graphs with their tiny
//! diameters, a vertex is popped at most once per *distinct depth* in the
//! batch instead of once per query — the amortization that makes batched
//! Graph500 key sweeps several times cheaper than the sequential loop.
//!
//! The mask rides inside the visitor payload through the existing
//! [`WireCodec`]/CRC frame plane unchanged, and it doubles as the
//! associative [`Visitor::merge`] hook: per-query slots merge element-wise
//! with the same monotone min the single-source visitor uses, so the
//! intra-rank worker pool (DESIGN.md §11) runs batched visitors with no
//! new synchronization. Checkpoint/restart works verbatim because the
//! widened per-vertex state is still a fixed-size `WireCodec` record.
//!
//! Three layers live here:
//! - the batched visitors ([`BatchBfsVisitor`], [`BatchReachVisitor`]) and
//!   their engine entry points ([`bfs_batch`], [`reach_batch`]);
//! - [`QueryBatch`]: admission up to a capacity, then one batched run,
//!   dispatching to a compile-time state width;
//! - [`AdmissionQueue`]: the pure event-clock scheduler the benchmark's
//!   `serve_mem` workload drives with measured batch durations (offered
//!   load in, p50/p99 latency out).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use havoq_comm::{RankCtx, WireCodec};
use havoq_graph::dist::DistGraph;
use havoq_graph::types::VertexId;

use crate::algorithms::bfs::{level_term, BfsData, UNREACHED};
use crate::checkpoint::CheckpointSpec;
use crate::queue::{TraversalConfig, TraversalStats, VisitorQueue};
use crate::visitor::{Role, Visitor, VisitorPush};

/// Maximum number of queries one batch can multiplex: one bit of the
/// visitor's `active_mask` per query.
pub const MAX_BATCH: usize = 64;

// --- per-query execution ledger ------------------------------------------

/// Rank-local per-query visitor counters, shared by every batched BFS
/// visitor on a rank through the queue's decode context (rank-replicated
/// state: the `Arc` never crosses the wire, it is reattached when a
/// visitor is decoded).
///
/// `executed[q]`/`pushed[q]` count, for query `q`, the visitor executions
/// that advanced `q`'s frontier and the follow-on visitors they pushed on
/// `q`'s behalf. The totals are incremented on the same code path with the
/// popcount of the live mask, so `Σ_q executed[q] == executed_total` (and
/// likewise for pushes) holds unconditionally — across worker threads,
/// fault injection, and crash/restore replay — which is exactly the
/// invariant the property tests pin down.
#[derive(Debug)]
pub struct LedgerCells {
    executed: [AtomicU64; MAX_BATCH],
    pushed: [AtomicU64; MAX_BATCH],
    executed_total: AtomicU64,
    pushed_total: AtomicU64,
    /// Queries this rank has stopped working for (cancelled, expired, or
    /// aborted by the lifecycle engine, DESIGN.md §15). A set bit gates
    /// the query out of every future `visit` live mask; setting it is
    /// idempotent, so duplicated or retransmitted cancel records are
    /// harmless.
    retired: AtomicU64,
}

impl Default for LedgerCells {
    fn default() -> Self {
        Self {
            executed: std::array::from_fn(|_| AtomicU64::new(0)),
            pushed: std::array::from_fn(|_| AtomicU64::new(0)),
            executed_total: AtomicU64::new(0),
            pushed_total: AtomicU64::new(0),
            retired: AtomicU64::new(0),
        }
    }
}

impl LedgerCells {
    fn record_executed(&self, live: u64) {
        let mut m = live;
        while m != 0 {
            let q = m.trailing_zeros() as usize;
            m &= m - 1;
            self.executed[q].fetch_add(1, Relaxed);
        }
        self.executed_total.fetch_add(live.count_ones() as u64, Relaxed);
    }

    fn record_pushed(&self, live: u64, per_query: u64) {
        let mut m = live;
        while m != 0 {
            let q = m.trailing_zeros() as usize;
            m &= m - 1;
            self.pushed[q].fetch_add(per_query, Relaxed);
        }
        self.pushed_total.fetch_add(per_query * live.count_ones() as u64, Relaxed);
    }

    /// Retire the queries in `mask`: no future `visit` on this rank will
    /// expand for them. OR-idempotent, so repeated application (duplicate
    /// cancels, retransmits) changes nothing.
    pub fn retire(&self, mask: u64) {
        self.retired.fetch_or(mask, Relaxed);
    }

    /// The current retired-query mask.
    pub fn retired_mask(&self) -> u64 {
        self.retired.load(Relaxed)
    }

    /// Plain-data snapshot (quiescent reads: take it after `do_traversal`).
    pub fn snapshot(&self) -> BatchLedger {
        let read = |a: &[AtomicU64; MAX_BATCH]| {
            let mut out = [0u64; MAX_BATCH];
            for (o, c) in out.iter_mut().zip(a.iter()) {
                *o = c.load(Relaxed);
            }
            out
        };
        BatchLedger {
            executed: read(&self.executed),
            pushed: read(&self.pushed),
            executed_total: self.executed_total.load(Relaxed),
            pushed_total: self.pushed_total.load(Relaxed),
        }
    }
}

/// Quiescent snapshot of a rank's [`LedgerCells`].
#[derive(Clone, Copy, Debug)]
pub struct BatchLedger {
    pub executed: [u64; MAX_BATCH],
    pub pushed: [u64; MAX_BATCH],
    pub executed_total: u64,
    pub pushed_total: u64,
}

impl BatchLedger {
    /// The structural ledger invariant: per-query counters sum to the
    /// batch totals, and no bit at or above `width` was ever attributed.
    pub fn check(&self, width: usize) -> Result<(), String> {
        let se: u64 = self.executed.iter().sum();
        let sp: u64 = self.pushed.iter().sum();
        if se != self.executed_total {
            return Err(format!("executed sum {se} != total {}", self.executed_total));
        }
        if sp != self.pushed_total {
            return Err(format!("pushed sum {sp} != total {}", self.pushed_total));
        }
        for q in width..MAX_BATCH {
            if self.executed[q] != 0 || self.pushed[q] != 0 {
                return Err(format!("query slot {q} >= width {width} has counts"));
            }
        }
        Ok(())
    }
}

// --- batched BFS ----------------------------------------------------------

/// Per-vertex state for a batch of up to `K` BFS queries: the
/// single-source `(length, parent)` pair, widened to one slot per query,
/// plus one *expansion bit* per query.
///
/// Bit `q` of `expanded` means "query `q` has already scanned this
/// vertex's adjacency at its current best `length[q]`"; an improvement
/// clears the bit. Without it, every improving arrival would re-expand all
/// co-located equal-depth queries (each arrival's `visit` recomputes the
/// live mask from the shared state), amplifying fanout by up to
/// indegree × K; with it, each query expands each vertex exactly once per
/// achieved depth — the same pop-once-per-depth property strictly-less
/// `pre_visit` gives single-source BFS.
///
/// `Default` is written out by hand because the derived impl for arrays
/// stops at 32 elements and the headline width is 64.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchBfsData<const K: usize> {
    pub length: [u64; K],
    pub parent: [u64; K],
    pub expanded: u64,
}

impl<const K: usize> Default for BatchBfsData<K> {
    fn default() -> Self {
        Self { length: [UNREACHED; K], parent: [UNREACHED; K], expanded: 0 }
    }
}

impl<const K: usize> BatchBfsData<K> {
    /// Query `q`'s view of this vertex, as single-source state.
    pub fn query(&self, q: usize) -> BfsData {
        BfsData { length: self.length[q], parent: self.parent[q] }
    }
}

impl<const K: usize> WireCodec for BatchBfsData<K> {
    const WIRE_SIZE: usize = 16 * K + 8;
    type DecodeCtx = ();

    fn encode(&self, buf: &mut [u8]) {
        for q in 0..K {
            self.length[q].encode(&mut buf[q * 8..q * 8 + 8]);
            self.parent[q].encode(&mut buf[(K + q) * 8..(K + q) * 8 + 8]);
        }
        // checkpointed too, so a restored rank does not re-expand already
        // scanned frontiers
        self.expanded.encode(&mut buf[16 * K..16 * K + 8]);
    }

    fn decode(buf: &[u8], ctx: &()) -> Self {
        let mut d = Self::default();
        for q in 0..K {
            d.length[q] = u64::decode(&buf[q * 8..q * 8 + 8], ctx);
            d.parent[q] = u64::decode(&buf[(K + q) * 8..(K + q) * 8 + 8], ctx);
        }
        d.expanded = u64::decode(&buf[16 * K..16 * K + 8], ctx);
        d
    }
}

/// The batched BFS visitor: the single-source visitor plus the query mask.
///
/// All queries named by `mask` reached `vertex` at depth `length` through
/// `parent`, so one wire record and one adjacency scan advance all of
/// them. The wire footprint is a flat 32 bytes regardless of `K`; only the
/// per-vertex *state* widens with the batch.
#[derive(Clone, Debug)]
pub struct BatchBfsVisitor<const K: usize> {
    pub vertex: VertexId,
    pub length: u64,
    pub parent: u64,
    pub mask: u64,
    pub(crate) ledger: Arc<LedgerCells>,
}

impl<const K: usize> WireCodec for BatchBfsVisitor<K> {
    const WIRE_SIZE: usize = 32;
    /// The ledger is rank-replicated, never wire-borne: reattached on
    /// decode.
    type DecodeCtx = Arc<LedgerCells>;

    fn encode(&self, buf: &mut [u8]) {
        self.vertex.encode(&mut buf[..8]);
        self.length.encode(&mut buf[8..16]);
        self.parent.encode(&mut buf[16..24]);
        self.mask.encode(&mut buf[24..32]);
    }

    fn decode(buf: &[u8], ctx: &Self::DecodeCtx) -> Self {
        BatchBfsVisitor {
            vertex: VertexId::decode(&buf[..8], &()),
            length: u64::decode(&buf[8..16], &()),
            parent: u64::decode(&buf[16..24], &()),
            mask: u64::decode(&buf[24..32], &()),
            ledger: Arc::clone(ctx),
        }
    }
}

impl<const K: usize> BatchBfsVisitor<K> {
    /// Claim every query bit that is live at this visitor's depth on
    /// `data` — best length matches, not yet expanded, not `retired`
    /// (cancelled / expired / aborted) — and mark it expanded. The
    /// `expanded` gate makes each (query, vertex, depth) scan happen
    /// exactly once no matter how many arrivals race to it, given that
    /// callers serialize access per slot (the parallel paths hold the
    /// slot's bit lock).
    #[inline]
    pub(crate) fn claim(&self, data: &mut BatchBfsData<K>, retired: u64) -> u64 {
        let mut live = 0u64;
        for q in 0..K {
            if self.length == data.length[q] && data.expanded & (1 << q) == 0 {
                live |= 1 << q;
            }
        }
        live &= !retired;
        data.expanded |= live;
        live
    }

    /// Scan the adjacency once on behalf of the claimed queries `live`,
    /// pushing one visitor per edge and charging the ledger.
    pub(crate) fn expand(&self, g: &DistGraph, live: u64, out: &mut dyn VisitorPush<Self>) {
        self.ledger.record_executed(live);
        let mut fanout = 0u64;
        g.with_adj(self.vertex, |adj| {
            for &t in adj {
                out.push(BatchBfsVisitor {
                    vertex: VertexId(t),
                    length: self.length + 1,
                    parent: self.vertex.0,
                    mask: live,
                    ledger: Arc::clone(&self.ledger),
                });
                fanout += 1;
            }
        });
        self.ledger.record_pushed(live, fanout);
    }
}

impl<const K: usize> Visitor for BatchBfsVisitor<K> {
    type Data = BatchBfsData<K>;
    /// Per-query monotone min tolerates imprecise filtering exactly like
    /// single-source BFS, so ghosts stay allowed.
    const GHOSTS_ALLOWED: bool = true;

    #[inline]
    fn vertex(&self) -> VertexId {
        self.vertex
    }

    /// The single-source monotone update, applied per mask bit: proceed if
    /// any query in the mask improved. Runs identically on master, replica
    /// and ghost state, so the ghost filter prunes per-query exactly as it
    /// does for single-source BFS.
    fn pre_visit(&self, data: &mut Self::Data, _role: Role) -> bool {
        let mut improved = false;
        let mut m = self.mask;
        while m != 0 {
            let q = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.length < data.length[q] {
                data.length[q] = self.length;
                data.parent[q] = self.parent;
                // the new depth has not been expanded yet
                data.expanded &= !(1 << q);
                improved = true;
            }
        }
        improved
    }

    /// Expand once on behalf of every query still best — and not yet
    /// expanded — at this depth: `claim` scans *all* query slots,
    /// not just this visitor's mask, so co-located equal-depth queries
    /// piggyback on one adjacency scan (Alg. 2 line 13, per bit).
    fn visit(&self, g: &DistGraph, data: &mut Self::Data, out: &mut dyn VisitorPush<Self>) {
        let live = self.claim(data, self.ledger.retired_mask());
        if live != 0 {
            self.expand(g, live, out);
        }
    }

    #[inline]
    fn priority(&self) -> u64 {
        self.length
    }

    /// Element-wise monotone min — the same update as `pre_visit`, so a
    /// stale worker seed merges as a no-op per query. Expansion bits
    /// follow the winning length; at equal lengths they OR, because an
    /// expansion recorded by either side really happened (its pushes are
    /// already queued), and dropping the record would only cost a
    /// harmless duplicate scan, while inventing one would lose a
    /// frontier — so `true` wins only when it is true on some side.
    #[inline]
    fn merge(into: &mut Self::Data, update: &Self::Data) {
        for q in 0..K {
            let bit = 1u64 << q;
            if update.length[q] < into.length[q] {
                into.length[q] = update.length[q];
                into.parent[q] = update.parent[q];
                into.expanded = (into.expanded & !bit) | (update.expanded & bit);
            } else if update.length[q] == into.length[q] {
                into.expanded |= update.expanded & bit;
            }
        }
    }
}

/// Batched traversal configuration (mirrors `BfsConfig`).
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchConfig {
    pub traversal: TraversalConfig,
    /// When set, the batched traversal checkpoints at quiescence cuts and
    /// can crash/restore under an injected fault plan, exactly like the
    /// single-source algorithms: the widened state is still a fixed-size
    /// `WireCodec` record.
    pub checkpoint: Option<CheckpointSpec>,
    /// Lifecycle budget (lifecycle engine only, DESIGN.md §15): a query
    /// whose traversal reaches this many level-synchronous rounds expires
    /// with `DeadlineExceeded` at that round's cut. Checked against the
    /// globally agreed round counter, so every rank expires the query at
    /// the same cut — no wall clocks involved.
    pub max_rounds: Option<u64>,
    /// Lifecycle budget: a query whose globally all-reduced edge-push
    /// count exceeds this expires with `DeadlineExceeded` at the cut that
    /// observes the overrun. The all-reduce makes the decision a pure
    /// function of cut-consistent counters, identical on every rank.
    pub max_inspected: Option<u64>,
    /// Lifecycle watchdog: abort the whole traversal (outcome `Aborted`
    /// for every still-live query) once the quiescence detector sees this
    /// many consecutive stable-but-unbalanced waves — the signature of a
    /// receiver that will never drain (e.g. a hard-stalled rank). Keep it
    /// in the thousands so transient chaos (bounded stalls, retransmit
    /// round trips) can never trip it; a true wedge still aborts promptly
    /// because idle waves complete in microseconds.
    pub watchdog_waves: Option<u64>,
}

impl BatchConfig {
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.traversal.threads = threads;
        self
    }

    pub fn with_checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    pub fn with_max_rounds(mut self, rounds: u64) -> Self {
        self.max_rounds = Some(rounds);
        self
    }

    pub fn with_max_inspected(mut self, edges: u64) -> Self {
        self.max_inspected = Some(edges);
        self
    }

    pub fn with_watchdog(mut self, waves: u64) -> Self {
        self.watchdog_waves = Some(waves);
        self
    }
}

/// Per-query aggregates of one batched BFS run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryAggregates {
    /// Global number of vertices this query reached (including its source).
    pub visited_count: u64,
    /// Global sum of whole-adjacency degrees of this query's reached
    /// vertices — the same TEPS numerator the sequential loop reports.
    pub traversed_edges: u64,
    /// This query's deepest BFS level.
    pub max_level: u64,
}

/// Result of one batched BFS run (per rank).
#[derive(Clone, Debug)]
pub struct BatchBfsResult {
    /// Per-query global aggregates, index-aligned with the sources slice.
    pub per_query: Vec<QueryAggregates>,
    /// Per-query single-source view of this rank's local state
    /// (`[query][local vertex index]`), bit-compatible with what `bfs`
    /// leaves behind — the equivalence belt and `validate_bfs` consume it
    /// directly.
    pub local_state: Vec<Vec<BfsData>>,
    /// Wall-clock of the batched traversal phase on this rank.
    pub elapsed: Duration,
    /// This rank's queue statistics for the single shared traversal.
    pub stats: TraversalStats,
    /// This rank's per-query execution ledger snapshot.
    pub ledger: BatchLedger,
}

/// Run up to `K` BFS queries through one shared traversal. Collective.
///
/// `sources.len()` must be ≤ `K` ≤ [`MAX_BATCH`]; unused slots simply stay
/// `UNREACHED` everywhere. Per-query *levels* are bit-identical to `K`
/// sequential [`crate::algorithms::bfs::bfs`] runs (levels are the
/// schedule-independent fixed point of the monotone update); parents are
/// one valid shortest-path tree per query, as in the single-source run.
pub fn bfs_batch<const K: usize>(
    ctx: &RankCtx,
    g: &DistGraph,
    sources: &[VertexId],
    cfg: &BatchConfig,
) -> BatchBfsResult {
    let (mut q, ledger) = seeded_queue::<K>(ctx, g, sources, cfg.traversal);
    q.traverse(ctx, cfg.checkpoint.as_ref());

    let ledger = ledger.snapshot();
    let per_query =
        reduce_per_query::<K, false>(ctx, g, q.state(), sources.len(), &ledger).aggregates;
    let stats = q.stats();
    let state = q.into_state();
    let local_state =
        (0..sources.len()).map(|qi| state.iter().map(|d| d.query(qi)).collect()).collect();
    BatchBfsResult { per_query, local_state, elapsed: stats.elapsed, stats, ledger }
}

/// A batched-BFS queue over a fresh ledger with query `qi`'s depth-0
/// visitor pushed at `sources[qi]`'s master — where [`bfs_batch`] and the
/// lifecycle engine both start. Collective.
pub(crate) fn seeded_queue<'g, const K: usize>(
    ctx: &RankCtx,
    g: &'g DistGraph,
    sources: &[VertexId],
    traversal: TraversalConfig,
) -> (VisitorQueue<'g, BatchBfsVisitor<K>>, Arc<LedgerCells>) {
    assert!(K <= MAX_BATCH, "batch width {K} exceeds MAX_BATCH {MAX_BATCH}");
    assert!(sources.len() <= K, "{} sources exceed batch width {K}", sources.len());
    let ledger = Arc::new(LedgerCells::default());
    let mut q = VisitorQueue::new_with_ctx(ctx, g, traversal, Arc::clone(&ledger));
    for (qi, &s) in sources.iter().enumerate() {
        if g.is_master(s) {
            let ledger = Arc::clone(&ledger);
            q.push(BatchBfsVisitor { vertex: s, length: 0, parent: s.0, mask: 1 << qi, ledger });
        }
    }
    (q, ledger)
}

/// Per-query results of a batched BFS that every rank agrees on.
pub(crate) struct QueryTotals {
    pub aggregates: Vec<QueryAggregates>,
    /// Each query's [`level_digest`](crate::algorithms::bfs::level_digest)
    /// (zeros unless `DIGEST`).
    pub digest: Vec<u64>,
    /// World sums of the per-query ledger counters.
    pub executed: Vec<u64>,
    pub pushed: Vec<u64>,
}

/// Fold the first `width` query slots of `state` over masters only
/// (replica state is a copy) and all-reduce them with `ledger`'s per-query
/// counters: one collective, whatever the width.
pub(crate) fn reduce_per_query<const K: usize, const DIGEST: bool>(
    ctx: &RankCtx,
    g: &DistGraph,
    state: &[BatchBfsData<K>],
    width: usize,
    ledger: &BatchLedger,
) -> QueryTotals {
    // sums: visited | traversed | digest | executed | pushed, `width` each
    let mut sums = vec![0u64; 5 * width];
    let mut deepest = vec![0u64; width];
    for v in g.local_vertices().filter(|&v| g.is_master(v)) {
        let d = &state[g.local_index(v)];
        let deg = g.total_degree(v);
        for qi in (0..width).filter(|&qi| d.length[qi] != UNREACHED) {
            sums[qi] += 1;
            sums[width + qi] += deg;
            if DIGEST {
                sums[2 * width + qi] =
                    sums[2 * width + qi].wrapping_add(level_term(v, d.length[qi]));
            }
            deepest[qi] = deepest[qi].max(d.length[qi]);
        }
    }
    sums[3 * width..4 * width].copy_from_slice(&ledger.executed[..width]);
    sums[4 * width..].copy_from_slice(&ledger.pushed[..width]);
    let (sums, deepest) = ctx.all_reduce((sums, deepest), |(mut sums, mut deepest), (s, d)| {
        sums.iter_mut().zip(s).for_each(|(x, y)| *x = x.wrapping_add(y));
        deepest.iter_mut().zip(d).for_each(|(x, y)| *x = (*x).max(y));
        (sums, deepest)
    });
    let column = |c: usize| sums[c * width..(c + 1) * width].to_vec();
    let aggregates = (0..width)
        .map(|qi| QueryAggregates {
            visited_count: sums[qi],
            traversed_edges: sums[width + qi],
            max_level: deepest[qi],
        })
        .collect();
    QueryTotals { aggregates, digest: column(2), executed: column(3), pushed: column(4) }
}

// --- batched reachability -------------------------------------------------

/// Per-vertex state for up to 64 reachability queries: which queries have
/// reached this vertex, and which of those this vertex has already
/// expanded for. Two machine words regardless of the batch width.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReachData {
    pub reached: u64,
    pub expanded: u64,
}

impl WireCodec for ReachData {
    const WIRE_SIZE: usize = 16;
    type DecodeCtx = ();

    fn encode(&self, buf: &mut [u8]) {
        self.reached.encode(&mut buf[..8]);
        self.expanded.encode(&mut buf[8..16]);
    }

    fn decode(buf: &[u8], ctx: &()) -> Self {
        ReachData { reached: u64::decode(&buf[..8], ctx), expanded: u64::decode(&buf[8..16], ctx) }
    }
}

/// Batched reachability visitor: pure mask propagation (no per-query
/// payload at all), the minimal demonstration that the `active_mask` is
/// all the batching layer needs.
#[derive(Clone, Copy, Debug)]
pub struct BatchReachVisitor {
    pub vertex: VertexId,
    pub mask: u64,
}

impl WireCodec for BatchReachVisitor {
    const WIRE_SIZE: usize = 16;
    type DecodeCtx = ();

    fn encode(&self, buf: &mut [u8]) {
        self.vertex.encode(&mut buf[..8]);
        self.mask.encode(&mut buf[8..16]);
    }

    fn decode(buf: &[u8], ctx: &()) -> Self {
        BatchReachVisitor {
            vertex: VertexId::decode(&buf[..8], ctx),
            mask: u64::decode(&buf[8..16], ctx),
        }
    }
}

impl Visitor for BatchReachVisitor {
    type Data = ReachData;
    /// Monotone bit-OR: imprecise ghost filtering is safe.
    const GHOSTS_ALLOWED: bool = true;

    #[inline]
    fn vertex(&self) -> VertexId {
        self.vertex
    }

    #[inline]
    fn pre_visit(&self, data: &mut ReachData, _role: Role) -> bool {
        let new = self.mask & !data.reached;
        data.reached |= new;
        new != 0
    }

    /// Expand every query that reached this vertex but has not been
    /// expanded here yet. Under the worker pool this runs on a seed copy
    /// and concurrent executions may both claim overlapping `todo` masks —
    /// the duplicate pushes are idempotent under the monotone OR, and the
    /// OR-merge below keeps `expanded` exact.
    fn visit(&self, g: &DistGraph, data: &mut ReachData, out: &mut dyn VisitorPush<Self>) {
        let todo = data.reached & !data.expanded;
        if todo == 0 {
            return;
        }
        data.expanded |= todo;
        g.with_adj(self.vertex, |adj| {
            for &t in adj {
                out.push(BatchReachVisitor { vertex: VertexId(t), mask: todo });
            }
        });
    }

    #[inline]
    fn merge(into: &mut ReachData, update: &ReachData) {
        into.reached |= update.reached;
        into.expanded |= update.expanded;
    }
}

/// Result of one batched reachability run (per rank).
#[derive(Clone, Debug)]
pub struct BatchReachResult {
    /// Per-query global count of reached vertices (including the source).
    pub reached_counts: Vec<u64>,
    /// This rank's local reach masks, indexed by local vertex index.
    pub local_masks: Vec<u64>,
    /// Wall-clock of the traversal phase on this rank.
    pub elapsed: Duration,
    /// This rank's queue statistics.
    pub stats: TraversalStats,
}

/// Run up to [`MAX_BATCH`] reachability queries through one shared
/// traversal. Collective. The reach width is runtime-sized (state is two
/// words regardless), so no const parameter is needed.
pub fn reach_batch(
    ctx: &RankCtx,
    g: &DistGraph,
    sources: &[VertexId],
    cfg: &BatchConfig,
) -> BatchReachResult {
    assert!(sources.len() <= MAX_BATCH, "{} sources exceed MAX_BATCH {MAX_BATCH}", sources.len());
    let mut q = VisitorQueue::<BatchReachVisitor>::new(ctx, g, cfg.traversal);
    for (qi, &s) in sources.iter().enumerate() {
        if g.is_master(s) {
            q.push(BatchReachVisitor { vertex: s, mask: 1u64 << qi });
        }
    }
    q.traverse(ctx, cfg.checkpoint.as_ref());

    let mut counts = vec![0u64; sources.len()];
    for v in g.local_vertices() {
        if !g.is_master(v) {
            continue;
        }
        let d = &q.state()[g.local_index(v)];
        for (qi, c) in counts.iter_mut().enumerate() {
            if d.reached & (1u64 << qi) != 0 {
                *c += 1;
            }
        }
    }
    let reached_counts = ctx.all_reduce_sum_vec(counts);
    let stats = q.stats();
    let local_masks = q.into_state().iter().map(|d| d.reached).collect();
    BatchReachResult { reached_counts, local_masks, elapsed: stats.elapsed, stats }
}

// --- the QueryBatch scheduler ---------------------------------------------

/// Error returned when a batch is at capacity (admission control).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchFull;

impl std::fmt::Display for BatchFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query batch is at capacity")
    }
}

/// Call the batched engine `$engine::<K>` at the narrowest compile-time
/// state width K ∈ {2, 8, 16, 64} that fits `$queries`, so small batches
/// don't pay for 64-wide per-vertex state (`serve_mem` runs on both sides
/// of the 16 | 64 step).
macro_rules! at_batch_width {
    ($queries:expr, $engine:ident($($arg:expr),*)) => {
        match $queries {
            0..=2 => $engine::<2>($($arg),*),
            3..=8 => $engine::<8>($($arg),*),
            9..=16 => $engine::<16>($($arg),*),
            _ => $engine::<64>($($arg),*),
        }
    };
}
pub(crate) use at_batch_width;

/// A batch of admitted queries, run as one shared traversal.
///
/// Admission is capacity-bounded ([`QueryBatch::try_admit`]); `run_bfs`
/// drains the batch through [`bfs_batch`], dispatching to the narrowest
/// compile-time state width that fits the admitted count so small batches
/// don't pay for 64-wide per-vertex state.
#[derive(Clone, Debug)]
pub struct QueryBatch {
    sources: Vec<VertexId>,
    capacity: usize,
}

impl QueryBatch {
    /// A new empty batch with the given capacity (clamped to
    /// [`MAX_BATCH`]; zero is rounded up to one).
    pub fn new(capacity: usize) -> Self {
        Self { sources: Vec::new(), capacity: capacity.clamp(1, MAX_BATCH) }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.sources.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    fn is_full(&self) -> bool {
        self.sources.len() >= self.capacity
    }

    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// Admit one query; returns its slot index, or [`BatchFull`] when the
    /// batch is at capacity and the caller must wait for the next batch.
    ///
    /// Duplicate sources are deliberately *not* deduplicated: two queries
    /// on the same key are two independent queries. Each gets its own
    /// batch slot, its own mask bit, its own ledger entry and its own
    /// per-query result — the mask plane multiplexes them through one
    /// traversal exactly as it does distinct sources, so a duplicate
    /// costs one state bit, not a second traversal. Deduplication, if
    /// wanted, belongs in a caller-side cache keyed on (source, epoch),
    /// not in admission, where it would silently merge queries with
    /// different deadlines or owners.
    pub fn try_admit(&mut self, source: VertexId) -> Result<usize, BatchFull> {
        if self.is_full() {
            return Err(BatchFull);
        }
        self.sources.push(source);
        Ok(self.sources.len() - 1)
    }

    /// Run the admitted queries as one batched BFS and drain the batch.
    /// Collective: every rank must hold the same admitted sources (in a
    /// distributed serving loop, admission decisions are driven by
    /// world-agreed clocks — see [`AdmissionQueue`]).
    pub fn run_bfs(&mut self, ctx: &RankCtx, g: &DistGraph, cfg: &BatchConfig) -> BatchBfsResult {
        let sources = std::mem::take(&mut self.sources);
        at_batch_width!(sources.len(), bfs_batch(ctx, g, &sources, cfg))
    }
}

// --- admission queue (offered-load scheduler) -----------------------------

/// One query arrival in the serving simulation: when it arrived (on the
/// virtual clock), what it asks for, and by when it must *start* service
/// to still be useful (`u64::MAX` = no deadline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    pub at_ns: u64,
    pub source: VertexId,
    /// Absolute event-clock deadline: if the queue cannot admit the query
    /// before this instant, serving it is wasted work and the scheduler
    /// sheds it instead ([`QueryOutcome::Shed`](crate::lifecycle::QueryOutcome)).
    pub deadline_ns: u64,
}

impl Arrival {
    /// An arrival with no deadline.
    pub fn new(at_ns: u64, source: VertexId) -> Self {
        Self { at_ns, source, deadline_ns: u64::MAX }
    }

    /// Set an absolute start-of-service deadline on the event clock.
    pub fn with_deadline(mut self, deadline_ns: u64) -> Self {
        self.deadline_ns = deadline_ns;
        self
    }
}

/// What to do with new work when the pending queue is at its backlog
/// bound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Refuse the newest arrival (classic bounded queue; protects queries
    /// already waiting, so no admitted query is ever betrayed).
    #[default]
    RejectNew,
    /// Drop the oldest pending arrival to make room (freshest-first;
    /// right when stale answers are worthless, e.g. deadline-heavy
    /// traffic — the oldest entry is the most likely to be dead on
    /// admission anyway).
    DropOldest,
}

/// The pure event-clock scheduler behind the benchmark's `serve_mem`
/// workload.
///
/// Queries arrive on a virtual nanosecond clock; batches are formed FIFO
/// up to `capacity` (the admission control: later arrivals wait for the
/// next batch), served for a *measured* duration fed back by the caller,
/// and per-query latency is completion minus arrival. The scheduler holds
/// no wall-clock state of its own, so multi-rank drivers can feed it a
/// world-agreed duration (`all_reduce_max` of the measured nanos) and
/// every rank makes identical admission decisions.
///
/// Overload protection is opt-in and two-pronged:
/// - [`AdmissionQueue::with_max_backlog`] bounds the pending queue; at
///   the bound, the configured [`ShedPolicy`] sheds either the newest
///   offer or the oldest waiter. A bounded backlog is what turns an
///   overload from an unbounded latency ramp into a bounded-latency,
///   partial-goodput regime: with backlog ≤ B and batch capacity C, no
///   admitted query ever waits more than ⌈B/C⌉ + 1 batch services.
/// - Deadline-aware admission: an arrival whose `deadline_ns` has passed
///   when a batch forms is dead on admission — serving it is pure waste,
///   so it is shed instead.
///
/// Shed queries never contribute latency samples (they have no service
/// completion); they are accounted in [`AdmissionQueue::shed_total`], as
/// overflow at the backlog bound or as expiry at batch formation.
#[derive(Clone, Debug)]
pub struct AdmissionQueue {
    capacity: usize,
    max_backlog: Option<usize>,
    shed_policy: ShedPolicy,
    clock_ns: u64,
    pending: VecDeque<Arrival>,
    in_flight: Vec<Arrival>,
    latencies_ns: Vec<u64>,
    peak_backlog: usize,
    /// Arrivals shed at the backlog bound (whichever side the policy
    /// dropped).
    shed_overflow: u64,
    /// Arrivals shed at batch formation because their deadline had
    /// already passed.
    shed_expired: u64,
    offered: u64,
}

impl AdmissionQueue {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.clamp(1, MAX_BATCH),
            max_backlog: None,
            shed_policy: ShedPolicy::default(),
            clock_ns: 0,
            pending: VecDeque::new(),
            in_flight: Vec::new(),
            latencies_ns: Vec::new(),
            peak_backlog: 0,
            shed_overflow: 0,
            shed_expired: 0,
            offered: 0,
        }
    }

    /// Bound the pending queue to `n` waiters (clamped to at least 1);
    /// beyond it, the shed policy decides who is dropped.
    pub fn with_max_backlog(mut self, n: usize) -> Self {
        self.max_backlog = Some(n.max(1));
        self
    }

    /// Choose who is shed at the backlog bound (default
    /// [`ShedPolicy::RejectNew`]).
    pub fn with_shed_policy(mut self, policy: ShedPolicy) -> Self {
        self.shed_policy = policy;
        self
    }

    /// Enqueue one arrival. Arrival timestamps must be non-decreasing.
    /// Returns `false` iff this arrival was shed at the backlog bound,
    /// which happens only under [`ShedPolicy::RejectNew`]. Under
    /// [`ShedPolicy::DropOldest`] the oldest waiter is shed instead and
    /// the new arrival is admitted, so the call returns `true`.
    pub fn offer(&mut self, a: Arrival) -> bool {
        if let Some(last) = self.pending.back() {
            assert!(a.at_ns >= last.at_ns, "arrivals must be offered in time order");
        }
        self.offered += 1;
        if self.max_backlog.is_some_and(|b| self.pending.len() >= b) {
            self.shed_overflow += 1;
            match self.shed_policy {
                ShedPolicy::RejectNew => return false,
                ShedPolicy::DropOldest => {
                    self.pending.pop_front();
                }
            }
        }
        self.pending.push_back(a);
        self.peak_backlog = self.peak_backlog.max(self.pending.len());
        true
    }

    /// Form the next batch: advance the clock to the first pending arrival
    /// if the server is idle, shed every waiter whose deadline has already
    /// passed, then admit (FIFO) every arrival already in the past, up to
    /// capacity. Returns the admitted queries (empty iff nothing is
    /// pending or everything pending expired).
    pub fn start_batch(&mut self) -> &[Arrival] {
        assert!(self.in_flight.is_empty(), "previous batch not finished");
        if let Some(first) = self.pending.front() {
            self.clock_ns = self.clock_ns.max(first.at_ns);
        }
        while self.in_flight.len() < self.capacity {
            match self.pending.front() {
                Some(a) if a.at_ns <= self.clock_ns => {
                    let a = self.pending.pop_front().unwrap();
                    if a.deadline_ns <= self.clock_ns {
                        self.shed_expired += 1;
                    } else {
                        self.in_flight.push(a);
                    }
                }
                _ => break,
            }
        }
        &self.in_flight
    }

    /// Complete the in-flight batch after `service_ns` of service time:
    /// the clock advances and every admitted query's latency (queue wait +
    /// service) is recorded.
    pub fn finish_batch(&mut self, service_ns: u64) {
        self.clock_ns += service_ns;
        for a in self.in_flight.drain(..) {
            self.latencies_ns.push(self.clock_ns - a.at_ns);
        }
    }

    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    pub fn peak_backlog(&self) -> usize {
        self.peak_backlog
    }

    pub fn shed_total(&self) -> u64 {
        self.shed_overflow + self.shed_expired
    }

    /// Every arrival ever offered (served + shed + still pending).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Recorded per-query latencies, in completion order.
    pub fn latencies_ns(&self) -> &[u64] {
        &self.latencies_ns
    }
}

/// The `p`-th percentile (0..=100) of a latency population, by
/// nearest-rank on a sorted copy. Returns 0 on an empty population.
pub fn percentile_ns(latencies: &[u64], p: usize) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len()).div_ceil(100).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr(at_ns: u64, v: u64) -> Arrival {
        Arrival::new(at_ns, VertexId(v))
    }

    #[test]
    fn admission_respects_capacity_and_fifo() {
        let mut aq = AdmissionQueue::new(2);
        for i in 0..5 {
            aq.offer(arr(i * 10, i));
        }
        let b1: Vec<u64> = aq.start_batch().iter().map(|a| a.source.0).collect();
        // clock advanced to the first arrival (t=0); only it is in the past
        assert_eq!(b1, vec![0]);
        aq.finish_batch(100); // clock = 100: arrivals 1..=4 are now waiting
        let b2: Vec<u64> = aq.start_batch().iter().map(|a| a.source.0).collect();
        assert_eq!(b2, vec![1, 2], "capacity 2, FIFO order");
        aq.finish_batch(100); // clock = 200
        let b3: Vec<u64> = aq.start_batch().iter().map(|a| a.source.0).collect();
        assert_eq!(b3, vec![3, 4]);
        aq.finish_batch(100);
        assert_eq!(aq.pending_len(), 0);
        assert_eq!(aq.peak_backlog(), 5);
    }

    #[test]
    fn latency_is_queue_wait_plus_service() {
        let mut aq = AdmissionQueue::new(1);
        aq.offer(arr(0, 0));
        aq.offer(arr(5, 1));
        aq.start_batch();
        aq.finish_batch(100); // q0: arrived 0, done 100 -> 100
        aq.start_batch();
        aq.finish_batch(50); // q1: arrived 5, done 150 -> 145
        assert_eq!(aq.latencies_ns(), &[100, 145]);
    }

    #[test]
    fn idle_server_advances_clock_to_next_arrival() {
        let mut aq = AdmissionQueue::new(4);
        aq.offer(arr(1_000, 7));
        let b: Vec<u64> = aq.start_batch().iter().map(|a| a.source.0).collect();
        assert_eq!(b, vec![7]);
        aq.finish_batch(10);
        assert_eq!(aq.clock_ns(), 1_010, "no latency charged for idle time");
        assert_eq!(aq.latencies_ns(), &[10]);
    }

    #[test]
    fn empty_batch_when_nothing_pending() {
        let mut aq = AdmissionQueue::new(4);
        assert!(aq.start_batch().is_empty());
        aq.finish_batch(0);
        assert_eq!(aq.latencies_ns(), &[] as &[u64]);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let lats: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&lats, 50), 50);
        assert_eq!(percentile_ns(&lats, 99), 99);
        assert_eq!(percentile_ns(&lats, 100), 100);
        assert_eq!(percentile_ns(&[42], 99), 42);
        assert_eq!(percentile_ns(&[], 50), 0);
    }

    /// Boundary ranks: the rank clamp must keep p=0 on the minimum (rank
    /// 1, not a 0 index underflow), p=100 on the maximum, and a single
    /// sample must answer every percentile with itself.
    #[test]
    fn percentile_boundary_ranks() {
        let lats: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&lats, 0), 1, "p=0 is the population minimum");
        assert_eq!(percentile_ns(&lats, 1), 1);
        assert_eq!(percentile_ns(&lats, 100), 100, "p=100 is the population maximum");
        for p in [0, 1, 50, 99, 100] {
            assert_eq!(percentile_ns(&[7], p), 7, "single sample answers p={p}");
        }
        assert_eq!(percentile_ns(&[], 0), 0);
        assert_eq!(percentile_ns(&[], 100), 0);
        // unsorted input: percentile works on a sorted copy
        assert_eq!(percentile_ns(&[30, 10, 20], 0), 10);
        assert_eq!(percentile_ns(&[30, 10, 20], 100), 30);
    }

    #[test]
    fn query_batch_admission_control() {
        let mut b = QueryBatch::new(2);
        assert_eq!(b.try_admit(VertexId(1)), Ok(0));
        assert_eq!(b.try_admit(VertexId(2)), Ok(1));
        assert!(b.is_full());
        assert_eq!(b.try_admit(VertexId(3)), Err(BatchFull));
        assert_eq!(b.sources(), &[VertexId(1), VertexId(2)]);
    }

    /// Two queries on the same source key are two independent queries:
    /// distinct slots at admission, and after a run, per-query aggregates
    /// and ledger entries that are each complete on their own (not split
    /// between the twins).
    #[test]
    fn duplicate_sources_are_independent_queries() {
        let mut b = QueryBatch::new(4);
        assert_eq!(b.try_admit(VertexId(5)), Ok(0));
        assert_eq!(b.try_admit(VertexId(5)), Ok(1), "duplicate gets its own slot");
        assert_eq!(b.sources(), &[VertexId(5), VertexId(5)]);

        use havoq_comm::CommWorld;
        use havoq_graph::csr::GraphConfig;
        use havoq_graph::dist::PartitionStrategy;
        use havoq_graph::gen::rmat::RmatGenerator;
        let gen = RmatGenerator::graph500(7);
        let edges = gen.symmetric_edges(13);
        let out = CommWorld::run(2, move |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let mut b = QueryBatch::new(4);
            b.try_admit(VertexId(5)).unwrap();
            b.try_admit(VertexId(5)).unwrap();
            b.run_bfs(ctx, &g, &BatchConfig::default())
        });
        for res in out {
            res.ledger.check(2).unwrap();
            let (a, b) = (&res.per_query[0], &res.per_query[1]);
            assert_eq!(a.visited_count, b.visited_count, "twins answer identically");
            assert_eq!(a.traversed_edges, b.traversed_edges);
            assert_eq!(a.max_level, b.max_level);
            assert!(a.visited_count > 1, "vertex 5 reaches the RMAT core");
            // each twin's ledger entry is a full traversal's worth of work,
            // not half of one: executed counts must match exactly (the mask
            // plane drives both bits through the same visitor executions)
            assert_eq!(res.ledger.executed[0], res.ledger.executed[1]);
            assert_eq!(res.ledger.pushed[0], res.ledger.pushed[1]);
            assert!(res.ledger.executed[0] > 0);
            // and the per-vertex states agree bit for bit
            let l0: Vec<u64> = res.local_state[0].iter().map(|d| d.length).collect();
            let l1: Vec<u64> = res.local_state[1].iter().map(|d| d.length).collect();
            assert_eq!(l0, l1, "twin level arrays identical");
        }
    }

    /// Batch service time of [`overloaded`].
    const OVERLOAD_SERVICE_NS: u64 = 80;

    /// 48 arrivals 10 ns apart through an event-fed serving loop with
    /// capacity 2, backlog 4 and 80 ns per batch: 8 arrivals per service
    /// against the 2 the server takes, a 4x overload. Each arrival is
    /// offered once the clock reaches it.
    fn overloaded(policy: ShedPolicy) -> AdmissionQueue {
        let mut aq = AdmissionQueue::new(2).with_max_backlog(4).with_shed_policy(policy);
        let stream: Vec<Arrival> = (0..48).map(|i| arr(i * 10, i)).collect();
        let mut next = 0;
        loop {
            while next < stream.len() && stream[next].at_ns <= aq.clock_ns() {
                aq.offer(stream[next]);
                next += 1;
            }
            if aq.pending_len() == 0 {
                if next == stream.len() {
                    return aq;
                }
                aq.offer(stream[next]);
                next += 1;
                continue;
            }
            aq.start_batch();
            aq.finish_batch(OVERLOAD_SERVICE_NS);
        }
    }

    /// The bounded-backlog contract under 4x overload: the queue sheds,
    /// every offer is served or shed, and p99 stays within
    /// max(B, ⌈B/C⌉ + 1) = 4 batch services.
    fn assert_overload_contract(aq: &AdmissionQueue) {
        assert!(aq.shed_overflow > 0, "4x overload must shed");
        assert_eq!(aq.latencies_ns().len() as u64 + aq.shed_total(), 48);
        let p99 = percentile_ns(aq.latencies_ns(), 99);
        assert!(p99 <= 4 * OVERLOAD_SERVICE_NS, "p99 {p99} ns above the ceiling");
    }

    #[test]
    fn backlog_bound_reject_new_sheds_the_offer() {
        let mut aq = AdmissionQueue::new(2).with_max_backlog(2);
        assert!(aq.offer(arr(0, 0)));
        assert!(aq.offer(arr(0, 1)));
        assert!(!aq.offer(arr(0, 2)), "third offer bounces off the bound");
        assert_eq!(aq.shed_overflow, 1);
        assert_eq!(aq.pending_len(), 2);
        aq.start_batch();
        aq.finish_batch(10);
        // both survivors served; the shed offer never shows up in latency
        assert_eq!(aq.latencies_ns().len(), 2);
        assert_eq!(aq.offered(), 3);
        assert_eq!(aq.shed_total(), 1);
        assert_overload_contract(&overloaded(ShedPolicy::RejectNew));
    }

    #[test]
    fn backlog_bound_drop_oldest_prefers_fresh_work() {
        let mut aq =
            AdmissionQueue::new(2).with_max_backlog(2).with_shed_policy(ShedPolicy::DropOldest);
        assert!(aq.offer(arr(0, 0)));
        assert!(aq.offer(arr(0, 1)));
        assert!(aq.offer(arr(0, 2)), "newest survives by evicting the oldest");
        assert_eq!(aq.shed_overflow, 1);
        let b: Vec<u64> = aq.start_batch().iter().map(|a| a.source.0).collect();
        assert_eq!(b, vec![1, 2], "arrival 0 was evicted");
        assert_overload_contract(&overloaded(ShedPolicy::DropOldest));
    }

    #[test]
    fn expired_deadlines_are_shed_at_batch_formation() {
        let mut aq = AdmissionQueue::new(4);
        aq.offer(arr(0, 0)); // no deadline: always served
        aq.offer(arr(0, 1).with_deadline(50)); // dead once the clock passes 50
        aq.offer(arr(0, 2).with_deadline(10_000)); // alive
        aq.start_batch();
        aq.finish_batch(100); // clock = 100
        aq.offer(arr(100, 3).with_deadline(90)); // already dead on arrival
        let b: Vec<u64> = aq.start_batch().iter().map(|a| a.source.0).collect();
        assert_eq!(b, Vec::<u64>::new(), "the only waiter was past its deadline");
        // first batch served all three (clock was 0 ≤ both deadlines);
        // the late-offered expired one was shed at formation
        assert_eq!(aq.shed_expired, 1);
        assert_eq!(aq.latencies_ns().len(), 3);
    }

    /// A deadline that expires while waiting (not only on arrival): the
    /// query was alive when offered, but the clock passed its deadline
    /// before a batch slot opened.
    #[test]
    fn deadline_expires_while_queued() {
        let mut aq = AdmissionQueue::new(1);
        aq.offer(arr(0, 0));
        aq.offer(arr(1, 1).with_deadline(50));
        aq.start_batch(); // serves query 0
        aq.finish_batch(100); // clock = 100 > 50
        let b: Vec<u64> = aq.start_batch().iter().map(|a| a.source.0).collect();
        assert!(b.is_empty());
        assert_eq!(aq.shed_expired, 1);
        assert_eq!(aq.latencies_ns().len(), 1);
    }

    #[test]
    fn batch_data_codec_roundtrip() {
        let mut d = BatchBfsData::<8>::default();
        d.length[0] = 3;
        d.parent[0] = 17;
        d.length[7] = 0;
        d.parent[7] = 7;
        d.expanded = 0b1000_0001;
        let mut buf = vec![0u8; BatchBfsData::<8>::WIRE_SIZE];
        d.encode(&mut buf);
        let back = BatchBfsData::<8>::decode(&buf, &());
        assert_eq!(back, d);
        assert_eq!(back.query(0), BfsData { length: 3, parent: 17 });
        assert_eq!(back.query(1), BfsData::default());
    }

    #[test]
    fn batch_visitor_codec_reattaches_ledger() {
        let ledger = Arc::new(LedgerCells::default());
        let v = BatchBfsVisitor::<4> {
            vertex: VertexId(9),
            length: 2,
            parent: 5,
            mask: 0b1010,
            ledger: Arc::clone(&ledger),
        };
        let mut buf = vec![0u8; BatchBfsVisitor::<4>::WIRE_SIZE];
        v.encode(&mut buf);
        let back = BatchBfsVisitor::<4>::decode(&buf, &ledger);
        assert_eq!(back.vertex, v.vertex);
        assert_eq!(back.length, v.length);
        assert_eq!(back.parent, v.parent);
        assert_eq!(back.mask, v.mask);
        assert!(Arc::ptr_eq(&back.ledger, &ledger));
    }

    #[test]
    fn ledger_sums_match_totals_by_construction() {
        let cells = LedgerCells::default();
        cells.record_executed(0b1011);
        cells.record_pushed(0b1011, 4);
        cells.record_executed(0b0001);
        cells.record_pushed(0b0001, 2);
        let snap = cells.snapshot();
        snap.check(4).unwrap();
        assert_eq!(snap.executed[0], 2);
        assert_eq!(snap.executed[1], 1);
        assert_eq!(snap.executed[3], 1);
        assert_eq!(snap.executed_total, 4);
        assert_eq!(snap.pushed[0], 6);
        assert_eq!(snap.pushed_total, 14);
        assert!(snap.check(1).is_err(), "bit 1 attributed beyond width 1");
    }

    #[test]
    fn reach_data_codec_roundtrip() {
        let d = ReachData { reached: 0xDEAD, expanded: 0xBEEF };
        let mut buf = vec![0u8; ReachData::WIRE_SIZE];
        d.encode(&mut buf);
        assert_eq!(ReachData::decode(&buf, &()), d);
    }

    #[test]
    fn batched_matches_single_source_smoke() {
        use crate::algorithms::bfs::{bfs, BfsConfig};
        use havoq_comm::CommWorld;
        use havoq_graph::csr::GraphConfig;
        use havoq_graph::dist::PartitionStrategy;
        use havoq_graph::gen::rmat::RmatGenerator;

        let gen = RmatGenerator::graph500(7);
        let edges = gen.symmetric_edges(11);
        let sources = [VertexId(0), VertexId(1), VertexId(2)];
        let out = CommWorld::run(2, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let serial: Vec<_> = sources
                .iter()
                .map(|&s| {
                    let r = bfs(ctx, &g, s, &BfsConfig::default());
                    (r.visited_count, r.traversed_edges, r.max_level, r.local_state)
                })
                .collect();
            let batched = bfs_batch::<4>(ctx, &g, &sources, &BatchConfig::default());
            let reach = reach_batch(ctx, &g, &sources, &BatchConfig::default());
            (serial, batched, reach)
        });
        for (serial, batched, reach) in out {
            batched.ledger.check(sources.len()).unwrap();
            for (qi, (v, t, m, state)) in serial.iter().enumerate() {
                let agg = &batched.per_query[qi];
                assert_eq!((agg.visited_count, agg.traversed_edges, agg.max_level), (*v, *t, *m));
                assert_eq!(reach.reached_counts[qi], *v, "reach set == BFS visited set");
                let serial_levels: Vec<u64> = state.iter().map(|d| d.length).collect();
                let batched_levels: Vec<u64> =
                    batched.local_state[qi].iter().map(|d| d.length).collect();
                assert_eq!(serial_levels, batched_levels, "query {qi} levels");
            }
        }
    }
}
