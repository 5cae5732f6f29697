//! Direction-optimizing BFS (DESIGN.md §13).
//!
//! The asynchronous visitor BFS always expands *top-down*: every frontier
//! vertex pushes a candidate along every out-edge. On scale-free graphs
//! the two or three hub-heavy middle levels then inspect nearly every edge
//! of the graph. Beamer-style direction optimization (Buluç–Madduri,
//! PAPERS.md) flips those levels *bottom-up*: every still-unvisited vertex
//! scans its own adjacency for any parent already in the frontier and
//! stops at the first hit, which on fat frontiers touches a small prefix
//! of each list instead of the whole edge set.
//!
//! This module drives the existing [`VisitorQueue`] level-synchronously:
//!
//! - dense per-rank **frontier / visited bitmaps**
//!   ([`havoq_util::parallel::AtomicBitVec`]) live alongside the visitor
//!   heap, indexed by local vertex index;
//! - each level both directions *generate candidate visitors*
//!   `(vertex, level+1, parent)` pushed through the ordinary CRC-framed
//!   mailbox, so ghost filtering, split-vertex replica chains and the
//!   integrity plane are inherited unchanged;
//! - `VisitorQueue::drain_round` — the queue's one driver with the park
//!   executor and one-round cuts — delivers a round to a non-terminal
//!   quiescence cut and parks the surviving visitors, which are exactly
//!   the next frontier (master and replica copies both);
//! - before a bottom-up level the master frontier bits cross the wire as
//!   sparse words on a [`FrontierPlane`], OR-ed into a global bitmap on
//!   every rank;
//! - the switch heuristic runs on per-level `all_reduce_sum` collectives
//!   of frontier size and frontier/unvisited edge counts, so every rank
//!   takes the same direction deterministically.
//!
//! **Determinism.** Levels are direction-invariant (a vertex's BFS level
//! is a graph property). Parents are made direction-invariant by breaking
//! ties toward the *minimum-id* level-`L` neighbor: [`DirBfsVisitor`]'s
//! `pre_visit` keeps the lexicographic minimum of `(length, parent)`, so
//! top-down — which delivers one candidate per frontier in-neighbor —
//! reduces to the min-id neighbor at delivery; bottom-up scans each local
//! adjacency *slice* in sorted order (the distributed sort orders targets),
//! so its early-exit hit is the slice minimum, and the same delivery-side
//! reduction takes the minimum across a split vertex's chain slices. Both
//! directions therefore converge to identical `(length, parent)` state on
//! symmetrized graphs, which is what the fingerprint-equivalence sweeps
//! assert under chaos/lossy faults, threads ∈ {1,4} and crash-restore.

use std::time::Instant;

use havoq_comm::{FrontierPlane, RankCtx, WireCodec};
use havoq_graph::dist::DistGraph;
use havoq_graph::types::VertexId;
use havoq_util::parallel::{AtomicBitVec, PerWorker, WorkerPool};

use crate::algorithms::bfs::{BfsConfig, BfsData, BfsResult, UNREACHED};
use crate::queue::{ShardPusher, VisitorQueue};
use crate::visitor::{Role, Visitor, VisitorPush};

/// Which engine (and direction policy) a BFS traversal uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DirectionMode {
    /// The historical asynchronous visitor loop (paper Algorithm 1) —
    /// no round barriers, always top-down. The default.
    #[default]
    Async,
    /// Level-synchronous engine, forced top-down every level.
    TopDown,
    /// Level-synchronous engine, forced bottom-up every level.
    BottomUp,
    /// Level-synchronous engine with the Beamer alpha/beta heuristic.
    Auto,
}

impl DirectionMode {
    /// Parse a CLI token (`top`, `bottom`, `auto`, `async`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "top" | "topdown" | "top-down" => Some(Self::TopDown),
            "bottom" | "bottomup" | "bottom-up" => Some(Self::BottomUp),
            "auto" => Some(Self::Auto),
            "async" | "queue" => Some(Self::Async),
            _ => None,
        }
    }
}

/// Direction-optimization knobs on [`crate::queue::TraversalConfig`].
///
/// The classic Beamer heuristic: switch top-down → bottom-up when the
/// frontier's edge count exceeds `unvisited_edges / alpha`, and back
/// top-down when the frontier shrinks below `num_vertices / beta`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirectionConfig {
    pub mode: DirectionMode,
    /// Top-down → bottom-up threshold (Beamer's α, default 14).
    pub alpha: u64,
    /// Bottom-up → top-down threshold (Beamer's β, default 24).
    pub beta: u64,
}

impl Default for DirectionConfig {
    fn default() -> Self {
        Self { mode: DirectionMode::Async, alpha: 14, beta: 24 }
    }
}

/// Expansion direction of one level. The discriminants are the codes a
/// checkpointed [`LevelTrace`] stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    Top = 0,
    Bottom = 1,
}

impl Direction {
    /// Trace-column label (`top` / `bottom`).
    pub fn label(self) -> &'static str {
        match self {
            Direction::Top => "top",
            Direction::Bottom => "bottom",
        }
    }
}

/// One level of the per-run direction trace. All fields are global
/// (all-reduced), hence identical on every rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelTrace {
    /// The frontier level being expanded (source = level 0).
    pub level: u64,
    /// Direction the heuristic (or forced mode) chose.
    pub dir: Direction,
    /// Global frontier vertex count at this level.
    pub frontier: u64,
    /// Global sum of whole-adjacency degrees of frontier vertices.
    pub frontier_edges: u64,
    /// Global adjacency entries inspected generating the next level.
    pub inspected: u64,
    /// Global candidate visitors pushed (before ghost filtering).
    pub candidates: u64,
}

/// A direction-engine BFS run: the ordinary [`BfsResult`] plus the
/// per-level direction trace and the global edge-inspection total.
#[derive(Clone, Debug)]
pub struct DirBfsRun {
    pub result: BfsResult,
    pub trace: Vec<LevelTrace>,
    /// Global adjacency entries inspected across all levels — the number
    /// the ≥3× top-down-vs-auto acceptance gate compares.
    pub edges_inspected: u64,
}

/// The direction engine's BFS visitor. Same 24-byte wire record as the
/// asynchronous [`crate::algorithms::bfs::BfsVisitor`], but `pre_visit`
/// keeps the lexicographic minimum of `(length, parent)` — the delivery-
/// side reduction that makes parents deterministic in both directions.
/// Its `visit` never runs: the engine parks survivors into frontier
/// bitmaps instead of executing them.
#[derive(Clone, Copy, Debug)]
pub struct DirBfsVisitor {
    pub vertex: VertexId,
    pub length: u64,
    pub parent: u64,
}

impl WireCodec for DirBfsVisitor {
    const WIRE_SIZE: usize = 24;
    type DecodeCtx = ();

    fn encode(&self, buf: &mut [u8]) {
        self.vertex.encode(&mut buf[..8]);
        self.length.encode(&mut buf[8..16]);
        self.parent.encode(&mut buf[16..24]);
    }

    fn decode(buf: &[u8], ctx: &()) -> Self {
        DirBfsVisitor {
            vertex: VertexId::decode(&buf[..8], ctx),
            length: u64::decode(&buf[8..16], ctx),
            parent: u64::decode(&buf[16..24], ctx),
        }
    }
}

impl Visitor for DirBfsVisitor {
    type Data = BfsData;
    /// Same monotone lattice as asynchronous BFS, so ghost filtering stays
    /// safe: a ghost slot only ever reflects values already sent to the
    /// master, and the lexicographic order is a total monotone order.
    const GHOSTS_ALLOWED: bool = true;

    #[inline]
    fn vertex(&self) -> VertexId {
        self.vertex
    }

    #[inline]
    fn pre_visit(&self, data: &mut BfsData, _role: Role) -> bool {
        // lexicographic (length, parent) minimum — deterministic parent
        // tie-break toward the min-id neighbor at the min level
        if self.length < data.length || (self.length == data.length && self.parent < data.parent) {
            data.length = self.length;
            data.parent = self.parent;
            true
        } else {
            false
        }
    }

    fn visit(&self, _g: &DistGraph, _data: &mut BfsData, _q: &mut dyn VisitorPush<Self>) {
        debug_assert!(false, "direction engine never executes visit");
    }

    #[inline]
    fn priority(&self, other: &Self) -> std::cmp::Ordering {
        self.length.cmp(&other.length)
    }

    #[inline]
    fn merge(into: &mut BfsData, update: &BfsData) {
        if update.length < into.length
            || (update.length == into.length && update.parent < into.parent)
        {
            *into = *update;
        }
    }
}

/// Extra engine state serialized next to the queue snapshot at a
/// checkpoint cut (see [`VisitorQueue::checkpoint`]): everything the
/// level loop needs that is not derivable from the per-vertex state.
struct EngineCut {
    level: u64,
    dir: Direction,
    edges_inspected: u64,
    top_down_levels: u64,
    bottom_up_levels: u64,
    trace: Vec<LevelTrace>,
}

impl EngineCut {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 * (6 + 6 * self.trace.len()));
        let mut put = |v: u64| buf.extend_from_slice(&v.to_le_bytes());
        put(self.level);
        put(self.dir as u64);
        put(self.edges_inspected);
        put(self.top_down_levels);
        put(self.bottom_up_levels);
        put(self.trace.len() as u64);
        for t in &self.trace {
            for v in
                [t.level, t.dir as u64, t.frontier, t.frontier_edges, t.inspected, t.candidates]
            {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        buf
    }

    fn decode(bytes: &[u8]) -> Self {
        let mut pos = 0usize;
        let mut take = || {
            let v = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
            pos += 8;
            v
        };
        let level = take();
        let dir = if take() == 0 { Direction::Top } else { Direction::Bottom };
        let edges_inspected = take();
        let top_down_levels = take();
        let bottom_up_levels = take();
        let len = take() as usize;
        let mut trace = Vec::with_capacity(len);
        for _ in 0..len {
            trace.push(LevelTrace {
                level: take(),
                dir: if take() == 0 { Direction::Top } else { Direction::Bottom },
                frontier: take(),
                frontier_edges: take(),
                inspected: take(),
                candidates: take(),
            });
        }
        Self { level, dir, edges_inspected, top_down_levels, bottom_up_levels, trace }
    }
}

/// Run direction-optimizing BFS from `source`. Collective; requires a
/// symmetrized graph (bottom-up treats a vertex's out-neighbors as its
/// in-neighbors, which is exactly the Graph500 / RMAT workload shape).
/// `cfg.traversal.direction.mode` must not be [`DirectionMode::Async`] —
/// [`crate::algorithms::bfs::bfs`] dispatches that to the visitor loop.
pub fn direction_bfs(ctx: &RankCtx, g: &DistGraph, source: VertexId, cfg: &BfsConfig) -> DirBfsRun {
    let dcfg = cfg.traversal.direction;
    assert_ne!(dcfg.mode, DirectionMode::Async, "direction engine needs a non-Async mode");
    let start = Instant::now();
    let mut q = VisitorQueue::<DirBfsVisitor>::new(ctx, g, cfg.traversal);
    let mut plane = FrontierPlane::open(ctx);
    let n = g.num_vertices();
    let nloc = g.num_local_vertices();
    let frontier = AtomicBitVec::new(nloc);
    let visited = AtomicBitVec::new(nloc);
    let global_frontier = AtomicBitVec::new(n as usize);
    // workers stage candidates in per-worker sinks, with their share of
    // the inspection count beside each
    let mut pool = (cfg.traversal.threads > 1).then(|| {
        let pool = WorkerPool::new(cfg.traversal.threads);
        let sinks = PerWorker::new_with(pool.size(), |_| (ShardPusher::new(g), 0u64));
        (pool, sinks)
    });

    // checkpoint machinery (same epoch/incarnation protocol as the
    // asynchronous checkpointed traversal; cuts happen at round
    // boundaries, which are already confirmed consistent cuts)
    let mut log = cfg.checkpoint.as_ref().map(|spec| (spec, spec.open_log()));
    // start "due" so epoch 0 — which crash injection spares — exists
    let mut processed_since: u64 = u64::MAX;

    let mut trace: Vec<LevelTrace> = Vec::new();
    let mut level: u64 = 0;
    let mut dir = match dcfg.mode {
        DirectionMode::BottomUp => Direction::Bottom,
        _ => Direction::Top,
    };

    if g.is_master(source) {
        q.push(DirBfsVisitor { vertex: source, length: 0, parent: source.0 });
    }
    let mut newly: Vec<DirBfsVisitor> = Vec::new();
    q.drain_round(&mut newly);
    fold_frontier(g, &frontier, &visited, &mut newly);

    loop {
        // -- checkpoint cut (round boundaries only; collective decision) --
        if let Some((spec, log)) = log.as_mut() {
            if processed_since >= spec.every.max(1) {
                let s = q.stats_mut();
                let cut = EngineCut {
                    level,
                    dir,
                    edges_inspected: s.edges_inspected,
                    top_down_levels: s.top_down_levels,
                    bottom_up_levels: s.bottom_up_levels,
                    trace: trace.clone(),
                };
                if let Some(bytes) = q.checkpoint(ctx, spec, log, Some(&cut.encode())) {
                    // The whole world rewound: restore loop state from the
                    // epoch's extra bytes and rebuild the bitmaps from the
                    // restored per-vertex state.
                    let cut = EngineCut::decode(&bytes);
                    level = cut.level;
                    dir = cut.dir;
                    trace = cut.trace;
                    let s = q.stats_mut();
                    s.edges_inspected = cut.edges_inspected;
                    s.top_down_levels = cut.top_down_levels;
                    s.bottom_up_levels = cut.bottom_up_levels;
                    frontier.clear_all();
                    visited.clear_all();
                    for li in 0..nloc {
                        let d = &q.state()[li];
                        if d.length != UNREACHED {
                            visited.test_and_set(li);
                            if d.length == level {
                                frontier.test_and_set(li);
                            }
                        }
                    }
                }
                processed_since = 0;
            }
        }

        // -- frontier statistics (masters only; identical on all ranks) --
        let mut loc_nf = 0u64;
        let mut loc_mf = 0u64;
        frontier.for_each_set(|li| {
            let v = g.vertex_at(li);
            if g.is_master(v) {
                loc_nf += 1;
                loc_mf += g.total_degree(v);
            }
        });
        let n_f = ctx.all_reduce_sum(loc_nf);
        if n_f == 0 {
            break;
        }
        let m_f = ctx.all_reduce_sum(loc_mf);
        // unvisited edge mass, recomputed per level (restore-proof)
        let mut loc_mu = 0u64;
        for li in 0..nloc {
            if !visited.get(li) {
                let v = g.vertex_at(li);
                if g.is_master(v) {
                    loc_mu += g.total_degree(v);
                }
            }
        }
        let m_u = ctx.all_reduce_sum(loc_mu);

        // -- direction decision (pure function of all-reduced values) --
        dir = match dcfg.mode {
            DirectionMode::TopDown => Direction::Top,
            DirectionMode::BottomUp => Direction::Bottom,
            DirectionMode::Auto => match dir {
                Direction::Top if m_f.saturating_mul(dcfg.alpha) > m_u => Direction::Bottom,
                Direction::Bottom if n_f.saturating_mul(dcfg.beta) < n => Direction::Top,
                unchanged => unchanged,
            },
            DirectionMode::Async => unreachable!(),
        };

        // -- bottom-up needs the global frontier bitmap on every rank --
        if dir == Direction::Bottom {
            global_frontier.clear_all();
            let mut ids: Vec<u64> = Vec::with_capacity(loc_nf as usize);
            frontier.for_each_set(|li| {
                let v = g.vertex_at(li);
                if g.is_master(v) {
                    ids.push(v.0);
                }
            });
            // sorted ids → sorted word list → deterministic wire traffic
            let mut words: Vec<(u64, u64)> = Vec::new();
            for id in ids {
                let wi = id / 64;
                let bit = 1u64 << (id % 64);
                match words.last_mut() {
                    Some((w, bits)) if *w == wi => *bits |= bit,
                    _ => words.push((wi, bit)),
                }
            }
            q.stats_mut().frontier_words_sent += words.len() as u64;
            plane.exchange(&words, |idx, bits| global_frontier.or_word(idx as usize, bits));
        }

        // -- generate next-level candidates --
        let bitmaps = (&frontier, &visited, &global_frontier);
        let pushed_before = q.stats_mut().visitors_pushed;
        let loc_inspected = match &mut pool {
            None => generate(&mut q, g, dir, level, 0..nloc, bitmaps),
            // Static contiguous ranges, absorbed in worker order: the wire
            // sees a deterministic record stream for a given thread count,
            // and delivery is order-independent anyway (lexicographic
            // minimum at `pre_visit`). Inspection counts are
            // partition-independent: each vertex contributes the same scan
            // length whichever worker owns it.
            Some((pool, sinks)) => {
                let workers = pool.size();
                let mut inspected = 0u64;
                pool.fan_out(
                    sinks,
                    |w, (sink, n)| {
                        let range = nloc * w / workers..nloc * (w + 1) / workers;
                        *n = generate(sink, g, dir, level, range, bitmaps);
                    },
                    |(sink, n)| {
                        inspected += *n;
                        q.absorb(sink);
                    },
                );
                inspected
            }
        };
        let loc_pushed = q.stats_mut().visitors_pushed - pushed_before;
        let inspected = ctx.all_reduce_sum(loc_inspected);
        let candidates = ctx.all_reduce_sum(loc_pushed);
        {
            let s = q.stats_mut();
            s.edges_inspected += loc_inspected;
            match dir {
                Direction::Top => s.top_down_levels += 1,
                Direction::Bottom => s.bottom_up_levels += 1,
            }
        }
        trace.push(LevelTrace {
            level,
            dir,
            frontier: n_f,
            frontier_edges: m_f,
            inspected,
            candidates,
        });
        processed_since = processed_since.saturating_add(n_f);

        // -- deliver the round; survivors are the next frontier --
        newly.clear();
        q.drain_round(&mut newly);
        level += 1;
        fold_frontier(g, &frontier, &visited, &mut newly);
    }

    let mut result = crate::algorithms::bfs::finish_result(ctx, g, q);
    // the engine's wall clock covers generation and the per-level
    // collectives, not only the rounds the queue's driver timed
    result.elapsed = start.elapsed();
    result.stats.elapsed = result.elapsed;
    let edges_inspected = trace.iter().map(|t| t.inspected).sum();
    DirBfsRun { result, trace, edges_inspected }
}

/// Fold round survivors into the bitmaps: the new frontier replaces the
/// old, every survivor is marked visited. Survivors may repeat a vertex
/// (parent refinements forwarded down replica chains); `test_and_set`
/// dedups them.
fn fold_frontier(
    g: &DistGraph,
    frontier: &AtomicBitVec,
    visited: &AtomicBitVec,
    newly: &mut Vec<DirBfsVisitor>,
) {
    frontier.clear_all();
    for vis in newly.drain(..) {
        let li = g.local_index(vis.vertex);
        frontier.test_and_set(li);
        visited.test_and_set(li);
    }
}

/// Generate one level's candidates for the local indices in `range` into
/// `sink` — the queue itself on the serial path, a worker's shard pusher
/// on the pool. Returns the adjacency entries inspected.
fn generate(
    sink: &mut impl VisitorPush<DirBfsVisitor>,
    g: &DistGraph,
    dir: Direction,
    level: u64,
    range: std::ops::Range<usize>,
    (frontier, visited, global_frontier): (&AtomicBitVec, &AtomicBitVec, &AtomicBitVec),
) -> u64 {
    let mut inspected = 0u64;
    match dir {
        Direction::Top => frontier.for_each_set_in(range, |li| {
            let v = g.vertex_at(li);
            g.with_adj(v, |adj| {
                inspected += adj.len() as u64;
                for &t in adj {
                    sink.push(DirBfsVisitor {
                        vertex: VertexId(t),
                        length: level + 1,
                        parent: v.0,
                    });
                }
            });
        }),
        Direction::Bottom => {
            for li in range.filter(|&li| !visited.get(li)) {
                let v = g.vertex_at(li);
                let (scanned, hit) = scan_for_parent(g, v, global_frontier);
                inspected += scanned;
                if let Some(parent) = hit {
                    sink.push(DirBfsVisitor { vertex: v, length: level + 1, parent });
                }
            }
        }
    }
    inspected
}

/// Bottom-up inner loop: scan `v`'s local (sorted) adjacency slice for the
/// first neighbor in the global frontier. Early exit makes the hit the
/// slice minimum — the determinism anchor for bottom-up parents. Routed
/// through `DistGraph::scan_adj` so compressed storage stops its gap
/// decoder at the hit instead of materializing the whole slice; the
/// scanned count (and so `edges_inspected`) is storage-invariant.
#[inline]
fn scan_for_parent(
    g: &DistGraph,
    v: VertexId,
    global_frontier: &AtomicBitVec,
) -> (u64, Option<u64>) {
    g.scan_adj(v, |t| global_frontier.get(t as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_cli_tokens() {
        assert_eq!(DirectionMode::parse("top"), Some(DirectionMode::TopDown));
        assert_eq!(DirectionMode::parse("bottom-up"), Some(DirectionMode::BottomUp));
        assert_eq!(DirectionMode::parse("auto"), Some(DirectionMode::Auto));
        assert_eq!(DirectionMode::parse("async"), Some(DirectionMode::Async));
        assert_eq!(DirectionMode::parse("sideways"), None);
    }

    #[test]
    fn pre_visit_keeps_lexicographic_minimum() {
        let mut d = BfsData::default();
        let a = DirBfsVisitor { vertex: VertexId(7), length: 3, parent: 9 };
        assert!(a.pre_visit(&mut d, Role::Master));
        // same level, smaller parent wins
        let b = DirBfsVisitor { vertex: VertexId(7), length: 3, parent: 5 };
        assert!(b.pre_visit(&mut d, Role::Master));
        assert_eq!((d.length, d.parent), (3, 5));
        // same level, larger parent loses
        let c = DirBfsVisitor { vertex: VertexId(7), length: 3, parent: 6 };
        assert!(!c.pre_visit(&mut d, Role::Master));
        // smaller level always wins
        let e = DirBfsVisitor { vertex: VertexId(7), length: 2, parent: 100 };
        assert!(e.pre_visit(&mut d, Role::Master));
        assert_eq!((d.length, d.parent), (2, 100));
    }

    #[test]
    fn engine_cut_roundtrips() {
        let cut = EngineCut {
            level: 4,
            dir: Direction::Bottom,
            edges_inspected: 12345,
            top_down_levels: 2,
            bottom_up_levels: 2,
            trace: vec![
                LevelTrace {
                    level: 0,
                    dir: Direction::Top,
                    frontier: 1,
                    frontier_edges: 16,
                    inspected: 16,
                    candidates: 16,
                },
                LevelTrace {
                    level: 1,
                    dir: Direction::Bottom,
                    frontier: 14,
                    frontier_edges: 900,
                    inspected: 120,
                    candidates: 80,
                },
            ],
        };
        let back = EngineCut::decode(&cut.encode());
        assert_eq!(back.level, 4);
        assert_eq!(back.dir, Direction::Bottom);
        assert_eq!(back.edges_inspected, 12345);
        assert_eq!(back.trace, cut.trace);
    }
}
