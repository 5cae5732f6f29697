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
//!   ([`havoq_util::parallel::AtomicBitVec`]) live alongside the run
//!   queue, indexed by local vertex index;
//! - each level both directions *generate candidate visitors*
//!   `(vertex, level+1, parent)` pushed through the ordinary CRC-framed
//!   mailbox, so ghost filtering, split-vertex replica chains and the
//!   integrity plane are inherited unchanged;
//! - candidates are generated through `VisitorQueue::expand`, the queue's
//!   one fan-out over its workers: top-down over the frontier's local
//!   indices, bottom-up over the unvisited ones (a pool of one at
//!   `threads == 1` runs them in index order on this thread);
//! - `VisitorQueue::drain_round_with` — the queue's one driver with the
//!   park executor and one-round cuts — delivers a round to a non-terminal
//!   quiescence cut and parks the surviving visitors, which are exactly
//!   the next frontier (master and replica copies both);
//! - before a bottom-up level the master frontier bits cross the wire as
//!   sparse `(word_index, bits)` records on a side mailbox that every
//!   round settles under the queue's own cut (`queue::Side`), OR-ed into a
//!   global bitmap on every rank;
//! - the switch heuristic runs on one vector collective per level —
//!   frontier size and frontier/unvisited edge counts — so every rank
//!   takes the same direction deterministically; it is also the fence
//!   between two levels' rounds. Nothing blocks between a rank's sends and
//!   its next mailbox poll: the trace's inspection and candidate counts
//!   stay rank-local and are summed once, after the last level.
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

use havoq_comm::{MailboxConfig, RankCtx, WireCodec};
use havoq_graph::dist::DistGraph;
use havoq_graph::types::VertexId;
use havoq_util::parallel::AtomicBitVec;

use crate::algorithms::bfs::{BfsConfig, BfsData, BfsResult, UNREACHED};
use crate::checkpoint::put_record;
use crate::queue::{Side, VisitorQueue};
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

/// Top-down → bottom-up threshold (Beamer's α): switch when the
/// frontier's edge count exceeds `unvisited_edges / ALPHA`.
const ALPHA: u64 = 14;
/// Bottom-up → top-down threshold (Beamer's β): switch back when the
/// frontier shrinks below `num_vertices / BETA`.
const BETA: u64 = 24;

/// Expansion direction of one level. The discriminants are the codes a
/// checkpointed [`LevelTrace`] stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    Top = 0,
    Bottom = 1,
}

impl Direction {
    fn from_code(code: u64) -> Self {
        match code {
            0 => Direction::Top,
            _ => Direction::Bottom,
        }
    }

    /// Trace-column label (`top` / `bottom`).
    pub fn label(self) -> &'static str {
        match self {
            Direction::Top => "top",
            Direction::Bottom => "bottom",
        }
    }
}

/// One level of the per-run direction trace. In a finished
/// [`DirBfsRun`] all fields are global, hence identical on every rank.
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
    fn priority(&self) -> u64 {
        self.length
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
/// level loop needs that is not derivable from the per-vertex state. The
/// trace's `inspected` / `candidates` are this rank's share (summed over
/// ranks only after the run), which each rank restores from its own blob.
struct EngineCut {
    level: u64,
    dir: Direction,
    edges_inspected: u64,
    top_down_levels: u64,
    bottom_up_levels: u64,
    trace: Vec<LevelTrace>,
}

/// Wire shape of the cut's header and of each trace level: six `u64`s.
type CutRecord = ((u64, u64, u64), (u64, u64, u64));

impl EngineCut {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity((1 + self.trace.len()) * CutRecord::WIRE_SIZE);
        let head = (self.level, self.dir as u64, self.edges_inspected);
        let levels = (self.top_down_levels, self.bottom_up_levels, self.trace.len() as u64);
        put_record(&mut buf, &(head, levels));
        for t in &self.trace {
            let rec: CutRecord = (
                (t.level, t.dir as u64, t.frontier),
                (t.frontier_edges, t.inspected, t.candidates),
            );
            put_record(&mut buf, &rec);
        }
        buf
    }

    fn decode(bytes: &[u8]) -> Self {
        let mut records =
            bytes.chunks_exact(CutRecord::WIRE_SIZE).map(|c| CutRecord::decode(c, &()));
        let ((level, dir, edges_inspected), (top_down_levels, bottom_up_levels, len)) =
            records.next().expect("engine cut holds its header record");
        let trace: Vec<LevelTrace> = records
            .map(|((level, dir, frontier), (frontier_edges, inspected, candidates))| LevelTrace {
                level,
                dir: Direction::from_code(dir),
                frontier,
                frontier_edges,
                inspected,
                candidates,
            })
            .collect();
        assert_eq!(trace.len() as u64, len, "engine cut trace length");
        let dir = Direction::from_code(dir);
        Self { level, dir, edges_inspected, top_down_levels, bottom_up_levels, trace }
    }
}

/// Run direction-optimizing BFS from `source`. Collective; requires a
/// symmetrized graph (bottom-up treats a vertex's out-neighbors as its
/// in-neighbors, which is exactly the Graph500 / RMAT workload shape).
/// `cfg.direction` must not be [`DirectionMode::Async`] —
/// [`crate::algorithms::bfs::bfs`] dispatches that to the visitor loop.
pub fn direction_bfs(ctx: &RankCtx, g: &DistGraph, source: VertexId, cfg: &BfsConfig) -> DirBfsRun {
    let mode = cfg.direction;
    assert_ne!(mode, DirectionMode::Async, "direction engine needs a non-Async mode");
    let start = Instant::now();
    let mut q = VisitorQueue::<DirBfsVisitor>::new(ctx, g, cfg.traversal);
    let mut workers = q.workers();
    // the bottom-up frontier exchange: `(word_index, bits)` records
    let mut side: Side<(u64, u64)> = Side::open(ctx, MailboxConfig::default());
    let n = g.num_vertices();
    let nloc = g.num_local_vertices();
    let frontier = AtomicBitVec::new(nloc);
    let visited = AtomicBitVec::new(nloc);
    let global_frontier = AtomicBitVec::new(n as usize);
    // the local indices one level generates from
    let mut items: Vec<usize> = Vec::new();

    // checkpoint machinery (same epoch/incarnation protocol as the
    // asynchronous checkpointed traversal; cuts happen at round
    // boundaries, which are already confirmed consistent cuts)
    let mut log = cfg.checkpoint.as_ref().map(|spec| (spec, spec.open_log()));
    // start "due" so epoch 0 — which crash injection spares — exists
    let mut processed_since: u64 = u64::MAX;

    let mut trace: Vec<LevelTrace> = Vec::new();
    let mut level: u64 = 0;
    let mut dir = match mode {
        DirectionMode::BottomUp => Direction::Bottom,
        _ => Direction::Top,
    };

    if g.is_master(source) {
        q.push(DirBfsVisitor { vertex: source, length: 0, parent: source.0 });
    }
    // No watchdog is armed, so every round below ends in a cut.
    let mut newly: Vec<DirBfsVisitor> = Vec::new();
    q.drain_round_with(&mut newly, &mut side);
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

        // -- frontier statistics (masters only): frontier size, its edge
        // mass and the unvisited edge mass (recomputed per level, so
        // restore-proof) in the level's one collective — which is also the
        // fence between the previous level's round and this one's --
        let (mut loc_nf, mut loc_mf, mut loc_mu) = (0u64, 0u64, 0u64);
        frontier.for_each_set(|li| {
            let v = g.vertex_at(li);
            if g.is_master(v) {
                loc_nf += 1;
                loc_mf += g.total_degree(v);
            }
        });
        for v in (0..nloc).filter(|&li| !visited.get(li)).map(|li| g.vertex_at(li)) {
            if g.is_master(v) {
                loc_mu += g.total_degree(v);
            }
        }
        let global = ctx.all_reduce_sum_vec(vec![loc_nf, loc_mf, loc_mu]);
        let (n_f, m_f, m_u) = (global[0], global[1], global[2]);
        if n_f == 0 {
            break;
        }

        // -- direction decision (pure function of all-reduced values) --
        dir = match mode {
            DirectionMode::TopDown => Direction::Top,
            DirectionMode::BottomUp => Direction::Bottom,
            DirectionMode::Auto => match dir {
                Direction::Top if m_f.saturating_mul(ALPHA) > m_u => Direction::Bottom,
                Direction::Bottom if n_f.saturating_mul(BETA) < n => Direction::Top,
                unchanged => unchanged,
            },
            DirectionMode::Async => unreachable!(),
        };

        // -- bottom-up needs the global frontier bitmap on every rank --
        if dir == Direction::Bottom {
            global_frontier.clear_all();
            // ascending local index = ascending id → sorted word list →
            // deterministic wire traffic
            let mut words: Vec<(u64, u64)> = Vec::new();
            frontier.for_each_set(|li| {
                let v = g.vertex_at(li);
                if g.is_master(v) {
                    let (wi, bit) = (v.0 / 64, 1u64 << (v.0 % 64));
                    match words.last_mut() {
                        Some((w, bits)) if *w == wi => *bits |= bit,
                        _ => words.push((wi, bit)),
                    }
                }
            });
            q.stats_mut().frontier_words_sent += words.len() as u64;
            for &(wi, bits) in &words {
                global_frontier.or_word(wi as usize, bits);
                for dst in (0..ctx.size()).filter(|&dst| dst != ctx.rank()) {
                    side.mb.send(dst, (wi, bits));
                }
            }
            // Settled under the queue's cut, on every rank (empty `words`
            // included). A peer that sees the cut first starts generating;
            // this rank's driver pre-visits those early candidates and
            // parks them in `newly`, where the level's round wants them.
            q.drain_round_with(&mut newly, &mut side);
            for (wi, bits) in side.inbox.drain(..) {
                global_frontier.or_word(wi as usize, bits);
            }
        }

        // -- generate next-level candidates: top-down from the frontier,
        // bottom-up from the unvisited vertices. Delivery is
        // order-independent (lexicographic minimum at `pre_visit`), and a
        // vertex inspects the same entries whichever worker takes it --
        items.clear();
        match dir {
            Direction::Top => frontier.for_each_set(|li| items.push(li)),
            Direction::Bottom => items.extend((0..nloc).filter(|&li| !visited.get(li))),
        }
        let pushed_before = q.stats_mut().visitors_pushed;
        let inspected = q.expand(&mut workers, &items, |_, sink, n, &li| {
            *n += generate(sink, g, dir, level, li, &global_frontier)
        });
        let s = q.stats_mut();
        s.edges_inspected += inspected;
        match dir {
            Direction::Top => s.top_down_levels += 1,
            Direction::Bottom => s.bottom_up_levels += 1,
        }
        // `inspected` / `candidates` are this rank's share until the run ends
        let candidates = s.visitors_pushed - pushed_before;
        trace.push(LevelTrace {
            level,
            dir,
            frontier: n_f,
            frontier_edges: m_f,
            inspected,
            candidates,
        });
        processed_since = processed_since.saturating_add(n_f);

        // -- deliver the round; survivors (the frontier round's early
        // arrivals included) are the next frontier --
        q.drain_round_with(&mut newly, &mut side);
        level += 1;
        fold_frontier(g, &frontier, &visited, &mut newly);
    }

    // the trace's two rank-local columns become global in one collective
    let local = trace.iter().flat_map(|t| [t.inspected, t.candidates]).collect();
    for (t, sum) in trace.iter_mut().zip(ctx.all_reduce_sum_vec(local).chunks_exact(2)) {
        (t.inspected, t.candidates) = (sum[0], sum[1]);
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

/// Generate local vertex `li`'s candidates for level `level + 1` into
/// `sink`: top-down, a frontier vertex pushes one along every out-edge;
/// bottom-up, an unvisited vertex pushes one for its first neighbor in the
/// global frontier. Returns the adjacency entries inspected.
fn generate(
    sink: &mut impl VisitorPush<DirBfsVisitor>,
    g: &DistGraph,
    dir: Direction,
    level: u64,
    li: usize,
    global_frontier: &AtomicBitVec,
) -> u64 {
    let v = g.vertex_at(li);
    match dir {
        Direction::Top => g.with_adj(v, |adj| {
            for &t in adj {
                sink.push(DirBfsVisitor { vertex: VertexId(t), length: level + 1, parent: v.0 });
            }
            adj.len() as u64
        }),
        // Scan the local (sorted) adjacency slice for the first neighbor in
        // the global frontier. Early exit makes the hit the slice minimum —
        // the determinism anchor for bottom-up parents. `scan_adj` lets
        // compressed storage stop its gap decoder at the hit instead of
        // materializing the whole slice; the scanned count (and so
        // `edges_inspected`) is storage-invariant.
        Direction::Bottom => {
            let (scanned, hit) = g.scan_adj(v, |t| global_frontier.get(t as usize));
            if let Some(parent) = hit {
                sink.push(DirBfsVisitor { vertex: v, length: level + 1, parent });
            }
            scanned
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
