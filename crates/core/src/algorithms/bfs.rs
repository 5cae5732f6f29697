//! Breadth-First Search (paper Algorithms 2 and 3).
//!
//! The visitor carries a tentative path length and parent. `pre_visit`
//! keeps the minimum length (monotone and idempotent, so it doubles as the
//! ghost filter); `visit` expands the local adjacency slice when the
//! visitor's length is still the vertex's current best. The local queue
//! orders visitors by length, which makes the asynchronous traversal
//! approximate level-synchronous BFS without any barriers.

use std::time::Duration;

use havoq_comm::{RankCtx, WireCodec};
use havoq_graph::dist::DistGraph;
use havoq_graph::types::VertexId;

use crate::checkpoint::CheckpointSpec;
use crate::direction::DirectionMode;
use crate::queue::{TraversalConfig, TraversalStats, VisitorQueue};
use crate::visitor::{Role, Visitor, VisitorPush};

/// Unreached marker (the paper's `infinity`).
pub const UNREACHED: u64 = u64::MAX;

/// SplitMix64 finalizer: the mixer behind every level digest.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One reached vertex's term of a level digest. Each term is mixed on its
/// own, so a wrapping sum of terms is invariant under visit order, rank
/// count and partitioning.
#[inline]
pub(crate) fn level_term(v: VertexId, level: u64) -> u64 {
    mix(v.0 ^ mix(level))
}

/// This rank's share of the order-invariant digest of a BFS level array:
/// the wrapping sum of `mix(vertex ^ mix(level))` over its reached masters
/// (replica state is a copy), `length_of` mapping a local vertex index to
/// its level. Sum the shares of all ranks (`all_reduce_sum`) for the world
/// digest. It covers levels only: they are the schedule-invariant part of a
/// BFS, parents are one valid tree among many.
pub fn level_digest(g: &DistGraph, length_of: impl Fn(usize) -> u64) -> u64 {
    g.local_vertices()
        .filter(|&v| g.is_master(v))
        .map(|v| (v, length_of(g.local_index(v))))
        .filter(|&(_, level)| level != UNREACHED)
        .fold(0, |digest, (v, level)| digest.wrapping_add(level_term(v, level)))
}

/// Per-vertex BFS state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BfsData {
    /// BFS level (path length from the source).
    pub length: u64,
    /// BFS parent (`UNREACHED` until visited).
    pub parent: u64,
}

impl Default for BfsData {
    fn default() -> Self {
        Self { length: UNREACHED, parent: UNREACHED }
    }
}

impl WireCodec for BfsData {
    const WIRE_SIZE: usize = 16;
    type DecodeCtx = ();

    fn encode(&self, buf: &mut [u8]) {
        self.length.encode(&mut buf[..8]);
        self.parent.encode(&mut buf[8..16]);
    }

    fn decode(buf: &[u8], ctx: &()) -> Self {
        BfsData { length: u64::decode(&buf[..8], ctx), parent: u64::decode(&buf[8..16], ctx) }
    }
}

/// The BFS visitor (Algorithm 2).
#[derive(Clone, Copy, Debug)]
pub struct BfsVisitor {
    pub vertex: VertexId,
    pub length: u64,
    pub parent: u64,
}

impl WireCodec for BfsVisitor {
    const WIRE_SIZE: usize = 24;
    type DecodeCtx = ();

    fn encode(&self, buf: &mut [u8]) {
        self.vertex.encode(&mut buf[..8]);
        self.length.encode(&mut buf[8..16]);
        self.parent.encode(&mut buf[16..24]);
    }

    fn decode(buf: &[u8], ctx: &()) -> Self {
        BfsVisitor {
            vertex: VertexId::decode(&buf[..8], ctx),
            length: u64::decode(&buf[8..16], ctx),
            parent: u64::decode(&buf[16..24], ctx),
        }
    }
}

impl Visitor for BfsVisitor {
    type Data = BfsData;
    /// BFS tolerates imprecise filtering, so ghosts are allowed
    /// (Section IV-B).
    const GHOSTS_ALLOWED: bool = true;

    #[inline]
    fn vertex(&self) -> VertexId {
        self.vertex
    }

    #[inline]
    fn pre_visit(&self, data: &mut BfsData, _role: Role) -> bool {
        // same monotone update everywhere: master, replica and ghost
        if self.length < data.length {
            data.length = self.length;
            data.parent = self.parent;
            true
        } else {
            false
        }
    }

    fn visit(&self, g: &DistGraph, data: &mut BfsData, q: &mut dyn VisitorPush<Self>) {
        // expand only if we are still the best-known path (Alg. 2 line 13)
        if self.length == data.length {
            g.with_adj(self.vertex, |adj| {
                for &t in adj {
                    q.push(BfsVisitor {
                        vertex: VertexId(t),
                        length: self.length + 1,
                        parent: self.vertex.0,
                    });
                }
            });
        }
    }

    #[inline]
    fn priority(&self) -> u64 {
        self.length
    }

    /// Keep the minimum length (with its parent) — the same monotone
    /// update as `pre_visit`, so merging a stale worker seed is a no-op.
    #[inline]
    fn merge(into: &mut BfsData, update: &BfsData) {
        if update.length < into.length {
            *into = *update;
        }
    }
}

/// BFS configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct BfsConfig {
    pub traversal: TraversalConfig,
    /// When set, the traversal checkpoints at quiescence cuts and can
    /// crash/restore under an injected fault plan.
    pub checkpoint: Option<CheckpointSpec>,
    /// Which engine runs the search: the asynchronous visitor loop (the
    /// default) or the level-synchronous direction-optimizing engine,
    /// forced top-down, forced bottom-up, or switching by Beamer's α/β
    /// heuristic (DESIGN.md §13).
    pub direction: DirectionMode,
}

impl BfsConfig {
    pub fn with_ghosts(mut self, ghosts: usize) -> Self {
        self.traversal.ghosts = ghosts;
        self
    }

    pub fn with_checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Select the traversal engine / direction policy (DESIGN.md §13).
    pub fn with_direction(mut self, mode: DirectionMode) -> Self {
        self.direction = mode;
        self
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.traversal = self.traversal.with_threads(threads);
        self
    }
}

/// Aggregated + local results of one BFS run (per rank).
#[derive(Clone, Debug)]
pub struct BfsResult {
    /// Global number of vertices reached (including the source).
    pub visited_count: u64,
    /// Global sum of whole-adjacency degrees of reached vertices — the
    /// Graph500-style "edges traversed" numerator for TEPS.
    pub traversed_edges: u64,
    /// Deepest BFS level reached (the source's eccentricity).
    pub max_level: u64,
    /// Wall-clock of the traversal phase on this rank.
    pub elapsed: Duration,
    /// This rank's queue statistics.
    pub stats: TraversalStats,
    /// World-shared transport traffic matrix (channel-pair usage — shows
    /// the routed-mailbox channel reduction of Section III-B).
    pub transport: havoq_comm::ChannelStatsSnapshot,
    /// Final state for this rank's local vertices (masters + replicas).
    pub local_state: Vec<BfsData>,
}

impl BfsResult {
    /// Traversed-edges-per-second using this rank's elapsed time.
    pub fn teps(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.traversed_edges as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// Run BFS from `source` (Algorithm 3). Collective.
///
/// ```
/// use havoq_comm::CommWorld;
/// use havoq_core::algorithms::bfs::{bfs, BfsConfig};
/// use havoq_graph::csr::GraphConfig;
/// use havoq_graph::dist::{DistGraph, PartitionStrategy};
/// use havoq_graph::types::{Edge, VertexId};
///
/// // a 4-cycle, symmetrized
/// let edges: Vec<Edge> = [(0, 1), (1, 2), (2, 3), (3, 0)]
///     .iter()
///     .flat_map(|&(a, b)| [Edge::new(a, b), Edge::new(b, a)])
///     .collect();
/// let results = CommWorld::run(2, |ctx| {
///     let g = DistGraph::build_replicated(
///         ctx, &edges, PartitionStrategy::EdgeList, GraphConfig::default());
///     bfs(ctx, &g, VertexId(0), &BfsConfig::default())
/// });
/// assert_eq!(results[0].visited_count, 4);
/// assert_eq!(results[0].max_level, 2); // the opposite corner
/// ```
pub fn bfs(ctx: &RankCtx, g: &DistGraph, source: VertexId, cfg: &BfsConfig) -> BfsResult {
    if cfg.direction != DirectionMode::Async {
        // Level-synchronous direction-optimizing engine (DESIGN.md §13):
        // same levels, deterministic min-id parents, per-level traces
        // available via `direction_bfs` directly.
        return crate::direction::direction_bfs(ctx, g, source, cfg).result;
    }
    let mut q = VisitorQueue::<BfsVisitor>::new(ctx, g, cfg.traversal);
    // state defaults to length = infinity (Alg. 3 lines 4-7)
    if g.is_master(source) {
        q.push(BfsVisitor { vertex: source, length: 0, parent: source.0 });
    }
    q.traverse(ctx, cfg.checkpoint.as_ref());
    finish_result(ctx, g, q)
}

/// Aggregate a finished BFS-shaped traversal (any visitor whose per-vertex
/// state is [`BfsData`]) into a [`BfsResult`]: master-only visited /
/// traversed-edge / deepest-level reductions. Shared by the asynchronous
/// visitor path and the direction engine.
pub(crate) fn finish_result<V>(ctx: &RankCtx, g: &DistGraph, q: VisitorQueue<V>) -> BfsResult
where
    V: Visitor<Data = BfsData> + WireCodec,
{
    // aggregate over masters only (replica state is a copy):
    // (visited, traversed edges, deepest level)
    let mut local = (0u64, 0u64, 0u64);
    for v in g.local_vertices().filter(|&v| g.is_master(v)) {
        let d = &q.state()[g.local_index(v)];
        if d.length != UNREACHED {
            local = (local.0 + 1, local.1 + g.total_degree(v), local.2.max(d.length));
        }
    }
    let (visited_count, traversed_edges, max_level) =
        ctx.all_reduce(local, |a, b| (a.0 + b.0, a.1 + b.1, a.2.max(b.2)));
    let stats = q.stats();
    let transport = q.transport_stats();
    BfsResult {
        visited_count,
        traversed_edges,
        max_level,
        elapsed: stats.elapsed,
        stats,
        transport,
        local_state: q.into_state(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use havoq_comm::CommWorld;
    use havoq_graph::csr::GraphConfig;
    use havoq_graph::dist::PartitionStrategy;
    use havoq_graph::gen::rmat::RmatGenerator;
    use havoq_graph::gen::smallworld::SmallWorldGenerator;
    use havoq_graph::types::Edge;

    /// Serial reference BFS.
    fn reference_levels(n: u64, edges: &[Edge], source: u64) -> Vec<u64> {
        let mut adj = vec![Vec::new(); n as usize];
        for e in edges {
            if !e.is_self_loop() {
                adj[e.src as usize].push(e.dst);
            }
        }
        let mut level = vec![UNREACHED; n as usize];
        level[source as usize] = 0;
        let mut frontier = vec![source];
        let mut next = Vec::new();
        let mut l = 0u64;
        while !frontier.is_empty() {
            l += 1;
            for &v in &frontier {
                for &t in &adj[v as usize] {
                    if level[t as usize] == UNREACHED {
                        level[t as usize] = l;
                        next.push(t);
                    }
                }
            }
            frontier = std::mem::take(&mut next);
        }
        level
    }

    /// Run distributed BFS and reassemble the global level array from the
    /// masters' state.
    fn distributed_levels(
        p: usize,
        n: u64,
        edges: &[Edge],
        source: u64,
        cfg: &BfsConfig,
        strategy: PartitionStrategy,
    ) -> Vec<u64> {
        let pieces = CommWorld::run(p, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                edges,
                strategy,
                GraphConfig::default().with_num_vertices(n),
            );
            let r = bfs(ctx, &g, VertexId(source), cfg);
            g.local_vertices()
                .filter(|&v| g.is_master(v))
                .map(|v| (v.0, r.local_state[g.local_index(v)].length))
                .collect::<Vec<_>>()
        });
        let mut levels = vec![UNREACHED; n as usize];
        let mut seen = vec![false; n as usize];
        for (v, l) in pieces.into_iter().flatten() {
            assert!(!seen[v as usize], "vertex {v} has two masters");
            seen[v as usize] = true;
            levels[v as usize] = l;
        }
        assert!(seen.iter().all(|&s| s), "some vertex has no master");
        levels
    }

    #[test]
    fn matches_reference_on_rmat() {
        let gen = RmatGenerator::graph500(9);
        let edges = gen.symmetric_edges(21);
        let n = gen.num_vertices();
        let want = reference_levels(n, &edges, 0);
        for p in [1usize, 3, 4] {
            let got = distributed_levels(
                p,
                n,
                &edges,
                0,
                &BfsConfig::default(),
                PartitionStrategy::EdgeList,
            );
            assert_eq!(got, want, "p={p}");
        }
    }

    #[test]
    fn matches_reference_with_one_d_partitioning() {
        let gen = RmatGenerator::graph500(8);
        let edges = gen.symmetric_edges(2);
        let n = gen.num_vertices();
        let want = reference_levels(n, &edges, 3);
        let got =
            distributed_levels(4, n, &edges, 3, &BfsConfig::default(), PartitionStrategy::OneD);
        assert_eq!(got, want);
    }

    #[test]
    fn ghost_counts_do_not_change_result() {
        let gen = RmatGenerator::graph500(8);
        let edges = gen.symmetric_edges(9);
        let n = gen.num_vertices();
        let want = reference_levels(n, &edges, 0);
        for ghosts in [0usize, 1, 16, 512] {
            let cfg = BfsConfig::default().with_ghosts(ghosts);
            let got = distributed_levels(4, n, &edges, 0, &cfg, PartitionStrategy::EdgeList);
            assert_eq!(got, want, "ghosts={ghosts}");
        }
    }

    #[test]
    fn small_world_depth_grows_as_rewire_shrinks() {
        let n = 1024u64;
        let depth_of = |rewire: f64| {
            let gen = SmallWorldGenerator::new(n, 8).with_rewire(rewire);
            let edges = gen.symmetric_edges(4);
            let res = CommWorld::run(2, |ctx| {
                let g = DistGraph::build_replicated(
                    ctx,
                    &edges,
                    PartitionStrategy::EdgeList,
                    GraphConfig::default(),
                );
                bfs(ctx, &g, VertexId(0), &BfsConfig::default()).max_level
            });
            res[0]
        };
        let ring = depth_of(0.0);
        let random = depth_of(0.5);
        assert!(ring > 4 * random, "ring depth {ring} vs rewired {random}");
    }

    #[test]
    fn aggregates_are_consistent() {
        let gen = RmatGenerator::graph500(8);
        let edges = gen.symmetric_edges(6);
        let n = gen.num_vertices();
        let want = reference_levels(n, &edges, 0);
        let reached = want.iter().filter(|&&l| l != UNREACHED).count() as u64;
        let deepest = want.iter().filter(|&&l| l != UNREACHED).max().copied().unwrap();
        let out = CommWorld::run(3, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let r = bfs(ctx, &g, VertexId(0), &BfsConfig::default());
            (r.visited_count, r.max_level, r.traversed_edges)
        });
        for (v, m, t) in out {
            assert_eq!(v, reached);
            assert_eq!(m, deepest);
            assert!(t > 0);
        }
    }

    #[test]
    fn disconnected_source_reaches_only_itself() {
        // two components: 0-1-2 ring and isolated pair 5-6
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 0),
            Edge::new(1, 2),
            Edge::new(2, 1),
            Edge::new(5, 6),
            Edge::new(6, 5),
        ];
        let out = CommWorld::run(2, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            bfs(ctx, &g, VertexId(5), &BfsConfig::default()).visited_count
        });
        assert_eq!(out[0], 2, "component of 5 has vertices 5 and 6");
    }
}
