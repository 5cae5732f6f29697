//! Triangle counting (paper Algorithms 6 and 7).
//!
//! Three visitor duties: *first visit* fans out to larger-id neighbors,
//! *length-2 path visit* extends to still-larger neighbors, and the final
//! duty searches the visited vertex's adjacency for the closing edge back
//! to the path origin. Visiting in strictly increasing vertex order counts
//! each triangle exactly once, at its largest member. Ghosts are disallowed:
//! every path visitor must be evaluated (Section IV-B).
//!
//! Split adjacency lists compose naturally: `pre_visit` always accepts, so
//! the framework forwards every visitor along the whole replica chain and
//! each partition performs the duty on its local adjacency slice — the
//! closing edge exists in exactly one slice, so increments never double.

use std::time::Duration;

use havoq_comm::{RankCtx, WireCodec};
use havoq_graph::dist::DistGraph;
use havoq_graph::types::VertexId;

use crate::checkpoint::CheckpointSpec;
use crate::queue::{TraversalConfig, TraversalStats, VisitorQueue};
use crate::visitor::{Role, Visitor, VisitorPush};

const NONE: u64 = u64::MAX;

/// Per-vertex triangle state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TriangleData {
    /// Triangles whose largest member is this vertex *and* whose closing
    /// edge lies in this partition's adjacency slice.
    pub num_triangles: u64,
}

impl WireCodec for TriangleData {
    const WIRE_SIZE: usize = 8;
    type DecodeCtx = ();

    fn encode(&self, buf: &mut [u8]) {
        self.num_triangles.encode(buf);
    }

    fn decode(buf: &[u8], ctx: &()) -> Self {
        TriangleData { num_triangles: u64::decode(buf, ctx) }
    }
}

/// The triangle-count visitor (Algorithm 6).
#[derive(Clone, Copy, Debug)]
pub struct TriangleVisitor {
    pub vertex: VertexId,
    /// First path vertex (smallest), or `NONE` on the first duty.
    pub second: u64,
    /// `NONE` until the third duty: then the path origin to close back to.
    pub third: u64,
}

impl WireCodec for TriangleVisitor {
    const WIRE_SIZE: usize = 24;
    type DecodeCtx = ();

    fn encode(&self, buf: &mut [u8]) {
        self.vertex.encode(&mut buf[..8]);
        self.second.encode(&mut buf[8..16]);
        self.third.encode(&mut buf[16..24]);
    }

    fn decode(buf: &[u8], ctx: &()) -> Self {
        TriangleVisitor {
            vertex: VertexId::decode(&buf[..8], ctx),
            second: u64::decode(&buf[8..16], ctx),
            third: u64::decode(&buf[16..24], ctx),
        }
    }
}

impl Visitor for TriangleVisitor {
    type Data = TriangleData;
    const GHOSTS_ALLOWED: bool = false;

    #[inline]
    fn vertex(&self) -> VertexId {
        self.vertex
    }

    #[inline]
    fn pre_visit(&self, _data: &mut TriangleData, _role: Role) -> bool {
        true // Alg. 6: always proceed
    }

    fn visit(&self, g: &DistGraph, data: &mut TriangleData, q: &mut dyn VisitorPush<Self>) {
        let me = self.vertex.0;
        if self.second == NONE {
            // first visit: start paths toward larger neighbors
            g.with_adj(self.vertex, |adj| {
                for &t in adj {
                    if t > me {
                        q.push(TriangleVisitor { vertex: VertexId(t), second: me, third: NONE });
                    }
                }
            });
        } else if self.third == NONE {
            // length-2 path: extend upward, remembering the origin
            g.with_adj(self.vertex, |adj| {
                for &t in adj {
                    if t > me {
                        q.push(TriangleVisitor {
                            vertex: VertexId(t),
                            second: me,
                            third: self.second,
                        });
                    }
                }
            });
        } else {
            // closing duty: does this (local slice of the) adjacency hold
            // the edge back to the path origin?
            if g.local_adj_contains(self.vertex, VertexId(self.third)) {
                data.num_triangles += 1;
            }
        }
    }

    /// Counters sum: each worker's seed starts at zero (see `visit_seed`)
    /// and carries only the triangles its own executions closed.
    #[inline]
    fn merge(into: &mut TriangleData, update: &TriangleData) {
        into.num_triangles += update.num_triangles;
    }

    /// Zeroed accumulator so concurrent closings on one vertex sum exactly.
    #[inline]
    fn visit_seed(_data: &TriangleData) -> TriangleData {
        TriangleData::default()
    }
}

/// Triangle-count configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct TriangleConfig {
    pub traversal: TraversalConfig,
    /// When set, the traversal checkpoints at quiescence cuts and can
    /// crash/restore under an injected fault plan.
    pub checkpoint: Option<CheckpointSpec>,
}

/// Result of a triangle count (per rank).
#[derive(Clone, Debug)]
pub struct TriangleResult {
    /// Global triangle count (Alg. 7's `all_reduce` of local counters).
    pub triangles: u64,
    pub elapsed: Duration,
    pub stats: TraversalStats,
}

/// Count triangles of the (symmetrized, deduplicated) graph (Algorithm 7).
/// Collective.
///
/// ```
/// use havoq_comm::CommWorld;
/// use havoq_core::algorithms::triangle::{triangle_count, TriangleConfig};
/// use havoq_graph::csr::GraphConfig;
/// use havoq_graph::dist::{DistGraph, PartitionStrategy};
/// use havoq_graph::types::Edge;
///
/// // two triangles sharing the edge (1, 2)
/// let edges: Vec<Edge> = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
///     .iter()
///     .flat_map(|&(a, b)| [Edge::new(a, b), Edge::new(b, a)])
///     .collect();
/// let results = CommWorld::run(3, |ctx| {
///     let g = DistGraph::build_replicated(
///         ctx, &edges, PartitionStrategy::EdgeList, GraphConfig::default());
///     triangle_count(ctx, &g, &TriangleConfig::default())
/// });
/// assert_eq!(results[0].triangles, 2);
/// ```
pub fn triangle_count(ctx: &RankCtx, g: &DistGraph, cfg: &TriangleConfig) -> TriangleResult {
    let mut cfgq = cfg.traversal;
    cfgq.ghosts = 0;
    let mut q = VisitorQueue::<TriangleVisitor>::new(ctx, g, cfgq);
    for v in g.local_vertices() {
        if g.is_master(v) {
            q.push(TriangleVisitor { vertex: v, second: NONE, third: NONE });
        }
    }
    q.traverse(ctx, cfg.checkpoint.as_ref());

    // local counters live on whichever partition held the closing edge —
    // masters and replicas alike — so sum every local slot (Alg. 7 line 14)
    let local: u64 = q.state().iter().map(|d| d.num_triangles).sum();
    let triangles = ctx.all_reduce_sum(local);
    let stats = q.stats();
    TriangleResult { triangles, elapsed: stats.elapsed, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use havoq_comm::CommWorld;
    use havoq_graph::csr::GraphConfig;
    use havoq_graph::dist::PartitionStrategy;
    use havoq_graph::gen::pa::PaGenerator;
    use havoq_graph::gen::rmat::RmatGenerator;
    use havoq_graph::gen::smallworld::SmallWorldGenerator;
    use havoq_graph::types::Edge;

    /// Serial reference count: triangles a < b < c.
    fn reference_triangles(n: u64, edges: &[Edge]) -> u64 {
        use std::collections::HashSet;
        let mut adj: Vec<HashSet<u64>> = vec![HashSet::new(); n as usize];
        for e in edges {
            if !e.is_self_loop() {
                adj[e.src as usize].insert(e.dst);
                adj[e.dst as usize].insert(e.src);
            }
        }
        let mut count = 0u64;
        for a in 0..n {
            for &b in &adj[a as usize] {
                if b <= a {
                    continue;
                }
                for &c in &adj[b as usize] {
                    if c > b && adj[a as usize].contains(&c) {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    fn distributed_triangles(p: usize, edges: &[Edge]) -> u64 {
        let out = CommWorld::run(p, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            triangle_count(ctx, &g, &TriangleConfig::default()).triangles
        });
        assert!(out.windows(2).all(|w| w[0] == w[1]), "all ranks agree");
        out[0]
    }

    #[test]
    fn single_triangle() {
        let edges: Vec<Edge> = [(0, 1), (1, 2), (0, 2)]
            .iter()
            .flat_map(|&(a, b)| [Edge::new(a, b), Edge::new(b, a)])
            .collect();
        for p in [1usize, 2, 3] {
            assert_eq!(distributed_triangles(p, &edges), 1, "p={p}");
        }
    }

    #[test]
    fn square_has_no_triangles() {
        let edges: Vec<Edge> = [(0, 1), (1, 2), (2, 3), (3, 0)]
            .iter()
            .flat_map(|&(a, b)| [Edge::new(a, b), Edge::new(b, a)])
            .collect();
        assert_eq!(distributed_triangles(2, &edges), 0);
    }

    #[test]
    fn complete_graph_count() {
        // K6 has C(6,3) = 20 triangles
        let mut edges = Vec::new();
        for a in 0..6u64 {
            for b in 0..6u64 {
                if a != b {
                    edges.push(Edge::new(a, b));
                }
            }
        }
        for p in [1usize, 4] {
            assert_eq!(distributed_triangles(p, &edges), 20, "p={p}");
        }
    }

    #[test]
    fn matches_reference_on_rmat() {
        let gen = RmatGenerator::graph500(7);
        let edges = gen.symmetric_edges(19);
        let want = reference_triangles(gen.num_vertices(), &edges);
        assert!(want > 0, "RMAT should close triangles");
        for p in [1usize, 3, 4] {
            assert_eq!(distributed_triangles(p, &edges), want, "p={p}");
        }
    }

    #[test]
    fn matches_reference_on_small_world() {
        let gen = SmallWorldGenerator::new(128, 6).with_rewire(0.1);
        let edges = gen.symmetric_edges(7);
        let want = reference_triangles(128, &edges);
        assert!(want > 0, "ring lattices are triangle-rich");
        assert_eq!(distributed_triangles(3, &edges), want);
    }

    #[test]
    fn matches_reference_on_pa() {
        let gen = PaGenerator::new(200, 3).with_rewire(0.2);
        let edges = gen.symmetric_edges(13);
        let want = reference_triangles(200, &edges);
        assert_eq!(distributed_triangles(4, &edges), want);
    }
}
