//! Single-source shortest paths — the prioritized-visitor-queue showcase
//! from the authors' earlier work (\[4\] in the paper).
//!
//! The input graphs of this reproduction are unweighted, so weights are
//! synthesized deterministically and symmetrically from the edge's
//! endpoints (documented substitution: the paper's earlier SSSP work used
//! weighted inputs we don't have). The visitor relaxes tentative distances;
//! the local run queue's ordering by distance makes the traversal
//! Dijkstra-like without global synchronization.

use std::time::Duration;

use havoq_comm::{RankCtx, WireCodec};
use havoq_graph::dist::DistGraph;
use havoq_graph::types::VertexId;

use crate::checkpoint::CheckpointSpec;
use crate::queue::{TraversalConfig, TraversalStats, VisitorQueue};
use crate::visitor::{Role, Visitor, VisitorPush};

/// Unreached marker.
pub const UNREACHED: u64 = u64::MAX;

/// Deterministic symmetric edge weight in `[1, max_weight]`.
#[inline]
pub fn edge_weight(a: u64, b: u64, max_weight: u64) -> u64 {
    let (lo, hi) = (a.min(b), a.max(b));
    let mut x = lo ^ hi.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    1 + x % max_weight
}

/// Per-vertex SSSP state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SsspData {
    pub distance: u64,
    pub parent: u64,
}

impl Default for SsspData {
    fn default() -> Self {
        Self { distance: UNREACHED, parent: UNREACHED }
    }
}

impl WireCodec for SsspData {
    const WIRE_SIZE: usize = 16;
    type DecodeCtx = ();

    fn encode(&self, buf: &mut [u8]) {
        self.distance.encode(&mut buf[..8]);
        self.parent.encode(&mut buf[8..16]);
    }

    fn decode(buf: &[u8], ctx: &()) -> Self {
        SsspData { distance: u64::decode(&buf[..8], ctx), parent: u64::decode(&buf[8..16], ctx) }
    }
}

/// Distance-relaxation visitor.
#[derive(Clone, Copy, Debug)]
pub struct SsspVisitor {
    pub vertex: VertexId,
    pub distance: u64,
    pub parent: u64,
    /// Weight range rides along so the visitor is self-contained.
    pub max_weight: u64,
}

impl WireCodec for SsspVisitor {
    const WIRE_SIZE: usize = 32;
    type DecodeCtx = ();

    fn encode(&self, buf: &mut [u8]) {
        self.vertex.encode(&mut buf[..8]);
        self.distance.encode(&mut buf[8..16]);
        self.parent.encode(&mut buf[16..24]);
        self.max_weight.encode(&mut buf[24..32]);
    }

    fn decode(buf: &[u8], ctx: &()) -> Self {
        SsspVisitor {
            vertex: VertexId::decode(&buf[..8], ctx),
            distance: u64::decode(&buf[8..16], ctx),
            parent: u64::decode(&buf[16..24], ctx),
            max_weight: u64::decode(&buf[24..32], ctx),
        }
    }
}

impl Visitor for SsspVisitor {
    type Data = SsspData;
    const GHOSTS_ALLOWED: bool = true; // monotone minimum: ghost-safe

    #[inline]
    fn vertex(&self) -> VertexId {
        self.vertex
    }

    #[inline]
    fn pre_visit(&self, data: &mut SsspData, _role: Role) -> bool {
        if self.distance < data.distance {
            data.distance = self.distance;
            data.parent = self.parent;
            true
        } else {
            false
        }
    }

    fn visit(&self, g: &DistGraph, data: &mut SsspData, q: &mut dyn VisitorPush<Self>) {
        if self.distance == data.distance {
            let me = self.vertex.0;
            g.with_adj(self.vertex, |adj| {
                for &t in adj {
                    q.push(SsspVisitor {
                        vertex: VertexId(t),
                        distance: self.distance + edge_weight(me, t, self.max_weight),
                        parent: me,
                        max_weight: self.max_weight,
                    });
                }
            });
        }
    }

    #[inline]
    fn priority(&self) -> u64 {
        self.distance // Dijkstra-like local order
    }

    /// Keep the minimum distance (with its parent) — same monotone update
    /// as `pre_visit`.
    #[inline]
    fn merge(into: &mut SsspData, update: &SsspData) {
        if update.distance < into.distance {
            *into = *update;
        }
    }
}

/// SSSP configuration.
#[derive(Clone, Copy, Debug)]
pub struct SsspConfig {
    pub traversal: TraversalConfig,
    /// Weights are uniform in `[1, max_weight]`.
    pub max_weight: u64,
    /// When set, the traversal checkpoints at quiescence cuts and can
    /// crash/restore under an injected fault plan.
    pub checkpoint: Option<CheckpointSpec>,
}

impl Default for SsspConfig {
    fn default() -> Self {
        Self { traversal: TraversalConfig::default(), max_weight: 255, checkpoint: None }
    }
}

/// Result of one SSSP run (per rank).
#[derive(Clone, Debug)]
pub struct SsspResult {
    /// Global number of vertices reached.
    pub visited_count: u64,
    /// Global maximum finite distance.
    pub max_distance: u64,
    pub elapsed: Duration,
    pub stats: TraversalStats,
    pub local_state: Vec<SsspData>,
}

/// Run SSSP from `source`. Collective.
pub fn sssp(ctx: &RankCtx, g: &DistGraph, source: VertexId, cfg: &SsspConfig) -> SsspResult {
    let mut q = VisitorQueue::<SsspVisitor>::new(ctx, g, cfg.traversal);
    if g.is_master(source) {
        q.push(SsspVisitor {
            vertex: source,
            distance: 0,
            parent: source.0,
            max_weight: cfg.max_weight,
        });
    }
    q.traverse(ctx, cfg.checkpoint.as_ref());

    // (visited, farthest distance) over masters
    let mut local = (0u64, 0u64);
    for v in g.local_vertices().filter(|&v| g.is_master(v)) {
        let d = &q.state()[g.local_index(v)];
        if d.distance != UNREACHED {
            local = (local.0 + 1, local.1.max(d.distance));
        }
    }
    let (visited_count, max_distance) = ctx.all_reduce(local, |a, b| (a.0 + b.0, a.1.max(b.1)));
    let stats = q.stats();
    SsspResult {
        visited_count,
        max_distance,
        elapsed: stats.elapsed,
        stats,
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
    use havoq_graph::types::Edge;

    /// Serial Dijkstra reference with the same synthesized weights.
    fn reference(n: u64, edges: &[Edge], source: u64, max_weight: u64) -> Vec<u64> {
        let mut adj = vec![Vec::new(); n as usize];
        for e in edges {
            if !e.is_self_loop() {
                adj[e.src as usize].push(e.dst);
            }
        }
        let mut dist = vec![UNREACHED; n as usize];
        dist[source as usize] = 0;
        let mut open = std::collections::BTreeSet::from([(0u64, source)]);
        while let Some((d, v)) = open.pop_first() {
            if d > dist[v as usize] {
                continue;
            }
            for &t in &adj[v as usize] {
                let nd = d + edge_weight(v, t, max_weight);
                if nd < dist[t as usize] {
                    dist[t as usize] = nd;
                    open.insert((nd, t));
                }
            }
        }
        dist
    }

    #[test]
    fn weights_are_symmetric_and_bounded() {
        for a in 0..50u64 {
            for b in 0..50u64 {
                let w = edge_weight(a, b, 100);
                assert_eq!(w, edge_weight(b, a, 100));
                assert!((1..=100).contains(&w));
            }
        }
    }

    #[test]
    fn matches_dijkstra_on_rmat() {
        let gen = RmatGenerator::graph500(8);
        let edges = gen.symmetric_edges(33);
        let n = gen.num_vertices();
        let cfg = SsspConfig::default();
        let want = reference(n, &edges, 0, cfg.max_weight);
        for p in [1usize, 4] {
            let pieces = CommWorld::run(p, |ctx| {
                let g = DistGraph::build_replicated(
                    ctx,
                    &edges,
                    PartitionStrategy::EdgeList,
                    GraphConfig::default().with_num_vertices(n),
                );
                let r = sssp(ctx, &g, VertexId(0), &cfg);
                g.local_vertices()
                    .filter(|&v| g.is_master(v))
                    .map(|v| (v.0, r.local_state[g.local_index(v)].distance))
                    .collect::<Vec<_>>()
            });
            let mut got = vec![UNREACHED; n as usize];
            for (v, d) in pieces.into_iter().flatten() {
                got[v as usize] = d;
            }
            assert_eq!(got, want, "p={p}");
        }
    }

    #[test]
    fn line_graph_distances_accumulate() {
        let edges: Vec<Edge> =
            (0..4u64).flat_map(|v| [Edge::new(v, v + 1), Edge::new(v + 1, v)]).collect();
        let cfg = SsspConfig::default();
        let out = CommWorld::run(2, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let r = sssp(ctx, &g, VertexId(0), &cfg);
            (r.visited_count, r.max_distance)
        });
        let want: u64 = (0..4).map(|v| edge_weight(v, v + 1, cfg.max_weight)).sum();
        assert_eq!(out[0].0, 5);
        assert_eq!(out[0].1, want);
    }
}
