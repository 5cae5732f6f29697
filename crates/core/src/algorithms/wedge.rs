//! Approximate triangle counting by wedge sampling (Seshadhri, Pinar &
//! Kolda — reference \[13\], which the paper names as the natural extension
//! of its triangle-counting visitor).
//!
//! A *wedge* is a length-2 path (a — v — b); the global clustering
//! coefficient is the probability that a uniformly random wedge is
//! *closed* (its endpoints adjacent), and `triangles = closed_fraction *
//! total_wedges / 3`. The estimator samples wedges proportionally to each
//! vertex's wedge count `C(d_v, 2)` and checks closures — all expressed as
//! visitors over the same distributed queue, including for *split*
//! vertices, whose adjacency positions are resolved slice-by-slice along
//! the replica chain:
//!
//! 1. `First { i, j }` travels v's chain; the slice owning position `i`
//!    resolves endpoint `a` and emits `Second`;
//! 2. `Second { j, a }` travels the chain again; the slice owning `j`
//!    resolves `b` and dispatches a closure probe;
//! 3. `Close { other }` travels `max(a, b)`'s chain; the slice holding the
//!    closing edge counts it.

use std::time::Duration;

use havoq_comm::{RankCtx, WireCodec};
use havoq_graph::dist::DistGraph;
use havoq_graph::gen::StreamRng;
use havoq_graph::types::VertexId;

use crate::queue::{TraversalConfig, TraversalStats, VisitorQueue};
use crate::visitor::{Role, Visitor, VisitorPush};

/// Per-vertex wedge-sampling counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct WedgeData {
    /// Closure probes dispatched from this partition's slice.
    pub dispatched: u64,
    /// Closed wedges found in this partition's slice.
    pub closed: u64,
}

#[derive(Clone, Copy, Debug)]
enum Duty {
    First { i: u64, j: u64 },
    Second { j: u64, a: u64 },
    Close { other: u64 },
}

/// The wedge-sampling visitor.
#[derive(Clone, Copy, Debug)]
pub struct WedgeVisitor {
    vertex: VertexId,
    duty: Duty,
}

/// Wire layout: vertex (8) + duty tag (1) + two u64 operands (16) = 25
/// bytes. `Close` carries one operand; its second slot is zero on the wire.
impl WireCodec for WedgeVisitor {
    const WIRE_SIZE: usize = 25;
    type DecodeCtx = ();

    fn encode(&self, buf: &mut [u8]) {
        self.vertex.encode(&mut buf[..8]);
        let (tag, a, b) = match self.duty {
            Duty::First { i, j } => (0u8, i, j),
            Duty::Second { j, a } => (1u8, j, a),
            Duty::Close { other } => (2u8, other, 0),
        };
        buf[8] = tag;
        a.encode(&mut buf[9..17]);
        b.encode(&mut buf[17..25]);
    }

    fn decode(buf: &[u8], ctx: &()) -> Self {
        let vertex = VertexId::decode(&buf[..8], ctx);
        let a = u64::decode(&buf[9..17], ctx);
        let b = u64::decode(&buf[17..25], ctx);
        let duty = match buf[8] {
            0 => Duty::First { i: a, j: b },
            1 => Duty::Second { j: a, a: b },
            2 => Duty::Close { other: a },
            t => panic!("corrupt wedge visitor duty tag {t}"),
        };
        WedgeVisitor { vertex, duty }
    }
}

impl Visitor for WedgeVisitor {
    type Data = WedgeData;
    const GHOSTS_ALLOWED: bool = false;

    fn vertex(&self) -> VertexId {
        self.vertex
    }

    fn pre_visit(&self, _data: &mut WedgeData, _role: Role) -> bool {
        true // every duty must reach every slice of the chain
    }

    fn visit(&self, g: &DistGraph, data: &mut WedgeData, q: &mut dyn VisitorPush<Self>) {
        match self.duty {
            Duty::First { i, j } => {
                if let Some(a) = g.local_adj_at(self.vertex, i) {
                    q.push(WedgeVisitor { vertex: self.vertex, duty: Duty::Second { j, a } });
                }
            }
            Duty::Second { j, a } => {
                if let Some(b) = g.local_adj_at(self.vertex, j) {
                    debug_assert_ne!(a, b, "distinct positions of a deduplicated adjacency");
                    data.dispatched += 1;
                    let (lo, hi) = (a.min(b), a.max(b));
                    q.push(WedgeVisitor { vertex: VertexId(hi), duty: Duty::Close { other: lo } });
                }
            }
            Duty::Close { other } => {
                if g.local_adj_contains(self.vertex, VertexId(other)) {
                    data.closed += 1;
                }
            }
        }
    }

    /// Both fields are pure counters: sum the per-execution deltas.
    #[inline]
    fn merge(into: &mut WedgeData, update: &WedgeData) {
        into.dispatched += update.dispatched;
        into.closed += update.closed;
    }

    /// Zeroed accumulator so concurrent duties on one vertex sum exactly.
    #[inline]
    fn visit_seed(_data: &WedgeData) -> WedgeData {
        WedgeData::default()
    }
}

/// Result of a wedge-sampling estimation (identical on every rank).
#[derive(Clone, Copy, Debug)]
pub struct WedgeSampleResult {
    /// Total wedges in the graph, `sum_v C(d_v, 2)`.
    pub total_wedges: u64,
    /// Wedges actually sampled (closure probes dispatched).
    pub sampled: u64,
    /// Sampled wedges found closed.
    pub closed: u64,
    /// Estimated global clustering coefficient `3T / W`.
    pub clustering: f64,
    /// Estimated triangle count.
    pub triangles_estimate: f64,
    pub elapsed: Duration,
    pub stats: TraversalStats,
}

#[inline]
fn wedges_of(d: u64) -> u64 {
    d * d.saturating_sub(1) / 2
}

/// Estimate the clustering coefficient / triangle count from `samples`
/// random wedges. Deterministic given `seed`. Collective.
pub fn approx_clustering(
    ctx: &RankCtx,
    g: &DistGraph,
    samples: u64,
    seed: u64,
    cfg: &TraversalConfig,
) -> WedgeSampleResult {
    // wedge-mass census over local masters
    let masters: Vec<VertexId> = g.local_vertices().filter(|&v| g.is_master(v)).collect();
    let mut cum: Vec<(u64, VertexId)> = Vec::with_capacity(masters.len());
    let mut local_mass = 0u64;
    for &v in &masters {
        let w = wedges_of(g.total_degree(v));
        if w > 0 {
            local_mass += w;
            cum.push((local_mass, v));
        }
    }
    let masses = ctx.all_gather(local_mass);
    let total_wedges: u64 = masses.iter().sum();

    let mut cfgq = *cfg;
    cfgq.ghosts = 0;
    let mut q = VisitorQueue::<WedgeVisitor>::new(ctx, g, cfgq);

    if total_wedges > 0 {
        // proportional share of the sample budget (floor; the tail is fine)
        let my_samples = (samples as u128 * local_mass as u128 / total_wedges as u128) as u64;
        let rank_salt = (ctx.rank() as u64) << 32;
        for s in 0..my_samples {
            let mut rng = StreamRng::new(seed ^ rank_salt, s);
            // pick v with probability proportional to C(d_v, 2)
            let x = rng.next_below(local_mass);
            let idx = cum.partition_point(|&(c, _)| c <= x);
            let v = cum[idx].1;
            let d = g.total_degree(v);
            // two distinct positions in the whole adjacency
            let i = rng.next_below(d);
            let mut j = rng.next_below(d);
            while j == i {
                j = rng.next_below(d);
            }
            q.push(WedgeVisitor { vertex: v, duty: Duty::First { i, j } });
        }
    }
    q.do_traversal();

    let sampled = ctx.all_reduce_sum(q.state().iter().map(|d| d.dispatched).sum::<u64>());
    let closed = ctx.all_reduce_sum(q.state().iter().map(|d| d.closed).sum::<u64>());
    let clustering = if sampled == 0 { 0.0 } else { closed as f64 / sampled as f64 };
    let stats = q.stats();
    WedgeSampleResult {
        total_wedges,
        sampled,
        closed,
        clustering,
        triangles_estimate: clustering * total_wedges as f64 / 3.0,
        elapsed: stats.elapsed,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::triangle::{triangle_count, TriangleConfig};
    use havoq_comm::CommWorld;
    use havoq_graph::csr::GraphConfig;
    use havoq_graph::dist::PartitionStrategy;
    use havoq_graph::gen::rmat::RmatGenerator;
    use havoq_graph::types::Edge;

    fn run(p: usize, edges: &[Edge], samples: u64) -> WedgeSampleResult {
        let out = CommWorld::run(p, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            approx_clustering(ctx, &g, samples, 99, &TraversalConfig::default())
        });
        out.into_iter().next().unwrap()
    }

    fn clique(n: u64) -> Vec<Edge> {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    edges.push(Edge::new(a, b));
                }
            }
        }
        edges
    }

    #[test]
    fn complete_graph_is_fully_clustered() {
        let r = run(3, &clique(8), 500);
        assert!(r.sampled > 0);
        assert_eq!(r.closed, r.sampled, "every wedge of a clique closes");
        assert!((r.clustering - 1.0).abs() < 1e-12);
        // K8: W = 8 * C(7,2) = 168, T = 56
        assert_eq!(r.total_wedges, 168);
        assert!((r.triangles_estimate - 56.0).abs() < 1e-9);
    }

    #[test]
    fn square_has_no_closed_wedges() {
        let edges: Vec<Edge> = [(0, 1), (1, 2), (2, 3), (3, 0)]
            .iter()
            .flat_map(|&(a, b)| [Edge::new(a, b), Edge::new(b, a)])
            .collect();
        let r = run(2, &edges, 200);
        assert!(r.sampled > 0);
        assert_eq!(r.closed, 0);
        assert_eq!(r.clustering, 0.0);
    }

    #[test]
    fn estimates_rmat_triangles_within_tolerance() {
        let gen = RmatGenerator::graph500(8);
        let edges = gen.symmetric_edges(17);
        let exact = run_exact(&edges);
        let est = run(4, &edges, 40_000);
        assert!(est.sampled > 10_000, "sampling should mostly succeed: {est:?}");
        let rel = (est.triangles_estimate - exact as f64).abs() / exact as f64;
        assert!(
            rel < 0.15,
            "estimate {:.0} vs exact {exact}: rel err {rel:.3}",
            est.triangles_estimate
        );
    }

    fn run_exact(edges: &[Edge]) -> u64 {
        let out = CommWorld::run(4, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            triangle_count(ctx, &g, &TriangleConfig::default()).triangles
        });
        out[0]
    }

    #[test]
    fn split_hub_wedges_are_sampled_correctly() {
        // star + one rim edge: hub 0 has degree 40 and is split across 4
        // ranks; wedges at the hub = C(40,2) = 780; the only triangle is
        // (0,1,2) via the rim edge 1-2
        let n = 41u64;
        let mut edges: Vec<Edge> =
            (1..n).flat_map(|v| [Edge::new(v, 0), Edge::new(0, v)]).collect();
        edges.push(Edge::new(1, 2));
        edges.push(Edge::new(2, 1));
        let r = run(4, &edges, 2_000);
        assert!(r.sampled > 500, "chain-resolved sampling must work: {r:?}");
        // rim wedges: vertices 1 and 2 have degree 2 -> 1 wedge each
        assert_eq!(r.total_wedges, 780 + 2);
        assert!(r.closed > 0, "the hub wedge (1,0,2) closes via the rim edge");
        // exact closed fraction: wedges (1,0,2)+(2,0,1)... position pairs
        // unordered: 1 closed hub wedge of 780; plus both rim wedges closed
        // (1-2-0 and 2-1-0 close through the star edges)
        let expect = (1.0 + 2.0) / 782.0;
        assert!(
            (r.clustering - expect).abs() < 0.02,
            "clustering {:.4} vs expected {expect:.4}",
            r.clustering
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let gen = RmatGenerator::graph500(6);
        let edges = gen.symmetric_edges(2);
        let a = run(3, &edges, 1000);
        let b = run(3, &edges, 1000);
        assert_eq!(a.sampled, b.sampled);
        assert_eq!(a.closed, b.closed);
    }
}
