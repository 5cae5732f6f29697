//! Connected components by asynchronous minimum-label propagation.
//!
//! One of the visitor algorithms of the authors' earlier shared/external
//! memory work (\[4\] in the paper), included to show the framework carries
//! beyond the three headline kernels. Every vertex starts labeled with its
//! own id; visitors propagate the smallest label seen. The update is
//! monotone and idempotent, so ghosts apply.

use std::time::Duration;

use havoq_comm::{RankCtx, WireCodec};
use havoq_graph::dist::DistGraph;
use havoq_graph::types::VertexId;

use crate::checkpoint::CheckpointSpec;
use crate::queue::{TraversalConfig, TraversalStats, VisitorQueue};
use crate::visitor::{Role, Visitor, VisitorPush};

/// Per-vertex component state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CcData {
    /// Smallest vertex id known to be in this vertex's component.
    pub component: u64,
}

impl Default for CcData {
    fn default() -> Self {
        Self { component: u64::MAX }
    }
}

impl WireCodec for CcData {
    const WIRE_SIZE: usize = 8;
    type DecodeCtx = ();

    fn encode(&self, buf: &mut [u8]) {
        self.component.encode(buf);
    }

    fn decode(buf: &[u8], ctx: &()) -> Self {
        CcData { component: u64::decode(buf, ctx) }
    }
}

/// Minimum-label propagation visitor.
#[derive(Clone, Copy, Debug)]
pub struct CcVisitor {
    pub vertex: VertexId,
    pub label: u64,
}

impl WireCodec for CcVisitor {
    const WIRE_SIZE: usize = 16;
    type DecodeCtx = ();

    fn encode(&self, buf: &mut [u8]) {
        self.vertex.encode(&mut buf[..8]);
        self.label.encode(&mut buf[8..16]);
    }

    fn decode(buf: &[u8], ctx: &()) -> Self {
        CcVisitor { vertex: VertexId::decode(&buf[..8], ctx), label: u64::decode(&buf[8..16], ctx) }
    }
}

impl Visitor for CcVisitor {
    type Data = CcData;
    const GHOSTS_ALLOWED: bool = true;

    #[inline]
    fn vertex(&self) -> VertexId {
        self.vertex
    }

    #[inline]
    fn pre_visit(&self, data: &mut CcData, _role: Role) -> bool {
        if self.label < data.component {
            data.component = self.label;
            true
        } else {
            false
        }
    }

    fn visit(&self, g: &DistGraph, data: &mut CcData, q: &mut dyn VisitorPush<Self>) {
        if self.label == data.component {
            g.with_adj(self.vertex, |adj| {
                for &t in adj {
                    q.push(CcVisitor { vertex: VertexId(t), label: self.label });
                }
            });
        }
    }

    #[inline]
    fn priority(&self) -> u64 {
        // lower labels first: they win anyway, so spread them early
        self.label
    }

    /// Keep the minimum label — same monotone update as `pre_visit`.
    #[inline]
    fn merge(into: &mut CcData, update: &CcData) {
        into.component = into.component.min(update.component);
    }
}

/// Connected-components configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct CcConfig {
    pub traversal: TraversalConfig,
    /// When set, the traversal checkpoints at quiescence cuts and can
    /// crash/restore under an injected fault plan.
    pub checkpoint: Option<CheckpointSpec>,
}

/// Result of a components run (per rank).
#[derive(Clone, Debug)]
pub struct CcResult {
    /// Global number of connected components.
    pub num_components: u64,
    pub elapsed: Duration,
    pub stats: TraversalStats,
    /// Final labels for this rank's local vertices.
    pub local_state: Vec<CcData>,
}

/// Label every vertex with the smallest id in its (weakly) connected
/// component; assumes a symmetrized edge list. Collective.
pub fn connected_components(ctx: &RankCtx, g: &DistGraph, cfg: &CcConfig) -> CcResult {
    let mut q = VisitorQueue::<CcVisitor>::new(ctx, g, cfg.traversal);
    for v in g.local_vertices() {
        if g.is_master(v) {
            q.push(CcVisitor { vertex: v, label: v.0 });
        }
    }
    q.traverse(ctx, cfg.checkpoint.as_ref());

    // roots are vertices labeled with their own id
    let local_roots = g
        .local_vertices()
        .filter(|&v| g.is_master(v) && q.state()[g.local_index(v)].component == v.0)
        .count() as u64;
    let num_components = ctx.all_reduce_sum(local_roots);
    let stats = q.stats();
    CcResult { num_components, elapsed: stats.elapsed, stats, local_state: q.into_state() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use havoq_comm::CommWorld;
    use havoq_graph::csr::GraphConfig;
    use havoq_graph::dist::PartitionStrategy;
    use havoq_graph::gen::rmat::RmatGenerator;
    use havoq_graph::types::Edge;

    /// Serial union-find reference returning component count and the
    /// min-label per vertex.
    fn reference(n: u64, edges: &[Edge]) -> (u64, Vec<u64>) {
        let mut parent: Vec<u64> = (0..n).collect();
        fn find(parent: &mut [u64], x: u64) -> u64 {
            let mut r = x;
            while parent[r as usize] != r {
                r = parent[r as usize];
            }
            let mut c = x;
            while parent[c as usize] != r {
                let next = parent[c as usize];
                parent[c as usize] = r;
                c = next;
            }
            r
        }
        for e in edges {
            let (a, b) = (find(&mut parent, e.src), find(&mut parent, e.dst));
            if a != b {
                parent[a.max(b) as usize] = a.min(b);
            }
        }
        let labels: Vec<u64> = (0..n).map(|v| find(&mut parent, v)).collect();
        // min-label per component is the root since we always union to min
        let mut roots: Vec<u64> = labels.clone();
        roots.sort_unstable();
        roots.dedup();
        (roots.len() as u64, labels)
    }

    fn distributed(p: usize, n: u64, edges: &[Edge]) -> (u64, Vec<u64>) {
        let pieces = CommWorld::run(p, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default().with_num_vertices(n),
            );
            let r = connected_components(ctx, &g, &CcConfig::default());
            let labels: Vec<(u64, u64)> = g
                .local_vertices()
                .filter(|&v| g.is_master(v))
                .map(|v| (v.0, r.local_state[g.local_index(v)].component))
                .collect();
            (r.num_components, labels)
        });
        let count = pieces[0].0;
        let mut labels = vec![0u64; n as usize];
        for (_, ls) in pieces {
            for (v, l) in ls {
                labels[v as usize] = l;
            }
        }
        (count, labels)
    }

    #[test]
    fn two_islands() {
        let edges: Vec<Edge> = [(0, 1), (1, 2), (4, 5)]
            .iter()
            .flat_map(|&(a, b)| [Edge::new(a, b), Edge::new(b, a)])
            .collect();
        // vertices 0..6 exist; vertex 3 is isolated -> 3 components
        let (count, labels) = distributed(3, 6, &edges);
        assert_eq!(count, 3);
        assert_eq!(labels, vec![0, 0, 0, 3, 4, 4]);
    }

    #[test]
    fn matches_reference_on_rmat() {
        let gen = RmatGenerator::graph500(8);
        let edges = gen.symmetric_edges(15);
        let n = gen.num_vertices();
        let (want_count, want_labels) = reference(n, &edges);
        for p in [1usize, 4] {
            let (count, labels) = distributed(p, n, &edges);
            assert_eq!(count, want_count, "p={p}");
            assert_eq!(labels, want_labels, "p={p}");
        }
    }

    #[test]
    fn fully_disconnected() {
        // edges exist only as self-referential filler: use two trivial edges
        // to set n, leaving most vertices isolated
        let edges = vec![Edge::new(9, 8), Edge::new(8, 9)];
        let (count, _) = distributed(2, 10, &edges);
        assert_eq!(count, 9, "8 isolated vertices + the 8-9 pair");
    }
}
