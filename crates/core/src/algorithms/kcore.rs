//! K-Core decomposition (paper Algorithms 4 and 5).
//!
//! Vertices whose degree drops below `k` are asynchronously removed; each
//! removal notifies the neighbors, which may cascade. K-core needs *precise*
//! event counts, so ghosts are disallowed (Section IV-B) — every decrement
//! must reach the vertex's master.
//!
//! Split-vertex handling: the master partition holds the authoritative
//! counter. When the master kills the vertex, the framework forwards the
//! killing visitor along the replica chain; a replica treats any forwarded
//! visitor as an authoritative kill ([`Role::Replica`]) and fires its local
//! out-edge slice. This is the role-dependent `pre_visit` discussed in
//! DESIGN.md.

use std::time::Duration;

use havoq_comm::{RankCtx, WireCodec};
use havoq_graph::dist::DistGraph;
use havoq_graph::types::VertexId;

use crate::checkpoint::CheckpointSpec;
use crate::queue::{TraversalConfig, TraversalStats, VisitorQueue};
use crate::visitor::{Role, Visitor, VisitorPush};

/// Per-vertex k-core state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KCoreData {
    /// Still a k-core member?
    pub alive: bool,
    /// Remaining degree budget (master partition only; replicas keep a
    /// stale copy and rely on the forwarded kill).
    pub kcore: u64,
}

impl WireCodec for KCoreData {
    const WIRE_SIZE: usize = 9;
    type DecodeCtx = ();

    fn encode(&self, buf: &mut [u8]) {
        buf[0] = self.alive as u8;
        self.kcore.encode(&mut buf[1..9]);
    }

    fn decode(buf: &[u8], ctx: &()) -> Self {
        KCoreData { alive: buf[0] != 0, kcore: u64::decode(&buf[1..9], ctx) }
    }
}

/// The k-core visitor (Algorithm 4). `k` rides along instead of being a
/// static parameter so several decompositions can run in one world.
#[derive(Clone, Copy, Debug)]
pub struct KCoreVisitor {
    pub vertex: VertexId,
    pub k: u64,
}

impl WireCodec for KCoreVisitor {
    const WIRE_SIZE: usize = 16;
    type DecodeCtx = ();

    fn encode(&self, buf: &mut [u8]) {
        self.vertex.encode(&mut buf[..8]);
        self.k.encode(&mut buf[8..16]);
    }

    fn decode(buf: &[u8], ctx: &()) -> Self {
        KCoreVisitor { vertex: VertexId::decode(&buf[..8], ctx), k: u64::decode(&buf[8..16], ctx) }
    }
}

impl Visitor for KCoreVisitor {
    type Data = KCoreData;
    /// Ghosts cannot be used: every visitor must be counted exactly once
    /// (Section IV-B).
    const GHOSTS_ALLOWED: bool = false;

    #[inline]
    fn vertex(&self) -> VertexId {
        self.vertex
    }

    fn pre_visit(&self, data: &mut KCoreData, role: Role) -> bool {
        match role {
            Role::Master => {
                if data.alive {
                    data.kcore -= 1;
                    if data.kcore < self.k {
                        data.alive = false;
                        return true;
                    }
                }
                false
            }
            // a forwarded visitor means the master already died: kill the
            // replica unconditionally (exactly once) so its local out-edge
            // slice also notifies neighbors
            Role::Replica => {
                if data.alive {
                    data.alive = false;
                    true
                } else {
                    false
                }
            }
            Role::Ghost => unreachable!("k-core declares GHOSTS_ALLOWED = false"),
        }
    }

    fn visit(&self, g: &DistGraph, _data: &mut KCoreData, q: &mut dyn VisitorPush<Self>) {
        // the vertex left the k-core: decrement all local out-neighbors
        g.with_adj(self.vertex, |adj| {
            for &t in adj {
                q.push(KCoreVisitor { vertex: VertexId(t), k: self.k });
            }
        });
    }

    /// `visit` never touches state (all mutation happens in `pre_visit` on
    /// the coordinator), so this only needs to absorb a stale seed without
    /// regressing: death and the degree budget are both monotone.
    #[inline]
    fn merge(into: &mut KCoreData, update: &KCoreData) {
        into.alive &= update.alive;
        into.kcore = into.kcore.min(update.kcore);
    }
}

/// K-core configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct KCoreConfig {
    pub traversal: TraversalConfig,
    /// When set, every round's traversal checkpoints at quiescence cuts
    /// and can crash/restore under an injected fault plan.
    pub checkpoint: Option<CheckpointSpec>,
}

/// Result of one k-core decomposition (per rank).
#[derive(Clone, Debug)]
pub struct KCoreResult {
    pub k: u64,
    /// Global number of vertices in the k-core.
    pub alive_count: u64,
    pub elapsed: Duration,
    pub stats: TraversalStats,
    /// Final state for this rank's local vertices.
    pub local_state: Vec<KCoreData>,
}

/// Compute the k-core of the (symmetrized) graph (Algorithm 5). Collective.
///
/// ```
/// use havoq_comm::CommWorld;
/// use havoq_core::algorithms::kcore::{kcore, KCoreConfig};
/// use havoq_graph::csr::GraphConfig;
/// use havoq_graph::dist::{DistGraph, PartitionStrategy};
/// use havoq_graph::types::Edge;
///
/// // a triangle with a pendant vertex: the 2-core is the triangle
/// let edges: Vec<Edge> = [(0, 1), (1, 2), (0, 2), (2, 3)]
///     .iter()
///     .flat_map(|&(a, b)| [Edge::new(a, b), Edge::new(b, a)])
///     .collect();
/// let results = CommWorld::run(2, |ctx| {
///     let g = DistGraph::build_replicated(
///         ctx, &edges, PartitionStrategy::EdgeList, GraphConfig::default());
///     kcore(ctx, &g, 2, &KCoreConfig::default())
/// });
/// assert_eq!(results[0].alive_count, 3);
/// ```
pub fn kcore(ctx: &RankCtx, g: &DistGraph, k: u64, cfg: &KCoreConfig) -> KCoreResult {
    let mut cfgq = cfg.traversal;
    cfgq.ghosts = 0;
    let mut q = VisitorQueue::<KCoreVisitor>::new(ctx, g, cfgq);
    // Alg. 5 lines 5-8: alive = true, kcore = degree + 1 (the whole-chain
    // degree, replicated identically on every partition of a split vertex)
    q.init_state(|v, g| KCoreData { alive: true, kcore: g.total_degree(v) + 1 });
    // Alg. 5 lines 9-11: one initial visitor per vertex (its single
    // decrement removes vertices of degree < k)
    for v in g.local_vertices() {
        if g.is_master(v) {
            q.push(KCoreVisitor { vertex: v, k });
        }
    }
    q.traverse(ctx, cfg.checkpoint.as_ref());

    let local_alive =
        g.local_vertices().filter(|&v| g.is_master(v) && q.state()[g.local_index(v)].alive).count()
            as u64;
    let alive_count = ctx.all_reduce_sum(local_alive);
    let stats = q.stats();
    KCoreResult { k, alive_count, elapsed: stats.elapsed, stats, local_state: q.into_state() }
}

/// Full k-core decomposition: the *core number* of every vertex (the
/// largest k whose k-core still contains it).
///
/// Computed incrementally: the k-core is peeled for k = 1, 2, … reusing the
/// surviving state — after a k-run, a surviving master's `kcore` field holds
/// its live degree within the k-core, which seeds the (k+1)-run — until the
/// core empties. One asynchronous traversal per k, exactly the paper's
/// Figure 6 kernel iterated.
#[derive(Clone, Debug)]
pub struct KCoreDecomposition {
    /// Largest non-empty core.
    pub max_core: u64,
    /// Core number per local vertex (masters authoritative).
    pub core_numbers: Vec<u64>,
    pub elapsed: Duration,
    /// Total visitors executed across all peels (this rank).
    pub visitors_executed: u64,
}

/// Compute every vertex's core number. Collective.
pub fn kcore_decomposition(ctx: &RankCtx, g: &DistGraph, cfg: &KCoreConfig) -> KCoreDecomposition {
    let mut cfgq = cfg.traversal;
    cfgq.ghosts = 0;
    let nv = g.num_local_vertices();
    let mut core_numbers = vec![0u64; nv];
    // live state carried between peels
    let mut carry: Vec<KCoreData> =
        g.local_vertices().map(|v| KCoreData { alive: true, kcore: g.total_degree(v) }).collect();
    let mut elapsed = Duration::ZERO;
    let mut visitors_executed = 0u64;
    let mut k = 0u64;
    loop {
        k += 1;
        let mut q = VisitorQueue::<KCoreVisitor>::new(ctx, g, cfgq);
        // live degree + 1, so the initial visitor's decrement lands on the
        // live degree (Alg. 5's degree(v) + 1 generalized to the subgraph)
        q.init_state(|v, g| {
            let d = &carry[g.local_index(v)];
            KCoreData { alive: d.alive, kcore: d.kcore + 1 }
        });
        for v in g.local_vertices() {
            if g.is_master(v) && carry[g.local_index(v)].alive {
                q.push(KCoreVisitor { vertex: v, k });
            }
        }
        q.traverse(ctx, cfg.checkpoint.as_ref());
        let stats = q.stats();
        elapsed += stats.elapsed;
        visitors_executed += stats.visitors_executed;

        let state = q.into_state();
        let mut local_alive = 0u64;
        for (li, d) in state.iter().enumerate() {
            if d.alive {
                core_numbers[li] = k;
                if g.is_master(g.vertex_at(li)) {
                    local_alive += 1;
                }
            }
        }
        carry = state;
        if ctx.all_reduce_sum(local_alive) == 0 {
            break;
        }
    }
    KCoreDecomposition { max_core: k - 1, core_numbers, elapsed, visitors_executed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use havoq_comm::CommWorld;
    use havoq_graph::csr::GraphConfig;
    use havoq_graph::dist::PartitionStrategy;
    use havoq_graph::gen::rmat::RmatGenerator;
    use havoq_graph::types::Edge;

    /// Serial peeling reference: returns the alive set for core `k`.
    fn reference_kcore(n: u64, edges: &[Edge], k: u64) -> Vec<bool> {
        let mut adj = vec![Vec::new(); n as usize];
        for e in edges {
            if !e.is_self_loop() {
                adj[e.src as usize].push(e.dst);
            }
        }
        for a in adj.iter_mut() {
            a.sort_unstable();
            a.dedup();
        }
        let mut deg: Vec<u64> = adj.iter().map(|a| a.len() as u64).collect();
        let mut alive = vec![true; n as usize];
        let mut stack: Vec<u64> = (0..n).filter(|&v| deg[v as usize] < k).collect();
        for &v in &stack {
            alive[v as usize] = false;
        }
        while let Some(v) = stack.pop() {
            for &t in &adj[v as usize] {
                if alive[t as usize] {
                    deg[t as usize] -= 1;
                    if deg[t as usize] < k {
                        alive[t as usize] = false;
                        stack.push(t);
                    }
                }
            }
        }
        alive
    }

    fn distributed_alive(p: usize, n: u64, edges: &[Edge], k: u64) -> Vec<bool> {
        let pieces = CommWorld::run(p, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default().with_num_vertices(n),
            );
            let r = kcore(ctx, &g, k, &KCoreConfig::default());
            g.local_vertices()
                .filter(|&v| g.is_master(v))
                .map(|v| (v.0, r.local_state[g.local_index(v)].alive))
                .collect::<Vec<_>>()
        });
        let mut alive = vec![false; n as usize];
        for (v, a) in pieces.into_iter().flatten() {
            alive[v as usize] = a;
        }
        alive
    }

    #[test]
    fn matches_reference_on_rmat() {
        let gen = RmatGenerator::graph500(8);
        let edges = gen.symmetric_edges(11);
        let n = gen.num_vertices();
        for k in [2u64, 4, 8, 16] {
            let want = reference_kcore(n, &edges, k);
            for p in [1usize, 4] {
                let got = distributed_alive(p, n, &edges, k);
                assert_eq!(got, want, "k={k} p={p}");
            }
        }
    }

    #[test]
    fn cascade_is_followed() {
        // path graph 0-1-2-3-4: 2-core is empty (cascading removal)
        let mut edges = Vec::new();
        for v in 0..4u64 {
            edges.push(Edge::new(v, v + 1));
            edges.push(Edge::new(v + 1, v));
        }
        let out = CommWorld::run(3, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            kcore(ctx, &g, 2, &KCoreConfig::default()).alive_count
        });
        assert_eq!(out[0], 0, "a path collapses entirely under k=2");
    }

    #[test]
    fn clique_survives_its_core() {
        // K5 plus a pendant: 4-core = the clique, pendant dies
        let mut edges = Vec::new();
        for a in 0..5u64 {
            for b in 0..5u64 {
                if a != b {
                    edges.push(Edge::new(a, b));
                }
            }
        }
        edges.push(Edge::new(0, 5));
        edges.push(Edge::new(5, 0));
        for p in [1usize, 2, 4] {
            let alive = distributed_alive(p, 6, &edges, 4);
            assert_eq!(alive, vec![true, true, true, true, true, false], "p={p}");
        }
    }

    /// Serial core-number reference (textbook peeling).
    fn reference_core_numbers(n: u64, edges: &[Edge]) -> Vec<u64> {
        let mut adj = vec![Vec::new(); n as usize];
        for e in edges {
            if !e.is_self_loop() {
                adj[e.src as usize].push(e.dst);
            }
        }
        for a in adj.iter_mut() {
            a.sort_unstable();
            a.dedup();
        }
        let mut deg: Vec<u64> = adj.iter().map(|a| a.len() as u64).collect();
        let mut core = vec![0u64; n as usize];
        let mut removed = vec![false; n as usize];
        for k in 1..=n {
            let mut stack: Vec<u64> =
                (0..n).filter(|&v| !removed[v as usize] && deg[v as usize] < k).collect();
            if stack.len() == n as usize - removed.iter().filter(|&&r| r).count() {
                // everything below k: previous assignment stands
            }
            for &v in &stack {
                removed[v as usize] = true;
            }
            while let Some(v) = stack.pop() {
                for &t in &adj[v as usize] {
                    if !removed[t as usize] {
                        deg[t as usize] -= 1;
                        if deg[t as usize] < k {
                            removed[t as usize] = true;
                            stack.push(t);
                        }
                    }
                }
            }
            let mut any = false;
            for v in 0..n as usize {
                if !removed[v] {
                    core[v] = k;
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        core
    }

    #[test]
    fn decomposition_matches_reference() {
        let gen = RmatGenerator::graph500(7);
        let edges = gen.symmetric_edges(21);
        let n = gen.num_vertices();
        let want = reference_core_numbers(n, &edges);
        for p in [1usize, 4] {
            let pieces = CommWorld::run(p, |ctx| {
                let g = DistGraph::build_replicated(
                    ctx,
                    &edges,
                    PartitionStrategy::EdgeList,
                    GraphConfig::default().with_num_vertices(n),
                );
                let d = kcore_decomposition(ctx, &g, &KCoreConfig::default());
                g.local_vertices()
                    .filter(|&v| g.is_master(v))
                    .map(|v| (v.0, d.core_numbers[g.local_index(v)]))
                    .collect::<Vec<_>>()
            });
            let mut got = vec![0u64; n as usize];
            for (v, c) in pieces.into_iter().flatten() {
                got[v as usize] = c;
            }
            assert_eq!(got, want, "p={p}");
        }
    }

    #[test]
    fn decomposition_max_core_of_clique() {
        // K6: every vertex has core number 5
        let mut edges = Vec::new();
        for a in 0..6u64 {
            for b in 0..6u64 {
                if a != b {
                    edges.push(Edge::new(a, b));
                }
            }
        }
        let out = CommWorld::run(3, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let d = kcore_decomposition(ctx, &g, &KCoreConfig::default());
            let all_five = g
                .local_vertices()
                .filter(|&v| g.is_master(v))
                .all(|v| d.core_numbers[g.local_index(v)] == 5);
            (d.max_core, all_five)
        });
        for (max_core, all_five) in out {
            assert_eq!(max_core, 5);
            assert!(all_five);
        }
    }

    #[test]
    fn k_zero_keeps_everything() {
        let gen = RmatGenerator::graph500(6);
        let edges = gen.symmetric_edges(3);
        let out = CommWorld::run(2, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            kcore(ctx, &g, 0, &KCoreConfig::default()).alive_count
        });
        assert_eq!(out[0], 64);
    }

    #[test]
    fn huge_k_removes_everything() {
        let gen = RmatGenerator::graph500(6);
        let edges = gen.symmetric_edges(3);
        let out = CommWorld::run(2, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            kcore(ctx, &g, 1_000_000, &KCoreConfig::default()).alive_count
        });
        assert_eq!(out[0], 0);
    }
}
