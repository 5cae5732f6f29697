//! The distributed partitioned graph (paper Section III-A).
//!
//! [`DistGraph`] is built collectively by all ranks of a `havoq-comm` world.
//! With [`PartitionStrategy::EdgeList`] (the paper's contribution) the edge
//! list is globally sorted by source and split exactly evenly; adjacency
//! lists of boundary vertices — including hubs — span consecutive
//! partitions, forming master/replica chains addressed through
//! `min_owner(v)` / `max_owner(v)` (Figure 3). With
//! [`PartitionStrategy::OneD`] vertices are block-partitioned and each
//! adjacency list lives whole on one rank (the Figure 12 baseline).
//!
//! Every rank also stores the *state range* `[lo, end)` of vertices it keeps
//! algorithm state for. Ranges tile `[0, n)`; they overlap exactly on split
//! vertices, whose state is replicated along the chain (the `min_owner`
//! partition is the master). Vertices with no out-edges are folded into the
//! gap-filling range of the nearest following partition so that every vertex
//! has a unique master.

use havoq_util::FxHashMap;

use havoq_comm::RankCtx;

use crate::csr::{GraphConfig, LocalCsr};
use crate::partition::block_start;
use crate::sort::sort_edges_even;
use crate::types::{Edge, VertexId};

/// How the edge list is distributed over ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// The paper's edge-list partitioning: sorted, exactly even, split
    /// adjacency lists with replica chains.
    EdgeList,
    /// Classic 1D vertex-block partitioning (baseline, Figure 12).
    OneD,
}

/// Upper bound on locally tracked ghost candidates.
const MAX_GHOST_CANDIDATES: usize = 4096;

/// One rank's view of the distributed graph.
pub struct DistGraph {
    rank: usize,
    ranks: usize,
    n: u64,
    global_edges: u64,
    strategy: PartitionStrategy,
    /// Per-rank state-range starts (inclusive), replicated.
    lo: Vec<u64>,
    /// Per-rank state-range ends (exclusive), replicated.
    end: Vec<u64>,
    csr: LocalCsr,
    /// Global (whole-adjacency) out-degree of each local vertex. For
    /// symmetrized graphs this is the undirected degree k-core needs.
    total_degree: Vec<u64>,
    /// For local *split* vertices: the offset of this rank's adjacency
    /// slice within the vertex's whole (chain-ordered) adjacency list.
    split_offsets: FxHashMap<u64, u64>,
    /// Local high-in-frequency targets: `(vertex, local in-edge count)`,
    /// descending by count — the pool ghosts are selected from.
    ghost_candidates: Vec<(u64, u64)>,
}

impl DistGraph {
    /// Collectively build the graph from each rank's slice of the edge
    /// list. The slices may be arbitrary (the build redistributes).
    pub fn build(
        ctx: &RankCtx,
        mut local_edges: Vec<Edge>,
        strategy: PartitionStrategy,
        cfg: GraphConfig,
    ) -> Self {
        let p = ctx.size();
        // global vertex count: inferred from the edges unless given
        let local_max = crate::types::max_vertex(&local_edges);
        let inferred = ctx.all_reduce_max(local_max).max(1);
        let n = match cfg.num_vertices {
            Some(n) => {
                assert!(n >= inferred, "num_vertices {n} below max endpoint {inferred}");
                n
            }
            None => inferred,
        };

        // Drop self-loops during construction.
        local_edges.retain(|e| !e.is_self_loop());

        let (edges, lo, end) = match strategy {
            PartitionStrategy::EdgeList => {
                let mut edges = sort_edges_even(ctx, local_edges);
                if cfg.dedup {
                    dedup_global(ctx, &mut edges);
                }
                let (lo, end) = edge_list_ranges(ctx, &edges, n);
                (edges, lo, end)
            }
            PartitionStrategy::OneD => {
                let mut buckets: Vec<Vec<Edge>> = (0..p).map(|_| Vec::new()).collect();
                for e in local_edges.drain(..) {
                    buckets[crate::partition::block_owner(e.src, n, p)].push(e);
                }
                let mut edges: Vec<Edge> = ctx.all_to_allv(buckets).into_iter().flatten().collect();
                edges.sort_unstable_by_key(|e| e.key());
                if cfg.dedup {
                    edges.dedup();
                }
                let lo: Vec<u64> = (0..p).map(|r| block_start(r, n, p)).collect();
                let end: Vec<u64> = (0..p).map(|r| block_start(r + 1, n, p)).collect();
                (edges, lo, end)
            }
        };

        let my_lo = lo[ctx.rank()];
        let nv = (end[ctx.rank()] - my_lo) as usize;

        // ghost candidates: local in-edge frequency of remote-or-hub targets
        let ghost_candidates = ghost_candidates_of(&edges);

        let global_edges = ctx.all_reduce_sum(edges.len() as u64);
        let csr = LocalCsr::build(my_lo, nv, &edges, cfg.storage);
        drop(edges);

        let mut g = Self {
            rank: ctx.rank(),
            ranks: p,
            n,
            global_edges,
            strategy,
            lo,
            end,
            csr,
            total_degree: Vec::new(),
            split_offsets: FxHashMap::default(),
            ghost_candidates,
        };
        let (deg, offsets) = g.compute_total_degrees(ctx);
        g.total_degree = deg;
        g.split_offsets = offsets;
        g
    }

    /// Convenience: every rank passes the same full edge list and takes its
    /// contiguous share (useful for examples and tests).
    pub fn build_replicated(
        ctx: &RankCtx,
        all_edges: &[Edge],
        strategy: PartitionStrategy,
        cfg: GraphConfig,
    ) -> Self {
        let p = ctx.size();
        let m = all_edges.len();
        let lo = m * ctx.rank() / p;
        let hi = m * (ctx.rank() + 1) / p;
        Self::build(ctx, all_edges[lo..hi].to_vec(), strategy, cfg)
    }

    /// Sum local out-degrees of split vertices across their replica chains;
    /// also compute this rank's slice offset within each split adjacency.
    fn compute_total_degrees(&self, ctx: &RankCtx) -> (Vec<u64>, FxHashMap<u64, u64>) {
        let my_lo = self.lo[self.rank];
        let nv = self.num_local_vertices();
        let mut deg: Vec<u64> = (0..nv).map(|li| self.csr.local_out_degree(li)).collect();
        // only the first/last local vertices can be split
        let mut mine: Vec<(u64, u64)> = Vec::new();
        if nv > 0 {
            for v in [my_lo, my_lo + nv as u64 - 1] {
                if self.is_split(VertexId(v)) {
                    mine.push((v, self.csr.local_out_degree((v - my_lo) as usize)));
                    if nv == 1 {
                        break; // first == last
                    }
                }
            }
            mine.dedup();
        }
        let all: Vec<Vec<(u64, u64)>> = ctx.all_gather(mine);
        let mut sums: FxHashMap<u64, u64> = FxHashMap::default();
        let mut offsets: FxHashMap<u64, u64> = FxHashMap::default();
        for (r, contrib) in all.iter().enumerate() {
            for &(v, d) in contrib {
                if r < self.rank {
                    // chain order = rank order: lower ranks' slices precede
                    *offsets.entry(v).or_insert(0) += d;
                }
                *sums.entry(v).or_insert(0) += d;
            }
        }
        offsets.retain(|&v, _| self.is_local(VertexId(v)));
        for (v, total) in sums {
            if self.is_local(VertexId(v)) {
                deg[(v - my_lo) as usize] = total;
            }
        }
        (deg, offsets)
    }

    // ---- topology queries -------------------------------------------------

    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Global vertex count.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.n
    }

    /// Global directed edge count (after cleaning).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.global_edges
    }

    #[inline]
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// Lowest rank holding state for `v` — the master partition.
    #[inline]
    pub fn min_owner(&self, v: VertexId) -> usize {
        debug_assert!(v.0 < self.n);
        self.end.partition_point(|&e| e <= v.0)
    }

    /// Highest rank holding state for `v` (end of the replica chain).
    #[inline]
    pub fn max_owner(&self, v: VertexId) -> usize {
        debug_assert!(v.0 < self.n);
        self.lo.partition_point(|&l| l <= v.0) - 1
    }

    /// True if `v`'s adjacency list spans multiple partitions.
    #[inline]
    pub fn is_split(&self, v: VertexId) -> bool {
        self.min_owner(v) != self.max_owner(v)
    }

    /// True if this rank holds state for `v` (as master or replica).
    #[inline]
    pub fn is_local(&self, v: VertexId) -> bool {
        self.lo[self.rank] <= v.0 && v.0 < self.end[self.rank]
    }

    /// True if this rank is `v`'s master partition.
    #[inline]
    pub fn is_master(&self, v: VertexId) -> bool {
        self.min_owner(v) == self.rank
    }

    /// Local state index of `v` (must be local).
    #[inline]
    pub fn local_index(&self, v: VertexId) -> usize {
        debug_assert!(self.is_local(v), "vertex {v} not local to rank {}", self.rank);
        (v.0 - self.lo[self.rank]) as usize
    }

    /// Global id of local state index `li`.
    #[inline]
    pub fn vertex_at(&self, li: usize) -> VertexId {
        VertexId(self.lo[self.rank] + li as u64)
    }

    /// Number of vertices this rank keeps state for.
    #[inline]
    pub fn num_local_vertices(&self) -> usize {
        (self.end[self.rank] - self.lo[self.rank]) as usize
    }

    /// Iterate this rank's state range as global ids.
    pub fn local_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (self.lo[self.rank]..self.end[self.rank]).map(VertexId)
    }

    // ---- adjacency --------------------------------------------------------

    /// Run `f` over the *local slice* of `v`'s adjacency (sorted targets).
    /// Replica ranks see only their portion, as in the paper.
    #[inline]
    pub fn with_adj<R>(&self, v: VertexId, f: impl FnOnce(&[u64]) -> R) -> R {
        self.csr.with_adj(self.local_index(v), f)
    }

    /// Scan `v`'s local adjacency slice in order until `pred` hits,
    /// returning `(targets_scanned, Some(hit))` or `(degree, None)`. On
    /// compressed storage the gap decoder stops at the hit instead of
    /// decoding the whole slice; the scanned count is identical across
    /// storage backends (see [`LocalCsr::scan_adj`]).
    #[inline]
    pub fn scan_adj(&self, v: VertexId, pred: impl FnMut(u64) -> bool) -> (u64, Option<u64>) {
        self.csr.scan_adj(self.local_index(v), pred)
    }

    /// Local slice length of `v`'s adjacency.
    #[inline]
    pub fn local_out_degree(&self, v: VertexId) -> u64 {
        self.csr.local_out_degree(self.local_index(v))
    }

    /// Whole-adjacency out-degree of local vertex `v` (summed over the
    /// replica chain at build time).
    #[inline]
    pub fn total_degree(&self, v: VertexId) -> u64 {
        self.total_degree[self.local_index(v)]
    }

    /// True if `target` is in `v`'s *local* adjacency slice.
    #[inline]
    pub fn local_adj_contains(&self, v: VertexId, target: VertexId) -> bool {
        self.csr.adj_contains(self.local_index(v), target.0)
    }

    /// Offset of this rank's slice within local vertex `v`'s whole
    /// adjacency list (0 unless `v` is split and this rank is not the
    /// chain head).
    #[inline]
    fn local_adj_offset(&self, v: VertexId) -> u64 {
        debug_assert!(self.is_local(v));
        self.split_offsets.get(&v.0).copied().unwrap_or(0)
    }

    /// The target at global adjacency position `pos` of local vertex `v`,
    /// if that position falls inside this rank's slice. Positions index the
    /// whole chain-ordered adjacency `0..total_degree(v)`; exactly one rank
    /// of the chain answers `Some`.
    pub fn local_adj_at(&self, v: VertexId, pos: u64) -> Option<u64> {
        let off = self.local_adj_offset(v);
        let len = self.local_out_degree(v);
        if pos < off || pos >= off + len {
            return None;
        }
        self.with_adj(v, |adj| Some(adj[(pos - off) as usize]))
    }

    /// The local CSR (for storage statistics).
    pub fn csr(&self) -> &LocalCsr {
        &self.csr
    }

    // ---- ghosts -----------------------------------------------------------

    /// All tracked candidates with their local in-edge counts, highest
    /// first: the paper's per-partition ghost selection ("each partition
    /// locally identifies high-degree vertices from its edges' targets")
    /// takes a prefix.
    pub fn ghost_candidates(&self) -> &[(u64, u64)] {
        &self.ghost_candidates
    }
}

/// Compute state ranges from each rank's sorted edge slice (see module
/// docs): gather per-rank source ranges and tile `[0, n)`.
fn edge_list_ranges(ctx: &RankCtx, edges: &[Edge], n: u64) -> (Vec<u64>, Vec<u64>) {
    let my = if edges.is_empty() { None } else { Some((edges[0].src, edges[edges.len() - 1].src)) };
    let ranges = ctx.all_gather(my);
    let p = ctx.size();
    let mut lo = vec![0u64; p];
    let mut end = vec![0u64; p];
    let mut prev_end = 0u64;
    for r in 0..p {
        match ranges[r] {
            None => {
                lo[r] = prev_end;
                end[r] = prev_end;
            }
            Some((smin, smax)) => {
                // smin == prev_end - 1 -> split replica chain; smin >
                // prev_end -> fold the zero-out-degree gap into this rank
                lo[r] = smin.min(prev_end);
                end[r] = smax + 1;
                prev_end = end[r];
            }
        }
    }
    end[p - 1] = end[p - 1].max(n);
    if lo[p - 1] > end[p - 1] {
        lo[p - 1] = end[p - 1];
    }
    (lo, end)
}

/// Remove duplicate edges globally: local dedup plus a boundary fix-up so a
/// run of equal edges spanning a partition boundary keeps exactly one copy
/// (the first). Operates on each rank's sorted slice.
fn dedup_global(ctx: &RankCtx, edges: &mut Vec<Edge>) {
    edges.dedup();
    // summaries: (first_key, last_key, len) — after local dedup each rank
    // holds distinct keys, so at most its single leading edge can duplicate
    // the effective predecessor tail.
    let my = if edges.is_empty() {
        None
    } else {
        Some((edges[0], edges[edges.len() - 1], edges.len() as u64))
    };
    let all = ctx.all_gather(my);
    // replay rank order to find each rank's effective predecessor tail key
    let mut eff_last: Option<Edge> = None;
    let mut my_pred: Option<Edge> = None;
    for (r, summary) in all.iter().enumerate() {
        if r == ctx.rank() {
            my_pred = eff_last;
        }
        if let Some((first, last, len)) = summary {
            let emptied = *len == 1 && eff_last.map(|e| e.key()) == Some(first.key());
            if !emptied {
                eff_last = Some(*last);
            }
        }
    }
    if let Some(pred) = my_pred {
        if !edges.is_empty() && edges[0].key() == pred.key() {
            edges.remove(0);
        }
    }
}

/// Count local in-edge frequencies and keep the top candidates.
fn ghost_candidates_of(edges: &[Edge]) -> Vec<(u64, u64)> {
    let mut counts: FxHashMap<u64, u64> = FxHashMap::default();
    for e in edges {
        *counts.entry(e.dst).or_insert(0) += 1;
    }
    let mut cands: Vec<(u64, u64)> = counts.into_iter().filter(|&(_, c)| c >= 2).collect();
    cands.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    cands.truncate(MAX_GHOST_CANDIDATES);
    cands
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::rmat::RmatGenerator;
    use havoq_comm::CommWorld;

    /// The paper's Figure 3 example: 8 vertices, 16 edges, 4 partitions.
    fn figure3_edges() -> Vec<Edge> {
        [
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 1),
            (2, 3),
            (2, 4),
            (2, 5),
            (2, 6),
            (2, 7),
            (3, 2),
            (4, 2),
            (5, 2),
            (5, 7),
            (6, 2),
            (7, 2),
            (7, 5),
        ]
        .iter()
        .map(|&(s, d)| Edge::new(s, d))
        .collect()
    }

    #[test]
    fn figure3_owners_match_paper() {
        let edges = figure3_edges();
        CommWorld::run(4, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            assert_eq!(g.num_vertices(), 8);
            assert_eq!(g.num_edges(), 16);
            // exactly the paper's example values
            assert_eq!(g.min_owner(VertexId(2)), 0);
            assert_eq!(g.max_owner(VertexId(2)), 2);
            assert_eq!(g.min_owner(VertexId(5)), 2);
            assert_eq!(g.max_owner(VertexId(5)), 3);
            assert!(g.is_split(VertexId(2)));
            assert!(g.is_split(VertexId(5)));
            assert!(!g.is_split(VertexId(0)));
            // every partition holds exactly 4 edges
            assert_eq!(g.csr().num_edges(), 4);
        });
    }

    #[test]
    fn figure3_split_adjacency_reassembles() {
        let edges = figure3_edges();
        let slices = CommWorld::run(4, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            if g.is_local(VertexId(2)) {
                g.with_adj(VertexId(2), |a| a.to_vec())
            } else {
                Vec::new()
            }
        });
        let mut whole: Vec<u64> = slices.into_iter().flatten().collect();
        whole.sort_unstable();
        assert_eq!(whole, vec![1, 3, 4, 5, 6, 7], "vertex 2's full adjacency");
    }

    #[test]
    fn figure3_adjacency_positions_resolve_once() {
        let edges = figure3_edges();
        let resolved = CommWorld::run(4, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let mut out = Vec::new();
            if g.is_local(VertexId(2)) {
                for pos in 0..6u64 {
                    if let Some(t) = g.local_adj_at(VertexId(2), pos) {
                        out.push((pos, t));
                    }
                }
            }
            out
        });
        let mut all: Vec<(u64, u64)> = resolved.into_iter().flatten().collect();
        all.sort_unstable();
        // exactly one resolver per position; the chain-ordered adjacency of
        // vertex 2 is its sorted target list (slices are sorted and chain
        // order follows source-sorted ranks)
        let positions: Vec<u64> = all.iter().map(|&(p, _)| p).collect();
        assert_eq!(positions, vec![0, 1, 2, 3, 4, 5]);
        let mut targets: Vec<u64> = all.iter().map(|&(_, t)| t).collect();
        targets.sort_unstable();
        assert_eq!(targets, vec![1, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn figure3_total_degree_sums_chain() {
        let edges = figure3_edges();
        CommWorld::run(4, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            if g.is_local(VertexId(2)) {
                assert_eq!(g.total_degree(VertexId(2)), 6);
            }
            if g.is_local(VertexId(5)) {
                assert_eq!(g.total_degree(VertexId(5)), 2);
            }
            if g.is_local(VertexId(0)) {
                assert_eq!(g.total_degree(VertexId(0)), 1);
            }
        });
    }

    /// The three storage backends with tiny caches, for equivalence tests.
    fn storage_matrix() -> Vec<GraphConfig> {
        use havoq_nvram::cache::PageCacheConfig;
        use havoq_nvram::device::DeviceProfile;
        let cache = PageCacheConfig {
            page_size: 64,
            capacity_pages: 4,
            shards: 1,
            ..PageCacheConfig::default()
        };
        vec![
            GraphConfig::default(),
            GraphConfig::external(DeviceProfile::dram(), cache),
            GraphConfig::external_compressed(DeviceProfile::dram(), cache),
        ]
    }

    #[test]
    fn figure3_split_adjacency_matches_across_storages() {
        // Satellite: chain-ordered target_at positions must resolve
        // identically whether slices are raw u64s or gap-decoded bytes.
        let edges = figure3_edges();
        for cfg in storage_matrix() {
            let resolved = CommWorld::run(4, |ctx| {
                let g = DistGraph::build_replicated(ctx, &edges, PartitionStrategy::EdgeList, cfg);
                let mut out = Vec::new();
                for v in [VertexId(2), VertexId(5)] {
                    if g.is_local(v) {
                        for pos in 0..g.total_degree(v) {
                            if let Some(t) = g.local_adj_at(v, pos) {
                                out.push((v.0, pos, t));
                            }
                        }
                    }
                }
                out
            });
            let mut all: Vec<(u64, u64, u64)> = resolved.into_iter().flatten().collect();
            all.sort_unstable();
            // identical position → target map on every backend (vertex 2 is
            // split over ranks 0..=2, vertex 5 over ranks 2..=3)
            assert_eq!(
                all,
                vec![
                    (2, 0, 1),
                    (2, 1, 3),
                    (2, 2, 4),
                    (2, 3, 5),
                    (2, 4, 6),
                    (2, 5, 7),
                    (5, 0, 2),
                    (5, 1, 7),
                ],
                "storage {}",
                cfg.storage.label()
            );
        }
    }

    #[test]
    fn figure3_scan_adj_equivalent_across_storages() {
        let edges = figure3_edges();
        let mut per_storage = Vec::new();
        for cfg in storage_matrix() {
            let scans = CommWorld::run(4, |ctx| {
                let g = DistGraph::build_replicated(ctx, &edges, PartitionStrategy::EdgeList, cfg);
                let mut out = Vec::new();
                for v in g.local_vertices() {
                    for needle in 0..8u64 {
                        out.push(g.scan_adj(v, |t| t == needle));
                    }
                }
                out
            });
            per_storage.push(scans);
        }
        assert_eq!(per_storage[0], per_storage[1], "ext diverges from mem");
        assert_eq!(per_storage[0], per_storage[2], "ext-comp diverges from mem");
    }

    fn owner_invariants(g: &DistGraph) {
        for v in 0..g.num_vertices() {
            let v = VertexId(v);
            let (mn, mx) = (g.min_owner(v), g.max_owner(v));
            assert!(mn <= mx, "{v}: min {mn} > max {mx}");
            assert!(mx < g.ranks());
        }
    }

    #[test]
    fn every_vertex_has_owners_on_rmat() {
        let g = RmatGenerator::graph500(8);
        let edges = g.symmetric_edges(17);
        for p in [1usize, 3, 4, 7] {
            CommWorld::run(p, |ctx| {
                let dg = DistGraph::build_replicated(
                    ctx,
                    &edges,
                    PartitionStrategy::EdgeList,
                    GraphConfig::default(),
                );
                owner_invariants(&dg);
                // local coverage: each local vertex round-trips
                for v in dg.local_vertices() {
                    assert_eq!(dg.vertex_at(dg.local_index(v)), v);
                    let mn = dg.min_owner(v);
                    let mx = dg.max_owner(v);
                    assert!((mn..=mx).contains(&ctx.rank()));
                }
            });
        }
    }

    #[test]
    fn edge_list_balance_is_perfect() {
        let g = RmatGenerator::graph500(9);
        let edges = g.symmetric_edges(23);
        let counts = CommWorld::run(5, |ctx| {
            let dg = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                // keep duplicates so the even split stays exact
                GraphConfig { dedup: false, ..GraphConfig::default() },
            );
            dg.csr().num_edges()
        });
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 1, "edge-list partitions must be even: {counts:?}");
    }

    #[test]
    fn one_d_keeps_adjacency_whole() {
        let g = RmatGenerator::graph500(8);
        let edges = g.symmetric_edges(31);
        CommWorld::run(4, |ctx| {
            let dg = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::OneD,
                GraphConfig::default(),
            );
            owner_invariants(&dg);
            for v in 0..dg.num_vertices() {
                assert!(!dg.is_split(VertexId(v)), "1D must not split adjacency lists");
            }
        });
    }

    #[test]
    fn one_d_and_edge_list_agree_on_graph_content() {
        let g = RmatGenerator::graph500(7);
        let edges = g.symmetric_edges(3);
        let edges = &edges;
        let collect = |strategy| {
            CommWorld::run(3, move |ctx| {
                let dg = DistGraph::build_replicated(ctx, edges, strategy, GraphConfig::default());
                let mut out = Vec::new();
                for v in dg.local_vertices() {
                    if dg.is_master(v) || dg.strategy() == PartitionStrategy::EdgeList {
                        dg.with_adj(v, |a| {
                            out.extend(a.iter().map(|&t| Edge::new(v.0, t)));
                        });
                    }
                }
                out
            })
        };
        let mut a: Vec<Edge> = collect(PartitionStrategy::EdgeList).into_iter().flatten().collect();
        let mut b: Vec<Edge> = collect(PartitionStrategy::OneD).into_iter().flatten().collect();
        a.sort_unstable_by_key(|e| e.key());
        b.sort_unstable_by_key(|e| e.key());
        assert_eq!(a, b, "both partitionings must store the same cleaned edge set");
    }

    #[test]
    fn dedup_removes_cross_boundary_duplicates() {
        // 8 copies of one edge + filler: duplicates must collapse to one
        // even though the run spans partition boundaries
        let mut edges: Vec<Edge> = (0..8).map(|_| Edge::new(3, 4)).collect();
        edges.extend((0..8).map(|i| Edge::new(i % 3, i % 5 + 3)));
        let totals = CommWorld::run(4, |ctx| {
            let dg = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            dg.num_edges()
        });
        let mut unique: Vec<Edge> = edges.clone();
        unique.sort_unstable_by_key(|e| e.key());
        unique.dedup();
        let want = unique.iter().filter(|e| !e.is_self_loop()).count() as u64;
        assert!(totals.iter().all(|&t| t == want), "{totals:?} != {want}");
    }

    #[test]
    fn ghost_candidates_rank_hubs_first() {
        let g = RmatGenerator::graph500(10);
        let edges = g.symmetric_edges(5);
        CommWorld::run(2, |ctx| {
            let dg = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let cands = dg.ghost_candidates();
            assert!(!cands.is_empty(), "RMAT must surface hub targets");
            assert!(cands.windows(2).all(|w| w[0].1 >= w[1].1), "descending by count");
        });
    }

    #[test]
    fn single_rank_world_owns_everything() {
        let edges = figure3_edges();
        CommWorld::run(1, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            for v in 0..8 {
                assert_eq!(g.min_owner(VertexId(v)), 0);
                assert_eq!(g.max_owner(VertexId(v)), 0);
                assert!(g.is_master(VertexId(v)));
            }
        });
    }

    #[test]
    fn more_ranks_than_edges() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 0), Edge::new(1, 2), Edge::new(2, 1)];
        CommWorld::run(6, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            owner_invariants(&g);
            assert_eq!(g.num_edges(), 4);
        });
    }

    #[test]
    fn zero_out_degree_vertices_have_unique_master() {
        // vertex 5 exists only as a target
        let edges = vec![Edge::new(0, 5), Edge::new(1, 5), Edge::new(7, 5)];
        CommWorld::run(3, |ctx| {
            let g = DistGraph::build(
                ctx,
                if ctx.rank() == 0 { edges.clone() } else { Vec::new() },
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            owner_invariants(&g);
            let masters: u64 = ctx.all_reduce_sum(g.is_master(VertexId(5)) as u64);
            assert_eq!(masters, 1, "exactly one master for a sink vertex");
        });
    }
}
