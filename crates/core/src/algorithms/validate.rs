//! Graph500-style BFS result validation.
//!
//! The Graph500 benchmark the paper targets requires every reported BFS to
//! pass a validation phase. This module implements the spec's checks over
//! the distributed result:
//!
//! 1. the source has level 0 and is its own parent;
//! 2. every reached vertex has a reached parent, with
//!    `level(v) == level(parent(v)) + 1`;
//! 3. the claimed parent edge `(parent(v), v)` exists in the graph;
//! 4. every graph edge spans at most one level (no edge can shortcut the
//!    tree by two or more levels);
//! 5. replicas of split vertices agree with their master.
//!
//! Checks 2–4 need remote lookups, so validation itself runs as visitor
//! traversals over the same queue framework — like everything else in the
//! system, it is asynchronous and distributed.

use havoq_comm::{RankCtx, WireCodec};
use havoq_graph::dist::DistGraph;
use havoq_graph::types::VertexId;

use crate::algorithms::bfs::{BfsData, UNREACHED};
use crate::queue::{TraversalConfig, VisitorQueue};
use crate::visitor::{Role, Visitor, VisitorPush};

/// Outcome of a validation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValidationReport {
    /// Vertices violating local structural rules (source/parent/level).
    pub local_violations: u64,
    /// Parent claims whose edge or level relation failed remotely.
    pub parent_violations: u64,
    /// Graph edges spanning more than one BFS level.
    pub edge_violations: u64,
}

impl ValidationReport {
    pub fn is_valid(&self) -> bool {
        self.local_violations == 0 && self.parent_violations == 0 && self.edge_violations == 0
    }
}

/// Per-vertex validation state: the BFS result being checked plus
/// verification counters.
#[derive(Clone, Default)]
pub struct ValidateData {
    level: u64,
    violations: u64,
    verified: u64,
}

/// Visitor that checks, at `parent`'s partition chain, that the claimed
/// tree edge exists and the level relation holds. The visitor traverses
/// the whole chain (split adjacency); the edge `(parent, child)` lives in
/// exactly one slice of a deduplicated graph, and `level(parent)` is
/// replicated along the chain, so the slice holder can do the whole check
/// alone: relation holds -> count `verified`, relation broken -> count a
/// violation. Claims whose edge exists nowhere verify nowhere, and are
/// charged as `claims - verified` after the traversal.
#[derive(Clone, Copy)]
struct ParentCheckVisitor {
    /// The claimed parent (visited vertex).
    parent: VertexId,
    /// The child claiming the edge.
    child: u64,
    /// The child's BFS level.
    child_level: u64,
}

impl WireCodec for ParentCheckVisitor {
    const WIRE_SIZE: usize = 24;
    type DecodeCtx = ();

    fn encode(&self, buf: &mut [u8]) {
        self.parent.encode(&mut buf[..8]);
        self.child.encode(&mut buf[8..16]);
        self.child_level.encode(&mut buf[16..24]);
    }

    fn decode(buf: &[u8], ctx: &()) -> Self {
        ParentCheckVisitor {
            parent: VertexId::decode(&buf[..8], ctx),
            child: u64::decode(&buf[8..16], ctx),
            child_level: u64::decode(&buf[16..24], ctx),
        }
    }
}

impl Visitor for ParentCheckVisitor {
    type Data = ValidateData;
    const GHOSTS_ALLOWED: bool = false;

    fn vertex(&self) -> VertexId {
        self.parent
    }

    fn pre_visit(&self, _data: &mut ValidateData, _role: Role) -> bool {
        true
    }

    fn visit(&self, g: &DistGraph, data: &mut ValidateData, _q: &mut dyn VisitorPush<Self>) {
        if g.local_adj_contains(self.parent, VertexId(self.child)) {
            if data.level != UNREACHED && data.level + 1 == self.child_level {
                data.verified += 1;
            } else {
                data.violations += 1;
            }
        }
    }

    /// Sum the verification counters; `level` is read-only during the
    /// traversal (it carries the BFS result under check), so the slot's
    /// copy is authoritative and the seed's is discarded.
    #[inline]
    fn merge(into: &mut ValidateData, update: &ValidateData) {
        into.verified += update.verified;
        into.violations += update.violations;
    }

    /// Zeroed counters, carrying the read-only `level` across.
    #[inline]
    fn visit_seed(data: &ValidateData) -> ValidateData {
        ValidateData { level: data.level, violations: 0, verified: 0 }
    }
}

/// Visitor for the edge-span rule: sent to each neighbor `v` of a reached
/// vertex `u`, carrying `level(u)`. At `v`: `|level(u) - level(v)| <= 1`
/// and `v` must be reached at all.
#[derive(Clone, Copy)]
struct EdgeSpanVisitor {
    vertex: VertexId,
    neighbor_level: u64,
}

impl WireCodec for EdgeSpanVisitor {
    const WIRE_SIZE: usize = 16;
    type DecodeCtx = ();

    fn encode(&self, buf: &mut [u8]) {
        self.vertex.encode(&mut buf[..8]);
        self.neighbor_level.encode(&mut buf[8..16]);
    }

    fn decode(buf: &[u8], ctx: &()) -> Self {
        EdgeSpanVisitor {
            vertex: VertexId::decode(&buf[..8], ctx),
            neighbor_level: u64::decode(&buf[8..16], ctx),
        }
    }
}

impl Visitor for EdgeSpanVisitor {
    type Data = ValidateData;
    const GHOSTS_ALLOWED: bool = false;

    fn vertex(&self) -> VertexId {
        self.vertex
    }

    fn pre_visit(&self, data: &mut ValidateData, role: Role) -> bool {
        // evaluate once, at the master: replicas' copies would double count
        if role != Role::Master {
            return false;
        }
        let bad = data.level == UNREACHED || data.level.abs_diff(self.neighbor_level) > 1;
        if bad {
            data.violations += 1;
        }
        false // no expansion needed
    }

    fn visit(&self, _g: &DistGraph, _data: &mut ValidateData, _q: &mut dyn VisitorPush<Self>) {}

    /// All mutation happens in `pre_visit` (coordinator-side); `visit` is
    /// empty, so merging only needs to sum the (always-zero) seed deltas.
    #[inline]
    fn merge(into: &mut ValidateData, update: &ValidateData) {
        into.verified += update.verified;
        into.violations += update.violations;
    }

    #[inline]
    fn visit_seed(data: &ValidateData) -> ValidateData {
        ValidateData { level: data.level, violations: 0, verified: 0 }
    }
}

/// Validate a distributed BFS result (`local_state` as returned by
/// [`crate::algorithms::bfs::bfs`]). Collective.
pub fn validate_bfs(
    ctx: &RankCtx,
    g: &DistGraph,
    source: VertexId,
    local_state: &[BfsData],
) -> ValidationReport {
    let mut local_violations = 0u64;

    // --- local rules + replica agreement -------------------------------
    // replica agreement: exchange boundary levels along chains
    let mut boundary: Vec<(u64, u64)> = Vec::new();
    for v in g.local_vertices() {
        if g.is_split(v) {
            boundary.push((v.0, local_state[g.local_index(v)].length));
        }
    }
    let all_boundaries = ctx.all_gather(boundary);
    {
        use havoq_util::FxHashMap;
        let mut seen: FxHashMap<u64, u64> = FxHashMap::default();
        for (v, l) in all_boundaries.into_iter().flatten() {
            match seen.entry(v) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != l && g.is_master(VertexId(v)) {
                        local_violations += 1;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(l);
                }
            }
        }
    }

    for v in g.local_vertices() {
        if !g.is_master(v) {
            continue;
        }
        let d = &local_state[g.local_index(v)];
        if v == source {
            if d.length != 0 || d.parent != source.0 {
                local_violations += 1;
            }
            continue;
        }
        if d.length == UNREACHED {
            if d.parent != UNREACHED {
                local_violations += 1;
            }
            continue;
        }
        // reached, non-source: needs a parent, and level > 0
        if d.parent == UNREACHED || d.length == 0 || d.parent == v.0 {
            local_violations += 1;
        }
    }

    // --- parent-edge and level-relation checks (traversal 1) -----------
    let mut q1 = VisitorQueue::<ParentCheckVisitor>::new(ctx, g, TraversalConfig::default());
    q1.init_state(|v, g| {
        if g.is_local(v) {
            ValidateData { level: local_state[g.local_index(v)].length, ..ValidateData::default() }
        } else {
            ValidateData::default()
        }
    });
    for v in g.local_vertices() {
        if !g.is_master(v) || v == source {
            continue;
        }
        let d = &local_state[g.local_index(v)];
        if d.length != UNREACHED && d.parent != UNREACHED {
            q1.push(ParentCheckVisitor {
                parent: VertexId(d.parent),
                child: v.0,
                child_level: d.length,
            });
        }
    }
    q1.do_traversal();
    // a parent claim verifies exactly once (the slice holding the edge of
    // a deduplicated graph); claims that never verify had a bogus edge or
    // a broken level relation
    let claims: u64 = {
        let local: u64 = g
            .local_vertices()
            .filter(|&v| {
                g.is_master(v) && v != source && local_state[g.local_index(v)].length != UNREACHED
            })
            .count() as u64;
        ctx.all_reduce_sum(local)
    };
    let verified = ctx.all_reduce_sum(q1.state().iter().map(|d| d.verified).sum::<u64>());
    let parent_violations = claims.saturating_sub(verified);

    // --- edge-span rule (traversal 2): every edge of a reached vertex ---
    let mut q2 = VisitorQueue::<EdgeSpanVisitor>::new(ctx, g, TraversalConfig::default());
    q2.init_state(|v, g| {
        if g.is_local(v) {
            ValidateData { level: local_state[g.local_index(v)].length, ..ValidateData::default() }
        } else {
            ValidateData::default()
        }
    });
    // every local slice of every reached vertex emits its edges
    let mut spans: Vec<EdgeSpanVisitor> = Vec::new();
    for v in g.local_vertices() {
        let lvl = local_state[g.local_index(v)].length;
        if lvl == UNREACHED {
            continue;
        }
        g.with_adj(v, |adj| {
            for &t in adj {
                spans.push(EdgeSpanVisitor { vertex: VertexId(t), neighbor_level: lvl });
            }
        });
    }
    for s in spans {
        q2.push(s);
    }
    q2.do_traversal();
    let edge_violations = ctx.all_reduce_sum(q2.state().iter().map(|d| d.violations).sum::<u64>());

    ValidationReport {
        local_violations: ctx.all_reduce_sum(local_violations),
        parent_violations,
        edge_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::bfs::{bfs, BfsConfig};
    use havoq_comm::CommWorld;
    use havoq_graph::csr::GraphConfig;
    use havoq_graph::dist::PartitionStrategy;
    use havoq_graph::gen::rmat::RmatGenerator;

    #[test]
    fn genuine_bfs_results_validate() {
        let gen = RmatGenerator::graph500(8);
        let edges = gen.symmetric_edges(31);
        for p in [1usize, 4] {
            let reports = CommWorld::run(p, |ctx| {
                let g = DistGraph::build_replicated(
                    ctx,
                    &edges,
                    PartitionStrategy::EdgeList,
                    GraphConfig::default(),
                );
                let r = bfs(ctx, &g, VertexId(0), &BfsConfig::default());
                validate_bfs(ctx, &g, VertexId(0), &r.local_state)
            });
            for rep in reports {
                assert!(rep.is_valid(), "p={p}: {rep:?}");
            }
        }
    }

    #[test]
    fn corrupted_level_is_caught() {
        let gen = RmatGenerator::graph500(8);
        let edges = gen.symmetric_edges(31);
        let reports = CommWorld::run(3, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let r = bfs(ctx, &g, VertexId(0), &BfsConfig::default());
            let mut state = r.local_state.clone();
            // corrupt one reached non-source vertex's level on its master
            if ctx.rank() == 0 {
                if let Some(li) = g
                    .local_vertices()
                    .filter(|&v| {
                        g.is_master(v)
                            && v.0 != 0
                            && state[g.local_index(v)].length != UNREACHED
                            && state[g.local_index(v)].length > 0
                    })
                    .map(|v| g.local_index(v))
                    .next()
                {
                    state[li].length += 7;
                }
            }
            validate_bfs(ctx, &g, VertexId(0), &state)
        });
        assert!(reports.iter().any(|r| !r.is_valid()), "corruption must be detected");
    }

    #[test]
    fn corrupted_parent_is_caught() {
        let gen = RmatGenerator::graph500(8);
        let edges = gen.symmetric_edges(9);
        let reports = CommWorld::run(2, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let r = bfs(ctx, &g, VertexId(0), &BfsConfig::default());
            let mut state = r.local_state.clone();
            // claim the source is its own grandparent-level child
            if ctx.rank() == 0 {
                if let Some(li) = g
                    .local_vertices()
                    .filter(|&v| {
                        g.is_master(v)
                            && state[g.local_index(v)].length > 2
                            && state[g.local_index(v)].length != UNREACHED
                    })
                    .map(|v| g.local_index(v))
                    .next()
                {
                    state[li].parent = 0; // level gap to the source > 1
                }
            }
            validate_bfs(ctx, &g, VertexId(0), &state)
        });
        assert!(reports.iter().any(|r| !r.is_valid()));
    }
}
