//! Per-partition ghost tables (paper Section IV-B).
//!
//! Ghost information replicates the state of high in-degree hubs locally so
//! `push` can filter visitors before they ever reach the network, turning a
//! hub's `d_in` incoming visitors into at most one per partition. Ghost
//! state is never globally synchronized — it is only the local partition's
//! (possibly stale) view of the hub — so it may only *filter*, never
//! authoritatively decide.
//!
//! Behind the pinned hub slots sits a *direct-mapped filter*: one
//! `(vertex, state)` slot per `vertex mod slots`, for every target — remote
//! or local — that has no hub slot. A vertex that finds its slot held by
//! another takes it over from `Data::default()`, so aliasing only forgets,
//! never invents. The filter is sized from the graph and the visitor, not
//! configured (DESIGN.md §5, item 8): every vertex gets its own slot when
//! that fits in [`FILTER_BYTES`].

use std::any::Any;
use std::cell::RefCell;
use std::mem::size_of;

use havoq_comm::WireCodec;
use havoq_util::FxHashMap;

use havoq_graph::dist::DistGraph;
use havoq_graph::types::VertexId;

use crate::visitor::Visitor;

/// Byte budget of one traversal's direct-mapped filter.
pub const FILTER_BYTES: usize = 2 << 20;

/// The vertex id of a filter slot no vertex holds (never a real id).
const VACANT: u64 = u64::MAX;

thread_local! {
    /// The filter array this thread's last traversal dropped, kept for its
    /// next one: faulting in a fresh array costs about ten times what
    /// vacating a kept one does (1.5 MB: 0.55 vs 0.06 ms on a 2-vCPU Xeon
    /// VM; the fresh array alone is ≈ 8 % of a 7 ms direction-optimizing
    /// BFS on 2^16 vertices).
    static SPARE_FILTER: RefCell<Option<Box<dyn Any>>> = const { RefCell::new(None) };
}

/// Ghost state for up to `k` locally-hot remote hubs, plus the filter.
pub struct GhostTable<D: 'static> {
    hubs: FxHashMap<u64, D>,
    /// Direct-mapped slots, a power of two of them (empty when off).
    filter: Vec<(u64, D)>,
}

impl<D: 'static> Drop for GhostTable<D> {
    fn drop(&mut self) {
        if !self.filter.is_empty() {
            let filter: Box<dyn Any> = Box::new(std::mem::take(&mut self.filter));
            // during thread teardown the array is simply freed
            let _ = SPARE_FILTER.try_with(|spare| spare.replace(Some(filter)));
        }
    }
}

impl<D: Default + Clone + 'static> GhostTable<D> {
    /// The table a traversal of `V` over `g` keeps with `k` hub slots (the
    /// `ghosts` knob): empty unless `V` allows ghosts and `k > 0`, and with
    /// the filter behind the hubs only if `V`'s state is no larger than its
    /// wire record — a slot reset then never writes more bytes than the
    /// record it saves (which excludes 64-wide MS-BFS state).
    pub fn for_visitor<V>(g: &DistGraph, k: usize) -> Self
    where
        V: Visitor<Data = D> + WireCodec,
    {
        if !V::GHOSTS_ALLOWED || k == 0 {
            return Self::empty();
        }
        let mut table = Self::select(g, k);
        if size_of::<D>() <= V::WIRE_SIZE {
            table.filter = vacant_filter(filter_slots::<D>(g.num_vertices()));
        }
        table
    }

    /// Select the top-`k` local ghost candidates of `g` (by local in-edge
    /// frequency), excluding vertices this rank already stores state for —
    /// local vertices don't need a ghost.
    fn select(g: &DistGraph, k: usize) -> Self {
        let mut table = Self::empty();
        if k > 0 {
            for &(v, _count) in g.ghost_candidates() {
                if table.hubs.len() >= k {
                    break;
                }
                if !g.is_local(VertexId(v)) {
                    table.hubs.insert(v, D::default());
                }
            }
        }
        table
    }

    /// Empty table (ghosts disabled, or algorithm forbids them).
    fn empty() -> Self {
        Self { hubs: FxHashMap::default(), filter: Vec::new() }
    }

    /// Number of hub slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.hubs.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hubs.is_empty()
    }

    /// Number of direct-mapped filter slots (0 when the filter is off).
    #[inline]
    pub fn filter_slots(&self) -> usize {
        self.filter.len()
    }

    /// Mutable ghost state for `v` (the paper's `has_local_ghost` /
    /// `local_ghost` pair): its hub slot if it has one, else its filter
    /// slot — reset to `D::default()` first if another vertex held it.
    /// `None` only when neither exists.
    #[inline]
    pub fn get_mut(&mut self, v: VertexId) -> Option<&mut D> {
        let Some(mask) = self.filter.len().checked_sub(1) else {
            return self.hubs.get_mut(&v.0);
        };
        let slot = &mut self.filter[v.0 as usize & mask];
        if slot.0 != v.0 {
            // a hub never enters the filter, so only a filter miss can be
            // one: the common hit skips the hash lookup
            if let Some(d) = self.hubs.get_mut(&v.0) {
                return Some(d);
            }
            *slot = (v.0, D::default());
        }
        Some(&mut slot.1)
    }

    /// Whether `v` has a hub slot.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.hubs.contains_key(&v.0)
    }

    /// Snapshot every hub slot and every occupied filter slot, sorted by
    /// vertex id — the checkpoint export. Ghost state must be checkpointed
    /// with the vertex arrays: a restored master rewinds, and a
    /// fresher-than-master ghost would filter pushes the resumed run still
    /// needs.
    pub fn export(&self) -> Vec<(u64, D)> {
        let hubs = self.hubs.iter().map(|(&v, d)| (v, d.clone()));
        let filter = self.filter.iter().filter(|(v, _)| *v != VACANT).cloned();
        let mut out: Vec<(u64, D)> = hubs.chain(filter).collect();
        out.sort_unstable_by_key(|&(v, _)| v);
        out
    }

    /// Overwrite the table from a checkpoint export: hub entries in place
    /// (the hub *set* is a pure function of the graph and config), every
    /// other entry into its filter slot, and filter slots the export does
    /// not name vacated. An entry for neither means the checkpoint belongs
    /// to a different table and is a logic error.
    pub fn import(&mut self, entries: &[(u64, D)]) {
        self.filter.fill((VACANT, D::default()));
        let mut hubs = 0;
        for (v, d) in entries {
            if let Some(slot) = self.hubs.get_mut(v) {
                *slot = d.clone();
                hubs += 1;
            } else {
                assert!(!self.filter.is_empty(), "ghost import for unknown vertex {v}");
                let mask = self.filter.len() - 1;
                self.filter[*v as usize & mask] = (*v, d.clone());
            }
        }
        debug_assert_eq!(hubs, self.hubs.len(), "ghost hub set mismatch");
    }
}

/// `slots` vacant filter slots, in this thread's spare array if it is one
/// of that type and length.
fn vacant_filter<D: Default + Clone + 'static>(slots: usize) -> Vec<(u64, D)> {
    let vacant = (VACANT, D::default());
    match SPARE_FILTER.take().and_then(|spare| spare.downcast::<Vec<(u64, D)>>().ok()) {
        Some(mut filter) if filter.len() == slots => {
            filter.fill(vacant);
            *filter
        }
        _ => vec![vacant; slots],
    }
}

/// Filter slots for `num_vertices` vertices: one per vertex, rounded up to
/// a power of two, when that fits in [`FILTER_BYTES`]; else the largest
/// power of two that does.
fn filter_slots<D>(num_vertices: u64) -> usize {
    let cap = 1usize << (FILTER_BYTES / size_of::<(u64, D)>()).max(1).ilog2();
    if num_vertices >= cap as u64 {
        cap
    } else {
        (num_vertices as usize).next_power_of_two()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::bfs::{BfsData, BfsVisitor};
    use crate::batch::BatchBfsVisitor;
    use crate::visitor::Role;
    use havoq_comm::CommWorld;
    use havoq_graph::csr::GraphConfig;
    use havoq_graph::dist::PartitionStrategy;
    use havoq_graph::gen::rmat::RmatGenerator;

    fn hubs_only(slots: &[(u64, u64)]) -> GhostTable<u64> {
        GhostTable { hubs: slots.iter().copied().collect(), filter: Vec::new() }
    }

    /// Hubs `hubs` behind a filter of `slots` vacant slots.
    fn with_filter(hubs: &[u64], slots: usize) -> GhostTable<BfsData> {
        GhostTable {
            hubs: hubs.iter().map(|&v| (v, BfsData::default())).collect(),
            filter: vec![(VACANT, BfsData::default()); slots],
        }
    }

    /// One push through the table as `queue::ghost_pass` runs it: whether
    /// it would go on to the mailbox.
    fn passes(t: &mut GhostTable<BfsData>, v: u64, length: u64) -> bool {
        let vis = BfsVisitor { vertex: VertexId(v), length, parent: 0 };
        t.get_mut(vis.vertex).is_none_or(|d| vis.pre_visit(d, Role::Ghost))
    }

    #[test]
    fn selects_remote_hubs_only() {
        let g = RmatGenerator::graph500(10);
        let edges = g.symmetric_edges(13);
        CommWorld::run(4, |ctx| {
            let dg = havoq_graph::dist::DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let table = GhostTable::<u64>::select(&dg, 16);
            assert!(table.len() <= 16);
            for &(v, _) in dg.ghost_candidates() {
                if table.contains(VertexId(v)) {
                    assert!(!dg.is_local(VertexId(v)), "ghosts must be remote");
                }
            }
        });
    }

    #[test]
    fn zero_k_is_empty() {
        let g = RmatGenerator::graph500(8);
        let edges = g.symmetric_edges(1);
        CommWorld::run(2, |ctx| {
            let dg = havoq_graph::dist::DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let table = GhostTable::<u64>::select(&dg, 0);
            assert!(table.is_empty());
        });
    }

    #[test]
    fn get_mut_mutates_slot() {
        let mut t = hubs_only(&[(7, 0)]);
        *t.get_mut(VertexId(7)).unwrap() = 42;
        assert_eq!(*t.get_mut(VertexId(7)).unwrap(), 42);
        assert!(t.get_mut(VertexId(8)).is_none());
    }

    #[test]
    fn export_import_roundtrips_sorted() {
        let mut t = hubs_only(&[(9, 90), (3, 30), (5, 50)]);
        let snap = t.export();
        assert_eq!(snap, vec![(3, 30), (5, 50), (9, 90)], "export is id-sorted");
        *t.get_mut(VertexId(5)).unwrap() = 999;
        t.import(&snap);
        assert_eq!(*t.get_mut(VertexId(5)).unwrap(), 50, "import rewinds slot values");
        assert_eq!(t.len(), 3);
    }

    /// Vertices 1 and 9 share slot 1 of an 8-slot filter: the second takes
    /// the slot over, after which the first's filter state is forgotten and
    /// its next improving push passes — aliasing costs filtering, never
    /// correctness.
    #[test]
    fn direct_mapped_collision_takes_over_the_slot() {
        let mut t = with_filter(&[], 8);
        assert!(passes(&mut t, 1, 5));
        assert!(!passes(&mut t, 1, 5), "a repeat is filtered");
        assert!(!passes(&mut t, 1, 6), "a worse push is filtered");
        assert!(passes(&mut t, 9, 7), "9 takes slot 1 over");
        assert_eq!(t.filter[1], (9, BfsData { length: 7, parent: 0 }));
        assert!(passes(&mut t, 1, 4), "1's next improving push passes");
        assert!(!passes(&mut t, 1, 4));
        assert_eq!(t.filter[1].0, 1, "and 1 holds the slot again");
    }

    /// Hub and filter entries mixed: export is one id-sorted list of hubs
    /// and occupied slots, and import puts back exactly those slots —
    /// values rewound, takeovers undone, later occupants vacated.
    #[test]
    fn export_import_restores_hub_and_filter_slots_exactly() {
        let mut t = with_filter(&[3, 40], 8);
        for (v, length) in [(3, 2), (5, 4), (12, 6), (20, 3), (33, 1)] {
            assert!(passes(&mut t, v, length));
        }
        // 12 and 20 share slot 4: 20 holds it; 33 sits in slot 1
        let snap = t.export();
        let at = |v: u64, length: u64| (v, BfsData { length, parent: 0 });
        assert_eq!(
            snap,
            vec![at(3, 2), at(5, 4), at(20, 3), at(33, 1), (40, BfsData::default())],
            "hubs plus occupied filter slots, by vertex"
        );
        let filter_before = t.filter.clone();
        assert!(passes(&mut t, 3, 1));
        assert!(passes(&mut t, 5, 0));
        assert!(passes(&mut t, 12, 1), "12 takes slot 4 back");
        assert!(passes(&mut t, 6, 9), "slot 6 gets occupied");
        t.import(&snap);
        assert_eq!(t.filter, filter_before, "import restores the exact filter slots");
        assert_eq!(t.export(), snap);
        assert!(!passes(&mut t, 3, 2), "hub value rewound");
    }

    #[test]
    fn zero_ghosts_turn_hubs_and_filter_off() {
        let edges = RmatGenerator::graph500(8).symmetric_edges(1);
        CommWorld::run(2, |ctx| {
            let dg = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let off = GhostTable::for_visitor::<BfsVisitor>(&dg, 0);
            assert_eq!((off.len(), off.filter_slots()), (0, 0));
            let on = GhostTable::for_visitor::<BfsVisitor>(&dg, 256);
            assert!(on.filter_slots() > 0);
        });
    }

    /// The size rule: 64-wide MS-BFS state (1032 B) against its 32 B record
    /// gets no filter; BFS state (16 B) against 24 B gets one slot per
    /// vertex of a 2^10-vertex graph.
    #[test]
    fn filter_size_follows_state_and_graph() {
        let edges = RmatGenerator::graph500(10).symmetric_edges(3);
        CommWorld::run(1, |ctx| {
            let dg = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default().with_num_vertices(1 << 10),
            );
            let wide = GhostTable::for_visitor::<BatchBfsVisitor<64>>(&dg, 256);
            assert_eq!(wide.filter_slots(), 0);
            let bfs = GhostTable::for_visitor::<BfsVisitor>(&dg, 256);
            assert_eq!(bfs.filter_slots(), 1024);
        });
        assert_eq!(filter_slots::<BfsData>(1 << 20), 1 << 16, "24 B slots in 2 MiB");
        assert_eq!(filter_slots::<u64>(1000), 1024);
    }
}
