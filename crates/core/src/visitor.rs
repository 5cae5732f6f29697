//! The visitor abstraction (paper Table I).

use havoq_graph::dist::DistGraph;
use havoq_graph::types::VertexId;

/// Where a `pre_visit` evaluation is happening.
///
/// The paper applies one `pre_visit` everywhere; that is correct for
/// idempotent monotone updates (BFS, CC, SSSP) but not for counting
/// algorithms on *split* adjacency lists: a k-core replica only ever
/// receives the single visitor its master forwarded after dying, so a bare
/// decrement would never fire the replica's local out-edge slice. Exposing
/// the role lets such algorithms treat a forwarded visitor as authoritative
/// while keeping the paper's code shape for everything else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Evaluation on the vertex's master partition (`min_owner`).
    Master,
    /// Evaluation on a replica partition of a split vertex, on a visitor
    /// forwarded along the replica chain.
    Replica,
    /// Evaluation on locally stored ghost state during `push` — an
    /// imprecise filter, never globally synchronized (Section IV-B).
    Ghost,
}

/// A traversal algorithm, expressed as vertex-centric procedures with
/// forwardable state (paper Table I).
///
/// Implementations are plain-data values shipped between ranks through the
/// mailbox; they must be cheap to clone. The `Sync` bound exists for the
/// intra-rank worker pool (DESIGN.md §11), which shares a popped chunk of
/// visitors across worker threads by reference; plain-data visitors (and
/// `Arc`-held lookup tables) satisfy it for free.
pub trait Visitor: Clone + Send + Sync + 'static {
    /// Per-vertex algorithm state (e.g. BFS level + parent). One instance
    /// per vertex per partition holding it; replicated for split vertices;
    /// also used as ghost state.
    type Data: Clone + Default + Send + 'static;

    /// Whether this algorithm may use ghost filtering. Algorithms that need
    /// precise event counts (k-core, triangle counting) must return false
    /// (Section IV-B: "each algorithm must explicitly declare ghost usage").
    const GHOSTS_ALLOWED: bool;

    /// The vertex this visitor targets.
    fn vertex(&self) -> VertexId;

    /// Preliminary evaluation against the vertex's state; returns true if
    /// the main `visit` should proceed. May run against ghost state
    /// ([`Role::Ghost`]) as a filter.
    fn pre_visit(&self, data: &mut Self::Data, role: Role) -> bool;

    /// Main visitor procedure: runs with exclusive access to the vertex's
    /// state on the current partition; sees only the *local slice* of the
    /// vertex's adjacency; pushes follow-on visitors through `q`.
    fn visit(&self, g: &DistGraph, data: &mut Self::Data, q: &mut dyn VisitorPush<Self>);

    /// The visitor's key in the rank's run queue: smaller keys run first,
    /// and equal keys run in vertex-id order for page-level locality
    /// (Section V-A), or in arrival order when that is ablated. The
    /// default, 0 for every visitor, imposes no algorithm order. Each key
    /// queued at once costs one small map entry beside its visitors
    /// (DESIGN.md "The run queue").
    fn priority(&self) -> u64 {
        0
    }

    /// Fold one `visit` execution's state update back into the canonical
    /// per-vertex slot (DESIGN.md §11).
    ///
    /// When visitors execute on a worker pool, each `visit` runs against a
    /// private seed copy (see [`Visitor::visit_seed`]) instead of the slot
    /// itself; `merge` then combines the seed back under the slot's lock.
    /// The operation **must be commutative and associative** — merges from
    /// concurrent workers land in arbitrary order — and must subsume the
    /// serial semantics: monotone algorithms declare their min/and here
    /// (making a stale seed's merge a no-op), counting algorithms declare
    /// the sum of their deltas.
    fn merge(into: &mut Self::Data, update: &Self::Data);

    /// The private state copy handed to a worker-side `visit`.
    ///
    /// Defaults to a full clone, which is correct for algorithms whose
    /// `visit` only *reads* state (BFS, CC, SSSP, k-core: mutation happens
    /// in `pre_visit` on the coordinator). Delta-counting algorithms
    /// (triangle, wedge, validation) override this to return a zeroed
    /// accumulator — carrying any read-only fields across — so concurrent
    /// executions on the same vertex sum exactly instead of double
    /// counting.
    fn visit_seed(data: &Self::Data) -> Self::Data {
        data.clone()
    }
}

/// Sink for dynamically created visitors (the `visitor_queue.push` half of
/// the queue interface, usable from inside `visit`).
pub trait VisitorPush<V: Visitor> {
    fn push(&mut self, visitor: V);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_is_plain_data() {
        assert_eq!(Role::Master, Role::Master);
        assert_ne!(Role::Master, Role::Replica);
        let r = Role::Ghost;
        let s = r; // Copy
        assert_eq!(r, s);
    }
}
