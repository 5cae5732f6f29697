//! The paper's primary contribution: the distributed asynchronous visitor
//! queue and the traversal algorithms built on it.
//!
//! - [`visitor`] — the visitor abstraction of Table I (`pre_visit`, `visit`,
//!   priority ordering, per-vertex state), extended with an explicit
//!   [`visitor::Role`] so algorithms can distinguish master, replica and
//!   ghost evaluations (see DESIGN.md for why k-core needs this on split
//!   adjacency lists).
//! - [`queue`] — Algorithm 1: `push` with local ghost filtering,
//!   `check_mailbox` with master→replica forwarding chains, and one
//!   driver loop (mailbox poll, drain the heap, quiescence cut) that
//!   `do_traversal`, `do_traversal_checkpointed` and the level-synchronous
//!   engines' rounds all run, differing only in executor and cut policy
//!   (DESIGN.md §16). Local visitors are ordered by the algorithm's
//!   comparator with a vertex-id tie-break for page-level locality
//!   (Section V-A).
//! - [`ghost`] — per-partition ghost tables for high in-degree hubs
//!   (Section IV-B).
//! - [`algorithms`] — BFS (Algorithms 2–3), k-core decomposition
//!   (Algorithms 4–5), triangle counting (Algorithms 6–7), plus the
//!   connected-components and SSSP visitors of the paper's earlier
//!   shared-memory work \[4\], which the framework supports unchanged.
//! - [`rounds`] — the Section VI-D "parallel rounds" analysis model: an
//!   idealized round-synchronous executor for validating the asymptotic
//!   visitor bounds empirically.
//! - [`batch`] — the multi-source batching layer (MS-BFS style): up to 64
//!   concurrent queries multiplexed through one shared traversal via a
//!   per-visitor `active_mask`, plus the admission scheduler behind the
//!   query-serving bench (DESIGN.md §12).
//! - [`lifecycle`] — the query lifecycle control plane (DESIGN.md §15):
//!   deterministic deadlines, cooperative cut-consistent cancellation and
//!   a stall watchdog, driving the batched visitors level-synchronously
//!   so every query ends in a well-defined [`lifecycle::QueryOutcome`].

#![forbid(unsafe_code)]

pub mod algorithms;
pub mod batch;
pub mod checkpoint;
pub mod direction;
pub mod ghost;
pub mod lifecycle;
pub mod queue;
pub mod rounds;
pub mod visitor;

pub use checkpoint::CheckpointSpec;
pub use direction::{direction_bfs, DirBfsRun, Direction, DirectionMode};
pub use lifecycle::{
    bfs_batch_lifecycle, run_bfs_lifecycle, LifecycleBfsResult, QueryLifecycle, QueryOutcome,
};
pub use queue::{TraversalConfig, TraversalStats, VisitorQueue};
pub use visitor::{Role, Visitor};
