//! # havoq — a Rust reproduction of HavoqGT
//!
//! This is the facade crate for a from-scratch Rust reproduction of
//! *"Scaling Techniques for Massive Scale-Free Graphs in Distributed
//! (External) Memory"* (Pearce, Gokhale, Amato — IPDPS 2013), the system
//! later released by LLNL as **HavoqGT**.
//!
//! The workspace implements, as independent crates re-exported here:
//!
//! - [`comm`] — a simulated distributed runtime (ranks as threads) with
//!   non-blocking point-to-point transport, collectives, routed/aggregating
//!   mailboxes (2D and 3D synthetic topologies), and asynchronous
//!   quiescence detection.
//! - [`nvram`] — simulated NVRAM block devices plus the paper's user-space
//!   page cache, and typed external arrays for semi-external graph storage.
//! - [`graph`] — scale-free graph generators (Graph500 RMAT, preferential
//!   attachment, small-world), distributed edge-list sorting, 1D / 2D /
//!   edge-list partitioning, and CSR storage (in-memory or NVRAM-backed).
//! - [`core`] — the paper's primary contribution: the distributed
//!   asynchronous visitor queue with ghost vertices, and the BFS, k-core
//!   and triangle-counting algorithms built on it.
//!
//! ## Quickstart
//!
//! ```
//! use havoq::prelude::*;
//!
//! // Generate a small Graph500-style RMAT graph…
//! let edges = RmatGenerator::graph500(10).symmetric_edges(42);
//! // …partition it for 4 simulated ranks with the paper's edge-list
//! // partitioning, then run distributed BFS from vertex 0.
//! let result = CommWorld::run(4, |ctx| {
//!     let g = DistGraph::build_replicated(
//!         ctx, &edges, PartitionStrategy::EdgeList, GraphConfig::default());
//!     bfs(ctx, &g, VertexId(0), &BfsConfig::default())
//! });
//! assert!(result[0].visited_count > 0);
//! ```
//!
//! See `examples/` for larger scenarios, `examples/paper_rows.rs` for the
//! paper's figures as one table of counters, and `benchmark/` for the
//! timed Graph500 and serving workloads.

#![forbid(unsafe_code)]

pub use havoq_comm as comm;
pub use havoq_core as core;
pub use havoq_graph as graph;
pub use havoq_nvram as nvram;

pub mod testing;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use havoq_comm::{
        CommWorld, Event, EventCounts, Mailbox, MailboxConfig, Quiescence, RankCtx, TopologyKind,
    };
    pub use havoq_core::algorithms::bfs::{bfs, BfsConfig, BfsResult};
    pub use havoq_core::algorithms::cc::{connected_components, CcConfig, CcResult};
    pub use havoq_core::algorithms::kcore::{
        kcore, kcore_decomposition, KCoreConfig, KCoreDecomposition, KCoreResult,
    };
    pub use havoq_core::algorithms::sssp::{sssp, SsspConfig, SsspResult};
    pub use havoq_core::algorithms::triangle::{triangle_count, TriangleConfig, TriangleResult};
    pub use havoq_core::algorithms::validate::{validate_bfs, ValidationReport};
    pub use havoq_core::algorithms::wedge::{approx_clustering, WedgeSampleResult};
    pub use havoq_core::batch::{
        bfs_batch, reach_batch, AdmissionQueue, Arrival, BatchBfsResult, BatchConfig, BatchLedger,
        QueryBatch, ShedPolicy, MAX_BATCH,
    };
    pub use havoq_core::direction::{direction_bfs, DirBfsRun, Direction, DirectionMode};
    pub use havoq_core::lifecycle::{
        bfs_batch_lifecycle, run_bfs_lifecycle, LifecycleBfsResult, QueryLifecycle, QueryOutcome,
    };
    pub use havoq_core::queue::{TraversalConfig, TraversalStats};
    pub use havoq_graph::csr::{CsrStorage, GraphConfig};
    pub use havoq_graph::dist::{DistGraph, PartitionStrategy};
    pub use havoq_graph::gen::pa::PaGenerator;
    pub use havoq_graph::gen::rmat::RmatGenerator;
    pub use havoq_graph::gen::smallworld::SmallWorldGenerator;
    pub use havoq_graph::types::{Edge, VertexId};
    pub use havoq_nvram::cache::{PageCache, PageCacheConfig};
    pub use havoq_nvram::device::{DeviceProfile, SimNvram};
}
