//! Shared scaffolding for the acceptance sweeps (`tests/*_sweep.rs`).
//!
//! The fault, restart, parallel and batch sweeps all drive the same
//! experiment shape: build a seeded RMAT graph, run the whole algorithm
//! suite on `p` simulated ranks under some adversary, gather the
//! schedule-independent results into a canonical fingerprint, and compare
//! runs bit for bit. This module is that shape, written once.
//!
//! It lives in the `havoq` facade crate (not `havoq-util::testing`, which
//! hosts the storage-free seed/sweep drivers) because the suite runner
//! needs the whole stack — `havoq-graph` for the generator and partitions,
//! `havoq-core` for the algorithms — and `havoq-util` sits *below* both in
//! the dependency order.
//!
//! Fingerprint semantics (shared by every sweep): BFS/SSSP *parents* are
//! excluded — the first visitor to claim a vertex at its final level wins
//! the parent slot, so parents are schedule-dependent even on fault-free
//! runs. Parent correctness is checked structurally with `validate_bfs`
//! instead, which is exactly what the paper's validation visitors are for.

use havoq_comm::{Event, EventCounts, FaultConfig, RankCtx};
use havoq_core::algorithms::bfs::{bfs, BfsConfig};
use havoq_core::algorithms::cc::{connected_components, CcConfig};
use havoq_core::algorithms::kcore::{kcore, KCoreConfig};
use havoq_core::algorithms::sssp::{sssp, SsspConfig};
use havoq_core::algorithms::triangle::{triangle_count, TriangleConfig};
use havoq_core::algorithms::validate::validate_bfs;
use havoq_core::queue::{TraversalConfig, TraversalStats};
use havoq_core::CheckpointSpec;
use havoq_graph::csr::GraphConfig;
use havoq_graph::dist::{DistGraph, PartitionStrategy};
use havoq_graph::gen::rmat::RmatGenerator;
use havoq_graph::types::{Edge, VertexId};

/// The standard sweep graph: Graph500 RMAT at scale 7, seed 42,
/// symmetrized. Returns `(edges, num_vertices)`.
pub fn sweep_edges() -> (Vec<Edge>, u64) {
    let gen = RmatGenerator::graph500(7);
    (gen.symmetric_edges(42), gen.num_vertices())
}

/// The heavyweight sweep graph for the `--include-ignored` CI jobs:
/// scale 8, seed 1234.
pub fn heavy_sweep_edges() -> (Vec<Edge>, u64) {
    let gen = RmatGenerator::graph500(8);
    (gen.symmetric_edges(1234), gen.num_vertices())
}

/// Gather one `u64` of state per master vertex into canonical
/// (vertex-id) order. Collective.
pub fn gather_state(
    ctx: &RankCtx,
    g: &DistGraph,
    mut f: impl FnMut(usize) -> u64,
) -> Vec<(u64, u64)> {
    let local: Vec<(u64, u64)> = g
        .local_vertices()
        .filter(|&v| g.is_master(v))
        .map(|v| (v.0, f(g.local_index(v))))
        .collect();
    let mut all: Vec<(u64, u64)> = ctx.all_gather(local).into_iter().flatten().collect();
    all.sort_unstable();
    all
}

/// Global sent == received for one traversal: quiescence fired only after
/// every counted payload — including repair and post-restore replay
/// traffic — was delivered, and nothing was lost or double delivered.
pub fn assert_conserved(ctx: &RankCtx, what: &str, s: &TraversalStats) {
    let sent = ctx.all_reduce_sum(s.payload_sent);
    let recv = ctx.all_reduce_sum(s.payload_received);
    assert_eq!(sent, recv, "{what}: quiescence fired with {sent} sent != {recv} received");
}

/// Schedule-independent results of the whole algorithm suite, with vertex
/// state in canonical (vertex-id) order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub bfs_visited: u64,
    pub bfs_traversed_edges: u64,
    pub bfs_max_level: u64,
    pub bfs_levels: Vec<(u64, u64)>,
    pub cc_components: u64,
    pub cc_labels: Vec<(u64, u64)>,
    pub kcore_alive: u64,
    pub kcore_state: Vec<(u64, bool, u64)>,
    pub sssp_visited: u64,
    pub sssp_max_distance: u64,
    pub sssp_distances: Vec<(u64, u64)>,
    pub triangles: u64,
}

/// World totals over a suite's traversals: the whole event table
/// ([`Event::ALL`] — injected faults, integrity repair,
/// checkpoint/crash/restore) plus what the restart machinery reports
/// beside it.
#[derive(Clone, Debug, Default)]
pub struct FaultTotals {
    pub events: EventCounts,
    /// Committed epochs skipped at restore because their checksum failed.
    pub fallbacks: u64,
    /// Per-rank crash counts, so sweeps can prove every rank was a victim
    /// somewhere.
    pub crashes_by_rank: Vec<u64>,
}

impl FaultTotals {
    /// One vector all-reduce for every event counter, one gather for the
    /// two per-rank values.
    pub fn accumulate(&mut self, ctx: &RankCtx, s: &TraversalStats) {
        let per_rank = ctx.all_gather((s.events[Event::Crash], s.restore_epoch_fallbacks));
        self.merge(&FaultTotals {
            events: ctx.all_reduce_events(s.events),
            fallbacks: per_rank.iter().map(|r| r.1).sum(),
            crashes_by_rank: per_rank.iter().map(|r| r.0).collect(),
        });
    }

    pub fn merge(&mut self, o: &FaultTotals) {
        self.events += o.events;
        self.fallbacks += o.fallbacks;
        if self.crashes_by_rank.is_empty() {
            self.crashes_by_rank = o.crashes_by_rank.clone();
        } else {
            for (t, c) in self.crashes_by_rank.iter_mut().zip(&o.crashes_by_rank) {
                *t += c;
            }
        }
    }

    /// Injected faults plus the integrity layer's reactions to them — zero
    /// iff the run observed no fault events at all (the fault-free baseline
    /// must satisfy this; backpressure stalls and checkpoints are not
    /// fault events).
    pub fn total_events(&self) -> u64 {
        let e = &self.events;
        e.injected_faults() + e[Event::CorruptDetected] + e[Event::Nack] + e[Event::Retransmit]
    }
}

/// Knobs of one suite run; the default is the serial, uncheckpointed,
/// in-memory configuration every baseline uses.
#[derive(Clone, Copy, Debug, Default)]
pub struct SuiteOptions {
    /// Intra-rank worker threads (0 or 1 = the serial path).
    pub threads: usize,
    /// When set, every traversal checkpoints under this spec.
    pub checkpoint: Option<CheckpointSpec>,
    /// Graph storage override (`num_vertices` is filled in by the runner).
    pub storage: Option<GraphConfig>,
}

impl SuiteOptions {
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint = Some(CheckpointSpec::default().with_every(every));
        self
    }

    pub fn with_storage(mut self, storage: GraphConfig) -> Self {
        self.storage = Some(storage);
        self
    }
}

/// Everything one suite run yields: the canonical fingerprint and the
/// world totals (zeros where the adversary or the checkpoint layer was
/// off).
#[derive(Clone, Debug)]
pub struct SuiteOutcome {
    pub fingerprint: Fingerprint,
    pub faults: FaultTotals,
}

/// Run the full algorithm suite (BFS + CC + k-core + SSSP + triangle) on
/// `p` ranks under `faults` with the given options. Panics if BFS
/// validation or payload conservation fails on any traversal, if ranks
/// disagree on the gathered fingerprint, or if the restore count does not
/// match the crash count (serial runs: exactly `crashes × p` — every crash
/// event rewinds the whole world once; parallel runs are held to `≥`, as
/// in the pre-existing parallel belt).
pub fn run_suite(
    p: usize,
    edges: &[Edge],
    n: u64,
    faults: Option<FaultConfig>,
    opts: SuiteOptions,
) -> SuiteOutcome {
    let traversal = TraversalConfig::default().with_threads(opts.threads.max(1));
    let spec = opts.checkpoint;
    let storage = opts.storage.unwrap_or_default().with_num_vertices(n);
    let mut out = havoq_comm::CommWorld::run_with_faults(p, faults, |ctx| {
        let g = DistGraph::build_replicated(ctx, edges, PartitionStrategy::EdgeList, storage);
        let mut faults = FaultTotals::default();
        let mut track = |ctx: &RankCtx, what: &str, s: &TraversalStats| {
            assert_conserved(ctx, what, s);
            faults.accumulate(ctx, s);
        };

        let b = bfs(ctx, &g, VertexId(0), &BfsConfig { traversal, checkpoint: spec });
        track(ctx, "bfs", &b.stats);
        let report = validate_bfs(ctx, &g, VertexId(0), &b.local_state);
        assert!(report.is_valid(), "bfs parents/levels invalid: {report:?}");

        let c = connected_components(ctx, &g, &CcConfig { traversal, checkpoint: spec });
        track(ctx, "cc", &c.stats);

        let k = kcore(ctx, &g, 3, &KCoreConfig { traversal, checkpoint: spec });
        track(ctx, "kcore", &k.stats);

        let s = sssp(
            ctx,
            &g,
            VertexId(0),
            &SsspConfig { traversal, checkpoint: spec, ..Default::default() },
        );
        track(ctx, "sssp", &s.stats);

        let t = triangle_count(ctx, &g, &TriangleConfig { traversal, checkpoint: spec });
        track(ctx, "triangle", &t.stats);

        let fingerprint = Fingerprint {
            bfs_visited: b.visited_count,
            bfs_traversed_edges: b.traversed_edges,
            bfs_max_level: b.max_level,
            bfs_levels: gather_state(ctx, &g, |li| b.local_state[li].length),
            cc_components: c.num_components,
            cc_labels: gather_state(ctx, &g, |li| c.local_state[li].component),
            kcore_alive: k.alive_count,
            kcore_state: {
                let alive = gather_state(ctx, &g, |li| k.local_state[li].alive as u64);
                let budget = gather_state(ctx, &g, |li| k.local_state[li].kcore);
                alive.into_iter().zip(budget).map(|((v, a), (_, b))| (v, a == 1, b)).collect()
            },
            sssp_visited: s.visited_count,
            sssp_max_distance: s.max_distance,
            sssp_distances: gather_state(ctx, &g, |li| s.local_state[li].distance),
            triangles: t.triangles,
        };
        SuiteOutcome { fingerprint, faults }
    });
    // all ranks computed the same world-gathered fingerprint; the totals
    // are world sums (all_reduce), identical on every rank
    let first = out.remove(0);
    for o in &out {
        assert_eq!(o.fingerprint, first.fingerprint, "ranks disagree on the gathered fingerprint");
    }
    let (crashes, restores) =
        (first.faults.events[Event::Crash], first.faults.events[Event::Restore]);
    if opts.threads <= 1 {
        assert_eq!(restores, crashes * p as u64, "restores must be one per rank per crash event");
    } else {
        assert!(restores >= crashes, "every crash must trigger a world-wide restore");
    }
    first
}
