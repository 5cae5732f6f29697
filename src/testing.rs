//! The test matrix: every equivalence sweep of the acceptance suite, as
//! data.
//!
//! Every traversal on the asynchronous visitor queue is a monotone
//! fixpoint, so its answer must not depend on ranks, threads, storage,
//! message faults or crash/restore. This module states that claim as one
//! table:
//!
//! - A [`Cell`] is one run: `(engine, graph, p, threads, storage, plan,
//!   checkpoint_every)`. [`run`] runs it and asserts what every run must
//!   satisfy: payload conservation per traversal, `validate_bfs` per BFS
//!   query, the batch ledger invariant, ranks agreeing on the gathered
//!   fingerprint, `restores == crashes × p` on serial runs (`≥` on the
//!   worker pool), and silence on fault-free runs.
//! - A [`Row`] is a union of cartesian [`Grid`]s of cells. Each cell is
//!   compared, through the row's [`Compare`] projection, with a reference
//!   cell: the same cell fault-free, serial, in memory and uncheckpointed,
//!   optionally on another engine or rank count. The row's [`Check`]s then
//!   prove coverage over the cells' summed [`FaultTotals`]: the adversary
//!   fired every fault type, every rank was a crash victim, and so on.
//! - [`ROWS`] is the table. Each row runs from the `#[test]` of the same
//!   name in `tests/<group>_sweep.rs` or `tests/golden_results.rs`, whose
//!   module docs say what its rows prove. [`HOLES`] lists the (engine,
//!   axis value) pairs the table does not run, and why.
//!
//! Fingerprints exclude the asynchronous engines' BFS/SSSP parents: the
//! first visitor to claim a vertex at its final level wins the parent
//! slot, so those parents are schedule-dependent even on fault-free runs.
//! They are checked structurally with `validate_bfs` instead. The
//! direction engine's `(length, parent)` reduction makes its parents
//! deterministic, so they are compared.
//!
//! A failing row prints the failing cell. Reproduce it alone:
//!
//! ```no_run
//! use havoq::testing::{run, Cell, Engine, Graph, Plan, Storage};
//! let cell = Cell {
//!     engine: Engine::Suite,
//!     graph: Graph::Sweep,
//!     p: 4,
//!     threads: 1,
//!     storage: Storage::Mem,
//!     plan: Plan::Chaos(0xF_A017_5EED),
//!     checkpoint_every: None,
//! };
//! run(&cell);
//! ```

use havoq_comm::{CommWorld, Event, EventCounts, FaultConfig, RankCtx};
use havoq_core::algorithms::bfs::{bfs, BfsConfig, BfsData, UNREACHED};
use havoq_core::algorithms::cc::{connected_components, CcConfig};
use havoq_core::algorithms::kcore::{kcore, KCoreConfig};
use havoq_core::algorithms::sssp::{sssp, SsspConfig};
use havoq_core::algorithms::triangle::{triangle_count, TriangleConfig};
use havoq_core::algorithms::validate::validate_bfs;
use havoq_core::batch::{bfs_batch, reach_batch, BatchConfig};
use havoq_core::direction::{direction_bfs, DirectionMode};
use havoq_core::lifecycle::{run_bfs_lifecycle, QueryLifecycle, QueryOutcome};
use havoq_core::queue::{TraversalConfig, TraversalStats};
use havoq_core::CheckpointSpec;
use havoq_graph::csr::GraphConfig;
use havoq_graph::dist::{DistGraph, PartitionStrategy};
use havoq_graph::gen::rmat::RmatGenerator;
use havoq_graph::types::{Edge, VertexId};
use havoq_nvram::cache::PageCacheConfig;
use havoq_nvram::device::DeviceProfile;
use havoq_util::testing::sweep_seed_set;

// ---- axes ----------------------------------------------------------------

/// What a cell runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// BFS, CC, k-core (at each of the graph's `k`), SSSP and triangle
    /// counting, one after the other on one graph.
    Suite,
    /// Plain asynchronous `bfs` from each of the first `len` vertices: the
    /// serial reference of the batched engines.
    Bfs { len: usize },
    /// `direction_bfs` under one direction mode.
    Direction(DirectionMode),
    /// `bfs_batch` at state width `width` with the first `len` vertices as
    /// sources.
    Batch { width: usize, len: usize },
    /// `reach_batch` from the first `len` vertices.
    Reach { len: usize },
    /// `bfs_batch_lifecycle` from the first 8 vertices under one scenario.
    Lifecycle(Scenario),
}

impl Engine {
    fn queries(self) -> usize {
        match self {
            Engine::Suite | Engine::Direction(_) => 1,
            Engine::Bfs { len } | Engine::Batch { len, .. } | Engine::Reach { len } => len,
            Engine::Lifecycle(_) => 8,
        }
    }
}

/// The three direction modes.
pub const MODES: [Engine; 3] = [
    Engine::Direction(DirectionMode::TopDown),
    Engine::Direction(DirectionMode::BottomUp),
    Engine::Direction(DirectionMode::Auto),
];

/// Batch widths: K = 2 and 8 run exactly-full batches, K = 64 runs 24 of
/// its 64 slots.
pub const WIDTHS: [Engine; 3] = [
    Engine::Batch { width: 2, len: 2 },
    Engine::Batch { width: 8, len: 8 },
    Engine::Batch { width: 64, len: 24 },
];

/// One lifecycle scenario: budgets plus a cancel schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    Unbudgeted,
    /// At most 3 rounds.
    RoundBudget,
    /// At most 400 pushed edges per query.
    EdgeBudget,
    /// Cancel query 1 at round 1 and query 3 at round 0.
    Cancel,
    /// 4 rounds, 900 edges, and a cancel of query 2 at round 1.
    Mixed,
}

/// Every lifecycle scenario.
pub const SCENARIOS: [Engine; 5] = [
    Engine::Lifecycle(Scenario::Unbudgeted),
    Engine::Lifecycle(Scenario::RoundBudget),
    Engine::Lifecycle(Scenario::EdgeBudget),
    Engine::Lifecycle(Scenario::Cancel),
    Engine::Lifecycle(Scenario::Mixed),
];

impl Scenario {
    fn config(self, cfg: BatchConfig) -> BatchConfig {
        match self {
            Scenario::Unbudgeted | Scenario::Cancel => cfg,
            Scenario::RoundBudget => cfg.with_max_rounds(3),
            Scenario::EdgeBudget => cfg.with_max_inspected(400),
            Scenario::Mixed => cfg.with_max_rounds(4).with_max_inspected(900),
        }
    }

    fn cancels(self) -> &'static [(usize, u64)] {
        match self {
            Scenario::Cancel => &[(1, 1), (3, 0)],
            Scenario::Mixed => &[(2, 1)],
            _ => &[],
        }
    }

    /// The outcome classes a run that did not abort may produce.
    fn allows(self, o: QueryOutcome) -> bool {
        match self {
            Scenario::Unbudgeted => o == QueryOutcome::Complete,
            Scenario::Cancel => matches!(o, QueryOutcome::Complete | QueryOutcome::Cancelled),
            _ => o != QueryOutcome::Aborted,
        }
    }
}

/// The graphs cells run on. Each carries its source and its k-core `k`
/// list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Graph {
    /// Graph500 RMAT at scale 7, seed 42, symmetrized.
    Sweep,
    /// Graph500 RMAT at scale 8, seed 1234: the heavy rows' graph.
    Heavy,
    /// Graph500 RMAT at scale 4, seed 7: 16 vertices.
    Tiny,
    /// The path 0–1–…–7.
    Path8,
}

impl Graph {
    /// `(edges, num_vertices)`.
    pub fn edges(self) -> (Vec<Edge>, u64) {
        let rmat = |scale, seed| {
            let gen = RmatGenerator::graph500(scale);
            (gen.symmetric_edges(seed), gen.num_vertices())
        };
        match self {
            Graph::Sweep => rmat(7, 42),
            Graph::Heavy => rmat(8, 1234),
            Graph::Tiny => rmat(4, 7),
            Graph::Path8 => {
                ((0..7).flat_map(|v| [Edge::new(v, v + 1), Edge::new(v + 1, v)]).collect(), 8)
            }
        }
    }

    /// Source of the single-source engines (`Suite`, `Direction`).
    pub fn source(self) -> VertexId {
        VertexId(0)
    }

    /// The `k` values the suite's k-core runs at.
    pub fn kcore_ks(self) -> &'static [u64] {
        match self {
            Graph::Sweep | Graph::Heavy => &[3],
            Graph::Tiny => &[1, 2, 3],
            Graph::Path8 => &[1, 2],
        }
    }
}

/// CSR storage backends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storage {
    Mem,
    /// Raw targets behind the page cache of [`sweep_cache`].
    Ext,
    /// Varint gap-compressed targets behind the same cache.
    ExtComp,
}

impl Storage {
    pub fn config(self) -> GraphConfig {
        match self {
            Storage::Mem => GraphConfig::default(),
            Storage::Ext => GraphConfig::external(DeviceProfile::dram(), sweep_cache()),
            Storage::ExtComp => {
                GraphConfig::external_compressed(DeviceProfile::dram(), sweep_cache())
            }
        }
    }
}

/// Cache budget of the external backends: small enough that the sweep
/// graph's raw targets spill (real paging on `Ext`), large enough to keep
/// the sweeps fast.
pub fn sweep_cache() -> PageCacheConfig {
    PageCacheConfig { page_size: 512, capacity_pages: 16, shards: 2, ..PageCacheConfig::default() }
}

/// The single-knob plans, by name: each fault type alone, so a bug a
/// combined plan could mask still shows.
pub const KNOBS: [&str; 8] =
    ["delay", "reorder", "duplicate", "stall", "slow-rank", "corrupt", "drop", "corrupt+drop"];

/// One fault plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    Free,
    /// `FaultConfig::chaos`: delay, reorder, duplicate, stall, slow rank.
    Chaos(u64),
    /// `FaultConfig::lossy`: chaos plus frame corruption and loss.
    Lossy(u64),
    /// One of [`KNOBS`] alone.
    Knob(&'static str),
    /// `victim` dies once while writing checkpoint `epoch`.
    Crash {
        victim: usize,
        epoch: u64,
    },
    /// Chaos plus seeded crashes at `permille` per checkpoint epoch.
    ChaosCrash(u64, u16),
    /// Rank 0's committed epoch-2 blob is bit-flipped in place, then the
    /// last rank crashes while cutting epoch 2: restore must skip the
    /// corrupted epoch exactly once.
    CorruptEpoch,
    /// `victim`'s receive side wedges forever after two arrivals.
    HardStall(usize),
}

impl Plan {
    /// The fault config of this plan on `p` ranks. Plans whose rates are
    /// all zero (crash, corrupt epoch, hard stall) never read their seed.
    pub fn faults(self, p: usize) -> Option<FaultConfig> {
        let quiet = FaultConfig::quiet(11);
        Some(match self {
            Plan::Free => return None,
            Plan::Chaos(seed) => FaultConfig::chaos(seed),
            Plan::Lossy(seed) => FaultConfig::lossy(seed),
            Plan::Knob(name) => {
                let q = FaultConfig::quiet(7);
                match name {
                    "delay" => q.with_delay(400, 16),
                    "reorder" => q.with_reorder(400, 8),
                    "duplicate" => q.with_duplicate(300),
                    "stall" => q.with_stall(60, 40),
                    "slow-rank" => q.with_slow_ranks(600, 3),
                    "corrupt" => q.with_corrupt(60),
                    "drop" => q.with_drop(60),
                    "corrupt+drop" => q.with_corrupt(40).with_drop(40),
                    other => panic!("no single-knob plan named {other}"),
                }
            }
            Plan::Crash { victim, epoch } => quiet.with_forced_crash(victim, epoch),
            Plan::ChaosCrash(seed, permille) => FaultConfig::chaos(seed).with_crash(permille),
            Plan::CorruptEpoch => quiet.with_forced_crash(p - 1, 2),
            Plan::HardStall(victim) => quiet.with_hard_stall(victim, 2),
        })
    }
}

/// A plan axis value: a family of plans, expanded per rank count.
#[derive(Clone, Copy, Debug)]
pub enum Plans {
    Free,
    /// Chaos under the first `n` seeds of the fixed sweep seed set.
    Chaos(u64),
    /// Lossy under the first `n` seeds.
    Lossy(u64),
    /// Chaos plus crashes at the given rate, under the first `n` seeds.
    ChaosCrash(u64, u16),
    /// Every plan of [`KNOBS`].
    Knobs,
    /// Every victim rank × checkpoint epochs `1..=n`.
    CrashGrid(u64),
    CorruptEpoch,
    /// Every victim rank.
    HardStall,
}

impl Plans {
    fn expand(self, p: usize) -> Vec<Plan> {
        let seeds = |n| sweep_seed_set(n).into_iter();
        match self {
            Plans::Free => vec![Plan::Free],
            Plans::Chaos(n) => seeds(n).map(Plan::Chaos).collect(),
            Plans::Lossy(n) => seeds(n).map(Plan::Lossy).collect(),
            Plans::ChaosCrash(n, rate) => seeds(n).map(|s| Plan::ChaosCrash(s, rate)).collect(),
            Plans::Knobs => KNOBS.into_iter().map(Plan::Knob).collect(),
            Plans::CrashGrid(epochs) => (0..p)
                .flat_map(|victim| (1..=epochs).map(move |epoch| Plan::Crash { victim, epoch }))
                .collect(),
            Plans::CorruptEpoch => vec![Plan::CorruptEpoch],
            Plans::HardStall => (0..p).map(Plan::HardStall).collect(),
        }
    }
}

/// One run of the matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cell {
    pub engine: Engine,
    pub graph: Graph,
    pub p: usize,
    /// Intra-rank worker threads (1 = the serial path).
    pub threads: usize,
    pub storage: Storage,
    pub plan: Plan,
    /// When set, every traversal checkpoints every this many cuts.
    pub checkpoint_every: Option<u64>,
}

/// A cartesian product of axis values.
#[derive(Clone, Copy, Debug)]
pub struct Grid {
    pub engines: &'static [Engine],
    pub graphs: &'static [Graph],
    pub ps: &'static [usize],
    pub threads: &'static [usize],
    pub storages: &'static [Storage],
    pub plans: &'static [Plans],
    pub checkpoint_every: Option<u64>,
}

impl Grid {
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for &engine in self.engines {
            for &graph in self.graphs {
                for &p in self.ps {
                    for &threads in self.threads {
                        for &storage in self.storages {
                            for plan in self.plans.iter().flat_map(|plans| plans.expand(p)) {
                                let checkpoint_every = self.checkpoint_every;
                                let base = cell(engine, graph, p);
                                out.push(Cell { threads, storage, plan, checkpoint_every, ..base });
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

// ---- the runner ----------------------------------------------------------

/// Per-query `(visited, traversed edges, max level, levels)`, levels in
/// canonical vertex order.
pub type QueryFp = (u64, u64, u64, Vec<(u64, u64)>);

/// One k-core run: alive count and `(vertex, alive, residual degree)`.
pub type CoreFp = (u64, Vec<(u64, bool, u64)>);

/// Schedule-independent results of the five-algorithm suite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuiteFp {
    pub bfs_visited: u64,
    pub bfs_traversed_edges: u64,
    pub bfs_max_level: u64,
    pub bfs_levels: Vec<(u64, u64)>,
    pub cc_components: u64,
    pub cc_labels: Vec<(u64, u64)>,
    /// One per `k` of the graph.
    pub kcore: Vec<CoreFp>,
    pub sssp_visited: u64,
    pub sssp_max_distance: u64,
    pub sssp_distances: Vec<(u64, u64)>,
    pub triangles: u64,
}

/// One direction-engine run. Edge-inspection counts and the per-level
/// schedule are functions of the graph and the mode, so they are compared
/// too.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirFp {
    pub levels: Vec<(u64, u64)>,
    pub parents: Vec<(u64, u64)>,
    pub visited: u64,
    pub traversed: u64,
    pub max_level: u64,
    pub edges_inspected: u64,
    /// Per-level direction labels, e.g. `["top", "bottom", "top"]`.
    pub schedule: Vec<&'static str>,
}

/// The schedule-independent result of one cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fingerprint {
    Suite(SuiteFp),
    Direction(DirFp),
    /// `Bfs` and `Batch`.
    Queries(Vec<QueryFp>),
    /// Per-query reached counts and the gathered reach masks.
    Reach(Vec<u64>, Vec<(u64, u64)>),
    /// Per-query records, and whether the watchdog aborted the run.
    Lifecycle(Vec<QueryLifecycle>, bool),
}

/// World totals over a cell's traversals: the whole event table
/// ([`Event::ALL`]) plus what the restart machinery reports beside it.
#[derive(Clone, Debug, Default)]
pub struct FaultTotals {
    pub events: EventCounts,
    /// Committed epochs skipped at restore because their checksum failed.
    pub fallbacks: u64,
    /// Per-rank crash counts, so rows can prove every rank was a victim.
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

    /// Injected faults plus the integrity layer's reactions to them: zero
    /// iff the run observed no fault event at all (backpressure stalls and
    /// checkpoints are not fault events).
    pub fn total_events(&self) -> u64 {
        let e = &self.events;
        e.injected_faults() + e[Event::CorruptDetected] + e[Event::Nack] + e[Event::Retransmit]
    }
}

/// What one cell yields.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub fingerprint: Fingerprint,
    pub faults: FaultTotals,
}

/// Gather one `u64` of state per master vertex into canonical (vertex-id)
/// order. Collective.
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
/// every counted payload, repair and post-restore replay traffic
/// included, was delivered exactly once.
fn assert_conserved(ctx: &RankCtx, what: &str, s: &TraversalStats) {
    let sent = ctx.all_reduce_sum(s.payload_sent);
    let recv = ctx.all_reduce_sum(s.payload_received);
    assert_eq!(sent, recv, "{what}: quiescence fired with {sent} sent != {recv} received");
}

/// Run one cell on its graph. Panics on a broken invariant (see the
/// module docs).
pub fn run(cell: &Cell) -> Outcome {
    let (edges, n) = cell.graph.edges();
    run_on(cell, &edges, n)
}

/// [`run`] on an explicit edge list in place of the cell's graph (whose
/// source and `k` list still apply): for property tests over random
/// graphs.
pub fn run_on(cell: &Cell, edges: &[Edge], n: u64) -> Outcome {
    let storage = cell.storage.config().with_num_vertices(n);
    let mut out = CommWorld::run_with_faults(cell.p, cell.plan.faults(cell.p), |ctx| {
        let g = DistGraph::build_replicated(ctx, edges, PartitionStrategy::EdgeList, storage);
        let mut w = RankRun { ctx, g: &g, cell, faults: FaultTotals::default() };
        let fingerprint = w.engine();
        Outcome { fingerprint, faults: w.faults }
    });
    let first = out.remove(0);
    for o in &out {
        assert_eq!(o.fingerprint, first.fingerprint, "{cell:?}: ranks disagree");
    }
    let e = &first.faults.events;
    let (crashes, restores) = (e[Event::Crash], e[Event::Restore]);
    if cell.threads <= 1 {
        assert_eq!(restores, crashes * cell.p as u64, "{cell:?}: one restore per rank per crash");
    } else {
        assert!(restores >= crashes, "{cell:?}: every crash must trigger a world-wide restore");
    }
    if cell.plan == Plan::Free {
        let noise = first.faults.total_events() + crashes + restores;
        assert_eq!(noise, 0, "{cell:?}: a fault-free run observed fault events: {e:?}");
    }
    if cell.checkpoint_every.is_none() {
        assert_eq!(e[Event::Checkpoint], 0, "{cell:?}: an uncheckpointed run checkpointed");
    }
    first
}

/// One rank's side of a cell.
struct RankRun<'a> {
    ctx: &'a RankCtx,
    g: &'a DistGraph,
    cell: &'a Cell,
    faults: FaultTotals,
}

impl RankRun<'_> {
    fn track(&mut self, what: &str, s: &TraversalStats) {
        assert_conserved(self.ctx, what, s);
        self.faults.accumulate(self.ctx, s);
    }

    fn gather(&self, f: impl FnMut(usize) -> u64) -> Vec<(u64, u64)> {
        gather_state(self.ctx, self.g, f)
    }

    fn validate(&self, source: VertexId, state: &[BfsData]) {
        let report = validate_bfs(self.ctx, self.g, source, state);
        assert!(report.is_valid(), "{:?}: BFS from {source:?} invalid: {report:?}", self.cell);
    }

    fn engine(&mut self) -> Fingerprint {
        let c = *self.cell;
        let traversal = TraversalConfig::default().with_threads(c.threads.max(1));
        let checkpoint = c.checkpoint_every.map(|every| {
            let spec = CheckpointSpec::default().with_every(every);
            match c.plan {
                Plan::CorruptEpoch => spec.with_corrupt_committed(0, 2),
                _ => spec,
            }
        });
        let bcfg = BfsConfig { traversal, checkpoint, ..BfsConfig::default() };
        let batch = BatchConfig { traversal, checkpoint, ..BatchConfig::default() };
        let sources: Vec<VertexId> = (0..c.engine.queries() as u64).map(VertexId).collect();
        match c.engine {
            Engine::Suite => Fingerprint::Suite(self.suite(bcfg)),
            Engine::Bfs { .. } => Fingerprint::Queries(
                sources
                    .iter()
                    .map(|&s| {
                        let r = bfs(self.ctx, self.g, s, &bcfg);
                        self.track("bfs", &r.stats);
                        self.validate(s, &r.local_state);
                        let levels = self.gather(|li| r.local_state[li].length);
                        (r.visited_count, r.traversed_edges, r.max_level, levels)
                    })
                    .collect(),
            ),
            Engine::Direction(mode) => {
                let source = c.graph.source();
                let run = direction_bfs(self.ctx, self.g, source, &bcfg.with_direction(mode));
                self.track("direction bfs", &run.result.stats);
                self.validate(source, &run.result.local_state);
                Fingerprint::Direction(DirFp {
                    levels: self.gather(|li| run.result.local_state[li].length),
                    parents: self.gather(|li| run.result.local_state[li].parent),
                    visited: run.result.visited_count,
                    traversed: run.result.traversed_edges,
                    max_level: run.result.max_level,
                    edges_inspected: run.edges_inspected,
                    schedule: run.trace.iter().map(|t| t.dir.label()).collect(),
                })
            }
            Engine::Batch { width, len } => {
                let (ctx, g) = (self.ctx, self.g);
                let res = match width {
                    2 => bfs_batch::<2>(ctx, g, &sources, &batch),
                    8 => bfs_batch::<8>(ctx, g, &sources, &batch),
                    64 => bfs_batch::<64>(ctx, g, &sources, &batch),
                    w => panic!("batch width {w} is not a matrix axis value"),
                };
                self.track("batched bfs", &res.stats);
                let ledger = res.ledger.check(len);
                ledger.unwrap_or_else(|e| panic!("{c:?}: ledger invariant broke: {e}"));
                Fingerprint::Queries(
                    sources
                        .iter()
                        .enumerate()
                        .map(|(qi, &s)| {
                            self.validate(s, &res.local_state[qi]);
                            let a = res.per_query[qi];
                            let levels = self.gather(|li| res.local_state[qi][li].length);
                            (a.visited_count, a.traversed_edges, a.max_level, levels)
                        })
                        .collect(),
                )
            }
            Engine::Reach { .. } => {
                let res = reach_batch(self.ctx, self.g, &sources, &batch);
                self.track("batched reach", &res.stats);
                Fingerprint::Reach(
                    res.reached_counts.clone(),
                    self.gather(|li| res.local_masks[li]),
                )
            }
            Engine::Lifecycle(sc) => {
                let mut cfg = sc.config(batch);
                if let Plan::HardStall(_) = c.plan {
                    // the plan is otherwise clean: no transient imbalance
                    // exists for a patient watchdog to tolerate
                    cfg = cfg.with_watchdog(256);
                }
                let r = run_bfs_lifecycle(self.ctx, self.g, &sources, &cfg, sc.cancels());
                let stalled = matches!(c.plan, Plan::HardStall(_));
                assert_eq!(r.aborted, stalled, "{c:?}: only a hard stall may abort, and it must");
                assert_eq!(r.stats.events[Event::Abort], u64::from(r.aborted), "{c:?}");
                assert!(!r.stats.elapsed.is_zero(), "{c:?}: the rounds were never timed");
                if r.aborted {
                    self.faults.accumulate(self.ctx, &r.stats);
                    assert!(
                        r.queries.iter().any(|q| q.outcome == QueryOutcome::Aborted),
                        "{c:?}: a wedged traversal must abandon something"
                    );
                } else {
                    self.track("lifecycle", &r.stats);
                }
                for (qi, q) in r.queries.iter().enumerate() {
                    let allowed = match r.aborted {
                        true => matches!(q.outcome, QueryOutcome::Aborted | QueryOutcome::Complete),
                        false => sc.allows(q.outcome) && q.visited_count >= 1,
                    };
                    assert!(allowed, "{c:?}: query {qi} ended as {q:?}");
                    if q.outcome == QueryOutcome::Complete {
                        assert!(q.executed_global >= q.visited_count, "{c:?}: query {qi}");
                    }
                }
                Fingerprint::Lifecycle(r.queries, r.aborted)
            }
        }
    }

    fn suite(&mut self, bcfg: BfsConfig) -> SuiteFp {
        let (ctx, g, graph) = (self.ctx, self.g, self.cell.graph);
        let BfsConfig { traversal, checkpoint, .. } = bcfg;
        let source = graph.source();
        let b = bfs(ctx, g, source, &bcfg);
        self.track("bfs", &b.stats);
        self.validate(source, &b.local_state);

        let c = connected_components(ctx, g, &CcConfig { traversal, checkpoint });
        self.track("cc", &c.stats);

        let kcfg = KCoreConfig { traversal, checkpoint };
        let mut cores = Vec::new();
        for &k in graph.kcore_ks() {
            let r = kcore(ctx, g, k, &kcfg);
            self.track("kcore", &r.stats);
            let alive = self.gather(|li| r.local_state[li].alive as u64);
            let residual = self.gather(|li| r.local_state[li].kcore);
            let state = alive.into_iter().zip(residual).map(|((v, a), (_, k))| (v, a == 1, k));
            cores.push((r.alive_count, state.collect()));
        }

        let scfg = SsspConfig { traversal, checkpoint, ..Default::default() };
        let s = sssp(ctx, g, source, &scfg);
        self.track("sssp", &s.stats);

        let t = triangle_count(ctx, g, &TriangleConfig { traversal, checkpoint });
        self.track("triangle", &t.stats);

        SuiteFp {
            bfs_visited: b.visited_count,
            bfs_traversed_edges: b.traversed_edges,
            bfs_max_level: b.max_level,
            bfs_levels: self.gather(|li| b.local_state[li].length),
            cc_components: c.num_components,
            cc_labels: self.gather(|li| c.local_state[li].component),
            kcore: cores,
            sssp_visited: s.visited_count,
            sssp_max_distance: s.max_distance,
            sssp_distances: self.gather(|li| s.local_state[li].distance),
            triangles: t.triangles,
        }
    }
}

// ---- rows ----------------------------------------------------------------

/// Which engine a row's reference cell runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Against {
    /// The cell's own engine.
    Same,
    /// `Engine::Bfs` over the cell's sources: the single-source reference.
    SerialBfs,
    /// A fixed engine.
    Engine(Engine),
}

/// How a cell's fingerprint is held against its reference's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compare {
    /// No reference: the checks and the runner's own asserts are the row.
    None,
    /// Bit-identical fingerprints.
    Equal,
    /// BFS levels, visited count, traversed edges and depth of the first
    /// query.
    Levels,
    /// Per-query visited count, traversed edges and depth.
    Aggregates,
    /// Per-query reached counts and reach masks (a BFS reaches a vertex
    /// iff its level is not `UNREACHED`).
    Reach,
}

impl Compare {
    /// The part of `fp` this comparison looks at.
    pub fn project(self, fp: &Fingerprint) -> Fingerprint {
        use Fingerprint as F;
        let levels = |visited, traversed, depth, levels: &Vec<_>| {
            F::Queries(vec![(visited, traversed, depth, levels.clone())])
        };
        match (self, fp) {
            (Compare::None | Compare::Equal, _) | (Compare::Reach, F::Reach(..)) => fp.clone(),
            (Compare::Levels, F::Direction(d)) => {
                levels(d.visited, d.traversed, d.max_level, &d.levels)
            }
            (Compare::Levels, F::Queries(q)) => levels(q[0].0, q[0].1, q[0].2, &q[0].3),
            (Compare::Aggregates, F::Queries(q)) => {
                F::Queries(q.iter().map(|&(v, t, d, _)| (v, t, d, Vec::new())).collect())
            }
            (Compare::Aggregates, F::Lifecycle(qs, _)) => F::Queries(
                qs.iter()
                    .map(|q| (q.visited_count, q.traversed_edges, q.max_level, Vec::new()))
                    .collect(),
            ),
            (Compare::Reach, F::Queries(q)) => {
                let masks = (0..q[0].3.len()).map(|i| {
                    let reached =
                        q.iter().enumerate().map(|(qi, x)| u64::from(x.3[i].1 != UNREACHED) << qi);
                    (q[0].3[i].0, reached.fold(0, |m, b| m | b))
                });
                F::Reach(q.iter().map(|x| x.0).collect(), masks.collect())
            }
            _ => panic!("{self:?} has no projection of {fp:?}"),
        }
    }
}

/// A coverage assertion over a row's outcomes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// Every chaos fault type fired somewhere in the row, and dedup drops
    /// never outnumber duplicates.
    ChaosFired,
    /// Per cell: every injected bit flip was caught by the frame CRC.
    CrcCaught,
    /// Per rank count: at p = 1 (loopback only) no wire fault fired; above,
    /// corruption, loss, NACK and retransmit all did.
    LossRepaired,
    /// Some fault event fired in the row.
    Perturbed,
    /// Checkpoints were written, every rank was a crash victim, and no torn
    /// epoch was counted as a checksum fallback.
    EveryRankCrashed,
    /// Some cell crashed.
    Crashed,
    /// Every cell crashed.
    EveryCellCrashed,
    /// Every cell checkpointed.
    EveryCellCheckpointed,
    /// Per cell: one crash and one checksum fallback.
    OneFallback,
    /// Forced top-down stays top-down; auto goes bottom-up and inspects at
    /// most a third of the edges top-down inspects in the same cell (11.4x
    /// fewer on the sweep graph).
    AutoPays,
    /// Direction parents agree across modes and threads at each p.
    ParentsAgree,
    /// Lifecycle records minus `executed_global` (which counts per-copy
    /// claims, so it scales with replication) agree across every cell of
    /// a scenario, rank counts included.
    SameView,
    /// The cancel scenario really cancelled a query.
    Cancelled,
}

impl Check {
    fn assert(self, results: &[(Cell, Outcome)]) {
        let sum = |keep: &dyn Fn(&Cell) -> bool| {
            let mut t = FaultTotals::default();
            results.iter().filter(|(c, _)| keep(c)).for_each(|(_, o)| t.merge(&o.faults));
            t
        };
        let all = sum(&|_| true);
        let e = all.events;
        let per_cell = |f: &dyn Fn(&Cell, &FaultTotals) -> bool| {
            for (c, o) in results {
                assert!(f(c, &o.faults), "{self:?} failed on {c:?}: {:?}", o.faults);
            }
        };
        let dirs = || {
            results.iter().filter_map(|(c, o)| match &o.fingerprint {
                Fingerprint::Direction(d) => Some((c, d)),
                _ => None,
            })
        };
        match self {
            Check::ChaosFired => {
                use Event::*;
                for ev in
                    [FaultDelay, FaultReorder, FaultDup, FaultDedup, FaultStall, FaultThrottle]
                {
                    assert!(e[ev] > 0, "the row never fired {ev:?}: {e:?}");
                }
                // a duplicate still in flight when quiescence (correctly)
                // fires is discarded with the world, so drops may trail
                assert!(e[FaultDedup] <= e[FaultDup], "more dedup drops than duplicates: {e:?}");
            }
            Check::CrcCaught => {
                per_cell(&|_, t| t.events[Event::FaultCorrupt] == t.events[Event::CorruptDetected])
            }
            Check::LossRepaired => {
                for p in results.iter().map(|(c, _)| c.p).collect::<std::collections::BTreeSet<_>>()
                {
                    let t = sum(&|c| c.p == p).events;
                    let wire =
                        [Event::FaultCorrupt, Event::FaultDrop, Event::Nack, Event::Retransmit];
                    if p == 1 {
                        let faults = t[Event::FaultCorrupt] + t[Event::FaultDrop];
                        assert_eq!(faults, 0, "a loopback-only world saw wire faults: {t:?}");
                    } else {
                        for ev in wire {
                            assert!(t[ev] > 0, "p = {p}: the row never saw {ev:?}: {t:?}");
                        }
                    }
                }
            }
            Check::Perturbed => assert!(all.total_events() > 0, "the adversary never fired"),
            Check::EveryRankCrashed => {
                assert!(e[Event::Checkpoint] > 0 && e[Event::Crash] > 0, "{all:?}");
                assert_eq!(all.fallbacks, 0, "a torn epoch was counted as a fallback: {all:?}");
                for (rank, c) in all.crashes_by_rank.iter().enumerate() {
                    assert!(*c > 0, "rank {rank} was never a crash victim: {all:?}");
                }
            }
            Check::Crashed => assert!(e[Event::Crash] > 0, "no cell ever tore an epoch"),
            Check::EveryCellCrashed => per_cell(&|_, t| t.events[Event::Crash] > 0),
            Check::EveryCellCheckpointed => per_cell(&|_, t| t.events[Event::Checkpoint] > 0),
            Check::OneFallback => per_cell(&|_, t| t.events[Event::Crash] == 1 && t.fallbacks == 1),
            Check::AutoPays => {
                let top = Engine::Direction(DirectionMode::TopDown);
                for (c, d) in dirs() {
                    if c.engine == top {
                        assert!(d.schedule.iter().all(|&s| s == "top"), "{c:?}: {:?}", d.schedule);
                    }
                    if c.engine != Engine::Direction(DirectionMode::Auto) {
                        continue;
                    }
                    assert!(d.schedule.contains(&"bottom"), "{c:?}: auto never went bottom-up");
                    let (_, t) = dirs()
                        .find(|(o, _)| **o == Cell { engine: top, ..*c })
                        .expect("top-down twin");
                    let (auto, top) = (d.edges_inspected, t.edges_inspected);
                    assert!(3 * auto <= top, "{c:?}: auto inspected {auto}, top-down {top}");
                }
            }
            Check::ParentsAgree => {
                for (c, d) in dirs() {
                    let (_, first) = dirs().find(|(o, _)| o.p == c.p).expect("itself");
                    assert_eq!(d.parents, first.parents, "{c:?}: parent tie-break drifted");
                }
            }
            Check::SameView => {
                let view = |o: &Outcome| match &o.fingerprint {
                    Fingerprint::Lifecycle(qs, _) => qs
                        .iter()
                        .map(|q| QueryLifecycle { executed_global: 0, ..*q })
                        .collect::<Vec<_>>(),
                    other => panic!("SameView needs lifecycle cells, not {other:?}"),
                };
                for (c, o) in results {
                    let (_, first) =
                        results.iter().find(|(f, _)| f.engine == c.engine).expect("itself");
                    assert_eq!(view(o), view(first), "{c:?}: view diverged across the grid");
                }
            }
            Check::Cancelled => {
                let cancelled = results.iter().any(|(c, o)| match &o.fingerprint {
                    Fingerprint::Lifecycle(qs, _) => {
                        c.engine == Engine::Lifecycle(Scenario::Cancel)
                            && qs.iter().any(|q| q.outcome == QueryOutcome::Cancelled)
                    }
                    _ => false,
                });
                assert!(cancelled, "the cancel scenario completed everything before its cancels");
            }
        }
    }
}

/// One row of the matrix: its cells, each against its reference, then
/// its checks. The `#[test]` of the same name runs it.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    pub name: &'static str,
    pub grids: &'static [Grid],
    /// The reference cell's engine.
    pub against: Against,
    /// The reference cell's rank count; `None` = the cell's own.
    pub reference_p: Option<usize>,
    pub compare: Compare,
    pub checks: &'static [Check],
    /// Runs only under `--include-ignored`.
    pub heavy: bool,
}

impl Row {
    /// Equal fingerprints against the cell's own engine at its own p, no
    /// checks.
    const fn new(name: &'static str, grids: &'static [Grid]) -> Row {
        let (against, compare) = (Against::Same, Compare::Equal);
        Row { name, grids, against, reference_p: None, compare, checks: &[], heavy: false }
    }

    const fn against(mut self, against: Against, reference_p: Option<usize>) -> Row {
        self.against = against;
        self.reference_p = reference_p;
        self
    }

    const fn compare(mut self, compare: Compare) -> Row {
        self.compare = compare;
        self
    }

    const fn checks(mut self, checks: &'static [Check]) -> Row {
        self.checks = checks;
        self
    }

    const fn heavy(mut self) -> Row {
        self.heavy = true;
        self
    }

    pub fn cells(&self) -> Vec<Cell> {
        self.grids.iter().flat_map(Grid::cells).collect()
    }

    /// `cell`'s reference: fault-free, serial, in memory, uncheckpointed,
    /// on the row's reference engine and rank count.
    pub fn reference(&self, c: &Cell) -> Cell {
        let engine = match self.against {
            Against::Same => c.engine,
            Against::SerialBfs => Engine::Bfs { len: c.engine.queries() },
            Against::Engine(e) => e,
        };
        cell(engine, c.graph, self.reference_p.unwrap_or(c.p))
    }
}

/// Run the row named `name`: every cell, each against its reference, then
/// the row's checks. A failing cell is printed before the panic goes on.
pub fn run_row(name: &str) {
    let row = ROWS.iter().find(|r| r.name == name).unwrap_or_else(|| panic!("no row {name}"));
    let mut done: Vec<(Cell, Outcome)> = Vec::new();
    let mut outcome = |cell: Cell| {
        if let Some((_, o)) = done.iter().find(|(c, _)| *c == cell) {
            return o.clone();
        }
        let o = std::panic::catch_unwind(|| run(&cell)).unwrap_or_else(|e| {
            eprintln!("{name}: failing cell, reproduce with havoq::testing::run(&{cell:?})");
            std::panic::resume_unwind(e)
        });
        done.push((cell, o.clone()));
        o
    };
    let mut results = Vec::new();
    for cell in row.cells() {
        let got = outcome(cell);
        if row.compare != Compare::None {
            let want = outcome(row.reference(&cell));
            let (got, want) =
                (row.compare.project(&got.fingerprint), row.compare.project(&want.fingerprint));
            assert_eq!(got, want, "{name}: {cell:?} diverged from its reference");
        }
        results.push((cell, got));
    }
    for check in row.checks {
        check.assert(&results);
    }
}

/// Why the matrix does not run an (engine, axis value) pair.
#[derive(Clone, Copy, Debug)]
pub enum Reason {
    /// The engine refuses it: running this cell panics with this message.
    Rejected(Cell, &'static str),
    /// No code path exists for it yet.
    Unbuilt(&'static str),
    /// It runs, but other rows or tests already pay for what it would show.
    Budget(&'static str),
}

/// An (engine, axis value) pair the matrix does not run.
#[derive(Clone, Copy, Debug)]
pub struct Hole {
    pub engine: &'static str,
    pub axis: &'static str,
    pub reason: Reason,
}

const fn hole(engine: &'static str, axis: &'static str, reason: Reason) -> Hole {
    Hole { engine, axis, reason }
}

/// What the matrix leaves out, and why.
#[rustfmt::skip]
pub const HOLES: &[Hole] = &[
    hole("bfs_batch_lifecycle", "checkpoint_every", Rejected(
        Cell { checkpoint_every: Some(1), ..cell(SCENARIOS[0], Graph::Tiny, 1) },
        "BatchConfig::checkpoint is not supported",
    )),
    hole("bfs_batch_lifecycle", "Crash, ChaosCrash, CorruptEpoch",
        Unbuilt("crashes fire only at checkpoint epochs, which lifecycle rejects")),
    hole("bfs_batch_lifecycle", "HardStall with Lossy",
        Unbuilt("NACK repair spins on a wedged channel until its retransmit panic")),
    hole("bfs_batch", "Direction", Unbuilt("batched queries never switch direction")),
    hole("every engine", "schedule seed", Unbuilt("no deterministic schedule mode yet")),
    hole("every engine", "non-EdgeList partitions", Budget("integration_pipeline crosses them")),
    hole("every engine", "p > 7", Budget("ranks are threads; paper_rows runs p up to 64")),
    hole("reach_batch", "threads, storage, Lossy, crashes", Budget("bfs_batch rows cross them")),
    hole("every engine but Suite", "Knob", Budget("chaos and lossy stack every knob")),
];

/// A fault-free, serial, in-memory, uncheckpointed cell.
pub const fn cell(engine: Engine, graph: Graph, p: usize) -> Cell {
    let (threads, storage, plan) = (1, Storage::Mem, Plan::Free);
    Cell { engine, graph, p, threads, storage, plan, checkpoint_every: None }
}

/// A grid, positionally: engines, graphs, rank counts, thread counts,
/// storages, plans, checkpoint interval.
#[allow(clippy::too_many_arguments)]
pub const fn grid(
    engines: &'static [Engine],
    graphs: &'static [Graph],
    ps: &'static [usize],
    threads: &'static [usize],
    storages: &'static [Storage],
    plans: &'static [Plans],
    checkpoint_every: Option<u64>,
) -> Grid {
    Grid { engines, graphs, ps, threads, storages, plans, checkpoint_every }
}

// ---- the table -----------------------------------------------------------

use Against::{Same, SerialBfs};
use Check::*;
use Plans::*;
use Reason::*;

pub const SUITE: &[Engine] = &[Engine::Suite];
pub const BFS1: &[Engine] = &[Engine::Bfs { len: 1 }];
pub const AUTO: &[Engine] = &[MODES[2]];
pub const BATCH8: &[Engine] = &[WIDTHS[1]];
pub const BATCH64: &[Engine] = &[Engine::Batch { width: 64, len: 64 }];
pub const REACH8: &[Engine] = &[Engine::Reach { len: 8 }];
pub const UNBUDGETED: &[Engine] = &[SCENARIOS[0]];
/// The lifecycle scenarios with a budget or a cancel.
pub const BUDGETED: &[Engine] = &[SCENARIOS[1], SCENARIOS[3], SCENARIOS[4]];
pub const SWEEP: &[Graph] = &[Graph::Sweep];
pub const HEAVY: &[Graph] = &[Graph::Heavy];
pub const TINY: &[Graph] = &[Graph::Tiny];
pub const MEM: &[Storage] = &[Storage::Mem];
pub const COMP: &[Storage] = &[Storage::ExtComp];
pub const MEM_COMP: &[Storage] = &[Storage::Mem, Storage::ExtComp];
pub const EXTERNAL: &[Storage] = &[Storage::Ext, Storage::ExtComp];
pub const ALL_STORAGE: &[Storage] = &[Storage::Mem, Storage::Ext, Storage::ExtComp];
pub const FREE: &[Plans] = &[Free];

/// Every row, grouped by the test file that holds its `#[test]` (whose
/// module docs say what each row proves). Grids are positional: engines,
/// graphs, rank counts, thread counts, storages, plans, checkpoint interval.
#[rustfmt::skip]
pub const ROWS: &[Row] = &[
    // tests/fault_sweep.rs
    Row::new("fault_sweep_32_seeds_matches_baseline",
        &[grid(SUITE, SWEEP, &[4], &[1], MEM, &[Chaos(32)], None)]).checks(&[ChaosFired]),
    Row::new("corruption_drop_sweep_matches_baseline",
        &[grid(SUITE, SWEEP, &[1, 2], &[1], MEM, &[Lossy(32)], None)]).checks(&[CrcCaught, LossRepaired]),
    Row::new("fault_single_knob_plans_match_baseline",
        &[grid(SUITE, SWEEP, &[3], &[1], MEM, &[Knobs], None)]),
    Row::new("fault_sweep_heavy_seven_ranks",
        &[grid(SUITE, HEAVY, &[7], &[1], MEM, &[Chaos(8)], None)]).heavy(),
    Row::new("corruption_sweep_heavy_seven_ranks",
        &[grid(SUITE, HEAVY, &[7], &[1], MEM, &[Lossy(32)], None)]).checks(&[CrcCaught, LossRepaired]).heavy(),
    // tests/restart_sweep.rs
    Row::new("restart_sweep_32_seeds_matches_baseline",
        &[grid(SUITE, SWEEP, &[4], &[1], MEM, &[ChaosCrash(32, 150)], Some(16))]).checks(&[EveryRankCrashed]),
    Row::new("corrupted_committed_epoch_falls_back_and_recovers",
        &[grid(BFS1, SWEEP, &[2, 4], &[1], MEM, &[CorruptEpoch], Some(8))]).checks(&[OneFallback]),
    Row::new("restart_every_rank_every_early_epoch",
        &[grid(SUITE, SWEEP, &[4], &[1], MEM, &[CrashGrid(3)], Some(8))]).checks(&[EveryCellCrashed]),
    Row::new("restart_sweep_heavy_seven_ranks",
        &[grid(SUITE, HEAVY, &[7], &[1], MEM, &[ChaosCrash(8, 100)], Some(24))])
        .checks(&[EveryCellCheckpointed]).heavy(),
    // tests/parallel_sweep.rs
    Row::new("parallel_suite_matches_serial_baseline",
        &[grid(SUITE, SWEEP, &[1, 2], &[2, 4], MEM, FREE, None)]),
    Row::new("parallel_chaos_sweep_16_seeds_matches_serial",
        &[grid(SUITE, SWEEP, &[1, 2], &[2, 4], MEM, &[Chaos(16)], None)]),
    Row::new("parallel_lossy_sweep_matches_serial",
        &[grid(SUITE, SWEEP, &[2], &[4], MEM, &[Lossy(8)], None)]),
    Row::new("parallel_resume_equivalence_after_rank_crashes",
        &[grid(SUITE, TINY, &[2], &[4], MEM, &[CrashGrid(2)], Some(1))]).checks(&[Crashed]),
    Row::new("parallel_chaos_sweep_heavy_seven_ranks",
        &[grid(SUITE, HEAVY, &[7], &[4], MEM, &[Chaos(16)], None)]).heavy(),
    Row::new("parallel_hammer_threads_eight_external_lossy",
        &[grid(SUITE, HEAVY, &[2], &[8], &[Storage::Ext], &[Lossy(4)], None)]).heavy(),
    // tests/batch_sweep.rs: against single-source BFS
    Row::new("batch_widths_match_serial_reference",
        &[grid(&WIDTHS, SWEEP, &[1, 2], &[1, 4], MEM, FREE, None)]).against(SerialBfs, Some(2)),
    Row::new("batch_chaos_sweep_16_seeds_matches_serial",
        &[grid(&WIDTHS, SWEEP, &[1, 2], &[1, 4], MEM, &[Chaos(16)], None)]).against(SerialBfs, Some(2)),
    Row::new("batch_lossy_sweep_matches_serial",
        &[grid(&WIDTHS, SWEEP, &[2], &[4], MEM, &[Lossy(8)], None)]).against(SerialBfs, Some(2)),
    Row::new("batch_resume_equivalence_after_rank_crashes",
        &[grid(BATCH8, SWEEP, &[2], &[1, 4], MEM, &[CrashGrid(2)], Some(4))])
        .against(SerialBfs, Some(2)).checks(&[Crashed]),
    Row::new("batch_reach_agrees_with_bfs_reference",
        &[grid(REACH8, SWEEP, &[1, 2], &[1], MEM, &[Free, Chaos(1)], None)])
        .against(SerialBfs, Some(2)).compare(Compare::Reach),
    Row::new("batch_chaos_sweep_heavy_seven_ranks", &[
        grid(BATCH64, HEAVY, &[7], &[4], MEM, &[Chaos(4)], None),
        grid(BATCH64, HEAVY, &[7], &[4], MEM, &[ChaosCrash(1, 150)], Some(16)),
    ]).against(SerialBfs, Some(2)).heavy(),
    // tests/direction_sweep.rs
    Row::new("direction_modes_match_async_levels",
        &[grid(&MODES, SWEEP, &[1, 2], &[1, 4], MEM, FREE, None)])
        .against(SerialBfs, None).compare(Compare::Levels).checks(&[ParentsAgree]),
    Row::new("auto_switches_and_never_inspects_more_than_top_down",
        &[grid(&[MODES[0], MODES[2]], SWEEP, &[2], &[1], MEM, FREE, None)])
        .compare(Compare::None).checks(&[AutoPays]),
    Row::new("direction_chaos_sweep_16_seeds",
        &[grid(&MODES, SWEEP, &[1, 2], &[1, 4], MEM, &[Chaos(16)], None)]),
    Row::new("direction_lossy_sweep_matches_baseline",
        &[grid(&MODES, SWEEP, &[2], &[4], MEM, &[Lossy(8)], None)]),
    Row::new("direction_resume_equivalence_after_rank_crashes",
        &[grid(AUTO, SWEEP, &[2], &[1, 4], MEM, &[CrashGrid(2)], Some(1))]).checks(&[Crashed]),
    Row::new("direction_chaos_sweep_heavy_seven_ranks",
        &[grid(AUTO, HEAVY, &[7], &[4], MEM, &[Chaos(16)], None)]).heavy(),
    // tests/storage_sweep.rs
    Row::new("suite_equivalent_across_storages",
        &[grid(SUITE, SWEEP, &[1, 2], &[1, 4], ALL_STORAGE, FREE, None)]).against(Same, Some(1)),
    Row::new("direction_bfs_equivalent_across_storages",
        &[grid(&MODES, SWEEP, &[1, 2], &[1, 4], EXTERNAL, FREE, None)]).checks(&[AutoPays]),
    Row::new("batched_bfs_equivalent_across_storages",
        &[grid(&WIDTHS, SWEEP, &[1, 2], &[1, 4], EXTERNAL, FREE, None)]).against(SerialBfs, Some(2)),
    Row::new("compressed_chaos_sweep_16_seeds",
        &[grid(SUITE, SWEEP, &[2], &[4], COMP, &[Chaos(16)], None)]).checks(&[Perturbed]),
    Row::new("compressed_lossy_sweep_16_seeds",
        &[grid(SUITE, SWEEP, &[2], &[1], COMP, &[Lossy(16)], None)]).checks(&[CrcCaught, LossRepaired]),
    Row::new("compressed_crash_restore_grid",
        &[grid(SUITE, SWEEP, &[2], &[1], COMP, &[CrashGrid(2)], Some(1))]).checks(&[Crashed]),
    Row::new("storage_sweep_heavy_seven_ranks", &[
        grid(SUITE, HEAVY, &[7], &[4], EXTERNAL, FREE, None),
        grid(SUITE, HEAVY, &[7], &[4], COMP, &[Chaos(4)], None),
    ]).heavy(),
    // tests/lifecycle_sweep.rs
    Row::new("lifecycle_outcomes_deterministic_across_grid",
        &[grid(&SCENARIOS, SWEEP, &[1, 2], &[1, 4], MEM_COMP, FREE, None)]).checks(&[SameView, Cancelled]),
    Row::new("lifecycle_complete_matches_bfs_batch",
        &[grid(UNBUDGETED, SWEEP, &[2], &[4], MEM, FREE, None)])
        .against(Against::Engine(WIDTHS[1]), None).compare(Compare::Aggregates),
    Row::new("lifecycle_chaos_and_lossy_seeds_match_fault_free",
        &[grid(BUDGETED, SWEEP, &[2], &[4], MEM, &[Chaos(4), Lossy(4)], None)]),
    Row::new("hard_stall_aborts_on_all_ranks_without_hanging",
        &[grid(UNBUDGETED, SWEEP, &[2], &[1, 4], MEM, &[HardStall], None)]).compare(Compare::None),
    Row::new("lifecycle_lossy_chaos_sweep_16_seeds",
        &[grid(&SCENARIOS, SWEEP, &[2], &[4], MEM, &[Chaos(16), Lossy(16)], None)]).heavy(),
    // tests/golden_results.rs
    Row::new("checkpointing_is_result_neutral",
        &[grid(SUITE, TINY, &[1, 2, 7], &[1], MEM, FREE, Some(2))]),
    Row::new("resume_equivalence_after_rank_crashes",
        &[grid(SUITE, &[Graph::Tiny, Graph::Path8], &[1, 2, 7], &[1], MEM, &[CrashGrid(2)], Some(1))])
        .checks(&[Crashed]),
];
