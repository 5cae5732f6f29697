//! The six workloads: what each runs, how it is sized, how every result
//! is checked, and how the end-to-end and per-layer numbers are derived
//! from what the ranks recorded.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::layers::{
    self, Admission, BfsOut, Graph, GraphKind, OpCounters, Rank, Storage, StorageCounters,
};
use crate::memory::{peak_rss_mb, release_free_heap, reset_peak_rss};
use crate::probes;
use crate::reference::{arrival_stream, derive_seed, select_keys, KeyReference, RefGraph};
use crate::stats::{harmonic_mean, median, percentile, tail_percentile};
use crate::trace::{Span, Tracer, NO_PARENT};
use crate::watchdog::Watchdog;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// `bfs` on the asynchronous visitor queue, one op per key.
    BfsAsync,
    /// `direction_bfs`, `DirectionMode::Auto`, one op per key.
    BfsDiropt,
    /// Open-loop query stream through `AdmissionQueue` + `QueryBatch`.
    Serve,
    /// `triangle_count`, one op per call.
    Triangles,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageKind {
    Mem,
    ExtComp,
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the long form.
    pub why: &'static str,
    pub graph: GraphKind,
    pub ranks: usize,
    pub threads: usize,
    pub storage: StorageKind,
    pub kernel: Kernel,
    /// Search keys (or the serving key pool).
    pub num_keys: usize,
    /// Median op time at the commit that defined the benchmark; an op
    /// running 20x longer (at least a second) is declared hung.
    pub seed_op_ms: u64,
}

impl Workload {
    pub fn op_deadline(&self) -> Duration {
        Duration::from_millis((20 * self.seed_op_ms).max(1000))
    }
}

/// Graph sizes. The host has two cores and a 260 MiB shared L3, so the
/// "arrays of four times the last-level cache" rule cannot be met inside
/// the time budget; sizes are stated instead (see the README).
struct Sizes {
    g500_scale: u32,
    serve_scale: u32,
    tri_log2_vertices: u32,
    keys: usize,
    pool: usize,
}

const FULL: Sizes =
    Sizes { g500_scale: 16, serve_scale: 14, tri_log2_vertices: 13, keys: 100, pool: 32 };
const SMOKE: Sizes =
    Sizes { g500_scale: 9, serve_scale: 8, tri_log2_vertices: 7, keys: 6, pool: 8 };

pub fn workloads(smoke: bool) -> Vec<Workload> {
    let s = if smoke { SMOKE } else { FULL };
    let g500 = GraphKind::Rmat { scale: s.g500_scale };
    vec![
        Workload {
            name: "g500_async_mem",
            why: "Graph500 BFS on the asynchronous visitor queue, 2 ranks x 1 thread, in-memory CSR: \
                  heap, ghost filter, mailbox framing, CRC and quiescence do the work",
            graph: g500,
            ranks: 2,
            threads: 1,
            storage: StorageKind::Mem,
            kernel: Kernel::BfsAsync,
            num_keys: s.keys,
            seed_op_ms: 70,
        },
        Workload {
            name: "g500_async_t2_mem",
            why: "same graph and keys on 1 rank x 2 threads: the worker-pool path with zero wire \
                  traffic, so a pool change shows here and a comm change does not",
            graph: g500,
            ranks: 1,
            threads: 2,
            storage: StorageKind::Mem,
            kernel: Kernel::BfsAsync,
            num_keys: s.keys,
            seed_op_ms: 53,
        },
        Workload {
            name: "g500_async_extcomp",
            why: "same graph and keys on 1 rank x 1 thread over gap-compressed external CSR with a \
                  cache of 1/32 of the edges: page cache, async I/O, device and varint decode dominate",
            graph: g500,
            ranks: 1,
            threads: 1,
            storage: StorageKind::ExtComp,
            kernel: Kernel::BfsAsync,
            num_keys: s.keys,
            seed_op_ms: 140,
        },
        Workload {
            name: "g500_diropt_mem",
            why: "same graph and keys through direction-optimizing BFS on 2 ranks: bitmaps, scan_adj, \
                  frontier plane and collectives; bypasses the heap, mailbox payload and CRC",
            graph: g500,
            ranks: 2,
            threads: 1,
            storage: StorageKind::Mem,
            kernel: Kernel::BfsDiropt,
            num_keys: s.keys,
            seed_op_ms: 6,
        },
        Workload {
            name: "serve_mem",
            why: "open-loop BFS queries at fixed rates through the admission queue into 64-wide \
                  batched MS-BFS on 2 ranks: latency under load, batch occupancy and shedding",
            graph: GraphKind::Rmat { scale: s.serve_scale },
            ranks: 2,
            threads: 1,
            storage: StorageKind::Mem,
            kernel: Kernel::Serve,
            num_keys: s.pool,
            seed_op_ms: 104,
        },
        Workload {
            name: "tri_mem",
            why: "triangle counting on a seeded small-world graph, 2 ranks: non-idempotent counting \
                  visitors, no ghosts, heavy wire; raw visitor throughput rather than BFS relaxations",
            graph: GraphKind::SmallWorld {
                log2_vertices: s.tri_log2_vertices,
                degree: 16,
                rewire: 0.1,
            },
            ranks: 2,
            threads: 1,
            storage: StorageKind::Mem,
            kernel: Kernel::Triangles,
            num_keys: 0,
            seed_op_ms: 85,
        },
    ]
}

// --- serving constants -------------------------------------------------------

/// Offered rates, in queries per second: about 0.5x / 0.75x / 1x / 2x of
/// the capacity measured when the benchmark was defined. Source constants,
/// never calibrated at run time: a rate that moves with the code under
/// test hides every gain.
pub const SERVE_RATES_QPS: [u64; 4] = [300, 450, 600, 1200];
/// The rates the end-to-end metrics come from (latency at the first,
/// saturation throughput at the second); the untraced run offers only
/// these.
const SERVE_LIGHT: usize = 0;
const SERVE_OVER: usize = 3;
/// A query later than this misses the service-level objective.
pub const SERVE_LATENCY_LIMIT_MS: f64 = 150.0;
pub const SERVE_MAX_BACKLOG: usize = 256;
/// Queries offered per second of `--seconds`, per rate, in the untraced
/// run (two rates) and the traced run (four).
const SERVE_QUERIES_PER_SECOND_UNTRACED: [u64; 4] = [225, 0, 0, 150];
const SERVE_QUERIES_PER_SECOND_TRACED: [u64; 4] = [60, 50, 50, 60];

// --- run shape ------------------------------------------------------------------

/// Set-up cycles in an untraced run; `setup_s` is their median.
const SETUP_CYCLES: usize = 3;
/// Ops whose boundary counters are summed (traced run): a fixed prefix, so
/// counts the inputs determine repeat exactly whatever the op rate.
const COUNTER_WINDOW_OPS: u64 = 24;
/// Leading ops also checked by the library's own `validate_bfs`.
const VALIDATE_OPS: u64 = 3;
/// Untimed ops (or full batches) that open each cycle of an untraced run,
/// so that page faults and cold caches after a build stay out of the tail.
const WARMUP_OPS: u64 = 3;
/// Ops of the memory phase; `peak_rss_mb` is the lower quartile of their peaks.
const MEMORY_OPS: u64 = 21;
/// Trailing op pairs (untraced, traced) that measure tracing overhead.
const OVERHEAD_PAIRS: u64 = 8;
/// Collectives the direction engine issues per level (read off
/// `crates/core/src/direction.rs` when the benchmark was defined).
const DIROPT_COLLECTIVES_PER_LEVEL: f64 = 6.0;

/// Everything one run measured.
#[derive(Default)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human reading stderr.
    pub failures: Vec<String>,
    /// `(metric name, value)`: the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64)>,
    /// Figures printed for the reader but not recorded as metrics.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

/// What the main thread derives from the seed before any rank runs.
struct Inputs {
    graph: RefGraph,
    /// One per search key (or pool key), in key order.
    key_refs: Vec<KeyReference>,
    triangles: u64,
}

fn derive_inputs(w: &Workload, seed: u64, tracer: &mut Tracer) -> Result<Inputs, String> {
    tracer.enter("reference", 0);
    let edges = w.graph.all_edges(derive_seed(seed, 1));
    let graph = RefGraph::from_edges(w.graph.num_vertices(), edges.iter().copied());
    tracer.exit();
    tracer.enter("keys", 0);
    let keys = select_keys(&graph, w.num_keys, derive_seed(seed, 2))?;
    tracer.exit();
    tracer.enter("reference", 0);
    let key_refs = keys.iter().map(|&k| KeyReference::bfs(&graph, k)).collect();
    let triangles = if w.kernel == Kernel::Triangles { graph.count_triangles() } else { 0 };
    tracer.exit();
    Ok(Inputs { graph, key_refs, triangles })
}

/// One op as one rank saw it.
#[derive(Clone, Copy, Default)]
struct OpRecord {
    /// This rank's wall time inside the call.
    ns: u64,
    /// World-agreed work done: traversed edges, or executed visitors.
    work: u64,
    bad: bool,
}

/// One offered rate of the serving workload, identical on every rank.
#[derive(Clone, Default)]
struct RateOut {
    rate_qps: u64,
    offered: u64,
    shed: u64,
    /// Queries answered wrongly or not at all.
    errored: u64,
    latency_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    batch_width: Vec<f64>,
    batch_service_ms: Vec<f64>,
    claims: u64,
    backlog_mid: usize,
    backlog_end: usize,
    peak_backlog: usize,
    clock_ns: u64,
}

impl RateOut {
    /// Pool a later cycle's stream at the same rate into this one.
    fn absorb(&mut self, later: RateOut) {
        assert_eq!(self.rate_qps, later.rate_qps);
        self.offered += later.offered;
        self.shed += later.shed;
        self.errored += later.errored;
        self.latency_ms.extend(later.latency_ms);
        self.wait_ms.extend(later.wait_ms);
        self.batch_width.extend(later.batch_width);
        self.batch_service_ms.extend(later.batch_service_ms);
        self.claims += later.claims;
        self.backlog_mid += later.backlog_mid;
        self.backlog_end += later.backlog_end;
        self.peak_backlog = self.peak_backlog.max(later.peak_backlog);
        self.clock_ns += later.clock_ns;
    }

    fn achieved_qps(&self) -> f64 {
        self.latency_ms.len() as f64 / (self.clock_ns as f64 / 1e9)
    }

    /// Share of offered queries answered correctly within the limit.
    fn within_limit(&self) -> f64 {
        let on_time = self.latency_ms.iter().filter(|&&l| l <= SERVE_LATENCY_LIMIT_MS).count();
        (on_time as u64).saturating_sub(self.errored) as f64 / self.offered as f64
    }

    /// The backlog may end one batch above its midpoint: at light load it
    /// hovers around a fraction of a batch, and a sample of it is noisy.
    fn meets_slo(&self) -> bool {
        self.within_limit() >= 0.99 && self.backlog_end <= self.backlog_mid + layers::BATCH_CAPACITY
    }
}

/// Boundary counters of the ops inside the counter window, on one rank.
#[derive(Clone, Copy, Default)]
struct Window {
    ops: u64,
    /// This rank's time inside the counted calls.
    ns: u64,
    counters: OpCounters,
    storage: StorageCounters,
}

#[derive(Default)]
struct RankOut {
    setup_s: f64,
    gen_s: f64,
    build_s: f64,
    ops: Vec<OpRecord>,
    /// `(untraced ns, traced ns)` per overhead pair.
    overhead_pairs: Vec<(u64, u64)>,
    window: Window,
    validate_ns: u64,
    validate_ops: u64,
    bytes_per_edge: f64,
    rates: Vec<RateOut>,
    /// Rank 0 of the memory phase: see [`RankRun::measure_memory`].
    op_rss_mb: Vec<f64>,
    spans: Vec<Span>,
}

impl RankOut {
    /// Pool a later cycle's samples into this one. Only untraced runs have
    /// more than one cycle, so windows, spans and validation stay as they are.
    fn absorb(&mut self, later: RankOut) {
        self.ops.extend(later.ops);
        for (mine, theirs) in self.rates.iter_mut().zip(later.rates) {
            mine.absorb(theirs);
        }
    }
}

/// Check one BFS tree against the serial reference: the world totals, and
/// for every vertex this rank masters its level and its parent edge.
fn tree_ok(g: &Graph, out: &BfsOut, want: &KeyReference, refg: &RefGraph) -> bool {
    let mut ok = (out.visited, out.traversed_edges, out.max_level)
        == (want.visited, want.traversed_edges, want.max_level);
    g.for_each_master(|v, li| {
        let (length, parent) = out.state(li);
        ok &= want.vertex_ok(refg, v, length, parent);
    });
    ok
}

/// What every rank thread shares while it measures.
struct RankRun<'a> {
    w: &'a Workload,
    rank: &'a Rank<'a>,
    g: &'a Graph,
    inputs: &'a Inputs,
    watchdog: &'a Watchdog,
}

impl RankRun<'_> {
    /// Run op `i` of a BFS or triangle workload: the timed call, the
    /// benchmark's own check, and on request the library validator.
    fn op(
        &self,
        i: u64,
        tracer: &mut Tracer,
        count: bool,
        validate: bool,
        out: &mut RankOut,
    ) -> OpRecord {
        let (w, rank, g) = (self.w, self.rank, self.g);
        let want = (w.kernel != Kernel::Triangles)
            .then(|| &self.inputs.key_refs[i as usize % self.inputs.key_refs.len()]);
        if rank.id() == 0 {
            self.watchdog.arm(i, want.map_or(0, |r| r.key), w.op_deadline());
        }
        tracer.enter("op", i);
        tracer.enter("call", i);
        let storage_before = count.then(|| g.storage_counters());
        let t = Instant::now();
        let tree = match w.kernel {
            Kernel::BfsAsync => Some(layers::bfs_async(rank, g, want.unwrap().key, w.threads)),
            Kernel::BfsDiropt => Some(layers::bfs_diropt(rank, g, want.unwrap().key)),
            Kernel::Triangles | Kernel::Serve => None,
        };
        let tri = (w.kernel == Kernel::Triangles).then(|| layers::triangles(rank, g));
        let ns = t.elapsed().as_nanos() as u64;
        tracer.exit();
        if let Some(before) = storage_before {
            out.window.storage += g.storage_counters().since(before);
        }

        tracer.enter("check", i);
        let (work, mut ok, counters) = match (&tree, &tri) {
            (Some(tree), _) => {
                let want = want.unwrap();
                (tree.traversed_edges, tree_ok(g, tree, want, &self.inputs.graph), tree.counters)
            }
            (None, Some(tri)) => (
                rank.sum(tri.counters.visitors_executed),
                tri.triangles == self.inputs.triangles,
                tri.counters,
            ),
            (None, None) => unreachable!("the serving workload has its own loop"),
        };
        tracer.exit();
        if let (true, Some(tree)) = (validate, &tree) {
            tracer.enter("validate", i);
            let tv = Instant::now();
            ok &= layers::validate_tree(rank, g, want.unwrap().key, tree);
            out.validate_ns += tv.elapsed().as_nanos() as u64;
            out.validate_ops += 1;
            tracer.exit();
        }
        tracer.exit();
        if rank.id() == 0 {
            self.watchdog.disarm();
        }
        if count {
            out.window.ops += 1;
            out.window.ns += ns;
            out.window.counters += counters;
        }
        OpRecord { ns, work, bad: !ok }
    }

    /// The time-bounded op loop of the BFS and triangle workloads.
    fn measure_ops(&self, budget: Duration, tracer: &mut Tracer, out: &mut RankOut) {
        let rank = self.rank;
        let traced = tracer.enabled();
        if !traced {
            for i in 0..WARMUP_OPS {
                self.op(i, tracer, false, false, out);
            }
        }
        rank.barrier();
        let start = Instant::now();
        let mut i = 0u64;
        // the all-reduce doubles as the barrier that starts every op on
        // all ranks together
        while rank.max((i > 0 && start.elapsed() >= budget) as u64) == 0 {
            let count = traced && i < COUNTER_WINDOW_OPS;
            let rec = self.op(i, tracer, count, traced && i < VALIDATE_OPS, out);
            out.ops.push(rec);
            i += 1;
        }
        if traced {
            for pair in 0..OVERHEAD_PAIRS {
                tracer.set_enabled(false);
                let plain = self.op(pair, tracer, false, false, out);
                tracer.set_enabled(true);
                let spanned = self.op(pair, tracer, false, false, out);
                out.overhead_pairs.push((plain.ns, spanned.ns));
            }
        }
    }

    /// The key pool, repeated to fill one batch of the serving workload.
    fn full_batch(&self) -> Vec<u64> {
        let pool = self.inputs.key_refs.iter().map(|r| r.key);
        pool.cycle().take(layers::BATCH_CAPACITY).collect()
    }

    /// The memory phase: a few ops, each started from a heap whose free
    /// pages have been handed back and a reset `VmHWM`, so each reading is
    /// the built graph, the benchmark's references and that one op's own
    /// state. It runs in a process of its own (see [`memory_phase`]), so
    /// that neither reading `/proc` and trimming the heap nor the pinned
    /// allocator can touch a timing.
    fn measure_memory(&self, tracer: &mut Tracer, out: &mut RankOut) {
        let (rank, g) = (self.rank, self.g);
        let full_batch = self.full_batch();
        for i in 0..MEMORY_OPS {
            if rank.id() == 0 {
                release_free_heap();
                reset_peak_rss();
            }
            rank.barrier();
            let rec = match self.w.kernel {
                Kernel::Serve => OpRecord {
                    bad: layers::bfs_batch(rank, g, &full_batch).is_err(),
                    ..OpRecord::default()
                },
                _ => self.op(i, tracer, false, false, out),
            };
            out.ops.push(rec);
            if rank.id() == 0 {
                out.op_rss_mb.extend(peak_rss_mb());
            }
        }
    }

    /// Offer one fixed-rate stream to the admission queue and serve it in
    /// batches on the event clock, as `qps_serve` does: arrivals are fed
    /// as the clock reaches them, and the clock advances by each batch's
    /// measured slowest-rank service time.
    fn serve_rate(
        &self,
        rate_index: usize,
        count: usize,
        seed: u64,
        op_base: u64,
        tracer: &mut Tracer,
        out: &mut RankOut,
    ) -> RateOut {
        let (w, rank, g) = (self.w, self.rank, self.g);
        let pool = &self.inputs.key_refs;
        let rate_qps = SERVE_RATES_QPS[rate_index];
        let stream =
            arrival_stream(rate_qps, count, pool.len(), derive_seed(seed, 3 + rate_index as u64));
        let by_key: BTreeMap<u64, &KeyReference> = pool.iter().map(|r| (r.key, r)).collect();
        let mut aq = Admission::new(SERVE_MAX_BACKLOG);
        let mut r = RateOut { rate_qps, offered: count as u64, ..RateOut::default() };
        let mut next = 0usize;
        let mut batch = op_base;
        let offer = |aq: &mut Admission, r: &mut RateOut, next: &mut usize| {
            let a = stream[*next];
            if !aq.offer(a.at_ns, pool[a.pool_index].key) {
                r.shed += 1;
            }
            *next += 1;
            if *next == stream.len().div_ceil(2) {
                r.backlog_mid = aq.pending();
            }
            if *next == stream.len() {
                r.backlog_end = aq.pending();
            }
        };
        loop {
            while next < stream.len() && stream[next].at_ns <= aq.clock_ns() {
                offer(&mut aq, &mut r, &mut next);
            }
            if aq.pending() == 0 {
                if next >= stream.len() {
                    break;
                }
                // idle server: the next arrival opens the next busy period
                offer(&mut aq, &mut r, &mut next);
                continue;
            }
            let admitted = aq.start_batch();
            let started_ns = aq.clock_ns();
            let sources: Vec<u64> = admitted.iter().map(|&(_, s)| s).collect();
            if rank.id() == 0 {
                self.watchdog.arm(batch, sources[0], w.op_deadline());
            }
            tracer.enter("op", batch);
            tracer.enter("call", batch);
            let t = Instant::now();
            let served = layers::bfs_batch(rank, g, &sources);
            let local_ns = t.elapsed().as_nanos() as u64;
            tracer.exit();
            let service_ns = rank.max(local_ns).max(1);
            tracer.enter("check", batch);
            match &served {
                Ok(b) => {
                    if !b.ledger_ok {
                        r.errored += sources.len() as u64;
                    } else {
                        for (q, s) in b.per_query.iter().zip(&sources) {
                            let want = by_key[s];
                            if *q != (want.visited, want.max_level, want.traversed_edges) {
                                r.errored += 1;
                            }
                        }
                    }
                    r.claims += b.claims;
                    if rate_index == SERVE_LIGHT {
                        out.window.counters += b.counters;
                        out.window.ops += 1;
                        out.window.ns += local_ns;
                    }
                }
                Err(_) => r.errored += sources.len() as u64,
            }
            tracer.exit();
            tracer.exit();
            if rank.id() == 0 {
                self.watchdog.disarm();
            }
            out.ops.push(OpRecord { ns: local_ns, work: sources.len() as u64, bad: false });
            aq.finish_batch(service_ns);
            let done_ns = aq.clock_ns();
            r.batch_width.push(sources.len() as f64);
            r.batch_service_ms.push(service_ns as f64 / 1e6);
            for &(at_ns, _) in &admitted {
                r.wait_ms.push((started_ns - at_ns) as f64 / 1e6);
                r.latency_ms.push((done_ns - at_ns) as f64 / 1e6);
                // the query's timeline on the event clock; `op` ties it to
                // the wall-clock spans of the batch that served it
                if rank.id() == 0 {
                    let q = tracer.record("query", NO_PARENT, batch, at_ns, done_ns);
                    tracer.record("wait", q, batch, at_ns, started_ns);
                    tracer.record("service", q, batch, started_ns, done_ns);
                }
            }
            batch += 1;
        }
        r.peak_backlog = aq.peak_backlog();
        r.clock_ns = aq.clock_ns();
        debug_assert_eq!(aq.shed(), r.shed);
        debug_assert_eq!(aq.served(), r.latency_ms.len());
        r
    }

    fn measure_serve(&self, seconds: f64, seed: u64, tracer: &mut Tracer, out: &mut RankOut) {
        let per_second = if tracer.enabled() {
            SERVE_QUERIES_PER_SECOND_TRACED
        } else {
            SERVE_QUERIES_PER_SECOND_UNTRACED
        };
        if !tracer.enabled() {
            let full_batch = self.full_batch();
            for _ in 0..WARMUP_OPS {
                drop(layers::bfs_batch(self.rank, self.g, &full_batch));
            }
        }
        self.rank.barrier();
        for (rate_index, per_s) in per_second.into_iter().enumerate() {
            let count = (per_s as f64 * seconds).ceil() as usize;
            if count > 0 {
                let op_base = out.ops.len() as u64;
                let r = self.serve_rate(rate_index, count, seed, op_base, tracer, out);
                out.rates.push(r);
            }
        }
    }
}

/// Refuse a workload that would run more threads than the host has cores.
fn check_cores(w: &Workload) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if w.ranks * w.threads > cores {
        return Err(format!(
            "oversubscribed: {} ranks x {} threads on {cores} cores would time the scheduler",
            w.ranks, w.threads
        ));
    }
    Ok(())
}

/// Generate this rank's edges and build its part of the graph, timing both.
fn build_graph(
    w: &Workload,
    rank: &Rank,
    seed: u64,
    inputs: &Inputs,
    tracer: &mut Tracer,
    out: &mut RankOut,
) -> Graph {
    tracer.enter("gen", 0);
    let tg = Instant::now();
    let edges = layers::generate(rank, w.graph, derive_seed(seed, 1));
    out.gen_s = tg.elapsed().as_secs_f64();
    tracer.exit();
    tracer.enter("build", 0);
    let tb = Instant::now();
    let storage = match w.storage {
        StorageKind::Mem => Storage::Mem,
        StorageKind::ExtComp => Storage::ExtComp { raw_edge_bytes: inputs.graph.num_edges() * 8 },
    };
    let g = layers::build(rank, edges, w.graph, storage);
    out.build_s = tb.elapsed().as_secs_f64();
    tracer.exit();
    out.bytes_per_edge = g.bytes_per_edge();
    g
}

/// Set up the workload's first graph and run the memory phase on it:
/// the peak resident memory of each of [`MEMORY_OPS`] ops, in MB. Meant
/// for a fresh process whose allocator has been pinned
/// ([`crate::memory::pin_allocator_thresholds`]).
pub fn memory_phase(w: &Workload, seed: u64, watchdog: &Watchdog) -> Result<Vec<f64>, String> {
    check_cores(w)?;
    let origin = Instant::now();
    let inputs = derive_inputs(w, seed, &mut Tracer::new(false, w.ranks, origin))?;
    let outs = layers::run_world(w.ranks, |rank| {
        let mut out = RankOut::default();
        let mut tracer = Tracer::new(false, rank.id(), origin);
        let g = build_graph(w, rank, seed, &inputs, &mut tracer, &mut out);
        let run = RankRun { w, rank, g: &g, inputs: &inputs, watchdog };
        run.measure_memory(&mut tracer, &mut out);
        out
    });
    if let Some(i) = (0..outs[0].ops.len()).find(|&i| outs.iter().any(|o| o.ops[i].bad)) {
        return Err(format!("{}: op {i} of the memory phase gave a wrong result", w.name));
    }
    if outs[0].op_rss_mb.is_empty() {
        return Err("this system does not report VmHWM".to_string());
    }
    Ok(outs.into_iter().next().expect("at least one rank").op_rss_mb)
}

/// `peak_rss_mb` from the memory phase's readings: their lower quartile.
/// When a rank falls behind, its peer's queue backlog lands in the
/// reading, so the excess over the typical low reading is scheduling
/// noise, not memory the op needs.
pub fn peak_rss_metric(op_peaks_mb: &[f64]) -> Option<f64> {
    percentile(op_peaks_mb, 25.0)
}

/// Run one workload once: set up (three cycles untraced, one traced),
/// measure for `seconds`, check every result, and derive the metrics:
/// the per-layer ones if traced, else the end-to-end ones but for
/// `peak_rss_mb`, which comes from [`memory_phase`].
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    watchdog: &Watchdog,
) -> Result<RunOutput, String> {
    check_cores(w)?;
    let origin = Instant::now();
    // An untraced run derives three graphs (with their keys and arrival
    // streams) from the seed and measures a third of the time on each:
    // `setup_s` is the median of the three set-ups, and the pooled ops
    // average out both where a build happened to land in memory and how
    // one random graph happens to be shaped (the serving latency moved
    // 15 % between single scale-14 graphs). A traced run uses the first.
    let cycles = if trace { 1 } else { SETUP_CYCLES };
    let mut setup_samples = Vec::new();
    let mut main_spans = Vec::new();
    let mut pooled: Option<(Inputs, Vec<RankOut>)> = None;
    for cycle in 0..cycles {
        let seed = if cycle == 0 { seed } else { derive_seed(seed, 100 + cycle as u64) };
        let t = Instant::now();
        // the driver thread traces as one rank past the last
        let mut tracer = Tracer::new(trace, w.ranks, origin);
        tracer.enter("workload", 0);
        tracer.enter("setup", 0);
        let inputs = derive_inputs(w, seed, &mut tracer)?;
        tracer.exit();
        tracer.exit();
        main_spans = tracer.into_spans();
        let outs = layers::run_world(w.ranks, |rank| {
            let mut out = RankOut::default();
            let mut tracer = Tracer::new(trace, rank.id(), origin);
            tracer.enter("workload", 0);
            tracer.enter("setup", 0);
            let g = build_graph(w, rank, seed, &inputs, &mut tracer, &mut out);
            tracer.exit();
            out.setup_s = t.elapsed().as_secs_f64();
            let run = RankRun { w, rank, g: &g, inputs: &inputs, watchdog };
            let share = seconds / cycles as f64;
            match w.kernel {
                Kernel::Serve => run.measure_serve(share, seed, &mut tracer, &mut out),
                _ => run.measure_ops(Duration::from_secs_f64(share), &mut tracer, &mut out),
            }
            tracer.exit();
            out.spans = tracer.into_spans();
            out
        });
        setup_samples.push(outs.iter().map(|o| o.setup_s).fold(0.0, f64::max));
        pooled = Some(match pooled.take() {
            None => (inputs, outs),
            Some((_, mut earlier)) => {
                for (e, o) in earlier.iter_mut().zip(outs) {
                    e.absorb(o);
                }
                (inputs, earlier)
            }
        });
    }
    let (inputs, outs) = pooled.expect("at least one cycle");
    let setup_s = median(&setup_samples).expect("at least one cycle");

    let mut output = match w.kernel {
        Kernel::Serve => summarize_serve(w, &outs, trace),
        _ => summarize_ops(w, &outs, trace),
    }?;
    if trace {
        let probes = probes::run(w, &inputs.graph, &inputs.key_refs, seed, seconds);
        finish_per_layer(&outs, probes, &mut output);
    } else {
        output.metrics.push(("setup_s", setup_s));
        output.notes.push(format!("setup_s samples: {setup_samples:?}"));
    }
    output.spans = main_spans;
    for o in outs {
        output.spans.extend(o.spans);
    }
    Ok(output)
}

/// The slowest rank's time per op, in ms.
fn op_times(outs: &[RankOut]) -> Vec<f64> {
    (0..outs[0].ops.len())
        .map(|i| outs.iter().map(|o| o.ops[i].ns).max().unwrap_or(0) as f64 / 1e6)
        .collect()
}

fn summarize_ops(w: &Workload, outs: &[RankOut], trace: bool) -> Result<RunOutput, String> {
    let op_ms = op_times(outs);
    let n = op_ms.len();
    let mut failures = Vec::new();
    let mut failed = 0u64;
    let mut rates = Vec::new();
    for (i, ms) in op_ms.iter().enumerate() {
        let rate = outs[0].ops[i].work as f64 / (ms / 1e3);
        let bad = outs.iter().any(|o| o.ops[i].bad) || !rate.is_finite() || rate <= 0.0;
        if bad {
            failed += 1;
            if failures.len() < 5 {
                failures.push(format!("{} op {i}: wrong result or degenerate rate {rate}", w.name));
            }
        } else {
            rates.push(rate);
        }
    }
    let mut out = RunOutput { attempted: n as u64, failed, failures, ..RunOutput::default() };
    let p50 = median(&op_ms).ok_or("no op completed")?;
    let p90 = percentile(&op_ms, 90.0).ok_or("no op completed")?;
    out.notes.push(format!(
        "{n} ops, {} ranks x {} threads; op_ms p50 {p50:.3} p90 {p90:.3} min {:.3} max {:.3}",
        w.ranks,
        w.threads,
        op_ms.iter().copied().fold(f64::INFINITY, f64::min),
        op_ms.iter().copied().fold(0.0, f64::max),
    ));
    match tail_percentile(n) {
        Some(p) => out.notes.push(format!(
            "highest percentile with ten samples beyond it: p{p} = {:.3} ms",
            percentile(&op_ms, p).unwrap_or(f64::NAN)
        )),
        None => out.notes.push(format!("{n} samples support no tail percentile")),
    }
    if !trace {
        let work_per_s = harmonic_mean(&rates)?;
        out.metrics.extend([("op_ms_p50", p50), ("op_ms_p90", p90), ("work_per_s", work_per_s)]);
    }
    Ok(out)
}

fn summarize_serve(w: &Workload, outs: &[RankOut], trace: bool) -> Result<RunOutput, String> {
    let rates = &outs[0].rates;
    let mut out =
        RunOutput { attempted: rates.iter().map(|r| r.offered).sum(), ..RunOutput::default() };
    for r in rates {
        // below capacity nothing may be shed; at and above it shedding is
        // the bounded backlog doing its job
        let shed_is_failure = r.rate_qps < SERVE_RATES_QPS[2];
        let bad = r.errored + if shed_is_failure { r.shed } else { 0 };
        if bad > 0 {
            out.failed += bad;
            out.failures.push(format!(
                "{} r{}: {} wrong or errored, {} shed of {} offered",
                w.name, r.rate_qps, r.errored, r.shed, r.offered
            ));
        }
        out.notes.push(format!(
            "r{}: offered {} served {} shed {} | lat_ms p50 {:.2} p99 {:.2} | within {} ms: {:.4} | \
             achieved {:.1} QPS | backlog mid {} end {} peak {} | generator lateness 0 ns (event clock)",
            r.rate_qps,
            r.offered,
            r.latency_ms.len(),
            r.shed,
            median(&r.latency_ms).unwrap_or(f64::NAN),
            percentile(&r.latency_ms, 99.0).unwrap_or(f64::NAN),
            SERVE_LATENCY_LIMIT_MS,
            r.within_limit(),
            r.achieved_qps(),
            r.backlog_mid,
            r.backlog_end,
            r.peak_backlog,
        ));
    }
    if !trace {
        let by_rate = |i: usize| {
            rates
                .iter()
                .find(|r| r.rate_qps == SERVE_RATES_QPS[i])
                .ok_or(format!("rate r{} did not run", SERVE_RATES_QPS[i]))
        };
        let light = by_rate(SERVE_LIGHT)?;
        out.metrics.extend([
            ("op_ms_p50", median(&light.latency_ms).ok_or("no query served")?),
            ("op_ms_p90", percentile(&light.latency_ms, 90.0).ok_or("no query served")?),
            ("work_per_s", by_rate(SERVE_OVER)?.achieved_qps()),
        ]);
    }
    Ok(out)
}

/// Derive the per-layer metrics of a traced run from the boundary
/// counters, the timers and the probes.
fn finish_per_layer(outs: &[RankOut], probes: BTreeMap<&'static str, f64>, out: &mut RunOutput) {
    let ranks = outs.len() as f64;
    let mut m: BTreeMap<&'static str, f64> = probes;
    let mut c = OpCounters::default();
    let mut s = StorageCounters::default();
    for o in outs {
        c += o.window.counters;
        s += o.window.storage;
    }
    let ops = outs[0].window.ops.max(1) as f64;
    let per_op = |v: u64| v as f64 / ops;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // the window's op time, as the slowest rank saw it
    let window_s = outs.iter().map(|o| o.window.ns).max().unwrap_or(0) as f64 / 1e9;
    let op_s = window_s / ops;
    // Both ranks return from a collective call together, so their wall
    // times cannot show who waited; their shares of the work can.
    let work = |o: &RankOut| o.window.counters.visitors_pushed + o.window.counters.edges_inspected;
    let most = outs.iter().map(work).max().unwrap_or(0);
    let least = outs.iter().map(work).min().unwrap_or(0);
    let skew = ratio((most - least) as f64, most as f64);

    m.insert("graph.gen.s", outs.iter().map(|o| o.gen_s).fold(0.0, f64::max));
    m.insert("graph.dist.build_s", outs.iter().map(|o| o.build_s).fold(0.0, f64::max));
    let validate_ops = outs[0].validate_ops.max(1) as f64;
    m.insert(
        "core.validate.s",
        outs.iter().map(|o| o.validate_ns).max().unwrap_or(0) as f64 / 1e9 / validate_ops,
    );

    m.insert("core.queue.visitors_executed", per_op(c.visitors_executed));
    m.insert("core.queue.visitors_pushed", per_op(c.visitors_pushed));
    m.insert("core.queue.exec_per_s", ratio(c.visitors_executed as f64, window_s));
    m.insert("core.ghost.filtered_frac", ratio(c.ghost_filtered as f64, c.ghost_checked as f64));
    m.insert("comm.mailbox.payload_sent", per_op(c.payload_sent));
    m.insert("comm.mailbox.bytes_sent", per_op(c.bytes_sent));
    m.insert("comm.mailbox.frames_sent", per_op(c.frames_sent));
    m.insert("comm.mailbox.frame_fill", ratio(c.frame_fill_sum, c.frames_sent as f64));
    m.insert("comm.mailbox.backpressure_stalls", per_op(c.backpressure_stalls));
    m.insert("comm.termination.waves", per_op(c.termination_waves));
    m.insert("comm.frontier.words_sent", per_op(c.frontier_words_sent));
    m.insert("comm.rank_skew_frac", skew);

    m.insert("nvram.cache.hit_rate", ratio(s.hits as f64, (s.hits + s.misses) as f64));
    m.insert("nvram.cache.misses", per_op(s.misses));
    m.insert("nvram.cache.evictions", per_op(s.evictions));
    m.insert("nvram.cache.prefetches", per_op(s.prefetches));
    m.insert("nvram.cache.dropped_prefetches", per_op(s.dropped_prefetches));
    m.insert("nvram.io.stall_s", per_op(s.io_stall_ns) / 1e9);
    m.insert("nvram.io.evict_stall_s", per_op(s.evict_stall_ns) / 1e9);
    m.insert("nvram.io.queue_peak", s.io_queue_peak as f64);
    m.insert("graph.csr.adj_decodes", per_op(s.adj_decodes));
    m.insert("graph.csr.decoded_bytes", per_op(s.adj_decoded_bytes));
    let bytes_per_edge = outs.iter().map(|o| o.bytes_per_edge).sum::<f64>() / ranks;
    m.insert("graph.csr.bytes_per_edge", bytes_per_edge);

    // levels are world-agreed: rank 0's count, not the sum over ranks
    let levels = &outs[0].window.counters;
    m.insert("core.direction.edges_inspected", per_op(c.edges_inspected));
    m.insert("core.direction.top_levels", per_op(levels.top_levels));
    m.insert("core.direction.bottom_levels", per_op(levels.bottom_levels));

    let rates = &outs[0].rates;
    let rate = |i: usize| rates.iter().find(|r| r.rate_qps == SERVE_RATES_QPS[i]);
    let mean = |v: &[f64]| ratio(v.iter().sum::<f64>(), v.len() as f64);
    let light = rate(SERVE_LIGHT);
    let over = rate(SERVE_OVER);
    let light_of = |f: &dyn Fn(&RateOut) -> f64| light.map_or(0.0, f);
    m.insert("core.batch.occupancy_mean", light_of(&|r| mean(&r.batch_width)));
    m.insert(
        "core.batch.service_ms_p50",
        light_of(&|r| median(&r.batch_service_ms).unwrap_or(0.0)),
    );
    m.insert(
        "core.batch.claims",
        light_of(&|r| ratio(r.claims as f64, r.batch_width.len() as f64)),
    );
    m.insert("core.admission.wait_ms_p50", light_of(&|r| median(&r.wait_ms).unwrap_or(0.0)));
    m.insert("core.admission.peak_backlog", over.map_or(0.0, |r| r.peak_backlog as f64));
    m.insert("core.admission.shed", over.map_or(0.0, |r| r.shed as f64));
    m.insert(
        "serve.slo_qps",
        rates.iter().filter(|r| r.meets_slo()).map(|r| r.rate_qps).max().unwrap_or(0) as f64,
    );
    m.insert("serve.lat_ms_p99", light_of(&|r| percentile(&r.latency_ms, 99.0).unwrap_or(0.0)));
    m.insert("serve.shed_frac_over", over.map_or(0.0, |r| r.shed as f64 / r.offered as f64));
    m.insert(
        "core.admission.wait_share",
        light_of(&|r| ratio(mean(&r.wait_ms), mean(&r.latency_ms))),
    );

    // estimated shares: probe cost x boundary count / op time, per rank,
    // since the ranks work side by side
    let share = |cost_ns: f64, count_per_op: f64| ratio(cost_ns * count_per_op / ranks / 1e9, op_s);
    let wire_bytes = per_op(c.bytes_sent + c.bytes_received);
    // payloads that crossed the wire (`payload_sent` counts self-sends too)
    let wire_payloads = c.frame_fill_sum * layers::default_frame_records() as f64 / ops;
    let decoded_edges = ratio(per_op(s.adj_decoded_bytes), bytes_per_edge);
    let levels_per_op = per_op(levels.top_levels + levels.bottom_levels);
    let shares = [
        ("util.crc.est_share", share(m["util.crc.ns_per_kib"] / 1024.0, wire_bytes)),
        ("comm.mailbox.est_share", share(m["comm.mailbox.ns_per_payload"], wire_payloads)),
        ("graph.varint.est_share", share(m["graph.varint.decode_ns_per_edge"], decoded_edges)),
        ("nvram.io.stall_share", share(1.0, per_op(s.io_stall_ns))),
        // every rank waits in every collective, so no division by ranks
        (
            "comm.collectives.est_share",
            share(
                m["comm.collectives.all_reduce_ns"] * ranks,
                levels_per_op * DIROPT_COLLECTIVES_PER_LEVEL,
            ),
        ),
    ];
    out.notes.push(format!(
        "share bases per op over {ops} ops: op {:.3} ms | wire {wire_bytes:.0} B | wire payloads {wire_payloads:.0} | \
         decoded edges {decoded_edges:.0} | io stall {:.3} ms | levels {levels_per_op:.1} x {} \
         collectives | ranks {ranks}",
        op_s * 1e3,
        per_op(s.io_stall_ns) / 1e6,
        DIROPT_COLLECTIVES_PER_LEVEL,
    ));
    m.extend(shares);

    let plain: Vec<f64> = pair_ms(outs, |p| p.0);
    let spanned: Vec<f64> = pair_ms(outs, |p| p.1);
    let overhead = match (median(&plain), median(&spanned)) {
        (Some(a), Some(b)) if a > 0.0 => b / a - 1.0,
        _ => 0.0,
    };
    m.insert("trace.overhead_frac", overhead);
    out.notes.push(format!(
        "{} overhead pairs: untraced p50 {:.3} ms, traced {:.3} ms",
        plain.len(),
        median(&plain).unwrap_or(0.0),
        median(&spanned).unwrap_or(0.0),
    ));
    out.metrics = m.into_iter().collect();
}

/// Slowest-rank time of each overhead pair's chosen side, in ms.
fn pair_ms(outs: &[RankOut], side: impl Fn(&(u64, u64)) -> u64) -> Vec<f64> {
    (0..outs[0].overhead_pairs.len())
        .map(|i| outs.iter().map(|o| side(&o.overhead_pairs[i])).max().unwrap_or(0) as f64 / 1e6)
        .collect()
}
