//! The paper's evaluation as one table of machine-independent counters.
//!
//! Each entry of `ROWS` is one configuration — figure, generator, scale,
//! ranks, routing topology, partitioning, ghosts per partition, kernel.
//! Every counter it measures prints as one line, `figure generator scale p
//! topology partitioning ghosts counter value`, to stdout and to
//! `paper_rows.csv` under `$HAVOQ_RESULTS` (default `results/`); counters
//! are named `kernel.counter`. No column is wall-clock: on a host whose
//! ranks are threads that measures total work, and `benchmark/` owns it.
//! After the last row the binary checks the paper's shapes
//! (`check_shapes`) and exits non-zero if one fails. It takes no
//! arguments. DESIGN.md §3 maps each figure to its figure id here.

use std::process::ExitCode;

use havoq_bench::{csv_row, Experiment};
use havoq_comm::{CommWorld, RankCtx, TopologyKind};
use havoq_core::algorithms::bfs::{bfs, level_digest, BfsConfig};
use havoq_core::algorithms::kcore::{kcore, KCoreConfig};
use havoq_core::algorithms::triangle::{triangle_count, TriangleConfig};
use havoq_core::algorithms::wedge::approx_clustering;
use havoq_core::queue::{TraversalConfig, TraversalStats};
use havoq_core::rounds;
use havoq_graph::analysis::DegreeCensus;
use havoq_graph::csr::{CsrStorageSnapshot, GraphConfig};
use havoq_graph::dist::{DistGraph, PartitionStrategy};
use havoq_graph::gen::pa::PaGenerator;
use havoq_graph::gen::rmat::RmatGenerator;
use havoq_graph::gen::smallworld::SmallWorldGenerator;
use havoq_graph::partition::{
    grid_dims, imbalance, one_d_partition, partition_histogram, two_d_partition,
};
use havoq_graph::types::{Edge, VertexId};
use havoq_nvram::{DeviceProfile, PageCacheConfig};

use Gen::*;
use Kernel::*;
use Part::*;
use TopologyKind::{Direct, Routed2D, Routed3D};

/// Generator seed of every row.
const SEED: u64 = 42;
/// Section VI-D: model rounds stay within this factor of their bound, the
/// factor `rounds.rs`'s own tests use.
const ROUND_FACTOR: f64 = 4.0;
/// Figs. 2 and 12: the most edge-list storage imbalance allowed.
const EDGE_LIST_IMBALANCE: f64 = 1.01;
/// fig08: the least raw/encoded ratio of the compressed CSR.
const MIN_COMPRESSION: f64 = 2.0;
/// Sample budgets of the wedge row.
const WEDGE_SAMPLES: [u64; 4] = [1_000, 10_000, 100_000, 1_000_000];
/// Orders of the k-core rows: the paper's cores 4, 16 and 64.
const CORES: [u64; 3] = [4, 16, 64];

/// Graph family of a row; each has `2^scale` vertices.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Gen {
    /// Graph500 RMAT, edge factor 16.
    Rmat,
    /// Ring lattice of uniform degree, each edge rewired with probability
    /// `rewire`.
    SmallWorld { degree: u64, rewire: f64 },
    /// Preferential attachment, 8 edges per vertex, then a random rewire.
    Pa { rewire: f64 },
    /// Vertex 0 joined to every other vertex: the hub pathology behind the
    /// Section VI-D `d_in` term.
    Star,
}

impl Gen {
    fn label(self) -> String {
        match self {
            Rmat => "rmat".into(),
            SmallWorld { degree, rewire } => format!("sw{degree}-{rewire}"),
            Pa { rewire } => format!("pa8-{rewire}"),
            Star => "star".into(),
        }
    }

    /// Rank `rank` of `p`'s slice of the directed edge list plus its
    /// reversals; at `p = 1`, the whole symmetric list.
    fn edges(self, scale: u32, rank: usize, p: usize) -> Vec<Edge> {
        let n = 1u64 << scale;
        let slice = |all: Vec<Edge>| all[all.len() * rank / p..all.len() * (rank + 1) / p].to_vec();
        let mut local = match self {
            Rmat => RmatGenerator::graph500(scale).edges_for_rank(SEED, rank, p),
            SmallWorld { degree, rewire } => SmallWorldGenerator::new(n, degree)
                .with_rewire(rewire)
                .edges_for_rank(SEED, rank, p),
            Pa { rewire } => slice(PaGenerator::new(n, 8).with_rewire(rewire).edges(SEED)),
            Star => slice((1..n).map(|v| Edge::new(v, 0)).collect()),
        };
        local.extend(local.clone().iter().filter(|e| !e.is_self_loop()).map(|e| e.reversed()));
        local
    }
}

/// Partitioning of a row. `TwoD` is only modelled, never built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Part {
    EdgeList,
    OneD,
    TwoD,
}

impl Part {
    fn label(self) -> &'static str {
        match self {
            EdgeList => "edge-list",
            OneD => "1d",
            TwoD => "2d",
        }
    }
}

/// What a row runs. The `Ext*` kernels demand-page the CSR targets through
/// a cache of this many KiB per rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// Degree census of the directed RMAT edge list (no world).
    Census,
    /// Edges and in-memory state per partition of the directed RMAT edge
    /// list under the row's partitioning (no world).
    Partition,
    /// Section VI-D round models and their bounds (no world).
    Rounds,
    /// Asynchronous BFS from vertex 0 over in-memory CSR.
    Bfs,
    /// BFS over raw `u64` targets behind the page cache.
    Ext(usize),
    /// BFS over varint gap-compressed targets behind the page cache.
    ExtComp(usize),
    /// `Ext` with equal-priority visitors in arrival order: the Section
    /// V-A locality ablation.
    ExtArrival(usize),
    /// k-core decomposition at every order in `CORES`.
    KCore,
    /// Exact triangle count.
    Triangles,
    /// Wedge-sampling estimates at every budget in `WEDGE_SAMPLES`.
    Wedge,
}

impl Kernel {
    fn label(self) -> &'static str {
        match self {
            Census => "census",
            Partition => "partition",
            Rounds => "rounds",
            Bfs => "bfs",
            Ext(_) => "bfs-ext",
            ExtComp(_) => "bfs-extcomp",
            ExtArrival(_) => "bfs-ext-arrival",
            KCore => "kcore",
            Triangles => "tri",
            Wedge => "wedge",
        }
    }
}

/// One configuration of the table.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Row {
    figure: &'static str,
    gen: Gen,
    scale: u32,
    p: usize,
    topology: TopologyKind,
    part: Part,
    ghosts: usize,
    kernel: Kernel,
}

/// A row on the direct topology; [`Row::on`] routes it.
const fn r(
    figure: &'static str,
    gen: Gen,
    scale: u32,
    p: usize,
    part: Part,
    ghosts: usize,
    kernel: Kernel,
) -> Row {
    Row { figure, gen, scale, p, topology: Direct, part, ghosts, kernel }
}

impl Row {
    const fn on(self, topology: TopologyKind) -> Row {
        Row { topology, ..self }
    }
}

const fn sw(degree: u64, rewire: f64) -> Gen {
    SmallWorld { degree, rewire }
}

/// The table. Weak-scaling rows keep vertices per rank fixed, so their
/// scale grows with log2 p. Worlds run at p ≤ 64; the world-free models
/// go to 512.
#[rustfmt::skip]
static ROWS: &[Row] = &[
    // Fig. 1: hub growth with scale
    r("fig01", Rmat, 12, 1, EdgeList, 0, Census),
    r("fig01", Rmat, 14, 1, EdgeList, 0, Census),
    r("fig01", Rmat, 16, 1, EdgeList, 0, Census),
    r("fig01", Rmat, 18, 1, EdgeList, 0, Census),
    r("fig01", Rmat, 20, 1, EdgeList, 0, Census),
    // Fig. 2: partition imbalance, 2^12 vertices per partition, from p = 4
    // (at p = 2 the 2D grid is 1 x 2, a 1D split by destination)
    r("fig02", Rmat, 14, 4, OneD, 0, Partition),
    r("fig02", Rmat, 14, 4, TwoD, 0, Partition),
    r("fig02", Rmat, 14, 4, EdgeList, 0, Partition),
    r("fig02", Rmat, 16, 16, OneD, 0, Partition),
    r("fig02", Rmat, 16, 16, TwoD, 0, Partition),
    r("fig02", Rmat, 16, 16, EdgeList, 0, Partition),
    r("fig02", Rmat, 18, 64, OneD, 0, Partition),
    r("fig02", Rmat, 18, 64, TwoD, 0, Partition),
    r("fig02", Rmat, 18, 64, EdgeList, 0, Partition),
    r("fig02", Rmat, 20, 256, OneD, 0, Partition),
    r("fig02", Rmat, 20, 256, TwoD, 0, Partition),
    r("fig02", Rmat, 20, 256, EdgeList, 0, Partition),
    // Figs. 4 and 5: BFS weak scaling, 2^10 vertices per rank; 3D routing
    // at every p, direct and 2D routing at p = 8 and 64
    r("fig05", Rmat, 10, 1, EdgeList, 256, Bfs).on(Routed3D),
    r("fig05", Rmat, 11, 2, EdgeList, 256, Bfs).on(Routed3D),
    r("fig05", Rmat, 12, 4, EdgeList, 256, Bfs).on(Routed3D),
    r("fig05", Rmat, 13, 8, EdgeList, 256, Bfs).on(Routed3D),
    r("fig05", Rmat, 14, 16, EdgeList, 256, Bfs).on(Routed3D),
    r("fig05", Rmat, 15, 32, EdgeList, 256, Bfs).on(Routed3D),
    r("fig05", Rmat, 16, 64, EdgeList, 256, Bfs).on(Routed3D),
    r("fig05", Rmat, 13, 8, EdgeList, 256, Bfs),
    r("fig05", Rmat, 16, 64, EdgeList, 256, Bfs),
    r("fig05", Rmat, 13, 8, EdgeList, 256, Bfs).on(Routed2D),
    r("fig05", Rmat, 16, 64, EdgeList, 256, Bfs).on(Routed2D),
    // Fig. 6: k-core weak scaling, 2^9 vertices per rank
    r("fig06", Rmat, 9, 1, EdgeList, 0, KCore),
    r("fig06", Rmat, 11, 4, EdgeList, 0, KCore),
    r("fig06", Rmat, 13, 16, EdgeList, 0, KCore),
    // Fig. 7: triangle weak scaling on small worlds, 2^8 vertices per rank
    r("fig07", sw(16, 0.0), 8, 1, EdgeList, 0, Triangles),
    r("fig07", sw(16, 0.1), 8, 1, EdgeList, 0, Triangles),
    r("fig07", sw(16, 0.3), 8, 1, EdgeList, 0, Triangles),
    r("fig07", sw(16, 0.0), 12, 16, EdgeList, 0, Triangles),
    r("fig07", sw(16, 0.1), 12, 16, EdgeList, 0, Triangles),
    r("fig07", sw(16, 0.3), 12, 16, EdgeList, 0, Triangles),
    // Fig. 8: external-memory BFS weak scaling, 2^12 vertices per rank,
    // cache = 1/8 of a rank's raw targets
    r("fig08", Rmat, 12, 1, EdgeList, 256, Ext(128)),
    r("fig08", Rmat, 12, 1, EdgeList, 256, ExtComp(128)),
    r("fig08", Rmat, 14, 4, EdgeList, 256, Ext(128)),
    r("fig08", Rmat, 14, 4, EdgeList, 256, ExtComp(128)),
    r("fig08", Rmat, 16, 16, EdgeList, 256, Ext(128)),
    r("fig08", Rmat, 16, 16, EdgeList, 256, ExtComp(128)),
    // Fig. 9: 32x the data on fixed compute; the cache holds the scale-11
    // graph's raw targets
    r("fig09", Rmat, 11, 2, EdgeList, 256, Ext(256)),
    r("fig09", Rmat, 11, 2, EdgeList, 256, ExtComp(256)),
    r("fig09", Rmat, 13, 2, EdgeList, 256, Ext(256)),
    r("fig09", Rmat, 13, 2, EdgeList, 256, ExtComp(256)),
    r("fig09", Rmat, 16, 2, EdgeList, 256, Ext(256)),
    r("fig09", Rmat, 16, 2, EdgeList, 256, ExtComp(256)),
    // Fig. 10: diameter against BFS depth on fixed size and compute
    r("fig10", sw(16, 0.0001), 15, 4, EdgeList, 256, Bfs),
    r("fig10", sw(16, 0.001), 15, 4, EdgeList, 256, Bfs),
    r("fig10", sw(16, 0.01), 15, 4, EdgeList, 256, Bfs),
    r("fig10", sw(16, 0.1), 15, 4, EdgeList, 256, Bfs),
    r("fig10", sw(16, 0.3), 15, 4, EdgeList, 256, Bfs),
    // Fig. 11: max degree against triangle work on fixed size and compute
    r("fig11", Pa { rewire: 0.0 }, 13, 4, EdgeList, 0, Triangles),
    r("fig11", Pa { rewire: 0.1 }, 13, 4, EdgeList, 0, Triangles),
    r("fig11", Pa { rewire: 0.3 }, 13, 4, EdgeList, 0, Triangles),
    r("fig11", Pa { rewire: 1.0 }, 13, 4, EdgeList, 0, Triangles),
    // Fig. 12: edge-list against 1D partitioning, 2^11 vertices per rank
    r("fig12", Rmat, 13, 4, EdgeList, 256, Bfs),
    r("fig12", Rmat, 13, 4, OneD, 256, Bfs),
    r("fig12", Rmat, 15, 16, EdgeList, 256, Bfs),
    r("fig12", Rmat, 15, 16, OneD, 256, Bfs),
    r("fig12", Rmat, 16, 32, EdgeList, 256, Bfs),
    r("fig12", Rmat, 16, 32, OneD, 256, Bfs),
    // Fig. 13: ghosts per partition, on a graph the per-vertex filter
    // covers (2^14) and on one it does not (2^18)
    r("fig13", Rmat, 14, 8, EdgeList, 0, Bfs),
    r("fig13", Rmat, 14, 8, EdgeList, 1, Bfs),
    r("fig13", Rmat, 14, 8, EdgeList, 16, Bfs),
    r("fig13", Rmat, 14, 8, EdgeList, 256, Bfs),
    r("fig13", Rmat, 14, 8, EdgeList, 512, Bfs),
    r("fig13", Rmat, 18, 8, EdgeList, 0, Bfs),
    r("fig13", Rmat, 18, 8, EdgeList, 1, Bfs),
    r("fig13", Rmat, 18, 8, EdgeList, 16, Bfs),
    r("fig13", Rmat, 18, 8, EdgeList, 256, Bfs),
    r("fig13", Rmat, 18, 8, EdgeList, 512, Bfs),
    // Section VI-D: round models and their bounds
    r("analysis_rounds", Rmat, 9, 8, EdgeList, 0, Rounds),
    r("analysis_rounds", Rmat, 9, 512, EdgeList, 0, Rounds),
    r("analysis_rounds", sw(8, 0.01), 9, 8, EdgeList, 0, Rounds),
    r("analysis_rounds", sw(8, 0.01), 9, 512, EdgeList, 0, Rounds),
    r("analysis_rounds", Star, 9, 8, EdgeList, 0, Rounds),
    r("analysis_rounds", Star, 9, 512, EdgeList, 0, Rounds),
    // Section VIII-A: 2D blocks go hypersparse, edge-list partitions do not
    r("analysis_hypersparse", Rmat, 18, 16, TwoD, 0, Partition),
    r("analysis_hypersparse", Rmat, 18, 16, EdgeList, 0, Partition),
    r("analysis_hypersparse", Rmat, 18, 64, TwoD, 0, Partition),
    r("analysis_hypersparse", Rmat, 18, 256, TwoD, 0, Partition),
    r("analysis_hypersparse", Rmat, 18, 512, TwoD, 0, Partition),
    r("analysis_hypersparse", Rmat, 18, 512, EdgeList, 0, Partition),
    // wedge sampling against the exact triangle count
    r("analysis_wedge", Rmat, 12, 4, EdgeList, 0, Wedge),
    // Section V-A: vertex-id against arrival order at p = 1, where device
    // reads repeat exactly; cache = 1/16 of the raw targets
    r("ablation_locality", Rmat, 14, 1, EdgeList, 256, Ext(256)),
    r("ablation_locality", Rmat, 14, 1, EdgeList, 256, ExtArrival(256)),
];

/// A kernel's counters, named without the kernel prefix.
type Counters = Vec<(String, f64)>;

fn counters<const N: usize>(named: [(&str, f64); N]) -> Counters {
    named.into_iter().map(|(name, v)| (name.to_string(), v)).collect()
}

fn run(row: &Row) -> Counters {
    match row.kernel {
        Census => census(row.scale),
        Partition => partition(row),
        Rounds => round_models(row),
        Bfs | Ext(_) | ExtComp(_) | ExtArrival(_) => bfs_row(row),
        KCore => kcore_row(row),
        Triangles => triangle_row(row),
        Wedge => wedge_row(row),
    }
}

fn census(scale: u32) -> Counters {
    let gen = RmatGenerator::graph500(scale);
    // streaming census: no edge list materialized
    let c = DegreeCensus::from_edges(gen.num_vertices(), gen.edges_range(SEED, 0..gen.num_edges()));
    let mut out = counters([("max_degree", c.max_degree() as f64)]);
    for t in [256, 1_000, 10_000] {
        out.push((format!("edges_deg_ge_{t}"), c.edges_on_hubs(t) as f64));
    }
    out
}

/// In-memory state per partition is a vertex block under 1D, a row block
/// plus a column block under 2D, and the vertex range plus at most two
/// split replicas under edge-list. A partition holding fewer edges than
/// state entries is hypersparse (Section VIII-A).
fn partition(row: &Row) -> Counters {
    let gen = RmatGenerator::graph500(row.scale);
    let (n, m, p) = (gen.num_vertices(), gen.num_edges(), row.p);
    let (rows, cols) = grid_dims(p);
    let edges = || gen.edges_range(SEED, 0..m);
    let (hist, state) = match row.part {
        OneD => (partition_histogram(edges(), p, |e| one_d_partition(e, n, p)), n / p as u64),
        TwoD => (
            partition_histogram(edges(), p, |e| two_d_partition(e, n, rows, cols)),
            n / rows as u64 + n / cols as u64,
        ),
        EdgeList => {
            let even = (0..p as u64).map(|r| m * (r + 1) / p as u64 - m * r / p as u64);
            (even.collect(), n / p as u64 + 2)
        }
    };
    counters([
        ("storage_imbalance", imbalance(&hist)),
        ("state_per_part", state as f64),
        ("hypersparse_parts", hist.iter().filter(|&&edges| edges < state).count() as f64),
        ("state_to_edge_ratio", state as f64 * p as f64 / m as f64),
    ])
}

/// Each model's rounds next to its bound, as `X` and `X_bound`. The
/// `bfs_ghost` model gives every partition a ghost for every vertex; k-core
/// and triangle counting allow no ghosts and keep the `d_in` term.
fn round_models(row: &Row) -> Counters {
    let n = 1u64 << row.scale;
    let edges = row.gen.edges(row.scale, 0, 1);
    let (m, p) = (edges.len() as u64, row.p);
    let d_max = DegreeCensus::undirected_from_edges(n, edges.iter().copied()).max_degree();
    // the model's rounds at unbounded p stand in for the diameter
    let depth = rounds::bfs_rounds(n, &edges, 1 << 20, 0, true).rounds;
    let ghost = rounds::bfs_rounds(n, &edges, p, 0, true);
    counters([
        ("bfs", rounds::bfs_rounds(n, &edges, p, 0, false).rounds as f64),
        ("bfs_bound", rounds::bfs_bound_no_ghosts(depth, m, p, d_max) as f64),
        ("bfs_ghost", ghost.rounds as f64),
        ("bfs_ghost_bound", rounds::bfs_bound_ghosts(depth, m, p) as f64),
        ("ghost_filtered", ghost.ghost_filtered as f64),
        ("kcore", rounds::kcore_rounds(n, &edges, p, 4).rounds as f64),
        ("kcore_bound", rounds::kcore_bound(depth, m, p, d_max) as f64),
        ("tri", rounds::triangle_rounds(n, &edges, p).rounds as f64),
        ("tri_bound", rounds::triangle_bound(m, d_max, p, d_max) as f64),
    ])
}

/// Build the row's graph in a world of `row.p` ranks and run `f` on every
/// rank.
fn world<R: Send>(
    row: &Row,
    cfg: GraphConfig,
    f: impl Fn(&RankCtx, &DistGraph) -> R + Sync,
) -> Vec<R> {
    let strategy =
        if row.part == OneD { PartitionStrategy::OneD } else { PartitionStrategy::EdgeList };
    let cfg = cfg.with_num_vertices(1 << row.scale);
    CommWorld::run(row.p, |ctx| {
        let local = row.gen.edges(row.scale, ctx.rank(), ctx.size());
        f(ctx, &DistGraph::build(ctx, local, strategy, cfg))
    })
}

/// `max / mean` of one value per rank.
fn max_over_mean(per_rank: impl Iterator<Item = u64>) -> f64 {
    let v: Vec<u64> = per_rank.collect();
    let mean = v.iter().sum::<u64>() as f64 / v.len() as f64;
    *v.iter().max().unwrap() as f64 / mean.max(1.0)
}

/// `num / den`, with a zero denominator read as one (its numerator is then
/// zero too).
fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

fn bfs_row(row: &Row) -> Counters {
    // demand paging on a latency-free device: no counter depends on its speed
    let cache = |kib| PageCacheConfig { capacity_pages: kib / 4, ..PageCacheConfig::default() };
    let cfg = match row.kernel {
        Ext(kib) | ExtArrival(kib) => GraphConfig::external(DeviceProfile::dram(), cache(kib)),
        ExtComp(kib) => GraphConfig::external_compressed(DeviceProfile::dram(), cache(kib)),
        _ => GraphConfig::default(),
    };
    // BFS keeps the generator's duplicate edges, as the Graph500 CSR does:
    // edge-list partitioning then splits the edges exactly evenly, and 1D
    // carries the whole hub mass
    let cfg = GraphConfig { dedup: false, ..cfg };
    let mut bcfg = BfsConfig::default().with_ghosts(row.ghosts);
    bcfg.traversal.mailbox.topology = row.topology;
    bcfg.traversal.locality_order = !matches!(row.kernel, ExtArrival(_));
    let out = world(row, cfg, |ctx, g| {
        let r = bfs(ctx, g, VertexId(0), &bcfg);
        let digest = level_digest(g, |li| r.local_state[li].length);
        let device_reads = g.csr().cache().map_or(0, |c| c.device().stats().reads);
        (g.csr().num_edges(), digest, device_reads, r)
    });
    let sum = |f: fn(&TraversalStats) -> u64| out.iter().map(|o| f(&o.3.stats)).sum::<u64>();
    let p = row.p as f64;
    let r0 = &out[0].3;
    let digest = out.iter().fold(0u64, |acc, o| acc.wrapping_add(o.1));
    let waves = out.iter().map(|o| o.3.stats.termination_waves).max().unwrap();
    let mut c = counters([
        ("bfs_depth", r0.max_level as f64),
        ("visitors_per_rank", sum(|s| s.visitors_executed) as f64 / p),
        ("pushed_per_rank", sum(|s| s.visitors_pushed) as f64 / p),
        ("payloads_per_rank", sum(|s| s.payload_sent) as f64 / p),
        ("payload_sent", sum(|s| s.payload_sent) as f64),
        ("ghost_filtered", sum(|s| s.ghost_filtered) as f64),
        ("filtered_frac", ratio(sum(|s| s.ghost_filtered), sum(|s| s.ghost_checked))),
        ("max_channels_used", r0.transport.max_channels_used() as f64),
        ("wire_bytes_per_edge", ratio(sum(|s| s.bytes_sent), r0.traversed_edges)),
        ("termination_waves", waves as f64),
        ("storage_imbalance", max_over_mean(out.iter().map(|o| o.0))),
        ("receive_imbalance", max_over_mean(out.iter().map(|o| o.3.stats.payload_received))),
        // low 52 bits, exact in an f64
        ("level_digest", (digest & ((1 << 52) - 1)) as f64),
    ]);
    if row.kernel != Bfs {
        c.extend(counters([
            ("hit_rate", ratio(sum(|s| s.cache.hits), sum(|s| s.cache.accesses()))),
            ("device_reads", out.iter().map(|o| o.2).sum::<u64>() as f64),
        ]));
    }
    // raw targets take 8 bytes per edge by construction
    if let ExtComp(_) = row.kernel {
        let csr = |f: fn(&CsrStorageSnapshot) -> u64| out.iter().map(|o| f(&o.3.stats.csr)).sum();
        c.extend(counters([
            ("bytes_per_edge", ratio(csr(|s| s.encoded_bytes), csr(|s| s.num_edges))),
            ("compression_ratio", ratio(csr(|s| s.raw_bytes), csr(|s| s.encoded_bytes))),
        ]));
    }
    c
}

fn kcore_row(row: &Row) -> Counters {
    let mut cfg = KCoreConfig::default();
    cfg.traversal.mailbox.topology = row.topology;
    let out = world(row, GraphConfig::default(), |ctx, g| {
        CORES.map(|k| {
            let r = kcore(ctx, g, k, &cfg);
            (r.alive_count, ctx.all_reduce_sum(r.stats.visitors_executed))
        })
    });
    let mut c = Counters::new();
    for (k, (alive, visitors)) in CORES.iter().zip(out[0]) {
        c.push((format!("core_size_k{k}"), alive as f64));
        c.push((format!("visitors_per_rank_k{k}"), visitors as f64 / row.p as f64));
    }
    c
}

fn triangle_row(row: &Row) -> Counters {
    let mut cfg = TriangleConfig::default();
    cfg.traversal.mailbox.topology = row.topology;
    let out = world(row, GraphConfig::default(), |ctx, g| {
        let r = triangle_count(ctx, g, &cfg);
        let masters = g.local_vertices().filter(|&v| g.is_master(v));
        let d_max = masters.map(|v| g.total_degree(v)).max().unwrap_or(0);
        (r.triangles, ctx.all_reduce_sum(r.stats.visitors_executed), ctx.all_reduce_max(d_max))
    });
    let (triangles, visitors, d_max) = out[0];
    counters([
        ("triangles", triangles as f64),
        ("visitors_per_rank", visitors as f64 / row.p as f64),
        ("max_degree", d_max as f64),
    ])
}

fn wedge_row(row: &Row) -> Counters {
    let out = world(row, GraphConfig::default(), |ctx, g| {
        let exact = triangle_count(ctx, g, &TriangleConfig::default());
        let estimates = WEDGE_SAMPLES.map(|samples| {
            let r = approx_clustering(ctx, g, samples, 7, &TraversalConfig::default());
            (r.triangles_estimate, ctx.all_reduce_sum(r.stats.visitors_executed))
        });
        (exact.triangles, ctx.all_reduce_sum(exact.stats.visitors_executed), estimates)
    });
    let (exact, visitors, estimates) = out[0];
    let mut c = counters([("triangles", exact as f64), ("visitors", visitors as f64)]);
    for (samples, (estimate, visitors)) in WEDGE_SAMPLES.iter().zip(estimates) {
        c.push((format!("rel_error_s{samples}"), (estimate - exact as f64).abs() / exact as f64));
        c.push((format!("visitors_s{samples}"), visitors as f64));
    }
    c
}

const COLUMNS: [&str; 9] =
    ["figure", "generator", "scale", "p", "topology", "partitioning", "ghosts", "counter", "value"];

/// One output line: a row and one of its counters.
#[derive(Clone, Debug)]
struct Line {
    row: Row,
    counter: String,
    value: f64,
}

impl Line {
    fn fields(&self) -> [String; 9] {
        let (r, v) = (&self.row, self.value);
        let value = if v.fract() == 0.0 { format!("{v:.0}") } else { format!("{v:.4}") };
        let topology = format!("{:?}", r.topology).to_lowercase();
        let (gen, part) = (r.gen.label(), r.part.label());
        csv_row![r.figure, gen, r.scale, r.p, topology, part, r.ghosts, self.counter, value]
    }
}

/// `counter`'s value in `row`, if `lines` holds it.
fn value(lines: &[Line], row: &Row, counter: &str) -> Option<f64> {
    lines.iter().find(|l| l.row == *row && l.counter == counter).map(|l| l.value)
}

/// Fig. 4: a routed rank uses no channel outside its topology's neighbour
/// set, and from p = 8 fewer than direct routing's p − 1.
fn channels(lines: &[Line]) -> Vec<String> {
    let routed = lines.iter().filter(|l| l.counter.ends_with(".max_channels_used"));
    routed
        .filter(|l| l.row.topology != Direct)
        .filter_map(|l| {
            let (p, topology) = (l.row.p, l.row.topology.build(l.row.p));
            let set = (0..p).map(|r| topology.neighbors(r).len()).max().unwrap_or(0);
            let ok = l.value <= set as f64 && (p < 8 || l.value < (p - 1) as f64);
            (!ok).then(|| {
                format!("{}: neighbour set {set}, p - 1 = {}", l.fields().join(" "), p - 1)
            })
        })
        .collect()
}

/// Figs. 2 and 12: edge-list storage imbalance is at most
/// `EDGE_LIST_IMBALANCE` and, from p = 4, below 1D's; 2D is below 1D.
fn imbalances(lines: &[Line]) -> Vec<String> {
    let storage = lines.iter().filter(|l| l.counter.ends_with(".storage_imbalance"));
    storage
        .filter(|l| matches!(l.row.figure, "fig02" | "fig12"))
        .filter_map(|l| {
            let one_d = value(lines, &Row { part: OneD, ..l.row }, &l.counter);
            let below_one_d = one_d.is_some_and(|d| l.value < d);
            let ok = match l.row.part {
                EdgeList => l.value <= EDGE_LIST_IMBALANCE && (l.row.p < 4 || below_one_d),
                TwoD => below_one_d,
                OneD => true,
            };
            (!ok).then(|| format!("{}: 1D row has {one_d:?}", l.fields().join(" ")))
        })
        .collect()
}

/// Fig. 13: every row with ghosts reaches the k = 0 row's BFS levels and
/// sends no more payloads than it.
fn ghosts(lines: &[Line]) -> Vec<String> {
    let digests = lines.iter().filter(|l| l.counter == "bfs.level_digest");
    digests
        .filter(|l| l.row.figure == "fig13" && l.row.ghosts > 0)
        .filter_map(|l| {
            let k0 = Row { ghosts: 0, ..l.row };
            let same_levels = value(lines, &k0, &l.counter) == Some(l.value);
            let sent = value(lines, &l.row, "bfs.payload_sent");
            let sent_k0 = value(lines, &k0, "bfs.payload_sent");
            let no_more = matches!((sent, sent_k0), (Some(s), Some(s0)) if s <= s0);
            (!(same_levels && no_more)).then(|| {
                format!("{}: payloads {sent:?}, k = 0 sent {sent_k0:?}", l.fields().join(" "))
            })
        })
        .collect()
}

/// Section VI-D: every model's rounds `X` stay within `ROUND_FACTOR` times
/// its bound `X_bound`.
fn round_bounds(lines: &[Line]) -> Vec<String> {
    let bounds = lines.iter().filter_map(|l| Some((l, l.counter.strip_suffix("_bound")?)));
    bounds
        .filter_map(|(l, name)| {
            let rounds = value(lines, &l.row, name);
            let ok = rounds.is_some_and(|r| r <= ROUND_FACTOR * l.value);
            (!ok).then(|| format!("{}: {name} = {rounds:?}", l.fields().join(" ")))
        })
        .collect()
}

/// fig08: the compressed CSR fits at least `MIN_COMPRESSION` times the
/// edges per cache byte.
fn compression(lines: &[Line]) -> Vec<String> {
    let ratios = lines.iter().filter(|l| l.counter.ends_with(".compression_ratio"));
    ratios
        .filter(|l| l.value < MIN_COMPRESSION)
        .map(|l| format!("{}: below {MIN_COMPRESSION}x", l.fields().join(" ")))
        .collect()
}

/// Every shape the paper claims, as failure messages (empty: all hold).
fn check_shapes(lines: &[Line]) -> Vec<String> {
    [channels(lines), imbalances(lines), ghosts(lines), round_bounds(lines), compression(lines)]
        .concat()
}

fn main() -> ExitCode {
    let banner =
        "The paper's figures as machine-independent counters, one line per row and counter";
    let mut exp = Experiment::begin(&[banner], "paper_rows.csv", &COLUMNS);
    let mut lines = Vec::new();
    for row in ROWS {
        for (counter, value) in run(row) {
            let counter = format!("{}.{counter}", row.kernel.label());
            let line = Line { row: *row, counter, value };
            exp.row(&line.fields());
            lines.push(line);
        }
    }
    let failed = check_shapes(&lines);
    exp.finish(&["Shapes: Fig. 4, Figs. 2/12, Fig. 13, Section VI-D, fig08 compression."]);
    for f in &failed {
        eprintln!("shape failed: {f}");
    }
    if !failed.is_empty() {
        return ExitCode::FAILURE;
    }
    println!("all shapes hold");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(row: Row, counter: &str, value: f64) -> Line {
        Line { row, counter: counter.into(), value }
    }

    /// A checker that can never fail gates nothing: each check accepts a
    /// set of rows that holds its shape and rejects one that breaks it.
    #[test]
    fn every_shape_check_rejects_a_violation() {
        // a 4 x 4 grid gives each rank 6 neighbours
        let routed = r("fig05", Rmat, 14, 16, EdgeList, 256, Bfs).on(Routed2D);
        assert!(channels(&[line(routed, "bfs.max_channels_used", 6.0)]).is_empty());
        assert_eq!(channels(&[line(routed, "bfs.max_channels_used", 7.0)]).len(), 1);

        let fig02 = |part, v| {
            line(r("fig02", Rmat, 14, 4, part, 0, Partition), "partition.storage_imbalance", v)
        };
        assert!(imbalances(&[fig02(OneD, 1.5), fig02(TwoD, 1.2), fig02(EdgeList, 1.0)]).is_empty());
        let bad = [fig02(OneD, 1.5), fig02(TwoD, 1.6), fig02(EdgeList, 1.02)];
        assert_eq!(imbalances(&bad).len(), 2, "2D above 1D, edge-list above 1.01");

        let fig13 = |k, digest, sent| {
            let row = r("fig13", Rmat, 14, 8, EdgeList, k, Bfs);
            [line(row, "bfs.level_digest", digest), line(row, "bfs.payload_sent", sent)]
        };
        assert!(ghosts(&[fig13(0, 7.0, 100.0), fig13(16, 7.0, 10.0)].concat()).is_empty());
        assert_eq!(ghosts(&[fig13(0, 7.0, 100.0), fig13(16, 8.0, 10.0)].concat()).len(), 1);
        assert_eq!(ghosts(&[fig13(0, 7.0, 100.0), fig13(16, 7.0, 101.0)].concat()).len(), 1);

        let model = r("analysis_rounds", Rmat, 9, 8, EdgeList, 0, Rounds);
        let rounds = |r| [line(model, "rounds.bfs", r), line(model, "rounds.bfs_bound", 10.0)];
        assert!(round_bounds(&rounds(40.0)).is_empty());
        assert_eq!(round_bounds(&rounds(41.0)).len(), 1);

        let comp = r("fig08", Rmat, 12, 1, EdgeList, 256, ExtComp(128));
        assert!(compression(&[line(comp, "bfs-extcomp.compression_ratio", 2.5)]).is_empty());
        assert_eq!(compression(&[line(comp, "bfs-extcomp.compression_ratio", 1.9)]).len(), 1);

        let all_bad = [
            vec![line(routed, "bfs.max_channels_used", 15.0)],
            bad.to_vec(),
            [fig13(0, 7.0, 100.0), fig13(16, 8.0, 10.0)].concat(),
            rounds(41.0).to_vec(),
            vec![line(comp, "bfs-extcomp.compression_ratio", 1.9)],
        ]
        .concat();
        assert_eq!(check_shapes(&all_bad).len(), 6);
    }

    #[test]
    fn worlds_stay_at_or_below_64_ranks() {
        for row in ROWS {
            let world_free = matches!(row.kernel, Census | Partition | Rounds);
            assert!(row.p <= if world_free { 512 } else { 64 }, "{row:?}");
            assert!(world_free || row.part != TwoD, "2D is only modelled: {row:?}");
        }
    }
}
