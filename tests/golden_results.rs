//! Golden-result tests: three small fixed graphs with hand-computed
//! answers, exercised at 1, 2 and 7 ranks (p > n included on purpose —
//! ranks with no master vertices must still participate correctly).
//!
//! - `P8`, the path 0–1–…–7: unique shortest paths, so even BFS *parents*
//!   are schedule-independent and asserted exactly.
//! - `K6`, the 6-clique: maximal redundancy; every non-source parent is
//!   the source, triangle count is C(6,3) = 20, degeneracy is 5.
//! - RMAT-tiny, `RmatGenerator::graph500(4)` seed 7: a fixed scale-free
//!   multigraph whose goldens were frozen from the serial references
//!   (union-find components, peeling k-core, set-intersection triangles)
//!   that the unit suites already validate the distributed algorithms
//!   against on larger inputs.
//!
//! BFS parents on the clique and RMAT graphs are checked structurally via
//! the paper's validation visitors (`validate_bfs`) — first-arrival-wins
//! makes the specific parent schedule-dependent.

use havoq::prelude::*;
use havoq_comm::FaultConfig;
use havoq_core::algorithms::bfs::UNREACHED;
use havoq_core::algorithms::cc::{connected_components, CcConfig};
use havoq_core::algorithms::kcore::{kcore, KCoreConfig};
use havoq_core::algorithms::sssp::{sssp, SsspConfig};
use havoq_core::CheckpointSpec;

const RANKS: [usize; 3] = [1, 2, 7];

/// Symmetrize an undirected edge list given as (a, b) pairs.
fn sym(pairs: &[(u64, u64)]) -> Vec<Edge> {
    pairs.iter().flat_map(|&(a, b)| [Edge::new(a, b), Edge::new(b, a)]).collect()
}

/// Everything the goldens pin down, in canonical vertex order.
#[derive(Debug, PartialEq, Eq)]
struct Suite {
    bfs_visited: u64,
    bfs_max_level: u64,
    /// (vertex, level, parent) per vertex; `UNREACHED` where BFS never got.
    bfs_state: Vec<(u64, u64, u64)>,
    cc_components: u64,
    /// (vertex, min-id component label).
    cc_labels: Vec<(u64, u64)>,
    /// Alive count per probed k, in the order of `ks`.
    kcore_alive: Vec<u64>,
    triangles: u64,
}

/// Gather `(vertex, a, b)` for all master vertices into canonical order.
fn gather2(
    ctx: &havoq_comm::RankCtx,
    g: &DistGraph,
    mut f: impl FnMut(usize) -> (u64, u64),
) -> Vec<(u64, u64, u64)> {
    let local: Vec<(u64, u64, u64)> = g
        .local_vertices()
        .filter(|&v| g.is_master(v))
        .map(|v| {
            let (a, b) = f(g.local_index(v));
            (v.0, a, b)
        })
        .collect();
    let mut all: Vec<(u64, u64, u64)> = ctx.all_gather(local).into_iter().flatten().collect();
    all.sort_unstable();
    all
}

/// Run the whole suite on `p` ranks and collapse to one world-agreed value.
fn run_suite(p: usize, edges: &[Edge], n: u64, source: u64, ks: &[u64]) -> Suite {
    let ks = ks.to_vec();
    let mut out = CommWorld::run(p, |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            edges,
            PartitionStrategy::EdgeList,
            GraphConfig::default().with_num_vertices(n),
        );

        let b = bfs(ctx, &g, VertexId(source), &BfsConfig::default());
        let report = validate_bfs(ctx, &g, VertexId(source), &b.local_state);
        assert!(report.is_valid(), "bfs parents/levels invalid: {report:?}");
        let bfs_state = gather2(ctx, &g, |li| (b.local_state[li].length, b.local_state[li].parent));

        let c = connected_components(ctx, &g, &CcConfig::default());
        let cc_labels: Vec<(u64, u64)> = gather2(ctx, &g, |li| (c.local_state[li].component, 0))
            .into_iter()
            .map(|(v, l, _)| (v, l))
            .collect();

        let kcore_alive: Vec<u64> =
            ks.iter().map(|&k| kcore(ctx, &g, k, &KCoreConfig::default()).alive_count).collect();

        let t = triangle_count(ctx, &g, &TriangleConfig::default());

        Suite {
            bfs_visited: b.visited_count,
            bfs_max_level: b.max_level,
            bfs_state,
            cc_components: c.num_components,
            cc_labels,
            kcore_alive,
            triangles: t.triangles,
        }
    });
    let first = out.remove(0);
    for s in &out {
        assert_eq!(*s, first, "ranks disagree on gathered results");
    }
    first
}

/// The five algorithms' deterministic outputs, for restart-equivalence
/// comparisons. BFS *parents* are deliberately absent: first-arrival-wins
/// makes them schedule-dependent even between two fault-free runs (the
/// module docs note this), so they are validated structurally via
/// `validate_bfs` instead; levels, labels, distances and counts are
/// schedule-independent and compared exactly.
#[derive(Debug, PartialEq, Eq)]
struct CkResults {
    bfs_visited: u64,
    bfs_max_level: u64,
    /// (vertex, level) per master vertex, canonical order.
    bfs_levels: Vec<(u64, u64)>,
    cc_components: u64,
    cc_labels: Vec<(u64, u64)>,
    kcore_alive: Vec<u64>,
    /// (vertex, distance) per master vertex, canonical order.
    sssp_dist: Vec<(u64, u64)>,
    triangles: u64,
}

/// [`CkResults`] plus checkpoint/restart bookkeeping. The counters sit
/// outside the equality on purpose: equivalence is about *results*, the
/// counters prove the fault path actually ran.
#[derive(Debug)]
struct CkSuite {
    results: CkResults,
    restores: u64,
    crashes: u64,
}

/// Run the five algorithms (BFS, CC, k-core, SSSP, triangle) with optional
/// checkpointing (`every = Some(..)`) and an optional fault plan.
fn run_ck_suite(
    p: usize,
    edges: &[Edge],
    n: u64,
    source: u64,
    ks: &[u64],
    every: Option<u64>,
    faults: Option<FaultConfig>,
) -> CkSuite {
    let ks = ks.to_vec();
    let spec = every.map(|e| CheckpointSpec::default().with_every(e));
    let mut out = CommWorld::run_with_faults(p, faults, |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            edges,
            PartitionStrategy::EdgeList,
            GraphConfig::default().with_num_vertices(n),
        );
        let mut restores = 0u64;
        let mut crashes = 0u64;
        let mut track = |s: &havoq_core::TraversalStats| {
            restores += s.events[Event::Restore];
            crashes += s.events[Event::Crash];
        };

        let bcfg = BfsConfig { checkpoint: spec, ..Default::default() };
        let b = bfs(ctx, &g, VertexId(source), &bcfg);
        track(&b.stats);
        let report = validate_bfs(ctx, &g, VertexId(source), &b.local_state);
        assert!(report.is_valid(), "bfs parents/levels invalid after restart: {report:?}");
        let bfs_levels: Vec<(u64, u64)> = gather2(ctx, &g, |li| (b.local_state[li].length, 0))
            .into_iter()
            .map(|(v, l, _)| (v, l))
            .collect();

        let c = connected_components(ctx, &g, &CcConfig { checkpoint: spec, ..Default::default() });
        track(&c.stats);
        let cc_labels: Vec<(u64, u64)> = gather2(ctx, &g, |li| (c.local_state[li].component, 0))
            .into_iter()
            .map(|(v, l, _)| (v, l))
            .collect();

        let kcfg = KCoreConfig { checkpoint: spec, ..Default::default() };
        let kcore_alive: Vec<u64> = ks
            .iter()
            .map(|&k| {
                let r = kcore(ctx, &g, k, &kcfg);
                track(&r.stats);
                r.alive_count
            })
            .collect();

        let scfg = SsspConfig { checkpoint: spec, ..Default::default() };
        let s = sssp(ctx, &g, VertexId(source), &scfg);
        track(&s.stats);
        let sssp_dist: Vec<(u64, u64)> = gather2(ctx, &g, |li| (s.local_state[li].distance, 0))
            .into_iter()
            .map(|(v, d, _)| (v, d))
            .collect();

        let t = triangle_count(ctx, &g, &TriangleConfig { checkpoint: spec, ..Default::default() });
        track(&t.stats);

        CkSuite {
            results: CkResults {
                bfs_visited: b.visited_count,
                bfs_max_level: b.max_level,
                bfs_levels,
                cc_components: c.num_components,
                cc_labels,
                kcore_alive,
                sssp_dist,
                triangles: t.triangles,
            },
            restores: ctx.all_reduce_sum(restores),
            crashes: ctx.all_reduce_sum(crashes),
        }
    });
    let first = out.remove(0);
    for s in &out {
        assert_eq!(s.results, first.results, "ranks disagree on gathered results");
    }
    first
}

/// Fault-free checkpointed runs produce exactly the plain-run results —
/// the cut protocol must be invisible when nothing crashes.
#[test]
fn checkpointing_is_result_neutral() {
    let gen = RmatGenerator::graph500(4);
    let edges = gen.symmetric_edges(7);
    let n = gen.num_vertices();
    let ks = [1u64, 2, 3];
    for p in RANKS {
        let plain = run_ck_suite(p, &edges, n, 0, &ks, None, None);
        let ck = run_ck_suite(p, &edges, n, 0, &ks, Some(2), None);
        assert_eq!(ck.results, plain.results, "p={p}");
        assert_eq!((ck.crashes, ck.restores), (0, 0), "p={p}: no faults injected");
    }
}

/// Resume equivalence: crash each rank at each early checkpoint epoch and
/// demand results bit-identical to the fault-free run. A forced crash at
/// an epoch the traversal never reaches is a no-op (the graphs are tiny),
/// so coverage is asserted in aggregate: across the sweep, crashes and
/// restores must both have fired.
#[test]
fn resume_equivalence_after_rank_crashes() {
    let gen = RmatGenerator::graph500(4);
    let rmat = gen.symmetric_edges(7);
    let path = sym(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
    let cases: [(&[Edge], u64, &[u64]); 2] =
        [(&rmat, gen.num_vertices(), &[1, 2, 3]), (&path, 8, &[1, 2])];
    let mut total_crashes = 0u64;
    let mut total_restores = 0u64;
    for (edges, n, ks) in cases {
        for p in RANKS {
            let golden = run_ck_suite(p, edges, n, 0, ks, None, None);
            for victim in 0..p {
                for epoch in 1..=2u64 {
                    let faults = FaultConfig::quiet(11).with_forced_crash(victim, epoch);
                    let got = run_ck_suite(p, edges, n, 0, ks, Some(1), Some(faults));
                    assert_eq!(
                        got.results, golden.results,
                        "p={p} victim={victim} epoch={epoch}: resumed run diverged"
                    );
                    total_crashes += got.crashes;
                    total_restores += got.restores;
                }
            }
        }
    }
    assert!(total_crashes > 0, "crash sweep never tore an epoch");
    assert!(total_restores >= total_crashes, "every crash must trigger a world-wide restore");
}

#[test]
fn golden_path_p8() {
    // 0-1-2-3-4-5-6-7: levels are vertex ids, parents are predecessors
    // (unique shortest paths make the parents themselves golden).
    let edges = sym(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
    let want = Suite {
        bfs_visited: 8,
        bfs_max_level: 7,
        bfs_state: (0..8u64).map(|v| (v, v, v.saturating_sub(1))).collect(),
        cc_components: 1,
        cc_labels: (0..8).map(|v| (v, 0)).collect(),
        // every vertex survives k=1; k=2 collapses the whole path
        // (cascading removal from both endpoints) — degeneracy 1
        kcore_alive: vec![8, 0],
        triangles: 0,
    };
    for p in RANKS {
        assert_eq!(run_suite(p, &edges, 8, 0, &[1, 2]), want, "p={p}");
    }
}

#[test]
fn golden_clique_k6() {
    let mut pairs = Vec::new();
    for a in 0..6u64 {
        for b in (a + 1)..6 {
            pairs.push((a, b));
        }
    }
    let edges = sym(&pairs);
    let want = Suite {
        bfs_visited: 6,
        bfs_max_level: 1,
        // every non-source vertex is at level 1 with the source as its only
        // possible parent
        bfs_state: (0..6).map(|v| (v, u64::from(v != 0), 0)).collect(),
        cc_components: 1,
        cc_labels: (0..6).map(|v| (v, 0)).collect(),
        // the clique is its own 5-core; no 6-core exists — degeneracy 5
        kcore_alive: vec![6, 6, 0],
        triangles: 20, // C(6,3)
    };
    for p in RANKS {
        assert_eq!(run_suite(p, &edges, 6, 0, &[1, 5, 6]), want, "p={p}");
    }
}

#[test]
fn golden_rmat_tiny() {
    let gen = RmatGenerator::graph500(4);
    let edges = gen.symmetric_edges(7);
    let n = gen.num_vertices();
    assert_eq!(n, 16);
    for p in RANKS {
        let got = run_suite(p, &edges, n, 0, &[1, 2, 3]);
        // frozen from the serial references (see module docs)
        assert_eq!(got.bfs_visited, GOLDEN_BFS_VISITED, "p={p}");
        assert_eq!(got.bfs_max_level, GOLDEN_BFS_MAX_LEVEL, "p={p}");
        let levels: Vec<(u64, u64)> = got.bfs_state.iter().map(|&(v, l, _)| (v, l)).collect();
        assert_eq!(levels, GOLDEN_BFS_LEVELS.to_vec(), "p={p}");
        // parents are schedule-dependent: validated inside run_suite, and
        // every reached non-source vertex must have a reached parent
        for &(v, l, parent) in &got.bfs_state {
            if l != UNREACHED && v != 0 {
                assert!(
                    GOLDEN_BFS_LEVELS.iter().any(|&(pv, pl)| pv == parent && pl == l - 1),
                    "p={p}: vertex {v} has parent {parent} not one level up"
                );
            }
        }
        assert_eq!(got.cc_components, GOLDEN_CC_COMPONENTS, "p={p}");
        assert_eq!(got.cc_labels, GOLDEN_CC_LABELS.to_vec(), "p={p}");
        assert_eq!(got.kcore_alive, GOLDEN_KCORE_ALIVE.to_vec(), "p={p}");
        assert_eq!(got.triangles, GOLDEN_TRIANGLES, "p={p}");
    }
}

// ---- frozen goldens for RmatGenerator::graph500(4), symmetric seed 7 ----

const GOLDEN_BFS_VISITED: u64 = 16;
const GOLDEN_BFS_MAX_LEVEL: u64 = 2;
const GOLDEN_BFS_LEVELS: [(u64, u64); 16] = [
    (0, 0),
    (1, 1),
    (2, 2),
    (3, 2),
    (4, 1),
    (5, 1),
    (6, 2),
    (7, 1),
    (8, 1),
    (9, 2),
    (10, 1),
    (11, 2),
    (12, 2),
    (13, 1),
    (14, 1),
    (15, 1),
];
const GOLDEN_CC_COMPONENTS: u64 = 1;
const GOLDEN_CC_LABELS: [(u64, u64); 16] = [
    (0, 0),
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 0),
    (12, 0),
    (13, 0),
    (14, 0),
    (15, 0),
];
const GOLDEN_KCORE_ALIVE: [u64; 3] = [16, 16, 15];
const GOLDEN_TRIANGLES: u64 = 85;
