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
//!
//! The `golden` rows of the test matrix (`havoq::testing::ROWS`) run the
//! suite on RMAT-tiny and `P8` checkpointed, fault-free and across every
//! early (victim, epoch) crash, against the plain run.

use havoq::prelude::*;
use havoq::testing::{gather_state, run_row, Graph};
use havoq_core::algorithms::bfs::UNREACHED;
use havoq_core::algorithms::cc::{connected_components, CcConfig};
use havoq_core::algorithms::kcore::{kcore, KCoreConfig};

const RANKS: [usize; 3] = [1, 2, 7];

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

/// Run the whole suite on `p` ranks from vertex 0 and collapse to one
/// world-agreed value.
fn run_suite(p: usize, edges: &[Edge], n: u64, ks: &[u64]) -> Suite {
    let mut out = CommWorld::run(p, |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            edges,
            PartitionStrategy::EdgeList,
            GraphConfig::default().with_num_vertices(n),
        );

        let b = bfs(ctx, &g, VertexId(0), &BfsConfig::default());
        let report = validate_bfs(ctx, &g, VertexId(0), &b.local_state);
        assert!(report.is_valid(), "bfs parents/levels invalid: {report:?}");
        let levels = gather_state(ctx, &g, |li| b.local_state[li].length);
        let parents = gather_state(ctx, &g, |li| b.local_state[li].parent);
        let bfs_state = levels.into_iter().zip(parents).map(|((v, l), (_, p))| (v, l, p));

        let c = connected_components(ctx, &g, &CcConfig::default());

        let kcore_alive: Vec<u64> =
            ks.iter().map(|&k| kcore(ctx, &g, k, &KCoreConfig::default()).alive_count).collect();

        let t = triangle_count(ctx, &g, &TriangleConfig::default());

        Suite {
            bfs_visited: b.visited_count,
            bfs_max_level: b.max_level,
            bfs_state: bfs_state.collect(),
            cc_components: c.num_components,
            cc_labels: gather_state(ctx, &g, |li| c.local_state[li].component),
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

/// The suite with checkpointing on, fault-free: results equal plain runs.
#[test]
fn checkpointing_is_result_neutral() {
    run_row("checkpointing_is_result_neutral");
}

/// Crash each rank at each early checkpoint epoch on RMAT-tiny and `P8`
/// and demand results bit-identical to the fault-free run. A forced crash
/// at an epoch the traversal never reaches is a no-op (the graphs are
/// tiny), so coverage is asserted over the row: some crash fired.
#[test]
fn resume_equivalence_after_rank_crashes() {
    run_row("resume_equivalence_after_rank_crashes");
}

#[test]
fn golden_path_p8() {
    // 0-1-2-3-4-5-6-7: levels are vertex ids, parents are predecessors
    // (unique shortest paths make the parents themselves golden).
    let (edges, n) = Graph::Path8.edges();
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
        assert_eq!(run_suite(p, &edges, n, Graph::Path8.kcore_ks()), want, "p={p}");
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
    let edges: Vec<Edge> =
        pairs.iter().flat_map(|&(a, b)| [Edge::new(a, b), Edge::new(b, a)]).collect();
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
        assert_eq!(run_suite(p, &edges, 6, &[1, 5, 6]), want, "p={p}");
    }
}

#[test]
fn golden_rmat_tiny() {
    let (edges, n) = Graph::Tiny.edges();
    assert_eq!(n, 16);
    for p in RANKS {
        let got = run_suite(p, &edges, n, Graph::Tiny.kcore_ks());
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
