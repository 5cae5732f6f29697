//! The `direction` rows of the test matrix (`havoq::testing::ROWS`), plus
//! the two direction tests that are not grid cells.
//!
//! The direction engine is a drop-in replacement for the asynchronous BFS:
//! levels are a graph property, and the lexicographic `(length, parent)`
//! delivery reduction makes parents deterministic too. So top-down,
//! bottom-up and auto produce bit-identical `(level, parent)` state —
//! and identical schedules and edge-inspection counts per mode — across
//! ranks, threads, chaos and lossy plans and crash/restore, with levels
//! equal to the asynchronous engine's; auto goes bottom-up on the sweep
//! graph and inspects no more edges than top-down.

use havoq::prelude::*;
use havoq::testing::{cell, run_on, run_row, Fingerprint, Graph, MODES};
use havoq_util::testing::{run_cases, TestRng};

#[test]
fn direction_modes_match_async_levels() {
    run_row("direction_modes_match_async_levels");
}

#[test]
fn auto_switches_and_never_inspects_more_than_top_down() {
    run_row("auto_switches_and_never_inspects_more_than_top_down");
}

#[test]
fn direction_chaos_sweep_16_seeds() {
    run_row("direction_chaos_sweep_16_seeds");
}

#[test]
fn direction_lossy_sweep_matches_baseline() {
    run_row("direction_lossy_sweep_matches_baseline");
}

#[test]
fn direction_resume_equivalence_after_rank_crashes() {
    run_row("direction_resume_equivalence_after_rank_crashes");
}

#[test]
#[ignore = "heavy: run via the CI direction-chaos group or --include-ignored"]
fn direction_chaos_sweep_heavy_seven_ranks() {
    run_row("direction_chaos_sweep_heavy_seven_ranks");
}

const DIRECTIONS: [DirectionMode; 3] =
    [DirectionMode::TopDown, DirectionMode::BottomUp, DirectionMode::Auto];

/// ROADMAP 1a: a top-down level that pushes more than `channel_capacity ×
/// frame_bytes` at one peer used to deadlock — one rank parked in a
/// post-generation collective that does not poll its mailbox while its peer
/// spun on the full bounded channel. A two-frame, 64-byte-frame channel
/// meets that shape at scale 10. The world runs on its own thread so a
/// reintroduced hang fails here instead of hanging the suite; each rank
/// compares its tight-channel state with its default-channel state.
#[test]
fn tight_channel_never_deadlocks_and_matches_default_capacity() {
    let gen = RmatGenerator::graph500(10);
    let (edges, n) = (gen.symmetric_edges(42), gen.num_vertices());
    let tight = MailboxConfig::default().with_channel_capacity(Some(2)).with_frame_bytes(64);
    let (done, wait) = std::sync::mpsc::channel();
    let world = std::thread::spawn(move || {
        CommWorld::run(2, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default().with_num_vertices(n),
            );
            for source in (0..8).map(|k| VertexId(edges[k * edges.len() / 8].src)) {
                for mode in DIRECTIONS {
                    let roomy = BfsConfig::default().with_direction(mode);
                    let mut cfg = roomy;
                    cfg.traversal.mailbox = tight;
                    let got = direction_bfs(ctx, &g, source, &cfg);
                    let want = direction_bfs(ctx, &g, source, &roomy);
                    let case = format!("source {source} {mode:?} rank {}", ctx.rank());
                    assert_eq!(got.result.local_state, want.result.local_state, "{case}");
                    assert_eq!(got.edges_inspected, want.edges_inspected, "{case}");
                }
            }
        });
        let _ = done.send(());
    });
    match wait.recv_timeout(std::time::Duration::from_secs(20)) {
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("direction_bfs hung on a 2-frame channel (ROADMAP 1a)")
        }
        // done, or a rank panicked and dropped the sender: surface it
        _ => world.join().expect("a rank's comparison failed"),
    }
}

/// Property: on random symmetrized graphs the switch heuristic never
/// changes levels — auto, forced-top-down and forced-bottom-up all match a
/// serial reference BFS computed directly from the edge list.
#[test]
fn proptest_heuristic_never_changes_levels() {
    run_cases(24, |rng: &mut TestRng| {
        let n = rng.range(4, 40);
        let m = rng.range(n, 4 * n) as usize;
        let mut edges = Vec::with_capacity(2 * m);
        for _ in 0..m {
            let s = rng.range(0, n);
            let t = rng.range(0, n);
            if s != t {
                edges.push(Edge { src: s, dst: t });
                edges.push(Edge { src: t, dst: s });
            }
        }
        if edges.is_empty() {
            edges.push(Edge { src: 0, dst: 1 });
            edges.push(Edge { src: 1, dst: 0 });
        }
        // serial reference levels from the raw edge list
        let mut adj = vec![Vec::new(); n as usize];
        for e in &edges {
            adj[e.src as usize].push(e.dst);
        }
        let unreached = u64::MAX;
        let mut ref_levels = vec![unreached; n as usize];
        ref_levels[0] = 0;
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(v) = queue.pop_front() {
            for &t in &adj[v] {
                if ref_levels[t as usize] == unreached {
                    ref_levels[t as usize] = ref_levels[v] + 1;
                    queue.push_back(t as usize);
                }
            }
        }
        let p = 1 + (rng.next_u64() % 2) as usize;
        let mut parents: Option<Vec<(u64, u64)>> = None;
        for engine in MODES {
            let Fingerprint::Direction(run) =
                run_on(&cell(engine, Graph::Sweep, p), &edges, n).fingerprint
            else {
                unreachable!("a direction cell yields a direction fingerprint")
            };
            for &(v, lvl) in &run.levels {
                assert_eq!(
                    lvl, ref_levels[v as usize],
                    "{engine:?} p={p}: vertex {v} level {lvl} != reference"
                );
            }
            match &parents {
                None => parents = Some(run.parents.clone()),
                Some(gold) => assert_eq!(&run.parents, gold, "{engine:?} p={p} parents diverged"),
            }
        }
    });
}
