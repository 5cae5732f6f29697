//! The direction-optimizing BFS equivalence sweep (DESIGN.md §13's
//! acceptance test).
//!
//! The direction engine must be a *drop-in* replacement for the
//! asynchronous visitor BFS: levels are a graph property and may not
//! depend on the expansion direction, and the engine's lexicographic
//! `(length, parent)` delivery reduction makes parents deterministic too —
//! so forced-top-down, forced-bottom-up and the Beamer auto heuristic must
//! produce **bit-identical** `(level, parent)` state, across rank counts,
//! worker counts, the chaos/lossy adversaries and checkpoint/crash/restore
//! cycles, and identical *levels* to the legacy asynchronous engine.
//!
//! Edge-inspection counts are part of the fingerprint: they are a pure
//! function of the graph and the direction schedule, so faults, threads
//! and crash-rewind cycles must not perturb them either.

use havoq::prelude::*;
use havoq::testing::{assert_conserved, gather_state, heavy_sweep_edges, sweep_edges};
use havoq_comm::{FaultConfig, MailboxConfig};
use havoq_core::CheckpointSpec;
use havoq_util::testing::{run_cases, sweep_seed_set, sweep_seeds, TestRng};

/// Schedule-independent results of one direction-engine BFS run.
#[derive(Clone, Debug, PartialEq, Eq)]
struct DirRun {
    levels: Vec<(u64, u64)>,
    parents: Vec<(u64, u64)>,
    visited: u64,
    max_level: u64,
    /// Global adjacency entries inspected — deterministic per (graph,
    /// source, mode), so it participates in the equality checks.
    edges_inspected: u64,
    /// Per-level direction labels, e.g. `["top", "bottom", "top"]`.
    schedule: Vec<&'static str>,
}

/// Restart counters of one run (world totals; not part of equality).
#[derive(Clone, Copy, Debug, Default)]
struct RunRestart {
    crashes: u64,
    restores: u64,
}

fn run_direction(
    p: usize,
    edges: &[Edge],
    n: u64,
    faults: Option<FaultConfig>,
    mode: DirectionMode,
    threads: usize,
    checkpoint_every: Option<u64>,
) -> (DirRun, RunRestart) {
    let mut out = CommWorld::run_with_faults(p, faults, |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            edges,
            PartitionStrategy::EdgeList,
            GraphConfig::default().with_num_vertices(n),
        );
        let mut cfg = BfsConfig::default().with_direction(mode).with_threads(threads);
        if let Some(every) = checkpoint_every {
            cfg.checkpoint = Some(CheckpointSpec::default().with_every(every));
        }
        let run = direction_bfs(ctx, &g, VertexId(0), &cfg);
        let report = validate_bfs(ctx, &g, VertexId(0), &run.result.local_state);
        assert!(report.is_valid(), "direction bfs parents/levels invalid: {report:?}");
        assert_conserved(ctx, "direction bfs", &run.result.stats);
        let restart = RunRestart {
            crashes: ctx.all_reduce_sum(run.result.stats.events[Event::Crash]),
            restores: ctx.all_reduce_sum(run.result.stats.events[Event::Restore]),
        };
        let dir_run = DirRun {
            levels: gather_state(ctx, &g, |li| run.result.local_state[li].length),
            parents: gather_state(ctx, &g, |li| run.result.local_state[li].parent),
            visited: run.result.visited_count,
            max_level: run.result.max_level,
            edges_inspected: run.edges_inspected,
            schedule: run.trace.iter().map(|t| t.dir.label()).collect(),
        };
        (dir_run, restart)
    });
    let first = out.remove(0);
    for (o, _) in &out {
        assert_eq!(*o, first.0, "ranks disagree on the gathered direction-BFS state");
    }
    first
}

/// Levels/visited/max-level of the legacy asynchronous engine (parents are
/// schedule-dependent there, so they stay out of the comparison).
fn run_async_levels(p: usize, edges: &[Edge], n: u64) -> (Vec<(u64, u64)>, u64, u64) {
    let mut out = CommWorld::run(p, |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            edges,
            PartitionStrategy::EdgeList,
            GraphConfig::default().with_num_vertices(n),
        );
        let b = bfs(ctx, &g, VertexId(0), &BfsConfig::default());
        (gather_state(ctx, &g, |li| b.local_state[li].length), b.visited_count, b.max_level)
    });
    out.remove(0)
}

const MODES: [DirectionMode; 3] =
    [DirectionMode::TopDown, DirectionMode::BottomUp, DirectionMode::Auto];

/// Fault-free equivalence: every mode × p × threads crossing yields levels
/// identical to the asynchronous engine; `(level, parent)` state is
/// bit-identical across the engine's own crossings per mode (and level
/// state identical across modes — only the schedule and inspection counts
/// may differ between directions).
#[test]
fn direction_modes_match_async_levels() {
    let (edges, n) = sweep_edges();
    for p in [1usize, 2] {
        let (async_levels, async_visited, async_max) = run_async_levels(p, &edges, n);
        let mut golden_parents: Option<Vec<(u64, u64)>> = None;
        for mode in MODES {
            for threads in [1usize, 4] {
                let (run, _) = run_direction(p, &edges, n, None, mode, threads, None);
                assert_eq!(
                    run.levels, async_levels,
                    "p={p} {mode:?} threads={threads}: levels diverged from async engine"
                );
                assert_eq!(run.visited, async_visited, "p={p} {mode:?} visited");
                assert_eq!(run.max_level, async_max, "p={p} {mode:?} max level");
                // parents are deterministic across directions too
                match &golden_parents {
                    None => golden_parents = Some(run.parents.clone()),
                    Some(gold) => assert_eq!(
                        &run.parents, gold,
                        "p={p} {mode:?} threads={threads}: parent tie-break not direction-invariant"
                    ),
                }
            }
        }
    }
}

/// The auto heuristic must actually switch on the sweep graph's fat middle
/// levels, and never inspect more edges than forced top-down does.
#[test]
fn auto_switches_and_never_inspects_more_than_top_down() {
    let (edges, n) = sweep_edges();
    let (top, _) = run_direction(2, &edges, n, None, DirectionMode::TopDown, 1, None);
    let (auto, _) = run_direction(2, &edges, n, None, DirectionMode::Auto, 1, None);
    assert!(top.schedule.iter().all(|&d| d == "top"));
    assert!(
        auto.schedule.contains(&"bottom"),
        "auto never went bottom-up on the sweep graph: {:?}",
        auto.schedule
    );
    assert!(
        auto.edges_inspected <= top.edges_inspected,
        "auto inspected {} > top-down's {}",
        auto.edges_inspected,
        top.edges_inspected
    );
}

/// The acceptance sweep: 16 seeded chaos plans × p ∈ {1, 2} × threads ∈
/// {1, 4} × all three modes; every run must reproduce its mode's fault-free
/// baseline bit for bit (state, schedule *and* inspection counts).
#[test]
fn direction_chaos_sweep_16_seeds() {
    let (edges, n) = sweep_edges();
    for p in [1usize, 2] {
        let baselines: Vec<DirRun> =
            MODES.iter().map(|&m| run_direction(p, &edges, n, None, m, 1, None).0).collect();
        sweep_seeds(sweep_seed_set(16), |seed| {
            for (mode, baseline) in MODES.iter().zip(&baselines) {
                for threads in [1usize, 4] {
                    let (run, _) = run_direction(
                        p,
                        &edges,
                        n,
                        Some(FaultConfig::chaos(seed)),
                        *mode,
                        threads,
                        None,
                    );
                    assert_eq!(
                        &run, baseline,
                        "seed {seed:#x} p={p} {mode:?} threads={threads} perturbed the engine"
                    );
                }
            }
        });
    }
}

/// Frame corruption and loss under the CRC + NACK + retransmit plane —
/// including the frontier-bitmap exchange, which rides the same wire.
#[test]
fn direction_lossy_sweep_matches_baseline() {
    let (edges, n) = sweep_edges();
    let p = 2;
    let baselines: Vec<DirRun> =
        MODES.iter().map(|&m| run_direction(p, &edges, n, None, m, 1, None).0).collect();
    sweep_seeds(sweep_seed_set(8), |seed| {
        for (mode, baseline) in MODES.iter().zip(&baselines) {
            let (run, _) =
                run_direction(p, &edges, n, Some(FaultConfig::lossy(seed)), *mode, 4, None);
            assert_eq!(&run, baseline, "seed {seed:#x} {mode:?} lossy run diverged");
        }
    });
}

/// Crash each rank at each early checkpoint epoch and demand results
/// bit-identical to the fault-free golden — the engine's level counter,
/// direction state, trace and bitmaps must all survive the world rewind.
#[test]
fn direction_resume_equivalence_after_rank_crashes() {
    let (edges, n) = sweep_edges();
    let p = 2;
    let golden = run_direction(p, &edges, n, None, DirectionMode::Auto, 1, None).0;
    let mut total_crashes = 0u64;
    let mut total_restores = 0u64;
    for victim in 0..p {
        for epoch in 1..=2u64 {
            for threads in [1usize, 4] {
                let faults = FaultConfig::quiet(11).with_forced_crash(victim, epoch);
                let (run, restart) = run_direction(
                    p,
                    &edges,
                    n,
                    Some(faults),
                    DirectionMode::Auto,
                    threads,
                    Some(1),
                );
                assert_eq!(
                    run, golden,
                    "victim={victim} epoch={epoch} threads={threads}: resumed run diverged"
                );
                total_crashes += restart.crashes;
                total_restores += restart.restores;
            }
        }
    }
    assert!(total_crashes > 0, "crash sweep never tore an epoch");
    assert!(total_restores >= total_crashes, "every crash must trigger a world-wide restore");
}

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
                for mode in MODES {
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
        for mode in MODES {
            let (run, _) = run_direction(p, &edges, n, None, mode, 1, None);
            for &(v, lvl) in &run.levels {
                assert_eq!(
                    lvl, ref_levels[v as usize],
                    "{mode:?} p={p}: vertex {v} level {lvl} != reference"
                );
            }
            match &parents {
                None => parents = Some(run.parents.clone()),
                Some(gold) => assert_eq!(&run.parents, gold, "{mode:?} p={p} parents diverged"),
            }
        }
    });
}

/// The heavyweight sweep for the CI direction-chaos job
/// (`--include-ignored`, release): 16 chaos seeds at an awkward rank
/// count, threads = 4, auto mode against its fault-free baseline.
#[test]
#[ignore = "heavy: run via the CI direction-chaos job or --include-ignored"]
fn direction_chaos_sweep_heavy_seven_ranks() {
    let (edges, n) = heavy_sweep_edges();
    let p = 7;
    let baseline = run_direction(p, &edges, n, None, DirectionMode::Auto, 1, None).0;
    sweep_seeds(sweep_seed_set(16), |seed| {
        let (run, _) = run_direction(
            p,
            &edges,
            n,
            Some(FaultConfig::chaos(seed)),
            DirectionMode::Auto,
            4,
            None,
        );
        assert_eq!(run, baseline, "seed {seed:#x} perturbed the engine at p={p}");
    });
}
