//! The storage-equivalence sweep (DESIGN.md §14's acceptance test).
//!
//! Storage is a *representation* choice: whether CSR targets live in DRAM,
//! as raw `u64`s behind the NVRAM page cache, or as varint gap bytes
//! decoded per slice, every algorithm must produce bit-identical results.
//! This sweep runs the whole algorithm suite (BFS + CC + k-core + SSSP +
//! triangle), the direction-optimizing engine and the batched multi-source
//! engine over all three backends and compares fingerprints bit for bit —
//! fault-free, under the chaos and lossy adversaries, and across
//! checkpoint/crash/restore cycles on compressed storage.
//!
//! The compressed backend's early-exit scan (`DistGraph::scan_adj`) counts
//! scanned targets exactly like the slice walk, so the direction engine's
//! `edges_inspected` participates in the equality checks too.

use havoq::prelude::*;
use havoq::testing::{
    assert_conserved, gather_state, heavy_sweep_edges, run_suite, sweep_edges, SuiteOptions,
};
use havoq_comm::FaultConfig;
use havoq_nvram::cache::PageCacheConfig;
use havoq_nvram::device::DeviceProfile;
use havoq_util::testing::{sweep_seed_set, sweep_seeds};

/// Cache budget for the external backends: small enough that the sweep
/// graph's raw targets spill (forcing real paging on `ext`), large enough
/// to keep the sweep fast.
fn sweep_cache() -> PageCacheConfig {
    PageCacheConfig { page_size: 512, capacity_pages: 16, shards: 2, ..PageCacheConfig::default() }
}

/// The three storage backends under test, labelled for assertion messages.
fn storage_matrix() -> Vec<(&'static str, GraphConfig)> {
    vec![
        ("mem", GraphConfig::default()),
        ("ext", GraphConfig::external(DeviceProfile::dram(), sweep_cache())),
        ("ext-comp", GraphConfig::external_compressed(DeviceProfile::dram(), sweep_cache())),
    ]
}

fn compressed_config() -> GraphConfig {
    GraphConfig::external_compressed(DeviceProfile::dram(), sweep_cache())
}

/// Fault-free equivalence: the whole algorithm suite over every backend ×
/// p ∈ {1, 2} × threads ∈ {1, 4} yields one bit-identical fingerprint.
#[test]
fn suite_equivalent_across_storages() {
    let (edges, n) = sweep_edges();
    let golden = run_suite(1, &edges, n, None, SuiteOptions::default()).fingerprint;
    for p in [1usize, 2] {
        for threads in [1usize, 4] {
            for (label, cfg) in storage_matrix() {
                let opts = SuiteOptions::default().with_threads(threads).with_storage(cfg);
                let out = run_suite(p, &edges, n, None, opts);
                assert_eq!(
                    out.fingerprint, golden,
                    "storage={label} p={p} threads={threads}: suite fingerprint diverged"
                );
            }
        }
    }
}

/// Schedule-independent results of one direction-engine BFS run, including
/// the storage-invariant inspection count.
#[derive(Clone, Debug, PartialEq, Eq)]
struct DirFp {
    levels: Vec<(u64, u64)>,
    parents: Vec<(u64, u64)>,
    visited: u64,
    max_level: u64,
    edges_inspected: u64,
    schedule: Vec<&'static str>,
}

fn run_direction_on(
    p: usize,
    edges: &[Edge],
    n: u64,
    cfg: GraphConfig,
    mode: DirectionMode,
    threads: usize,
) -> DirFp {
    let mut out = CommWorld::run(p, |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            edges,
            PartitionStrategy::EdgeList,
            cfg.with_num_vertices(n),
        );
        let bcfg = BfsConfig::default().with_direction(mode).with_threads(threads);
        let run = direction_bfs(ctx, &g, VertexId(0), &bcfg);
        let report = validate_bfs(ctx, &g, VertexId(0), &run.result.local_state);
        assert!(report.is_valid(), "direction bfs parents/levels invalid: {report:?}");
        assert_conserved(ctx, "direction bfs", &run.result.stats);
        DirFp {
            levels: gather_state(ctx, &g, |li| run.result.local_state[li].length),
            parents: gather_state(ctx, &g, |li| run.result.local_state[li].parent),
            visited: run.result.visited_count,
            max_level: run.result.max_level,
            edges_inspected: run.edges_inspected,
            schedule: run.trace.iter().map(|t| t.dir.label()).collect(),
        }
    });
    let first = out.remove(0);
    for o in &out {
        assert_eq!(*o, first, "ranks disagree on the gathered direction-BFS state");
    }
    first
}

/// Direction-optimizing BFS — including the bottom-up early-exit scan,
/// which streams the gap decoder on compressed storage — must be
/// bit-identical across backends in state, schedule *and* inspection
/// counts, for all three forced modes and the auto heuristic.
#[test]
fn direction_bfs_equivalent_across_storages() {
    let (edges, n) = sweep_edges();
    let modes = [DirectionMode::TopDown, DirectionMode::BottomUp, DirectionMode::Auto];
    for p in [1usize, 2] {
        for mode in modes {
            let golden = run_direction_on(p, &edges, n, GraphConfig::default(), mode, 1);
            // the sweep graph must actually exercise the bottom-up scan
            if mode == DirectionMode::Auto {
                assert!(
                    golden.schedule.contains(&"bottom"),
                    "auto never went bottom-up — the scan path is untested: {:?}",
                    golden.schedule
                );
            }
            for (label, cfg) in storage_matrix().into_iter().skip(1) {
                for threads in [1usize, 4] {
                    let run = run_direction_on(p, &edges, n, cfg, mode, threads);
                    assert_eq!(
                        run, golden,
                        "storage={label} p={p} {mode:?} threads={threads}: diverged"
                    );
                }
            }
        }
    }
}

/// First `k` distinct sources in edge-list order — deterministic, and every
/// one has at least one outgoing edge.
fn batch_sources(edges: &[Edge], k: usize) -> Vec<VertexId> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for e in edges {
        if seen.insert(e.src) {
            out.push(VertexId(e.src));
            if out.len() == k {
                break;
            }
        }
    }
    out
}

type QueryFp = (u64, u64, u64, Vec<(u64, u64)>);

fn run_batched_on(
    p: usize,
    edges: &[Edge],
    n: u64,
    cfg: GraphConfig,
    threads: usize,
) -> Vec<QueryFp> {
    let sources = batch_sources(edges, 8);
    let (edges, sources_c) = (edges.to_vec(), sources.clone());
    CommWorld::run(p, move |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            &edges,
            PartitionStrategy::EdgeList,
            cfg.with_num_vertices(n),
        );
        let bcfg = BatchConfig::default().with_threads(threads);
        let res = bfs_batch::<8>(ctx, &g, &sources_c, &bcfg);
        assert_conserved(ctx, "batched bfs", &res.stats);
        sources_c
            .iter()
            .enumerate()
            .map(|(qi, &s)| {
                let report = validate_bfs(ctx, &g, s, &res.local_state[qi]);
                assert!(report.is_valid(), "batched parents invalid for query {qi}: {report:?}");
                let agg = res.per_query[qi];
                (
                    agg.visited_count,
                    agg.traversed_edges,
                    agg.max_level,
                    gather_state(ctx, &g, |li| res.local_state[qi][li].length),
                )
            })
            .collect::<Vec<_>>()
    })
    .remove(0)
}

/// The batched multi-source engine shares one traversal across 8 queries;
/// its per-query fingerprints must not depend on the storage backend.
#[test]
fn batched_bfs_equivalent_across_storages() {
    let (edges, n) = sweep_edges();
    for p in [1usize, 2] {
        let golden = run_batched_on(p, &edges, n, GraphConfig::default(), 1);
        for (label, cfg) in storage_matrix().into_iter().skip(1) {
            for threads in [1usize, 4] {
                let got = run_batched_on(p, &edges, n, cfg, threads);
                assert_eq!(got, golden, "storage={label} p={p} threads={threads}: diverged");
            }
        }
    }
}

/// The storage-layer snapshots are embedded by `VisitorQueue::stats()`, so
/// every engine on the queue reports them, not only `bfs`: a batched run
/// over compressed storage must show the gap decoder's work on every rank.
#[test]
fn batched_bfs_reports_storage_counters_on_compressed() {
    let (edges, n) = sweep_edges();
    let sources = batch_sources(&edges, 8);
    let stats = CommWorld::run(2, |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            &edges,
            PartitionStrategy::EdgeList,
            compressed_config().with_num_vertices(n),
        );
        bfs_batch::<8>(ctx, &g, &sources, &BatchConfig::default()).stats
    });
    for (rank, s) in stats.iter().enumerate() {
        assert!(s.csr.adj_decodes > 0, "rank {rank}: bfs_batch reported no adjacency decodes");
        assert!(s.csr.adj_decoded_bytes > 0 && s.csr.encoded_bytes > 0, "rank {rank}");
    }
}

/// Storage counters are per traversal, not since graph build: two BFS runs
/// from the same key on one compressed graph (one rank, one thread, so the
/// visitor schedule is fixed) do the same decode work and report the same
/// numbers — the second must not carry the first's on top of its own.
#[test]
fn second_traversal_does_not_report_the_first_ones_decodes() {
    let (edges, n) = sweep_edges();
    let (first, second) = CommWorld::run(1, |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            &edges,
            PartitionStrategy::EdgeList,
            compressed_config().with_num_vertices(n),
        );
        let run = || bfs(ctx, &g, VertexId(0), &BfsConfig::default()).stats;
        (run(), run())
    })
    .remove(0);
    assert!(first.csr.adj_decodes > 0, "bfs on compressed storage decoded nothing");
    assert_eq!(second.csr.adj_decodes, first.csr.adj_decodes);
    assert_eq!(second.csr.adj_decoded_bytes, first.csr.adj_decoded_bytes);
    assert_eq!(second.cache.accesses(), first.cache.accesses());
    assert_eq!(second.csr.encoded_bytes, first.csr.encoded_bytes, "sizes pass through");
}

/// The acceptance chaos sweep on compressed storage: 16 seeded chaos plans
/// must reproduce the in-memory fault-free fingerprint bit for bit, and
/// the adversary must actually have fired across the sweep.
#[test]
fn compressed_chaos_sweep_16_seeds() {
    let (edges, n) = sweep_edges();
    let p = 2;
    let golden = run_suite(p, &edges, n, None, SuiteOptions::default()).fingerprint;
    let total_events = std::cell::Cell::new(0u64);
    sweep_seeds(sweep_seed_set(16), |seed| {
        let opts = SuiteOptions::default().with_threads(4).with_storage(compressed_config());
        let out = run_suite(p, &edges, n, Some(FaultConfig::chaos(seed)), opts);
        assert_eq!(out.fingerprint, golden, "seed {seed:#x}: chaos on compressed storage diverged");
        total_events.set(total_events.get() + out.faults.total_events());
    });
    assert!(total_events.get() > 0, "chaos sweep never perturbed anything");
}

/// Frame corruption and loss under the CRC + NACK + retransmit plane with
/// compressed storage underneath: every injected corruption must be caught
/// and the results must still match the in-memory baseline.
#[test]
fn compressed_lossy_sweep_16_seeds() {
    let (edges, n) = sweep_edges();
    let p = 2;
    let golden = run_suite(p, &edges, n, None, SuiteOptions::default()).fingerprint;
    let corrupted = std::cell::Cell::new(0u64);
    let detected = std::cell::Cell::new(0u64);
    sweep_seeds(sweep_seed_set(16), |seed| {
        let opts = SuiteOptions::default().with_threads(1).with_storage(compressed_config());
        let out = run_suite(p, &edges, n, Some(FaultConfig::lossy(seed)), opts);
        assert_eq!(out.fingerprint, golden, "seed {seed:#x}: lossy on compressed storage diverged");
        corrupted.set(corrupted.get() + out.faults.events[Event::FaultCorrupt]);
        detected.set(detected.get() + out.faults.events[Event::CorruptDetected]);
    });
    assert!(corrupted.get() > 0, "lossy sweep never injected a corruption");
    assert_eq!(detected.get(), corrupted.get(), "every injected corruption must be CRC-detected");
}

/// Crash-restore grid on compressed storage: crash each rank at each early
/// checkpoint epoch and demand suite results bit-identical to the
/// in-memory fault-free golden — the page cache, the encoded pool and the
/// decode path must all survive the world rewind.
#[test]
fn compressed_crash_restore_grid() {
    let (edges, n) = sweep_edges();
    let p = 2;
    let golden = run_suite(p, &edges, n, None, SuiteOptions::default()).fingerprint;
    let mut crashes = 0u64;
    let mut restores = 0u64;
    for victim in 0..p {
        for epoch in 1..=2u64 {
            let faults = FaultConfig::quiet(11).with_forced_crash(victim, epoch);
            let opts =
                SuiteOptions::default().with_checkpoint_every(1).with_storage(compressed_config());
            let out = run_suite(p, &edges, n, Some(faults), opts);
            assert_eq!(
                out.fingerprint, golden,
                "victim={victim} epoch={epoch}: restored run on compressed storage diverged"
            );
            crashes += out.faults.events[Event::Crash];
            restores += out.faults.events[Event::Restore];
        }
    }
    assert!(crashes > 0, "crash grid never tore an epoch");
    assert!(restores >= crashes, "every crash must trigger a world-wide restore");
}

/// The compressed pool must actually compress the sweep graph — the fig08
/// acceptance bound (≥2× edges per cache byte, i.e. ≤ 4 B/edge) holds on
/// the test graph too, so CI catches encoder regressions without running
/// the benches.
#[test]
fn compressed_sweep_graph_meets_density_bound() {
    let (edges, n) = sweep_edges();
    let snaps = CommWorld::run(2, |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            &edges,
            PartitionStrategy::EdgeList,
            compressed_config().with_num_vertices(n),
        );
        g.csr().storage_snapshot().expect("compressed storage")
    });
    let (enc, raw) =
        snaps.iter().fold((0u64, 0u64), |a, s| (a.0 + s.encoded_bytes, a.1 + s.raw_bytes));
    assert!(
        raw as f64 / enc as f64 >= 2.0,
        "sweep graph below 2x edges per cache byte: {enc} encoded vs {raw} raw"
    );
}

/// The heavyweight sweep for the CI storage-sweep job (`--include-ignored`,
/// release): the full suite over all three backends at an awkward rank
/// count on the scale-8 graph, plus chaos on compressed storage.
#[test]
#[ignore = "heavy: run via the CI storage-sweep job or --include-ignored"]
fn storage_sweep_heavy_seven_ranks() {
    let (edges, n) = heavy_sweep_edges();
    let p = 7;
    let golden = run_suite(p, &edges, n, None, SuiteOptions::default()).fingerprint;
    for (label, cfg) in storage_matrix().into_iter().skip(1) {
        let opts = SuiteOptions::default().with_threads(4).with_storage(cfg);
        let out = run_suite(p, &edges, n, None, opts);
        assert_eq!(out.fingerprint, golden, "storage={label} p={p}: heavy suite diverged");
    }
    sweep_seeds(sweep_seed_set(4), |seed| {
        let opts = SuiteOptions::default().with_threads(4).with_storage(compressed_config());
        let out = run_suite(p, &edges, n, Some(FaultConfig::chaos(seed)), opts);
        assert_eq!(out.fingerprint, golden, "seed {seed:#x} p={p}: heavy chaos diverged");
    });
}
