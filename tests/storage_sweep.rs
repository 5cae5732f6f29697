//! The `storage` rows of the test matrix (`havoq::testing::ROWS`), plus
//! the three storage tests that are not grid cells.
//!
//! Storage is a representation choice: whether CSR targets live in DRAM,
//! as raw `u64`s behind the NVRAM page cache, or as varint gap bytes
//! decoded per slice, the suite, the direction engine (whose early-exit
//! scan counts inspected targets exactly like the slice walk) and the
//! batched engine fingerprint bit-identically — fault-free, under chaos
//! and lossy plans, and across crash/restore on compressed storage.

use havoq::prelude::*;
use havoq::testing::{run_row, Graph, Storage};

#[test]
fn suite_equivalent_across_storages() {
    run_row("suite_equivalent_across_storages");
}

#[test]
fn direction_bfs_equivalent_across_storages() {
    run_row("direction_bfs_equivalent_across_storages");
}

#[test]
fn batched_bfs_equivalent_across_storages() {
    run_row("batched_bfs_equivalent_across_storages");
}

#[test]
fn compressed_chaos_sweep_16_seeds() {
    run_row("compressed_chaos_sweep_16_seeds");
}

#[test]
fn compressed_lossy_sweep_16_seeds() {
    run_row("compressed_lossy_sweep_16_seeds");
}

#[test]
fn compressed_crash_restore_grid() {
    run_row("compressed_crash_restore_grid");
}

#[test]
#[ignore = "heavy: run via the CI storage-sweep group or --include-ignored"]
fn storage_sweep_heavy_seven_ranks() {
    run_row("storage_sweep_heavy_seven_ranks");
}

/// The sweep graph on `p` ranks over compressed storage.
fn compressed_graph<R: Send>(p: usize, f: impl Fn(&RankCtx, &DistGraph) -> R + Sync) -> Vec<R> {
    let (edges, n) = Graph::Sweep.edges();
    CommWorld::run(p, |ctx| {
        let cfg = Storage::ExtComp.config().with_num_vertices(n);
        f(ctx, &DistGraph::build_replicated(ctx, &edges, PartitionStrategy::EdgeList, cfg))
    })
}

/// The storage-layer snapshots are embedded by `VisitorQueue::stats()`, so
/// every engine on the queue reports them, not only `bfs`: a batched run
/// over compressed storage must show the gap decoder's work on every rank.
#[test]
fn batched_bfs_reports_storage_counters_on_compressed() {
    let sources: Vec<VertexId> = (0..8).map(VertexId).collect();
    let stats = compressed_graph(2, |ctx, g| {
        bfs_batch::<8>(ctx, g, &sources, &BatchConfig::default()).stats
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
    let (first, second) = compressed_graph(1, |ctx, g| {
        let run = || bfs(ctx, g, VertexId(0), &BfsConfig::default()).stats;
        (run(), run())
    })
    .remove(0);
    assert!(first.csr.adj_decodes > 0, "bfs on compressed storage decoded nothing");
    assert_eq!(second.csr.adj_decodes, first.csr.adj_decodes);
    assert_eq!(second.csr.adj_decoded_bytes, first.csr.adj_decoded_bytes);
    assert_eq!(second.cache.accesses(), first.cache.accesses());
    assert_eq!(second.csr.encoded_bytes, first.csr.encoded_bytes, "sizes pass through");
}

/// The compressed pool must actually compress the sweep graph — the
/// compressed-CSR density bound (≥2× edges per cache byte, i.e. ≤ 4
/// B/edge) holds on the test graph too, so CI catches encoder regressions
/// without running the benches.
#[test]
fn compressed_sweep_graph_meets_density_bound() {
    let snaps = compressed_graph(2, |_, g| g.csr().storage_snapshot().expect("compressed storage"));
    let (enc, raw) =
        snaps.iter().fold((0u64, 0u64), |a, s| (a.0 + s.encoded_bytes, a.1 + s.raw_bytes));
    assert!(
        raw as f64 / enc as f64 >= 2.0,
        "sweep graph below 2x edges per cache byte: {enc} encoded vs {raw} raw"
    );
}
