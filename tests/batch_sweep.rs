//! The batched-vs-serial equivalence belt (DESIGN.md §12's acceptance
//! test).
//!
//! A batch of K concurrent BFS queries multiplexed through one shared
//! traversal must answer every query exactly as K independent serial
//! traversals would: per-query level arrays, visited counts, traversed
//! edge counts and max levels bit-identical to the single-source
//! reference, with parents validated structurally (they are
//! schedule-dependent and excluded from fingerprints repo-wide). The
//! serial reference is computed once — levels are invariant across rank
//! counts, thread counts and fault plans, a fact the existing sweeps
//! already pin — and every batched configuration is compared against it:
//! fault-free, under the 16-seed chaos adversary, under frame corruption
//! and loss, across state widths K ∈ {2, 8, 64}, worker pools ∈ {1, 4}
//! and rank counts ∈ {1, 2}, and across checkpoint/crash/restore cycles.
//!
//! Reachability rides the same mask plane with bit-OR state; its per-query
//! reached counts must equal BFS visited counts, and its reach masks must
//! agree bit-for-bit with the reference level arrays.
//!
//! Every batched run also checks the per-query execution ledger: the
//! per-query executed/pushed counters must sum to the batch totals under
//! every schedule, fault plan and crash/restore cycle.

use havoq::prelude::*;
use havoq::testing::{assert_conserved, gather_state, heavy_sweep_edges, sweep_edges};
use havoq_comm::{CommWorld, FaultConfig};
use havoq_core::algorithms::bfs::UNREACHED;
use havoq_core::batch::bfs_batch;
use havoq_core::CheckpointSpec;
use havoq_util::testing::{sweep_seed_set, sweep_seeds};

/// Per-query schedule-independent outcome: (visited, traversed edges, max
/// level, level array in canonical vertex order).
type QueryFp = (u64, u64, u64, Vec<(u64, u64)>);

/// The serial single-source reference for a query set, computed with the
/// plain `bfs` the rest of the repo trusts.
fn serial_reference(edges: &[Edge], n: u64, sources: &[VertexId]) -> Vec<QueryFp> {
    let (edges, sources) = (edges.to_vec(), sources.to_vec());
    CommWorld::run(2, move |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            &edges,
            PartitionStrategy::EdgeList,
            GraphConfig::default().with_num_vertices(n),
        );
        sources
            .iter()
            .map(|&s| {
                let r = bfs(ctx, &g, s, &BfsConfig::default());
                let report = validate_bfs(ctx, &g, s, &r.local_state);
                assert!(report.is_valid(), "serial reference invalid for {s:?}: {report:?}");
                (
                    r.visited_count,
                    r.traversed_edges,
                    r.max_level,
                    gather_state(ctx, &g, |li| r.local_state[li].length),
                )
            })
            .collect::<Vec<_>>()
    })
    .remove(0)
}

/// One batched run at compile-time width `K`: returns the per-query
/// fingerprints plus (crashes, restores) world totals. Conservation,
/// structural parent validity and the ledger sum invariant are asserted
/// inside.
fn batched_run<const K: usize>(
    p: usize,
    edges: &[Edge],
    n: u64,
    sources: &[VertexId],
    threads: usize,
    faults: Option<FaultConfig>,
    checkpoint_every: Option<u64>,
) -> (Vec<QueryFp>, u64, u64) {
    let (edges, sources) = (edges.to_vec(), sources.to_vec());
    CommWorld::run_with_faults(p, faults, move |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            &edges,
            PartitionStrategy::EdgeList,
            GraphConfig::default().with_num_vertices(n),
        );
        let mut cfg = BatchConfig::default().with_threads(threads);
        if let Some(every) = checkpoint_every {
            cfg = cfg.with_checkpoint(CheckpointSpec::default().with_every(every));
        }
        let res = bfs_batch::<K>(ctx, &g, &sources, &cfg);
        assert_conserved(ctx, "batched bfs", &res.stats);
        res.ledger
            .check(sources.len())
            .unwrap_or_else(|e| panic!("ledger invariant broke at K={K} p={p}: {e}"));
        let fps = sources
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
            .collect::<Vec<_>>();
        let crashes = ctx.all_reduce_sum(res.stats.events[Event::Crash]);
        let restores = ctx.all_reduce_sum(res.stats.events[Event::Restore]);
        (fps, crashes, restores)
    })
    .remove(0)
}

/// The deterministic query set every test draws from: 24 distinct sources,
/// sliced to the width under test. (RMAT vertex IDs skew low, so these are
/// mostly well-connected; an isolated source is equally fine — both sides
/// must then answer "visited 1, level 0".)
fn query_set() -> Vec<VertexId> {
    (0..24).map(VertexId).collect()
}

/// Width slices: K = 2 and 8 run exactly-full batches, K = 64 runs
/// partially full (24 of 64 slots) — the mask plane must not care.
const WIDTHS: [(usize, usize); 3] = [(2, 2), (8, 8), (64, 24)];

#[allow(clippy::too_many_arguments)]
fn run_width(
    width: usize,
    p: usize,
    edges: &[Edge],
    n: u64,
    sources: &[VertexId],
    threads: usize,
    faults: Option<FaultConfig>,
    ckpt: Option<u64>,
) -> (Vec<QueryFp>, u64, u64) {
    match width {
        2 => batched_run::<2>(p, edges, n, sources, threads, faults, ckpt),
        8 => batched_run::<8>(p, edges, n, sources, threads, faults, ckpt),
        64 => batched_run::<64>(p, edges, n, sources, threads, faults, ckpt),
        w => panic!("width {w} not wired into the sweep"),
    }
}

/// Fault-free equivalence across the full (width × threads × ranks) grid.
#[test]
fn batch_widths_match_serial_reference() {
    let (edges, n) = sweep_edges();
    let queries = query_set();
    let reference = serial_reference(&edges, n, &queries);
    for (width, len) in WIDTHS {
        let sources = &queries[..len];
        for p in [1usize, 2] {
            for threads in [1usize, 4] {
                let (got, crashes, _) =
                    run_width(width, p, &edges, n, sources, threads, None, None);
                assert_eq!(crashes, 0, "fault-free run crashed");
                assert_eq!(
                    got,
                    reference[..len].to_vec(),
                    "K={width} p={p} threads={threads} diverged from the serial reference"
                );
            }
        }
    }
}

/// The chaos acceptance sweep: 16 seeded chaos plans (delay + reorder +
/// duplicate + stall + slow-rank) crossed with every width, threads ∈
/// {1, 4}, p ∈ {1, 2} — every batched answer bit-identical to serial.
#[test]
fn batch_chaos_sweep_16_seeds_matches_serial() {
    let (edges, n) = sweep_edges();
    let queries = query_set();
    let reference = serial_reference(&edges, n, &queries);
    sweep_seeds(sweep_seed_set(16), |seed| {
        for (width, len) in WIDTHS {
            let sources = &queries[..len];
            for p in [1usize, 2] {
                for threads in [1usize, 4] {
                    let (got, _, _) = run_width(
                        width,
                        p,
                        &edges,
                        n,
                        sources,
                        threads,
                        Some(FaultConfig::chaos(seed)),
                        None,
                    );
                    assert_eq!(
                        got,
                        reference[..len].to_vec(),
                        "seed {seed:#x} K={width} p={p} threads={threads} perturbed a batch"
                    );
                }
            }
        }
    });
}

/// Frame corruption and loss on the mask plane: the batched visitor rides
/// the same CRC + NACK + retransmit plane as everything else, so lossy
/// plans must be invisible at every width.
#[test]
fn batch_lossy_sweep_matches_serial() {
    let (edges, n) = sweep_edges();
    let queries = query_set();
    let reference = serial_reference(&edges, n, &queries);
    let p = 2;
    sweep_seeds(sweep_seed_set(8), |seed| {
        for (width, len) in WIDTHS {
            let (got, _, _) = run_width(
                width,
                p,
                &edges,
                n,
                &queries[..len],
                4,
                Some(FaultConfig::lossy(seed)),
                None,
            );
            assert_eq!(
                got,
                reference[..len].to_vec(),
                "seed {seed:#x} K={width} perturbed a batch under corruption/loss"
            );
        }
    });
}

/// Resume equivalence: crash each rank at each early checkpoint epoch
/// mid-batch and demand the restored batch answer every query exactly as
/// the never-crashed serial reference does. The widened per-vertex state
/// (including the expansion bitmask) is checkpointed as one `WireCodec`
/// record, so a torn epoch must rewind all K queries together.
#[test]
fn batch_resume_equivalence_after_rank_crashes() {
    let (edges, n) = sweep_edges();
    let queries = query_set();
    let reference = serial_reference(&edges, n, &queries);
    let p = 2;
    let sources = &queries[..8];
    let mut total_crashes = 0u64;
    for victim in 0..p {
        for epoch in 1..=2u64 {
            let faults = FaultConfig::quiet(0xBA7C).with_forced_crash(victim, epoch);
            for threads in [1usize, 4] {
                let (got, crashes, restores) =
                    batched_run::<8>(p, &edges, n, sources, threads, Some(faults), Some(4));
                assert_eq!(
                    got,
                    reference[..8].to_vec(),
                    "victim={victim} epoch={epoch} threads={threads}: restored batch diverged"
                );
                assert!(restores >= crashes, "a crash must trigger a world-wide restore");
                total_crashes += crashes;
            }
        }
    }
    assert!(total_crashes > 0, "the crash grid never tore an epoch");
}

/// Reachability equivalence: `reach_batch` answers "which queries reach
/// this vertex" with bit-OR masks; each query's reached count must equal
/// its BFS visited count, and the gathered masks must agree bit-for-bit
/// with the reference level arrays (reached ⇔ level != UNREACHED).
#[test]
fn batch_reach_agrees_with_bfs_reference() {
    let (edges, n) = sweep_edges();
    let queries = query_set();
    let reference = serial_reference(&edges, n, &queries);
    let sources: Vec<VertexId> = queries[..8].to_vec();
    for p in [1usize, 2] {
        for faults in [None, Some(FaultConfig::chaos(sweep_seed_set(1)[0]))] {
            let (edges_c, sources_c) = (edges.clone(), sources.clone());
            let (counts, masks) = CommWorld::run_with_faults(p, faults, move |ctx| {
                let g = DistGraph::build_replicated(
                    ctx,
                    &edges_c,
                    PartitionStrategy::EdgeList,
                    GraphConfig::default().with_num_vertices(n),
                );
                let res = reach_batch(ctx, &g, &sources_c, &BatchConfig::default());
                assert_conserved(ctx, "batched reach", &res.stats);
                let masks = gather_state(ctx, &g, |li| res.local_masks[li]);
                (res.reached_counts.clone(), masks)
            })
            .remove(0);
            for (qi, fp) in reference[..8].iter().enumerate() {
                assert_eq!(counts[qi], fp.0, "p={p}: query {qi} reach count != bfs visited");
                for ((v, mask), (rv, level)) in masks.iter().zip(&fp.3) {
                    assert_eq!(v, rv, "canonical vertex order diverged");
                    assert_eq!(
                        mask >> qi & 1 == 1,
                        *level != UNREACHED,
                        "p={p}: query {qi} reach bit disagrees with bfs level at vertex {v}"
                    );
                }
            }
        }
    }
}

/// The heavyweight sweep for the CI batched-chaos job (`--include-ignored`,
/// release): chaos and crashes at a deliberately awkward rank count on the
/// larger graph, full 64-slot batches, threads = 4.
#[test]
#[ignore = "heavy: run via the CI batched-chaos job or --include-ignored"]
fn batch_chaos_sweep_heavy_seven_ranks() {
    let (edges, n) = heavy_sweep_edges();
    let queries: Vec<VertexId> = (0..64).map(VertexId).collect();
    let reference = serial_reference(&edges, n, &queries);
    let p = 7;
    sweep_seeds(sweep_seed_set(4), |seed| {
        let (got, _, _) =
            batched_run::<64>(p, &edges, n, &queries, 4, Some(FaultConfig::chaos(seed)), None);
        assert_eq!(got, reference, "seed {seed:#x} perturbed a full-width batch at p={p}");
    });
    // and once with crashes stacked on top of a chaos plan
    let faults = FaultConfig::chaos(sweep_seed_set(1)[0]).with_crash(150);
    let (got, _, _) = batched_run::<64>(p, &edges, n, &queries, 4, Some(faults), Some(16));
    assert_eq!(got, reference, "crashing chaos batch diverged at p={p}");
}
