//! The intra-rank parallelism correctness sweep (DESIGN.md §11's
//! acceptance test).
//!
//! `TraversalConfig::threads > 1` fans each rank's `visit` calls out to a
//! worker pool while the mailbox, ghost table, quiescence detector and
//! checkpoint protocol stay on the coordinator thread. Because every
//! algorithm in the suite is a monotone fixpoint computation (and the
//! counting algorithms merge exact per-visit deltas), the converged state
//! must not depend on the worker count any more than it depends on message
//! timing: BFS levels, SSSP distances, CC labels, k-core membership and
//! triangle counts must be bit-identical to the serial (`threads = 1`)
//! run — fault-free, under the chaos adversary, under frame corruption and
//! loss, and across checkpoint/crash/restore cycles.
//!
//! The suite runner and fingerprint (parents excluded, validated
//! structurally instead) are the shared sweep scaffolding in
//! `havoq::testing`; this file only owns the thread-count crossings.

use havoq::prelude::*;
use havoq::testing::{heavy_sweep_edges, run_suite, sweep_edges, SuiteOptions};
use havoq_comm::FaultConfig;
use havoq_util::testing::{sweep_seed_set, sweep_seeds};

/// Fault-free thread invariance: the whole suite at 2 and 4 workers per
/// rank is bit-identical to the serial run at every live rank count.
#[test]
fn parallel_suite_matches_serial_baseline() {
    let (edges, n) = sweep_edges();
    for p in [1usize, 2] {
        let baseline = run_suite(p, &edges, n, None, SuiteOptions::default());
        for threads in [2usize, 4] {
            let fp = run_suite(p, &edges, n, None, SuiteOptions::default().with_threads(threads));
            assert_eq!(
                fp.fingerprint, baseline.fingerprint,
                "p={p} threads={threads} diverged from serial"
            );
        }
    }
}

/// The acceptance sweep: 16 seeded chaos plans (delay + reorder +
/// duplicate + stall + slow-rank) crossed with threads ∈ {2, 4} at p ∈
/// {1, 2}; every run must reproduce the serial fault-free baseline
/// bit for bit.
#[test]
fn parallel_chaos_sweep_16_seeds_matches_serial() {
    let (edges, n) = sweep_edges();
    for p in [1usize, 2] {
        let baseline = run_suite(p, &edges, n, None, SuiteOptions::default());
        sweep_seeds(sweep_seed_set(16), |seed| {
            for threads in [2usize, 4] {
                let fp = run_suite(
                    p,
                    &edges,
                    n,
                    Some(FaultConfig::chaos(seed)),
                    SuiteOptions::default().with_threads(threads),
                );
                assert_eq!(
                    fp.fingerprint, baseline.fingerprint,
                    "seed {seed:#x} p={p} threads={threads} perturbed a converged result"
                );
            }
        });
    }
}

/// Corruption and loss stacked on the worker pool: the CRC + NACK +
/// retransmit repair path runs under the coordinator while workers churn,
/// and results must still match the serial fault-free baseline.
#[test]
fn parallel_lossy_sweep_matches_serial() {
    let (edges, n) = sweep_edges();
    let p = 2;
    let baseline = run_suite(p, &edges, n, None, SuiteOptions::default());
    sweep_seeds(sweep_seed_set(8), |seed| {
        let fp = run_suite(
            p,
            &edges,
            n,
            Some(FaultConfig::lossy(seed)),
            SuiteOptions::default().with_threads(4),
        );
        assert_eq!(
            fp.fingerprint, baseline.fingerprint,
            "seed {seed:#x} perturbed a converged result at threads=4"
        );
    });
}

/// Resume equivalence at `threads = 4`: crash each rank at each early
/// checkpoint epoch and demand results bit-identical to the serial
/// fault-free golden. Cuts happen only between worker-pool chunks, so a
/// parallel rank's snapshot must compose into the same recoverable whole a
/// serial rank's does.
#[test]
fn parallel_resume_equivalence_after_rank_crashes() {
    let gen = RmatGenerator::graph500(4);
    let edges = gen.symmetric_edges(7);
    let n = gen.num_vertices();
    let golden = run_suite(2, &edges, n, None, SuiteOptions::default());
    assert_eq!(
        (golden.faults.events[Event::Crash], golden.faults.events[Event::Restore]),
        (0, 0),
        "fault-free golden must not crash"
    );
    let mut total_crashes = 0u64;
    let mut total_restores = 0u64;
    for victim in 0..2usize {
        for epoch in 1..=2u64 {
            let faults = FaultConfig::quiet(11).with_forced_crash(victim, epoch);
            let got = run_suite(
                2,
                &edges,
                n,
                Some(faults),
                SuiteOptions::default().with_threads(4).with_checkpoint_every(1),
            );
            assert_eq!(
                got.fingerprint, golden.fingerprint,
                "victim={victim} epoch={epoch}: resumed threads=4 run diverged"
            );
            total_crashes += got.faults.events[Event::Crash];
            total_restores += got.faults.events[Event::Restore];
        }
    }
    assert!(total_crashes > 0, "crash sweep never tore an epoch");
    assert!(total_restores >= total_crashes, "every crash must trigger a world-wide restore");
}

/// The heavyweight sweep for the CI parallel-chaos job
/// (`--include-ignored`, release): 16 chaos seeds at a deliberately
/// awkward rank count, threads = 4.
#[test]
#[ignore = "heavy: run via the CI parallel-chaos job or --include-ignored"]
fn parallel_chaos_sweep_heavy_seven_ranks() {
    let (edges, n) = heavy_sweep_edges();
    let p = 7;
    let baseline = run_suite(p, &edges, n, None, SuiteOptions::default());
    sweep_seeds(sweep_seed_set(16), |seed| {
        let fp = run_suite(
            p,
            &edges,
            n,
            Some(FaultConfig::chaos(seed)),
            SuiteOptions::default().with_threads(4),
        );
        assert_eq!(
            fp.fingerprint, baseline.fingerprint,
            "seed {seed:#x} perturbed a converged result at p={p}"
        );
    });
}

/// The parallel traversal hammer (page_cache_hammer's sibling): an
/// 8-worker pool per rank over *semi-external* adjacency storage, so all
/// 16 workers hammer the shared page cache concurrently while the lossy
/// adversary corrupts and drops frames under the coordinator. Results
/// must match the serial in-memory baseline bit for bit.
#[test]
#[ignore = "heavy: run via the CI parallel-chaos job or --include-ignored"]
fn parallel_hammer_threads_eight_external_lossy() {
    let (edges, n) = heavy_sweep_edges();
    let p = 2;
    let baseline = run_suite(p, &edges, n, None, SuiteOptions::default());
    let external = GraphConfig::external(
        DeviceProfile::fusion_io(),
        PageCacheConfig {
            page_size: 4096,
            capacity_pages: 64, // tight budget: constant eviction pressure
            shards: 4,
            readahead_pages: 4,
            ..PageCacheConfig::default()
        },
    );
    sweep_seeds(sweep_seed_set(4), |seed| {
        let fp = run_suite(
            p,
            &edges,
            n,
            Some(FaultConfig::lossy(seed)),
            SuiteOptions::default().with_threads(8).with_storage(external),
        );
        assert_eq!(
            fp.fingerprint, baseline.fingerprint,
            "seed {seed:#x} perturbed the external-memory hammer"
        );
    });
}
