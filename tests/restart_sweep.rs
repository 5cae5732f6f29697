//! The checkpoint/restart acceptance sweep.
//!
//! Every algorithm runs with checkpointing enabled under seeded fault
//! plans that stack rank crashes on top of the message-level chaos
//! adversary (delay + reorder + duplicate + stall + slow-rank). A crash
//! tears the victim's in-progress checkpoint, every rank rewinds to the
//! last globally complete epoch, and the traversal resumes — the final
//! results must be bit-identical to a fault-free, checkpoint-free
//! baseline.
//!
//! The suite runner and fingerprint (parents excluded — see
//! `havoq::testing`) are the shared sweep scaffolding; the runner also
//! asserts the `restores == crashes × p` world-rewind invariant on every
//! serial run. The non-idempotent triangle counter is the sharpest probe
//! here: any replayed or double-delivered visitor shifts the count, so an
//! inconsistent snapshot cut cannot hide behind monotone state updates.
//!
//! Reproduce a failing seed locally:
//! `run_suite(4, &edges, n, Some(FaultConfig::chaos(SEED).with_crash(150)),
//!            SuiteOptions::default().with_checkpoint_every(16))`.

use havoq::prelude::*;
use havoq::testing::{
    assert_conserved, gather_state, heavy_sweep_edges, run_suite, sweep_edges, FaultTotals,
    SuiteOptions,
};
use havoq_comm::FaultConfig;
use havoq_core::CheckpointSpec;
use havoq_util::testing::{sweep_seed_set, sweep_seeds};

/// The acceptance sweep: 32 seeded chaos-plus-crash plans at p = 4, every
/// algorithm checkpointed, results bit-identical to the fault-free
/// uncheckpointed baseline. Coverage is asserted, not hoped for: the sweep
/// must have torn checkpoints on every rank at least once.
#[test]
fn restart_sweep_32_seeds_matches_baseline() {
    let (edges, n) = sweep_edges();
    let p = 4;
    let baseline = run_suite(p, &edges, n, None, SuiteOptions::default());
    let base = baseline.faults.events;
    assert_eq!(base[Event::Crash], 0, "uncheckpointed baseline cannot crash");
    assert_eq!(base[Event::Checkpoint], 0, "uncheckpointed baseline cannot checkpoint");

    let totals = std::sync::Mutex::new(FaultTotals::default());
    sweep_seeds(sweep_seed_set(32), |seed| {
        let faults = FaultConfig::chaos(seed).with_crash(150);
        let out = run_suite(
            p,
            &edges,
            n,
            Some(faults),
            SuiteOptions::default().with_checkpoint_every(16),
        );
        assert_eq!(
            out.fingerprint, baseline.fingerprint,
            "seed {seed:#x} perturbed a converged result"
        );
        totals.lock().unwrap().merge(&out.faults);
    });

    let t = totals.into_inner().unwrap();
    assert!(t.events[Event::Checkpoint] > 0, "sweep never wrote a checkpoint: {t:?}");
    assert!(t.events[Event::Crash] > 0, "sweep never exercised a crash: {t:?}");
    // crash debris is *torn*, and torn epochs are expected — they must
    // never be misclassified as checksum fallbacks
    assert_eq!(t.fallbacks, 0, "a torn epoch was counted as a checksum fallback: {t:?}");
    for (rank, c) in t.crashes_by_rank.iter().enumerate() {
        assert!(*c > 0, "rank {rank} was never a crash victim across the sweep: {t:?}");
    }
}

/// Checkpoint-store corruption end to end: rank 0's committed epoch-2 blob
/// is bit-flipped in place (through the page cache, so only the blob's own
/// checksum can catch it), then the last rank crashes while cutting that
/// same epoch. At restore, rank 0 must detect the mismatch, treat the
/// epoch like a torn one, and the world must agree on epoch 1 via the
/// existing `all_reduce_min` — exactly one fallback, no panic, and final
/// results bit-identical to the fault-free uncheckpointed baseline.
#[test]
fn corrupted_committed_epoch_falls_back_and_recovers() {
    let (edges, n) = sweep_edges();
    for p in [2usize, 4] {
        let baseline = run_suite(p, &edges, n, None, SuiteOptions::default()).fingerprint;

        let faults = FaultConfig::quiet(0xC0DE).with_forced_crash(p - 1, 2);
        let mut out = CommWorld::run_with_faults(p, Some(faults), |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default().with_num_vertices(n),
            );
            let spec = CheckpointSpec::default().with_every(8).with_corrupt_committed(0, 2);
            let bcfg = BfsConfig { checkpoint: Some(spec), ..BfsConfig::default() };
            let b = bfs(ctx, &g, VertexId(0), &bcfg);
            assert_conserved(ctx, "bfs", &b.stats);
            let report = validate_bfs(ctx, &g, VertexId(0), &b.local_state);
            assert!(report.is_valid(), "bfs parents/levels invalid: {report:?}");
            let fp = (
                b.visited_count,
                b.max_level,
                gather_state(ctx, &g, |li| b.local_state[li].length),
            );
            let crashes = ctx.all_reduce_sum(b.stats.events[Event::Crash]);
            let restores = ctx.all_reduce_sum(b.stats.events[Event::Restore]);
            let fallbacks = ctx.all_reduce_sum(b.stats.restore_epoch_fallbacks);
            (fp, crashes, restores, fallbacks)
        });
        let (fp, crashes, restores, fallbacks) = out.remove(0);
        assert_eq!(
            (fp.0, fp.1, &fp.2),
            (baseline.bfs_visited, baseline.bfs_max_level, &baseline.bfs_levels),
            "corrupted-epoch recovery perturbed the BFS result at p={p}"
        );
        assert_eq!(crashes, 1, "forced crash at epoch 2 never fired at p={p}");
        assert_eq!(restores, p as u64, "every rank must rewind exactly once at p={p}");
        assert_eq!(
            fallbacks, 1,
            "the corrupted committed epoch must be skipped exactly once at p={p}"
        );
    }
}

/// Deterministic victim grid: kill each rank in turn at each of the first
/// epochs and require exact recovery. Complements the seeded sweep by
/// sampling the (rank, epoch) space exhaustively instead of randomly.
#[test]
fn restart_every_rank_every_early_epoch() {
    let (edges, n) = sweep_edges();
    let p = 4;
    let baseline = run_suite(p, &edges, n, None, SuiteOptions::default());
    let mut crashed_runs = 0u64;
    for victim in 0..p {
        for epoch in 1..=3u64 {
            let faults = FaultConfig::quiet(0xD1E).with_forced_crash(victim, epoch);
            let out = run_suite(
                p,
                &edges,
                n,
                Some(faults),
                SuiteOptions::default().with_checkpoint_every(8),
            );
            assert_eq!(
                out.fingerprint, baseline.fingerprint,
                "victim {victim} at epoch {epoch} perturbed the result"
            );
            crashed_runs += u64::from(out.faults.events[Event::Crash] > 0);
        }
    }
    // every grid point must actually have reached its crash epoch
    assert_eq!(crashed_runs, (p as u64) * 3, "some (rank, epoch) crashes never fired");
}

/// The heavyweight sweep for the CI restart-chaos job (`--include-ignored`,
/// release): a larger graph at a deliberately awkward rank count.
#[test]
#[ignore = "heavy: run via the CI restart-chaos job or --include-ignored"]
fn restart_sweep_heavy_seven_ranks() {
    let (edges, n) = heavy_sweep_edges();
    let p = 7;
    let baseline = run_suite(p, &edges, n, None, SuiteOptions::default());
    sweep_seeds(sweep_seed_set(8), |seed| {
        let faults = FaultConfig::chaos(seed).with_crash(100);
        let out = run_suite(
            p,
            &edges,
            n,
            Some(faults),
            SuiteOptions::default().with_checkpoint_every(24),
        );
        assert_eq!(
            out.fingerprint, baseline.fingerprint,
            "seed {seed:#x} perturbed a converged result at p={p}"
        );
        assert!(out.faults.events[Event::Checkpoint] > 0, "seed {seed:#x} never checkpointed");
    });
}
