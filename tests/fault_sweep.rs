//! The fault-injection correctness sweep (the tentpole's acceptance test).
//!
//! Every algorithm in the suite is a monotone fixpoint computation, so its
//! *converged state* must not depend on message timing: BFS levels, SSSP
//! distances, CC labels, k-core membership and residual counters, and
//! triangle counts are identical under any delivery schedule, provided
//! every payload is delivered exactly once and quiescence never fires
//! early. The sweep runs the whole suite under 32 seeded fault plans
//! (delay + reorder + duplicate + stall + slow-rank) and asserts the
//! results are bit-identical to the fault-free baseline.
//!
//! The suite runner, fingerprint (parents deliberately excluded — see
//! `havoq::testing`), conservation check and fault-counter totals are the
//! shared sweep scaffolding in `havoq::testing`.
//!
//! Early termination is caught two ways: a lost payload would leave the
//! fixpoint unconverged (fingerprint mismatch), and the global
//! sent == received conservation check would fail.
//!
//! The integrity sweep stacks seeded frame corruption and loss on the same
//! adversary: every injected bit-flip must be caught by the frame CRC
//! (injected == detected, i.e. zero undetected corruptions), every loss
//! repaired by NACK/retransmit, and results must stay bit-identical.
//!
//! Reproduce a failing seed locally:
//! `run_suite(4, &edges, n, Some(FaultConfig::chaos(SEED)), SuiteOptions::default())`.

use havoq::testing::{heavy_sweep_edges, run_suite, sweep_edges, FaultTotals, SuiteOptions};
use havoq_comm::{CommWorld, Event, FaultConfig};
use havoq_util::testing::{sweep_seed_set, sweep_seeds};

/// The acceptance sweep: 32 seeded chaos plans, every algorithm, results
/// bit-identical to the fault-free baseline, and every fault type
/// demonstrably exercised at least once across the sweep.
#[test]
fn fault_sweep_32_seeds_matches_baseline() {
    let (edges, n) = sweep_edges();
    let p = 4;
    let baseline = run_suite(p, &edges, n, None, SuiteOptions::default());
    assert_eq!(
        baseline.faults.total_events(),
        0,
        "fault-free baseline must observe zero fault events"
    );

    let totals = std::sync::Mutex::new(FaultTotals::default());
    sweep_seeds(sweep_seed_set(32), |seed| {
        let out = run_suite(p, &edges, n, Some(FaultConfig::chaos(seed)), SuiteOptions::default());
        assert_eq!(
            out.fingerprint, baseline.fingerprint,
            "seed {seed:#x} perturbed a converged result"
        );
        totals.lock().unwrap().merge(&out.faults);
    });

    let t = totals.into_inner().unwrap().events;
    assert!(t[Event::FaultDelay] > 0, "sweep never exercised delay: {t:?}");
    assert!(t[Event::FaultReorder] > 0, "sweep never exercised reorder: {t:?}");
    assert!(t[Event::FaultDup] > 0, "sweep never exercised duplication: {t:?}");
    assert!(t[Event::FaultDedup] > 0, "sweep never dropped a duplicate: {t:?}");
    assert!(t[Event::FaultStall] > 0, "sweep never exercised a receive stall: {t:?}");
    assert!(t[Event::FaultThrottle] > 0, "sweep never exercised a slow rank: {t:?}");
    // Every dedup drop corresponds to a duplicated frame; the counts need
    // not be equal because a duplicate copy still in flight when quiescence
    // (correctly) fires is simply discarded with the world.
    assert!(t[Event::FaultDedup] <= t[Event::FaultDup], "more drops than duplicates: {t:?}");
}

/// The end-to-end integrity sweep: seeded frame corruption and loss
/// stacked on the full chaos adversary (delay + reorder + duplicate +
/// stall + slow-rank). Three guarantees per seed:
///
/// - **bit-identical results** — CRC detection plus NACK/retransmit repair
///   must make corruption and loss invisible to every algorithm;
/// - **zero undetected corruptions** — every injected flip is caught by
///   the frame CRC (`injected == detected`; a dropped frame is never also
///   corrupted, it simply vanishes and is resupplied);
/// - **conservation** — `assert_conserved` inside the suite runner proves
///   quiescence never fired while a repair was still owed.
///
/// p = 1 rides along to pin the degenerate case: all traffic is loopback
/// (never framed, so never corruptible) and the plan must be fully inert.
#[test]
fn corruption_drop_sweep_matches_baseline() {
    let (edges, n) = sweep_edges();
    for p in [1usize, 2] {
        let baseline = run_suite(p, &edges, n, None, SuiteOptions::default());
        let totals = std::sync::Mutex::new(FaultTotals::default());
        sweep_seeds(sweep_seed_set(32), |seed| {
            let out =
                run_suite(p, &edges, n, Some(FaultConfig::lossy(seed)), SuiteOptions::default());
            assert_eq!(
                out.fingerprint, baseline.fingerprint,
                "seed {seed:#x} perturbed a converged result at p={p}"
            );
            assert_eq!(
                out.faults.events[Event::FaultCorrupt],
                out.faults.events[Event::CorruptDetected],
                "seed {seed:#x} at p={p}: an injected flip escaped the frame CRC"
            );
            totals.lock().unwrap().merge(&out.faults);
        });
        let t = totals.into_inner().unwrap().events;
        if p == 1 {
            assert_eq!(
                t[Event::FaultCorrupt] + t[Event::FaultDrop],
                0,
                "loopback-only world must see no wire faults: {t:?}"
            );
        } else {
            assert!(t[Event::FaultCorrupt] > 0, "sweep never corrupted a frame: {t:?}");
            assert!(t[Event::FaultDrop] > 0, "sweep never dropped a frame: {t:?}");
            assert!(t[Event::Nack] > 0, "repair never NACKed: {t:?}");
            assert!(t[Event::Retransmit] > 0, "repair never retransmitted: {t:?}");
        }
    }
}

/// Focused single-fault plans: each fault type alone must also leave
/// results untouched (catches bugs a combined plan could mask).
#[test]
fn fault_single_knob_plans_match_baseline() {
    let (edges, n) = sweep_edges();
    let p = 3;
    let baseline = run_suite(p, &edges, n, None, SuiteOptions::default());
    let plans = [
        ("delay", FaultConfig::quiet(7).with_delay(400, 16)),
        ("reorder", FaultConfig::quiet(7).with_reorder(400, 8)),
        ("duplicate", FaultConfig::quiet(7).with_duplicate(300)),
        ("stall", FaultConfig::quiet(7).with_stall(60, 40)),
        ("slow-rank", FaultConfig::quiet(7).with_slow_ranks(600, 3)),
        ("corrupt", FaultConfig::quiet(7).with_corrupt(60)),
        ("drop", FaultConfig::quiet(7).with_drop(60)),
        ("corrupt+drop", FaultConfig::quiet(7).with_corrupt(40).with_drop(40)),
    ];
    for (name, cfg) in plans {
        let out = run_suite(p, &edges, n, Some(cfg), SuiteOptions::default());
        assert_eq!(
            out.fingerprint, baseline.fingerprint,
            "single-knob plan '{name}' perturbed the result"
        );
    }
}

/// Fault decisions are functions of each message's identity alone, so on a
/// *fixed* message stream the same seed yields identical fault counters run
/// to run. (An asynchronous traversal is not a fixed stream — its message
/// population varies with the schedule — so this is asserted at the
/// transport level, where the stream is pinned.)
#[test]
fn fault_counters_are_reproducible_per_seed() {
    let seed = sweep_seed_set(1)[0];
    let cfg = FaultConfig::quiet(seed).with_delay(300, 10).with_reorder(300, 6);
    let run = || {
        let snaps = CommWorld::run_with_faults(2, Some(cfg), |ctx| {
            let ch = ctx.channel::<u64>(0);
            if ctx.rank() == 0 {
                for i in 0..500u64 {
                    ch.send(1, i);
                }
            } else {
                for _ in 0..500 {
                    let _ = ch.recv_blocking(ctx);
                }
            }
            ctx.barrier();
            ch.stats_snapshot()
        });
        snaps.into_iter().next().unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.count(Event::FaultDelay), b.count(Event::FaultDelay), "delay decisions drifted");
    assert!(a.count(Event::FaultDelay) > 0, "plan with 300 permille delay never delayed");
}

/// The heavyweight sweep for the CI chaos job (`--include-ignored`,
/// release): a larger graph at a deliberately awkward rank count.
#[test]
#[ignore = "heavy: run via the CI chaos job or --include-ignored"]
fn fault_sweep_heavy_seven_ranks() {
    let (edges, n) = heavy_sweep_edges();
    let p = 7;
    let baseline = run_suite(p, &edges, n, None, SuiteOptions::default());
    sweep_seeds(sweep_seed_set(8), |seed| {
        let out = run_suite(p, &edges, n, Some(FaultConfig::chaos(seed)), SuiteOptions::default());
        assert_eq!(
            out.fingerprint, baseline.fingerprint,
            "seed {seed:#x} perturbed a converged result at p={p}"
        );
    });
}

/// The heavyweight integrity sweep for the CI integrity-chaos job
/// (`--include-ignored`, release): 32 lossy seeds at a deliberately
/// awkward rank count on a larger graph, zero undetected corruptions.
#[test]
#[ignore = "heavy: run via the CI integrity-chaos job or --include-ignored"]
fn corruption_sweep_heavy_seven_ranks() {
    let (edges, n) = heavy_sweep_edges();
    let p = 7;
    let baseline = run_suite(p, &edges, n, None, SuiteOptions::default());
    let totals = std::sync::Mutex::new(FaultTotals::default());
    sweep_seeds(sweep_seed_set(32), |seed| {
        let out = run_suite(p, &edges, n, Some(FaultConfig::lossy(seed)), SuiteOptions::default());
        assert_eq!(
            out.fingerprint, baseline.fingerprint,
            "seed {seed:#x} perturbed a converged result at p={p}"
        );
        assert_eq!(
            out.faults.events[Event::FaultCorrupt],
            out.faults.events[Event::CorruptDetected],
            "seed {seed:#x} at p={p}: an injected flip escaped the frame CRC"
        );
        totals.lock().unwrap().merge(&out.faults);
    });
    let t = totals.into_inner().unwrap().events;
    assert!(
        t[Event::FaultCorrupt] > 0 && t[Event::FaultDrop] > 0,
        "heavy sweep never exercised loss: {t:?}"
    );
    assert!(t[Event::Nack] > 0 && t[Event::Retransmit] > 0, "heavy sweep never repaired: {t:?}");
}
