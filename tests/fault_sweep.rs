//! The `fault` rows of the test matrix (`havoq::testing::ROWS`): the whole
//! algorithm suite under seeded message faults must converge to the
//! fault-free fingerprint bit for bit.
//!
//! - 32 chaos plans (delay, reorder, duplicate, stall, slow rank) at p = 4,
//!   with every fault type demonstrably fired;
//! - 32 lossy plans (chaos plus frame corruption and loss) at p = 1 and 2:
//!   every injected flip is caught by the frame CRC, every loss repaired by
//!   NACK/retransmit, and a loopback-only world sees no wire fault at all;
//! - each fault type alone at p = 3.
//!
//! A lost payload would leave a fixpoint unconverged (fingerprint
//! mismatch) and break the runner's global sent == received check.

use havoq::testing::run_row;
use havoq_comm::{CommWorld, Event, FaultConfig};
use havoq_util::testing::sweep_seed_set;

#[test]
fn fault_sweep_32_seeds_matches_baseline() {
    run_row("fault_sweep_32_seeds_matches_baseline");
}

#[test]
fn corruption_drop_sweep_matches_baseline() {
    run_row("corruption_drop_sweep_matches_baseline");
}

#[test]
fn fault_single_knob_plans_match_baseline() {
    run_row("fault_single_knob_plans_match_baseline");
}

#[test]
#[ignore = "heavy: run via the CI chaos group or --include-ignored"]
fn fault_sweep_heavy_seven_ranks() {
    run_row("fault_sweep_heavy_seven_ranks");
}

#[test]
#[ignore = "heavy: run via the CI integrity group or --include-ignored"]
fn corruption_sweep_heavy_seven_ranks() {
    run_row("corruption_sweep_heavy_seven_ranks");
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
