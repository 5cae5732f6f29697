//! The `restart` rows of the test matrix (`havoq::testing::ROWS`): every
//! algorithm checkpoints, ranks crash mid-write and tear their epoch, the
//! world rewinds to the last complete epoch and resumes, and the final
//! results must equal a fault-free, uncheckpointed run bit for bit.
//!
//! - 32 chaos-plus-crash plans at p = 4, with checkpoints written, no torn
//!   epoch miscounted as a checksum fallback, and every rank a victim;
//! - a bit-flipped committed epoch: restore skips it exactly once;
//! - every (victim, epoch ≤ 3) forced crash at p = 4, each one firing.
//!
//! The non-idempotent triangle counter is the sharpest probe: a replayed
//! or double-delivered visitor shifts the count, so an inconsistent
//! snapshot cut cannot hide behind monotone state updates.

use havoq::testing::run_row;

#[test]
fn restart_sweep_32_seeds_matches_baseline() {
    run_row("restart_sweep_32_seeds_matches_baseline");
}

#[test]
fn corrupted_committed_epoch_falls_back_and_recovers() {
    run_row("corrupted_committed_epoch_falls_back_and_recovers");
}

#[test]
fn restart_every_rank_every_early_epoch() {
    run_row("restart_every_rank_every_early_epoch");
}

#[test]
#[ignore = "heavy: run via the CI restart-chaos group or --include-ignored"]
fn restart_sweep_heavy_seven_ranks() {
    run_row("restart_sweep_heavy_seven_ranks");
}
