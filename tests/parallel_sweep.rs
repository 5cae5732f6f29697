//! The `parallel` rows of the test matrix (`havoq::testing::ROWS`):
//! `threads > 1` fans each rank's visits out to a worker pool while the
//! mailbox, ghosts, quiescence and checkpoints stay on the coordinator.
//! Every algorithm is a monotone fixpoint (the counting ones merge exact
//! per-visit deltas), so the converged state must not depend on the worker
//! count: the suite at 2, 4 and 8 workers reproduces the serial run
//! fault-free, under chaos, under corruption and loss, across crash and
//! restore, and with every worker hammering one page cache.

use havoq::testing::run_row;

#[test]
fn parallel_suite_matches_serial_baseline() {
    run_row("parallel_suite_matches_serial_baseline");
}

#[test]
fn parallel_chaos_sweep_16_seeds_matches_serial() {
    run_row("parallel_chaos_sweep_16_seeds_matches_serial");
}

#[test]
fn parallel_lossy_sweep_matches_serial() {
    run_row("parallel_lossy_sweep_matches_serial");
}

#[test]
fn parallel_resume_equivalence_after_rank_crashes() {
    run_row("parallel_resume_equivalence_after_rank_crashes");
}

#[test]
#[ignore = "heavy: run via the CI parallel-chaos group or --include-ignored"]
fn parallel_chaos_sweep_heavy_seven_ranks() {
    run_row("parallel_chaos_sweep_heavy_seven_ranks");
}

#[test]
#[ignore = "heavy: run via the CI parallel-chaos group or --include-ignored"]
fn parallel_hammer_threads_eight_external_lossy() {
    run_row("parallel_hammer_threads_eight_external_lossy");
}
