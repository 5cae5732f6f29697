//! The `lifecycle` rows of the test matrix (`havoq::testing::ROWS`).
//!
//! Every query admitted to the lifecycle control plane terminates in one
//! of `{Complete, DeadlineExceeded, Cancelled, Aborted}` with a
//! well-formed result. Short of `Aborted`, the whole per-query record is
//! bit-identical across ranks, threads, storage and chaos or lossy plans,
//! and its replication-independent view (everything but
//! `executed_global`, which counts per-copy claims) across rank counts
//! too. `Complete` agrees with `bfs_batch`. A hard-stalled rank yields a
//! clean, world-agreed `Aborted` on every rank instead of a hang.

use havoq::testing::run_row;

#[test]
fn lifecycle_outcomes_deterministic_across_grid() {
    run_row("lifecycle_outcomes_deterministic_across_grid");
}

#[test]
fn lifecycle_complete_matches_bfs_batch() {
    run_row("lifecycle_complete_matches_bfs_batch");
}

#[test]
fn lifecycle_chaos_and_lossy_seeds_match_fault_free() {
    run_row("lifecycle_chaos_and_lossy_seeds_match_fault_free");
}

#[test]
fn hard_stall_aborts_on_all_ranks_without_hanging() {
    run_row("hard_stall_aborts_on_all_ranks_without_hanging");
}

#[test]
#[ignore = "heavy: run via the CI serving group or --include-ignored"]
fn lifecycle_lossy_chaos_sweep_16_seeds() {
    run_row("lifecycle_lossy_chaos_sweep_16_seeds");
}
