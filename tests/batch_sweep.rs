//! The `batch` rows of the test matrix (`havoq::testing::ROWS`): a batch
//! of K BFS queries multiplexed through one traversal must answer every
//! query exactly as K serial single-source traversals do (visited count,
//! traversed edges, depth and level array; parents validated
//! structurally). Widths K ∈ {2, 8, 64}, workers {1, 4} and ranks {1, 2}
//! are crossed fault-free, under chaos, under corruption and loss, and
//! across crash and restore, with the per-query execution ledger summing
//! to the batch totals on every run. Reachability rides the same mask
//! plane: its counts equal BFS visited counts and its masks agree with the
//! reference levels bit for bit.

use havoq::testing::run_row;

#[test]
fn batch_widths_match_serial_reference() {
    run_row("batch_widths_match_serial_reference");
}

#[test]
fn batch_chaos_sweep_16_seeds_matches_serial() {
    run_row("batch_chaos_sweep_16_seeds_matches_serial");
}

#[test]
fn batch_lossy_sweep_matches_serial() {
    run_row("batch_lossy_sweep_matches_serial");
}

#[test]
fn batch_resume_equivalence_after_rank_crashes() {
    run_row("batch_resume_equivalence_after_rank_crashes");
}

#[test]
fn batch_reach_agrees_with_bfs_reference() {
    run_row("batch_reach_agrees_with_bfs_reference");
}

#[test]
#[ignore = "heavy: run via the CI batched-chaos group or --include-ignored"]
fn batch_chaos_sweep_heavy_seven_ranks() {
    run_row("batch_chaos_sweep_heavy_seven_ranks");
}
