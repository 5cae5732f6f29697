//! The test matrix's own tests: what the table holds, that it covers every
//! cell the sweeps ran before it existed, and that its rejected holes
//! really are rejected. The rows themselves run from the `#[test]` of the
//! same name (`tests/<group>_sweep.rs`, `tests/golden_results.rs`), so
//! test names and CI filters stay what they were.
//!
//! `cargo test --release --test matrix list -- --nocapture` prints every
//! row with its cell count, then every hole.

use havoq::testing::Plans::*;
use havoq::testing::*;

#[test]
fn list() {
    for r in ROWS {
        let heavy = if r.heavy { "heavy" } else { "" };
        let cells = r.cells().len();
        println!("{:<52} {cells:>4} {heavy}", r.name);
    }
    for h in HOLES {
        println!("hole: {} × {}: {:?}", h.engine, h.axis, h.reason);
    }
}

#[test]
fn row_names_are_unique_and_grids_non_empty() {
    for (i, r) in ROWS.iter().enumerate() {
        assert!(ROWS[..i].iter().all(|o| o.name != r.name), "row {} is listed twice", r.name);
        assert!(!r.cells().is_empty(), "row {} has no cells", r.name);
    }
}

/// Every rejected hole panics with its message instead of running.
#[test]
fn rejected_holes_panic_with_their_message() {
    for h in HOLES {
        if let Reason::Rejected(cell, message) = h.reason {
            let err = std::panic::catch_unwind(|| run(&cell)).expect_err(h.axis);
            let text = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(text.contains(message), "{} × {}: panicked with {text:?}", h.engine, h.axis);
        }
    }
}

/// Every cell the pre-matrix sweep files and golden_results' two
/// equivalence tests compared against a baseline, written out as the
/// grids those tests looped over, in file order. Positional: engines,
/// graphs, rank counts, thread counts, storages, plans, checkpoint
/// interval.
#[rustfmt::skip]
const PRE_MATRIX: &[Grid] = &[
    // fault_sweep
    grid(SUITE, SWEEP, &[4], &[1], MEM, &[Chaos(32)], None),
    grid(SUITE, SWEEP, &[1, 2], &[1], MEM, &[Lossy(32)], None),
    grid(SUITE, SWEEP, &[3], &[1], MEM, &[Knobs], None),
    grid(SUITE, HEAVY, &[7], &[1], MEM, &[Chaos(8), Lossy(32)], None),
    // restart_sweep
    grid(SUITE, SWEEP, &[4], &[1], MEM, &[ChaosCrash(32, 150)], Some(16)),
    grid(BFS1, SWEEP, &[2, 4], &[1], MEM, &[CorruptEpoch], Some(8)),
    grid(SUITE, SWEEP, &[4], &[1], MEM, &[CrashGrid(3)], Some(8)),
    grid(SUITE, HEAVY, &[7], &[1], MEM, &[ChaosCrash(8, 100)], Some(24)),
    // parallel_sweep
    grid(SUITE, SWEEP, &[1, 2], &[2, 4], MEM, &[Free, Chaos(16)], None),
    grid(SUITE, SWEEP, &[2], &[4], MEM, &[Lossy(8)], None),
    grid(SUITE, TINY, &[2], &[4], MEM, &[CrashGrid(2)], Some(1)),
    grid(SUITE, HEAVY, &[7], &[4], MEM, &[Chaos(16)], None),
    grid(SUITE, HEAVY, &[2], &[8], &[Storage::Ext], &[Lossy(4)], None),
    // batch_sweep
    grid(&WIDTHS, SWEEP, &[1, 2], &[1, 4], MEM, &[Free, Chaos(16)], None),
    grid(&WIDTHS, SWEEP, &[2], &[4], MEM, &[Lossy(8)], None),
    grid(BATCH8, SWEEP, &[2], &[1, 4], MEM, &[CrashGrid(2)], Some(4)),
    grid(REACH8, SWEEP, &[1, 2], &[1], MEM, &[Free, Chaos(1)], None),
    grid(BATCH64, HEAVY, &[7], &[4], MEM, &[Chaos(4)], None),
    grid(BATCH64, HEAVY, &[7], &[4], MEM, &[ChaosCrash(1, 150)], Some(16)),
    // direction_sweep
    grid(&MODES, SWEEP, &[1, 2], &[1, 4], MEM, &[Free, Chaos(16)], None),
    grid(&MODES, SWEEP, &[2], &[4], MEM, &[Lossy(8)], None),
    grid(AUTO, SWEEP, &[2], &[1, 4], MEM, &[CrashGrid(2)], Some(1)),
    grid(AUTO, HEAVY, &[7], &[4], MEM, &[Chaos(16)], None),
    // storage_sweep
    grid(SUITE, SWEEP, &[1, 2], &[1, 4], ALL_STORAGE, FREE, None),
    grid(&MODES, SWEEP, &[1, 2], &[1, 4], EXTERNAL, FREE, None),
    grid(BATCH8, SWEEP, &[1, 2], &[1, 4], EXTERNAL, FREE, None),
    grid(SUITE, SWEEP, &[2], &[4], COMP, &[Chaos(16)], None),
    grid(SUITE, SWEEP, &[2], &[1], COMP, &[Lossy(16)], None),
    grid(SUITE, SWEEP, &[2], &[1], COMP, &[CrashGrid(2)], Some(1)),
    grid(SUITE, HEAVY, &[7], &[4], EXTERNAL, FREE, None),
    grid(SUITE, HEAVY, &[7], &[4], COMP, &[Chaos(4)], None),
    // lifecycle_sweep
    grid(&SCENARIOS, SWEEP, &[1, 2], &[1, 4], MEM_COMP, FREE, None),
    grid(UNBUDGETED, SWEEP, &[2], &[4], MEM, FREE, None),
    grid(BUDGETED, SWEEP, &[2], &[4], MEM, &[Chaos(4), Lossy(4)], None),
    grid(&SCENARIOS, SWEEP, &[2], &[4], MEM, &[Chaos(16), Lossy(16)], None),
    grid(UNBUDGETED, SWEEP, &[2], &[1, 4], MEM, &[HardStall], None),
    // golden_results
    grid(SUITE, TINY, &[1, 2, 7], &[1], MEM, FREE, Some(2)),
    grid(SUITE, &[Graph::Tiny, Graph::Path8], &[1, 2, 7], &[1], MEM, &[CrashGrid(2)], Some(1)),
];

/// The matrix is a superset of what the sweeps ran before it.
#[test]
fn matrix_covers_pre_matrix_cells() {
    let rows: Vec<Cell> = ROWS.iter().flat_map(Row::cells).collect();
    let mut old = 0;
    for cell in PRE_MATRIX.iter().flat_map(Grid::cells) {
        assert!(rows.contains(&cell), "no row runs the pre-matrix cell {cell:?}");
        old += 1;
    }
    assert!(rows.len() >= old, "{} row cells < {old} pre-matrix cells", rows.len());
}
