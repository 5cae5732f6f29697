//! The lifecycle-determinism belt (DESIGN.md §15's acceptance test).
//!
//! Every query admitted to the lifecycle control plane must terminate in
//! exactly one of `{Complete, DeadlineExceeded, Cancelled, Aborted}` with
//! a well-formed (possibly partial) result, and for every outcome class
//! except `Aborted` the full per-query record — outcome, levels digest of
//! the partial frontier, aggregates, all-reduced ledger sums — must be
//! bit-identical across ranks, thread counts {1, 4}, storage backends and
//! fault plans (including 16-seed lossy chaos). Across *rank counts* the
//! replication-independent view (everything except `executed_global`,
//! which deliberately counts per-copy claim events) must agree too.
//!
//! `Aborted` asserts a weaker, different promise: a hard-stalled rank
//! (a receive channel wedged forever, the fault no retransmit can fix)
//! must yield a world-agreed abort on every rank without hanging — the
//! stall watchdog converts "this traversal will never finish" into a
//! clean terminal outcome on a single detector wave.

use havoq::prelude::*;
use havoq::testing::sweep_edges;
use havoq_comm::FaultConfig;
use havoq_nvram::device::DeviceProfile;
use havoq_util::testing::{sweep_seed_set, sweep_seeds};

/// The replication-independent slice of a [`QueryLifecycle`]: identical
/// across rank counts as well as ranks/threads/storages/faults.
/// (`executed_global` is excluded — it counts one claim per vertex
/// *copy*, so it scales with the replication factor; it is still asserted
/// bit-identical across ranks, threads and storages at a fixed rank
/// count via the full-record comparisons.)
type View = Vec<(QueryOutcome, u64, u64, u64, u64, u64)>;

fn view(qs: &[QueryLifecycle]) -> View {
    qs.iter()
        .map(|q| {
            (
                q.outcome,
                q.levels_digest,
                q.visited_count,
                q.traversed_edges,
                q.max_level,
                q.pushed_global,
            )
        })
        .collect()
}

fn sweep_cache() -> havoq_nvram::cache::PageCacheConfig {
    havoq_nvram::cache::PageCacheConfig {
        page_size: 512,
        capacity_pages: 16,
        shards: 2,
        ..Default::default()
    }
}

fn storage_matrix() -> Vec<(&'static str, GraphConfig)> {
    vec![
        ("mem", GraphConfig::default()),
        ("ext-comp", GraphConfig::external_compressed(DeviceProfile::dram(), sweep_cache())),
    ]
}

/// One lifecycle scenario: budgets plus a cancel schedule.
#[derive(Clone, Copy)]
struct Scenario {
    label: &'static str,
    max_rounds: Option<u64>,
    max_inspected: Option<u64>,
    cancels: &'static [(usize, u64)],
}

const SCENARIOS: [Scenario; 5] = [
    Scenario { label: "unbudgeted", max_rounds: None, max_inspected: None, cancels: &[] },
    Scenario { label: "round-budget", max_rounds: Some(3), max_inspected: None, cancels: &[] },
    Scenario { label: "edge-budget", max_rounds: None, max_inspected: Some(400), cancels: &[] },
    Scenario { label: "cancel", max_rounds: None, max_inspected: None, cancels: &[(1, 1), (3, 0)] },
    Scenario { label: "mixed", max_rounds: Some(4), max_inspected: Some(900), cancels: &[(2, 1)] },
];

/// Run one scenario; returns every rank's full result so callers can
/// assert cross-rank agreement directly.
fn lifecycle_run(
    p: usize,
    threads: usize,
    storage: GraphConfig,
    faults: Option<FaultConfig>,
    sc: Scenario,
) -> Vec<LifecycleBfsResult> {
    let (edges, n) = sweep_edges();
    CommWorld::run_with_faults(p, faults, move |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            &edges,
            PartitionStrategy::EdgeList,
            storage.with_num_vertices(n),
        );
        let sources: Vec<VertexId> = (0..8).map(VertexId).collect();
        let mut cfg = BatchConfig::default().with_threads(threads);
        if let Some(r) = sc.max_rounds {
            cfg = cfg.with_max_rounds(r);
        }
        if let Some(e) = sc.max_inspected {
            cfg = cfg.with_max_inspected(e);
        }
        bfs_batch_lifecycle::<8>(ctx, &g, &sources, &cfg, sc.cancels)
    })
}

/// Fault-free determinism grid: every scenario × p ∈ {1, 2} × threads ∈
/// {1, 4} × storage ∈ {mem, ext-comp} answers with one bit-identical
/// replication-independent view, full records agree across ranks and
/// threads at each rank count, and outcomes land only in the expected
/// classes.
#[test]
fn lifecycle_outcomes_deterministic_across_grid() {
    for sc in SCENARIOS {
        let mut golden: Option<View> = None;
        for p in [1usize, 2] {
            let mut full: Option<Vec<QueryLifecycle>> = None;
            for threads in [1usize, 4] {
                for (label, storage) in storage_matrix() {
                    let runs = lifecycle_run(p, threads, storage, None, sc);
                    for r in &runs {
                        assert!(!r.aborted, "{}: fault-free run aborted", sc.label);
                        match &full {
                            None => full = Some(r.queries.clone()),
                            Some(want) => assert_eq!(
                                &r.queries, want,
                                "{}: full records diverged at p={p} threads={threads} \
                                 storage={label}",
                                sc.label
                            ),
                        }
                        match &golden {
                            None => golden = Some(view(&r.queries)),
                            Some(want) => assert_eq!(
                                &view(&r.queries),
                                want,
                                "{}: view diverged at p={p} threads={threads} storage={label}",
                                sc.label
                            ),
                        }
                        for (qi, q) in r.queries.iter().enumerate() {
                            let expected = match sc.label {
                                "unbudgeted" => q.outcome == QueryOutcome::Complete,
                                "cancel" => {
                                    q.outcome == QueryOutcome::Complete
                                        || q.outcome == QueryOutcome::Cancelled
                                }
                                _ => q.outcome != QueryOutcome::Aborted,
                            };
                            assert!(expected, "{}: query {qi} landed in {:?}", sc.label, q.outcome);
                            assert!(q.visited_count >= 1, "every source reaches itself");
                        }
                    }
                }
            }
        }
    }
    // the cancel scenario really cancelled (not everything completed
    // before the cancel landed)
    let runs = lifecycle_run(2, 1, GraphConfig::default(), None, SCENARIOS[3]);
    assert!(runs[0].queries.iter().any(|q| q.outcome == QueryOutcome::Cancelled));
}

/// `Complete` means complete: an unbudgeted lifecycle run must agree with
/// `bfs_batch` (the fixed-point engine the equivalence belt already pins
/// to serial BFS) on every per-query aggregate.
#[test]
fn lifecycle_complete_matches_bfs_batch() {
    let (edges, n) = sweep_edges();
    let reference = CommWorld::run(2, move |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            &edges,
            PartitionStrategy::EdgeList,
            GraphConfig::default().with_num_vertices(n),
        );
        let sources: Vec<VertexId> = (0..8).map(VertexId).collect();
        bfs_batch::<8>(ctx, &g, &sources, &BatchConfig::default()).per_query.clone()
    })
    .remove(0);
    let runs = lifecycle_run(2, 4, GraphConfig::default(), None, SCENARIOS[0]);
    for (qi, q) in runs[0].queries.iter().enumerate() {
        assert_eq!(q.outcome, QueryOutcome::Complete);
        assert_eq!(q.visited_count, reference[qi].visited_count, "query {qi} visited");
        assert_eq!(q.traversed_edges, reference[qi].traversed_edges, "query {qi} traversed");
        assert_eq!(q.max_level, reference[qi].max_level, "query {qi} depth");
    }
}

/// The chaos acceptance sweep: seeded lossy and chaos adversaries must
/// not perturb any lifecycle verdict — same outcomes, same partial
/// digests, same ledger sums as the fault-free golden run, for budgeted,
/// cancelled and mixed scenarios alike.
#[test]
fn lifecycle_chaos_and_lossy_seeds_match_fault_free() {
    let p = 2;
    for sc in [SCENARIOS[1], SCENARIOS[3], SCENARIOS[4]] {
        let golden = view(&lifecycle_run(p, 4, GraphConfig::default(), None, sc)[0].queries);
        let golden_full = lifecycle_run(p, 4, GraphConfig::default(), None, sc)[0].queries.clone();
        sweep_seeds(sweep_seed_set(4), |seed| {
            for faults in [FaultConfig::chaos(seed), FaultConfig::lossy(seed)] {
                let runs = lifecycle_run(p, 4, GraphConfig::default(), Some(faults), sc);
                for r in &runs {
                    assert!(!r.aborted, "{}: transient faults must never abort", sc.label);
                    assert_eq!(
                        r.queries, golden_full,
                        "{}: seed {seed:#x} perturbed a lifecycle verdict",
                        sc.label
                    );
                    assert_eq!(view(&r.queries), golden, "{}: view diverged", sc.label);
                }
            }
        });
    }
}

/// The heavyweight CI sweep (`--include-ignored`, release): the full
/// 16-seed lossy chaos belt over every scenario.
#[test]
#[ignore = "heavy: run via the CI serving-robustness job or --include-ignored"]
fn lifecycle_lossy_chaos_sweep_16_seeds() {
    let p = 2;
    for sc in SCENARIOS {
        let golden = lifecycle_run(p, 4, GraphConfig::default(), None, sc)[0].queries.clone();
        sweep_seeds(sweep_seed_set(16), |seed| {
            for faults in [FaultConfig::chaos(seed), FaultConfig::lossy(seed)] {
                let runs = lifecycle_run(p, 4, GraphConfig::default(), Some(faults), sc);
                for r in &runs {
                    assert!(!r.aborted);
                    assert_eq!(
                        r.queries, golden,
                        "{}: seed {seed:#x} perturbed a lifecycle verdict",
                        sc.label
                    );
                }
            }
        });
    }
}

/// The stall watchdog: wedge one rank's receive side forever (the fault
/// no retransmit can repair) and demand a clean, world-agreed `Aborted`
/// on every rank — the run *returns* on all ranks (no hang), every rank
/// reports `aborted`, the terminal outcomes agree bit-for-bit across
/// ranks, and at least one query was actually abandoned.
///
/// Hard stalls pair with non-lossy plans only: a lossy plan's NACK and
/// retransmit machinery would spin against the wedged channel and panic
/// at its repair-attempt horizon before the (deliberately patient)
/// watchdog default fires. The watchdog threshold here is small because
/// the plan is clean — no transient imbalance exists to tolerate.
#[test]
fn hard_stall_aborts_on_all_ranks_without_hanging() {
    let (edges, n) = sweep_edges();
    for victim in [0usize, 1] {
        for threads in [1usize, 4] {
            let edges = edges.clone();
            let faults = FaultConfig::quiet(0x5_7A11 + victim as u64).with_hard_stall(victim, 2);
            let runs = CommWorld::run_with_faults(2, Some(faults), move |ctx| {
                let g = DistGraph::build_replicated(
                    ctx,
                    &edges,
                    PartitionStrategy::EdgeList,
                    GraphConfig::default().with_num_vertices(n),
                );
                let sources: Vec<VertexId> = (0..8).map(VertexId).collect();
                let cfg = BatchConfig::default().with_threads(threads).with_watchdog(256);
                bfs_batch_lifecycle::<8>(ctx, &g, &sources, &cfg, &[])
            });
            assert_eq!(runs.len(), 2, "both ranks returned");
            for r in &runs {
                assert!(r.aborted, "victim={victim} threads={threads}: watchdog never fired");
                assert_eq!(r.stats.events[Event::Abort], 1, "victim={victim} threads={threads}");
            }
            assert_eq!(
                runs[0].queries, runs[1].queries,
                "victim={victim} threads={threads}: ranks disagree on terminal outcomes"
            );
            assert!(
                runs[0].queries.iter().any(|q| q.outcome == QueryOutcome::Aborted),
                "victim={victim} threads={threads}: a wedged traversal must abandon something"
            );
            for q in &runs[0].queries {
                assert!(
                    q.outcome == QueryOutcome::Aborted || q.outcome == QueryOutcome::Complete,
                    "unexpected outcome {:?} in a hard-stall run",
                    q.outcome
                );
            }
        }
    }
}
