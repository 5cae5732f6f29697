//! Query lifecycle control plane for the batched serving path
//! (DESIGN.md §15).
//!
//! [`bfs_batch`](crate::batch::bfs_batch) runs every admitted query to its
//! fixed point; a serving system cannot afford that promise. This module
//! drives the same batched BFS visitors through a *level-synchronous*
//! round loop — one confirmed quiescence cut per BFS depth — and makes
//! every query terminate in exactly one of the [`QueryOutcome`] states,
//! with a well-formed (possibly partial) result that is bit-identical
//! across ranks, thread counts, storage backends and injected faults.
//!
//! The determinism argument has one anchor: **every lifecycle decision is
//! a pure function of cut-consistent data.** A confirmed cut means every
//! payload sent anywhere during the round was delivered (`sent == recv`
//! globally, stable across a full detector wave), so at a cut all ranks
//! hold the same merged per-vertex state, the same set of delivered
//! cancel records, and ledger counters that all-reduce to the same
//! global totals on every rank. Deadlines are round/edge budgets checked
//! against those all-reduced values — never wall clocks. Cancels ride
//! their own CRC-framed mailbox whose payload counters are summed into
//! the quiescence poll (`queue::Side`), so a cut cannot confirm
//! while a cancel is in flight. The stall watchdog is the
//! one exception — it exists precisely for the case where no further cut
//! will ever confirm — and it is made world-agreed by the detector
//! itself: the root broadcasts the abort inside the wave protocol, so
//! every rank observes `Abort` on the same wave.
//!
//! Exactly-once expansion across threads is enforced by a *claim*
//! protocol instead of the asynchronous engine's recompute-in-`visit`
//! idiom: at a round boundary the depth-`d` state is frozen (arrivals
//! during round `d` are all depth `d+1`), so claiming the live mask
//! under the per-slot bit lock — and filtering retired queries — yields
//! a claimed set per (rank, vertex, depth) that is independent of worker
//! scheduling. Pushes carry the expanding vertex as parent, so the
//! pushed *set* (and the per-query ledger sums) are schedule-invariant
//! too; only BFS parents remain arrival-order dependent, exactly as in
//! the asynchronous engine, which is why result digests cover levels
//! only.

use std::time::{Duration, Instant};

use havoq_comm::{CancelRecord, CutVerdict, Event, RankCtx};
use havoq_graph::dist::DistGraph;
use havoq_graph::types::VertexId;
use havoq_util::parallel::{AtomicBitVec, LockedSlots, PerWorker, WorkerPool};

use crate::batch::{
    at_batch_width, reduce_per_query, seeded_queue, BatchBfsVisitor, BatchConfig, BatchLedger,
};
use crate::queue::{ShardPusher, Side, TraversalStats, VisitorQueue};
use crate::visitor::Visitor;

/// Watchdog threshold used when [`BatchConfig::watchdog_waves`] is unset.
/// Sized so that transient chaos — bounded stall windows, slow-rank
/// throttles, NACK/retransmit round trips — can never accumulate this
/// many *consecutive* stable-but-unbalanced waves, while a true wedge
/// still aborts in well under a second (idle waves complete in
/// microseconds).
pub const DEFAULT_WATCHDOG_WAVES: u64 = 8192;

/// Terminal state of one query under the lifecycle control plane. Every
/// admitted query ends in exactly one of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The query ran to its BFS fixed point.
    Complete,
    /// A deterministic budget (max rounds / max inspected edges) expired
    /// at a cut; the result covers everything up to that cut.
    DeadlineExceeded,
    /// The admission layer dropped the query before it ever ran (bounded
    /// backlog or past-deadline shedding). Never produced by the
    /// traversal itself.
    Shed,
    /// A cancel record retired the query mid-traversal; the result covers
    /// everything up to the cut that confirmed the cancel.
    Cancelled,
    /// The stall watchdog fired: the whole traversal was abandoned on a
    /// world-agreed detector wave. Partial state is well-formed but not
    /// cut-consistent, so only the outcome itself is comparable across
    /// configurations.
    Aborted,
}

impl QueryOutcome {
    /// Stable single-letter code for CSV columns and digests.
    pub fn code(&self) -> char {
        match self {
            QueryOutcome::Complete => 'C',
            QueryOutcome::DeadlineExceeded => 'D',
            QueryOutcome::Shed => 'S',
            QueryOutcome::Cancelled => 'X',
            QueryOutcome::Aborted => 'A',
        }
    }
}

/// Per-query result of a lifecycle run. Every field is a globally agreed
/// value (all-reduced over masters), identical on every rank. In an
/// aborted run only `outcome` is comparable across configurations: the
/// partial state behind the other fields is not cut-consistent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryLifecycle {
    pub outcome: QueryOutcome,
    /// World [`level_digest`](crate::algorithms::bfs::level_digest) of the
    /// query's (possibly partial) BFS levels. Covers levels only — parents
    /// are one valid tree, arrival-order dependent, exactly as in the
    /// asynchronous engine.
    pub levels_digest: u64,
    /// Vertices this query reached (including its source), global.
    pub visited_count: u64,
    /// Global sum of whole-adjacency degrees of reached vertices.
    pub traversed_edges: u64,
    /// Deepest level reached.
    pub max_level: u64,
    /// Globally all-reduced per-query ledger sums: visitor executions
    /// that advanced this query, and edges pushed on its behalf.
    /// `executed_global` counts one claim per *copy* of a vertex (masters
    /// and replicas alike), so it is identical across ranks, threads and
    /// storages at a fixed rank count but scales with the replication
    /// factor; `pushed_global` sums split adjacency fanout and is
    /// invariant across rank counts too.
    pub executed_global: u64,
    pub pushed_global: u64,
}

/// Result of one lifecycle-managed batched BFS run (per rank).
#[derive(Clone, Debug)]
pub struct LifecycleBfsResult {
    /// Per-query lifecycle verdicts, index-aligned with the sources.
    pub queries: Vec<QueryLifecycle>,
    /// Level-synchronous rounds driven to a confirmed cut.
    pub rounds: u64,
    /// True iff the stall watchdog abandoned the traversal.
    pub aborted: bool,
    /// This rank's per-query execution ledger snapshot.
    pub ledger: BatchLedger,
    /// This rank's queue statistics.
    pub stats: TraversalStats,
    pub elapsed: Duration,
}

/// Per-worker state of the round fan-out: the staged pushes and the union
/// of the masks this worker claimed.
type RoundCell<'g, const K: usize> = (ShardPusher<'g, BatchBfsVisitor<K>>, u64);

/// What one run reuses across rounds to expand frontiers: the worker pool
/// (a pool of one at `threads == 1` — one broadcast per BFS depth, unlike
/// the asynchronous loop's one per chunk), its per-slot lock bits and its
/// per-worker cells.
struct RoundExec<'g, const K: usize> {
    pool: WorkerPool,
    locks: AtomicBitVec,
    cells: PerWorker<RoundCell<'g, K>>,
}

/// Execute one round's frontier: claim live masks on the shared state
/// (exactly-once per (query, vertex, depth)) and expand them, staging
/// pushes per worker and absorbing them in worker order. Returns the
/// union of claimed masks on this rank.
///
/// Claiming under the slot's bit lock — with retired queries filtered —
/// yields a claimed union per (vertex, depth) that is independent of
/// visitor order, because depth-`d` state is frozen during round `d`. The
/// claim and the expansion are the visitor's own
/// ([`BatchBfsVisitor::claim`] / [`BatchBfsVisitor::expand`]), so the wire
/// records and counters are identical in kind to the asynchronous engine's.
fn execute_round<'g, const K: usize>(
    q: &mut VisitorQueue<'g, BatchBfsVisitor<K>>,
    g: &'g DistGraph,
    exec: &mut RoundExec<'g, K>,
    newly: &[BatchBfsVisitor<K>],
    retired: u64,
) -> u64 {
    let (state, mut absorb) = q.state_and_absorb();
    let slots = LockedSlots::new(state, &mut exec.locks);
    let mut claimed = 0u64;
    exec.pool.fan_out_blocks(
        newly,
        &mut exec.cells,
        |(sink, mask), vis| {
            let li = g.local_index(vis.vertex());
            let live = slots.with(li, |slot| vis.claim(slot, retired));
            if live != 0 {
                vis.expand(g, live, sink);
                *mask |= live;
            }
        },
        |(sink, mask)| {
            claimed |= std::mem::take(mask);
            absorb(sink);
        },
    );
    claimed
}

/// Run up to `K` BFS queries under the lifecycle control plane.
/// Collective; every rank must pass identical `sources`, `cfg` and
/// `cancels`.
///
/// `cancels` schedules cooperative cancellation for testing and serving:
/// `(query, round)` makes rank 0 broadcast a [`CancelRecord`] for
/// `query` at the cut that ends round `round`; the record is confirmed
/// delivered at the following cut, where every rank retires the query
/// identically. Queries already terminal when a cancel lands keep their
/// earlier outcome.
///
/// Outcome classes and what is deterministic for each:
/// - `Complete` / `DeadlineExceeded` / `Cancelled`: the full
///   [`QueryLifecycle`] record (digest, aggregates, global ledger sums)
///   is bit-identical across ranks, thread counts, storage backends and
///   chaos/lossy fault plans.
/// - `Aborted`: the *outcome* is world-agreed (all ranks abort on the
///   same detector wave) and the run terminates without hanging, but the
///   partial state is not cut-consistent — digests are reported, not
///   comparable.
pub fn bfs_batch_lifecycle<const K: usize>(
    ctx: &RankCtx,
    g: &DistGraph,
    sources: &[VertexId],
    cfg: &BatchConfig,
    cancels: &[(usize, u64)],
) -> LifecycleBfsResult {
    assert!(
        cfg.checkpoint.is_none(),
        "BatchConfig::checkpoint is not supported by bfs_batch_lifecycle: lifecycle runs do not \
         checkpoint (use bfs_batch, or leave the field None)"
    );
    let width = sources.len();
    let start = Instant::now();
    let (mut q, ledger) = seeded_queue::<K>(ctx, g, sources, cfg.traversal);
    q.arm_watchdog(cfg.watchdog_waves.unwrap_or(DEFAULT_WATCHDOG_WAVES));
    let mut cancel_plane: Side<CancelRecord> = Side::open(ctx, cfg.traversal.mailbox);
    let pool = WorkerPool::new(cfg.traversal.threads.max(1));
    let mut exec = RoundExec {
        cells: PerWorker::new_with(pool.size(), |_| (ShardPusher::new(g), 0u64)),
        locks: AtomicBitVec::new(g.num_local_vertices()),
        pool,
    };

    let mut outcomes: Vec<Option<QueryOutcome>> = vec![None; width];
    let mut rounds: u64 = 0;
    let mut aborted = false;
    let mut newly: Vec<BatchBfsVisitor<K>> = Vec::new();

    // Round 0 delivery: the seeds merge into per-vertex state and land in
    // `newly` as the depth-0 frontier.
    let mut verdict = q.drain_round_with(&mut newly, &mut cancel_plane);
    // Phase fence: a rank that confirms the seed cut must not inject round-1
    // traffic (cancel records, depth-1 visitors) while a peer still polls
    // that cut — the straggler would absorb next-round traffic into its seed
    // round and the round↔depth mapping would diverge across ranks. Every
    // later iteration gets this fence from the claimed-mask `all_reduce`.
    if verdict != CutVerdict::Abort {
        ctx.all_reduce_sum(0u64);
    }

    loop {
        if verdict == CutVerdict::Abort {
            aborted = true;
            let mut live = 0u64;
            for (qi, o) in outcomes.iter_mut().enumerate() {
                if o.is_none() {
                    *o = Some(QueryOutcome::Aborted);
                    live |= 1 << qi;
                }
            }
            ledger.retire(live);
            q.bump(Event::Abort);
            break;
        }

        // --- lifecycle decisions at this confirmed cut -------------------
        // 1. Cancels: the cut guarantees every rank holds the same record
        //    set; application is idempotent per record.
        for rec in cancel_plane.inbox.drain(..) {
            let qi = rec.query as usize;
            if qi < width && outcomes[qi].is_none() {
                outcomes[qi] = Some(QueryOutcome::Cancelled);
                ledger.retire(1 << qi);
                q.bump(Event::Cancel);
            }
        }
        // 2. Budgets: pure functions of the globally agreed round counter
        //    and all-reduced per-query edge-push counts.
        if cfg.max_rounds.is_some() || cfg.max_inspected.is_some() {
            let global = ctx.all_reduce_sum_vec(ledger.snapshot().pushed[..width].to_vec());
            for (qi, o) in outcomes.iter_mut().enumerate() {
                if o.is_none() {
                    let over_rounds = cfg.max_rounds.is_some_and(|b| rounds >= b);
                    let over_edges = cfg.max_inspected.is_some_and(|b| global[qi] > b);
                    if over_rounds || over_edges {
                        *o = Some(QueryOutcome::DeadlineExceeded);
                        ledger.retire(1 << qi);
                    }
                }
            }
        }
        if outcomes.iter().all(|o| o.is_some()) {
            break;
        }

        // --- send this cut's scheduled cancels (origin: rank 0); they fly
        //     during the next round and are confirmed at its cut ----------
        if ctx.rank() == 0 {
            for &(qi, at_round) in cancels {
                if at_round == rounds && qi < width && outcomes[qi].is_none() {
                    for dst in 0..ctx.size() {
                        let rec = CancelRecord { query: qi as u32, origin: 0, round: rounds };
                        cancel_plane.mb.send(dst, rec);
                    }
                }
            }
        }

        // --- expand the confirmed frontier (exactly-once claims) ---------
        let retired = ledger.retired_mask();
        let claimed_local = execute_round(&mut q, g, &mut exec, &newly, retired);
        newly.clear();
        verdict = q.drain_round_with(&mut newly, &mut cancel_plane);
        rounds += 1;
        if verdict == CutVerdict::Abort {
            continue;
        }
        // A live query that claimed nothing anywhere this round has an
        // empty frontier: no push can ever revive it. (Collective; every
        // rank computes the same verdicts from the same reduced mask.)
        let claimed_global = ctx.all_reduce(claimed_local, |a, b| a | b);
        for (qi, o) in outcomes.iter_mut().enumerate() {
            if o.is_none() && claimed_global & (1 << qi) == 0 {
                *o = Some(QueryOutcome::Complete);
            }
        }
    }

    // --- globally agreed per-query results (masters only) ----------------
    let snap = ledger.snapshot();
    let totals = reduce_per_query::<K, true>(ctx, g, q.state(), width, &snap);
    let queries = (0..width)
        .map(|qi| QueryLifecycle {
            outcome: outcomes[qi].expect("every query has a terminal outcome"),
            levels_digest: totals.digest[qi],
            visited_count: totals.aggregates[qi].visited_count,
            traversed_edges: totals.aggregates[qi].traversed_edges,
            max_level: totals.aggregates[qi].max_level,
            executed_global: totals.executed[qi],
            pushed_global: totals.pushed[qi],
        })
        .collect();

    let stats = q.stats();
    LifecycleBfsResult { queries, rounds, aborted, ledger: snap, stats, elapsed: start.elapsed() }
}

/// Width-dispatching wrapper mirroring [`crate::batch::QueryBatch::run_bfs`]:
/// run `sources` under the lifecycle plane at the narrowest compile-time
/// state width that fits.
pub fn run_bfs_lifecycle(
    ctx: &RankCtx,
    g: &DistGraph,
    sources: &[VertexId],
    cfg: &BatchConfig,
    cancels: &[(usize, u64)],
) -> LifecycleBfsResult {
    at_batch_width!(sources.len(), bfs_batch_lifecycle(ctx, g, sources, cfg, cancels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use havoq_comm::CommWorld;
    use havoq_graph::csr::GraphConfig;
    use havoq_graph::dist::PartitionStrategy;
    use havoq_graph::gen::rmat::RmatGenerator;
    use havoq_graph::types::Edge;

    fn test_graph() -> (Vec<Edge>, u64) {
        let gen = RmatGenerator::graph500(8);
        (gen.symmetric_edges(41), gen.num_vertices())
    }

    fn lifecycle_run(
        p: usize,
        threads: usize,
        cfg: BatchConfig,
        cancels: Vec<(usize, u64)>,
    ) -> Vec<LifecycleBfsResult> {
        let (edges, n) = test_graph();
        CommWorld::run(p, move |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default().with_num_vertices(n),
            );
            let sources: Vec<VertexId> = (0..6).map(VertexId).collect();
            let cfg = cfg.with_threads(threads);
            bfs_batch_lifecycle::<8>(ctx, &g, &sources, &cfg, &cancels)
        })
    }

    /// A lifecycle run never checkpoints, so a spec must be rejected at
    /// entry instead of silently ignored.
    #[test]
    #[should_panic(expected = "BatchConfig::checkpoint is not supported")]
    fn checkpoint_spec_is_rejected_not_ignored() {
        let cfg = BatchConfig::default().with_checkpoint(crate::CheckpointSpec::default());
        lifecycle_run(1, 1, cfg, vec![]);
    }

    #[test]
    fn round_budget_yields_deadline_exceeded() {
        let cfg = BatchConfig::default().with_max_rounds(2);
        let runs = lifecycle_run(2, 1, cfg, vec![]);
        assert_eq!(runs[0].queries, runs[1].queries);
        let mut expired = 0;
        for q in &runs[0].queries {
            // A query either reached its fixed point within the 2-round
            // budget (e.g. an isolated source) or was cut off with a
            // partial result no deeper than the rounds it was granted.
            match q.outcome {
                QueryOutcome::Complete => {}
                QueryOutcome::DeadlineExceeded => {
                    expired += 1;
                    assert!(q.max_level <= 2, "partial result deeper than the budget");
                }
                other => panic!("unexpected outcome {other:?} under a round budget"),
            }
        }
        assert!(expired > 0, "RMAT BFS from hub sources must exceed 2 rounds");
    }

    #[test]
    fn scheduled_cancel_is_applied_identically_on_all_ranks() {
        let runs = lifecycle_run(2, 4, BatchConfig::default(), vec![(3, 1)]);
        assert_eq!(runs[0].queries, runs[1].queries);
        assert_eq!(runs[0].queries[3].outcome, QueryOutcome::Cancelled);
        for (qi, q) in runs[0].queries.iter().enumerate() {
            if qi != 3 {
                assert_eq!(q.outcome, QueryOutcome::Complete, "query {qi}");
            }
        }
        // the cancelled query's partial result is still well-formed
        assert!(runs[0].queries[3].visited_count >= 1);
        for (rank, r) in runs.iter().enumerate() {
            assert_eq!(r.stats.events[Event::Cancel], 1, "rank {rank} applied the one record");
            assert_eq!(r.stats.events[Event::Abort], 0, "rank {rank}");
        }
    }
}
