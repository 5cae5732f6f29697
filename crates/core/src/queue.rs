//! The distributed asynchronous visitor queue (paper Algorithm 1).
//!
//! Each rank runs one queue instance:
//!
//! - `push(visitor)` — filter through locally stored ghost state, then send
//!   to the target vertex's master partition (`min_owner`).
//! - `check_mailbox()` — receive visitors, `pre_visit` them against local
//!   state, queue survivors in the local run queue, and forward them to
//!   the next replica if the vertex's adjacency list continues on higher
//!   ranks (the split-vertex chain of Figure 3).
//! - `do_traversal()` — the asynchronous driving loop: poll the mailbox,
//!   execute locally queued visitors in priority order, and terminate when
//!   the quiescence detector confirms the queue is globally empty.
//!
//! That loop is written once (`drive`, DESIGN.md §16). Who drains the run
//! queue between polls is an `Executor` — inline on this thread, the worker pool
//! of DESIGN.md §11, or *park* for the level-synchronous engines, which
//! expand survivors themselves — and what a confirmed quiescence cut means
//! is a `CutPolicy`: terminate, checkpoint after a visitor budget
//! (`do_traversal_checkpointed`), or return after one round
//! (`drain_round_with`). Both are picked from what the caller already
//! passes.
//!
//! Fanning work out to the worker pool is written once too: `expand` runs
//! a list of items on a traversal's `Workers`, staging pushes per worker,
//! and absorbs them in worker order through the serial push path. The pool
//! executor, the direction engine's candidate generation and the lifecycle
//! engine's claims all call it.
//!
//! The run queue (`run_queue`, DESIGN.md "The run queue") pops in exact
//! (priority, vertex) order: smallest [`Visitor::priority`] key first, and
//! equal keys by vertex id, the Section V-A locality optimization that
//! makes semi-external adjacency reads page-sequential. It buckets by key
//! and indexes only the lowest bucket by vertex, so a pop is a bitmap
//! scan instead of a heap sift.
//!
//! `stats()` reports per traversal (DESIGN.md §6 "Counters"): the queue's
//! own counters, `events` — this rank's view of the channel's event table —
//! and the storage layers' `cache` / `io` / `csr` snapshots.

use std::time::{Duration, Instant};

use havoq_comm::{
    CutVerdict, Event, EventCounts, Mailbox, MailboxConfig, Quiescence, RankCtx, SendShard,
    WireCodec,
};
use havoq_graph::csr::CsrStorageSnapshot;
use havoq_graph::dist::DistGraph;
use havoq_graph::types::VertexId;
use havoq_nvram::{CacheStatsSnapshot, IoStatsSnapshot};
use havoq_util::parallel::{AtomicBitVec, LockedSlots, PerWorker, WorkerPool};

use crate::checkpoint::{CheckpointLog, CheckpointSpec, QueueCheckpoint, QueueCounters};
use crate::ghost::GhostTable;
use crate::run_queue::RunQueue;
use crate::visitor::{Role, Visitor, VisitorPush};

/// Max visitors executed between consecutive mailbox polls.
const POLL_BATCH: usize = 128;

/// Traversal tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct TraversalConfig {
    /// Ghost slots per partition (paper default: 256; Figure 13 sweeps
    /// this). Ignored for algorithms with `GHOSTS_ALLOWED = false`. Any
    /// value above 0 also puts the per-vertex filter behind the hub slots
    /// (see [`crate::ghost`]); 0 turns both off.
    pub ghosts: usize,
    /// Mailbox aggregation / routing configuration.
    pub mailbox: MailboxConfig,
    /// Order equal-priority visitors by vertex id (the Section V-A
    /// page-locality optimization). When false, equal-priority visitors
    /// run in arrival order — the ablation baseline, which scatters
    /// semi-external adjacency reads across pages.
    pub locality_order: bool,
    /// Worker threads executing `visit` inside this rank. `1` (the
    /// default) runs every `visit` inline on the rank's own thread. With
    /// `threads > 1` each rank pops frontier chunks from its run queue and fans
    /// the `visit` calls out to a worker pool (DESIGN.md §11); the
    /// mailbox, quiescence and checkpoint paths stay on the coordinator
    /// thread, so the wire format and integrity counters are unchanged.
    pub threads: usize,
}

impl Default for TraversalConfig {
    fn default() -> Self {
        Self { ghosts: 256, mailbox: MailboxConfig::default(), locality_order: true, threads: 1 }
    }
}

impl TraversalConfig {
    /// Builder: set the intra-rank worker thread count (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Per-rank traversal counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraversalStats {
    /// Visitors whose `visit` procedure ran on this rank.
    pub visitors_executed: u64,
    /// Visitors pushed on this rank (before ghost filtering).
    pub visitors_pushed: u64,
    /// Pushes that were checked against a local ghost slot — a hub's or
    /// the filter's, so every push once the filter is on.
    pub ghost_checked: u64,
    /// Pushes suppressed by the ghost filter (communication saved).
    pub ghost_filtered: u64,
    /// Visitors forwarded along a split-vertex replica chain.
    pub replica_forwards: u64,
    /// End-to-end payloads sent / received by the mailbox.
    pub payload_sent: u64,
    pub payload_received: u64,
    /// Quiescence-detection waves completed.
    pub termination_waves: u64,
    /// Wire bytes shipped / unpacked by this rank's mailbox (frame headers
    /// included; self-sends never hit the wire and are not counted).
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Frames this rank shipped.
    pub frames_sent: u64,
    /// Sends that found a full bounded channel and ran the slow path.
    pub backpressure_stalls: u64,
    /// Mean fill ratio of shipped frames in `(0, 1]` (0.0 if none shipped).
    pub mean_frame_fill: f64,
    /// This rank's view of the traversal channel's event table
    /// (`ChannelStatsSnapshot::at_rank`): injected faults and repair it
    /// observed, its checkpoints, crashes and restores, lifecycle cancels
    /// and aborts. All zero on a fault-free, uncheckpointed run apart from
    /// `Event::Stall`.
    pub events: EventCounts,
    /// The most visitors queued on this rank at once during the traversal:
    /// the run queue's high-water mark, which sets its memory.
    pub pending_peak: u64,
    /// Wall-clock time inside `do_traversal`.
    pub elapsed: Duration,
    /// Payload bytes serialized into committed checkpoints.
    pub checkpoint_bytes: u64,
    /// Committed checkpoint epochs this rank skipped at restore because
    /// their payload failed its checksum (silent storage corruption): the
    /// blob is treated exactly like a torn write and the world agrees on
    /// the next-oldest intact epoch.
    pub restore_epoch_fallbacks: u64,
    /// Wall-clock spent serializing and writing checkpoints plus restoring
    /// from them — the numerator of the checkpoint overhead percentage.
    pub checkpoint_time: Duration,
    /// Direction-optimizing engine only (zero on the asynchronous visitor
    /// path): adjacency entries examined while generating candidates —
    /// whole frontier slices top-down, early-exit prefixes bottom-up —
    /// plus the per-direction level counts and the frontier-bitmap words
    /// this rank shipped to peers before bottom-up levels.
    pub edges_inspected: u64,
    pub top_down_levels: u64,
    pub bottom_up_levels: u64,
    pub frontier_words_sent: u64,
    /// The storage layers' own snapshots of this rank's partition, all
    /// zero on in-memory CSR. `cache` and the decode counters of `csr`
    /// (compressed storage only) cover *this traversal*: the difference
    /// from a baseline taken when the queue was created. The sizes in `csr`
    /// and all of `io` — gauges, high-water marks and a histogram, which do
    /// not subtract — are since graph build.
    pub cache: CacheStatsSnapshot,
    pub io: IoStatsSnapshot,
    pub csr: CsrStorageSnapshot,
}

/// One rank's distributed visitor queue for visitor type `V`.
///
/// `V` must implement [`WireCodec`]: visitors cross ranks as fixed-size
/// records packed into byte frames (see `havoq_comm::codec`).
pub struct VisitorQueue<'g, V: Visitor + WireCodec> {
    g: &'g DistGraph,
    rank: usize,
    mailbox: Mailbox<V>,
    quiescence: Quiescence,
    runq: RunQueue<V>,
    state: Vec<V::Data>,
    ghosts: GhostTable<V::Data>,
    cfg: TraversalConfig,
    stats: TraversalStats,
    /// Visitors queued on this rank so far, arrivals that passed
    /// `pre_visit`; checkpointed with the other counters.
    arrival_seq: u64,
    /// Wire decode context, kept so checkpointed queued visitors can be
    /// reconstructed on restore.
    decode_ctx: V::DecodeCtx,
    /// Reused landing buffer of `check_mailbox`.
    scratch: Vec<V>,
    /// The storage counters as the queue found them: they count since graph
    /// build, `stats()` reports the difference.
    cache_before: CacheStatsSnapshot,
    csr_before: CsrStorageSnapshot,
}

/// Who drains the run queue between two mailbox polls of the driver
/// ([`VisitorQueue::drive`]). Chosen from what the caller already passed:
/// `threads` picks inline or pool, a level-synchronous engine parks.
enum Executor<'a, 'g, V: Visitor + WireCodec> {
    /// `threads == 1`: run `visit` on the real state slot, on this thread.
    /// A pool of one would also run here, but would still lock each slot,
    /// copy a seed out and merge it back, and stage every push (DESIGN.md
    /// "The driver").
    Inline,
    /// `threads > 1`: [`VisitorQueue::expand`] each chunk on the workers
    /// (DESIGN.md §11); the vec is the reused chunk buffer.
    Pool(Workers<'g, V>, Vec<V>),
    /// Move survivors into the vec, in run-queue order, without running `visit`:
    /// the engine expands them itself after the round's cut.
    Park(&'a mut Vec<V>),
}

/// What one traversal reuses for every [`VisitorQueue::expand`]: the
/// worker pool (a pool of one runs on the calling thread), one lock bit
/// per state slot, and per worker a push sink beside a `u64` tally.
pub(crate) struct Workers<'g, V: Visitor + WireCodec> {
    pool: WorkerPool,
    locks: AtomicBitVec,
    cells: PerWorker<(ShardPusher<'g, V>, u64)>,
}

/// What a confirmed quiescence cut means to the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CutPolicy {
    /// Run to global quiescence; returns [`CutVerdict::Terminate`].
    Terminate,
    /// Vote for a cut once this many visitors have executed (still polling,
    /// pre-visiting and forwarding, so the payload counters can settle). A
    /// cut that finds every rank dry terminates; any other returns
    /// [`CutVerdict::Cut`] with the frontier parked in the run queues, for the
    /// caller to checkpoint and call again. The budget also caps the
    /// executor, so the pool is quiesced and absorbed at every cut.
    Budget(u64),
    /// Return at the first confirmed cut, never terminal: a reusable round
    /// barrier. The engine terminates on its own all-reduced frontier.
    Round,
}

/// A second mailbox settled under the same cuts as the queue's own (the
/// lifecycle engine's cancel plane, the direction engine's bottom-up
/// frontier words): its payload counters are summed into the quiescence
/// poll, so a cut cannot confirm while one of its records is in flight —
/// at every confirmed cut all ranks hold every record sent to them in
/// `inbox`. Arrivals are appended to `inbox`, never executed or forwarded.
pub(crate) struct Side<C: Send + WireCodec + 'static> {
    pub mb: Mailbox<C>,
    pub inbox: Vec<C>,
}

impl<C: Send + WireCodec<DecodeCtx = ()> + 'static> Side<C> {
    /// Collectively open a side plane (draws a world-agreed mailbox tag).
    pub(crate) fn open(ctx: &RankCtx, cfg: MailboxConfig) -> Self {
        Self { mb: Mailbox::open(ctx, ctx.auto_tag(), cfg), inbox: Vec::new() }
    }
}

impl<'g, V: Visitor + WireCodec> VisitorQueue<'g, V> {
    /// Collectively create a queue over `g`. Every rank must call this the
    /// same number of times in the same order (each call draws a fresh
    /// world-agreed channel tag).
    pub fn new(ctx: &RankCtx, g: &'g DistGraph, cfg: TraversalConfig) -> Self
    where
        V::DecodeCtx: Default,
    {
        Self::new_with_ctx(ctx, g, cfg, V::DecodeCtx::default())
    }

    /// Like [`VisitorQueue::new`] but supplying the wire decode context for
    /// visitor types carrying rank-replicated shared state (e.g. the
    /// subset table of subset triangle counting).
    pub fn new_with_ctx(
        ctx: &RankCtx,
        g: &'g DistGraph,
        cfg: TraversalConfig,
        decode_ctx: V::DecodeCtx,
    ) -> Self {
        let tag = ctx.auto_tag();
        let mailbox = Mailbox::open_with(ctx, tag, cfg.mailbox, decode_ctx.clone());
        let quiescence = Quiescence::new(ctx, tag);
        let ghosts = GhostTable::for_visitor::<V>(g, cfg.ghosts);
        let state = vec![V::Data::default(); g.num_local_vertices()];
        Self {
            g,
            rank: ctx.rank(),
            mailbox,
            quiescence,
            runq: RunQueue::new(state.len(), cfg.locality_order),
            state,
            ghosts,
            cfg,
            stats: TraversalStats::default(),
            arrival_seq: 0,
            decode_ctx,
            scratch: Vec::new(),
            cache_before: g.csr().cache_stats().unwrap_or_default(),
            csr_before: g.csr().storage_snapshot().unwrap_or_default(),
        }
    }

    /// Initialize local vertex state (e.g. k-core's `degree + 1` counters).
    /// Replicas are initialized identically on every rank in their chain
    /// because the closure only sees replicated information.
    pub fn init_state(&mut self, mut f: impl FnMut(VertexId, &DistGraph) -> V::Data) {
        for (li, slot) in self.state.iter_mut().enumerate() {
            *slot = f(self.g.vertex_at(li), self.g);
        }
    }

    /// Local vertex state, indexed by local vertex index.
    pub fn state(&self) -> &[V::Data] {
        &self.state
    }

    /// Consume the queue, keeping the final state.
    pub fn into_state(self) -> Vec<V::Data> {
        self.state
    }

    /// Number of hub ghost slots active for this traversal (the filter
    /// behind them is not counted).
    pub fn ghost_count(&self) -> usize {
        self.ghosts.len()
    }

    /// Local traversal statistics (valid after `do_traversal`).
    pub fn stats(&self) -> TraversalStats {
        let mut s = self.stats;
        s.payload_sent = self.mailbox.sent_count();
        s.payload_received = self.mailbox.received_count();
        s.termination_waves = self.quiescence.waves_run();
        let mb = self.mailbox.stats();
        s.bytes_sent = mb.bytes_sent;
        s.bytes_received = mb.bytes_received;
        s.frames_sent = mb.frames_sent;
        s.backpressure_stalls = mb.backpressure_stalls;
        s.mean_frame_fill = mb.mean_frame_fill();
        s.events = self.mailbox.transport_stats().at_rank(self.rank);
        let csr = self.g.csr();
        s.cache = csr.cache_stats().unwrap_or_default().since(&self.cache_before);
        s.io = csr.io_stats().unwrap_or_default();
        s.csr = csr.storage_snapshot().unwrap_or_default().since(&self.csr_before);
        s.pending_peak = self.runq.peak() as u64;
        s
    }

    /// The mailbox's transport traffic matrix (world-shared snapshot).
    pub fn transport_stats(&self) -> havoq_comm::ChannelStatsSnapshot {
        self.mailbox.transport_stats()
    }

    /// Push a visitor into the distributed queue (Algorithm 1, `push`).
    pub fn push(&mut self, visitor: V) {
        push_impl(self.g, &mut self.mailbox, &mut self.ghosts, &mut self.stats, visitor);
    }

    /// Receive and pre-visit incoming visitors; returns payloads delivered
    /// (Algorithm 1, `check_mailbox`).
    fn check_mailbox(&mut self) -> usize {
        self.scratch.clear();
        self.mailbox.poll(&mut self.scratch);
        let delivered = self.scratch.len();
        for visitor in self.scratch.drain(..) {
            let v = visitor.vertex();
            debug_assert!(
                self.g.is_local(v),
                "visitor for {v} delivered to wrong rank {}",
                self.rank
            );
            let li = self.g.local_index(v);
            let role = if self.g.min_owner(v) == self.rank { Role::Master } else { Role::Replica };
            if visitor.pre_visit(&mut self.state[li], role) {
                // forward along the replica chain before queuing locally so
                // downstream partitions overlap with our local work
                if self.rank < self.g.max_owner(v) {
                    self.stats.replica_forwards += 1;
                    self.mailbox.send(self.rank + 1, visitor.clone());
                }
                self.arrival_seq += 1;
                let key = visitor.priority();
                self.runq.push(visitor, key, li);
            }
        }
        delivered
    }

    /// The one traversal loop (Algorithm 1, `do_traversal`; DESIGN.md "The
    /// driver"): poll the mailbox, let `exec` drain up to a chunk of the
    /// run queue, and when the rank runs dry — or `policy`'s budget is spent —
    /// flush and ask the quiescence detector for a cut. Returns the first
    /// verdict `policy` does not absorb, and adds its wall clock to
    /// `stats.elapsed`. Collective; a `side` mailbox, if any, is polled,
    /// flushed and counted with the queue's own.
    fn drive<C: Send + WireCodec + 'static>(
        &mut self,
        exec: &mut Executor<'_, 'g, V>,
        policy: CutPolicy,
        mut side: Option<&mut Side<C>>,
    ) -> CutVerdict {
        let start = Instant::now();
        let budget = match policy {
            CutPolicy::Budget(n) => n,
            CutPolicy::Terminate | CutPolicy::Round => u64::MAX,
        };
        let chunk_cap = match exec {
            Executor::Inline => POLL_BATCH,
            Executor::Pool(w, _) => POLL_BATCH.saturating_mul(w.pool.size()),
            Executor::Park(_) => usize::MAX,
        };
        let mut executed_since = 0u64;
        let verdict = loop {
            let mut delivered = self.check_mailbox();
            if let Some(s) = side.as_deref_mut() {
                delivered += s.mb.poll(&mut s.inbox);
            }
            let limit =
                chunk_cap.min(usize::try_from(budget - executed_since).unwrap_or(usize::MAX));
            executed_since += match exec {
                Executor::Inline => self.run_inline(limit),
                Executor::Pool(w, chunk) => self.run_pool(w, chunk, limit),
                Executor::Park(newly) => self.park(newly, limit),
            } as u64;
            let due = executed_since >= budget;
            let no_work = delivered == 0 && self.runq.is_empty();
            if due || no_work {
                self.mailbox.flush();
                let mut sent = self.mailbox.sent_count();
                let mut recv = self.mailbox.received_count();
                let mut pending = self.mailbox.pending_out();
                if let Some(s) = side.as_deref_mut() {
                    s.mb.flush();
                    sent += s.mb.sent_count();
                    recv += s.mb.received_count();
                    pending += s.mb.pending_out();
                }
                let drained = pending == 0;
                // `due` stays out of the flag: when every rank runs dry the
                // cut reads as termination even if thresholds were pending.
                // A round cut is never terminal (see `CutPolicy::Round`).
                let flag = policy != CutPolicy::Round && no_work && drained;
                match self.quiescence.poll_cut(sent, recv, drained, flag) {
                    Some(verdict) => break verdict,
                    // idle but not confirmed: give peer ranks the core
                    // instead of spin-polling (matters when ranks are
                    // oversubscribed onto few physical cores, as in the
                    // simulation)
                    None => std::thread::yield_now(),
                }
            }
        };
        self.stats.elapsed += start.elapsed();
        verdict
    }

    /// Inline executor: pop up to `limit` visitors and run each `visit` on
    /// its real state slot; returns the number executed.
    fn run_inline(&mut self, limit: usize) -> usize {
        let mut executed = 0;
        while executed < limit {
            let Some((vis, li)) = self.runq.pop() else { break };
            executed += 1;
            // split borrows: vertex state vs. push path
            let Self { g, mailbox, ghosts, state, stats, .. } = self;
            let mut pusher = Pusher { g, mailbox, ghosts, stats };
            vis.visit(g, &mut state[li], &mut pusher);
        }
        self.stats.visitors_executed += executed as u64;
        executed
    }

    /// Pool executor: pop up to `limit` visitors into `chunk` and
    /// [`Self::expand`] them; returns the number executed. A worker holds a
    /// visitor's slot lock only while copying the `visit_seed` out and
    /// while `merge`-ing the result back, never across `visit` itself,
    /// which may block on semi-external page fills.
    fn run_pool(&mut self, w: &mut Workers<'g, V>, chunk: &mut Vec<V>, limit: usize) -> usize {
        chunk.clear();
        while chunk.len() < limit {
            let Some((vis, _)) = self.runq.pop() else { break };
            chunk.push(vis);
        }
        let g = self.g;
        self.expand(w, chunk, |slots, sink, _, vis| {
            let li = g.local_index(vis.vertex());
            let mut seed = slots.with(li, |slot| V::visit_seed(slot));
            vis.visit(g, &mut seed, sink);
            slots.with(li, |slot| V::merge(slot, &seed));
        });
        self.stats.visitors_executed += chunk.len() as u64;
        chunk.len()
    }

    /// The workers [`Self::expand`] runs on, `cfg.threads` of them (a
    /// `threads` of 0 set on the field directly counts as 1).
    pub(crate) fn workers(&self) -> Workers<'g, V> {
        let pool = WorkerPool::new(self.cfg.threads.max(1));
        let cells = PerWorker::new_with(pool.size(), |_| (ShardPusher::new(self.g), 0));
        Workers { pool, locks: AtomicBitVec::new(self.state.len()), cells }
    }

    /// The one frontier expansion (DESIGN.md §11): run `work(slots, sink,
    /// tally, item)` for every item on the workers, which claim 16-item
    /// blocks, then absorb each worker's staged pushes in worker order
    /// (a pool of one: after every block) through the tail of the serial
    /// push path — push count, ghost filter, mailbox — on this thread.
    /// `slots` is the per-vertex state, each slot under its bit lock.
    /// Interleaving among workers is scheduling-dependent, but everything
    /// that reaches the wire does so from this single-threaded drain.
    /// Returns the sum of the tallies.
    pub(crate) fn expand<I: Sync>(
        &mut self,
        w: &mut Workers<'g, V>,
        items: &[I],
        work: impl Fn(&LockedSlots<'_, V::Data>, &mut ShardPusher<'g, V>, &mut u64, &I) + Sync,
    ) -> u64 {
        let Self { mailbox, ghosts, state, stats, .. } = self;
        let slots = LockedSlots::new(state, &mut w.locks);
        let mut total = 0;
        w.pool.fan_out_blocks(
            items,
            &mut w.cells,
            |(sink, tally), item| work(&slots, sink, tally, item),
            |(sink, tally)| {
                total += std::mem::take(tally);
                stats.visitors_pushed += std::mem::take(&mut sink.pushed);
                for (dst, visitor) in sink.shard.drain() {
                    if ghost_pass::<V>(ghosts, stats, &visitor) {
                        mailbox.send(dst, visitor);
                    }
                }
            },
        );
        total
    }

    /// Park executor: move up to `limit` visitors into `newly` in run-queue
    /// order, counted as executed.
    fn park(&mut self, newly: &mut Vec<V>, limit: usize) -> usize {
        let mut parked = 0;
        while parked < limit {
            let Some((vis, _)) = self.runq.pop() else { break };
            parked += 1;
            newly.push(vis);
        }
        self.stats.visitors_executed += parked as u64;
        parked
    }

    /// The executor `cfg.threads` selects for an asynchronous traversal.
    fn executor(&self) -> Executor<'static, 'g, V> {
        if self.cfg.threads > 1 {
            Executor::Pool(self.workers(), Vec::new())
        } else {
            Executor::Inline
        }
    }

    /// Run the asynchronous traversal to completion (Algorithm 1,
    /// `do_traversal`). Initial visitors must already have been pushed.
    pub fn do_traversal(&mut self) {
        let verdict = self.drive::<V>(&mut self.executor(), CutPolicy::Terminate, None);
        debug_assert_eq!(verdict, CutVerdict::Terminate);
    }

    /// Drive one level-synchronous *round* to a confirmed global cut
    /// (direction engine, DESIGN.md §13; lifecycle engine, §15). Polls the
    /// mailbox, pre-visits and replica-forwards arrivals exactly like the
    /// asynchronous traversal, but parks every surviving visitor into
    /// `newly` instead of executing its `visit`; `side` is settled under
    /// the same cut. Returns [`CutVerdict::Cut`] once a non-terminal
    /// consistent cut confirms — every candidate and side record sent
    /// anywhere this round has been delivered, and nothing is in flight —
    /// or the stall watchdog's [`CutVerdict::Abort`] if it is armed.
    ///
    /// Collective: every rank must drain the same number of rounds. A rank
    /// that confirms round `k` first may inject round-`k+1` traffic while a
    /// peer still polls round `k`; the straggler parks those arrivals into
    /// its round-`k` `newly`. So the caller either runs a collective
    /// between two rounds (the engines' per-level all-reduce), or keeps
    /// `newly` across them because both feed the same frontier (the
    /// direction engine's frontier-word round and the level's own).
    pub(crate) fn drain_round_with<C: Send + WireCodec + 'static>(
        &mut self,
        newly: &mut Vec<V>,
        side: &mut Side<C>,
    ) -> CutVerdict {
        self.drive(&mut Executor::Park(newly), CutPolicy::Round, Some(side))
    }

    /// Arm the quiescence detector's stall watchdog (lifecycle engine,
    /// DESIGN.md §15): after `waves` consecutive completed waves that are
    /// stable but payload-unbalanced, every rank's next cut poll returns
    /// [`CutVerdict::Abort`].
    pub(crate) fn arm_watchdog(&mut self, waves: u64) {
        self.quiescence.arm_watchdog(waves);
    }

    /// Count one per-rank event against the traversal's own channel; it
    /// comes back in `stats().events`.
    pub(crate) fn bump(&self, ev: Event) {
        self.mailbox.channel_stats().bump(ev, self.rank, self.rank);
    }

    /// Mutable access to the traversal counters for same-crate engines
    /// layered on the queue (the direction engine's inspection counters).
    pub(crate) fn stats_mut(&mut self) -> &mut TraversalStats {
        &mut self.stats
    }
}

/// Everything that serializes per-vertex state: checkpoint cuts, and the
/// entry points that may take one.
impl<'g, V: Visitor + WireCodec> VisitorQueue<'g, V>
where
    V::Data: WireCodec<DecodeCtx = ()>,
{
    /// [`Self::do_traversal_checkpointed`] if a spec is given, else
    /// [`Self::do_traversal`] — what every algorithm with a
    /// `checkpoint: Option<CheckpointSpec>` config field calls.
    pub fn traverse(&mut self, ctx: &RankCtx, checkpoint: Option<&CheckpointSpec>) {
        match checkpoint {
            Some(spec) => self.do_traversal_checkpointed(ctx, spec),
            None => self.do_traversal(),
        }
    }

    /// Run the traversal with periodic checkpoints and (fault-injected)
    /// crash/restore. Collective; every rank must call it with the same
    /// `spec`.
    ///
    /// Checkpointing piggybacks on the quiescence detector
    /// (`CutPolicy::Budget`): a confirmed cut is a consistent global
    /// state — `sent == recv` and stable across a full wave, so nothing is
    /// in flight and the entire frontier sits in local run queues — which is the
    /// only point where per-rank snapshots compose into a recoverable
    /// whole. Each rank then writes its blob as one epoch
    /// (`checkpoint`). Cuts where every rank also reports "no local
    /// work" terminate the traversal directly (no trailing checkpoint).
    pub fn do_traversal_checkpointed(&mut self, ctx: &RankCtx, spec: &CheckpointSpec) {
        let mut exec = self.executor();
        let mut log = spec.open_log();
        // Start "due": the first cut fires before any visitor executes, so
        // epoch 0 — which crash injection spares — always exists as a
        // restore point.
        let mut budget = 0;
        while self.drive::<V>(&mut exec, CutPolicy::Budget(budget), None) == CutVerdict::Cut {
            self.checkpoint(ctx, spec, &mut log, None);
            budget = spec.every.max(1);
        }
    }

    /// One confirmed checkpoint cut: write this rank's epoch (torn if we
    /// are the injected victim), then — if anyone crashed — collectively
    /// rewind every rank to the newest globally complete epoch. Collective:
    /// all ranks enter together at a confirmed cut.
    ///
    /// Engines that carry loop state beside the queue snapshot (the
    /// direction engine's level counter, direction and trace — DESIGN.md
    /// §13) pass it as `extra`; the blob is then `[extra_len u64][extra]
    /// [queue blob]`, else the queue blob alone. Returns `None` when no
    /// crash fired; on a world rewind the queue is restored in place and
    /// the restore epoch's `extra` bytes (empty without `extra`) are
    /// returned for the caller to rewind its own state.
    ///
    /// Crash injection: the shared fault plan deterministically names at
    /// most one victim per (epoch, incarnation) — a stand-in for a perfect
    /// failure detector, so all ranks agree on the failure without extra
    /// protocol. *All* ranks rewind to the newest epoch complete everywhere
    /// (`all_reduce_min` of per-rank latest) — restoring mixed epochs
    /// across ranks would break exactly-once effects such as k-core's
    /// decrements. Wire sequence numbers are never rewound: receiver dedup
    /// windows must stay gap-free, and the restored state re-generates any
    /// undelivered work by re-execution.
    pub(crate) fn checkpoint(
        &mut self,
        ctx: &RankCtx,
        spec: &CheckpointSpec,
        log: &mut CheckpointLog,
        extra: Option<&[u8]>,
    ) -> Option<Vec<u8>> {
        let t = Instant::now();
        let CheckpointLog { store, epoch, incarnation } = log;
        let mut blob = Vec::new();
        if let Some(extra) = extra {
            blob.extend_from_slice(&(extra.len() as u64).to_le_bytes());
            blob.extend_from_slice(extra);
        }
        blob.extend_from_slice(&self.export_checkpoint().encode());
        let victim = ctx.crash_victim(*epoch, *incarnation);
        if victim == Some(self.rank) {
            store.write_epoch_torn(*epoch, &blob);
            self.bump(Event::Crash);
        } else {
            store.write_epoch(*epoch, &blob);
            self.stats.checkpoint_bytes += blob.len() as u64;
            self.bump(Event::Checkpoint);
            if spec.corrupt_committed == Some((self.rank, *epoch)) && *incarnation == 0 {
                let flipped = store.corrupt_committed_payload(*epoch);
                debug_assert!(flipped, "corruption target epoch was just committed");
            }
        }
        let restored = if victim.is_some() {
            // Walk past torn *and* silently corrupt epochs: a committed
            // blob failing its checksum is treated exactly like a torn
            // one, but counted — the restore-fallback telemetry.
            let (local_latest, fallbacks) = store.latest_complete_epoch_with_fallbacks();
            let local_latest =
                local_latest.expect("epoch 0 is never torn, so a complete epoch exists");
            self.stats.restore_epoch_fallbacks += fallbacks;
            let target = ctx.all_reduce_min(local_latest);
            let bytes = store.read_epoch(target).expect("agreed restore epoch is complete");
            // Drop every epoch above the restore target: the rewound run
            // will re-number them, and a stale complete epoch from this
            // incarnation must never satisfy a later recovery's
            // `latest_complete_epoch`.
            store.truncate_above(target);
            self.bump(Event::Restore);
            *incarnation += 1;
            *epoch = target + 1;
            let (extra_at, queue_at) = match extra {
                Some(_) => (8, 8 + u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize),
                None => (0, 0),
            };
            let ck = QueueCheckpoint::<V>::decode(&bytes[queue_at..], &self.decode_ctx)
                .expect("committed checkpoint blob decodes");
            self.restore_from(ck);
            Some(bytes[extra_at..queue_at].to_vec())
        } else {
            *epoch += 1;
            // Post-cut barrier: without it a fast rank resumes executing
            // and its sends can land in a slow rank's queue *before* that
            // rank has taken its own epoch snapshot. The snapshots would
            // then not form a consistent cut — the receipt checkpointed,
            // the send not — and a restore would replay the message:
            // double delivery, which non-idempotent visitors (triangle's
            // counter increments) turn into wrong answers. The crash
            // branch above is already synchronized by `all_reduce_min`.
            ctx.barrier();
            None
        };
        let spent = t.elapsed();
        self.stats.checkpoint_time += spent;
        self.stats.elapsed += spent;
        restored
    }

    /// The queued visitors in pop order, each with its tie-break: the
    /// vertex id, or its place in arrival order under the ablation.
    fn queued(&self) -> Vec<(V, u64)> {
        let mut out = Vec::new();
        self.runq.for_each(|vis| {
            let tie = if self.cfg.locality_order { vis.vertex().0 } else { out.len() as u64 };
            out.push((vis.clone(), tie));
        });
        out
    }

    /// Freeze this rank's traversal state at a confirmed cut.
    fn export_checkpoint(&self) -> QueueCheckpoint<V> {
        QueueCheckpoint {
            state: self.state.clone(),
            ghosts: self.ghosts.export(),
            heap: self.queued(),
            wire_seqs: self.mailbox.wire_seqs(),
            counters: QueueCounters {
                arrival_seq: self.arrival_seq,
                visitors_executed: self.stats.visitors_executed,
                visitors_pushed: self.stats.visitors_pushed,
                ghost_checked: self.stats.ghost_checked,
                ghost_filtered: self.stats.ghost_filtered,
                replica_forwards: self.stats.replica_forwards,
            },
        }
    }

    /// Rewind this rank to a decoded checkpoint. Wire sequence numbers are
    /// audited (monotonic vs. the snapshot) but never re-applied.
    fn restore_from(&mut self, ck: QueueCheckpoint<V>) {
        debug_assert_eq!(ck.state.len(), self.state.len(), "checkpoint state extent mismatch");
        #[cfg(debug_assertions)]
        for (cur, old) in self.mailbox.wire_seqs().iter().zip(&ck.wire_seqs) {
            debug_assert!(cur >= old, "wire sequence numbers must never rewind");
        }
        self.state = ck.state;
        self.ghosts.import(&ck.ghosts);
        self.runq.clear();
        for (vis, _) in ck.heap {
            let (key, li) = (vis.priority(), self.g.local_index(vis.vertex()));
            self.runq.push(vis, key, li);
        }
        self.arrival_seq = ck.counters.arrival_seq;
        let c = ck.counters;
        self.stats.visitors_executed = c.visitors_executed;
        self.stats.visitors_pushed = c.visitors_pushed;
        self.stats.ghost_checked = c.ghost_checked;
        self.stats.ghost_filtered = c.ghost_filtered;
        self.stats.replica_forwards = c.replica_forwards;
    }
}

impl<'g, V: Visitor + WireCodec> VisitorPush<V> for VisitorQueue<'g, V> {
    fn push(&mut self, visitor: V) {
        VisitorQueue::push(self, visitor);
    }
}

/// The ghost-filter stage of the push path: check the visitor against a
/// local ghost slot if one exists, counting checks and suppressions.
/// Returns whether the push should proceed to the mailbox. Runs only on
/// the coordinator thread (the ghost table is not synchronized).
fn ghost_pass<V: Visitor + WireCodec>(
    ghosts: &mut GhostTable<V::Data>,
    stats: &mut TraversalStats,
    visitor: &V,
) -> bool {
    if V::GHOSTS_ALLOWED {
        if let Some(gdata) = ghosts.get_mut(visitor.vertex()) {
            stats.ghost_checked += 1;
            if !visitor.pre_visit(gdata, Role::Ghost) {
                stats.ghost_filtered += 1;
                return false;
            }
        }
    }
    true
}

/// The push path, shared between the queue itself and the in-`visit` pusher.
fn push_impl<V: Visitor + WireCodec>(
    g: &DistGraph,
    mailbox: &mut Mailbox<V>,
    ghosts: &mut GhostTable<V::Data>,
    stats: &mut TraversalStats,
    visitor: V,
) {
    stats.visitors_pushed += 1;
    if ghost_pass::<V>(ghosts, stats, &visitor) {
        mailbox.send(g.min_owner(visitor.vertex()), visitor);
    }
}

struct Pusher<'a, V: Visitor + WireCodec> {
    g: &'a DistGraph,
    mailbox: &'a mut Mailbox<V>,
    ghosts: &'a mut GhostTable<V::Data>,
    stats: &'a mut TraversalStats,
}

impl<'a, V: Visitor + WireCodec> VisitorPush<V> for Pusher<'a, V> {
    fn push(&mut self, visitor: V) {
        push_impl(self.g, self.mailbox, self.ghosts, self.stats, visitor);
    }
}

/// Worker-side push sink: resolves the destination rank immediately (the
/// graph's ownership map is immutable and thread-safe) and stages the
/// visitor in its own [`SendShard`], deferring the ghost filter and the
/// mailbox — both single-threaded — to [`VisitorQueue::expand`]'s absorb.
pub(crate) struct ShardPusher<'g, V: Visitor + WireCodec> {
    g: &'g DistGraph,
    shard: SendShard<V>,
    pushed: u64,
}

impl<'g, V: Visitor + WireCodec> ShardPusher<'g, V> {
    fn new(g: &'g DistGraph) -> Self {
        Self { g, shard: SendShard::default(), pushed: 0 }
    }
}

impl<'g, V: Visitor + WireCodec> VisitorPush<V> for ShardPusher<'g, V> {
    fn push(&mut self, visitor: V) {
        self.pushed += 1;
        self.shard.send(self.g.min_owner(visitor.vertex()), visitor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use havoq_comm::CommWorld;
    use havoq_graph::csr::GraphConfig;
    use havoq_graph::dist::PartitionStrategy;
    use havoq_graph::gen::rmat::RmatGenerator;
    use havoq_graph::types::Edge;

    /// Minimal "flood" visitor: marks every reachable vertex, no ordering,
    /// ghost-eligible (marking is idempotent and monotone).
    #[derive(Clone)]
    struct Flood {
        vertex: VertexId,
    }

    #[derive(Clone, Copy, Default, PartialEq, Eq)]
    struct FloodData {
        marked: bool,
    }

    impl WireCodec for FloodData {
        const WIRE_SIZE: usize = 1;
        type DecodeCtx = ();

        fn encode(&self, buf: &mut [u8]) {
            buf[0] = self.marked as u8;
        }

        fn decode(buf: &[u8], _ctx: &()) -> Self {
            FloodData { marked: buf[0] != 0 }
        }
    }

    impl WireCodec for Flood {
        const WIRE_SIZE: usize = 8;
        type DecodeCtx = ();

        fn encode(&self, buf: &mut [u8]) {
            self.vertex.encode(buf);
        }

        fn decode(buf: &[u8], ctx: &()) -> Self {
            Flood { vertex: VertexId::decode(buf, ctx) }
        }
    }

    impl Visitor for Flood {
        type Data = FloodData;
        const GHOSTS_ALLOWED: bool = true;

        fn vertex(&self) -> VertexId {
            self.vertex
        }

        fn pre_visit(&self, data: &mut FloodData, _role: Role) -> bool {
            if data.marked {
                false
            } else {
                data.marked = true;
                true
            }
        }

        fn visit(&self, g: &DistGraph, _data: &mut FloodData, q: &mut dyn VisitorPush<Self>) {
            g.with_adj(self.vertex, |adj| {
                for &t in adj {
                    q.push(Flood { vertex: VertexId(t) });
                }
            });
        }

        fn merge(into: &mut FloodData, update: &FloodData) {
            into.marked |= update.marked;
        }
    }

    fn ring_edges(n: u64) -> Vec<Edge> {
        (0..n).flat_map(|v| [Edge::new(v, (v + 1) % n), Edge::new((v + 1) % n, v)]).collect()
    }

    /// World sums of one flood from vertex 0: marked masters, then the
    /// queue's deterministic counters, then its checkpoint counters.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct FloodRun {
        marked: u64,
        /// executed, pushed, ghost_checked, ghost_filtered, replica_forwards
        queue: [u64; 5],
        /// payload_sent, payload_received (mailbox side: never rewound)
        payload: [u64; 2],
        checkpoints: u64,
        crashes: u64,
        restores: u64,
        fallbacks: u64,
    }

    /// The one world set-up: build the graph on `p` ranks, flood from
    /// vertex 0 under `cfg` / `spec` / `faults`, all-reduce what happened.
    fn flood_world(
        p: usize,
        edges: &[Edge],
        cfg: TraversalConfig,
        spec: Option<CheckpointSpec>,
        faults: Option<havoq_comm::FaultConfig>,
    ) -> FloodRun {
        let out = CommWorld::run_with_faults(p, faults, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let mut q = VisitorQueue::<Flood>::new(ctx, &g, cfg);
            if g.is_master(VertexId(0)) {
                q.push(Flood { vertex: VertexId(0) });
            }
            q.traverse(ctx, spec.as_ref());
            let s = q.stats();
            let marked = g
                .local_vertices()
                .filter(|&v| g.is_master(v) && q.state()[g.local_index(v)].marked)
                .count() as u64;
            let sum = |v: u64| ctx.all_reduce_sum(v);
            FloodRun {
                marked: sum(marked),
                queue: [
                    s.visitors_executed,
                    s.visitors_pushed,
                    s.ghost_checked,
                    s.ghost_filtered,
                    s.replica_forwards,
                ]
                .map(sum),
                payload: [s.payload_sent, s.payload_received].map(sum),
                checkpoints: sum(s.events[Event::Checkpoint]),
                crashes: sum(s.events[Event::Crash]),
                restores: sum(s.events[Event::Restore]),
                fallbacks: sum(s.restore_epoch_fallbacks),
            }
        });
        out[0]
    }

    fn run_flood(p: usize, edges: &[Edge], cfg: TraversalConfig) -> u64 {
        flood_world(p, edges, cfg, None, None).marked
    }

    /// Serial reachability reference from vertex 0.
    fn reachable_from_zero(n: u64, edges: &[Edge]) -> u64 {
        let mut adj = vec![Vec::new(); n as usize];
        for e in edges {
            if !e.is_self_loop() {
                adj[e.src as usize].push(e.dst);
            }
        }
        let mut seen = vec![false; n as usize];
        let mut stack = vec![0u64];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for &t in &adj[v as usize] {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        seen.iter().filter(|&&s| s).count() as u64
    }

    #[test]
    fn flood_reaches_whole_ring() {
        let edges = ring_edges(64);
        for p in [1usize, 2, 4, 5] {
            assert_eq!(run_flood(p, &edges, TraversalConfig::default()), 64, "p={p}");
        }
    }

    #[test]
    fn flood_on_rmat_visits_reachable_set() {
        let gen = RmatGenerator::graph500(9);
        let edges = gen.symmetric_edges(77);
        let expect = reachable_from_zero(gen.num_vertices(), &edges);
        for p in [1usize, 4] {
            assert_eq!(run_flood(p, &edges, TraversalConfig::default()), expect, "p={p}");
        }
    }

    #[test]
    fn flood_with_routed_mailbox_matches_direct() {
        let gen = RmatGenerator::graph500(8);
        let edges = gen.symmetric_edges(5);
        let direct = run_flood(4, &edges, TraversalConfig::default());
        let mut cfg2d = TraversalConfig::default();
        cfg2d.mailbox.topology = havoq_comm::TopologyKind::Routed2D;
        let mut cfg3d = TraversalConfig::default();
        cfg3d.mailbox.topology = havoq_comm::TopologyKind::Routed3D;
        assert_eq!(run_flood(4, &edges, cfg2d), direct);
        assert_eq!(run_flood(8, &edges, cfg3d), direct);
    }

    #[test]
    fn ghosts_filter_redundant_pushes() {
        // star graph: every vertex points at hub 0 and back
        let n = 256u64;
        let edges: Vec<Edge> = (1..n).flat_map(|v| [Edge::new(v, 0), Edge::new(0, v)]).collect();
        let filtered = CommWorld::run(4, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let mut q = VisitorQueue::<Flood>::new(ctx, &g, TraversalConfig::default());
            if g.is_master(VertexId(1)) {
                q.push(Flood { vertex: VertexId(1) });
            }
            q.do_traversal();
            let marked: u64 = g
                .local_vertices()
                .filter(|&v| g.is_master(v) && q.state()[g.local_index(v)].marked)
                .count() as u64;
            assert_eq!(ctx.all_reduce_sum(marked), n, "whole star reached");
            ctx.all_reduce_sum(q.stats().ghost_filtered)
        });
        assert!(filtered[0] > 0, "hub ghost should filter repeat visitors");
    }

    #[test]
    fn stats_are_consistent() {
        let edges = ring_edges(32);
        let ok = CommWorld::run(3, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let mut q = VisitorQueue::<Flood>::new(ctx, &g, TraversalConfig::default());
            if g.is_master(VertexId(0)) {
                q.push(Flood { vertex: VertexId(0) });
            }
            q.do_traversal();
            let s = q.stats();
            let sent = ctx.all_reduce_sum(s.payload_sent);
            let recv = ctx.all_reduce_sum(s.payload_received);
            let executed = ctx.all_reduce_sum(s.visitors_executed);
            sent == recv && executed > 0 && executed <= recv
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn multiple_traversals_in_one_world() {
        let edges = ring_edges(16);
        CommWorld::run(2, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            for _ in 0..3 {
                let mut q = VisitorQueue::<Flood>::new(ctx, &g, TraversalConfig::default());
                if g.is_master(VertexId(5)) {
                    q.push(Flood { vertex: VertexId(5) });
                }
                q.do_traversal();
                let marked: u64 = g
                    .local_vertices()
                    .filter(|&v| g.is_master(v) && q.state()[g.local_index(v)].marked)
                    .count() as u64;
                assert_eq!(ctx.all_reduce_sum(marked), 16);
            }
        });
    }

    #[test]
    fn locality_order_is_result_neutral() {
        let gen = RmatGenerator::graph500(8);
        let edges = gen.symmetric_edges(44);
        let count = |locality: bool| {
            let out = CommWorld::run(3, |ctx| {
                let g = DistGraph::build_replicated(
                    ctx,
                    &edges,
                    PartitionStrategy::EdgeList,
                    GraphConfig::default(),
                );
                let cfg = TraversalConfig { locality_order: locality, ..Default::default() };
                let mut q = VisitorQueue::<Flood>::new(ctx, &g, cfg);
                if g.is_master(VertexId(0)) {
                    q.push(Flood { vertex: VertexId(0) });
                }
                q.do_traversal();
                let marked: u64 = g
                    .local_vertices()
                    .filter(|&v| g.is_master(v) && q.state()[g.local_index(v)].marked)
                    .count() as u64;
                ctx.all_reduce_sum(marked)
            });
            out[0]
        };
        assert_eq!(count(true), count(false), "ordering is a performance knob only");
    }

    /// The driver's executor × cut-policy table (DESIGN.md "The driver") on
    /// the `Flood` visitor, whose counters are fully deterministic:
    /// marking is idempotent and ghost slots converge to "marked"
    /// regardless of interleaving, so every cell must reproduce the inline
    /// × terminate row of the same rank count exactly — merged per-worker
    /// cells, budget-capped chunks and crash/restore replay included.
    #[test]
    fn driver_table_matches_inline_terminate_row() {
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Cut {
            Terminate,
            Every8,
            /// rank p-1 tears epoch 2 as the forced crash victim
            Crash,
            /// …and rank 0's committed epoch 2 is silently damaged too
            /// (payload flip through the cache): rank 0 must skip its
            /// corrupt blob — exactly one counted fallback — and the world
            /// agrees on epoch 1
            CrashAndCorruptEpoch,
        }
        let rmat = RmatGenerator::graph500(8);
        let rmat_edges = rmat.symmetric_edges(21);
        let graphs = [
            (ring_edges(64), 64),
            (rmat_edges.clone(), reachable_from_zero(rmat.num_vertices(), &rmat_edges)),
        ];
        for (edges, reachable) in &graphs {
            for p in [1usize, 2, 4] {
                let base = flood_world(p, edges, TraversalConfig::default(), None, None);
                assert_eq!(base.marked, *reachable, "p={p}");
                for threads in [1usize, 2, 4] {
                    for cut in [Cut::Terminate, Cut::Every8, Cut::Crash, Cut::CrashAndCorruptEpoch]
                    {
                        let crash = matches!(cut, Cut::Crash | Cut::CrashAndCorruptEpoch);
                        if crash && p == 1 {
                            continue; // victim and survivor must be two ranks
                        }
                        let every8 = CheckpointSpec::default().with_every(8);
                        let spec = match cut {
                            Cut::Terminate => None,
                            Cut::Every8 | Cut::Crash => Some(every8),
                            Cut::CrashAndCorruptEpoch => Some(every8.with_corrupt_committed(0, 2)),
                        };
                        let faults = crash
                            .then(|| havoq_comm::FaultConfig::quiet(7).with_forced_crash(p - 1, 2));
                        let cfg = TraversalConfig::default().with_threads(threads);
                        let run = flood_world(p, edges, cfg, spec, faults);
                        let cell = format!("p={p} threads={threads} {cut:?}");
                        assert_eq!(run.marked, *reachable, "{cell}");
                        assert_eq!(run.queue, base.queue, "{cell}");
                        if crash {
                            assert_eq!(run.crashes, 1, "exactly one torn epoch ({cell})");
                            assert_eq!(run.restores, p as u64, "all ranks rewind ({cell})");
                            let skipped = (cut == Cut::CrashAndCorruptEpoch) as u64;
                            assert_eq!(run.fallbacks, skipped, "{cell}");
                        } else {
                            assert_eq!(run.payload, base.payload, "{cell}");
                            assert_eq!((run.crashes, run.restores, run.fallbacks), (0, 0, 0));
                        }
                        match cut {
                            Cut::Terminate => assert_eq!(run.checkpoints, 0, "{cell}"),
                            _ => assert!(run.checkpoints >= p as u64, "epoch 0 at least ({cell})"),
                        }
                    }
                }
            }
        }
    }

    /// `rounds` frontier-style exchanges on a [`Side`] plane beside a queue
    /// that carries no visitors: each rank sends `words(rank, round)` to
    /// every peer, keeps its own, and settles the round under the queue's
    /// cut; a collective separates rounds, as the direction engine's
    /// per-level all-reduce does. Returns every rank's OR-ed map per round.
    fn side_exchange(
        p: usize,
        faults: Option<havoq_comm::FaultConfig>,
        rounds: u64,
        words: impl Fn(u64, u64) -> Vec<(u64, u64)> + Sync,
    ) -> Vec<Vec<std::collections::BTreeMap<u64, u64>>> {
        let edges = ring_edges(8);
        CommWorld::run_with_faults(p, faults, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let mut q = VisitorQueue::<Flood>::new(ctx, &g, TraversalConfig::default());
            let mut side: Side<(u64, u64)> = Side::open(ctx, MailboxConfig::default());
            let mut parked = Vec::new();
            let mut out = Vec::new();
            for round in 0..rounds {
                let mine = words(ctx.rank() as u64, round);
                for dst in (0..p).filter(|&dst| dst != ctx.rank()) {
                    for &w in &mine {
                        side.mb.send(dst, w);
                    }
                }
                assert_eq!(q.drain_round_with(&mut parked, &mut side), CutVerdict::Cut);
                let mut dense = std::collections::BTreeMap::new();
                for (idx, bits) in mine.into_iter().chain(side.inbox.drain(..)) {
                    *dense.entry(idx).or_insert(0u64) |= bits;
                }
                out.push(dense);
                ctx.barrier();
            }
            assert!(parked.is_empty(), "no visitor was ever pushed");
            out
        })
    }

    /// Every rank contributes distinct words; all ranks converge to the
    /// same OR-ed map, across several rounds and rank counts.
    #[test]
    fn side_plane_converges_to_global_or() {
        for p in [1usize, 2, 5] {
            let maps = side_exchange(p, None, 3, |me, round| {
                vec![(me, 1 << (round + me)), (100 + me, me + 1)]
            });
            for round in 0..3 {
                let want = &maps[0][round];
                assert_eq!(want.len(), 2 * p, "p={p} distinct words");
                for (r, m) in maps.iter().enumerate() {
                    assert_eq!(&m[round], want, "p={p} rank {r} round {round}");
                }
            }
        }
    }

    /// The exchange completes and stays exact under the lossy chaos plan
    /// (drops + corruption repaired by the mailbox integrity machinery).
    #[test]
    fn side_plane_survives_lossy_faults() {
        for seed in [7u64, 21, 63] {
            let faults = Some(havoq_comm::FaultConfig::lossy(seed));
            let maps = side_exchange(3, faults, 4, |me, round| {
                (0..8).map(|k| (round * 8 + k, me << (8 * k % 48))).collect()
            });
            for round in 0..4 {
                // rank 0's words are all-zero bits but still cross the wire
                assert_eq!(maps[0][round].len(), 8, "seed={seed} round {round}");
                for m in &maps {
                    assert_eq!(m[round], maps[0][round], "seed={seed} round {round}");
                }
            }
        }
    }

    /// On one rank the filter covers every vertex of a small graph and its
    /// slot sees exactly the pushes the owner's state does, so every
    /// payload it lets through is executed — and nothing else moves: state
    /// and the executed/pushed counts equal the run without ghosts.
    #[test]
    fn one_rank_filter_sends_only_what_executes() {
        use crate::algorithms::bfs::{bfs, BfsConfig};
        use crate::algorithms::cc::{connected_components, CcConfig};
        let edges = RmatGenerator::graph500(9).symmetric_edges(31);
        let run = |ghosts: usize| {
            CommWorld::run(1, |ctx| {
                let g = DistGraph::build_replicated(
                    ctx,
                    &edges,
                    PartitionStrategy::EdgeList,
                    GraphConfig::default(),
                );
                let traversal = TraversalConfig { ghosts, ..Default::default() };
                let b = bfs(ctx, &g, VertexId(0), &BfsConfig { traversal, ..Default::default() });
                let c = connected_components(ctx, &g, &CcConfig { traversal, checkpoint: None });
                (b.stats, b.local_state, c.stats, c.local_state)
            })
            .pop()
            .unwrap()
        };
        let (bfs_on, levels_on, cc_on, labels_on) = run(TraversalConfig::default().ghosts);
        let (bfs_off, levels_off, cc_off, labels_off) = run(0);
        for (name, on, off) in [("bfs", bfs_on, bfs_off), ("cc", cc_on, cc_off)] {
            assert_eq!(on.payload_sent, on.visitors_executed, "{name}");
            assert_eq!(on.visitors_executed, off.visitors_executed, "{name}");
            assert_eq!(on.visitors_pushed, off.visitors_pushed, "{name}");
            assert_eq!(on.ghost_checked, on.visitors_pushed, "{name}: every push is checked");
            assert!(off.payload_sent > on.payload_sent, "{name}: the filter drops pushes");
        }
        assert_eq!(levels_on, levels_off);
        assert_eq!(labels_on, labels_off);
    }

    #[test]
    fn empty_traversal_terminates() {
        let edges = ring_edges(8);
        CommWorld::run(3, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let mut q = VisitorQueue::<Flood>::new(ctx, &g, TraversalConfig::default());
            q.do_traversal(); // nothing pushed: must still terminate
            assert_eq!(q.stats().visitors_executed, 0);
        });
    }
}
