//! SPMD launch: one thread per simulated MPI rank.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::fault::{FaultConfig, FaultPlan};
use crate::registry::{Registry, COLLECTIVE_TAG_BASE, RESERVED_TAG_BASE};
use crate::transport::Transport;

/// Handle that launches SPMD regions over `p` simulated ranks.
///
/// ```
/// use havoq_comm::CommWorld;
/// let sums = CommWorld::run(4, |ctx| {
///     // every rank executes this closure, like `mpirun -np 4`
///     ctx.all_reduce_sum(ctx.rank() as u64)
/// });
/// assert_eq!(sums, vec![6, 6, 6, 6]); // 0+1+2+3 on every rank
/// ```
pub struct CommWorld;

impl CommWorld {
    /// Run `f` on `ranks` threads; returns each rank's result in rank order.
    ///
    /// If any rank panics, the world is poisoned (peers blocked in collectives
    /// or blocking receives unblock with a panic) and the first panic payload
    /// is re-raised on the caller thread.
    pub fn run<R, F>(ranks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&RankCtx) -> R + Sync,
    {
        Self::run_with_faults(ranks, None, f)
    }

    /// Like [`CommWorld::run`], but every user-tag channel injects the
    /// deterministic faults described by `faults` (see [`FaultConfig`]).
    /// `None`, or a config with all knobs zero, behaves exactly like
    /// [`CommWorld::run`]. Control channels (collectives, termination) are
    /// never perturbed.
    pub fn run_with_faults<R, F>(ranks: usize, faults: Option<FaultConfig>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&RankCtx) -> R + Sync,
    {
        assert!(ranks > 0, "world must have at least one rank");
        let world = Arc::new(World {
            registry: Registry::new(ranks),
            poisoned: AtomicBool::new(false),
            faults: faults.filter(FaultConfig::is_active).map(|cfg| Arc::new(FaultPlan::new(cfg))),
        });

        let results: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ranks)
                .map(|rank| {
                    let (world, f) = (Arc::clone(&world), &f);
                    scope.spawn(move || {
                        let ctx = RankCtx::new(rank, Arc::clone(&world));
                        let out = catch_unwind(AssertUnwindSafe(|| f(&ctx)));
                        if out.is_err() {
                            world.poisoned.store(true, Ordering::SeqCst);
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank thread join")).collect()
        });

        let mut out = Vec::with_capacity(ranks);
        let mut panic_payload = None;
        for r in results {
            match r {
                Ok(v) => out.push(v),
                Err(e) => {
                    if panic_payload.is_none() {
                        panic_payload = Some(e);
                    }
                }
            }
        }
        if let Some(p) = panic_payload {
            std::panic::resume_unwind(p);
        }
        out
    }
}

/// What the ranks of one run share: the rendezvous for opening channels,
/// the poison flag, and the fault plan (`None` on unperturbed runs).
pub(crate) struct World {
    pub(crate) registry: Registry,
    pub(crate) poisoned: AtomicBool,
    pub(crate) faults: Option<Arc<FaultPlan>>,
}

/// Per-rank execution context handed to the SPMD closure.
///
/// Provides the rank's identity, typed point-to-point channels
/// ([`RankCtx::channel`]), and blocking collectives (see
/// [`crate::collectives`]). Collectives must be invoked by all ranks in the
/// same order, exactly as MPI requires.
pub struct RankCtx {
    rank: usize,
    pub(crate) world: Arc<World>,
    /// The world's one reduction tree: every tree-shaped collective sends
    /// `(its number, boxed partial)` over this channel (see
    /// [`crate::collectives`]). Unbounded and never faulted.
    pub(crate) tree: Transport<(u64, Box<dyn Any + Send>)>,
    /// Tree collectives this rank has entered.
    pub(crate) tree_round: Cell<u64>,
    /// `all_to_allv` calls so far: each draws a fresh, world-agreed channel
    /// tag (SPMD same-order requirement).
    collective_seq: Cell<u64>,
    /// Counter backing [`RankCtx::auto_tag`].
    auto_seq: Cell<u64>,
}

/// Base of the tag namespace handed out by [`RankCtx::auto_tag`].
pub const AUTO_TAG_BASE: u64 = 1 << 40;

impl RankCtx {
    fn new(rank: usize, world: Arc<World>) -> Self {
        Self {
            rank,
            tree: Transport::open(&world, rank, COLLECTIVE_TAG_BASE, None),
            world,
            tree_round: Cell::new(0),
            collective_seq: Cell::new(0),
            auto_seq: Cell::new(0),
        }
    }

    /// The world's fault plan, if this is a fault-injected run.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.world.faults.as_ref()
    }

    /// The rank the fault plan kills while writing checkpoint `epoch` on
    /// the given `incarnation`, or `None` — on fault-free worlds, always
    /// `None`. Every rank computes the same verdict from the shared plan
    /// (the simulation's failure detector), which is what lets the
    /// checkpointed traversal agree collectively on when to restore.
    pub fn crash_victim(&self, epoch: u64, incarnation: u64) -> Option<usize> {
        self.fault_plan().and_then(|p| p.crash_victim(epoch, incarnation, self.size()))
    }

    /// Allocate a fresh world-agreed user channel tag. Like collectives,
    /// every rank must call this in the same order (SPMD), so matching
    /// calls yield matching tags. Used by subsystems (e.g. the visitor
    /// queue) that open one channel set per logical traversal.
    pub fn auto_tag(&self) -> u64 {
        let seq = self.auto_seq.get();
        self.auto_seq.set(seq + 1);
        AUTO_TAG_BASE + seq
    }

    /// This rank's id in `0..self.size()`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.world.registry.ranks()
    }

    /// True once any rank has panicked.
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.world.poisoned.load(Ordering::Relaxed)
    }

    /// Panic (joining the world-wide shutdown) if a peer rank has panicked.
    /// Called from blocking loops so a single failure cannot deadlock the run.
    #[inline]
    pub fn check_poison(&self) {
        if self.is_poisoned() {
            panic!("rank {}: aborting, a peer rank panicked", self.rank);
        }
    }

    /// Open the typed point-to-point channel `(M, tag)`.
    ///
    /// All ranks may open each `(M, tag)` pair at most once. `tag` must be
    /// below [`crate::registry::RESERVED_TAG_BASE`].
    pub fn channel<M: Send + 'static>(&self, tag: u64) -> Transport<M> {
        self.channel_with_capacity(tag, None)
    }

    /// Open the typed point-to-point channel `(M, tag)` with a per-queue
    /// capacity bound. `None` is unbounded; `Some(n)` makes sends into a
    /// full queue fail (backpressure), which the mailbox turns into its
    /// blocking-with-poison-check slow path. All ranks must pass the same
    /// capacity for a given tag (SPMD contract, asserted by the registry).
    pub fn channel_with_capacity<M: Send + 'static>(
        &self,
        tag: u64,
        capacity: Option<usize>,
    ) -> Transport<M> {
        assert!(tag < RESERVED_TAG_BASE, "user channel tags must be below RESERVED_TAG_BASE");
        Transport::open(&self.world, self.rank, tag, capacity)
    }

    /// Open an unbounded control channel on a reserved tag.
    pub(crate) fn channel_internal<M: Send + 'static>(&self, tag: u64) -> Transport<M> {
        Transport::open(&self.world, self.rank, tag, None)
    }

    /// The fresh world-agreed tag of one `all_to_allv` call.
    pub(crate) fn next_collective_tag(&self) -> u64 {
        let seq = self.collective_seq.get();
        self.collective_seq.set(seq + 1);
        COLLECTIVE_TAG_BASE + 1 + seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_rank_once() {
        let got = CommWorld::run(8, |ctx| (ctx.rank(), ctx.size()));
        assert_eq!(got, (0..8).map(|r| (r, 8)).collect::<Vec<_>>());
    }

    #[test]
    fn single_rank_world() {
        assert_eq!(CommWorld::run(1, |ctx| ctx.rank()), vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = CommWorld::run(0, |_| ());
    }

    #[test]
    fn p2p_roundtrip() {
        let got = CommWorld::run(2, |ctx| {
            let ch = ctx.channel::<u64>(0);
            ch.send(1 - ctx.rank(), ctx.rank() as u64 + 100);
            let (src, v) = ch.recv_blocking(ctx);
            assert_eq!(src, 1 - ctx.rank());
            v
        });
        assert_eq!(got, vec![101, 100]);
    }

    #[test]
    fn closure_can_borrow_environment() {
        let data: Vec<u64> = (0..100).collect();
        let sums = CommWorld::run(4, |ctx| {
            // scoped threads: shared read-only borrow, no Arc needed
            data.iter().skip(ctx.rank()).step_by(4).sum::<u64>()
        });
        assert_eq!(sums.iter().sum::<u64>(), 4950);
    }

    #[test]
    fn rank_panic_propagates() {
        let res = std::panic::catch_unwind(|| {
            CommWorld::run(4, |ctx| {
                if ctx.rank() == 2 {
                    panic!("boom on rank 2");
                }
                // peers block on a receive that will never arrive; the poison
                // flag must unblock them instead of deadlocking
                let ch = ctx.channel::<u8>(0);
                let _ = ch.recv_blocking(ctx);
            })
        });
        assert!(res.is_err());
        // ... and likewise when they are parked inside a collective
        let res = std::panic::catch_unwind(|| {
            CommWorld::run(4, |ctx| {
                if ctx.rank() == 2 {
                    panic!("boom on rank 2");
                }
                ctx.barrier();
            })
        });
        assert!(res.is_err());
    }

    /// A traversal's worth of channels — a mailbox (data plane plus its
    /// integrity control plane) and a quiescence detector — opened, used
    /// and dropped 200 times leaves nothing behind in the registry.
    #[test]
    fn channel_sets_die_with_their_transports() {
        use crate::{Mailbox, MailboxConfig, Quiescence};
        let p = 3;
        CommWorld::run(p, |ctx| {
            ctx.barrier();
            let before = ctx.world.registry.len();
            ctx.barrier(); // nobody opens a set while a peer still counts
            for cycle in 0..200u64 {
                let mut mb = Mailbox::<u64>::open(ctx, ctx.auto_tag(), MailboxConfig::default());
                let mut q = Quiescence::new(ctx, cycle);
                (0..p).for_each(|dst| mb.send(dst, cycle));
                let mut got = Vec::new();
                loop {
                    if mb.poll(&mut got) == 0 {
                        mb.flush();
                        let idle = mb.pending_out() == 0;
                        if q.poll(mb.sent_count(), mb.received_count(), idle) {
                            break;
                        }
                    }
                }
                assert_eq!(got, vec![cycle; p]);
            }
            ctx.barrier();
            assert_eq!(
                (before, ctx.world.registry.len()),
                (0, 0),
                "a dropped channel set is still held"
            );
        });
    }
}
