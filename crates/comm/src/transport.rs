//! Typed non-blocking point-to-point transport between ranks.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::chan::{Receiver, RecvTimeoutError, TrySendError};
use crate::fault::{FaultPlan, FaultState};
use crate::registry::{ChannelSet, Wire, RESERVED_TAG_BASE};
use crate::runtime::{RankCtx, World};
use crate::stats::{ChannelStats, ChannelStatsSnapshot, Event};

/// A rank's endpoint of one typed channel set: it can send to any rank and
/// receive messages addressed to itself. Unbounded sets never block on send
/// (the MPI eager protocol analogue); bounded sets surface backpressure
/// through [`Transport::try_send_counted`].
///
/// When the world runs with a [`FaultPlan`] and the channel's tag is in user
/// space (below [`RESERVED_TAG_BASE`]), every receive funnels through a
/// receiver-side fault buffer that delays, reorders, and dedups deliveries
/// deterministically. Control channels (collectives, termination) never
/// carry a fault buffer: MPI guarantees non-overtaking per pair, and the
/// quiescence wave protocol relies on it.
pub struct Transport<M: Send + 'static> {
    rank: usize,
    ranks: usize,
    tag: u64,
    set: Arc<ChannelSet<M>>,
    receiver: Receiver<Wire<M>>,
    world: Arc<World>,
    /// Next sequence number for each destination. Only this rank's thread
    /// sends through this endpoint, so these are uncontended; atomics keep
    /// `send` on `&self` without interior-mutability gymnastics.
    next_seq: Vec<AtomicU64>,
    /// Present only on faulted user-tag channels. `RefCell` is sound here
    /// because a transport endpoint is owned and polled by exactly one rank
    /// thread.
    fault: Option<(Arc<FaultPlan>, RefCell<FaultState<M>>)>,
}

impl<M: Send + 'static> Transport<M> {
    /// Open `rank`'s endpoint of the channel set `(M, tag)`; see
    /// [`Registry::open`](crate::registry::Registry::open) for the
    /// collective contract.
    pub(crate) fn open(world: &Arc<World>, rank: usize, tag: u64, capacity: Option<usize>) -> Self {
        let ranks = world.registry.ranks();
        let (set, receiver) = world.registry.open(tag, capacity, rank);
        let faulted = |p: &&Arc<FaultPlan>| tag < RESERVED_TAG_BASE && p.config().is_active();
        let fault = world.faults.as_ref().filter(faulted).map(|plan| {
            (Arc::clone(plan), RefCell::new(FaultState::new(Arc::clone(plan), tag, rank)))
        });
        let next_seq = (0..ranks).map(|_| AtomicU64::new(0)).collect();
        Self { rank, ranks, tag, set, receiver, world: Arc::clone(world), next_seq, fault }
    }

    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Capacity the underlying channel set was created with.
    #[inline]
    pub fn capacity(&self) -> Option<usize> {
        self.set.capacity
    }

    /// True when this endpoint injects faults on its receive path.
    #[inline]
    pub fn faults_active(&self) -> bool {
        self.fault.is_some()
    }

    /// The sequence number the next send to `dst` will carry. Only the
    /// owning rank thread sends, so this cannot race with a send.
    #[inline]
    pub(crate) fn peek_seq(&self, dst: usize) -> u64 {
        self.next_seq[dst].load(Ordering::Relaxed)
    }

    /// The channel tag this endpoint was opened with.
    #[inline]
    pub(crate) fn tag(&self) -> u64 {
        self.tag
    }

    /// The world's fault plan, when this endpoint injects faults.
    #[inline]
    pub(crate) fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.as_ref().map(|(p, _)| p)
    }

    /// Hand dedup responsibility to a higher layer (see
    /// [`FaultState::disable_dedup`]): the mailbox's integrity window
    /// dedups after CRC verification so corrupt copies never block their
    /// retransmission.
    pub(crate) fn disable_fault_dedup(&self) {
        if let Some((_, state)) = &self.fault {
            state.borrow_mut().disable_dedup();
        }
    }

    /// Claim the next sequence number for a send to `dst`.
    #[inline]
    fn claim_seq(&self, dst: usize) -> u64 {
        self.next_seq[dst].fetch_add(1, Ordering::Relaxed)
    }

    /// Non-blocking send of one message to `dst`. Self-sends are allowed and
    /// loop back through this rank's own queue.
    #[inline]
    pub fn send(&self, dst: usize, msg: M) {
        self.send_counted(dst, msg, 1, std::mem::size_of::<M>() as u64)
    }

    /// Send recording `items` payload elements and `bytes` wire volume
    /// against the (src, dst) pair — used by batching layers so statistics
    /// reflect aggregated payloads.
    ///
    /// On a bounded channel this blocks until space frees up (receivers
    /// drain concurrently); layers that must not block use
    /// [`Self::try_send_counted`].
    #[inline]
    pub fn send_counted(&self, dst: usize, msg: M, items: u64, bytes: u64) {
        debug_assert!(dst < self.ranks, "destination rank out of range");
        if let Some(stats) = &self.set.stats {
            stats.record(self.rank, dst, items, bytes);
        }
        let seq = self.claim_seq(dst);
        // Receivers only disappear when the world is shutting down; at that
        // point delivery no longer matters.
        let _ = self.set.senders[dst].send(Wire { src: self.rank as u32, seq, msg });
    }

    /// Non-blocking send attempt. Statistics are recorded only on success;
    /// a full channel records a backpressure stall and hands the message
    /// back so the caller can retry after making progress elsewhere.
    ///
    /// The sequence number is claimed only on success, so a retried send
    /// reuses its number and receiver-side dedup windows stay gap-free.
    pub fn try_send_counted(
        &self,
        dst: usize,
        msg: M,
        items: u64,
        bytes: u64,
    ) -> Result<(), TrySendError<M>> {
        debug_assert!(dst < self.ranks, "destination rank out of range");
        let seq = self.peek_seq(dst);
        match self.set.senders[dst].try_send(Wire { src: self.rank as u32, seq, msg }) {
            Ok(()) => {
                self.claim_seq(dst);
                self.stats().record(self.rank, dst, items, bytes);
                Ok(())
            }
            Err(TrySendError::Full(w)) => {
                self.stats().bump(Event::Stall, self.rank, dst);
                Err(TrySendError::Full(w.msg))
            }
            Err(TrySendError::Disconnected(w)) => Err(TrySendError::Disconnected(w.msg)),
        }
    }

    /// Should the *next* message sent to `dst` be shipped twice? Decided by
    /// the fault plan from the message's identity, so the answer is stable
    /// across retries of the same send. Loopback (`dst == self`) is never
    /// duplicated: a blocking duplicate send into this rank's own full
    /// queue would deadlock against itself.
    pub fn wants_duplicate(&self, dst: usize) -> bool {
        match &self.fault {
            Some((plan, _)) if dst != self.rank => {
                plan.duplicate(self.tag, self.rank, dst, self.peek_seq(dst))
            }
            _ => false,
        }
    }

    /// Ship a byte-identical copy of the message just sent to `dst`,
    /// reusing its sequence number so the receiver's dedup window drops
    /// whichever copy arrives second. Duplicate traffic is recorded in the
    /// fault counters only — never in the message/byte matrices — so
    /// conservation invariants (bytes sent == bytes received) still hold.
    ///
    /// The send blocks if the bounded channel is full; receivers drain
    /// their raw channels even inside injected stall windows, so this
    /// always completes.
    pub fn send_duplicate(&self, dst: usize, msg: M) {
        debug_assert!(dst != self.rank, "loopback frames are never duplicated");
        let seq = self.peek_seq(dst).checked_sub(1).expect("send_duplicate before any send");
        self.stats().bump(Event::FaultDup, self.rank, dst);
        let _ = self.set.senders[dst].send(Wire { src: self.rank as u32, seq, msg });
    }

    /// Re-ship a buffered copy of an earlier send to `dst`, reusing its
    /// original sequence number so the receiver's integrity window absorbs
    /// whichever copy is redundant. Like duplicates, retransmit traffic is
    /// recorded in the recovery counters only — never in the message/byte
    /// matrices — so conservation invariants still hold.
    pub(crate) fn send_retransmit(&self, dst: usize, seq: u64, msg: M) {
        debug_assert!(dst != self.rank, "loopback frames are never retransmitted");
        self.stats().bump(Event::Retransmit, self.rank, dst);
        let _ = self.set.senders[dst].send(Wire { src: self.rank as u32, seq, msg });
    }

    /// Non-blocking receive: `Some((source_rank, message))` if one is queued.
    ///
    /// Under fault injection each call is one tick of the fault clock: raw
    /// arrivals are pulled into the fault buffer, then the earliest due
    /// message (if any) is released.
    #[inline]
    pub fn try_recv(&self) -> Option<(usize, M)> {
        self.try_recv_wire().map(|w| (w.src as usize, w.msg))
    }

    /// Non-blocking receive keeping the wire envelope — the mailbox's
    /// integrity layer needs `(src, seq)` for its dedup window and ACK/NACK
    /// bookkeeping.
    #[inline]
    pub(crate) fn try_recv_wire(&self) -> Option<Wire<M>> {
        match &self.fault {
            None => self.receiver.try_recv().ok(),
            Some((_, state)) => state.borrow_mut().try_recv(&self.receiver, self.stats()),
        }
    }

    /// Blocking receive that aborts (panics) if the world is poisoned by a
    /// peer rank's panic, so one failure never deadlocks the run.
    ///
    /// Waits on the channel condvar in 20 ms slices rather than spinning;
    /// under fault injection, while deliveries are held back by the fault
    /// buffer, it ticks the fault clock with a short yield instead (held
    /// messages release on ticks, not on channel arrivals).
    pub fn recv_blocking(&self, ctx: &RankCtx) -> (usize, M) {
        match &self.fault {
            None => loop {
                match self.receiver.recv_timeout(Duration::from_millis(20)) {
                    Ok(w) => return (w.src as usize, w.msg),
                    Err(RecvTimeoutError::Timeout) => ctx.check_poison(),
                    Err(RecvTimeoutError::Disconnected) => {
                        panic!("transport disconnected on rank {}", self.rank)
                    }
                }
            },
            Some((_, state)) => loop {
                let mut st = state.borrow_mut();
                if let Some(w) = st.try_recv(&self.receiver, self.stats()) {
                    return (w.src as usize, w.msg);
                }
                let pending = st.pending();
                drop(st);
                ctx.check_poison();
                if pending > 0 {
                    // Held messages release on ticks; yield and tick again.
                    std::thread::yield_now();
                } else {
                    // Nothing held: sleep on the condvar until an arrival.
                    match self.receiver.recv_timeout(Duration::from_millis(20)) {
                        Ok(w) => state.borrow_mut().ingest(w, self.stats()),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => {
                            panic!("transport disconnected on rank {}", self.rank)
                        }
                    }
                }
            },
        }
    }

    /// True once any rank has panicked.
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.world.poisoned.load(Ordering::Relaxed)
    }

    /// Panic (joining the world-wide shutdown) if a peer rank has panicked.
    #[inline]
    pub fn check_poison(&self) {
        if self.is_poisoned() {
            panic!("rank {}: aborting, a peer rank panicked", self.rank);
        }
    }

    /// Shared traffic counters for this channel set. Every channel user
    /// code can open has them; the runtime's own control planes
    /// (collectives, termination, integrity ACK/NACK) do not.
    pub fn stats(&self) -> &ChannelStats {
        self.set.stats.as_ref().expect("control-plane channels carry no traffic matrix")
    }

    /// Snapshot of the traffic matrix (typically read after the SPMD region).
    pub fn stats_snapshot(&self) -> ChannelStatsSnapshot {
        self.stats().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use crate::fault::FaultConfig;
    use crate::runtime::CommWorld;
    use crate::stats::Event;

    #[test]
    fn self_send_loops_back() {
        CommWorld::run(1, |ctx| {
            let ch = ctx.channel::<u32>(0);
            ch.send(0, 7);
            assert_eq!(ch.try_recv(), Some((0, 7)));
            assert_eq!(ch.try_recv(), None);
        });
    }

    #[test]
    fn messages_from_one_source_preserve_order() {
        CommWorld::run(2, |ctx| {
            let ch = ctx.channel::<u32>(0);
            if ctx.rank() == 0 {
                for i in 0..100 {
                    ch.send(1, i);
                }
            } else {
                for i in 0..100 {
                    let (src, v) = ch.recv_blocking(ctx);
                    assert_eq!(src, 0);
                    assert_eq!(v, i);
                }
            }
        });
    }

    #[test]
    fn all_to_all_delivery() {
        let p = 6;
        let totals = CommWorld::run(p, |ctx| {
            let ch = ctx.channel::<u64>(1);
            for dst in 0..p {
                ch.send(dst, ctx.rank() as u64);
            }
            let mut got = 0u64;
            for _ in 0..p {
                let (_, v) = ch.recv_blocking(ctx);
                got += v;
            }
            got
        });
        // every rank receives 0+1+..+5 = 15
        assert!(totals.iter().all(|&t| t == 15));
    }

    #[test]
    fn stats_track_per_pair_traffic() {
        let snaps = CommWorld::run(3, |ctx| {
            let ch = ctx.channel::<u8>(2);
            if ctx.rank() == 0 {
                ch.send(1, 1);
                ch.send(1, 2);
                ch.send(2, 3);
            }
            // crude sync: everyone waits until rank 0's sends are visible
            if ctx.rank() != 0 {
                let _ = ch.recv_blocking(ctx);
            }
            if ctx.rank() == 1 {
                let _ = ch.recv_blocking(ctx);
            }
            ch.stats_snapshot()
        });
        let s = &snaps[0];
        assert_eq!(s.msgs_between(0, 1), 2);
        assert_eq!(s.msgs_between(0, 2), 1);
        assert_eq!(s.bytes_between(0, 1), 2, "u8 payloads estimate 1 byte each");
        assert_eq!(s.channels_used_by(0), 2);
        assert_eq!(s.channels_used_by(1), 0);
    }

    #[test]
    fn bounded_channel_surfaces_backpressure() {
        CommWorld::run(1, |ctx| {
            let ch = ctx.channel_with_capacity::<u32>(5, Some(2));
            assert!(ch.try_send_counted(0, 1, 1, 4).is_ok());
            assert!(ch.try_send_counted(0, 2, 1, 4).is_ok());
            match ch.try_send_counted(0, 3, 1, 4) {
                Err(crate::chan::TrySendError::Full(v)) => assert_eq!(v, 3),
                other => panic!("expected Full, got {other:?}"),
            }
            let snap = ch.stats_snapshot();
            assert_eq!(snap.msgs_between(0, 0), 2, "failed send records no message");
            assert_eq!(snap.between(Event::Stall, 0, 0), 1);
            // draining frees a slot
            assert_eq!(ch.try_recv(), Some((0, 1)));
            assert!(ch.try_send_counted(0, 3, 1, 4).is_ok());
        });
    }

    #[test]
    fn fault_recv_blocking_delivers_all_delayed_messages() {
        // Regression for the recv_blocking busy-spin: under heavy delay
        // every message is held at arrival, so the receive loop must keep
        // ticking the fault clock (not sleep forever on the condvar) and
        // still deliver everything exactly once.
        let cfg = FaultConfig::quiet(11).with_delay(1000, 8).with_reorder(500, 4);
        CommWorld::run_with_faults(2, Some(cfg), |ctx| {
            let ch = ctx.channel::<u64>(0);
            assert!(ch.faults_active());
            if ctx.rank() == 0 {
                for i in 0..200u64 {
                    ch.send(1, i);
                }
            } else {
                let mut got: Vec<u64> = (0..200).map(|_| ch.recv_blocking(ctx).1).collect();
                got.sort_unstable();
                assert_eq!(got, (0..200).collect::<Vec<_>>());
                let snap = ch.stats_snapshot();
                assert_eq!(snap.count(Event::FaultDelay), 200, "every message was delayed");
            }
            ctx.barrier();
        });
    }

    #[test]
    fn hard_stall_wedges_victim_channel_forever() {
        // A hard stall wedges the victim's user-tag receive side after the
        // configured arrival count: everything already released stays
        // delivered, nothing after the wedge ever surfaces, and collectives
        // (unfaulted) still make progress so the world can agree to abort.
        let cfg = FaultConfig::quiet(5).with_hard_stall(1, 2);
        CommWorld::run_with_faults(2, Some(cfg), |ctx| {
            let ch = ctx.channel::<u64>(0);
            if ctx.rank() == 0 {
                for i in 0..6u64 {
                    ch.send(1, i);
                }
            }
            // unfaulted collective: sends above are in flight or queued
            ctx.barrier();
            if ctx.rank() == 1 {
                let mut got = Vec::new();
                for _ in 0..10_000 {
                    if let Some((_, v)) = ch.try_recv() {
                        got.push(v);
                    }
                }
                // the quiet plan delivers in order; the wedge fires once
                // arrivals exceed 2, so at most the first two messages land
                assert!(got.len() <= 2, "wedged channel released {got:?}");
                assert_eq!(got, (0..got.len() as u64).collect::<Vec<_>>());
                let snap = ch.stats_snapshot();
                assert_eq!(snap.count(Event::FaultStall), 1, "wedge records one stall");
            }
            ctx.barrier();
        });
    }

    #[test]
    fn fault_control_channels_stay_fifo() {
        // Reserved-tag channels (collectives, termination) must never get a
        // fault buffer even when the world runs with faults; barriers and
        // reductions below would hang or misorder otherwise.
        let cfg = FaultConfig::chaos(3);
        CommWorld::run_with_faults(4, Some(cfg), |ctx| {
            let sum = ctx.all_reduce_sum(ctx.rank() as u64);
            assert_eq!(sum, 6);
            ctx.barrier();
        });
    }

    #[test]
    fn fault_duplicates_are_deduped() {
        let cfg = FaultConfig::quiet(21).with_duplicate(1000);
        CommWorld::run_with_faults(2, Some(cfg), |ctx| {
            let ch = ctx.channel::<u64>(0);
            if ctx.rank() == 0 {
                for i in 0..50u64 {
                    assert!(ch.wants_duplicate(1), "permille=1000 duplicates every send");
                    ch.send(1, i);
                    ch.send_duplicate(1, i);
                }
            } else {
                let mut got: Vec<u64> = (0..50).map(|_| ch.recv_blocking(ctx).1).collect();
                got.sort_unstable();
                assert_eq!(got, (0..50).collect::<Vec<_>>(), "each message delivered once");
                // Keep ticking until every duplicate copy has arrived and
                // been dropped; a 51st unique delivery never appears.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while ch.stats_snapshot().count(Event::FaultDedup) < 50 {
                    assert!(std::time::Instant::now() < deadline, "duplicate drops never landed");
                    assert_eq!(ch.try_recv(), None, "a duplicate escaped the dedup window");
                    std::thread::yield_now();
                }
                let snap = ch.stats_snapshot();
                assert_eq!(snap.count(Event::FaultDup), 50);
                assert_eq!(snap.count(Event::FaultDedup), 50);
                assert_eq!(snap.msgs_between(0, 1), 50, "duplicates not counted as traffic");
            }
            ctx.barrier();
        });
    }
}
