//! Deterministic fault injection for the simulated network.
//!
//! The threaded [`CommWorld`] runtime normally exercises exactly one lucky
//! interleaving per run: channels are FIFO, delivery is immediate, and no
//! frame is ever lost, duplicated, or stalled. Real interconnects are not
//! that polite, and the paper's asynchronous visitor queue is only correct
//! because its quiescence detection tolerates arbitrary message delay and
//! reordering. This module makes those adversarial schedules reproducible:
//! a [`FaultPlan`] seeded from a single `u64` decides, as a *pure function
//! of each message's identity* `(channel tag, src, dst, sequence number)`,
//! whether that message is delayed, reordered, or duplicated — so the same
//! seed injects the same faults no matter how the OS schedules the rank
//! threads.
//!
//! Faults are injected on the receiver side of every **user-tag** channel
//! (tag below [`crate::registry::RESERVED_TAG_BASE`], which covers the
//! mailbox's byte-framed data plane). Control channels — collectives and
//! termination detection — keep the per-pair FIFO ordering MPI guarantees
//! for them; the adversary attacks payload *timing*, which is exactly where
//! distributed-BFS-style termination bugs live.
//!
//! The injectable faults:
//!
//! - **delay** — a message is held for a bounded number of receive polls
//!   ("ticks") before it becomes visible.
//! - **reorder** — a message is pushed behind later arrivals (and delay
//!   differences reorder messages on their own); the `reordered` counter
//!   measures *observed* overtakes at delivery time.
//! - **duplicate-then-dedup** — the mailbox ships a byte-identical copy of
//!   a frame with the same sequence number; the receiving transport's dedup
//!   layer drops whichever copy arrives second.
//! - **transient stall** — the receive side of a channel goes quiet for a
//!   bounded number of ticks (arrivals still drain into the fault buffer,
//!   so bounded channels cannot deadlock against a stall).
//! - **slow-rank throttle** — a seeded subset of ranks pays extra hold
//!   ticks on every delivery, modeling a straggler node.
//! - **corruption** — a seeded bit is flipped in a frame's payload bytes on
//!   arrival; the mailbox's CRC32 trailer detects the damage and a NACK
//!   triggers a retransmission (see `mailbox.rs`).
//! - **loss** — an arriving frame is discarded outright; the sender's
//!   retransmit buffer (ACK/NACK + timeout driven) re-ships it.
//!
//! Corruption and loss attack frame *bytes*, so they are injected by the
//! mailbox (the only layer that owns byte frames) rather than by the
//! generic per-message fault buffer below. Their decisions additionally mix
//! in a per-arrival nonce: a retransmitted copy of a seq draws a fresh
//! verdict, so a permille-rate plan cannot corrupt the same frame forever.
//!
//! Every fault is counted per `(src, dst)` pair in [`ChannelStats`] next to
//! the message/byte counters, so tests can assert that a seed actually
//! exercised a fault type.
//!
//! Liveness: held messages are released by ticks, and ticks advance on
//! every `try_recv` — which idle traversal loops call continuously until
//! quiescence fires — so no fault can hold a message forever, and the
//! quiescence detector (whose end-to-end payload counters only move on
//! true delivery) can never be tricked into terminating early by a held
//! frame.
//!
//! [`CommWorld`]: crate::runtime::CommWorld
//! [`ChannelStats`]: crate::stats::ChannelStats

use std::collections::BinaryHeap;

use havoq_util::FxHashMap;

use crate::chan::Receiver;
use crate::registry::Wire;
use crate::stats::{ChannelStats, Event};

/// Fault probabilities and magnitudes, all decided deterministically from
/// `seed`. Probabilities are per-mille (`0..=1000`); a zero probability
/// disables that fault entirely. The all-zero config (see
/// [`FaultConfig::quiet`]) injects nothing and is never threaded into
/// transports.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Root seed; every per-message decision hashes this.
    pub seed: u64,
    /// Per-mille chance a message is delayed.
    pub delay_permille: u16,
    /// Max extra receive polls a delayed message is held for (uniform in
    /// `1..=delay_max_ticks`).
    pub delay_max_ticks: u32,
    /// Per-mille chance a message is pushed behind later arrivals.
    pub reorder_permille: u16,
    /// How many later arrivals may overtake a reordered message.
    pub reorder_window: u32,
    /// Per-mille chance a shipped frame is duplicated by the mailbox.
    pub duplicate_permille: u16,
    /// Per-mille chance an arrival opens a receive stall window.
    pub stall_permille: u16,
    /// Length of a stall window in receive polls.
    pub stall_ticks: u32,
    /// Per-mille chance a given rank is designated slow for the whole run.
    pub slow_rank_permille: u16,
    /// Extra hold ticks a slow rank pays on every delivery.
    pub slow_rank_ticks: u32,
    /// Per-mille chance a checkpoint epoch kills one rank mid-write. Only
    /// consulted by checkpointed traversals (see `crash_victim`); epoch 0
    /// is exempt so a restore point always exists.
    pub crash_permille: u16,
    /// Deterministic crash: `(rank, epoch)` dies on the run's first
    /// incarnation. `(rank, 0)` never fires (epoch 0 is protected).
    pub forced_crash: Option<(usize, u64)>,
    /// Deterministic unbounded stall: `(rank, after_arrivals)` wedges the
    /// faulted channel's receive side on `rank` forever once it has
    /// accepted that many arrivals. Unlike `stall_permille`, this stall
    /// never releases — it exists to exercise the progress watchdog.
    pub hard_stall: Option<(usize, u64)>,
    /// Per-mille chance an arriving frame has one payload bit flipped.
    pub corrupt_permille: u16,
    /// Per-mille chance an arriving frame is dropped before delivery.
    pub drop_permille: u16,
}

impl FaultConfig {
    /// No faults at all (the implicit config of [`CommWorld::run`]).
    ///
    /// [`CommWorld::run`]: crate::runtime::CommWorld::run
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            delay_permille: 0,
            delay_max_ticks: 0,
            reorder_permille: 0,
            reorder_window: 0,
            duplicate_permille: 0,
            stall_permille: 0,
            stall_ticks: 0,
            slow_rank_permille: 0,
            slow_rank_ticks: 0,
            crash_permille: 0,
            forced_crash: None,
            hard_stall: None,
            corrupt_permille: 0,
            drop_permille: 0,
        }
    }

    /// The standard adversary of the fault sweep: delay, reorder and
    /// duplication all active at rates high enough that a short traversal
    /// exercises each, plus occasional stalls and a slow-rank chance.
    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            delay_permille: 200,
            delay_max_ticks: 12,
            reorder_permille: 150,
            reorder_window: 6,
            duplicate_permille: 100,
            stall_permille: 25,
            stall_ticks: 24,
            slow_rank_permille: 250,
            slow_rank_ticks: 2,
            crash_permille: 0,
            forced_crash: None,
            hard_stall: None,
            corrupt_permille: 0,
            drop_permille: 0,
        }
    }

    /// The integrity adversary: everything [`FaultConfig::chaos`] injects,
    /// plus frame corruption and outright frame loss at rates that force
    /// the CRC + ACK/NACK retransmission machinery to carry real traffic.
    pub fn lossy(seed: u64) -> Self {
        Self::chaos(seed).with_corrupt(25).with_drop(25)
    }

    pub fn with_delay(mut self, permille: u16, max_ticks: u32) -> Self {
        self.delay_permille = permille;
        self.delay_max_ticks = max_ticks;
        self
    }

    pub fn with_reorder(mut self, permille: u16, window: u32) -> Self {
        self.reorder_permille = permille;
        self.reorder_window = window;
        self
    }

    pub fn with_duplicate(mut self, permille: u16) -> Self {
        self.duplicate_permille = permille;
        self
    }

    pub fn with_stall(mut self, permille: u16, ticks: u32) -> Self {
        self.stall_permille = permille;
        self.stall_ticks = ticks;
        self
    }

    pub fn with_slow_ranks(mut self, permille: u16, ticks: u32) -> Self {
        self.slow_rank_permille = permille;
        self.slow_rank_ticks = ticks;
        self
    }

    /// Seeded rank crashes at checkpoint epochs (checkpointed traversals
    /// only; a traversal that never checkpoints never consults this).
    pub fn with_crash(mut self, permille: u16) -> Self {
        self.crash_permille = permille;
        self
    }

    /// Kill exactly `rank` while it writes checkpoint `epoch`, once (the
    /// retry after restore survives). Epoch 0 is protected and never fires.
    pub fn with_forced_crash(mut self, rank: usize, epoch: u64) -> Self {
        self.forced_crash = Some((rank, epoch));
        self
    }

    /// Wedge `rank`'s receive side of every faulted (user-tag) channel
    /// forever once that channel has accepted `after_arrivals` messages.
    /// Collectives and termination detection are never faulted, so the
    /// progress watchdog can still reach a world-agreed abort. Unlike
    /// [`FaultConfig::with_stall`], this stall never releases; pairing it
    /// with a lossy plan would eventually trip the retransmit panic
    /// horizon, so keep hard-stall runs on non-lossy plans.
    pub fn with_hard_stall(mut self, rank: usize, after_arrivals: u64) -> Self {
        self.hard_stall = Some((rank, after_arrivals));
        self
    }

    /// Seeded single-bit flips in arriving frame payloads. Requires the
    /// mailbox integrity layer (on by default) — the CRC is what turns a
    /// flipped bit into a NACK instead of silent data corruption.
    pub fn with_corrupt(mut self, permille: u16) -> Self {
        self.corrupt_permille = permille;
        self
    }

    /// Seeded loss of arriving frames. Requires the mailbox integrity
    /// layer — the retransmit buffer is what keeps the traversal live.
    pub fn with_drop(mut self, permille: u16) -> Self {
        self.drop_permille = permille;
        self
    }

    /// True if any fault can ever fire under this config.
    ///
    /// Written as an exhaustive destructuring on purpose: adding a fault
    /// field without deciding whether it activates the plan is a compile
    /// error here, not silent drift in a hand-maintained `||` chain.
    pub fn is_active(&self) -> bool {
        let Self {
            seed: _,
            delay_permille,
            delay_max_ticks,
            reorder_permille,
            reorder_window,
            duplicate_permille,
            stall_permille,
            stall_ticks,
            slow_rank_permille,
            slow_rank_ticks,
            crash_permille,
            forced_crash,
            hard_stall,
            corrupt_permille,
            drop_permille,
        } = *self;
        (delay_permille > 0 && delay_max_ticks > 0)
            || (reorder_permille > 0 && reorder_window > 0)
            || duplicate_permille > 0
            || (stall_permille > 0 && stall_ticks > 0)
            || (slow_rank_permille > 0 && slow_rank_ticks > 0)
            || crash_permille > 0
            || forced_crash.is_some()
            || hard_stall.is_some()
            || corrupt_permille > 0
            || drop_permille > 0
    }

    /// True when frames can be corrupted or lost, i.e. the mailbox must run
    /// its injection hooks and the integrity layer must be enabled.
    pub fn loses_frames(&self) -> bool {
        self.corrupt_permille > 0 || self.drop_permille > 0
    }
}

/// Salts keeping the per-fault decision streams independent.
const SALT_DELAY: u64 = 0xD31A;
const SALT_REORDER: u64 = 0x2E0D;
const SALT_DUP: u64 = 0xD0B1;
const SALT_STALL: u64 = 0x57A1;
const SALT_SLOW: u64 = 0x510E;
const SALT_CRASH: u64 = 0xC4A5;
const SALT_CORRUPT: u64 = 0xC0FF;
const SALT_DROP: u64 = 0xD20F;

/// World-shared fault decision oracle. All methods are pure functions of
/// the seed and the message identity, so decisions are identical across
/// runs regardless of thread interleaving.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    pub fn new(cfg: FaultConfig) -> Self {
        Self { cfg }
    }

    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// SplitMix64-style avalanche over the seed, a salt, and the message
    /// identity.
    #[inline]
    fn mix(&self, salt: u64, a: u64, b: u64, c: u64) -> u64 {
        let mut z = self
            .cfg
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(salt)
            .wrapping_add(a.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(b.wrapping_mul(0x94d0_49bb_1331_11eb))
            .wrapping_add(c.wrapping_mul(0x2545_f491_4f6c_dd1d));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[inline]
    fn hit(&self, h: u64, permille: u16) -> bool {
        permille > 0 && h % 1000 < permille as u64
    }

    /// Extra hold ticks for message `(tag, src, dst, seq)`; 0 = no delay.
    #[inline]
    fn delay_ticks(&self, tag: u64, src: usize, dst: usize, seq: u64) -> u32 {
        if self.cfg.delay_max_ticks == 0 {
            return 0;
        }
        let h = self.mix(SALT_DELAY, tag ^ ((src as u64) << 32), dst as u64, seq);
        if self.hit(h, self.cfg.delay_permille) {
            1 + ((h >> 10) % self.cfg.delay_max_ticks as u64) as u32
        } else {
            0
        }
    }

    /// How many later arrivals may overtake this message; 0 = in order.
    #[inline]
    fn reorder_shift(&self, tag: u64, src: usize, dst: usize, seq: u64) -> u32 {
        if self.cfg.reorder_window == 0 {
            return 0;
        }
        let h = self.mix(SALT_REORDER, tag ^ ((src as u64) << 32), dst as u64, seq);
        if self.hit(h, self.cfg.reorder_permille) {
            1 + ((h >> 10) % self.cfg.reorder_window as u64) as u32
        } else {
            0
        }
    }

    /// Should the frame `(tag, src, dst, seq)` be shipped twice?
    #[inline]
    pub fn duplicate(&self, tag: u64, src: usize, dst: usize, seq: u64) -> bool {
        let h = self.mix(SALT_DUP, tag ^ ((src as u64) << 32), dst as u64, seq);
        self.hit(h, self.cfg.duplicate_permille)
    }

    /// Stall window (in ticks) opened by arrival number `arrival` at
    /// receiver `dst` on channel `tag`; 0 = none.
    #[inline]
    fn stall_window(&self, tag: u64, dst: usize, arrival: u64) -> u32 {
        if self.cfg.stall_ticks == 0 {
            return 0;
        }
        let h = self.mix(SALT_STALL, tag, dst as u64, arrival);
        if self.hit(h, self.cfg.stall_permille) {
            self.cfg.stall_ticks
        } else {
            0
        }
    }

    /// Is `rank` a designated straggler for this run?
    #[inline]
    fn is_slow(&self, rank: usize) -> bool {
        if self.cfg.slow_rank_ticks == 0 {
            return false;
        }
        let h = self.mix(SALT_SLOW, rank as u64, 0, 0);
        self.hit(h, self.cfg.slow_rank_permille)
    }

    /// True when any message on any channel could be duplicated; receivers
    /// use this to decide whether to track delivered sequence numbers.
    #[inline]
    fn dedup_needed(&self) -> bool {
        self.cfg.duplicate_permille > 0
    }

    /// Entropy draw for corrupting the frame `(tag, src, dst, seq)` on its
    /// `attempt`-th arrival at the receiver; `Some(h)` means flip the bit
    /// the caller derives from `h` (mod the frame's bit length). Mixing in
    /// the arrival nonce means a retransmitted copy draws a fresh verdict,
    /// so recovery converges geometrically instead of looping forever.
    #[inline]
    pub fn corrupt_draw(
        &self,
        tag: u64,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u64,
    ) -> Option<u64> {
        if self.cfg.corrupt_permille == 0 {
            return None;
        }
        let h =
            self.mix(SALT_CORRUPT, tag ^ ((src as u64) << 32), (dst as u64) ^ (attempt << 16), seq);
        if self.hit(h, self.cfg.corrupt_permille) {
            Some(h >> 10)
        } else {
            None
        }
    }

    /// Should the frame `(tag, src, dst, seq)` be discarded on its
    /// `attempt`-th arrival at the receiver?
    #[inline]
    pub fn drop_frame(&self, tag: u64, src: usize, dst: usize, seq: u64, attempt: u64) -> bool {
        if self.cfg.drop_permille == 0 {
            return false;
        }
        let h =
            self.mix(SALT_DROP, tag ^ ((src as u64) << 32), (dst as u64) ^ (attempt << 16), seq);
        self.hit(h, self.cfg.drop_permille)
    }

    /// Which rank (if any) dies while writing checkpoint `epoch` on the
    /// traversal's `incarnation`-th life. Pure function of the plan, so
    /// every rank evaluates the same verdict — this stands in for the
    /// failure detector a real runtime would run.
    ///
    /// Epoch 0 never crashes (the initial checkpoint is the guaranteed
    /// restore point), and keying on `incarnation` keeps the run live: the
    /// retry of an epoch after a restore draws a fresh decision, and a
    /// forced crash fires only on incarnation 0.
    #[inline]
    pub fn crash_victim(&self, epoch: u64, incarnation: u64, ranks: usize) -> Option<usize> {
        if epoch == 0 || ranks == 0 {
            return None;
        }
        if incarnation == 0 {
            if let Some((rank, e)) = self.cfg.forced_crash {
                if e == epoch && rank < ranks {
                    return Some(rank);
                }
            }
        }
        let h = self.mix(SALT_CRASH, epoch, incarnation, 0);
        if self.hit(h, self.cfg.crash_permille) {
            Some(((h >> 10) % ranks as u64) as usize)
        } else {
            None
        }
    }
}

/// One message held by the fault buffer. Ordered by `(release, key)` so a
/// [`BinaryHeap`] of [`std::cmp::Reverse`]-wrapped entries pops the message
/// with the earliest release tick, FIFO (arrival order) within a tick
/// unless a reorder shift pushed the key back.
struct Held<M> {
    release: u64,
    key: u64,
    src: u32,
    seq: u64,
    msg: M,
}

impl<M> PartialEq for Held<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.release, self.key) == (other.release, other.key)
    }
}

impl<M> Eq for Held<M> {}

impl<M> PartialOrd for Held<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Held<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // reversed: BinaryHeap is a max-heap, we pop the earliest release
        (other.release, other.key).cmp(&(self.release, self.key))
    }
}

/// Per-source dedup window: sequence numbers below `hi` have all been
/// delivered; `ahead` holds delivered numbers at or above it. The raw
/// channel is FIFO and the fault buffer reorders only within a bounded
/// window, so `ahead` stays small and the window self-compacts.
#[derive(Default)]
struct DedupWindow {
    hi: u64,
    ahead: std::collections::HashSet<u64>,
}

impl DedupWindow {
    /// Record delivery of `seq`; returns false if it was already delivered
    /// (i.e. this copy is a duplicate to drop).
    fn first_delivery(&mut self, seq: u64) -> bool {
        if seq < self.hi || self.ahead.contains(&seq) {
            return false;
        }
        self.ahead.insert(seq);
        while self.ahead.remove(&self.hi) {
            self.hi += 1;
        }
        true
    }
}

/// Receiver-side fault buffer for one transport endpoint. Owned by the
/// rank that owns the receiver, so all state is plain (interior mutability
/// is handled by the transport's `RefCell`).
pub(crate) struct FaultState<M> {
    plan: std::sync::Arc<FaultPlan>,
    tag: u64,
    /// The receiving rank (the `dst` of every fault decision here).
    rank: usize,
    slow: bool,
    /// Receive-poll clock; advances on every `try_recv`.
    tick: u64,
    /// Arrival counter; the FIFO key of held messages.
    arrivals: u64,
    held: BinaryHeap<Held<M>>,
    stall_until: u64,
    dedup: Option<FxHashMap<u32, DedupWindow>>,
}

impl<M: Send + 'static> FaultState<M> {
    pub(crate) fn new(plan: std::sync::Arc<FaultPlan>, tag: u64, rank: usize) -> Self {
        let slow = plan.is_slow(rank);
        let dedup = plan.dedup_needed().then(FxHashMap::default);
        Self {
            plan,
            tag,
            rank,
            slow,
            tick: 0,
            arrivals: 0,
            held: BinaryHeap::new(),
            stall_until: 0,
            dedup,
        }
    }

    /// Messages currently held back by faults (not yet visible to the
    /// receiver). Used by blocking receives to decide between waiting on
    /// the channel condvar and ticking the fault clock.
    pub(crate) fn pending(&self) -> usize {
        self.held.len()
    }

    /// Hand deduplication over to a higher layer: the mailbox's integrity
    /// window dedups by `(src, seq)` *after* CRC verification, so a
    /// corrupted first copy never blocks its retransmission. Leaving the
    /// transport window on as well would mark the corrupt copy delivered
    /// and silently swallow the repair.
    pub(crate) fn disable_dedup(&mut self) {
        self.dedup = None;
    }

    /// Pull everything off the raw channel into the fault buffer, then
    /// release the earliest due message. One call = one tick.
    pub(crate) fn try_recv(
        &mut self,
        receiver: &Receiver<Wire<M>>,
        stats: &ChannelStats,
    ) -> Option<Wire<M>> {
        self.tick += 1;
        // Always ingest, even mid-stall: the raw channel must keep draining
        // so bounded-channel senders never deadlock against a stall.
        while let Ok(w) = receiver.try_recv() {
            self.ingest(w, stats);
        }
        if self.tick < self.stall_until {
            return None;
        }
        self.release(stats)
    }

    /// Accept one message pulled off the raw channel by a blocking receive.
    pub(crate) fn ingest(&mut self, w: Wire<M>, stats: &ChannelStats) {
        let arrival = self.arrivals;
        self.arrivals += 1;
        let src = w.src as usize;
        if let Some((victim, after)) = self.plan.config().hard_stall {
            if victim == self.rank && self.arrivals > after && self.stall_until != u64::MAX {
                // permanent wedge: the channel keeps draining (ingest still
                // runs) but release never fires again on this endpoint
                self.stall_until = u64::MAX;
                stats.bump(Event::FaultStall, src, self.rank);
            }
        }
        let stall = self.plan.stall_window(self.tag, self.rank, arrival);
        if stall > 0 {
            self.stall_until = self.stall_until.max(self.tick + stall as u64);
            stats.bump(Event::FaultStall, src, self.rank);
        }
        let mut hold = self.plan.delay_ticks(self.tag, src, self.rank, w.seq);
        if hold > 0 {
            stats.bump(Event::FaultDelay, src, self.rank);
        }
        if self.slow {
            hold += self.plan.config().slow_rank_ticks;
            stats.bump(Event::FaultThrottle, src, self.rank);
        }
        let shift = self.plan.reorder_shift(self.tag, src, self.rank, w.seq);
        self.held.push(Held {
            release: self.tick + hold as u64,
            key: arrival + shift as u64,
            src: w.src,
            seq: w.seq,
            msg: w.msg,
        });
    }

    /// Pop the earliest due message, dropping duplicate deliveries.
    fn release(&mut self, stats: &ChannelStats) -> Option<Wire<M>> {
        loop {
            if self.held.peek().is_none_or(|h| h.release > self.tick) {
                return None;
            }
            let h = self.held.pop().unwrap();
            if let Some(dedup) = &mut self.dedup {
                if !dedup.entry(h.src).or_default().first_delivery(h.seq) {
                    stats.bump(Event::FaultDedup, h.src as usize, self.rank);
                    continue;
                }
            }
            // observed overtake: an earlier arrival is still held
            if self.held.iter().any(|o| o.key < h.key) {
                stats.bump(Event::FaultReorder, h.src as usize, self.rank);
            }
            return Some(Wire { src: h.src, seq: h.seq, msg: h.msg });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions() {
        let a = FaultPlan::new(FaultConfig::chaos(42));
        let b = FaultPlan::new(FaultConfig::chaos(42));
        for seq in 0..200 {
            assert_eq!(a.delay_ticks(7, 0, 1, seq), b.delay_ticks(7, 0, 1, seq));
            assert_eq!(a.reorder_shift(7, 0, 1, seq), b.reorder_shift(7, 0, 1, seq));
            assert_eq!(a.duplicate(7, 0, 1, seq), b.duplicate(7, 0, 1, seq));
            assert_eq!(a.stall_window(7, 1, seq), b.stall_window(7, 1, seq));
        }
        for r in 0..16 {
            assert_eq!(a.is_slow(r), b.is_slow(r));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(FaultConfig::chaos(1));
        let b = FaultPlan::new(FaultConfig::chaos(2));
        let differs = (0..500).any(|seq| {
            a.delay_ticks(0, 0, 1, seq) != b.delay_ticks(0, 0, 1, seq)
                || a.duplicate(0, 0, 1, seq) != b.duplicate(0, 0, 1, seq)
        });
        assert!(differs, "seeds 1 and 2 produced identical fault streams");
    }

    #[test]
    fn chaos_rates_are_roughly_calibrated() {
        let plan = FaultPlan::new(FaultConfig::chaos(7));
        let n = 10_000u64;
        let delayed = (0..n).filter(|&s| plan.delay_ticks(3, 0, 1, s) > 0).count() as f64;
        let dup = (0..n).filter(|&s| plan.duplicate(3, 0, 1, s)).count() as f64;
        let frac_delayed = delayed / n as f64;
        let frac_dup = dup / n as f64;
        assert!((0.15..0.25).contains(&frac_delayed), "delay rate {frac_delayed}");
        assert!((0.07..0.13).contains(&frac_dup), "dup rate {frac_dup}");
    }

    #[test]
    fn quiet_config_is_inactive() {
        assert!(!FaultConfig::quiet(9).is_active());
        assert!(FaultConfig::chaos(9).is_active());
        assert!(FaultConfig::quiet(9).with_delay(100, 4).is_active());
        assert!(FaultConfig::quiet(9).with_corrupt(20).is_active());
        assert!(FaultConfig::quiet(9).with_drop(20).is_active());
        assert!(FaultConfig::lossy(9).is_active());
    }

    #[test]
    fn corrupt_and_drop_redraw_per_attempt() {
        let plan = FaultPlan::new(FaultConfig::quiet(17).with_corrupt(500).with_drop(500));
        assert!(!plan.config().loses_frames() || plan.config().is_active());
        // With a 50% rate, some seq must flip its verdict between attempt 0
        // and attempt 1 — the property that makes retransmission converge.
        let corrupt_redraws = (0..200u64).any(|seq| {
            plan.corrupt_draw(3, 0, 1, seq, 0).is_some()
                != plan.corrupt_draw(3, 0, 1, seq, 1).is_some()
        });
        let drop_redraws = (0..200u64)
            .any(|seq| plan.drop_frame(3, 0, 1, seq, 0) != plan.drop_frame(3, 0, 1, seq, 1));
        assert!(corrupt_redraws, "corruption verdict ignores the arrival nonce");
        assert!(drop_redraws, "drop verdict ignores the arrival nonce");
        // decisions stay pure functions of their inputs
        for seq in 0..50 {
            assert_eq!(plan.corrupt_draw(3, 0, 1, seq, 2), plan.corrupt_draw(3, 0, 1, seq, 2));
            assert_eq!(plan.drop_frame(3, 0, 1, seq, 2), plan.drop_frame(3, 0, 1, seq, 2));
        }
        // a quiet plan never fires either fault
        let quiet = FaultPlan::new(FaultConfig::quiet(17).with_delay(100, 4));
        for seq in 0..50 {
            assert_eq!(quiet.corrupt_draw(3, 0, 1, seq, 0), None);
            assert!(!quiet.drop_frame(3, 0, 1, seq, 0));
        }
    }

    #[test]
    fn delay_bounded_by_max_ticks() {
        let plan = FaultPlan::new(FaultConfig::quiet(5).with_delay(1000, 7));
        for seq in 0..1000 {
            let d = plan.delay_ticks(0, 2, 3, seq);
            assert!((1..=7).contains(&d), "delay {d} out of bounds");
        }
    }

    #[test]
    fn crash_only_configs_are_active() {
        assert!(FaultConfig::quiet(9).with_crash(500).is_active());
        assert!(FaultConfig::quiet(9).with_forced_crash(1, 2).is_active());
    }

    #[test]
    fn crash_victim_is_deterministic_and_spares_epoch_zero() {
        let plan = FaultPlan::new(FaultConfig::quiet(11).with_crash(1000));
        assert_eq!(plan.crash_victim(0, 0, 4), None, "epoch 0 is protected");
        let mut hit = false;
        for epoch in 1..64 {
            for inc in 0..4 {
                let a = plan.crash_victim(epoch, inc, 4);
                let b = plan.crash_victim(epoch, inc, 4);
                assert_eq!(a, b, "verdict must be a pure function");
                if let Some(v) = a {
                    assert!(v < 4);
                    hit = true;
                }
            }
        }
        assert!(hit, "permille 1000 must crash somewhere");
        // different seeds draw different schedules
        let other = FaultPlan::new(FaultConfig::quiet(12).with_crash(1000));
        let same = (1..64u64).all(|e| plan.crash_victim(e, 0, 4) == other.crash_victim(e, 0, 4));
        assert!(!same, "seed must steer the crash schedule");
    }

    #[test]
    fn forced_crash_fires_once_on_first_incarnation() {
        let plan = FaultPlan::new(FaultConfig::quiet(3).with_forced_crash(2, 5));
        assert_eq!(plan.crash_victim(5, 0, 4), Some(2));
        assert_eq!(plan.crash_victim(5, 1, 4), None, "retry must survive");
        assert_eq!(plan.crash_victim(4, 0, 4), None);
        // forced target outside the world is ignored
        let oob = FaultPlan::new(FaultConfig::quiet(3).with_forced_crash(9, 5));
        assert_eq!(oob.crash_victim(5, 0, 4), None);
    }

    #[test]
    fn dedup_window_drops_repeats_and_compacts() {
        let mut w = DedupWindow::default();
        assert!(w.first_delivery(0));
        assert!(w.first_delivery(2)); // out of order
        assert!(!w.first_delivery(0)); // duplicate
        assert!(w.first_delivery(1));
        assert!(!w.first_delivery(2));
        assert_eq!(w.hi, 3, "window compacted past contiguous prefix");
        assert!(w.ahead.is_empty());
    }
}
