//! Per-channel-pair traffic counters, and the event table.
//!
//! The paper argues (Section III-B) that dense all-to-all communication is a
//! primary scaling obstacle and that routed mailboxes cut the number of
//! communicating pairs from `O(p)` per rank to `O(sqrt(p))` (2D) or
//! `O(p^(1/3))` per axis (3D). These counters let experiments observe that
//! reduction directly: every transport-level send is recorded against its
//! (source, destination) pair, in messages, payload items, *and bytes* —
//! the paper's evaluation is ultimately about bytes on the wire
//! (64-byte visitor messages, Section VI), so byte volume is first-class.
//!
//! Everything else a channel set counts is reproduction infrastructure and
//! is kept as *data*: one [`Event`] variant per counter, one flat table
//! indexed `(event, src, dst)`, one [`ChannelStats::bump`]. Plumbing loops
//! over [`Event::ALL`]; only the site that causes an event and the
//! assertion that checks one name a variant (DESIGN.md §6 "Counters").

use std::ops::{AddAssign, Index};
use std::sync::atomic::{AtomicU64, Ordering};

/// Which rank's view ([`ChannelStatsSnapshot::at_rank`]) an event bumped at
/// `(src, dst)` is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Observer {
    /// The sending rank `src` (row sum of the pair matrix).
    Sender,
    /// The receiving rank `dst` (column sum).
    Receiver,
    /// A per-rank event, not a per-pair one: bumped at `(rank, rank)`.
    Rank,
}

/// One countable event of a channel set: backpressure, injected faults,
/// integrity repair, checkpoint/restart, query lifecycle. All zero on a
/// fault-free, uncheckpointed run apart from [`Event::Stall`]. None ever
/// moves the `msgs`/`items`/`bytes` matrices — duplicate copies and
/// retransmitted frames are recorded here only — so the conservation
/// invariants (bytes sent == bytes received) hold under any fault plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Event {
    /// A send src -> dst found its bounded channel full (each retry loop
    /// iteration counts once).
    Stall,
    /// A message src -> dst was held back by an injected delay.
    FaultDelay,
    /// A message src -> dst was delivered ahead of an earlier arrival.
    FaultReorder,
    /// A frame src -> dst was shipped twice by the fault layer (counted at
    /// the sender; the other injected faults are observed at the receiver).
    FaultDup,
    /// A duplicate delivery src -> dst was dropped by the dedup window.
    FaultDedup,
    /// An arrival src -> dst opened an injected receive-stall window.
    FaultStall,
    /// A delivery src -> dst paid the slow-rank throttle at receiver `dst`.
    FaultThrottle,
    /// A frame src -> dst had a payload bit flipped by the fault layer.
    FaultCorrupt,
    /// A frame src -> dst was discarded (lost) by the fault layer.
    FaultDrop,
    /// Receiver `dst` detected a CRC mismatch on a frame from `src`. On a
    /// lossy run every injected corruption must show up here — the sweeps'
    /// zero-undetected-corruption invariant. A recovery event: a
    /// consequence of a fault, not a fault.
    CorruptDetected,
    /// Receiver `dst` NACKed a frame back to sender `src` (a gap or a CRC
    /// rejection). A recovery event, not a fault.
    Nack,
    /// Sender `src` retransmitted a buffered frame to `dst` (NACK- or
    /// timeout-driven). A recovery event, not a fault; like duplicate
    /// copies, retransmitted frames never count as messages.
    Retransmit,
    /// The rank committed one complete checkpoint epoch (checkpointed
    /// traversals only; includes the epoch-0 checkpoint).
    Checkpoint,
    /// The rank was the injected crash victim: it died mid-write and its
    /// checkpoint epoch is torn. A process fault, not a message fault.
    Crash,
    /// The rank rewound to an earlier checkpoint epoch.
    Restore,
    /// The rank applied one cancel record to a live query.
    Cancel,
    /// The rank aborted a traversal on a watchdog verdict.
    Abort,
}

impl Event {
    pub const COUNT: usize = 17;

    /// One row per event, in declaration order: the CSV/console column
    /// name, which side of the `(src, dst)` pair observes it, and whether
    /// the fault layer *injected* it into message traffic. Recovery events
    /// (detections, NACKs, retransmits) are consequences, not faults;
    /// crashes are process faults, not message faults.
    const ROWS: [(Event, &'static str, Observer, bool); Event::COUNT] = [
        (Event::Stall, "stalls", Observer::Sender, false),
        (Event::FaultDelay, "fault_delays", Observer::Receiver, true),
        (Event::FaultReorder, "fault_reorders", Observer::Receiver, true),
        (Event::FaultDup, "fault_dups", Observer::Sender, true),
        (Event::FaultDedup, "fault_dedups", Observer::Receiver, true),
        (Event::FaultStall, "fault_stalls", Observer::Receiver, true),
        (Event::FaultThrottle, "fault_throttles", Observer::Receiver, true),
        (Event::FaultCorrupt, "fault_corrupts", Observer::Receiver, true),
        (Event::FaultDrop, "fault_drops", Observer::Receiver, true),
        (Event::CorruptDetected, "corrupt_detected", Observer::Receiver, false),
        (Event::Nack, "nacks", Observer::Receiver, false),
        (Event::Retransmit, "retransmits", Observer::Sender, false),
        (Event::Checkpoint, "checkpoints", Observer::Rank, false),
        (Event::Crash, "crashes", Observer::Rank, false),
        (Event::Restore, "restores", Observer::Rank, false),
        (Event::Cancel, "cancels", Observer::Rank, false),
        (Event::Abort, "aborts", Observer::Rank, false),
    ];

    /// Every event, in table (and CSV column) order.
    pub const ALL: [Event; Event::COUNT] = {
        let mut all = [Event::Stall; Event::COUNT];
        let mut i = 0;
        while i < Event::COUNT {
            all[i] = Event::ROWS[i].0;
            i += 1;
        }
        all
    };

    /// Column name for CSV and console tables.
    pub fn name(self) -> &'static str {
        Event::ROWS[self as usize].1
    }

    /// Which side of the `(src, dst)` pair observes the event.
    pub fn observer(self) -> Observer {
        Event::ROWS[self as usize].2
    }

    /// Whether the fault layer injected this event (the eight `Fault*`).
    pub fn is_injected_fault(self) -> bool {
        Event::ROWS[self as usize].3
    }
}

/// One count per [`Event`]: a rank's view, or a world total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts([u64; Event::COUNT]);

impl EventCounts {
    /// `(event, count)` in [`Event::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Event, u64)> + '_ {
        Event::ALL.iter().map(|&ev| (ev, self[ev]))
    }

    /// Sum of the injected-fault events ([`Event::is_injected_fault`]) —
    /// nonzero iff the fault layer perturbed at least one message.
    pub fn injected_faults(&self) -> u64 {
        self.iter().filter(|(ev, _)| ev.is_injected_fault()).map(|(_, n)| n).sum()
    }
}

impl Index<Event> for EventCounts {
    type Output = u64;

    #[inline]
    fn index(&self, ev: Event) -> &u64 {
        &self.0[ev as usize]
    }
}

impl AddAssign for EventCounts {
    fn add_assign(&mut self, o: Self) {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a += b;
        }
    }
}

/// Shared traffic matrix for one transport channel set.
///
/// Counts are recorded with relaxed ordering; they are read only after the
/// SPMD region joins, when all writes are already synchronized by the thread
/// join.
pub struct ChannelStats {
    ranks: usize,
    /// `msgs[src * ranks + dst]`: transport messages sent src -> dst.
    msgs: Vec<AtomicU64>,
    /// `items[src * ranks + dst]`: payload items carried by those messages
    /// (for batched transports a message carries many items).
    items: Vec<AtomicU64>,
    /// `bytes[src * ranks + dst]`: wire bytes carried by those messages.
    /// Exact frame sizes on the byte-framed mailbox path; an in-memory
    /// payload estimate on typed control channels (collectives).
    bytes: Vec<AtomicU64>,
    /// `events[(ev * ranks + src) * ranks + dst]`: one pair matrix per
    /// [`Event`]; per-rank events sit on the diagonal.
    events: Vec<AtomicU64>,
}

impl ChannelStats {
    pub fn new(ranks: usize) -> Self {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        Self {
            ranks,
            msgs: zeros(ranks * ranks),
            items: zeros(ranks * ranks),
            bytes: zeros(ranks * ranks),
            events: zeros(Event::COUNT * ranks * ranks),
        }
    }

    #[inline]
    pub fn record(&self, src: usize, dst: usize, items: u64, bytes: u64) {
        let i = src * self.ranks + dst;
        self.msgs[i].fetch_add(1, Ordering::Relaxed);
        self.items[i].fetch_add(items, Ordering::Relaxed);
        self.bytes[i].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Count one `ev` on the pair src -> dst (`src == dst == rank` for the
    /// per-rank events).
    #[inline]
    pub fn bump(&self, ev: Event, src: usize, dst: usize) {
        debug_assert!(ev.observer() != Observer::Rank || src == dst, "{ev:?} is per-rank");
        self.events[(ev as usize * self.ranks + src) * self.ranks + dst]
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Immutable snapshot for post-run analysis.
    pub fn snapshot(&self) -> ChannelStatsSnapshot {
        let load = |v: &Vec<AtomicU64>| v.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        ChannelStatsSnapshot {
            ranks: self.ranks,
            msgs: load(&self.msgs),
            items: load(&self.items),
            bytes: load(&self.bytes),
            events: load(&self.events),
        }
    }
}

/// Plain-data snapshot of a [`ChannelStats`] matrix.
#[derive(Clone, Debug)]
pub struct ChannelStatsSnapshot {
    pub ranks: usize,
    pub msgs: Vec<u64>,
    pub items: Vec<u64>,
    pub bytes: Vec<u64>,
    /// `(event, src, dst)` table; read through [`Self::count`],
    /// [`Self::between`] and [`Self::at_rank`].
    events: Vec<u64>,
}

impl ChannelStatsSnapshot {
    #[inline]
    pub fn msgs_between(&self, src: usize, dst: usize) -> u64 {
        self.msgs[src * self.ranks + dst]
    }

    #[inline]
    pub fn items_between(&self, src: usize, dst: usize) -> u64 {
        self.items[src * self.ranks + dst]
    }

    #[inline]
    pub fn bytes_between(&self, src: usize, dst: usize) -> u64 {
        self.bytes[src * self.ranks + dst]
    }

    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    pub fn total_items(&self) -> u64 {
        self.items.iter().sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// The pair matrix of one event, row-major `src * ranks + dst`.
    fn matrix(&self, ev: Event) -> &[u64] {
        let n = self.ranks * self.ranks;
        &self.events[ev as usize * n..][..n]
    }

    /// World total of `ev` on this channel set.
    pub fn count(&self, ev: Event) -> u64 {
        self.matrix(ev).iter().sum()
    }

    /// `ev` count on the pair src -> dst (`src == dst` for per-rank events).
    #[inline]
    pub fn between(&self, ev: Event, src: usize, dst: usize) -> u64 {
        self.matrix(ev)[src * self.ranks + dst]
    }

    /// The events `rank` observed: the column sum for receiver-observed
    /// events, the row sum for sender-observed ones, the diagonal entry for
    /// per-rank ones ([`Event::observer`]). The views of all ranks
    /// partition the table: summed, they equal [`Self::count`].
    pub fn at_rank(&self, rank: usize) -> EventCounts {
        let mut out = EventCounts::default();
        for ev in Event::ALL {
            let peers = 0..self.ranks;
            out.0[ev as usize] = match ev.observer() {
                Observer::Sender => peers.map(|dst| self.between(ev, rank, dst)).sum(),
                Observer::Receiver => peers.map(|src| self.between(ev, src, rank)).sum(),
                Observer::Rank => self.between(ev, rank, rank),
            };
        }
        out
    }

    /// Number of distinct destinations rank `src` ever sent to.
    ///
    /// For a `Direct` mailbox under an all-to-all workload this approaches
    /// `p - 1`; for `Routed2D` it is bounded by row + column peers.
    pub fn channels_used_by(&self, src: usize) -> usize {
        (0..self.ranks).filter(|&d| d != src && self.msgs[src * self.ranks + d] > 0).count()
    }

    /// Maximum over all ranks of [`Self::channels_used_by`].
    pub fn max_channels_used(&self) -> usize {
        (0..self.ranks).map(|r| self.channels_used_by(r)).max().unwrap_or(0)
    }

    /// Column sums of a pair matrix: what each rank received.
    fn received_per_rank(&self, m: &[u64]) -> Vec<u64> {
        (0..self.ranks).map(|d| (0..self.ranks).map(|s| m[s * self.ranks + d]).sum()).collect()
    }

    /// Payload items received per rank; the spread of this distribution shows
    /// communication hotspots (the paper's high in-degree hub problem).
    pub fn items_received_per_rank(&self) -> Vec<u64> {
        self.received_per_rank(&self.items)
    }

    /// Wire bytes received per rank.
    pub fn bytes_received_per_rank(&self) -> Vec<u64> {
        self.received_per_rank(&self.bytes)
    }

    /// max/mean imbalance of items received per rank (1.0 = perfectly even).
    pub fn receive_imbalance(&self) -> f64 {
        let per = self.items_received_per_rank();
        let total: u64 = per.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.ranks as f64;
        per.iter().copied().max().unwrap_or(0) as f64 / mean
    }

    /// `total` per transport message (0.0 before the first message).
    fn per_msg(&self, total: u64) -> f64 {
        match self.total_msgs() {
            0 => 0.0,
            m => total as f64 / m as f64,
        }
    }

    /// Mean payload items per transport message (the aggregation factor the
    /// paper's routed mailbox is designed to increase).
    pub fn aggregation_factor(&self) -> f64 {
        self.per_msg(self.total_items())
    }

    /// Mean wire bytes per transport message.
    pub fn mean_msg_bytes(&self) -> f64 {
        self.per_msg(self.total_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use havoq_util::testing::TestRng;

    #[test]
    fn record_and_snapshot() {
        let s = ChannelStats::new(4);
        s.record(0, 1, 10, 100);
        s.record(0, 1, 5, 50);
        s.record(2, 3, 1, 9);
        let snap = s.snapshot();
        assert_eq!(snap.msgs_between(0, 1), 2);
        assert_eq!(snap.items_between(0, 1), 15);
        assert_eq!(snap.bytes_between(0, 1), 150);
        assert_eq!(snap.msgs_between(1, 0), 0);
        assert_eq!(snap.total_msgs(), 3);
        assert_eq!(snap.total_items(), 16);
        assert_eq!(snap.total_bytes(), 159);
    }

    #[test]
    fn channels_used_ignores_self() {
        let s = ChannelStats::new(3);
        s.record(0, 0, 1, 8);
        s.record(0, 1, 1, 8);
        let snap = s.snapshot();
        assert_eq!(snap.channels_used_by(0), 1);
        assert_eq!(snap.channels_used_by(1), 0);
        assert_eq!(snap.max_channels_used(), 1);
    }

    #[test]
    fn receive_imbalance_even_and_skewed() {
        let s = ChannelStats::new(2);
        s.record(0, 1, 4, 32);
        s.record(1, 0, 4, 32);
        assert!((s.snapshot().receive_imbalance() - 1.0).abs() < 1e-12);

        let skew = ChannelStats::new(2);
        skew.record(0, 1, 8, 64);
        // rank0 receives nothing: max/mean = 8 / 4 = 2
        assert!((skew.snapshot().receive_imbalance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn aggregation_factor_and_mean_bytes() {
        let s = ChannelStats::new(2);
        s.record(0, 1, 64, 640);
        s.record(0, 1, 32, 320);
        let snap = s.snapshot();
        assert!((snap.aggregation_factor() - 48.0).abs() < 1e-12);
        assert!((snap.mean_msg_bytes() - 480.0).abs() < 1e-12);
    }

    /// Every event, one row of the same table: bumped on an off-diagonal
    /// pair (the diagonal for per-rank events) it shows up in `count`,
    /// `between` and exactly the observing rank's `at_rank`, counts as an
    /// injected fault iff `is_injected_fault`, and never as a message.
    #[test]
    fn every_event_is_counted_and_attributed_to_its_observer() {
        let injected = [
            Event::FaultDelay,
            Event::FaultReorder,
            Event::FaultDup,
            Event::FaultDedup,
            Event::FaultStall,
            Event::FaultThrottle,
            Event::FaultCorrupt,
            Event::FaultDrop,
        ];
        let mut names = std::collections::HashSet::new();
        for (i, ev) in Event::ALL.into_iter().enumerate() {
            assert_eq!(ev as usize, i, "Event::ALL is in discriminant order");
            assert!(names.insert(ev.name()), "{ev:?}: column name reused");
            assert_eq!(ev.is_injected_fault(), injected.contains(&ev), "{ev:?}");

            let (src, dst, observer) = match ev.observer() {
                Observer::Sender => (2, 0, 2),
                Observer::Receiver => (2, 0, 0),
                Observer::Rank => (1, 1, 1),
            };
            let s = ChannelStats::new(3);
            s.bump(ev, src, dst);
            s.bump(ev, src, dst);
            let snap = s.snapshot();
            assert_eq!(snap.count(ev), 2, "{ev:?}");
            assert_eq!(snap.between(ev, src, dst), 2, "{ev:?}");
            assert_eq!(snap.between(ev, dst, (src + 1) % 3), 0, "{ev:?}");
            for rank in 0..3 {
                let view = snap.at_rank(rank);
                for (other, n) in view.iter() {
                    let expect = if other == ev && rank == observer { 2 } else { 0 };
                    assert_eq!(n, expect, "{ev:?} bumped: rank {rank} sees {other:?}");
                }
                let faults = if rank == observer && ev.is_injected_fault() { 2 } else { 0 };
                assert_eq!(view.injected_faults(), faults, "{ev:?} at rank {rank}");
            }
            assert_eq!(snap.total_msgs(), 0, "{ev:?}: events are not messages");
            assert_eq!(snap.total_bytes(), 0, "{ev:?}: events carry no counted bytes");
        }

        // The per-rank views partition the table: nothing double-counted,
        // nothing dropped, whatever the fill.
        let p = 4;
        let s = ChannelStats::new(p);
        let mut rng = TestRng::new(0x5eed_c0de);
        for _ in 0..2000 {
            let ev = Event::ALL[rng.range_usize(0, Event::COUNT)];
            let src = rng.range_usize(0, p);
            let dst = if ev.observer() == Observer::Rank { src } else { rng.range_usize(0, p) };
            s.bump(ev, src, dst);
        }
        let snap = s.snapshot();
        let mut world = EventCounts::default();
        for rank in 0..p {
            world += snap.at_rank(rank);
        }
        for (ev, n) in world.iter() {
            assert_eq!(n, snap.count(ev), "{ev:?}: rank views do not sum to the world total");
        }
        assert_eq!(world.iter().map(|(_, n)| n).sum::<u64>(), 2000);
    }

    #[test]
    fn empty_stats() {
        let snap = ChannelStats::new(4).snapshot();
        assert_eq!(snap.total_msgs(), 0);
        assert_eq!(snap.total_bytes(), 0);
        assert_eq!(snap.at_rank(0), EventCounts::default());
        assert_eq!(snap.aggregation_factor(), 0.0);
        assert_eq!(snap.mean_msg_bytes(), 0.0);
        assert_eq!(snap.receive_imbalance(), 1.0);
    }
}
