//! Typed channel registry shared by all ranks of one [`CommWorld`] run.
//!
//! Ranks open typed point-to-point channel sets lazily and collectively: the
//! first rank to ask for `(message type, tag)` materializes one MPMC queue per
//! destination rank; every rank then shares the senders and takes its own
//! receiver exactly once. This mirrors how MPI programs agree on communicators
//! and tags out of band.
//!
//! The registry is only the rendezvous: an entry is retired when the last of
//! its `p` receivers is taken, so from then on a set lives in its transports
//! alone and is freed with them. A world that runs a million traversals
//! holds the sets of the ones still running, not of every one it ever ran.
//!
//! [`CommWorld`]: crate::runtime::CommWorld

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::chan::{channel, Receiver, Sender};
use crate::stats::ChannelStats;

/// A message on the wire, carrying its source rank and a per-`(src, dst)`
/// sequence number. The sequence number exists for the fault-injection
/// layer: duplicated frames reuse the original's number so the receiver
/// can drop the second copy, and delayed frames stay identifiable no
/// matter when they surface. Fault-free runs stamp it but never read it.
#[derive(Debug)]
pub struct Wire<M> {
    pub src: u32,
    pub seq: u64,
    pub msg: M,
}

impl<M> Wire<M> {
    /// A wire envelope with sequence number 0 — for tests and callers that
    /// bypass [`Transport`](crate::transport::Transport) stamping.
    pub fn new(src: u32, msg: M) -> Self {
        Self { src, seq: 0, msg }
    }
}

/// The part of a channel set every rank's transport shares: one sender per
/// destination rank.
///
/// `capacity` is fixed at creation: `None` for unbounded control channels
/// (collectives, termination), `Some(n)` for the bounded data-plane
/// channels the byte-framed mailbox uses for backpressure. Only user-tag
/// (data-plane) sets carry a traffic matrix: nothing can read one off a
/// collective, termination or integrity-control channel, and at
/// `(3 + Event::COUNT) · p²` counters it would dwarf the `p` queues.
pub struct ChannelSet<M> {
    pub senders: Vec<Sender<Wire<M>>>,
    pub stats: Option<ChannelStats>,
    pub capacity: Option<usize>,
}

/// A channel set some rank has yet to open: the shared half plus the
/// receivers not taken so far.
struct Pending<M> {
    set: Arc<ChannelSet<M>>,
    receivers: Vec<Option<Receiver<Wire<M>>>>,
    unopened: usize,
}

impl<M> Pending<M> {
    fn new(ranks: usize, tag: u64, capacity: Option<usize>) -> Self {
        let (senders, receivers) =
            (0..ranks).map(|_| channel(capacity)).map(|(s, r)| (s, Some(r))).unzip();
        let stats = (tag < RESERVED_TAG_BASE).then(|| ChannelStats::new(ranks));
        Self { set: Arc::new(ChannelSet { senders, stats, capacity }), receivers, unopened: ranks }
    }
}

/// Key for a channel set: the message type plus a user tag, so independent
/// subsystems (mailbox payloads, termination control, collectives) never share
/// queues even when they exchange the same Rust type.
type Key = (TypeId, u64);

/// World-wide rendezvous for channel sets being opened, keyed by
/// `(TypeId, tag)`.
pub struct Registry {
    ranks: usize,
    slots: Mutex<HashMap<Key, Box<dyn Any + Send>>>,
}

impl Registry {
    pub fn new(ranks: usize) -> Self {
        Self { ranks, slots: Mutex::new(HashMap::new()) }
    }

    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Open rank `rank`'s endpoint of the channel set `(M, tag)`: the shared
    /// senders plus this rank's receiver. The first rank to arrive creates
    /// the set with the given per-queue capacity; under the SPMD contract
    /// every rank opens a tag with the same configuration, which is
    /// asserted here. The last rank to arrive retires the entry.
    ///
    /// Panics if `rank` opens a set twice while a peer has yet to open it:
    /// each rank may open a given channel exactly once, like an MPI
    /// communicator. (Once all `p` ranks have opened it the tag is free
    /// again, as a freed communicator's context id would be.)
    pub fn open<M: Send + 'static>(
        &self,
        tag: u64,
        capacity: Option<usize>,
        rank: usize,
    ) -> (Arc<ChannelSet<M>>, Receiver<Wire<M>>) {
        let key = (TypeId::of::<M>(), tag);
        let mut slots = self.slots.lock().expect("a rank panicked while opening a channel");
        let pending = slots
            .entry(key)
            .or_insert_with(|| Box::new(Pending::<M>::new(self.ranks, tag, capacity)))
            .downcast_mut::<Pending<M>>()
            .expect("registry slot type mismatch (TypeId collision is impossible)");
        assert_eq!(
            pending.set.capacity, capacity,
            "ranks opened channel tag={tag} with different capacities (SPMD violation)"
        );
        let receiver = pending.receivers[rank]
            .take()
            .unwrap_or_else(|| panic!("rank {rank} opened channel tag={tag} twice"));
        let set = Arc::clone(&pending.set);
        pending.unopened -= 1;
        if pending.unopened == 0 {
            slots.remove(&key);
        }
        (set, receiver)
    }

    /// Channel sets some rank has yet to open.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }
}

/// Tag namespaces. User code must tag channels below [`RESERVED_TAG_BASE`];
/// the runtime derives internal tags above it.
pub const RESERVED_TAG_BASE: u64 = 1 << 48;

/// Tag space for collective operations: the world's reduction tree sits on
/// the base tag itself, each `all_to_allv` call draws a fresh tag above it.
pub const COLLECTIVE_TAG_BASE: u64 = RESERVED_TAG_BASE;

/// Tag space for termination-detection control channels.
pub const TERMINATION_TAG_BASE: u64 = RESERVED_TAG_BASE + (1 << 40);

/// Tag space for the mailbox integrity layer's ACK/NACK control channels
/// (one per mailbox, offset by the mailbox's own tag).
pub const INTEGRITY_TAG_BASE: u64 = RESERVED_TAG_BASE + (2 << 40);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_set_roundtrip() {
        let reg = Registry::new(2);
        let (set, _rx0) = reg.open::<u32>(7, None, 0);
        let (_, rx1) = reg.open::<u32>(7, None, 1);
        set.senders[1].send(Wire::new(0, 42u32)).unwrap();
        let w = rx1.try_recv().unwrap();
        assert_eq!(w.src, 0);
        assert_eq!(w.msg, 42);
    }

    #[test]
    fn distinct_tags_are_distinct_channels() {
        let reg = Registry::new(1);
        let (a, rx_a) = reg.open::<u32>(0, None, 0);
        let (_b, rx_b) = reg.open::<u32>(1, None, 0);
        a.senders[0].send(Wire::new(0, 1)).unwrap();
        // Nothing arrives on tag 1's queue.
        assert!(rx_b.try_recv().is_err());
        assert_eq!(rx_a.try_recv().unwrap().msg, 1);
    }

    #[test]
    fn distinct_types_same_tag_are_distinct() {
        let reg = Registry::new(1);
        let (a, _rx32) = reg.open::<u32>(0, None, 0);
        let (_b, rx64) = reg.open::<u64>(0, None, 0);
        a.senders[0].send(Wire::new(0, 9)).unwrap();
        assert!(rx64.try_recv().is_err());
    }

    #[test]
    fn bounded_sets_enforce_capacity() {
        let reg = Registry::new(1);
        let (set, _rx) = reg.open::<u8>(3, Some(2), 0);
        assert!(set.senders[0].try_send(Wire::new(0, 1)).is_ok());
        assert!(set.senders[0].try_send(Wire::new(0, 2)).is_ok());
        assert!(set.senders[0].try_send(Wire::new(0, 3)).is_err());
    }

    #[test]
    #[should_panic(expected = "different capacities")]
    fn mismatched_capacity_is_an_spmd_violation() {
        let reg = Registry::new(2);
        let _a = reg.open::<u8>(0, Some(4), 0);
        let _b = reg.open::<u8>(0, None, 1);
    }

    /// While any peer has yet to open the set, a second open by the same
    /// rank is caught.
    #[test]
    #[should_panic(expected = "twice")]
    fn double_take_panics() {
        let reg = Registry::new(2);
        let _first = reg.open::<u8>(0, None, 0);
        let _second = reg.open::<u8>(0, None, 0);
    }

    /// An entry lives from its first open to its last: the registry holds
    /// the sets being opened, never the ones in use, and only data-plane
    /// sets pay for a traffic matrix.
    #[test]
    fn entry_retires_with_its_last_receiver() {
        let reg = Registry::new(3);
        let (data, _rx0) = reg.open::<u8>(5, None, 0);
        let _rx2 = reg.open::<u8>(5, None, 2);
        assert_eq!(reg.len(), 1);
        let _rx1 = reg.open::<u8>(5, None, 1);
        assert_eq!(reg.len(), 0, "last receiver taken: the set lives in its transports only");
        assert!(data.stats.is_some(), "user tags carry a traffic matrix");
        for tag in [COLLECTIVE_TAG_BASE, TERMINATION_TAG_BASE, INTEGRITY_TAG_BASE + 5] {
            assert!(reg.open::<u8>(tag, None, 0).0.stats.is_none(), "tag {tag:#x}");
        }
    }
}
