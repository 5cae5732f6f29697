//! The paper's mailbox abstraction: `send(rank, data)` / `receive()` with
//! message aggregation and routing (Sections III-B and V) — byte-framed.
//!
//! Payloads are encoded through [`WireCodec`] and packed per next-hop into
//! [`Frame`] buffers (header + fixed-size records, see `codec.rs`). A frame
//! ships when it holds `batch_size` records or `frame_bytes` of payload,
//! whichever limit binds first. With a routed topology an intermediate rank
//! re-packs transit records toward their final destinations *by copying raw
//! record bytes* — exactly where the paper's extra aggregation factor of
//! `O(sqrt(p))` comes from: a routed rank merges records from many sources
//! heading to the same column.
//!
//! Frame buffers are recycled through a per-mailbox [`FramePool`] — the
//! frames under construction and the integrity layer's retained copies
//! alike: in steady state a rank receives about as many frames as it sends
//! and every retained copy comes back on an ACK, so traversal ships frames
//! with zero allocation.
//!
//! Channels are bounded (capacity [`MailboxConfig::channel_capacity`]); a
//! full channel makes `ship` run the blocking slow path: count the stall,
//! drain this rank's own receiver into an inbox (so mutually-blocked ranks
//! always make progress), check for world poison, retry.
//!
//! End-to-end payload counters (`sent`, `received`) feed the quiescence
//! detector: a payload counts as sent when the origin rank accepts it and as
//! received when the final destination dequeues it, so in-flight transit
//! frames keep the traversal alive.
//!
//! # Integrity layer
//!
//! With [`MailboxConfig::integrity`] enabled (the default) every shipped
//! frame carries a CRC-32 trailer, sealed at flush time and verified (and
//! stripped) on receive. The sender keeps a copy of each sealed frame in a
//! per-destination retransmit buffer until the receiver's cumulative ACK
//! covers its sequence number; a receiver that detects a corrupt frame or a
//! persistent sequence gap NACKs the missing number over an unfaulted
//! reserved-tag control channel and the sender re-ships its buffered copy.
//! Tail loss — a dropped *last* frame leaves no gap to NACK — is repaired by
//! a sender-side retransmit timeout. Both repair paths back off
//! exponentially and give up (panic) after a bounded number of attempts.
//!
//! Exactly-once delivery survives all of this because retransmitted copies
//! reuse their original wire sequence number and a per-source window
//! advances only on *verified* deliveries: a corrupt copy never marks its
//! number delivered (so the repair is accepted later), and whichever of a
//! crossed original/retransmit pair lands second is dropped as a duplicate.
//! Corruption and frame loss are injected here, on the receive path, keyed
//! on a per-arrival nonce so a retransmitted copy draws a fresh verdict —
//! the mailbox is the only layer that owns frame bytes.

use crate::chan::TrySendError;
use crate::codec::{
    frame_init, frame_record_count, frame_record_size, frame_seal, frame_set_count,
    frame_verify_and_strip, Frame, FramePool, WireCodec, FRAME_CRC_BYTES, FRAME_HEADER_BYTES,
    RECORD_DST_BYTES,
};
use crate::runtime::RankCtx;
use crate::stats::Event;
use crate::topology::{Topology, TopologyKind};
use crate::transport::Transport;
use std::collections::{HashSet, VecDeque};

/// Configuration for a [`Mailbox`].
#[derive(Clone, Copy, Debug)]
pub struct MailboxConfig {
    /// Routing topology for dense communication.
    pub topology: TopologyKind,
    /// Flush a per-next-hop frame once it holds this many payload records.
    pub batch_size: usize,
    /// Flush a per-next-hop frame once it reaches this many bytes (header
    /// included). The record-count cap is
    /// `min(batch_size, (frame_bytes - header) / record_size)`, so whichever
    /// limit binds first triggers the flush. Default 4 KiB.
    pub frame_bytes: usize,
    /// Per-queue bound on in-flight frames between a rank pair. `None` is
    /// unbounded (no backpressure, the seed behavior); `Some(n)` makes a
    /// full queue stall the sender into the drain-and-retry slow path.
    pub channel_capacity: Option<usize>,
    /// CRC-frame every shipped frame and run the ACK/NACK/retransmit
    /// machinery (see the module docs). On by default; turning it off
    /// removes the trailer and the retransmit buffer (the measured-overhead
    /// baseline), and is rejected when the world's fault plan can corrupt
    /// or drop frames — nothing else could repair them.
    pub integrity: bool,
}

/// Default per-queue frame capacity: deep enough that healthy traversals
/// never stall, shallow enough that a stuck receiver backpressures its
/// senders instead of buffering without limit.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 1024;

impl Default for MailboxConfig {
    fn default() -> Self {
        Self {
            topology: TopologyKind::Direct,
            batch_size: 64,
            frame_bytes: 4096,
            channel_capacity: Some(DEFAULT_CHANNEL_CAPACITY),
            integrity: true,
        }
    }
}

impl MailboxConfig {
    pub fn with_topology(topology: TopologyKind) -> Self {
        Self { topology, ..Self::default() }
    }

    pub fn with_frame_bytes(mut self, bytes: usize) -> Self {
        self.frame_bytes = bytes;
        self
    }

    pub fn with_channel_capacity(mut self, capacity: Option<usize>) -> Self {
        self.channel_capacity = capacity;
        self
    }
}

/// ACK/NACK control messages of the integrity layer. They travel on an
/// unfaulted, unbounded, FIFO reserved-tag channel
/// ([`crate::registry::INTEGRITY_TAG_BASE`] + the mailbox's tag) — lose the
/// control plane too and no retransmission scheme could terminate.
#[derive(Clone, Copy, Debug)]
enum Control {
    /// Cumulative acknowledgement: every frame with `seq < hi` sent to the
    /// acking rank has been verified and delivered, so the sender may prune
    /// its retransmit buffer below `hi`.
    Ack(u64),
    /// The receiver discarded (or never saw) frame `seq`; the sender must
    /// re-ship its buffered copy.
    Nack(u64),
}

/// Send a cumulative ACK after this many verified deliveries from one
/// source; deliveries below the threshold are covered by a lazy ACK a few
/// polls later, so tails are acknowledged promptly and retransmit buffers
/// stay small.
const ACK_EVERY_FRAMES: u64 = 32;
/// Polls after a delivery before the lazy cumulative ACK fires.
const ACK_LAZY_TICKS: u64 = 16;
/// Polls a sequence gap may persist before its first NACK: reordered
/// frames usually close gaps on their own, and an over-eager NACK only
/// costs a redundant retransmit (the window absorbs it).
const NACK_GRACE_TICKS: u64 = 64;
/// Sender-side retransmit timeout, in polls: how long an unacknowledged
/// frame may linger before being re-shipped unprompted. Generous because a
/// spurious re-ship is harmless but noisy — the receiver usually ACKs far
/// sooner.
const RTO_TICKS: u64 = 1024;
/// Back-off cap for both repair timers (each doubles up to this).
const BACKOFF_CAP_TICKS: u64 = 1 << 16;
/// Repair attempts before a frame is declared unrecoverable. Every attempt
/// draws an independent loss verdict, so reaching this bound under any
/// plausible loss rate means the machinery itself is broken.
const MAX_REPAIR_ATTEMPTS: u32 = 64;

/// Per-source receive window: sequence numbers below `hi` are
/// verified-and-delivered, `ahead` holds verified numbers past a gap. Same
/// compaction scheme as the transport fault buffer's dedup window, but
/// advanced only *after* CRC verification — a corrupt copy must never mark
/// its number delivered, or the retransmitted repair would be dropped as a
/// duplicate.
#[derive(Default)]
struct RecvWindow {
    hi: u64,
    ahead: HashSet<u64>,
    /// One past the highest sequence number observed (delivered or not —
    /// a discarded corrupt frame still proves its number exists).
    max_seen: u64,
    /// The cumulative point last advertised to the source.
    acked_hi: u64,
    delivered_since_ack: u64,
    /// Tick when the lazy cumulative ACK fires.
    ack_due: Option<u64>,
    /// Tick when the lowest missing number gets (re)NACKed.
    nack_due: Option<u64>,
    nack_backoff: u64,
    nack_attempts: u32,
}

impl RecvWindow {
    /// Record the verified delivery of `seq`; false if already delivered
    /// (this copy is redundant).
    fn first_delivery(&mut self, seq: u64) -> bool {
        self.max_seen = self.max_seen.max(seq + 1);
        if seq < self.hi || self.ahead.contains(&seq) {
            return false;
        }
        self.ahead.insert(seq);
        let before = self.hi;
        while self.ahead.remove(&self.hi) {
            self.hi += 1;
        }
        if self.hi != before {
            // progress: whatever gap remains is a fresh one, give it a
            // fresh grace period
            self.nack_due = None;
            self.nack_backoff = 0;
            self.nack_attempts = 0;
        }
        true
    }

    /// True while at least one sequence number below `max_seen` is missing.
    #[inline]
    fn gap(&self) -> bool {
        self.hi < self.max_seen
    }

    /// Note that a cumulative ACK for the current `hi` is being sent;
    /// returns the value to advertise.
    fn note_acked(&mut self) -> u64 {
        self.acked_hi = self.hi;
        self.delivered_since_ack = 0;
        self.ack_due = None;
        self.hi
    }
}

/// Per-destination retransmit buffer: pool-backed copies of the sealed
/// frames not yet covered by a cumulative ACK. A hop's wire sequence numbers
/// are consecutive (duplicates and retransmits reuse theirs), so the copy of
/// `seq` sits at index `seq - base`.
#[derive(Default)]
struct SendBuffer {
    unacked: VecDeque<Vec<u8>>,
    /// Sequence number of `unacked[0]`.
    base: u64,
    /// Tick when the oldest unacknowledged frame is re-shipped unprompted.
    rto_due: Option<u64>,
    rto_backoff: u64,
    rto_attempts: u32,
}

/// State of the mailbox integrity layer (present when
/// [`MailboxConfig::integrity`] is on).
struct Integrity {
    control: Transport<Control>,
    windows: Vec<RecvWindow>,
    sends: Vec<SendBuffer>,
    /// Service clock: one tick per poll (and per backpressure retry).
    tick: u64,
    /// Frame arrival counter — the corruption/loss injection nonce, so a
    /// retransmitted copy draws a fresh verdict and recovery converges.
    arrivals: u64,
    /// True when the world's fault plan can corrupt or drop frames. The
    /// repair machinery (NACK timers, RTO) runs only then, so loss-free
    /// runs — including the fault-free baselines the chaos sweeps compare
    /// against — never emit spurious repair traffic.
    repair: bool,
}

/// Aggregating, optionally routed, byte-framed mailbox for payload type `M`.
pub struct Mailbox<M: Send + WireCodec + 'static> {
    transport: Transport<Frame>,
    topo: Box<dyn Topology>,
    /// Records per frame before a flush (both limits folded in).
    cap_records: usize,
    /// Bytes per record on the wire: 4-byte destination prefix + payload.
    record_size: usize,
    decode_ctx: M::DecodeCtx,
    /// Frame under construction per next-hop rank (empty = none started).
    out: Vec<Vec<u8>>,
    /// Record count of each frame under construction.
    out_counts: Vec<u32>,
    /// Total payloads currently waiting in `out`.
    pending_out: usize,
    /// Loopback queue for self-sends.
    local: VecDeque<M>,
    /// Frames drained off our receiver while waiting for channel space
    /// (already CRC-verified and windowed when the integrity layer is on).
    inbox: VecDeque<Vec<u8>>,
    integrity: Option<Integrity>,
    pool: FramePool,
    /// Running end-to-end payload and byte-level counters; [`Self::stats`]
    /// adds the frame pool's two.
    counters: MailboxStatsSnapshot,
}

impl<M: Send + WireCodec + 'static> Mailbox<M> {
    /// Open the mailbox on channel `tag` with the given config. Collective:
    /// all ranks must open the same `(M, tag)` mailbox. For payload types
    /// whose [`WireCodec::DecodeCtx`] is not `Default`, use
    /// [`Mailbox::open_with`].
    pub fn open(ctx: &RankCtx, tag: u64, cfg: MailboxConfig) -> Self
    where
        M::DecodeCtx: Default,
    {
        Self::open_with(ctx, tag, cfg, M::DecodeCtx::default())
    }

    /// Open the mailbox supplying the decode context used to reconstruct
    /// payloads from their wire bytes (e.g. a rank-replicated subset table).
    pub fn open_with(
        ctx: &RankCtx,
        tag: u64,
        cfg: MailboxConfig,
        decode_ctx: M::DecodeCtx,
    ) -> Self {
        let transport = ctx.channel_with_capacity::<Frame>(tag, cfg.channel_capacity);
        let p = ctx.size();
        let record_size = RECORD_DST_BYTES + M::WIRE_SIZE;
        let frame_overhead = FRAME_HEADER_BYTES + if cfg.integrity { FRAME_CRC_BYTES } else { 0 };
        let by_bytes = cfg.frame_bytes.saturating_sub(frame_overhead) / record_size;
        let cap_records = cfg.batch_size.max(1).min(by_bytes.max(1));
        let frame_cap = frame_overhead + cap_records * record_size;
        let repair = transport.fault_plan().is_some_and(|plan| plan.config().loses_frames());
        assert!(
            cfg.integrity || !repair,
            "the fault plan corrupts or drops frames: MailboxConfig::integrity must stay \
             enabled, nothing else can repair them"
        );
        if repair {
            // The integrity window dedups by (src, seq) *after* CRC
            // verification; the transport-level window would mark a corrupt
            // copy delivered and silently swallow its retransmission.
            transport.disable_fault_dedup();
        }
        let integrity = cfg.integrity.then(|| Integrity {
            control: ctx.channel_internal::<Control>(crate::registry::INTEGRITY_TAG_BASE + tag),
            windows: (0..p).map(|_| RecvWindow::default()).collect(),
            sends: (0..p).map(|_| SendBuffer::default()).collect(),
            tick: 0,
            arrivals: 0,
            repair,
        });
        Self {
            transport,
            topo: cfg.topology.build(p),
            cap_records,
            record_size,
            decode_ctx,
            out: (0..p).map(|_| Vec::new()).collect(),
            out_counts: vec![0; p],
            pending_out: 0,
            local: VecDeque::new(),
            inbox: VecDeque::new(),
            integrity,
            // a rank builds at most one frame per hop, keeps a few spares
            // for receive churn, and gets back up to ACK_EVERY_FRAMES
            // retained copies per hop in one cumulative ACK
            pool: FramePool::new(frame_cap, 2 * p + 8 + p * ACK_EVERY_FRAMES as usize),
            counters: MailboxStatsSnapshot {
                frame_capacity_records: cap_records as u64,
                ..MailboxStatsSnapshot::default()
            },
        }
    }

    #[inline]
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    #[inline]
    pub fn ranks(&self) -> usize {
        self.transport.ranks()
    }

    /// Records per frame before a flush triggers (the fill-ratio
    /// denominator).
    #[inline]
    pub fn frame_capacity_records(&self) -> usize {
        self.cap_records
    }

    /// Queue `msg` for delivery to `dst` (paper: `mb.send(rank, data)`).
    pub fn send(&mut self, dst: usize, msg: M) {
        self.counters.sent += 1;
        if dst == self.rank() {
            // Local delivery bypasses the network, like MPI self-sends the
            // paper short-circuits.
            self.local.push_back(msg);
            return;
        }
        let hop = self.route_toward(dst);
        self.begin_record(hop, dst);
        let buf = &mut self.out[hop];
        let start = buf.len();
        buf.resize(start + M::WIRE_SIZE, 0);
        msg.encode(&mut buf[start..]);
        self.end_record(hop);
    }

    /// Drain a worker's staged sends through the normal [`Mailbox::send`]
    /// path, in staging order. Every framing, CRC, sequencing, loopback and
    /// counter behavior is exactly that of the equivalent direct `send`
    /// calls — shards only *defer* sends, they never bypass the wire path.
    pub fn absorb(&mut self, shard: &mut SendShard<M>) {
        for (dst, msg) in shard.buf.drain(..) {
            self.send(dst as usize, msg);
        }
    }

    /// Re-buffer a transit record toward `dst` by raw byte copy — transit
    /// hops never decode payloads.
    fn buffer_raw(&mut self, dst: usize, payload: &[u8]) {
        let hop = self.route_toward(dst);
        self.begin_record(hop, dst);
        self.out[hop].extend_from_slice(payload);
        self.end_record(hop);
    }

    #[inline]
    fn route_toward(&self, dst: usize) -> usize {
        let hop = self.topo.route(self.rank(), dst);
        debug_assert_ne!(hop, self.rank(), "topology routed a remote message to self");
        hop
    }

    /// Start a record in hop's frame: lazily init the frame, write the
    /// destination prefix.
    fn begin_record(&mut self, hop: usize, dst: usize) {
        if self.out[hop].is_empty() {
            let mut buf = self.pool.get();
            frame_init(&mut buf, self.record_size as u32);
            self.out[hop] = buf;
        }
        self.out[hop].extend_from_slice(&(dst as u32).to_le_bytes());
    }

    /// Close a record: bump counts and flush the frame if it is full.
    fn end_record(&mut self, hop: usize) {
        self.out_counts[hop] += 1;
        self.pending_out += 1;
        if self.out_counts[hop] as usize >= self.cap_records {
            self.flush_hop(hop);
        }
    }

    fn flush_hop(&mut self, hop: usize) {
        let records = self.out_counts[hop];
        if records == 0 {
            return;
        }
        let mut buf = std::mem::take(&mut self.out[hop]);
        self.out_counts[hop] = 0;
        frame_set_count(&mut buf, records);
        if self.integrity.is_some() {
            frame_seal(&mut buf);
        }
        self.pending_out -= records as usize;
        let bytes = buf.len() as u64;
        self.counters.frames_sent += 1;
        self.counters.bytes_sent += bytes;
        self.counters.records_sent += records as u64;
        // fill bucket b covers (b/8, (b+1)/8] of capacity
        let bucket = ((records as usize * 8).saturating_sub(1) / self.cap_records).min(7);
        self.counters.frame_fill_hist[bucket] += 1;
        self.ship(hop, Frame { buf }, records as u64, bytes);
    }

    /// Hand one finalized frame to the transport, running the backpressure
    /// slow path if the bounded channel is full: count the stall, drain our
    /// own receiver into the inbox (a blocked sender must keep consuming so
    /// the world always makes progress), check for poison, retry.
    ///
    /// Under fault injection the plan may ask for this frame to be shipped
    /// twice: the copy reuses the original's sequence number and the
    /// receiver's dedup window drops whichever lands second. The decision
    /// keys on the sequence number the send will carry, so it is stable
    /// across backpressure retries.
    fn ship(&mut self, hop: usize, frame: Frame, records: u64, bytes: u64) {
        let duplicate = self
            .transport
            .wants_duplicate(hop)
            .then(|| Frame { buf: self.pool.copy_of(&frame.buf) });
        // the integrity layer holds a copy of the sealed frame until the
        // receiver's cumulative ACK covers its sequence number
        let retain = self.integrity.is_some().then(|| self.pool.copy_of(&frame.buf));
        let mut frame = frame;
        loop {
            match self.transport.try_send_counted(hop, frame, records, bytes) {
                Ok(()) => {
                    if let Some(buf) = retain {
                        let seq = self.transport.peek_seq(hop) - 1;
                        let integ = self.integrity.as_mut().unwrap();
                        let sb = &mut integ.sends[hop];
                        if sb.unacked.is_empty() {
                            sb.rto_due = Some(integ.tick + RTO_TICKS);
                            sb.base = seq;
                        }
                        debug_assert_eq!(seq, sb.base + sb.unacked.len() as u64);
                        sb.unacked.push_back(buf);
                    }
                    if let Some(copy) = duplicate {
                        self.transport.send_duplicate(hop, copy);
                    }
                    return;
                }
                Err(TrySendError::Full(f)) => {
                    self.counters.backpressure_stalls += 1;
                    // servicing ACK/NACK while blocked keeps repair live:
                    // the peer we are waiting on may itself be waiting for
                    // one of our retransmissions
                    self.service_integrity();
                    let mut drained = false;
                    while let Some(buf) = self.recv_verified() {
                        self.inbox.push_back(buf);
                        drained = true;
                    }
                    if !drained {
                        self.transport.check_poison();
                        std::thread::yield_now();
                    }
                    frame = f;
                }
                Err(TrySendError::Disconnected(f)) => {
                    // world shutting down: delivery no longer matters
                    self.pool.put(f.buf);
                    return;
                }
            }
        }
    }

    /// Flush every partially-filled aggregation frame.
    pub fn flush(&mut self) {
        for hop in 0..self.out.len() {
            self.flush_hop(hop);
        }
    }

    /// Drain arrived payloads into `out`, forwarding transit records toward
    /// their destinations. Returns the number of payloads delivered locally.
    ///
    /// Must be called regularly even by "idle" ranks — under a routed
    /// topology every rank is also a router.
    pub fn poll(&mut self, out: &mut Vec<M>) -> usize {
        self.service_integrity();
        let mut delivered = 0;
        while let Some(m) = self.local.pop_front() {
            self.counters.received += 1;
            out.push(m);
            delivered += 1;
        }
        // frames drained during a backpressure stall are processed first
        while let Some(buf) = self.inbox.pop_front() {
            delivered += self.process_frame(buf, out);
        }
        while let Some(buf) = self.recv_verified() {
            delivered += self.process_frame(buf, out);
        }
        delivered
    }

    /// Pull the next *deliverable* frame off the transport. Under the
    /// integrity layer this is where injected corruption and loss are
    /// applied (receive side, nonce-keyed), the CRC verified and stripped,
    /// corrupt frames NACKed, and redundant copies — fault duplicates or
    /// crossed retransmissions — dropped by the per-source window. Without
    /// the layer it is a plain receive.
    fn recv_verified(&mut self) -> Option<Vec<u8>> {
        loop {
            let w = self.transport.try_recv_wire()?;
            let (src, seq) = (w.src as usize, w.seq);
            let mut buf = w.msg.buf;
            let Some(integ) = self.integrity.as_mut() else {
                return Some(buf);
            };
            let me = self.transport.rank();
            let nonce = integ.arrivals;
            integ.arrivals += 1;
            if integ.repair {
                let plan = self.transport.fault_plan().expect("repair implies a fault plan");
                let tag = self.transport.tag();
                if plan.drop_frame(tag, src, me, seq, nonce) {
                    // injected loss: the frame vanishes, but its number is
                    // still known missing so gap repair can reclaim it
                    self.transport.stats().bump(Event::FaultDrop, src, me);
                    let win = &mut integ.windows[src];
                    win.max_seen = win.max_seen.max(seq + 1);
                    self.pool.put(buf);
                    continue;
                }
                if let Some(h) = plan.corrupt_draw(tag, src, me, seq, nonce) {
                    let bit = (h % (buf.len() as u64 * 8)) as usize;
                    buf[bit / 8] ^= 1 << (bit % 8);
                    self.transport.stats().bump(Event::FaultCorrupt, src, me);
                }
            }
            if !frame_verify_and_strip(&mut buf) {
                self.transport.stats().bump(Event::CorruptDetected, src, me);
                let win = &mut integ.windows[src];
                win.max_seen = win.max_seen.max(seq + 1);
                // NACK unless some copy of this number already made it
                // through (a corrupted duplicate needs no repair)
                if seq >= win.hi && !win.ahead.contains(&seq) {
                    integ.control.send(src, Control::Nack(seq));
                    self.transport.stats().bump(Event::Nack, src, me);
                }
                self.pool.put(buf);
                continue;
            }
            let win = &mut integ.windows[src];
            if !win.first_delivery(seq) {
                // redundant copy. A retransmit of an already-delivered
                // frame usually means our ACK has not reached the sender
                // yet, so re-advertise the cumulative point immediately.
                if self.transport.fault_plan().is_some() {
                    self.transport.stats().bump(Event::FaultDedup, src, me);
                }
                integ.control.send(src, Control::Ack(win.note_acked()));
                self.pool.put(buf);
                continue;
            }
            win.delivered_since_ack += 1;
            if win.delivered_since_ack >= ACK_EVERY_FRAMES {
                integ.control.send(src, Control::Ack(win.note_acked()));
            } else if win.ack_due.is_none() {
                win.ack_due = Some(integ.tick + ACK_LAZY_TICKS);
            }
            return Some(buf);
        }
    }

    /// One tick of the integrity layer's service clock: drain the ACK/NACK
    /// control channel (pruning retransmit buffers, re-shipping NACKed
    /// frames), fire matured lazy ACKs, NACK persistent sequence gaps with
    /// exponential back-off, and re-ship unacknowledged tails past their
    /// retransmit timeout. No-op when the layer is off.
    fn service_integrity(&mut self) {
        let Some(integ) = self.integrity.as_mut() else { return };
        integ.tick += 1;
        let tick = integ.tick;
        let me = self.transport.rank();
        // control plane first: ACKs free buffer space, NACKs are urgent
        while let Some((peer, ctrl)) = integ.control.try_recv() {
            match ctrl {
                Control::Ack(hi) => {
                    let sb = &mut integ.sends[peer];
                    let before = sb.unacked.len();
                    while sb.base < hi {
                        let Some(buf) = sb.unacked.pop_front() else { break };
                        self.pool.put(buf);
                        sb.base += 1;
                    }
                    if sb.unacked.len() != before {
                        // progress: the tail timer restarts from scratch
                        sb.rto_backoff = 0;
                        sb.rto_attempts = 0;
                        sb.rto_due = (!sb.unacked.is_empty()).then(|| tick + RTO_TICKS);
                    }
                }
                Control::Nack(seq) => {
                    // a stale NACK (number already pruned by a later ACK)
                    // is ignored — the receiver got a copy after all
                    let sb = &integ.sends[peer];
                    let held = seq.checked_sub(sb.base).and_then(|i| sb.unacked.get(i as usize));
                    if let Some(buf) = held {
                        let copy = Frame { buf: self.pool.copy_of(buf) };
                        self.transport.send_retransmit(peer, seq, copy);
                    }
                }
            }
        }
        for (src, win) in integ.windows.iter_mut().enumerate() {
            if win.ack_due.is_some_and(|due| tick >= due) {
                win.ack_due = None;
                if win.hi > win.acked_hi {
                    integ.control.send(src, Control::Ack(win.note_acked()));
                }
            }
            if !integ.repair || !win.gap() {
                continue;
            }
            match win.nack_due {
                None => win.nack_due = Some(tick + NACK_GRACE_TICKS),
                Some(due) if tick >= due => {
                    assert!(
                        win.nack_attempts < MAX_REPAIR_ATTEMPTS,
                        "rank {me}: frame seq {} from rank {src} unrecoverable after {} NACKs",
                        win.hi,
                        win.nack_attempts,
                    );
                    integ.control.send(src, Control::Nack(win.hi));
                    self.transport.stats().bump(Event::Nack, src, me);
                    win.nack_attempts += 1;
                    win.nack_backoff =
                        (win.nack_backoff.max(NACK_GRACE_TICKS) * 2).min(BACKOFF_CAP_TICKS);
                    win.nack_due = Some(tick + win.nack_backoff);
                }
                _ => {}
            }
        }
        if integ.repair {
            for (dst, sb) in integ.sends.iter_mut().enumerate() {
                if sb.unacked.is_empty() {
                    continue;
                }
                match sb.rto_due {
                    None => sb.rto_due = Some(tick + RTO_TICKS),
                    Some(due) if tick >= due => {
                        assert!(
                            sb.rto_attempts < MAX_REPAIR_ATTEMPTS,
                            "rank {me}: frame to rank {dst} unacknowledged after {} timeouts",
                            sb.rto_attempts,
                        );
                        let copy = Frame { buf: self.pool.copy_of(&sb.unacked[0]) };
                        self.transport.send_retransmit(dst, sb.base, copy);
                        sb.rto_attempts += 1;
                        sb.rto_backoff = (sb.rto_backoff.max(RTO_TICKS) * 2).min(BACKOFF_CAP_TICKS);
                        sb.rto_due = Some(tick + sb.rto_backoff);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Unpack one received frame: deliver records addressed here, re-buffer
    /// transit records, recycle the buffer.
    fn process_frame(&mut self, buf: Vec<u8>, out: &mut Vec<M>) -> usize {
        self.counters.frames_received += 1;
        // the CRC trailer was verified and stripped on receive; count it
        // here so wire-volume conservation (bytes sent == bytes received)
        // still holds
        let crc = if self.integrity.is_some() { FRAME_CRC_BYTES as u64 } else { 0 };
        self.counters.bytes_received += buf.len() as u64 + crc;
        debug_assert_eq!(frame_record_size(&buf) as usize, self.record_size);
        let count = frame_record_count(&buf) as usize;
        let me = self.rank() as u32;
        let mut delivered = 0;
        for r in 0..count {
            let off = FRAME_HEADER_BYTES + r * self.record_size;
            let dst = u32::from_le_bytes(buf[off..off + RECORD_DST_BYTES].try_into().unwrap());
            let payload = &buf[off + RECORD_DST_BYTES..off + self.record_size];
            if dst == me {
                self.counters.received += 1;
                out.push(M::decode(payload, &self.decode_ctx));
                delivered += 1;
            } else {
                self.counters.transit_forwarded += 1;
                self.buffer_raw(dst as usize, payload);
            }
        }
        self.pool.put(buf);
        delivered
    }

    /// Payloads accepted by `send` on this rank (end-to-end counter).
    #[inline]
    pub fn sent_count(&self) -> u64 {
        self.counters.sent
    }

    /// Payloads delivered to this rank by `poll` (end-to-end counter).
    #[inline]
    pub fn received_count(&self) -> u64 {
        self.counters.received
    }

    /// Payloads waiting in this rank's aggregation frames (origin or
    /// transit). Zero is a precondition for reporting idle to the
    /// quiescence detector.
    #[inline]
    pub fn pending_out(&self) -> usize {
        self.pending_out
    }

    /// Local snapshot of mailbox counters.
    pub fn stats(&self) -> MailboxStatsSnapshot {
        MailboxStatsSnapshot {
            pool_allocated: self.pool.allocated(),
            pool_reused: self.pool.reused(),
            ..self.counters
        }
    }

    /// World-wide transport traffic matrix (frames, payload items, bytes).
    pub fn transport_stats(&self) -> crate::stats::ChannelStatsSnapshot {
        self.transport.stats_snapshot()
    }

    /// The wire sequence number the next frame to each destination rank
    /// will carry — the "seq-number table" a checkpoint records. Sequence
    /// numbers are never rewound on restore (the receiver-side dedup
    /// window must stay gap-free), so a restored table is only used to
    /// assert monotonicity, never re-applied.
    pub fn wire_seqs(&self) -> Vec<u64> {
        (0..self.ranks()).map(|d| self.transport.peek_seq(d)).collect()
    }

    /// World-shared live statistics of this mailbox's channel set, for
    /// bumping per-rank events (checkpoint, crash, restore, cancel, abort)
    /// against the traversal's own channel (see
    /// [`crate::stats::ChannelStats::bump`]).
    pub fn channel_stats(&self) -> &crate::stats::ChannelStats {
        self.transport.stats()
    }
}

/// A per-worker staging buffer for messages produced off the mailbox's
/// owning thread.
///
/// The mailbox itself is single-threaded by design — its framing, CRC
/// sealing, sequence numbering and retransmit buffers all assume one
/// writer. When a rank fans work out to a worker pool (DESIGN.md §11),
/// each worker stages its `(dst, msg)` pairs in its own `SendShard` and
/// the coordinator later drains them through [`Mailbox::absorb`] (or a
/// caller-side filter over [`SendShard::drain`]), preserving the exact
/// wire path and counter semantics of direct sends.
pub struct SendShard<M> {
    buf: Vec<(u32, M)>,
}

impl<M> Default for SendShard<M> {
    fn default() -> Self {
        SendShard { buf: Vec::new() }
    }
}

impl<M> SendShard<M> {
    /// Stage `msg` for later delivery to `dst`.
    #[inline]
    pub fn send(&mut self, dst: usize, msg: M) {
        self.buf.push((dst as u32, msg));
    }

    /// Number of staged messages.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drain the staged `(dst, msg)` pairs in staging order.
    pub fn drain(&mut self) -> impl Iterator<Item = (usize, M)> + '_ {
        self.buf.drain(..).map(|(d, m)| (d as usize, m))
    }
}

/// Plain-data snapshot of one rank's mailbox counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct MailboxStatsSnapshot {
    pub sent: u64,
    pub received: u64,
    /// Payloads this rank forwarded as an intermediate router.
    pub transit_forwarded: u64,
    /// Frames shipped / unpacked by this rank.
    pub frames_sent: u64,
    pub frames_received: u64,
    /// Wire bytes shipped / unpacked (headers included).
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Records packed into shipped frames (origin + transit).
    pub records_sent: u64,
    /// Times a send found its bounded channel full and ran the slow path.
    pub backpressure_stalls: u64,
    /// The fill-ratio denominator: records per frame before a flush.
    pub frame_capacity_records: u64,
    /// Histogram of shipped-frame fill ratios; bucket `b` covers
    /// `(b/8, (b+1)/8]` of `frame_capacity_records`.
    pub frame_fill_hist: [u64; 8],
    /// Frame buffers allocated from the system / served from the free list.
    pub pool_allocated: u64,
    pub pool_reused: u64,
}

impl MailboxStatsSnapshot {
    /// Mean fill ratio of shipped frames in `(0, 1]` (0.0 if none shipped).
    pub fn mean_frame_fill(&self) -> f64 {
        if self.frames_sent == 0 || self.frame_capacity_records == 0 {
            0.0
        } else {
            self.records_sent as f64 / (self.frames_sent * self.frame_capacity_records) as f64
        }
    }

    /// Merge another rank's counters into this one (histogram included).
    /// `frame_capacity_records` must match, as it does for mailboxes opened
    /// with the same config.
    pub fn merge(&mut self, other: &MailboxStatsSnapshot) {
        self.sent += other.sent;
        self.received += other.received;
        self.transit_forwarded += other.transit_forwarded;
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.records_sent += other.records_sent;
        self.backpressure_stalls += other.backpressure_stalls;
        self.frame_capacity_records = self.frame_capacity_records.max(other.frame_capacity_records);
        for (a, b) in self.frame_fill_hist.iter_mut().zip(other.frame_fill_hist.iter()) {
            *a += b;
        }
        self.pool_allocated += other.pool_allocated;
        self.pool_reused += other.pool_reused;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::CommWorld;

    /// Every rank sends `msgs_each` tagged payloads to every rank (incl.
    /// itself); polls until the quiescence detector confirms global
    /// delivery. Blocking collectives must NOT be used here: under a routed
    /// topology every rank is also a router, and a rank parked inside a
    /// blocking collective stops forwarding other ranks' transit frames.
    /// Returns per-rank stats plus the transport matrix.
    fn all_to_all_exercise(
        p: usize,
        cfg: MailboxConfig,
        msgs_each: usize,
    ) -> Vec<(MailboxStatsSnapshot, crate::stats::ChannelStatsSnapshot, u64)> {
        all_to_all_faulted(p, cfg, msgs_each, None)
    }

    /// Like [`all_to_all_exercise`] but under an optional fault plan.
    fn all_to_all_faulted(
        p: usize,
        cfg: MailboxConfig,
        msgs_each: usize,
        faults: Option<crate::fault::FaultConfig>,
    ) -> Vec<(MailboxStatsSnapshot, crate::stats::ChannelStatsSnapshot, u64)> {
        CommWorld::run_with_faults(p, faults, |ctx| {
            let mut mb = Mailbox::<u64>::open(ctx, 1, cfg);
            let mut q = crate::termination::Quiescence::new(ctx, 1);
            for dst in 0..p {
                for i in 0..msgs_each {
                    mb.send(dst, (ctx.rank() * 1_000_000 + dst * 1000 + i) as u64);
                }
            }
            let expect = (p * msgs_each) as u64;
            let mut got = Vec::new();
            loop {
                if mb.poll(&mut got) == 0 {
                    // flush partially-filled origin/transit frames, exactly
                    // like the traversal loop does when idle
                    mb.flush();
                    let idle = mb.pending_out() == 0;
                    if q.poll(mb.sent_count(), mb.received_count(), idle) {
                        break;
                    }
                }
            }
            assert_eq!(mb.received_count(), expect, "rank {} missed payloads", ctx.rank());
            let checksum = got.iter().fold(0u64, |a, &m| a.wrapping_add(m));
            (mb.stats(), mb.transport_stats(), checksum)
        })
    }

    fn expected_checksum(p: usize, me: usize, msgs_each: usize) -> u64 {
        let mut sum = 0u64;
        for src in 0..p {
            for i in 0..msgs_each {
                sum = sum.wrapping_add((src * 1_000_000 + me * 1000 + i) as u64);
            }
        }
        sum
    }

    #[test]
    fn direct_delivers_everything() {
        let p = 4;
        let res = all_to_all_exercise(p, MailboxConfig::default(), 10);
        for (me, (st, _, sum)) in res.iter().enumerate() {
            assert_eq!(st.sent, (p * 10) as u64);
            assert_eq!(st.received, (p * 10) as u64);
            assert_eq!(st.transit_forwarded, 0);
            assert_eq!(*sum, expected_checksum(p, me, 10));
        }
    }

    #[test]
    fn routed2d_delivers_everything_and_forwards() {
        let p = 16;
        let cfg = MailboxConfig {
            topology: TopologyKind::Routed2D,
            batch_size: 4,
            ..MailboxConfig::default()
        };
        let res = all_to_all_exercise(p, cfg, 6);
        let mut total_forwarded = 0;
        for (me, (st, _, sum)) in res.iter().enumerate() {
            assert_eq!(st.received, (p * 6) as u64, "rank {me}");
            assert_eq!(*sum, expected_checksum(p, me, 6));
            total_forwarded += st.transit_forwarded;
        }
        assert!(total_forwarded > 0, "2D routing must use intermediate hops");
    }

    #[test]
    fn routed3d_delivers_everything() {
        let p = 8;
        let cfg = MailboxConfig {
            topology: TopologyKind::Routed3D,
            batch_size: 3,
            ..MailboxConfig::default()
        };
        let res = all_to_all_exercise(p, cfg, 5);
        for (me, (st, _, sum)) in res.iter().enumerate() {
            assert_eq!(st.received, (p * 5) as u64);
            assert_eq!(*sum, expected_checksum(p, me, 5));
        }
    }

    #[test]
    fn routed2d_uses_fewer_channels_than_direct() {
        let p = 16;
        let direct = all_to_all_exercise(p, MailboxConfig::default(), 4);
        let routed = all_to_all_exercise(
            p,
            MailboxConfig {
                topology: TopologyKind::Routed2D,
                batch_size: 2,
                ..MailboxConfig::default()
            },
            4,
        );
        let d = direct[0].1.max_channels_used();
        let r = routed[0].1.max_channels_used();
        assert_eq!(d, p - 1, "direct all-to-all opens p-1 channels");
        // 4x4 grid: at most 3 row + 3 column peers
        assert!(r <= 6, "2D routing should use O(sqrt p) channels, got {r}");
    }

    #[test]
    fn batching_aggregates_payloads() {
        let p = 4;
        let cfg = MailboxConfig {
            topology: TopologyKind::Direct,
            batch_size: 16,
            ..MailboxConfig::default()
        };
        let res = all_to_all_exercise(p, cfg, 32);
        let snap = &res[0].1;
        assert!(
            snap.aggregation_factor() >= 8.0,
            "expected strong aggregation, got {}",
            snap.aggregation_factor()
        );
    }

    #[test]
    fn byte_stats_match_frame_math() {
        // deterministic: all sends before any poll, Direct topology, so
        // every pair ships ceil(msgs/batch) frames of known size
        let p = 3;
        let msgs = 10usize;
        let batch = 4usize;
        let cfg = MailboxConfig {
            topology: TopologyKind::Direct,
            batch_size: batch,
            ..MailboxConfig::default()
        };
        let record = 4 + 8; // dst prefix + u64 payload
        let overhead = (FRAME_HEADER_BYTES + FRAME_CRC_BYTES) as u64; // integrity is on by default
        let res = all_to_all_exercise(p, cfg, msgs);
        for (me, (st, tr, _)) in res.iter().enumerate() {
            // per remote destination: 2 full frames of 4 + 1 frame of 2
            let frames_per_dst = msgs.div_ceil(batch) as u64;
            assert_eq!(st.frames_sent, frames_per_dst * (p as u64 - 1), "rank {me}");
            assert_eq!(st.records_sent, (msgs * (p - 1)) as u64);
            let expect_bytes =
                (p as u64 - 1) * (frames_per_dst * overhead + (msgs * record) as u64);
            assert_eq!(st.bytes_sent, expect_bytes, "rank {me}");
            assert_eq!(st.bytes_received, expect_bytes, "symmetric all-to-all");
            for dst in 0..p {
                if dst != me {
                    assert_eq!(tr.msgs_between(me, dst), frames_per_dst);
                    assert_eq!(
                        tr.bytes_between(me, dst),
                        frames_per_dst * overhead + (msgs * record) as u64
                    );
                }
            }
            // fill: 2 frames at 4/4 (bucket 7), 1 frame at 2/4 (bucket 3)
            assert_eq!(st.frame_fill_hist[7], 2 * (p as u64 - 1));
            assert_eq!(st.frame_fill_hist[3], p as u64 - 1);
            let fill = st.mean_frame_fill();
            assert!((fill - 10.0 / 12.0).abs() < 1e-12, "mean fill {fill}");
        }
    }

    #[test]
    fn frame_bytes_limit_binds_before_batch_size() {
        // frame_bytes 64: header 8 + records of 12 -> 4 records per frame
        // even though batch_size allows 64
        CommWorld::run(1, |ctx| {
            let cfg = MailboxConfig::default().with_frame_bytes(64);
            let mb = Mailbox::<u64>::open(ctx, 1, cfg);
            assert_eq!(mb.frame_capacity_records(), 4);
        });
    }

    #[test]
    fn pool_recycles_after_warmup() {
        // interleave send and poll the way a traversal loop does, so each
        // rank's received frames feed its future sends
        let rounds = 100u64;
        let res = CommWorld::run(2, |ctx| {
            let cfg = MailboxConfig { batch_size: 8, ..MailboxConfig::default() };
            let mut mb = Mailbox::<u64>::open(ctx, 1, cfg);
            let peer = 1 - ctx.rank();
            let mut out = Vec::new();
            for round in 0..rounds {
                for i in 0..8 {
                    mb.send(peer, round * 8 + i);
                }
                mb.flush();
                while mb.received_count() < (round + 1) * 8 {
                    mb.poll(&mut out);
                }
            }
            mb.stats()
        });
        for st in &res {
            assert!(
                st.pool_reused > st.pool_allocated,
                "steady state must recycle: allocated {} reused {}",
                st.pool_allocated,
                st.pool_reused
            );
        }
    }

    #[test]
    fn pool_stops_allocating_after_warmup_retained_copies_included() {
        // 10 000 frames each way on two ranks, integrity on. The warm-up is a
        // burst shipped without polling, so more retained copies are
        // outstanding than the lock-step rounds after it ever hold (those
        // are ACKed every ACK_EVERY_FRAMES deliveries); from then on every
        // frame and every retained copy must come off the free list.
        let frames = 10_000u64;
        let burst = 2 * ACK_EVERY_FRAMES;
        let res = CommWorld::run(2, |ctx| {
            let cfg = MailboxConfig { batch_size: 8, ..MailboxConfig::default() };
            let mut mb = Mailbox::<u64>::open(ctx, 1, cfg);
            let peer = 1 - ctx.rank();
            let mut out = Vec::new();
            for i in 0..burst * 8 {
                mb.send(peer, i);
            }
            while mb.received_count() < burst * 8 {
                mb.poll(&mut out);
            }
            let warm = mb.stats().pool_allocated;
            for round in burst..frames {
                for i in 0..8 {
                    mb.send(peer, round * 8 + i);
                }
                while mb.received_count() < (round + 1) * 8 {
                    mb.poll(&mut out);
                }
                out.clear();
            }
            (warm, mb.stats())
        });
        for (warm, st) in &res {
            assert_eq!(st.frames_sent, frames);
            assert!(*warm <= 2 * burst + 1, "a frame and its retained copy per burst frame");
            assert_eq!(st.pool_allocated, *warm, "steady state allocated frame buffers");
            assert!(st.pool_reused >= 2 * (frames - burst), "retained copies are pooled too");
        }
    }

    #[test]
    fn self_send_bypasses_network() {
        CommWorld::run(1, |ctx| {
            let mut mb = Mailbox::<u32>::open(ctx, 1, MailboxConfig::default());
            mb.send(0, 5);
            assert_eq!(mb.pending_out(), 0);
            let mut out = Vec::new();
            assert_eq!(mb.poll(&mut out), 1);
            assert_eq!(out, vec![5]);
            assert_eq!(mb.transport_stats().total_msgs(), 0);
            assert_eq!(mb.stats().bytes_sent, 0, "self-sends never hit the wire");
        });
    }

    #[test]
    fn pending_out_tracks_buffered_payloads() {
        CommWorld::run(2, |ctx| {
            let mut mb = Mailbox::<u32>::open(
                ctx,
                1,
                MailboxConfig {
                    topology: TopologyKind::Direct,
                    batch_size: 100,
                    ..MailboxConfig::default()
                },
            );
            if ctx.rank() == 0 {
                for i in 0..5 {
                    mb.send(1, i);
                }
                assert_eq!(mb.pending_out(), 5);
                mb.flush();
                assert_eq!(mb.pending_out(), 0);
            }
            ctx.barrier();
            if ctx.rank() == 1 {
                let mut out = Vec::new();
                while mb.received_count() < 5 {
                    mb.poll(&mut out);
                }
                assert_eq!(out, vec![0, 1, 2, 3, 4]);
            }
        });
    }

    #[test]
    fn capacity_one_ping_pong_terminates_with_stalls() {
        // the satellite scenario: two ranks, every frame channel holds ONE
        // frame, unaggregated sends. The exchange must terminate (the slow
        // path keeps draining) and must record stalls on at least one rank.
        let p = 2;
        let cfg = MailboxConfig {
            topology: TopologyKind::Direct,
            batch_size: 1,
            channel_capacity: Some(1),
            ..MailboxConfig::default()
        };
        let res = all_to_all_exercise(p, cfg, 300);
        let total_stalls: u64 = res.iter().map(|(st, _, _)| st.backpressure_stalls).sum();
        assert!(total_stalls > 0, "capacity 1 under 300 eager sends must stall");
        for (st, tr, _) in &res {
            assert_eq!(st.received, 600);
            assert_eq!(tr.count(Event::Stall), total_stalls, "shared matrix agrees");
        }
    }

    #[test]
    fn routed_ping_pong_with_tiny_capacity_terminates() {
        // same property through a routing topology: transit forwarding must
        // not deadlock against backpressure
        let p = 8;
        let cfg = MailboxConfig {
            topology: TopologyKind::Routed3D,
            batch_size: 2,
            channel_capacity: Some(1),
            ..MailboxConfig::default()
        };
        let res = all_to_all_exercise(p, cfg, 50);
        for (me, (st, _, sum)) in res.iter().enumerate() {
            assert_eq!(st.received, (p * 50) as u64);
            assert_eq!(*sum, expected_checksum(p, me, 50));
        }
    }

    #[test]
    fn integrity_off_uses_legacy_frame_math() {
        // the CRC-off baseline row: no trailer on the wire, byte counters
        // match the pre-integrity frame grammar exactly
        let p = 3;
        let msgs = 10usize;
        let batch = 4usize;
        let cfg = MailboxConfig {
            topology: TopologyKind::Direct,
            batch_size: batch,
            integrity: false,
            ..MailboxConfig::default()
        };
        let record = 4 + 8;
        let res = all_to_all_exercise(p, cfg, msgs);
        for (me, (st, tr, _)) in res.iter().enumerate() {
            let frames_per_dst = msgs.div_ceil(batch) as u64;
            let expect_bytes = (p as u64 - 1)
                * (frames_per_dst * FRAME_HEADER_BYTES as u64 + (msgs * record) as u64);
            assert_eq!(st.bytes_sent, expect_bytes, "rank {me}");
            assert_eq!(st.bytes_received, expect_bytes);
            assert_eq!(tr.count(Event::Retransmit), 0);
            assert_eq!(tr.count(Event::Nack), 0);
        }
    }

    #[test]
    fn corrupted_frames_are_detected_and_repaired() {
        use crate::fault::FaultConfig;
        let p = 2;
        let cfg = MailboxConfig { batch_size: 4, ..MailboxConfig::default() };
        let faults = FaultConfig::quiet(7).with_corrupt(300);
        let res = all_to_all_faulted(p, cfg, 200, Some(faults));
        for (me, (st, tr, sum)) in res.iter().enumerate() {
            assert_eq!(st.received, (p * 200) as u64, "rank {me}");
            assert_eq!(*sum, expected_checksum(p, me, 200));
            assert!(tr.count(Event::FaultCorrupt) > 0, "30% corruption must fire");
            assert_eq!(
                tr.count(Event::CorruptDetected),
                tr.count(Event::FaultCorrupt),
                "every injected flip must be caught by the CRC"
            );
            assert!(tr.count(Event::Nack) > 0);
            assert!(tr.count(Event::Retransmit) > 0, "corrupt frames must be re-shipped");
        }
    }

    #[test]
    fn dropped_frames_are_repaired() {
        use crate::fault::FaultConfig;
        let p = 2;
        let cfg = MailboxConfig { batch_size: 4, ..MailboxConfig::default() };
        let faults = FaultConfig::quiet(11).with_drop(300);
        let res = all_to_all_faulted(p, cfg, 200, Some(faults));
        for (me, (st, tr, sum)) in res.iter().enumerate() {
            assert_eq!(st.received, (p * 200) as u64, "rank {me}");
            assert_eq!(*sum, expected_checksum(p, me, 200));
            assert!(tr.count(Event::FaultDrop) > 0, "30% loss must fire");
            assert!(tr.count(Event::Retransmit) > 0, "lost frames must be re-shipped");
            assert_eq!(tr.count(Event::CorruptDetected), 0, "pure loss corrupts nothing");
        }
    }

    #[test]
    fn lossy_chaos_delivers_exactly_once_through_routing() {
        // the full gauntlet: delay + reorder + duplicate + stall + slow
        // ranks + corruption + loss, through a routed topology where every
        // rank is also a repairing router. Delivery must stay exactly-once.
        use crate::fault::FaultConfig;
        let p = 8;
        let cfg = MailboxConfig {
            topology: TopologyKind::Routed2D,
            batch_size: 3,
            ..MailboxConfig::default()
        };
        let res = all_to_all_faulted(p, cfg, 30, Some(FaultConfig::lossy(5)));
        let mut corrupts = 0;
        let mut drops = 0;
        for (me, (st, tr, sum)) in res.iter().enumerate() {
            assert_eq!(st.received, (p * 30) as u64, "rank {me}");
            assert_eq!(*sum, expected_checksum(p, me, 30), "rank {me} payloads differ");
            assert_eq!(tr.count(Event::CorruptDetected), tr.count(Event::FaultCorrupt));
            corrupts = tr.count(Event::FaultCorrupt);
            drops = tr.count(Event::FaultDrop);
        }
        assert!(corrupts + drops > 0, "lossy() must exercise the repair path");
    }

    #[test]
    #[should_panic(expected = "integrity")]
    fn loss_faults_require_integrity() {
        use crate::fault::FaultConfig;
        CommWorld::run_with_faults(1, Some(FaultConfig::lossy(3)), |ctx| {
            let cfg = MailboxConfig { integrity: false, ..MailboxConfig::default() };
            let _mb = Mailbox::<u64>::open(ctx, 1, cfg);
        });
    }

    /// A shard-staged all-to-all must be indistinguishable from direct
    /// sends: same deliveries, same end-to-end counters, same frame and
    /// byte totals (the absorb path reuses `send` verbatim, so framing and
    /// CRC behavior cannot drift).
    #[test]
    fn shard_absorb_matches_direct_sends() {
        let p = 4;
        let msgs_each = 25;
        let run = |staged: bool| {
            CommWorld::run(p, move |ctx| {
                let mut mb = Mailbox::<u64>::open(ctx, 1, MailboxConfig::default());
                let mut q = crate::termination::Quiescence::new(ctx, 1);
                let mut shard = SendShard::default();
                for dst in 0..p {
                    for i in 0..msgs_each {
                        let msg = (ctx.rank() * 1_000_000 + dst * 1000 + i) as u64;
                        if staged {
                            shard.send(dst, msg);
                        } else {
                            mb.send(dst, msg);
                        }
                    }
                }
                mb.absorb(&mut shard);
                assert!(shard.is_empty());
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
                got.sort_unstable();
                (mb.stats(), got)
            })
        };
        let direct = run(false);
        let staged = run(true);
        for (rank, ((ds, dg), (ss, sg))) in direct.iter().zip(staged.iter()).enumerate() {
            assert_eq!(dg, sg, "rank {rank}: staged delivery differs");
            assert_eq!(ds.sent, ss.sent, "rank {rank}");
            assert_eq!(ds.received, ss.received, "rank {rank}");
            assert_eq!(ds.frames_sent, ss.frames_sent, "rank {rank}");
            assert_eq!(ds.bytes_sent, ss.bytes_sent, "rank {rank}");
            assert_eq!(ds.records_sent, ss.records_sent, "rank {rank}");
        }
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let mut a = MailboxStatsSnapshot {
            frames_sent: 2,
            records_sent: 6,
            frame_capacity_records: 4,
            ..Default::default()
        };
        let b = MailboxStatsSnapshot {
            frames_sent: 1,
            records_sent: 4,
            frame_capacity_records: 4,
            backpressure_stalls: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.frames_sent, 3);
        assert_eq!(a.backpressure_stalls, 3);
        assert!((a.mean_frame_fill() - 10.0 / 12.0).abs() < 1e-12);
    }
}
