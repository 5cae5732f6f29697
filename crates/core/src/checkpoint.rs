//! Checkpointing a traversal: the per-rank state blob and its wire format.
//!
//! At a checkpoint cut (see `VisitorQueue::do_traversal_checkpointed`) each
//! rank freezes four things — the per-vertex algorithm state, the ghost
//! table contents, the queued visitors, and the mailbox's wire
//! sequence-number table — plus the queue's high-water counters, and
//! serializes them through the same [`WireCodec`] impls that put visitors
//! on the wire. The resulting blob goes to a
//! [`havoq_nvram::checkpoint::CheckpointStore`], which frames it with an
//! epoch header and commit marker; this module owns only the payload
//! layout:
//!
//! ```text
//! [ state count u64    | count × V::Data ]
//! [ ghost count u64    | count × (vertex u64, V::Data) ]
//! [ queued count u64   | count × (V, tiebreak u64) ]
//! [ seq count u64      | count × u64 ]
//! [ 6 × u64 high-water counters ]
//! ```
//!
//! Every section is length-prefixed and [`QueueCheckpoint::decode`]
//! verifies the buffer is consumed exactly, so truncated or padded blobs
//! are rejected even when the store-level checksum is not consulted; a
//! count larger than the bytes left could hold is rejected as truncated
//! before it sizes an allocation.

use havoq_comm::WireCodec;
use havoq_nvram::{BlockDevice, IoConfig, MemDevice, PageCache, PageCacheConfig};
use std::sync::Arc;

use havoq_nvram::checkpoint::CheckpointStore;

use crate::visitor::Visitor;

/// Knobs of a checkpointed traversal. `Copy` so it can ride inside the
/// per-algorithm config structs.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointSpec {
    /// Visitors a rank executes between checkpoint cuts before it votes
    /// for the next cut (the `--checkpoint-every` knob). The traversal
    /// also writes an epoch-0 checkpoint before executing anything, so a
    /// restore point always exists.
    pub every: u64,
    /// Page size of the per-rank checkpoint log's cache.
    pub page_size: usize,
    /// Cache capacity in pages; kept small so checkpoints actually spill
    /// to the device instead of parking in DRAM.
    pub cache_pages: usize,
    /// I/O engine for the checkpoint log; asynchronous by default so the
    /// blob write hands off to the background drain (the write-behind
    /// path PR 3 added) instead of stalling the traversal.
    pub io: IoConfig,
    /// Storage-corruption injection: after `(rank, epoch)` commits its
    /// blob (marker and all), one payload byte is flipped through the
    /// cache — silent corruption only the blob's own checksum can catch.
    /// A later restore walking past that epoch must fall back to the
    /// next-oldest intact one and count it in
    /// [`TraversalStats::restore_epoch_fallbacks`](crate::queue::TraversalStats).
    pub corrupt_committed: Option<(usize, u64)>,
}

impl Default for CheckpointSpec {
    fn default() -> Self {
        Self {
            every: 4096,
            page_size: 4096,
            cache_pages: 64,
            io: IoConfig::asynchronous(),
            corrupt_committed: None,
        }
    }
}

impl CheckpointSpec {
    pub fn with_every(mut self, every: u64) -> Self {
        self.every = every;
        self
    }

    /// Corrupt the committed blob of `(rank, epoch)` right after its
    /// commit marker lands (see `corrupt_committed`).
    pub fn with_corrupt_committed(mut self, rank: usize, epoch: u64) -> Self {
        self.corrupt_committed = Some((rank, epoch));
        self
    }

    /// Open one rank's checkpoint log as configured, at epoch 0.
    pub(crate) fn open_log(&self) -> CheckpointLog {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new());
        let cache = Arc::new(PageCache::new(
            dev,
            PageCacheConfig {
                page_size: self.page_size,
                capacity_pages: self.cache_pages,
                io: self.io,
                ..PageCacheConfig::default()
            },
        ));
        CheckpointLog { store: CheckpointStore::new(cache), epoch: 0, incarnation: 0 }
    }
}

/// One rank's checkpoint store and its position in the epoch/incarnation
/// protocol (see `VisitorQueue::checkpoint`): the next epoch to write, and
/// how many world rewinds this run has been through.
pub(crate) struct CheckpointLog {
    pub store: CheckpointStore,
    pub epoch: u64,
    pub incarnation: u64,
}

/// Why a state blob failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlobError {
    /// The buffer ended inside a section.
    Truncated,
    /// Bytes remained after the last section.
    TrailingBytes,
}

impl std::fmt::Display for BlobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Truncated => "checkpoint blob truncated mid-section",
            Self::TrailingBytes => "checkpoint blob has trailing bytes",
        })
    }
}

impl std::error::Error for BlobError {}

/// The queue's high-water counters, frozen at the cut and restored with
/// the state so a resumed run reports the logical progress of the work
/// that actually survives in its arrays.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Visitors queued on the rank so far: arrivals that passed `pre_visit`.
    pub arrival_seq: u64,
    pub visitors_executed: u64,
    pub visitors_pushed: u64,
    pub ghost_checked: u64,
    pub ghost_filtered: u64,
    pub replica_forwards: u64,
}

/// One rank's frozen traversal state — everything `do_traversal` needs to
/// resume from the cut as if the crash never happened.
pub struct QueueCheckpoint<V: Visitor + WireCodec> {
    /// Per-vertex algorithm state, indexed by local vertex index.
    pub state: Vec<V::Data>,
    /// Ghost slot contents — hub slots and occupied filter slots — sorted
    /// by vertex id.
    pub ghosts: Vec<(u64, V::Data)>,
    /// Parked frontier: the run queue's visitors in pop order, each with
    /// its tie-break — the vertex id, or its place in arrival order when
    /// the Section V-A locality order is ablated. Restore pushes them back
    /// in list order, which rebuilds every bucket's order.
    pub heap: Vec<(V, u64)>,
    /// Next wire sequence number per destination rank at the cut. Never
    /// re-applied on restore (rewinding sequence numbers would punch gaps
    /// into receiver dedup windows); recorded for monotonicity audits.
    pub wire_seqs: Vec<u64>,
    pub counters: QueueCounters,
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], BlobError> {
        if self.pos + n > self.buf.len() {
            return Err(BlobError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, BlobError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A section's record count, for records of `size` bytes: a count the
    /// remaining bytes cannot hold is a damaged blob, rejected before it
    /// sizes an allocation.
    fn count(&mut self, size: usize) -> Result<usize, BlobError> {
        let n = self.u64()?;
        let fits = (self.buf.len() - self.pos).checked_div(size).unwrap_or(usize::MAX);
        if n > fits as u64 {
            return Err(BlobError::Truncated);
        }
        Ok(n as usize)
    }
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append one fixed-size record to a blob.
pub(crate) fn put_record<T: WireCodec>(buf: &mut Vec<u8>, rec: &T) {
    let at = buf.len();
    buf.resize(at + T::WIRE_SIZE, 0);
    rec.encode(&mut buf[at..]);
}

impl<V: Visitor + WireCodec> QueueCheckpoint<V>
where
    V::Data: WireCodec<DecodeCtx = ()>,
{
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(
            8 * 4
                + self.state.len() * <V::Data as WireCodec>::WIRE_SIZE
                + self.ghosts.len() * (8 + <V::Data as WireCodec>::WIRE_SIZE)
                + self.heap.len() * (V::WIRE_SIZE + 8)
                + self.wire_seqs.len() * 8
                + 6 * 8,
        );
        put_u64(&mut buf, self.state.len() as u64);
        for d in &self.state {
            put_record(&mut buf, d);
        }
        put_u64(&mut buf, self.ghosts.len() as u64);
        for (v, d) in &self.ghosts {
            put_u64(&mut buf, *v);
            put_record(&mut buf, d);
        }
        put_u64(&mut buf, self.heap.len() as u64);
        for (vis, tie) in &self.heap {
            put_record(&mut buf, vis);
            put_u64(&mut buf, *tie);
        }
        put_u64(&mut buf, self.wire_seqs.len() as u64);
        for s in &self.wire_seqs {
            put_u64(&mut buf, *s);
        }
        let c = &self.counters;
        for v in [
            c.arrival_seq,
            c.visitors_executed,
            c.visitors_pushed,
            c.ghost_checked,
            c.ghost_filtered,
            c.replica_forwards,
        ] {
            put_u64(&mut buf, v);
        }
        buf
    }

    /// Decode a blob, consuming the buffer exactly. `ctx` is the visitor
    /// wire decode context (the same one the traversal's mailbox uses).
    pub fn decode(bytes: &[u8], ctx: &V::DecodeCtx) -> Result<Self, BlobError> {
        let data_size = <V::Data as WireCodec>::WIRE_SIZE;
        let mut r = Reader { buf: bytes, pos: 0 };
        let n = r.count(data_size)?;
        let mut state = Vec::with_capacity(n);
        for _ in 0..n {
            state.push(<V::Data>::decode(r.take(data_size)?, &()));
        }
        let n = r.count(8 + data_size)?;
        let mut ghosts = Vec::with_capacity(n);
        for _ in 0..n {
            let v = r.u64()?;
            let d = <V::Data>::decode(r.take(data_size)?, &());
            ghosts.push((v, d));
        }
        let n = r.count(V::WIRE_SIZE + 8)?;
        let mut heap = Vec::with_capacity(n);
        for _ in 0..n {
            let vis = V::decode(r.take(V::WIRE_SIZE)?, ctx);
            let tie = r.u64()?;
            heap.push((vis, tie));
        }
        let n = r.count(8)?;
        let mut wire_seqs = Vec::with_capacity(n);
        for _ in 0..n {
            wire_seqs.push(r.u64()?);
        }
        let counters = QueueCounters {
            arrival_seq: r.u64()?,
            visitors_executed: r.u64()?,
            visitors_pushed: r.u64()?,
            ghost_checked: r.u64()?,
            ghost_filtered: r.u64()?,
            replica_forwards: r.u64()?,
        };
        if r.pos != bytes.len() {
            return Err(BlobError::TrailingBytes);
        }
        Ok(Self { state, ghosts, heap, wire_seqs, counters })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::bfs::{BfsData, BfsVisitor};
    use havoq_graph::types::VertexId;

    fn sample() -> QueueCheckpoint<BfsVisitor> {
        QueueCheckpoint {
            state: vec![
                BfsData::default(),
                BfsData { length: 2, parent: 7 },
                BfsData { length: 5, parent: 1 },
            ],
            ghosts: vec![(3, BfsData { length: 1, parent: 0 }), (9, BfsData::default())],
            heap: vec![
                (BfsVisitor { vertex: VertexId(4), length: 3, parent: 1 }, 4),
                (BfsVisitor { vertex: VertexId(8), length: 3, parent: 2 }, 8),
            ],
            wire_seqs: vec![12, 0, 44],
            counters: QueueCounters {
                arrival_seq: 17,
                visitors_executed: 200,
                visitors_pushed: 310,
                ghost_checked: 42,
                ghost_filtered: 21,
                replica_forwards: 3,
            },
        }
    }

    #[test]
    fn state_blob_roundtrips() {
        let ck = sample();
        let bytes = ck.encode();
        let back = QueueCheckpoint::<BfsVisitor>::decode(&bytes, &()).unwrap();
        assert_eq!(back.state.len(), 3);
        assert_eq!(back.state[1].length, 2);
        assert_eq!(back.state[1].parent, 7);
        assert_eq!(back.ghosts, ck.ghosts.iter().map(|(v, d)| (*v, *d)).collect::<Vec<_>>());
        assert_eq!(back.heap.len(), 2);
        assert_eq!(back.heap[0].0.vertex, VertexId(4));
        assert_eq!(back.heap[1].1, 8);
        assert_eq!(back.wire_seqs, vec![12, 0, 44]);
        assert_eq!(back.counters, ck.counters);
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let ck: QueueCheckpoint<BfsVisitor> = QueueCheckpoint {
            state: vec![],
            ghosts: vec![],
            heap: vec![],
            wire_seqs: vec![],
            counters: QueueCounters::default(),
        };
        let bytes = ck.encode();
        let back = QueueCheckpoint::<BfsVisitor>::decode(&bytes, &()).unwrap();
        assert!(back.state.is_empty() && back.heap.is_empty());
    }

    #[test]
    fn every_truncation_point_is_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                QueueCheckpoint::<BfsVisitor>::decode(&bytes[..cut], &()).err(),
                Some(BlobError::Truncated),
                "prefix of {cut} bytes must be rejected"
            );
        }
    }

    /// A damaged count field is a decode error, not an allocation of its
    /// size: each of the four section counts, set far past what the blob
    /// holds, reads as truncated.
    #[test]
    fn oversized_counts_are_rejected() {
        let ck = sample();
        let bytes = ck.encode();
        let data = <BfsData as WireCodec>::WIRE_SIZE;
        let ghosts_at = 8 + ck.state.len() * data;
        let heap_at = ghosts_at + 8 + ck.ghosts.len() * (8 + data);
        let seqs_at = heap_at + 8 + ck.heap.len() * (BfsVisitor::WIRE_SIZE + 8);
        let lens = [ck.state.len(), ck.ghosts.len(), ck.heap.len(), ck.wire_seqs.len()];
        for (at, len) in [0, ghosts_at, heap_at, seqs_at].into_iter().zip(lens) {
            let declared = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            assert_eq!(declared, len as u64, "offset {at} is a count field");
            for bad in [u64::MAX, 1 << 40] {
                let mut damaged = bytes.clone();
                damaged[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                assert_eq!(
                    QueueCheckpoint::<BfsVisitor>::decode(&damaged, &()).err(),
                    Some(BlobError::Truncated),
                    "count {bad} at offset {at}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert_eq!(
            QueueCheckpoint::<BfsVisitor>::decode(&bytes, &()).err(),
            Some(BlobError::TrailingBytes)
        );
    }
}
