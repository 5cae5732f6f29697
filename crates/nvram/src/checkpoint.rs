//! Epoch-stamped checkpoint blobs on the NVRAM page cache.
//!
//! A [`CheckpointStore`] is one rank's durable checkpoint log: an
//! append-only sequence of self-validating blobs, one per checkpoint
//! epoch, layered on a [`PageCache`] so checkpoint traffic flows through
//! the same write-behind machinery as the edge set (in async I/O mode the
//! serialize-and-write on the traversal's critical path hands its dirty
//! pages to the background drain).
//!
//! Each blob is framed so that a reader can judge, from the bytes alone,
//! whether the write completed:
//!
//! ```text
//! [ magic u64 | version u64 | epoch u64 | len u64 | checksum u64 ]  header
//! [ payload: len bytes ]
//! [ commit u64 ^ epoch ]                                           marker
//! ```
//!
//! The commit marker is written *after* the payload; a rank that dies
//! mid-write leaves a header and a payload prefix but no marker, and
//! [`CheckpointStore::read_epoch`] rejects the blob (`Torn`). The FNV-1a
//! checksum additionally rejects blobs whose payload bytes were damaged.
//! Recovery then walks epochs downward via
//! [`CheckpointStore::latest_complete_epoch_with_fallbacks`] and the world
//! agrees on the minimum across ranks.
//!
//! Only the byte framing is durable; the epoch → offset directory is kept
//! in memory, standing in for the checkpoint-directory file a real
//! deployment would keep beside the log.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::cache::PageCache;

const MAGIC: u64 = 0x4856_4f51_434b_5054; // "HVOQCKPT"
const COMMIT: u64 = 0xC0_4412_17ED_5AFE_u64;
const VERSION: u64 = 1;

/// Bytes before the payload: magic, version, epoch, len, checksum.
pub const CHECKPOINT_HEADER_BYTES: usize = 40;
/// Bytes after the payload: the commit marker.
pub const CHECKPOINT_COMMIT_BYTES: usize = 8;

/// Why a checkpoint blob was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// No blob was ever written for this epoch.
    UnknownEpoch,
    /// The header does not start with the checkpoint magic.
    BadMagic,
    /// The header's layout version is not one this reader understands.
    BadVersion,
    /// The header's epoch stamp disagrees with the directory.
    EpochMismatch,
    /// The commit marker is absent: the writer died mid-write.
    Torn,
    /// Commit marker present but the payload bytes fail their checksum.
    ChecksumMismatch,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::UnknownEpoch => "no checkpoint written for this epoch",
            Self::BadMagic => "checkpoint header magic mismatch",
            Self::BadVersion => "checkpoint layout version not understood",
            Self::EpochMismatch => "checkpoint epoch stamp mismatch",
            Self::Torn => "checkpoint torn: commit marker missing",
            Self::ChecksumMismatch => "checkpoint payload checksum mismatch",
        };
        f.write_str(s)
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a over the payload bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One rank's checkpoint log over a cached block device.
pub struct CheckpointStore {
    cache: Arc<PageCache>,
    /// Next append offset on the device.
    next_offset: u64,
    /// Epoch → start offset of the most recent blob written for it.
    dir: BTreeMap<u64, u64>,
    epochs_written: u64,
    torn_writes: u64,
    bytes_written: u64,
}

impl CheckpointStore {
    /// Open an empty store on `cache`, appending from offset 0.
    pub fn new(cache: Arc<PageCache>) -> Self {
        Self {
            cache,
            next_offset: 0,
            dir: BTreeMap::new(),
            epochs_written: 0,
            torn_writes: 0,
            bytes_written: 0,
        }
    }

    pub fn cache(&self) -> &Arc<PageCache> {
        &self.cache
    }

    /// Total bytes handed to the device (headers and markers included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    fn header_bytes(epoch: u64, payload: &[u8]) -> [u8; CHECKPOINT_HEADER_BYTES] {
        let mut h = [0u8; CHECKPOINT_HEADER_BYTES];
        h[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        h[8..16].copy_from_slice(&VERSION.to_le_bytes());
        h[16..24].copy_from_slice(&epoch.to_le_bytes());
        h[24..32].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        h[32..40].copy_from_slice(&fnv1a(payload).to_le_bytes());
        h
    }

    /// Reserve a fresh page-aligned extent for a blob of `total` bytes.
    fn reserve(&mut self, total: usize) -> u64 {
        let page = self.cache.config().page_size as u64;
        let aligned = (total as u64).div_ceil(page) * page;
        let base = self.next_offset;
        self.next_offset += aligned;
        self.cache.note_len(self.next_offset);
        base
    }

    /// Commit `payload` as checkpoint `epoch`: header, payload, then the
    /// commit marker. Re-writing an epoch (the retry after a restore)
    /// appends a fresh blob and repoints the directory at it.
    pub fn write_epoch(&mut self, epoch: u64, payload: &[u8]) {
        let total = CHECKPOINT_HEADER_BYTES + payload.len() + CHECKPOINT_COMMIT_BYTES;
        let base = self.reserve(total);
        self.cache.write_at(base, &Self::header_bytes(epoch, payload));
        self.cache.write_at(base + CHECKPOINT_HEADER_BYTES as u64, payload);
        let marker = (COMMIT ^ epoch).to_le_bytes();
        self.cache.write_at(base + (CHECKPOINT_HEADER_BYTES + payload.len()) as u64, &marker);
        self.dir.insert(epoch, base);
        self.epochs_written += 1;
        self.bytes_written += total as u64;
    }

    /// Simulate a rank dying while writing checkpoint `epoch`: the header
    /// and roughly half the payload reach the device, the commit marker
    /// never does. The directory still points at the torn blob — exactly
    /// what a restarted rank would find on disk — and `read_epoch` must
    /// reject it.
    pub fn write_epoch_torn(&mut self, epoch: u64, payload: &[u8]) {
        let total = CHECKPOINT_HEADER_BYTES + payload.len() + CHECKPOINT_COMMIT_BYTES;
        let base = self.reserve(total);
        self.cache.write_at(base, &Self::header_bytes(epoch, payload));
        let kept = payload.len() / 2;
        self.cache.write_at(base + CHECKPOINT_HEADER_BYTES as u64, &payload[..kept]);
        self.dir.insert(epoch, base);
        self.torn_writes += 1;
        self.bytes_written += (CHECKPOINT_HEADER_BYTES + kept) as u64;
    }

    /// Read and validate checkpoint `epoch`, returning its payload. All
    /// verdicts come from the stored bytes: magic, version and epoch stamp
    /// must match, the commit marker must be present, and the payload must
    /// pass its checksum.
    pub fn read_epoch(&self, epoch: u64) -> Result<Vec<u8>, CheckpointError> {
        let &base = self.dir.get(&epoch).ok_or(CheckpointError::UnknownEpoch)?;
        let mut header = [0u8; CHECKPOINT_HEADER_BYTES];
        self.cache.read_at(base, &mut header);
        let word = |i: usize| u64::from_le_bytes(header[i * 8..i * 8 + 8].try_into().unwrap());
        if word(0) != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        if word(1) != VERSION {
            return Err(CheckpointError::BadVersion);
        }
        if word(2) != epoch {
            return Err(CheckpointError::EpochMismatch);
        }
        let len = word(3) as usize;
        let checksum = word(4);
        let mut payload = vec![0u8; len];
        self.cache.read_at(base + CHECKPOINT_HEADER_BYTES as u64, &mut payload);
        let mut marker = [0u8; CHECKPOINT_COMMIT_BYTES];
        self.cache.read_at(base + (CHECKPOINT_HEADER_BYTES + len) as u64, &mut marker);
        if u64::from_le_bytes(marker) != COMMIT ^ epoch {
            return Err(CheckpointError::Torn);
        }
        if fnv1a(&payload) != checksum {
            return Err(CheckpointError::ChecksumMismatch);
        }
        Ok(payload)
    }

    /// The highest epoch whose blob validates end to end, or `None`. Walks
    /// the directory downward so torn or damaged tails are skipped — this
    /// is each rank's vote in the collective restore-point agreement.
    ///
    /// Also reports how many *committed but corrupt* epochs (commit marker
    /// present, payload checksum failed) were skipped on the way down. Such
    /// a blob is treated exactly like a torn one — skipped, and the world
    /// restores from the next-oldest intact epoch — but it is counted
    /// separately:
    /// torn blobs are expected debris of an injected crash, while a
    /// checksum mismatch means silent storage corruption was caught.
    pub fn latest_complete_epoch_with_fallbacks(&self) -> (Option<u64>, u64) {
        let mut fallbacks = 0u64;
        for &e in self.dir.keys().rev() {
            match self.read_epoch(e) {
                Ok(_) => return (Some(e), fallbacks),
                Err(CheckpointError::ChecksumMismatch) => fallbacks += 1,
                Err(_) => {}
            }
        }
        (None, fallbacks)
    }

    /// Fault injection for tests: flip one payload byte of `epoch`'s
    /// newest blob *through the cache*, so the page-level write-back
    /// checksums stay consistent with the damaged bytes and only the
    /// blob's own checksum can catch it — silent corruption of a
    /// committed checkpoint. Returns `false` when the epoch is unknown or
    /// its payload is empty.
    pub fn corrupt_committed_payload(&self, epoch: u64) -> bool {
        let Some(&base) = self.dir.get(&epoch) else { return false };
        let mut header = [0u8; CHECKPOINT_HEADER_BYTES];
        self.cache.read_at(base, &mut header);
        let len = u64::from_le_bytes(header[24..32].try_into().unwrap());
        if len == 0 {
            return false;
        }
        let off = base + CHECKPOINT_HEADER_BYTES as u64 + len / 2;
        let mut b = [0u8; 1];
        self.cache.read_at(off, &mut b);
        self.cache.write_at(off, &[b[0] ^ 0x40]);
        true
    }

    /// Drop every epoch above `epoch` from the directory. Recovery calls
    /// this after rewinding: blobs past the restore point may mix
    /// incarnations (a complete blob from before the crash, the torn blob
    /// itself) and must never satisfy a later
    /// `latest_complete_epoch_with_fallbacks`.
    pub fn truncate_above(&mut self, epoch: u64) {
        self.dir.retain(|&e, _| e <= epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{PageCache, PageCacheConfig};
    use crate::device::{BlockDevice, MemDevice};
    use crate::io::IoConfig;

    fn cache(pages: usize) -> Arc<PageCache> {
        let dev = Arc::new(MemDevice::new());
        Arc::new(PageCache::new(
            dev as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 256,
                capacity_pages: pages,
                shards: 2,
                ..PageCacheConfig::default()
            },
        ))
    }

    fn payload(epoch: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u64 ^ epoch.wrapping_mul(31)) as u8).collect()
    }

    #[test]
    fn roundtrip_multiple_epochs() {
        let mut st = CheckpointStore::new(cache(8));
        for e in 0..5 {
            st.write_epoch(e, &payload(e, 100 + 37 * e as usize));
        }
        for e in 0..5 {
            assert_eq!(st.read_epoch(e).unwrap(), payload(e, 100 + 37 * e as usize));
        }
        assert_eq!(st.latest_complete_epoch_with_fallbacks().0, Some(4));
        assert_eq!(st.epochs_written, 5);
        assert_eq!(st.torn_writes, 0);
    }

    #[test]
    fn unknown_epoch_is_rejected() {
        let mut st = CheckpointStore::new(cache(4));
        st.write_epoch(1, b"x");
        assert_eq!(st.read_epoch(7), Err(CheckpointError::UnknownEpoch));
    }

    #[test]
    fn torn_write_is_rejected_and_recovery_steps_back() {
        let mut st = CheckpointStore::new(cache(8));
        st.write_epoch(0, &payload(0, 300));
        st.write_epoch(1, &payload(1, 300));
        st.write_epoch_torn(2, &payload(2, 300));
        assert_eq!(st.read_epoch(2), Err(CheckpointError::Torn));
        assert_eq!(st.latest_complete_epoch_with_fallbacks().0, Some(1));
        assert_eq!(st.torn_writes, 1);
        // the retry after restore commits the epoch for real
        st.write_epoch(2, &payload(2, 300));
        assert_eq!(st.read_epoch(2).unwrap(), payload(2, 300));
        assert_eq!(st.latest_complete_epoch_with_fallbacks().0, Some(2));
    }

    #[test]
    fn truncate_above_hides_stale_completes() {
        // crash at epoch 2 after epoch 2 was once complete (second
        // incarnation): without truncation the stale complete blob would
        // win latest_complete_epoch_with_fallbacks and mix incarnations.
        let mut st = CheckpointStore::new(cache(8));
        st.write_epoch(0, &payload(0, 64));
        st.write_epoch(1, &payload(1, 64));
        st.write_epoch(2, &payload(2, 64));
        st.truncate_above(1); // restore to epoch 1
        assert_eq!(st.latest_complete_epoch_with_fallbacks().0, Some(1));
        assert_eq!(st.read_epoch(2), Err(CheckpointError::UnknownEpoch));
        st.write_epoch_torn(2, &payload(2, 64));
        assert_eq!(
            st.latest_complete_epoch_with_fallbacks().0,
            Some(1),
            "torn retry must not resurface"
        );
    }

    #[test]
    fn corrupt_committed_epoch_is_treated_like_torn() {
        // The commit marker landed, then the payload bytes were damaged:
        // the FNV checksum rejects the blob and recovery steps back to the
        // next-oldest intact epoch, reporting one fallback.
        let mut st = CheckpointStore::new(cache(8));
        st.write_epoch(0, &payload(0, 300));
        st.write_epoch(1, &payload(1, 300));
        st.write_epoch(2, &payload(2, 300));
        assert!(st.corrupt_committed_payload(2));
        assert_eq!(st.read_epoch(2), Err(CheckpointError::ChecksumMismatch));
        assert_eq!(st.latest_complete_epoch_with_fallbacks(), (Some(1), 1));
        assert_eq!(st.read_epoch(1).unwrap(), payload(1, 300));
        // a torn tail is expected crash debris, not a counted fallback
        st.write_epoch_torn(3, &payload(3, 300));
        assert_eq!(st.latest_complete_epoch_with_fallbacks(), (Some(1), 1));
        // intact stores report zero fallbacks
        let mut ok = CheckpointStore::new(cache(8));
        ok.write_epoch(0, &payload(0, 64));
        assert_eq!(ok.latest_complete_epoch_with_fallbacks(), (Some(0), 0));
    }

    #[test]
    fn empty_payload_roundtrips() {
        let mut st = CheckpointStore::new(cache(4));
        st.write_epoch(3, &[]);
        assert_eq!(st.read_epoch(3).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn blobs_survive_cache_pressure_and_async_io() {
        // 2-page cache, 5 blobs of ~3 pages each: every read refaults
        // through the device, in async write-behind mode.
        let dev = Arc::new(MemDevice::new());
        let c = Arc::new(PageCache::new(
            dev as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 256,
                capacity_pages: 2,
                shards: 1,
                io: IoConfig::asynchronous(),
                ..PageCacheConfig::default()
            },
        ));
        let mut st = CheckpointStore::new(c);
        for e in 0..5 {
            st.write_epoch(e, &payload(e, 700));
        }
        for e in (0..5).rev() {
            assert_eq!(st.read_epoch(e).unwrap(), payload(e, 700), "epoch {e}");
        }
        let stats = st.cache().stats();
        assert!(stats.evictions > 0, "blobs must spill through the cache");
    }

    #[test]
    fn header_constants_are_consistent() {
        let h = CheckpointStore::header_bytes(9, b"abc");
        assert_eq!(u64::from_le_bytes(h[0..8].try_into().unwrap()), MAGIC);
        assert_eq!(u64::from_le_bytes(h[16..24].try_into().unwrap()), 9);
        assert_eq!(u64::from_le_bytes(h[24..32].try_into().unwrap()), 3);
    }
}
