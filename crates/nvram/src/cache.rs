//! The user-space page cache of Section II-B.
//!
//! The paper bypasses the Linux page cache (O_DIRECT) and manages pages
//! itself, designed for high levels of concurrent I/O. This reproduction
//! keeps that architecture: fixed-size pages, the frame table split into
//! independently-locked shards so concurrent ranks don't serialize on one
//! lock, CLOCK (second-chance) eviction, and write-back with explicit
//! flush. Hit/miss/eviction statistics drive the Figure 9 analysis.
//!
//! Device I/O never happens under a shard lock. A demand miss claims its
//! page with a `Faulting` marker, parks the chosen frame in limbo, and
//! fills it with the lock released; concurrent accesses to the same page
//! wait on the shard's condvar instead of issuing a second device read.
//! Dirty eviction victims are registered with the
//! `crate::io::WritebackRegistry` *before* the lock drops (so their
//! bytes stay visible to faults) and are then written back either inline
//! ([`IoMode::Sync`]) or by the background engine ([`IoMode::Async`]) —
//! see [`crate::io`] for the queue, worker pool, and ordering guarantees.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use havoq_util::crc::crc32;
use havoq_util::FxHashMap;

use crate::device::BlockDevice;
use crate::io::{
    IoConfig, IoEngine, IoMode, IoRequest, IoShared, IoStatsSnapshot, PendingWriteback, WbOutcome,
    WritebackRegistry,
};

/// Page cache configuration.
#[derive(Clone, Copy, Debug)]
pub struct PageCacheConfig {
    /// Page size in bytes (power of two).
    pub page_size: usize,
    /// Total cache capacity in pages (split across shards; a remainder is
    /// distributed so no configured page is lost).
    pub capacity_pages: usize,
    /// Number of independently-locked shards.
    pub shards: usize,
    /// On a read miss, also fault in up to this many following pages.
    ///
    /// The vertex-ordered visitor queue makes adjacency reads sequential,
    /// so pulling the next pages alongside a miss hides most of the
    /// per-access latency. In [`IoMode::Sync`] the window is filled on the
    /// faulting thread; in [`IoMode::Async`] it is issued to the
    /// background engine and the fault returns immediately. 0 disables
    /// readahead.
    pub readahead_pages: usize,
    /// I/O engine configuration (sync/async, worker pool, queue depth).
    pub io: IoConfig,
}

impl Default for PageCacheConfig {
    fn default() -> Self {
        Self {
            page_size: 4096,
            capacity_pages: 1024,
            shards: 8,
            readahead_pages: 0,
            io: IoConfig::default(),
        }
    }
}

thread_local! {
    /// Shard locks held by this thread; lets devices and tests assert
    /// that no device I/O happens under a shard lock.
    static SHARD_LOCKS: Cell<u32> = const { Cell::new(0) };
}

/// True while the calling thread holds any page-cache shard lock. Device
/// access hooks use this to assert the cache's no-I/O-under-lock
/// invariant.
pub fn shard_lock_held() -> bool {
    SHARD_LOCKS.with(|c| c.get() > 0)
}

fn tls_lock_inc() {
    SHARD_LOCKS.with(|c| c.set(c.get() + 1));
}

fn tls_lock_dec() {
    SHARD_LOCKS.with(|c| c.set(c.get() - 1));
}

/// State of a page in the shard map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// Cached in this frame.
    Present(usize),
    /// A thread (or prefetch worker) is filling it; wait on the shard
    /// condvar instead of double-faulting.
    Faulting,
}

struct Frame {
    page_no: u64,
    data: Box<[u8]>,
    referenced: bool,
    dirty: bool,
    /// Buffer is checked out for an out-of-lock fill; not evictable.
    limbo: bool,
}

struct Shard {
    /// page number -> slot
    map: FxHashMap<u64, Slot>,
    frames: Vec<Frame>,
    clock_hand: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Self { map: FxHashMap::default(), frames: Vec::new(), clock_hand: 0, capacity }
    }

    /// Publish a filled buffer as the frame for `page_no`. Caller holds
    /// the shard lock and must notify the shard condvar afterwards.
    fn install_frame(&mut self, idx: usize, page_no: u64, buf: Box<[u8]>, dirty: bool) {
        let frame = &mut self.frames[idx];
        frame.page_no = page_no;
        frame.data = buf;
        frame.referenced = true;
        frame.dirty = dirty;
        frame.limbo = false;
        self.map.insert(page_no, Slot::Present(idx));
    }

    /// CLOCK (second-chance) victim selection. `None` means every frame is
    /// in limbo (all buffers checked out for fills).
    fn pick_victim(&mut self) -> Option<usize> {
        let len = self.frames.len();
        // Bounded scan: one full lap clears reference bits, the second must
        // find an unreferenced non-limbo frame unless all frames are in
        // limbo.
        for _ in 0..(2 * len + 1) {
            let i = self.clock_hand;
            self.clock_hand = (self.clock_hand + 1) % len;
            if self.frames[i].limbo {
                continue;
            }
            if self.frames[i].referenced {
                self.frames[i].referenced = false;
            } else {
                return Some(i);
            }
        }
        None
    }
}

/// One shard: the mutex plus the condvar that fault-waiters and
/// frame-starved reservers sleep on.
struct ShardSlot {
    m: Mutex<Shard>,
    cv: Condvar,
}

impl ShardSlot {
    fn new(capacity: usize) -> Self {
        Self { m: Mutex::new(Shard::new(capacity)), cv: Condvar::new() }
    }

    fn lock(&self) -> ShardGuard<'_> {
        let g = self.m.lock().unwrap();
        tls_lock_inc();
        ShardGuard { g: Some(g), slot: self }
    }
}

/// Mutex guard that keeps the thread-local lock count accurate, including
/// across condvar waits (the lock is *not* held while waiting).
struct ShardGuard<'a> {
    g: Option<MutexGuard<'a, Shard>>,
    slot: &'a ShardSlot,
}

impl ShardGuard<'_> {
    fn wait(&mut self) {
        let g = self.g.take().expect("guard present");
        tls_lock_dec();
        let g = self.slot.cv.wait(g).unwrap();
        tls_lock_inc();
        self.g = Some(g);
    }
}

impl Deref for ShardGuard<'_> {
    type Target = Shard;
    fn deref(&self) -> &Shard {
        self.g.as_ref().expect("guard present")
    }
}

impl DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut Shard {
        self.g.as_mut().expect("guard present")
    }
}

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        if self.g.take().is_some() {
            tls_lock_dec();
        }
    }
}

#[derive(Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    prefetches: AtomicU64,
    fault_waits: AtomicU64,
    wb_coalesced: AtomicU64,
    dropped_prefetches: AtomicU64,
    advise_resident: AtomicU64,
    io_stall_ns: AtomicU64,
    evict_stall_ns: AtomicU64,
    page_checksum_failures: AtomicU64,
    page_reread_retries: AtomicU64,
}

/// Outcome of reserving a frame for an incoming page.
enum Reserve {
    /// Fresh frame grown within capacity (no data buffer yet).
    New(usize),
    /// Victim evicted; its buffer (checked out) and, if it was dirty, the
    /// write-back ticket registered under the shard lock.
    Evicted { idx: usize, buf: Box<[u8]>, pending: Option<PendingWriteback> },
    /// Every frame is in limbo — wait for a fill to complete and retry.
    Starved,
}

/// Pages per queued prefetch request when splitting a large advise window.
const ADVISE_CHUNK_PAGES: usize = 32;

/// Bound on re-reads of a page whose fill failed checksum verification.
/// Transient device read errors (NAND read disturb, which
/// [`crate::device::MemDevice::set_read_corruption`] models) redraw on
/// every access, so a handful of retries recovers; a page that still
/// mismatches after this many re-reads holds corrupt *stored* data and is
/// quarantined (panic) rather than silently served.
const MAX_PAGE_REREADS: u64 = 8;

/// The shared cache state: everything except the worker pool handle.
/// Submitting threads and I/O workers both operate on this through an
/// `Arc`.
pub(crate) struct CacheCore {
    device: Arc<dyn BlockDevice>,
    cfg: PageCacheConfig,
    shards: Vec<ShardSlot>,
    counters: CacheCounters,
    registry: WritebackRegistry,
    io: IoShared,
    /// High-water mark of bytes the application has addressed; bounds
    /// readahead together with `device.len()` so prefetch never reads
    /// past the data that exists.
    len_hint: AtomicU64,
    /// CRC32 of the newest bytes this cache wrote back to the device, per
    /// page, sharded like the frame table. Fills verify against it; pages
    /// the cache never wrote (pre-populated devices) have no entry and
    /// are unverifiable. Entries are recorded *inside* the write-back
    /// registry's critical section, atomically with entry removal, so a
    /// fill that misses the registry always sees the checksum of the
    /// bytes that are actually durable.
    page_crcs: Vec<Mutex<FxHashMap<u64, u32>>>,
}

impl CacheCore {
    fn new(device: Arc<dyn BlockDevice>, cfg: PageCacheConfig) -> Self {
        assert!(cfg.page_size.is_power_of_two(), "page size must be a power of two");
        assert!(cfg.shards > 0 && cfg.capacity_pages >= cfg.shards, "need >= 1 page per shard");
        let per_shard = cfg.capacity_pages / cfg.shards;
        let remainder = cfg.capacity_pages % cfg.shards;
        let shards = (0..cfg.shards)
            .map(|i| ShardSlot::new(per_shard + usize::from(i < remainder)))
            .collect();
        // Bound on queued requests: the device's `concurrency_hint()` clamped
        // to `8..=128`, so queue depth tracks the simulated NAND channel
        // parallelism. Background worker threads: `min(queue depth, 4,
        // available_parallelism)` — a worker beyond the host's cores only
        // adds context switches to every wake-up.
        let depth = device.concurrency_hint().clamp(8, 128);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = if cfg.io.mode == IoMode::Async { depth.min(4).min(cores) } else { 0 };
        let page_crcs = (0..cfg.shards).map(|_| Mutex::new(FxHashMap::default())).collect();
        Self {
            device,
            cfg,
            shards,
            counters: CacheCounters::default(),
            registry: WritebackRegistry::new(),
            io: IoShared::new(depth, workers),
            len_hint: AtomicU64::new(0),
            page_crcs,
        }
    }

    /// Expected checksum for `page_no`, if the cache has written it back.
    fn page_crc(&self, page_no: u64) -> Option<u32> {
        let shard = &self.page_crcs[(page_no as usize) % self.page_crcs.len()];
        shard.lock().unwrap().get(&page_no).copied()
    }

    fn record_page_crc(&self, page_no: u64, crc: u32) {
        let shard = &self.page_crcs[(page_no as usize) % self.page_crcs.len()];
        shard.lock().unwrap().insert(page_no, crc);
    }

    pub(crate) fn io_shared(&self) -> &IoShared {
        &self.io
    }

    #[inline]
    fn shard_of(&self, page_no: u64) -> &ShardSlot {
        // Pages are accessed with strong sequential locality, so spread
        // consecutive pages across shards.
        &self.shards[(page_no as usize) % self.shards.len()]
    }

    #[inline]
    fn stall(&self, since: Instant) {
        self.counters.io_stall_ns.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Pages that currently exist: whichever is larger of the device's
    /// length and the application's addressed high-water mark.
    fn total_pages(&self) -> u64 {
        let bytes = self.device.len().max(self.len_hint.load(Ordering::Relaxed));
        bytes.div_ceil(self.cfg.page_size as u64)
    }

    /// Run `f` on the cached page `page_no`, faulting it in if necessary.
    /// Returns `(result, missed)`. Exactly one hit or miss is counted per
    /// call, at the moment the access resolves.
    fn with_page<R>(
        &self,
        page_no: u64,
        mark_dirty: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> (R, bool) {
        let slot = self.shard_of(page_no);
        let mut waited = false;
        let mut shard = slot.lock();
        let (idx, mut buf, pending) = loop {
            match shard.map.get(&page_no).copied() {
                Some(Slot::Present(idx)) => {
                    self.counters.hits.fetch_add(1, Ordering::Relaxed);
                    let frame = &mut shard.frames[idx];
                    frame.referenced = true;
                    frame.dirty |= mark_dirty;
                    return (f(&mut frame.data), false);
                }
                Some(Slot::Faulting) => {
                    if !waited {
                        waited = true;
                        self.counters.fault_waits.fetch_add(1, Ordering::Relaxed);
                    }
                    let t = Instant::now();
                    shard.wait();
                    self.stall(t);
                }
                None => match self.reserve_frame(&mut shard) {
                    Reserve::New(idx) => {
                        self.counters.misses.fetch_add(1, Ordering::Relaxed);
                        shard.map.insert(page_no, Slot::Faulting);
                        break (idx, vec![0u8; self.cfg.page_size].into_boxed_slice(), None);
                    }
                    Reserve::Evicted { idx, buf, pending } => {
                        self.counters.misses.fetch_add(1, Ordering::Relaxed);
                        shard.map.insert(page_no, Slot::Faulting);
                        break (idx, buf, pending);
                    }
                    Reserve::Starved => {
                        let t = Instant::now();
                        shard.wait();
                        self.stall(t);
                    }
                },
            }
        };
        drop(shard);
        if let Some(pw) = pending {
            self.dispatch_writeback(pw);
        }
        // Fill with no lock held. The registry is checked first so a page
        // whose newest bytes are still queued for write-behind is never
        // re-read stale from the device. No new registration of this page
        // can race in: the Faulting marker keeps it out of every frame.
        let t = Instant::now();
        if let Some(d) = self.registry.lookup(page_no) {
            buf.copy_from_slice(&d);
        } else {
            self.read_page_verified(page_no, &mut buf);
        }
        self.stall(t);
        let mut shard = slot.lock();
        shard.install_frame(idx, page_no, buf, mark_dirty);
        slot.cv.notify_all();
        let frame = &mut shard.frames[idx];
        (f(&mut frame.data), true)
    }

    /// Read one page from the device, verifying it against the recorded
    /// write-back checksum when one exists. A mismatch is retried with
    /// bounded re-reads — transient read errors redraw per access and
    /// recover — and as a last resort resolved from the write-back
    /// registry; a page that survives all of that with a bad checksum
    /// holds corrupt stored data and is quarantined (panic) instead of
    /// being served to a traversal. Never called with a shard lock held.
    fn read_page_verified(&self, page_no: u64, buf: &mut [u8]) {
        let offset = page_no * self.cfg.page_size as u64;
        self.device.read_at(offset, buf);
        let Some(expected) = self.page_crc(page_no) else {
            return; // never written back by this cache: unverifiable
        };
        if crc32(buf) == expected {
            return;
        }
        self.counters.page_checksum_failures.fetch_add(1, Ordering::Relaxed);
        for _ in 0..MAX_PAGE_REREADS {
            self.counters.page_reread_retries.fetch_add(1, Ordering::Relaxed);
            self.device.read_at(offset, buf);
            if crc32(buf) == expected {
                return;
            }
        }
        // The checksum may describe a write-back that landed (and left the
        // registry) between our first lookup and the reads above; if its
        // bytes are back in flight, serve them.
        if let Some(d) = self.registry.lookup(page_no) {
            buf.copy_from_slice(&d);
            return;
        }
        panic!(
            "page {page_no} (offset {offset}) failed checksum verification after \
             {MAX_PAGE_REREADS} re-reads: stored data is corrupt \
             (expected crc32 {expected:#010x}, read {:#010x})",
            crc32(buf)
        );
    }

    /// Acquire a frame for an incoming page. Caller holds the shard lock.
    fn reserve_frame(&self, shard: &mut Shard) -> Reserve {
        if shard.frames.len() < shard.capacity {
            shard.frames.push(Frame {
                page_no: u64::MAX,
                data: Box::default(),
                referenced: false,
                dirty: false,
                limbo: true,
            });
            return Reserve::New(shard.frames.len() - 1);
        }
        let Some(victim) = shard.pick_victim() else {
            return Reserve::Starved;
        };
        self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        let old_page = shard.frames[victim].page_no;
        shard.map.remove(&old_page);
        // Register dirty victims while the lock is still held: from here
        // until the write-behind completes, faults of `old_page` resolve
        // from the registry, never from stale device bytes.
        let pending = shard.frames[victim]
            .dirty
            .then(|| self.registry.register(old_page, &shard.frames[victim].data));
        let frame = &mut shard.frames[victim];
        frame.limbo = true;
        frame.dirty = false;
        let buf = std::mem::take(&mut frame.data);
        Reserve::Evicted { idx: victim, buf, pending }
    }

    /// Fill absent pages in `first .. first + count`, clamped to the data
    /// that exists. Pages are claimed with `Faulting` markers before the
    /// bulk device read, so demand faults wait for this fill instead of
    /// issuing duplicate reads, and no page is ever faulted into two
    /// frames. Runs on prefetch workers (async) or the faulting thread
    /// (sync); never called with a shard lock held.
    pub(crate) fn do_prefetch(&self, first: u64, count: usize) {
        let ps = self.cfg.page_size;
        let total = self.total_pages();
        if first >= total || count == 0 {
            return;
        }
        let count = count.min((total - first) as usize);
        /// How a claimed page gets its bytes.
        enum Claim {
            /// Already present or mid-fault elsewhere; leave it alone.
            Skip,
            /// Fill from the bulk device snapshot.
            Device,
            /// Newest bytes pinned from the write-back registry at claim
            /// time; the device snapshot may be stale for this page.
            Pinned(std::sync::Arc<[u8]>),
        }
        // Claim pass: mark absent pages Faulting and capture any in-flight
        // write-back bytes *now*. A registry entry for a claimed page can
        // only exist at claim time — the Faulting marker keeps the page out
        // of every frame, so no later registration is possible — but a
        // queued write-back may remove its entry at any moment, after which
        // the bulk snapshot below (taken before the write landed) would
        // hand readers pre-write-back bytes.
        let mut claims = Vec::with_capacity(count);
        for i in 0..count {
            let page_no = first + i as u64;
            let mut shard = self.shard_of(page_no).lock();
            claims.push(
                if let std::collections::hash_map::Entry::Vacant(e) = shard.map.entry(page_no) {
                    e.insert(Slot::Faulting);
                    match self.registry.lookup(page_no) {
                        Some(d) => Claim::Pinned(d),
                        None => Claim::Device,
                    }
                } else {
                    Claim::Skip
                },
            );
        }
        if claims.iter().all(|c| matches!(c, Claim::Skip)) {
            return;
        }
        // One sequential device access for the whole window — the
        // latency-hiding step: a multi-page sequential NAND read costs
        // roughly one access latency plus transfer, unlike `count`
        // independent demand misses. Skipped when every claimed page is
        // pinned from the registry.
        let mut bulk = vec![0u8; ps * count];
        if claims.iter().any(|c| matches!(c, Claim::Device)) {
            self.device.read_at(first * ps as u64, &mut bulk);
        }
        // Verify device-sourced pages against their write-back checksums.
        // A mismatching page (transient read error hitting the bulk read)
        // releases its claim instead of installing garbage: the waiting or
        // future demand fault re-reads it with the bounded-retry path.
        for (i, claim) in claims.iter_mut().enumerate() {
            if !matches!(claim, Claim::Device) {
                continue;
            }
            let page_no = first + i as u64;
            let Some(expected) = self.page_crc(page_no) else { continue };
            if crc32(&bulk[i * ps..(i + 1) * ps]) == expected {
                continue;
            }
            self.counters.page_checksum_failures.fetch_add(1, Ordering::Relaxed);
            self.counters.dropped_prefetches.fetch_add(1, Ordering::Relaxed);
            let slot = self.shard_of(page_no);
            slot.lock().map.remove(&page_no);
            slot.cv.notify_all();
            *claim = Claim::Skip;
        }
        for (i, claim) in claims.iter().enumerate() {
            let pinned = match claim {
                Claim::Skip => continue,
                Claim::Device => None,
                Claim::Pinned(d) => Some(d),
            };
            let page_no = first + i as u64;
            let slot = self.shard_of(page_no);
            let mut pending_out = None;
            {
                let mut shard = slot.lock();
                match self.reserve_frame(&mut shard) {
                    Reserve::Starved => {
                        // Best effort: release the claim; a demand fault
                        // will fill the page when a frame frees up.
                        shard.map.remove(&page_no);
                        self.counters.dropped_prefetches.fetch_add(1, Ordering::Relaxed);
                    }
                    reserved => {
                        let (idx, mut buf) = match reserved {
                            Reserve::New(idx) => (idx, vec![0u8; ps].into_boxed_slice()),
                            Reserve::Evicted { idx, buf, pending } => {
                                pending_out = pending;
                                (idx, buf)
                            }
                            Reserve::Starved => unreachable!(),
                        };
                        // Bytes pinned at claim time supersede the bulk
                        // snapshot: they are the newest for this page, and
                        // if absent at claim time the device was (and
                        // stays) current, since the bulk read happened
                        // after the claim.
                        if let Some(d) = pinned {
                            buf.copy_from_slice(d);
                        } else {
                            buf.copy_from_slice(&bulk[i * ps..(i + 1) * ps]);
                        }
                        shard.install_frame(idx, page_no, buf, false);
                        self.counters.prefetches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            slot.cv.notify_all();
            if let Some(pw) = pending_out {
                self.dispatch_writeback(pw);
            }
        }
    }

    /// Resolve a write-back ticket now, on this thread. The page's
    /// checksum is recorded by the registry's durability callback —
    /// atomically with the entry's removal — so fills that miss the
    /// registry always verify against the bytes that actually landed.
    pub(crate) fn perform_writeback(&self, pw: &PendingWriteback) {
        debug_assert!(!shard_lock_held(), "write-back under a shard lock");
        let on_durable = |page_no: u64, data: &[u8]| self.record_page_crc(page_no, crc32(data));
        match self.registry.perform(pw, &self.device, self.cfg.page_size, on_durable) {
            WbOutcome::Written => self.counters.writebacks.fetch_add(1, Ordering::Relaxed),
            WbOutcome::Coalesced => self.counters.wb_coalesced.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Route a dirty victim: background queue in async mode (with inline
    /// fallback as back-pressure), inline in sync mode. Inline work is
    /// timed as eviction stall — the cost the async engine exists to hide.
    fn dispatch_writeback(&self, pw: PendingWriteback) {
        debug_assert!(!shard_lock_held(), "write-back dispatched under a shard lock");
        let pw = if self.cfg.io.mode == IoMode::Async {
            match self.io.try_push(IoRequest::WriteBack(pw)) {
                Ok(()) => return,
                Err(IoRequest::WriteBack(pw)) => pw,
                Err(_) => unreachable!("pushed a writeback"),
            }
        } else {
            pw
        };
        let t = Instant::now();
        self.perform_writeback(&pw);
        self.counters.evict_stall_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Issue readahead for the window after a demand miss.
    fn request_readahead(&self, first: u64, count: usize) {
        match self.cfg.io.mode {
            IoMode::Sync => {
                let t = Instant::now();
                self.do_prefetch(first, count);
                self.stall(t);
            }
            IoMode::Async => {
                self.push_prefetch(first, count);
            }
        }
    }

    /// Queue a background prefetch; false, counted as dropped, when the
    /// queue is saturated (a hint; demand faults cope).
    fn push_prefetch(&self, first: u64, count: usize) -> bool {
        let queued = self.io.try_push(IoRequest::Prefetch { first, count }).is_ok();
        if !queued {
            self.counters.dropped_prefetches.fetch_add(1, Ordering::Relaxed);
        }
        queued
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) {
        let ps = self.cfg.page_size as u64;
        let mut done = 0usize;
        while done < buf.len() {
            let pos = offset + done as u64;
            let page_no = pos / ps;
            let in_page = (pos % ps) as usize;
            let n = (self.cfg.page_size - in_page).min(buf.len() - done);
            let (_, missed) = self.with_page(page_no, false, |page| {
                buf[done..done + n].copy_from_slice(&page[in_page..in_page + n]);
            });
            done += n;
            if missed && self.cfg.readahead_pages > 0 {
                self.request_readahead(page_no + 1, self.cfg.readahead_pages);
            }
        }
    }

    fn write_at(&self, offset: u64, buf: &[u8]) {
        let ps = self.cfg.page_size as u64;
        let mut done = 0usize;
        while done < buf.len() {
            let pos = offset + done as u64;
            let page_no = pos / ps;
            let in_page = (pos % ps) as usize;
            let n = (self.cfg.page_size - in_page).min(buf.len() - done);
            self.with_page(page_no, true, |page| {
                page[in_page..in_page + n].copy_from_slice(&buf[done..done + n]);
            });
            done += n;
        }
        self.len_hint.fetch_max(offset + buf.len() as u64, Ordering::Relaxed);
    }

    fn quiesce(&self) {
        if self.cfg.io.mode == IoMode::Async {
            self.io.quiesce();
        }
    }

    fn flush(&self) {
        // Let queued prefetches and write-behinds finish first.
        self.quiesce();
        let mut pending = Vec::new();
        for slot in &self.shards {
            let mut shard = slot.lock();
            for idx in 0..shard.frames.len() {
                if shard.frames[idx].dirty && !shard.frames[idx].limbo {
                    let page_no = shard.frames[idx].page_no;
                    pending.push(self.registry.register(page_no, &shard.frames[idx].data));
                    shard.frames[idx].dirty = false;
                }
            }
        }
        for pw in pending {
            self.perform_writeback(&pw);
        }
        self.registry.drain();
    }

    fn clear(&self) {
        self.flush();
        for slot in &self.shards {
            let mut shard = slot.lock();
            while shard.map.values().any(|s| matches!(s, Slot::Faulting))
                || shard.frames.iter().any(|f| f.limbo)
            {
                shard.wait();
            }
            shard.map.clear();
            shard.frames.clear();
            shard.clock_hand = 0;
        }
    }
}

/// Sharded page cache over a [`BlockDevice`].
///
/// ```
/// use std::sync::{Arc, Mutex};
/// use havoq_nvram::cache::{PageCache, PageCacheConfig};
/// use havoq_nvram::device::{BlockDevice, MemDevice, SimNvram, DeviceProfile};
///
/// let nand: Arc<dyn BlockDevice> =
///     Arc::new(SimNvram::new(MemDevice::new(), DeviceProfile::fusion_io()));
/// let cache = PageCache::new(nand, PageCacheConfig::default());
/// cache.write_at(10_000, b"graph bytes");
/// let mut buf = [0u8; 11];
/// cache.read_at(10_000, &mut buf);
/// assert_eq!(&buf, b"graph bytes");
/// assert_eq!(cache.stats().hits, 1); // the read hit the dirty cached page
/// ```
pub struct PageCache {
    core: Arc<CacheCore>,
    /// Worker pool; present only in async mode. Dropping it drains the
    /// queue and joins the workers.
    _engine: Option<IoEngine>,
}

impl PageCache {
    pub fn new(device: Arc<dyn BlockDevice>, cfg: PageCacheConfig) -> Self {
        let core = Arc::new(CacheCore::new(device, cfg));
        let engine = (cfg.io.mode == IoMode::Async)
            .then(|| IoEngine::start(Arc::clone(&core), core.io.workers()));
        Self { core, _engine: engine }
    }

    pub fn config(&self) -> PageCacheConfig {
        self.core.cfg
    }

    pub fn device(&self) -> &Arc<dyn BlockDevice> {
        &self.core.device
    }

    /// POSIX-like positional read through the cache, with sequential
    /// readahead on misses (inline or background per [`IoConfig`]).
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) {
        self.core.read_at(offset, buf);
    }

    /// POSIX-like positional write through the cache (write-back).
    pub fn write_at(&self, offset: u64, buf: &[u8]) {
        self.core.write_at(offset, buf);
    }

    /// Raise the addressed-length high-water mark (e.g. when an allocator
    /// parcels out device space before any write lands). Readahead is
    /// clamped to `max(device length, high-water mark)`.
    pub fn note_len(&self, len: u64) {
        self.core.len_hint.fetch_max(len, Ordering::Relaxed);
    }

    /// Hint that `offset .. offset + len` will be read soon. In async
    /// mode, queues background prefetch for the covered pages that are
    /// absent and returns immediately; a no-op in sync mode.
    ///
    /// Each page is looked up under its shard lock. A page that is cached,
    /// or already being filled, is counted in
    /// [`CacheStatsSnapshot::advise_resident`] and skipped; each run of
    /// absent pages becomes one or more requests of at most
    /// `ADVISE_CHUNK_PAGES`. A hint over a fully resident range never
    /// touches the I/O queue. A page can still arrive between this check
    /// and the worker's claim pass; the claim pass skips it then.
    pub fn advise(&self, offset: u64, len: u64) {
        if self.core.cfg.io.mode != IoMode::Async || len == 0 {
            return;
        }
        let ps = self.core.cfg.page_size as u64;
        // Clamp to the data that exists (mirroring do_prefetch): hints past
        // the extent would burn bounded-queue slots and skew the depth
        // histogram only to no-op inside the worker.
        let total = self.core.total_pages();
        let first = offset / ps;
        if total == 0 || first >= total {
            return;
        }
        let last = ((offset + len - 1) / ps).min(total - 1);
        // Absent pages counted so far that end just before `page`.
        let mut run = 0usize;
        for page in first..=last {
            if self.core.shard_of(page).lock().map.contains_key(&page) {
                self.core.counters.advise_resident.fetch_add(1, Ordering::Relaxed);
                if run > 0 && !self.core.push_prefetch(page - run as u64, run) {
                    return;
                }
                run = 0;
            } else {
                run += 1;
                if run == ADVISE_CHUNK_PAGES {
                    if !self.core.push_prefetch(page + 1 - run as u64, run) {
                        return;
                    }
                    run = 0;
                }
            }
        }
        if run > 0 {
            self.core.push_prefetch(last + 1 - run as u64, run);
        }
    }

    /// Write every dirty page back to the device (waits for in-flight
    /// background I/O first).
    pub fn flush(&self) {
        self.core.flush();
    }

    /// Drop every cached page (flushing dirty ones): cold-cache state for
    /// experiments.
    pub fn clear(&self) {
        self.core.clear();
    }

    pub fn stats(&self) -> CacheStatsSnapshot {
        let c = &self.core.counters;
        CacheStatsSnapshot {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            writebacks: c.writebacks.load(Ordering::Relaxed),
            prefetches: c.prefetches.load(Ordering::Relaxed),
            fault_waits: c.fault_waits.load(Ordering::Relaxed),
            wb_coalesced: c.wb_coalesced.load(Ordering::Relaxed),
            dropped_prefetches: c.dropped_prefetches.load(Ordering::Relaxed),
            advise_resident: c.advise_resident.load(Ordering::Relaxed),
            io_stall_ns: c.io_stall_ns.load(Ordering::Relaxed),
            evict_stall_ns: c.evict_stall_ns.load(Ordering::Relaxed),
            page_checksum_failures: c.page_checksum_failures.load(Ordering::Relaxed),
            page_reread_retries: c.page_reread_retries.load(Ordering::Relaxed),
        }
    }

    /// Observability snapshot of the I/O engine (queue-depth histogram,
    /// outstanding gauge, service times). Zeros in sync mode.
    pub fn io_stats(&self) -> IoStatsSnapshot {
        self.core.io.snapshot(self.core.cfg.io.mode)
    }

    /// Reset counters (e.g. after a warm-up traversal).
    pub fn reset_stats(&self) {
        let c = &self.core.counters;
        c.hits.store(0, Ordering::Relaxed);
        c.misses.store(0, Ordering::Relaxed);
        c.evictions.store(0, Ordering::Relaxed);
        c.writebacks.store(0, Ordering::Relaxed);
        c.prefetches.store(0, Ordering::Relaxed);
        c.fault_waits.store(0, Ordering::Relaxed);
        c.wb_coalesced.store(0, Ordering::Relaxed);
        c.dropped_prefetches.store(0, Ordering::Relaxed);
        c.advise_resident.store(0, Ordering::Relaxed);
        c.io_stall_ns.store(0, Ordering::Relaxed);
        c.evict_stall_ns.store(0, Ordering::Relaxed);
        c.page_checksum_failures.store(0, Ordering::Relaxed);
        c.page_reread_retries.store(0, Ordering::Relaxed);
        self.core.io.reset_stats();
    }

    /// Check structural invariants; panics on violation. Intended for
    /// tests on a quiescent cache: map and frame table must form a
    /// bijection, no page may occupy two frames, and nothing may be
    /// mid-fault.
    pub fn validate(&self) {
        self.core.quiesce();
        for (si, slot) in self.core.shards.iter().enumerate() {
            let shard = slot.lock();
            let mut seen = vec![false; shard.frames.len()];
            for (&page, &s) in &shard.map {
                let Slot::Present(idx) = s else {
                    panic!("shard {si}: page {page} still faulting on a quiescent cache");
                };
                assert!(idx < shard.frames.len(), "shard {si}: frame index out of range");
                assert!(!seen[idx], "shard {si}: frame {idx} mapped by two pages");
                seen[idx] = true;
                assert_eq!(shard.frames[idx].page_no, page, "shard {si}: map/frame mismatch");
                assert!(!shard.frames[idx].limbo, "shard {si}: mapped frame in limbo");
            }
            for (idx, frame) in shard.frames.iter().enumerate() {
                assert!(!frame.limbo, "shard {si}: limbo frame on a quiescent cache");
                assert!(seen[idx], "shard {si}: frame {idx} (page {}) unmapped", frame.page_no);
            }
            assert!(shard.frames.len() <= shard.capacity, "shard {si}: over capacity");
        }
    }
}

/// Plain-data snapshot of cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub writebacks: u64,
    /// Pages faulted by sequential readahead rather than demand misses.
    pub prefetches: u64,
    /// Accesses that found their page mid-fill and waited for it instead
    /// of issuing a duplicate device read.
    pub fault_waits: u64,
    /// Write-back tickets skipped because a newer generation of the page
    /// superseded them before they reached the device.
    pub wb_coalesced: u64,
    /// Prefetch requests dropped (queue full) or released (no free frame).
    pub dropped_prefetches: u64,
    /// Pages an [`PageCache::advise`] hint found cached or already being
    /// filled, and so did not queue.
    pub advise_resident: u64,
    /// Time callers spent blocked on I/O: demand fills, waits on in-flight
    /// fills, and (sync mode) inline readahead.
    pub io_stall_ns: u64,
    /// Time callers spent writing dirty victims inline — the eviction
    /// stall that write-behind exists to remove.
    pub evict_stall_ns: u64,
    /// Fills whose bytes mismatched the page's write-back checksum.
    /// Every detection triggered re-reads (or, for prefetch, a released
    /// claim) — none of these pages was served corrupt.
    pub page_checksum_failures: u64,
    /// Device re-reads issued to recover checksum-failed fills.
    pub page_reread_retries: u64,
}

impl CacheStatsSnapshot {
    /// What happened since the earlier snapshot `before` of the same cache
    /// (every field is an additive counter). Saturating, so a
    /// `reset_stats` in between reads as "since the reset".
    pub fn since(&self, before: &Self) -> Self {
        Self {
            hits: self.hits.saturating_sub(before.hits),
            misses: self.misses.saturating_sub(before.misses),
            evictions: self.evictions.saturating_sub(before.evictions),
            writebacks: self.writebacks.saturating_sub(before.writebacks),
            prefetches: self.prefetches.saturating_sub(before.prefetches),
            fault_waits: self.fault_waits.saturating_sub(before.fault_waits),
            wb_coalesced: self.wb_coalesced.saturating_sub(before.wb_coalesced),
            dropped_prefetches: self.dropped_prefetches.saturating_sub(before.dropped_prefetches),
            advise_resident: self.advise_resident.saturating_sub(before.advise_resident),
            io_stall_ns: self.io_stall_ns.saturating_sub(before.io_stall_ns),
            evict_stall_ns: self.evict_stall_ns.saturating_sub(before.evict_stall_ns),
            page_checksum_failures: self
                .page_checksum_failures
                .saturating_sub(before.page_checksum_failures),
            page_reread_retries: self
                .page_reread_retries
                .saturating_sub(before.page_reread_retries),
        }
    }

    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::device::{DeviceProfile, MemDevice, SimNvram};

    fn cache(pages: usize, page_size: usize) -> (Arc<MemDevice>, PageCache) {
        let dev = Arc::new(MemDevice::new());
        let c = PageCache::new(
            Arc::clone(&dev) as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size,
                capacity_pages: pages,
                shards: 2,
                ..PageCacheConfig::default()
            },
        );
        (dev, c)
    }

    #[test]
    fn read_write_roundtrip_within_page() {
        let (_dev, c) = cache(8, 64);
        c.write_at(5, b"havoq");
        let mut buf = [0u8; 5];
        c.read_at(5, &mut buf);
        assert_eq!(&buf, b"havoq");
    }

    #[test]
    fn read_write_spanning_pages() {
        let (_dev, c) = cache(8, 64);
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        c.write_at(30, &data);
        let mut buf = vec![0u8; 200];
        c.read_at(30, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn writeback_on_flush() {
        let (dev, c) = cache(8, 64);
        c.write_at(0, &[7u8; 64]);
        assert_eq!(dev.stats().writes, 0, "write-back: nothing hits device yet");
        c.flush();
        assert_eq!(dev.stats().writes, 1);
        let mut raw = [0u8; 64];
        dev.read_at(0, &mut raw);
        assert_eq!(raw, [7u8; 64]);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (dev, c) = cache(2, 64); // 1 page per shard
                                     // page numbers map to shards by page_no % 2; use pages 0,2,4 (shard 0)
        c.write_at(0, &[1u8; 64]); // page 0
        c.write_at(2 * 64, &[2u8; 64]); // page 2: evicts page 0
        c.write_at(4 * 64, &[3u8; 64]); // page 4: evicts page 2
        let s = c.stats();
        assert!(s.evictions >= 2, "expected evictions, got {s:?}");
        assert!(s.writebacks >= 2);
        // evicted data must be durable
        let mut buf = [0u8; 64];
        dev.read_at(0, &mut buf);
        assert_eq!(buf, [1u8; 64]);
    }

    #[test]
    fn data_survives_eviction_roundtrip() {
        let (_dev, c) = cache(4, 32);
        let n = 64usize; // 64 pages worth, far exceeding capacity
        for i in 0..n {
            c.write_at((i * 32) as u64, &[i as u8; 32]);
        }
        for i in 0..n {
            let mut buf = [0u8; 32];
            c.read_at((i * 32) as u64, &mut buf);
            assert_eq!(buf, [i as u8; 32], "page {i}");
        }
        c.validate();
    }

    #[test]
    fn hit_rate_reflects_locality() {
        let (_dev, c) = cache(4, 64);
        c.write_at(0, &[1u8; 8]);
        for _ in 0..99 {
            let mut b = [0u8; 8];
            c.read_at(0, &mut b);
        }
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 99);
        assert!(s.hit_rate() > 0.98);
    }

    #[test]
    fn clock_eviction_order_is_second_chance() {
        // capacity 2 in one shard. A, B load with reference bits set; C's
        // eviction scan clears A then B and takes the first frame after the
        // wrapped hand (A). B must survive the scan and still hit.
        let dev = Arc::new(MemDevice::new());
        let c = PageCache::new(
            dev as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 64,
                capacity_pages: 2,
                shards: 1,
                ..PageCacheConfig::default()
            },
        );
        let mut b = [0u8; 1];
        c.read_at(0, &mut b); // A: miss
        c.read_at(64, &mut b); // B: miss
        c.read_at(0, &mut b); // A: hit
        c.read_at(128, &mut b); // C: miss, scan clears A and B, evicts A
        c.read_at(64, &mut b); // B survived the scan: hit
        let s = c.stats();
        assert_eq!((s.misses, s.hits), (3, 2), "{s:?}");

        // after the scan, B and C carry cleared/fresh bits; touching C gives
        // it a second chance over B on the next eviction
        c.read_at(128, &mut b); // C: hit, referenced
        c.read_at(192, &mut b); // D: miss, evicts B (unreferenced), not C
        c.read_at(128, &mut b); // C must still be cached
        let s = c.stats();
        assert_eq!(s.misses, 4, "{s:?}");
        assert_eq!(s.hits, 4, "{s:?}");
    }

    #[test]
    fn clear_produces_cold_cache() {
        let (_dev, c) = cache(8, 64);
        c.write_at(0, &[9u8; 64]);
        c.clear();
        c.reset_stats();
        let mut b = [0u8; 64];
        c.read_at(0, &mut b);
        assert_eq!(b, [9u8; 64], "clear must flush, not lose data");
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn readahead_converts_misses_to_hits() {
        let dev = Arc::new(MemDevice::new());
        dev.write_at(0, &vec![7u8; 64 * 64]);
        let c = PageCache::new(
            dev as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 64,
                capacity_pages: 32,
                shards: 2,
                readahead_pages: 4,
                ..PageCacheConfig::default()
            },
        );
        // sequential page-by-page scan: with readahead 4, only every 5th
        // page is a demand miss
        let mut b = [0u8; 64];
        for page in 0..30u64 {
            c.read_at(page * 64, &mut b);
            assert_eq!(b, [7u8; 64]);
        }
        let s = c.stats();
        assert_eq!(s.misses, 6, "{s:?}");
        assert_eq!(s.hits, 24, "{s:?}");
        assert_eq!(s.prefetches, 24, "{s:?}");
    }

    #[test]
    fn readahead_preserves_correctness_with_tiny_cache() {
        let dev = Arc::new(MemDevice::new());
        let c = PageCache::new(
            dev as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 64,
                capacity_pages: 2,
                shards: 1,
                readahead_pages: 8,
                ..PageCacheConfig::default()
            },
        );
        for i in 0..64u64 {
            c.write_at(i * 8, &i.to_le_bytes());
        }
        for i in 0..64u64 {
            let mut b = [0u8; 8];
            c.read_at(i * 8, &mut b);
            assert_eq!(u64::from_le_bytes(b), i);
        }
    }

    #[test]
    fn readahead_clamps_at_end_of_data() {
        // Regression: readahead past the last allocated page must not
        // fault in (or charge device reads for) pages that don't exist.
        let dev = Arc::new(MemDevice::new());
        dev.write_at(0, &[9u8; 8 * 64]); // exactly 8 pages of real data
        let c = PageCache::new(
            Arc::clone(&dev) as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 64,
                capacity_pages: 32,
                shards: 2,
                readahead_pages: 16,
                ..PageCacheConfig::default()
            },
        );
        let mut b = [0u8; 64];
        c.read_at(6 * 64, &mut b); // miss on page 6 -> window 7..23 clamps to {7}
        assert_eq!(b, [9u8; 64]);
        let s = c.stats();
        assert_eq!(s.prefetches, 1, "window must clamp to the one existing page: {s:?}");
        assert!(
            dev.stats().bytes_read <= 8 * 64,
            "read past end of device: {} bytes",
            dev.stats().bytes_read
        );
        // the last page itself must still readahead-hit
        c.read_at(7 * 64, &mut b);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn note_len_bounds_readahead_on_empty_device() {
        // Allocations announced via note_len (ExtStore::alloc does this)
        // bound the window even before any byte reaches the device.
        let dev = Arc::new(MemDevice::new());
        let c = PageCache::new(
            Arc::clone(&dev) as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 64,
                capacity_pages: 8,
                shards: 1,
                readahead_pages: 8,
                ..PageCacheConfig::default()
            },
        );
        c.note_len(3 * 64); // three pages allocated, zero on device
        let mut b = [0u8; 64];
        c.read_at(0, &mut b); // miss on 0 -> window 1..9 clamps to {1, 2}
        assert_eq!(b, [0u8; 64]);
        assert_eq!(c.stats().prefetches, 2, "{:?}", c.stats());
    }

    #[test]
    fn shard_capacity_remainder_is_distributed() {
        // Regression: 129 pages / 8 shards used to silently cache 128.
        let dev = Arc::new(MemDevice::new());
        let c = PageCache::new(
            dev as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 64,
                capacity_pages: 129,
                shards: 8,
                ..PageCacheConfig::default()
            },
        );
        // total frames across shards equal the configured capacity
        let frames = |c: &PageCache| -> usize {
            c.core.shards.iter().map(|s| s.m.lock().unwrap().capacity).sum()
        };
        assert_eq!(frames(&c), 129);
        let (_dev2, c2) = cache(8, 64);
        assert_eq!(frames(&c2), 8);
    }

    #[test]
    fn no_device_io_under_shard_lock() {
        // Regression: dirty victims used to be written (and demand fills
        // read) while holding the shard mutex, serializing every rank that
        // hashed to the shard behind multi-microsecond NAND accesses.
        let dev = Arc::new(MemDevice::new());
        let violations = Arc::new(AtomicU64::new(0));
        let v1 = Arc::clone(&violations);
        dev.add_read_hook(Arc::new(move |_, _| {
            if shard_lock_held() {
                v1.fetch_add(1, Ordering::Relaxed);
            }
        }));
        let v2 = Arc::clone(&violations);
        dev.add_write_hook(Arc::new(move |_, _| {
            if shard_lock_held() {
                v2.fetch_add(1, Ordering::Relaxed);
            }
        }));
        let c = PageCache::new(
            Arc::clone(&dev) as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 64,
                capacity_pages: 2,
                shards: 1,
                readahead_pages: 2,
                ..PageCacheConfig::default()
            },
        );
        // dirty evictions + demand fills + readahead + flush
        for i in 0..32u64 {
            c.write_at(i * 64, &[i as u8; 64]);
        }
        for i in 0..32u64 {
            let mut b = [0u8; 64];
            c.read_at(i * 64, &mut b);
            assert_eq!(b, [i as u8; 64]);
        }
        c.flush();
        let s = c.stats();
        assert!(s.writebacks > 0, "workload must exercise write-back: {s:?}");
        assert_eq!(
            violations.load(Ordering::Relaxed),
            0,
            "device I/O performed while holding a shard lock"
        );
    }

    #[test]
    fn eviction_stall_is_measured_in_sync_mode() {
        let dev = Arc::new(SimNvram::new(
            MemDevice::new(),
            DeviceProfile {
                name: "t",
                read_latency_ns: 0,
                write_latency_ns: 50_000,
                concurrency: 8,
            },
        ));
        let c = PageCache::new(
            dev as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 64,
                capacity_pages: 2,
                shards: 1,
                ..PageCacheConfig::default()
            },
        );
        for i in 0..8u64 {
            c.write_at(i * 64, &[i as u8; 64]);
        }
        let s = c.stats();
        assert!(s.writebacks > 0, "{s:?}");
        assert!(s.evict_stall_ns >= 50_000, "inline victim writes must be timed: {s:?}");
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let dev = Arc::new(MemDevice::new());
        let c = Arc::new(PageCache::new(
            dev as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 256,
                capacity_pages: 16,
                shards: 4,
                ..PageCacheConfig::default()
            },
        ));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let base = t * 1_000_000;
                for i in 0..500u64 {
                    c.write_at(base + i * 8, &(t * 1000 + i).to_le_bytes());
                }
                for i in 0..500u64 {
                    let mut b = [0u8; 8];
                    c.read_at(base + i * 8, &mut b);
                    assert_eq!(u64::from_le_bytes(b), t * 1000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        c.validate();
    }

    #[test]
    fn async_roundtrip_with_readahead_and_writeback() {
        let dev = Arc::new(SimNvram::new(MemDevice::new(), DeviceProfile::fusion_io()));
        let c = PageCache::new(
            Arc::clone(&dev) as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 64,
                capacity_pages: 8,
                shards: 2,
                readahead_pages: 4,
                io: IoConfig::asynchronous(),
            },
        );
        let n = 64usize;
        for i in 0..n {
            c.write_at((i * 64) as u64, &[i as u8; 64]);
        }
        for i in 0..n {
            let mut b = [0u8; 64];
            c.read_at((i * 64) as u64, &mut b);
            assert_eq!(b, [i as u8; 64], "page {i}");
        }
        c.flush();
        // durability: raw device holds everything after flush
        for i in 0..n {
            let mut b = [0u8; 64];
            dev.read_at((i * 64) as u64, &mut b);
            assert_eq!(b, [i as u8; 64], "device page {i}");
        }
        c.validate();
        let s = c.stats();
        assert_eq!(s.accesses(), s.hits + s.misses);
        let io = c.io_stats();
        assert_eq!(io.mode, IoMode::Async);
        assert!(io.workers > 0);
    }

    #[test]
    fn async_advise_prefetches_in_background() {
        let dev = Arc::new(MemDevice::new());
        dev.write_at(0, &vec![5u8; 32 * 64]);
        let c = PageCache::new(
            dev as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 64,
                capacity_pages: 64,
                shards: 4,
                io: IoConfig::asynchronous(),
                ..PageCacheConfig::default()
            },
        );
        c.advise(0, 32 * 64);
        c.flush(); // quiesces the engine
        let s = c.stats();
        assert_eq!(s.prefetches, 32, "{s:?}");
        // all subsequent reads hit
        let mut b = [0u8; 64];
        for p in 0..32u64 {
            c.read_at(p * 64, &mut b);
            assert_eq!(b, [5u8; 64]);
        }
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (32, 0), "{s:?}");
        assert!(c.io_stats().depth_hist.count() > 0);
    }

    #[test]
    fn async_drop_joins_workers_cleanly() {
        let dev = Arc::new(MemDevice::new());
        let c = PageCache::new(
            dev as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 64,
                capacity_pages: 8,
                shards: 2,
                readahead_pages: 8,
                io: IoConfig::asynchronous(),
            },
        );
        c.write_at(0, &[1u8; 256]);
        let mut b = [0u8; 256];
        c.read_at(0, &mut b);
        drop(c); // must not hang or leak panics
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_page_size_rejected() {
        let dev = Arc::new(MemDevice::new());
        let _ = PageCache::new(
            dev as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 100,
                capacity_pages: 8,
                shards: 2,
                ..PageCacheConfig::default()
            },
        );
    }

    /// [`MemDevice`] wrapper that runs a one-shot hook after servicing a
    /// read — models external state changing right after a bulk snapshot
    /// was taken but before it is consumed.
    struct HookDevice {
        inner: Arc<MemDevice>,
        after_read: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl BlockDevice for HookDevice {
        fn read_at(&self, offset: u64, buf: &mut [u8]) {
            self.inner.read_at(offset, buf);
            if let Some(h) = self.after_read.lock().unwrap().take() {
                h();
            }
        }
        fn write_at(&self, offset: u64, buf: &[u8]) {
            self.inner.write_at(offset, buf);
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn stats(&self) -> crate::device::DeviceStatsSnapshot {
            self.inner.stats()
        }
    }

    #[test]
    fn prefetch_fill_not_stale_when_writeback_lands_mid_window() {
        // Regression: a queued write-back that completes between
        // do_prefetch's bulk device snapshot and its per-page fill removes
        // its registry entry, so a post-snapshot lookup misses it and the
        // pre-write-back snapshot bytes would be installed (lost update).
        // The fill must use bytes pinned at claim time instead.
        let inner = Arc::new(MemDevice::new());
        inner.write_at(0, &[0xAA; 64]); // page 0: pre-write-back bytes
        inner.write_at(64, &[0xBB; 64]); // page 1
        let hooked =
            Arc::new(HookDevice { inner: Arc::clone(&inner), after_read: Mutex::new(None) });
        let c = PageCache::new(
            Arc::clone(&hooked) as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 64,
                capacity_pages: 4,
                shards: 1,
                ..PageCacheConfig::default()
            },
        );
        // A dirty victim of page 0 is in flight: its newest bytes sit in
        // the registry, queued for write-back.
        let pw = c.core.registry.register(0, &[0xCC; 64]);
        // The write-back completes immediately after the prefetch's bulk
        // snapshot (which still read 0xAA) and removes the registry entry.
        let core = Arc::clone(&c.core);
        let dev = Arc::clone(&inner) as Arc<dyn BlockDevice>;
        *hooked.after_read.lock().unwrap() = Some(Box::new(move || {
            let _ = core.registry.perform(&pw, &dev, 64, |_, _| ());
        }));
        c.core.do_prefetch(0, 2);
        let mut b = [0u8; 64];
        c.read_at(0, &mut b);
        assert_eq!(b, [0xCC; 64], "prefetch installed pre-write-back bytes");
        c.read_at(64, &mut b);
        assert_eq!(b, [0xBB; 64]);
        c.validate();
    }

    #[test]
    fn advise_past_extent_is_clamped() {
        let dev = Arc::new(MemDevice::new());
        dev.write_at(0, &[7u8; 4 * 64]); // 4 pages exist
        let c = PageCache::new(
            dev as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 64,
                capacity_pages: 16,
                shards: 2,
                io: IoConfig::asynchronous(),
                ..PageCacheConfig::default()
            },
        );
        // Entirely past the extent: nothing may reach the bounded queue.
        c.advise(100 * 64, 64 * 64);
        c.flush(); // quiesces the engine
        assert_eq!(c.io_stats().depth_hist.count(), 0, "past-EOF hints must not be submitted");
        // Overlapping the end: clamped to the pages that exist.
        c.advise(0, 1_000_000);
        c.flush();
        let s = c.stats();
        assert_eq!(s.prefetches, 4, "{s:?}");
        assert_eq!(s.dropped_prefetches, 0, "{s:?}");
    }

    fn async_cache(dev: Arc<dyn BlockDevice>, capacity_pages: usize) -> PageCache {
        PageCache::new(
            dev,
            PageCacheConfig {
                page_size: 64,
                capacity_pages,
                shards: 2,
                io: IoConfig::asynchronous(),
                ..PageCacheConfig::default()
            },
        )
    }

    #[test]
    fn advise_over_resident_range_queues_nothing() {
        let dev = Arc::new(MemDevice::new());
        dev.write_at(0, &[3u8; 8 * 64]);
        let c = async_cache(dev, 16);
        c.advise(0, 8 * 64);
        c.flush();
        assert_eq!(c.stats().prefetches, 8, "{:?}", c.stats());
        c.reset_stats();
        c.advise(0, 8 * 64);
        c.advise(100, 300); // pages 1..=6, unaligned ends
        assert_eq!(c.io_stats().depth_hist.count(), 0, "a resident hint reached the queue");
        let s = c.stats();
        assert_eq!(s.advise_resident, 8 + 6, "{s:?}");
        assert_eq!((s.prefetches, s.dropped_prefetches), (0, 0), "{s:?}");
    }

    #[test]
    fn advise_queues_only_absent_runs() {
        let dev = Arc::new(MemDevice::new());
        dev.write_at(0, &[4u8; 12 * 64]);
        let c = async_cache(dev, 16);
        let mut b = [0u8; 64];
        for page in [0u64, 1, 2, 3, 6] {
            c.read_at(page * 64, &mut b); // demand faults; no readahead
        }
        c.reset_stats();
        // Absent runs {4, 5} and {7..=11}: two requests, seven pages.
        c.advise(0, 12 * 64);
        c.flush();
        assert_eq!(c.io_stats().depth_hist.count(), 2, "{:?}", c.io_stats());
        let s = c.stats();
        assert_eq!(s.advise_resident, 5, "{s:?}");
        assert_eq!(s.prefetches, 7, "{s:?}");
        for page in 0..12u64 {
            c.read_at(page * 64, &mut b);
            assert_eq!(b, [4u8; 64], "page {page}");
        }
        assert_eq!(c.stats().misses, 0, "{:?}", c.stats());
        c.validate();
    }

    #[test]
    fn flush_wakes_after_worker_queues_victim_writeback() {
        // Lost-wakeup regression. A flush is parked in quiesce while a
        // worker's prefetch evicts two dirty victims and queues their
        // write-backs. Those pushes must wake a worker, not the parked
        // flush, and the completion that drains the engine must wake the
        // flush.
        use std::sync::mpsc;
        let inner = Arc::new(MemDevice::new());
        inner.write_at(0, &[0u8; 4 * 64]);
        let hooked =
            Arc::new(HookDevice { inner: Arc::clone(&inner), after_read: Mutex::new(None) });
        let c = Arc::new(PageCache::new(
            Arc::clone(&hooked) as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 64,
                capacity_pages: 2,
                shards: 1,
                readahead_pages: 0,
                io: IoConfig::asynchronous(),
            },
        ));
        c.write_at(0, &[1u8; 64]);
        c.write_at(64, &[2u8; 64]); // both frames now dirty
        let (started_tx, started_rx) = mpsc::channel();
        *hooked.after_read.lock().unwrap() = Some(Box::new(move || {
            started_tx.send(()).unwrap();
            // hold the prefetch in its bulk read while the flush parks
            std::thread::sleep(Duration::from_millis(50));
        }));
        c.advise(2 * 64, 2 * 64); // pages 2 and 3: absent, one request
        started_rx.recv_timeout(Duration::from_secs(10)).expect("prefetch never started");
        let (done_tx, done_rx) = mpsc::channel();
        let flusher = Arc::clone(&c);
        let h = std::thread::spawn(move || {
            flusher.flush();
            done_tx.send(()).unwrap();
        });
        done_rx.recv_timeout(Duration::from_secs(10)).expect("flush never woke");
        h.join().unwrap();
        let s = c.stats();
        assert_eq!((s.prefetches, s.evictions, s.writebacks), (2, 2, 2), "{s:?}");
        let mut b = [0u8; 64];
        inner.read_at(0, &mut b);
        assert_eq!(b, [1u8; 64]);
        inner.read_at(64, &mut b);
        assert_eq!(b, [2u8; 64]);
        c.validate();
    }

    #[test]
    fn transient_read_corruption_is_detected_and_retried() {
        let (dev, c) = cache(8, 64);
        let n = 64u64;
        for i in 0..n {
            c.write_at(i * 64, &[i as u8; 64]);
        }
        c.clear(); // flush (records per-page checksums) + drop every frame
        assert_eq!(c.stats().page_checksum_failures, 0);
        dev.set_read_corruption(400, 0x0BAD_5EED);
        c.reset_stats();
        for i in 0..n {
            let mut b = [0u8; 64];
            c.read_at(i * 64, &mut b);
            assert_eq!(b, [i as u8; 64], "page {i} served corrupt bytes");
        }
        let s = c.stats();
        assert!(s.page_checksum_failures > 0, "400permille must corrupt some fills: {s:?}");
        assert!(s.page_reread_retries >= s.page_checksum_failures, "{s:?}");
        assert!(dev.reads_corrupted() >= s.page_checksum_failures, "{s:?}");
        dev.set_read_corruption(0, 0);
        c.validate();
    }

    #[test]
    fn prefetch_checksum_failure_falls_back_to_demand_fill() {
        let dev = Arc::new(MemDevice::new());
        let c = PageCache::new(
            Arc::clone(&dev) as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 64,
                capacity_pages: 16,
                shards: 2,
                readahead_pages: 4,
                ..PageCacheConfig::default()
            },
        );
        let n = 48u64;
        for i in 0..n {
            c.write_at(i * 64, &[(i + 1) as u8; 64]);
        }
        c.clear();
        dev.set_read_corruption(300, 77);
        c.reset_stats();
        for i in 0..n {
            let mut b = [0u8; 64];
            c.read_at(i * 64, &mut b);
            assert_eq!(b, [(i + 1) as u8; 64], "page {i} served corrupt bytes");
        }
        let s = c.stats();
        assert!(s.page_checksum_failures > 0, "bulk reads must trip verification: {s:?}");
        dev.set_read_corruption(0, 0);
        c.validate();
    }

    #[test]
    fn unwritten_pages_are_unverifiable_but_served() {
        // Pages that never went through cache write-back (pre-populated
        // device) carry no checksum; corruption there is out of the
        // cache's contract and must not trip false quarantines.
        let dev = Arc::new(MemDevice::new());
        dev.write_at(0, &[9u8; 4 * 64]); // direct device write, no CRCs
        let c = PageCache::new(
            Arc::clone(&dev) as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 64,
                capacity_pages: 8,
                shards: 2,
                ..PageCacheConfig::default()
            },
        );
        dev.set_read_corruption(1000, 5); // every read flips a bit
        let mut b = [0u8; 64];
        c.read_at(0, &mut b); // must not panic
        assert_eq!(c.stats().page_checksum_failures, 0);
        dev.set_read_corruption(0, 0);
    }

    #[test]
    #[should_panic(expected = "stored data is corrupt")]
    fn persistent_corruption_is_quarantined() {
        // Corrupt the *stored* bytes behind the cache's back: re-reads
        // cannot recover, so the fill must refuse to serve the page.
        let (dev, c) = cache(8, 64);
        c.write_at(0, &[1u8; 64]);
        c.clear(); // checksum recorded, frame dropped
        dev.write_at(0, &[2u8; 64]); // silent out-of-band overwrite
        let mut b = [0u8; 64];
        c.read_at(0, &mut b);
    }

    #[test]
    fn checksums_track_latest_writeback_generation() {
        // Rewrite the same page repeatedly through eviction cycles; the
        // recorded checksum must always describe the newest durable bytes.
        let (dev, c) = cache(2, 64);
        for round in 0..8u8 {
            c.write_at(0, &[round; 64]); // page 0
            c.write_at(2 * 64, &[round; 64]); // page 2: same shard, evicts 0
            c.write_at(4 * 64, &[round; 64]); // page 4: evicts 2
        }
        c.flush();
        dev.set_read_corruption(400, 99);
        for page in [0u64, 2, 4] {
            let mut b = [0u8; 64];
            c.read_at(page * 64, &mut b);
            assert_eq!(b, [7u8; 64], "page {page}");
        }
        dev.set_read_corruption(0, 0);
        c.validate();
    }
}
