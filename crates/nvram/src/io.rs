//! The asynchronous I/O engine under the page cache.
//!
//! Section II-B of the paper is explicit that NAND Flash only delivers its
//! bandwidth under *highly concurrent asynchronous I/O*. This module
//! provides that concurrency for the reproduction:
//!
//! - a bounded request queue whose depth is tied to the device's channel
//!   parallelism ([`crate::device::BlockDevice::concurrency_hint`]), so
//!   "queue depth" in the stats measures pressure against the device's real
//!   parallelism rather than an arbitrary buffer;
//! - a pool of background I/O workers draining that queue — readahead
//!   windows are *issued* by the faulting rank and filled in the
//!   background, and dirty eviction victims are queued for write-behind
//!   instead of being written while the victim's shard lock is held;
//! - a `WritebackRegistry` that keeps the bytes of in-flight victims
//!   visible to concurrent faults, closing the window where a page has
//!   left the cache but not yet reached the device.
//!
//! Submission never blocks: if the queue is full, writebacks are performed
//! inline by the submitter (back-pressure) and prefetches are dropped
//! (they are hints). This is what makes the engine deadlock-free — no
//! thread ever sleeps on queue space while holding cache state that a
//! worker needs.
//!
//! ## Write-behind ordering guarantees
//!
//! Each registered victim gets a globally increasing generation number.
//! A worker performing a write-back (a) skips the write entirely if a
//! newer generation of the same page has since been registered
//! (coalescing), and (b) waits for any in-flight older write of the same
//! page before starting, so device contents always converge to the newest
//! generation. Faults consult the registry before reading the device, so
//! a page can never be re-faulted from stale device bytes while its
//! newest contents are still queued.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use havoq_util::{FxHashMap, Histogram};

use crate::cache::CacheCore;
use crate::device::BlockDevice;

/// Whether the cache services faults synchronously (the original blocking
/// behaviour) or through the background I/O engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IoMode {
    /// Demand faults, readahead, and dirty-victim writes all happen on the
    /// accessing thread. Deterministic; the baseline for figure runs.
    #[default]
    Sync,
    /// Readahead and victim write-back are queued to background workers;
    /// the accessing thread only blocks on its own demand fill.
    Async,
}

/// Configuration of the I/O engine, embedded in
/// [`crate::cache::PageCacheConfig`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoConfig {
    pub mode: IoMode,
}

impl IoConfig {
    /// Asynchronous engine; worker pool and queue are sized from the device.
    pub fn asynchronous() -> Self {
        Self { mode: IoMode::Async }
    }
}

/// A queued unit of background I/O.
pub(crate) enum IoRequest {
    /// Fill pages `first .. first + count` if absent.
    Prefetch { first: u64, count: usize },
    /// Write a registered eviction victim back to the device.
    WriteBack(PendingWriteback),
    /// Terminate one worker (queued behind outstanding work).
    Shutdown,
}

/// Shared state between submitters and the worker pool: the bounded queue
/// plus the observability counters (queue-depth histogram, outstanding
/// gauge, per-op service time).
///
/// Two condvars, one per kind of sleeper, both paired with the queue
/// mutex: idle workers wait on `work`, [`Self::quiesce`] callers on
/// `idle`. A push wakes one worker and nobody else; only the completion
/// that drains `outstanding` to zero wakes the quiesce callers. Narrow
/// wakes need the split: on one shared condvar a push's `notify_one` can
/// land on a parked quiesce caller instead of an idle worker (say, the
/// write-back of a victim a worker's prefetch evicts while a flush waits).
pub(crate) struct IoShared {
    depth: usize,
    workers: usize,
    q: Mutex<VecDeque<IoRequest>>,
    /// Idle workers sleep here; one `notify_one` per push.
    work: Condvar,
    /// Quiesce callers sleep here; notified when `outstanding` drains.
    idle: Condvar,
    /// Requests submitted but not yet completed (queued + in service).
    outstanding: AtomicU64,
    peak: AtomicU64,
    depth_hist: Mutex<Histogram>,
    service_ns: AtomicU64,
    service_ops: AtomicU64,
}

impl IoShared {
    pub(crate) fn new(depth: usize, workers: usize) -> Self {
        Self {
            depth,
            workers,
            q: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            idle: Condvar::new(),
            outstanding: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            depth_hist: Mutex::new(Histogram::new()),
            service_ns: AtomicU64::new(0),
            service_ops: AtomicU64::new(0),
        }
    }

    /// Non-blocking submit. On a full queue the request is handed back to
    /// the caller, who must resolve it (perform inline / drop) — never
    /// sleep on queue space.
    pub(crate) fn try_push(&self, req: IoRequest) -> Result<(), IoRequest> {
        let mut q = self.q.lock().unwrap();
        if q.len() >= self.depth {
            return Err(req);
        }
        q.push_back(req);
        let now = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
        self.depth_hist.lock().unwrap().record(now);
        self.work.notify_one();
        Ok(())
    }

    /// Queue a shutdown token behind all outstanding work; not bounded and
    /// not counted as outstanding I/O.
    pub(crate) fn push_shutdown(&self) {
        self.q.lock().unwrap().push_back(IoRequest::Shutdown);
        self.work.notify_all();
    }

    /// Blocking dequeue (worker side).
    pub(crate) fn pop(&self) -> IoRequest {
        let mut q = self.q.lock().unwrap();
        loop {
            if let Some(req) = q.pop_front() {
                return req;
            }
            q = self.work.wait(q).unwrap();
        }
    }

    /// Mark one submitted request finished; the one that drains the
    /// engine wakes the quiesce callers. The notify takes the queue lock,
    /// so a caller that read a nonzero count under that lock is already
    /// parked on `idle` when it arrives. `AcqRel` here and `Acquire` in
    /// `quiesce` order the worker's writes before a return that sees zero
    /// without waiting.
    pub(crate) fn complete(&self) {
        if self.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _q = self.q.lock().unwrap();
            self.idle.notify_all();
        }
    }

    /// Wait until every submitted request has completed.
    pub(crate) fn quiesce(&self) {
        let mut q = self.q.lock().unwrap();
        while self.outstanding.load(Ordering::Acquire) > 0 {
            q = self.idle.wait(q).unwrap();
        }
    }

    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    pub(crate) fn record_service(&self, d: Duration) {
        self.service_ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.service_ops.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn reset_stats(&self) {
        *self.depth_hist.lock().unwrap() = Histogram::new();
        self.peak.store(0, Ordering::Relaxed);
        self.service_ns.store(0, Ordering::Relaxed);
        self.service_ops.store(0, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, mode: IoMode) -> IoStatsSnapshot {
        IoStatsSnapshot {
            mode,
            queue_depth: self.depth,
            workers: self.workers,
            outstanding: self.outstanding.load(Ordering::Relaxed),
            peak_outstanding: self.peak.load(Ordering::Relaxed),
            depth_hist: *self.depth_hist.lock().unwrap(),
            service_ns: self.service_ns.load(Ordering::Relaxed),
            service_ops: self.service_ops.load(Ordering::Relaxed),
        }
    }
}

/// Observability snapshot of the I/O engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoStatsSnapshot {
    pub mode: IoMode,
    /// Configured queue bound.
    pub queue_depth: usize,
    /// Worker pool size (0 in sync mode).
    pub workers: usize,
    /// Gauge: requests in flight at snapshot time.
    pub outstanding: u64,
    /// High-water mark of the outstanding gauge.
    pub peak_outstanding: u64,
    /// Queue depth sampled at every submission.
    pub depth_hist: Histogram,
    /// Total background service time (ns) across workers.
    pub service_ns: u64,
    /// Requests serviced by workers.
    pub service_ops: u64,
}

/// Ticket for one registered eviction victim.
#[derive(Debug)]
pub(crate) struct PendingWriteback {
    pub(crate) page_no: u64,
    pub(crate) gen: u64,
}

/// Result of performing one write-back ticket.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum WbOutcome {
    /// This ticket's generation reached the device.
    Written,
    /// A newer generation superseded it; nothing was written.
    Coalesced,
}

struct WbEntry {
    gen: u64,
    data: Arc<[u8]>,
    /// A worker is currently writing this page; later generations must
    /// wait so device contents never go backwards.
    writing: bool,
}

/// In-flight dirty victims: pages evicted from the cache whose newest
/// bytes have not yet reached the device.
///
/// Victims are registered *under the shard lock* at eviction time, so
/// between eviction and write-back completion any fault of the page finds
/// its bytes here instead of reading a stale device.
pub(crate) struct WritebackRegistry {
    m: Mutex<FxHashMap<u64, WbEntry>>,
    cv: Condvar,
    next_gen: AtomicU64,
}

impl WritebackRegistry {
    pub(crate) fn new() -> Self {
        Self {
            m: Mutex::new(FxHashMap::default()),
            cv: Condvar::new(),
            next_gen: AtomicU64::new(1),
        }
    }

    /// Record the newest bytes of an evicted dirty page. Returns the ticket
    /// that must later be resolved by exactly one [`Self::perform`] call
    /// (queued or inline).
    pub(crate) fn register(&self, page_no: u64, data: &[u8]) -> PendingWriteback {
        let gen = self.next_gen.fetch_add(1, Ordering::Relaxed);
        let mut m = self.m.lock().unwrap();
        match m.get_mut(&page_no) {
            Some(e) => {
                e.gen = gen;
                e.data = Arc::from(data);
            }
            None => {
                m.insert(page_no, WbEntry { gen, data: Arc::from(data), writing: false });
            }
        }
        PendingWriteback { page_no, gen }
    }

    /// Newest in-flight bytes for `page_no`, if any.
    pub(crate) fn lookup(&self, page_no: u64) -> Option<Arc<[u8]>> {
        self.m.lock().unwrap().get(&page_no).map(|e| Arc::clone(&e.data))
    }

    /// Resolve one ticket: write the page's newest bytes to the device, or
    /// coalesce if a newer generation superseded this ticket. Must not be
    /// called while holding a cache shard lock (it performs device I/O).
    ///
    /// `on_durable` runs under the registry lock, immediately before the
    /// entry is removed, and only when this ticket's bytes are the ones
    /// that became durable (no newer generation pending). The cache hangs
    /// its per-page checksum recording here: because record and removal
    /// share one critical section, a fault that misses the registry can
    /// never observe new device bytes with a stale checksum.
    pub(crate) fn perform(
        &self,
        pw: &PendingWriteback,
        device: &Arc<dyn BlockDevice>,
        page_size: usize,
        on_durable: impl FnOnce(u64, &[u8]),
    ) -> WbOutcome {
        let mut m = self.m.lock().unwrap();
        let data = loop {
            match m.get_mut(&pw.page_no) {
                // Entry gone: a performer carrying a generation >= ours
                // already wrote and removed it.
                None => return WbOutcome::Coalesced,
                Some(e) if e.gen > pw.gen => return WbOutcome::Coalesced,
                Some(e) if e.writing => {
                    // An older generation's write is in flight; wait so
                    // ours lands after it.
                    m = self.cv.wait(m).unwrap();
                }
                Some(e) => {
                    debug_assert_eq!(e.gen, pw.gen, "registry generations are monotone");
                    e.writing = true;
                    break Arc::clone(&e.data);
                }
            }
        };
        drop(m);
        device.write_at(pw.page_no * page_size as u64, &data);
        let mut m = self.m.lock().unwrap();
        if let Some(e) = m.get_mut(&pw.page_no) {
            e.writing = false;
            if e.gen == pw.gen {
                on_durable(pw.page_no, &data);
                m.remove(&pw.page_no);
            }
        }
        self.cv.notify_all();
        WbOutcome::Written
    }

    /// Block until no victims are in flight. Only meaningful after every
    /// outstanding ticket's performer has been scheduled (flush does this
    /// by quiescing the queue first).
    pub(crate) fn drain(&self) {
        let mut m = self.m.lock().unwrap();
        while !m.is_empty() {
            m = self.cv.wait(m).unwrap();
        }
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.m.lock().unwrap().is_empty()
    }
}

/// The background worker pool. Owned by the cache handle; dropping it
/// drains the queue (shutdown tokens queue behind outstanding work) and
/// joins the workers.
pub(crate) struct IoEngine {
    core: Arc<CacheCore>,
    handles: Vec<JoinHandle<()>>,
}

impl IoEngine {
    pub(crate) fn start(core: Arc<CacheCore>, workers: usize) -> Self {
        let handles = (0..workers)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("havoq-io-{i}"))
                    .spawn(move || worker_loop(core))
                    .expect("spawn io worker")
            })
            .collect();
        Self { core, handles }
    }
}

impl Drop for IoEngine {
    fn drop(&mut self) {
        for _ in &self.handles {
            self.core.io_shared().push_shutdown();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(core: Arc<CacheCore>) {
    loop {
        match core.io_shared().pop() {
            IoRequest::Shutdown => return,
            IoRequest::Prefetch { first, count } => {
                let t = Instant::now();
                core.do_prefetch(first, count);
                core.io_shared().record_service(t.elapsed());
                core.io_shared().complete();
            }
            IoRequest::WriteBack(pw) => {
                let t = Instant::now();
                core.perform_writeback(&pw);
                core.io_shared().record_service(t.elapsed());
                core.io_shared().complete();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    fn dev() -> Arc<dyn BlockDevice> {
        Arc::new(MemDevice::new())
    }

    #[test]
    fn queue_bounds_and_fifo_order() {
        let io = IoShared::new(2, 1);
        assert!(io.try_push(IoRequest::Prefetch { first: 1, count: 1 }).is_ok());
        assert!(io.try_push(IoRequest::Prefetch { first: 2, count: 1 }).is_ok());
        // full: handed back
        assert!(io.try_push(IoRequest::Prefetch { first: 3, count: 1 }).is_err());
        match io.pop() {
            IoRequest::Prefetch { first, .. } => assert_eq!(first, 1),
            _ => panic!("expected prefetch"),
        }
        io.complete();
        match io.pop() {
            IoRequest::Prefetch { first, .. } => assert_eq!(first, 2),
            _ => panic!("expected prefetch"),
        }
        io.complete();
        io.quiesce(); // all completed: returns immediately
        let s = io.snapshot(IoMode::Async);
        assert_eq!(s.outstanding, 0);
        assert_eq!(s.peak_outstanding, 2);
        assert_eq!(s.depth_hist.count(), 2);
        assert!(s.depth_hist.mean() > 0.0);
    }

    #[test]
    fn shutdown_is_unbounded() {
        let io = IoShared::new(1, 1);
        assert!(io.try_push(IoRequest::Prefetch { first: 0, count: 1 }).is_ok());
        io.push_shutdown(); // queue "full" but shutdown still lands
        assert!(matches!(io.pop(), IoRequest::Prefetch { .. }));
        io.complete();
        assert!(matches!(io.pop(), IoRequest::Shutdown));
    }

    #[test]
    fn registry_roundtrip_and_write() {
        let reg = WritebackRegistry::new();
        let d = dev();
        let pw = reg.register(3, &[7u8; 64]);
        assert_eq!(reg.lookup(3).as_deref(), Some(&[7u8; 64][..]));
        assert_eq!(reg.perform(&pw, &d, 64, |_, _| ()), WbOutcome::Written);
        assert!(reg.is_empty());
        let mut buf = [0u8; 64];
        d.read_at(3 * 64, &mut buf);
        assert_eq!(buf, [7u8; 64]);
    }

    #[test]
    fn registry_coalesces_superseded_generations() {
        let reg = WritebackRegistry::new();
        let d = dev();
        let old = reg.register(5, &[1u8; 32]);
        let new = reg.register(5, &[2u8; 32]);
        // old ticket: superseded, nothing written
        assert_eq!(reg.perform(&old, &d, 32, |_, _| ()), WbOutcome::Coalesced);
        assert_eq!(d.stats().writes, 0);
        // new ticket writes the newest bytes and clears the entry
        assert_eq!(reg.perform(&new, &d, 32, |_, _| ()), WbOutcome::Written);
        assert!(reg.is_empty());
        let mut buf = [0u8; 32];
        d.read_at(5 * 32, &mut buf);
        assert_eq!(buf, [2u8; 32]);
    }

    #[test]
    fn registry_perform_after_removal_coalesces() {
        let reg = WritebackRegistry::new();
        let d = dev();
        let a = reg.register(9, &[3u8; 16]);
        let b = reg.register(9, &[4u8; 16]);
        assert_eq!(reg.perform(&b, &d, 16, |_, _| ()), WbOutcome::Written);
        assert_eq!(reg.perform(&a, &d, 16, |_, _| ()), WbOutcome::Coalesced);
        assert_eq!(d.stats().writes, 1);
    }

    #[test]
    fn registry_lookup_sees_newest_generation() {
        let reg = WritebackRegistry::new();
        reg.register(1, &[1u8; 8]);
        reg.register(1, &[9u8; 8]);
        assert_eq!(reg.lookup(1).as_deref(), Some(&[9u8; 8][..]));
        assert_eq!(reg.lookup(2), None);
    }

    #[test]
    fn registry_drain_waits_for_performers() {
        let reg = Arc::new(WritebackRegistry::new());
        let d = dev();
        let pw = reg.register(2, &[8u8; 32]);
        let r2 = Arc::clone(&reg);
        let d2 = Arc::clone(&d);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            r2.perform(&pw, &d2, 32, |_, _| ())
        });
        reg.drain(); // blocks until the performer removes the entry
        assert!(reg.is_empty());
        assert_eq!(h.join().unwrap(), WbOutcome::Written);
    }
}
