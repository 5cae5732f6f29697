//! Dependency-free intra-rank parallelism primitives.
//!
//! The traversal core runs each simulated rank on one OS thread; the
//! worker-pool refactor (DESIGN.md §11) adds a small set of primitives so
//! a rank can fan visitor execution out to a pool of worker threads
//! without pulling in rayon/crossbeam (the build environment has no
//! registry access):
//!
//! - [`WorkerPool`]: a persistent pool with a scoped `broadcast` — every
//!   worker runs the same closure (borrowing from the caller's stack) and
//!   `broadcast` does not return until all of them finish, so plain
//!   references into the coordinator's frame are sound to share.
//! - [`AtomicBitVec`]: a bit-per-index atomic bitmap, usable both as a
//!   visited/dirty set (`test_and_set`) and as an array of one-bit
//!   spinlocks (`lock`/`unlock`) guarding per-vertex state slots.
//! - [`LockedSlots`]: a view of a `&mut [T]` paired with one bit lock per
//!   slot; workers reach a slot only through `with`, under its lock.
//! - [`PerWorker`]: cache-padded per-worker cells (send shards, stat
//!   counters), filled by [`WorkerPool::fan_out`] — worker `w` writes cell
//!   `w`, then the coordinator absorbs the cells in worker order.
//!
//! All `unsafe` of the intra-rank parallel paths lives in this file; the
//! traversal core (`havoq-core`) calls only the safe entry points above.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Pads (and aligns) a value to a cache line so per-worker cells never
/// false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

/// A bit-per-index atomic bitmap.
///
/// Two usage patterns, both lock-free on the word level:
///
/// - visited/dirty set: [`AtomicBitVec::test_and_set`] returns whether the
///   bit was already set, so "first caller wins" races resolve atomically;
/// - one-bit spinlocks: [`AtomicBitVec::lock`] spins until it wins the
///   bit, [`AtomicBitVec::unlock`] releases it. Critical sections guarded
///   this way must be short (a slot copy or merge), never I/O.
pub struct AtomicBitVec {
    words: Vec<AtomicU64>,
    bits: usize,
}

impl AtomicBitVec {
    /// An all-zero bitmap over `bits` indices.
    pub fn new(bits: usize) -> Self {
        let words = (0..bits.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        Self { words, bits }
    }

    /// Number of addressable bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.bits);
        self.words[i / 64].load(Ordering::Acquire) & (1 << (i % 64)) != 0
    }

    /// Atomically set bit `i`, returning whether it was already set.
    #[inline]
    pub fn test_and_set(&self, i: usize) -> bool {
        debug_assert!(i < self.bits);
        let mask = 1u64 << (i % 64);
        self.words[i / 64].fetch_or(mask, Ordering::AcqRel) & mask != 0
    }

    /// Atomically clear bit `i`.
    #[inline]
    pub fn clear(&self, i: usize) {
        debug_assert!(i < self.bits);
        self.words[i / 64].fetch_and(!(1u64 << (i % 64)), Ordering::Release);
    }

    /// Spin until bit `i` is acquired (treats the bit as a spinlock).
    #[inline]
    pub fn lock(&self, i: usize) {
        while self.test_and_set(i) {
            std::hint::spin_loop();
        }
    }

    /// Release the bit-spinlock `i`. Must pair with a prior [`Self::lock`].
    #[inline]
    pub fn unlock(&self, i: usize) {
        self.clear(i);
    }

    /// Number of backing 64-bit words (`ceil(len / 64)`).
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Read backing word `wi` (bit `i` lives in word `i / 64`).
    #[inline]
    pub fn word(&self, wi: usize) -> u64 {
        self.words[wi].load(Ordering::Acquire)
    }

    /// Atomically OR `bits` into backing word `wi` — the dense-frontier
    /// merge step when remote frontier words arrive off the wire.
    #[inline]
    pub fn or_word(&self, wi: usize, bits: u64) {
        self.words[wi].fetch_or(bits, Ordering::AcqRel);
    }

    /// Reset every bit to zero. Not atomic as a whole (concurrent setters
    /// may survive); callers must quiesce writers first.
    pub fn clear_all(&self) {
        for w in &self.words {
            w.store(0, Ordering::Release);
        }
    }

    /// Visit the index of every set bit, in increasing order.
    pub fn for_each_set(&self, f: impl FnMut(usize)) {
        self.for_each_set_in(0..self.bits, f);
    }

    /// Visit the index of every set bit inside `range`, in increasing
    /// order, a word at a time.
    pub fn for_each_set_in(&self, range: std::ops::Range<usize>, mut f: impl FnMut(usize)) {
        debug_assert!(range.end <= self.bits);
        for wi in range.start / 64..range.end.div_ceil(64) {
            let mut bits = self.words[wi].load(Ordering::Acquire);
            if wi == range.start / 64 {
                bits &= !0u64 << (range.start % 64);
            }
            if wi == range.end / 64 {
                bits &= (1u64 << (range.end % 64)) - 1;
            }
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                f(wi * 64 + b);
                bits &= bits - 1;
            }
        }
    }
}

/// A shared view over the slots of a `&mut [T]`, each guarded by one bit
/// of an [`AtomicBitVec`] used as a spinlock.
///
/// Workers mutate slots concurrently through [`LockedSlots::with`], which
/// holds slot `i`'s lock for exactly the duration of the closure. Critical
/// sections must stay short (a slot copy or merge) and must not re-enter
/// `with` on the same slot, which would spin forever.
pub struct LockedSlots<'a, T> {
    ptr: *mut T,
    len: usize,
    locks: &'a AtomicBitVec,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: the only access to the pointee is `with`, which hands out at most
// one `&mut T` per slot at a time (see there); `T: Send` because that
// reference is used on whichever thread won the lock. `locks` is a shared
// reference to atomics.
unsafe impl<T: Send> Sync for LockedSlots<'_, T> {}
// SAFETY: moving the view to another thread moves a `&mut [T]` borrow
// (the raw pointer plus `_marker`) and a `&AtomicBitVec`; both are `Send`
// for `T: Send`, and the pointer is never freed through this view.
unsafe impl<T: Send> Send for LockedSlots<'_, T> {}

impl<'a, T> LockedSlots<'a, T> {
    /// Guard `slots[i]` with bit `i` of `locks`. Both are borrowed
    /// exclusively for `'a`, so while the view lives nothing else can reach
    /// the storage or release a lock bit behind `with`'s back.
    pub fn new(slots: &'a mut [T], locks: &'a mut AtomicBitVec) -> Self {
        assert!(locks.len() >= slots.len(), "one lock bit per slot");
        Self { ptr: slots.as_mut_ptr(), len: slots.len(), locks, _marker: std::marker::PhantomData }
    }

    /// Run `f` on slot `i` under the slot's lock.
    #[inline]
    pub fn with<R>(&self, i: usize, f: impl FnOnce(&mut T) -> R) -> R {
        struct Unlock<'l>(&'l AtomicBitVec, usize);
        impl Drop for Unlock<'_> {
            fn drop(&mut self) {
                self.0.unlock(self.1);
            }
        }
        assert!(i < self.len, "slot {i} out of range {}", self.len);
        self.locks.lock(i);
        // released on unwind too, so a panicking `f` cannot wedge its peers
        let _held = Unlock(self.locks, i);
        // SAFETY: `i < len`, so the pointer stays inside the slice borrowed
        // for `'a`. Bit `i` is set from the winning `test_and_set` (AcqRel)
        // until `_held` clears it (Release), and only this method touches
        // the bits (`new` took them by `&mut`), so no second thread is
        // inside this block for the same `i` and the previous holder's
        // writes are visible. The reference cannot outlive the lock: `f`
        // must accept any lifetime, so it cannot store it.
        f(unsafe { &mut *self.ptr.add(i) })
    }
}

/// One cache-padded cell per worker, written by worker `w` during a
/// [`WorkerPool::fan_out`] and read by the coordinator afterwards.
pub struct PerWorker<T> {
    cells: Vec<CachePadded<std::cell::UnsafeCell<T>>>,
}

// SAFETY: the only shared access is `cell`, private to this module and
// called only from `WorkerPool::fan_out`, which gives each worker thread a
// distinct index; `T: Send` because the cell is then mutated off-thread.
unsafe impl<T: Send> Sync for PerWorker<T> {}

impl<T> PerWorker<T> {
    pub fn new_with(n: usize, mut init: impl FnMut(usize) -> T) -> Self {
        Self { cells: (0..n).map(|i| CachePadded(std::cell::UnsafeCell::new(init(i)))).collect() }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// # Safety
    ///
    /// The caller must be the only thread accessing cell `w` for the
    /// lifetime of the returned borrow.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn cell(&self, w: usize) -> &mut T {
        &mut *self.cells[w].0.get()
    }

    /// Exclusive (coordinator-side) iteration over all cells.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.cells.iter_mut().map(|c| c.0.get_mut())
    }
}

/// The type-erased job a broadcast distributes: a raw fat pointer to the
/// caller's closure. Only alive while `broadcast` blocks, which is what
/// makes the lifetime erasure sound.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// Safety: the pointee is `Sync` (the closure is shared by reference across
// workers) and outlives every worker's use of it (broadcast blocks).
unsafe impl Send for Job {}

struct PoolState {
    /// Bumped once per broadcast; workers run the job when they observe a
    /// newer epoch than the last one they executed.
    epoch: u64,
    job: Option<Job>,
    /// Workers still running the current epoch's job.
    remaining: usize,
    shutdown: bool,
    /// First worker panic of the current epoch, re-raised by `broadcast`.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new epoch (or shutdown).
    work_cv: Condvar,
    /// The coordinator waits here for `remaining == 0`.
    done_cv: Condvar,
}

/// A persistent scoped worker pool.
///
/// Threads are spawned once and parked between jobs; [`WorkerPool::broadcast`]
/// hands every worker the same `Fn(worker_index)` closure and blocks until
/// all of them return, so the closure may borrow freely from the caller's
/// stack. A worker panic is captured and re-raised on the caller's thread
/// after the remaining workers finish. Dropping the pool joins the threads.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool of `threads` workers (`threads >= 1`).
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a worker pool needs at least one worker");
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                remaining: 0,
                shutdown: false,
                panic: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("havoq-worker-{w}"))
                    .spawn(move || Self::worker_loop(&shared, w))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Number of workers.
    #[inline]
    pub fn size(&self) -> usize {
        self.handles.len()
    }

    fn worker_loop(shared: &PoolShared, w: usize) {
        let mut seen_epoch = 0u64;
        loop {
            let job = {
                let mut st = shared.state.lock().unwrap();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.epoch > seen_epoch {
                        break;
                    }
                    st = shared.work_cv.wait(st).unwrap();
                }
                seen_epoch = st.epoch;
                st.job.expect("job set for the live epoch")
            };
            // SAFETY: `job` was published by `broadcast` for this epoch, and
            // `broadcast` does not return (so the closure it points to stays
            // alive) until this worker has decremented `remaining` below.
            let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(w) }));
            let mut st = shared.state.lock().unwrap();
            if let Err(e) = outcome {
                if st.panic.is_none() {
                    st.panic = Some(e);
                }
            }
            st.remaining -= 1;
            if st.remaining == 0 {
                shared.done_cv.notify_all();
            }
        }
    }

    /// Run `f(worker_index)` on every worker concurrently; blocks until
    /// all workers have returned. Re-raises the first worker panic.
    pub fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        // SAFETY: the transmute only erases the closure's lifetime; the
        // fat pointer keeps its vtable. This function does not return
        // until every worker is done with the pointer, so no use outlives
        // `f`.
        let job = Job(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
        });
        let mut st = self.shared.state.lock().unwrap();
        debug_assert_eq!(st.remaining, 0, "overlapping broadcasts");
        st.job = Some(job);
        st.remaining = self.handles.len();
        st.epoch += 1;
        self.shared.work_cv.notify_all();
        while st.remaining > 0 {
            st = self.shared.done_cv.wait(st).unwrap();
        }
        st.job = None;
        if let Some(p) = st.panic.take() {
            drop(st);
            resume_unwind(p);
        }
    }

    /// Run `work(w, &mut cells[w])` on every worker concurrently, then
    /// `absorb(&mut cells[w])` on the calling thread in worker order — so
    /// whatever the workers staged reaches single-threaded code (ghost
    /// filter, mailbox) as one deterministic stream per thread count. A
    /// worker panic is re-raised before any cell is absorbed.
    pub fn fan_out<T: Send>(
        &self,
        cells: &mut PerWorker<T>,
        work: impl Fn(usize, &mut T) + Sync,
        absorb: impl FnMut(&mut T),
    ) {
        assert_eq!(cells.len(), self.size(), "one cell per worker");
        let shared: &PerWorker<T> = cells;
        self.broadcast(&|w| {
            // SAFETY: `broadcast` runs this closure once on each worker
            // thread with that worker's own index `w < size() ==
            // cells.len()`, so no two threads share a cell, and the `&mut
            // PerWorker` this function holds keeps every other access out
            // until `broadcast` has joined all workers.
            work(w, unsafe { shared.cell(w) })
        });
        cells.iter_mut().for_each(absorb);
    }

    /// [`Self::fan_out`] over a slice: workers claim blocks of `items` off
    /// a shared cursor and run `work(&mut cells[w], item)` on each. With no
    /// items nothing runs, `absorb` included.
    pub fn fan_out_blocks<I: Sync, T: Send>(
        &self,
        items: &[I],
        cells: &mut PerWorker<T>,
        work: impl Fn(&mut T, &I) + Sync,
        absorb: impl FnMut(&mut T),
    ) {
        // Small blocks keep load balance when per-item cost varies (page
        // faults, skewed degrees) without cursor contention.
        const BLOCK: usize = 16;
        if items.is_empty() {
            return;
        }
        let cursor = AtomicUsize::new(0);
        self.fan_out(
            cells,
            |_, cell| loop {
                let begin = cursor.fetch_add(BLOCK, Ordering::Relaxed);
                if begin >= items.len() {
                    break;
                }
                let end = (begin + BLOCK).min(items.len());
                items[begin..end].iter().for_each(|item| work(cell, item));
            },
            absorb,
        );
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            // a worker that panicked mid-broadcast already reported through
            // `broadcast`; ignore the poisoned join here
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitvec_set_get_clear() {
        let b = AtomicBitVec::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.get(0) && !b.get(64) && !b.get(129));
        assert!(!b.test_and_set(64));
        assert!(b.test_and_set(64));
        assert!(b.get(64));
        b.clear(64);
        assert!(!b.get(64));
    }

    #[test]
    fn bitvec_word_level_ops() {
        let b = AtomicBitVec::new(130);
        assert_eq!(b.num_words(), 3);
        b.or_word(1, 0b101);
        assert!(b.get(64) && !b.get(65) && b.get(66));
        assert_eq!(b.word(1), 0b101);
        b.test_and_set(129);
        let mut seen = Vec::new();
        b.for_each_set(|i| seen.push(i));
        assert_eq!(seen, vec![64, 66, 129]);
        for (range, expect) in [(0..64, vec![]), (64..66, vec![64]), (65..130, vec![66, 129])] {
            seen.clear();
            b.for_each_set_in(range, |i| seen.push(i));
            assert_eq!(seen, expect);
        }
        b.clear_all();
        assert_eq!(b.word(0) | b.word(1) | b.word(2), 0);
    }

    #[test]
    fn pool_broadcast_runs_every_worker_and_borrows_stack() {
        let pool = WorkerPool::new(4);
        let hits = AtomicUsize::new(0);
        let seen = Mutex::new(Vec::new());
        pool.broadcast(&|w| {
            hits.fetch_add(1, Ordering::Relaxed);
            seen.lock().unwrap().push(w);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
        let mut s = seen.into_inner().unwrap();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pool_is_reusable_across_broadcasts() {
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.broadcast(&|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 150);
    }

    #[test]
    fn pool_propagates_worker_panics() {
        let pool = WorkerPool::new(2);
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(&|w| {
                if w == 1 {
                    panic!("deliberate worker failure");
                }
            });
        }));
        assert!(res.is_err());
        // the pool must survive a panicked broadcast
        let ok = AtomicUsize::new(0);
        pool.broadcast(&|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    /// Stress test for the two helpers that own this file's worker-side
    /// `unsafe` (`fan_out` → `PerWorker::cell`, `LockedSlots::with`).
    ///
    /// The safety argument, in one place. (1) `fan_out` hands cell `w` to
    /// worker `w` only, and holds `&mut PerWorker` across the broadcast, so
    /// each cell has one writer and the coordinator reads after the join.
    /// (2) `LockedSlots::with` admits one thread per slot: the bit lock is
    /// taken AcqRel and released Release, the slice and the lock bits are
    /// both borrowed `&mut` for the view's lifetime so no other path to
    /// either exists, the index is bounds-checked, and the closure cannot
    /// keep the reference. A violation of (1) loses per-cell counts; a
    /// violation of (2) loses increments on the contended slots — both are
    /// exact-sum assertions below. (Passing does not prove soundness; the
    /// arguments above do. The test is what would catch an edit that
    /// breaks them.)
    #[test]
    fn fan_out_and_locked_slots_stress() {
        let pool = WorkerPool::new(4);

        // 0 items: nothing runs, not even absorb
        let mut cells: PerWorker<u64> = PerWorker::new_with(4, |_| 0);
        pool.fan_out_blocks(&[] as &[u32], &mut cells, |c, _| *c += 1, |_| panic!("absorbed"));

        // fewer items than workers: every item runs exactly once
        let mut absorbed = Vec::new();
        pool.fan_out_blocks(&[10u64, 20], &mut cells, |c, x| *c += x, |c| absorbed.push(*c));
        assert_eq!(absorbed.len(), 4, "absorb visits every cell, in worker order");
        assert_eq!(absorbed.iter().sum::<u64>(), 30);

        // 10^5 increments contended over 8 slots sum exactly, and the
        // per-worker tallies of who did them sum exactly too
        let items: Vec<usize> = (0..100_000).collect();
        let mut data = vec![0u64; 8];
        let mut locks = AtomicBitVec::new(8);
        let mut cells: PerWorker<u64> = PerWorker::new_with(4, |_| 0);
        let mut tallied = 0u64;
        {
            let slots = LockedSlots::new(&mut data, &mut locks);
            pool.fan_out_blocks(
                &items,
                &mut cells,
                |c, &i| {
                    slots.with(i % 8, |s| *s += 1);
                    *c += 1;
                },
                |c| tallied += std::mem::take(c),
            );
        }
        assert_eq!(data, vec![12_500u64; 8]);
        assert_eq!(tallied, 100_000);

        // a panicking worker propagates (releasing the slot lock it held),
        // no cell is absorbed, and the pool is reusable afterwards
        let res = catch_unwind(AssertUnwindSafe(|| {
            let slots = LockedSlots::new(&mut data, &mut locks);
            pool.fan_out(
                &mut cells,
                |w, _| slots.with(0, |_| assert_ne!(w, 2, "deliberate worker failure")),
                |_| panic!("absorbed after a worker panic"),
            );
        }));
        assert!(res.is_err());
        let slots = LockedSlots::new(&mut data, &mut locks);
        pool.fan_out(&mut cells, |w, c| *c = slots.with(0, |s| *s) + w as u64, |_| {});
        assert_eq!(
            cells.iter_mut().map(|c| *c).collect::<Vec<_>>(),
            [12_500, 12_501, 12_502, 12_503]
        );
    }
}
