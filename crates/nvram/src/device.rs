//! Block devices: the storage media under the page cache.
//!
//! [`MemDevice`] models the DRAM tier (and backs tests), [`FileDevice`] does
//! real file I/O, and [`SimNvram`] wraps any device with a per-access latency
//! and a bounded number of concurrent channels — the two properties that
//! dominate NAND Flash behaviour in the paper's evaluation (high latency,
//! high internal parallelism that rewards concurrent I/O).

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use std::sync::{Condvar, Mutex, RwLock};

/// A byte-addressable block device. All methods take `&self`; devices are
/// internally synchronized because page-cache shards access them
/// concurrently.
pub trait BlockDevice: Send + Sync {
    /// Read `buf.len()` bytes starting at `offset`. Reads beyond the current
    /// end yield zeros (devices auto-extend, like sparse files).
    fn read_at(&self, offset: u64, buf: &mut [u8]);

    /// Write `buf` at `offset`, extending the device if needed.
    fn write_at(&self, offset: u64, buf: &[u8]);

    /// Current device length in bytes.
    fn len(&self) -> u64;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many accesses the device can usefully service in flight.
    ///
    /// The page cache sizes its asynchronous I/O queue from this, so "queue
    /// depth" in the stats means depth against the device's real channel
    /// parallelism. Devices without an internal bound report `usize::MAX`.
    fn concurrency_hint(&self) -> usize {
        usize::MAX
    }

    /// Cumulative access counters.
    fn stats(&self) -> DeviceStatsSnapshot;
}

/// Plain-data access counters for any device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStatsSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

#[derive(Default)]
struct DeviceCounters {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl DeviceCounters {
    fn record_read(&self, n: usize) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
    }

    fn record_write(&self, n: usize) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> DeviceStatsSnapshot {
        DeviceStatsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

/// Observation hook invoked on each access: `(offset, len)`.
pub type AccessHook = std::sync::Arc<dyn Fn(u64, usize) + Send + Sync>;

/// In-memory device: the DRAM tier of Figure 9 / Table II, and the backing
/// store for most tests.
///
/// Supports seeded *transient* read corruption
/// ([`MemDevice::set_read_corruption`]): a corrupting read flips one bit in
/// the returned buffer while the stored bytes stay intact, modelling the
/// dominant NAND failure mode (read-disturb / ECC-miss on the wire) — which
/// is exactly what makes a bounded re-read retry a sound recovery policy.
pub struct MemDevice {
    data: RwLock<Vec<u8>>,
    counters: DeviceCounters,
    read_hooks: Mutex<Vec<AccessHook>>,
    write_hooks: Mutex<Vec<AccessHook>>,
    /// Per-mille of reads that return a single flipped bit.
    corrupt_permille: AtomicU64,
    corrupt_seed: AtomicU64,
    /// Monotone read counter: the corruption draw's nonce, so a re-read of
    /// the same offset draws a fresh verdict and retries converge.
    read_index: AtomicU64,
    reads_corrupted: AtomicU64,
}

impl MemDevice {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            data: RwLock::new(vec![0u8; bytes]),
            counters: DeviceCounters::default(),
            read_hooks: Mutex::new(Vec::new()),
            write_hooks: Mutex::new(Vec::new()),
            corrupt_permille: AtomicU64::new(0),
            corrupt_seed: AtomicU64::new(0),
            read_index: AtomicU64::new(0),
            reads_corrupted: AtomicU64::new(0),
        }
    }

    /// Add a hook called (on the accessing thread, before the copy) for
    /// every `read_at`. Hooks compose: each installed hook runs, in
    /// installation order. Tests use this to assert invariants about
    /// *where* device I/O happens — e.g. that no read runs under a cache
    /// shard lock — alongside fault injection.
    pub fn add_read_hook(&self, hook: AccessHook) {
        self.read_hooks.lock().unwrap().push(hook);
    }

    /// Add a hook called for every `write_at`; see [`Self::add_read_hook`].
    pub fn add_write_hook(&self, hook: AccessHook) {
        self.write_hooks.lock().unwrap().push(hook);
    }

    /// Make `permille`/1000 of subsequent reads return a buffer with one
    /// seeded bit flipped. The stored bytes are untouched, so a re-read
    /// draws a fresh verdict and usually returns clean data.
    pub fn set_read_corruption(&self, permille: u64, seed: u64) {
        self.corrupt_seed.store(seed, Ordering::Relaxed);
        self.corrupt_permille.store(permille, Ordering::Relaxed);
    }

    /// Reads that returned corrupted data so far.
    pub fn reads_corrupted(&self) -> u64 {
        self.reads_corrupted.load(Ordering::Relaxed)
    }

    fn run_hooks(slot: &Mutex<Vec<AccessHook>>, offset: u64, len: usize) {
        // Clone the Arcs out so the hooks themselves run without the slot
        // lock (hooks may re-enter the device).
        let hooks = slot.lock().unwrap().clone();
        for h in hooks {
            h(offset, len);
        }
    }

    /// SplitMix64-style avalanche for the corruption draw.
    fn mix(seed: u64, a: u64, b: u64) -> u64 {
        let mut z = seed
            .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Flip one seeded bit of `buf` when this read's draw hits.
    fn maybe_corrupt(&self, offset: u64, buf: &mut [u8]) {
        let permille = self.corrupt_permille.load(Ordering::Relaxed);
        if permille == 0 || buf.is_empty() {
            return;
        }
        let index = self.read_index.fetch_add(1, Ordering::Relaxed);
        let h = Self::mix(self.corrupt_seed.load(Ordering::Relaxed), offset, index);
        if h % 1000 < permille {
            let bit = ((h >> 10) % (buf.len() as u64 * 8)) as usize;
            buf[bit / 8] ^= 1 << (bit % 8);
            self.reads_corrupted.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Default for MemDevice {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockDevice for MemDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) {
        Self::run_hooks(&self.read_hooks, offset, buf.len());
        self.counters.record_read(buf.len());
        {
            let data = self.data.read().unwrap();
            let off = offset as usize;
            let have = data.len().saturating_sub(off).min(buf.len());
            if have > 0 {
                buf[..have].copy_from_slice(&data[off..off + have]);
            }
            buf[have..].fill(0);
        }
        self.maybe_corrupt(offset, buf);
    }

    fn write_at(&self, offset: u64, buf: &[u8]) {
        Self::run_hooks(&self.write_hooks, offset, buf.len());
        self.counters.record_write(buf.len());
        let mut data = self.data.write().unwrap();
        let end = offset as usize + buf.len();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[offset as usize..end].copy_from_slice(buf);
    }

    fn len(&self) -> u64 {
        self.data.read().unwrap().len() as u64
    }

    fn stats(&self) -> DeviceStatsSnapshot {
        self.counters.snapshot()
    }
}

/// A device backed by a real file — lets experiments exercise the OS I/O
/// path when wanted (the paper used direct I/O to NAND; we simply use
/// ordinary file I/O since the latency model lives in [`SimNvram`]).
pub struct FileDevice {
    file: Mutex<File>,
    counters: DeviceCounters,
}

impl FileDevice {
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let file = File::options().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(Self { file: Mutex::new(file), counters: DeviceCounters::default() })
    }
}

impl BlockDevice for FileDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) {
        self.counters.record_read(buf.len());
        let mut f = self.file.lock().unwrap();
        let len = f.seek(SeekFrom::End(0)).expect("seek");
        if offset >= len {
            buf.fill(0);
            return;
        }
        f.seek(SeekFrom::Start(offset)).expect("seek");
        let have = ((len - offset) as usize).min(buf.len());
        f.read_exact(&mut buf[..have]).expect("read");
        buf[have..].fill(0);
    }

    fn write_at(&self, offset: u64, buf: &[u8]) {
        self.counters.record_write(buf.len());
        let mut f = self.file.lock().unwrap();
        f.seek(SeekFrom::Start(offset)).expect("seek");
        f.write_all(buf).expect("write");
    }

    fn len(&self) -> u64 {
        let mut f = self.file.lock().unwrap();
        f.seek(SeekFrom::End(0)).expect("seek")
    }

    fn stats(&self) -> DeviceStatsSnapshot {
        self.counters.snapshot()
    }
}

/// Latency/concurrency profile of a storage tier.
///
/// The latencies are *simulation-scaled*: real NAND page reads cost tens to
/// hundreds of microseconds, but the reproduction runs graphs ~10^4 times
/// smaller than the paper's, so profiles keep the *ratios* between tiers
/// while shrinking absolute values enough for experiments to finish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceProfile {
    pub name: &'static str,
    /// Added latency per read access.
    pub read_latency_ns: u64,
    /// Added latency per write access.
    pub write_latency_ns: u64,
    /// Maximum in-flight accesses (NAND channel parallelism).
    pub concurrency: usize,
}

impl DeviceProfile {
    /// DRAM tier: no added latency.
    pub const fn dram() -> Self {
        Self { name: "dram", read_latency_ns: 0, write_latency_ns: 0, concurrency: usize::MAX }
    }

    /// Enterprise PCIe NAND (the paper's Fusion-io tier), scaled: real
    /// ~50 us/page -> 2 us here.
    pub const fn fusion_io() -> Self {
        Self { name: "fusion-io", read_latency_ns: 2_000, write_latency_ns: 4_000, concurrency: 32 }
    }

    /// Commodity SATA SSD (the paper's Trestles tier), scaled: real
    /// ~150 us/page -> 6 us here. Lower internal parallelism.
    pub const fn sata_ssd() -> Self {
        Self { name: "sata-ssd", read_latency_ns: 6_000, write_latency_ns: 12_000, concurrency: 8 }
    }

    /// Enterprise PCIe NAND at *real* (unscaled) latency: ~100 us/page
    /// read. Coarse enough that simulated waits sleep — blocking the
    /// calling thread like real I/O — so experiments about overlapping
    /// device latency measure genuine overlap even on a low-core host.
    pub const fn fusion_io_realtime() -> Self {
        Self {
            name: "fusion-io-rt",
            read_latency_ns: 100_000,
            write_latency_ns: 200_000,
            concurrency: 32,
        }
    }
}

/// Counting semaphore bounding in-flight accesses.
struct Gate {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    fn new(permits: usize) -> Self {
        Self { permits: Mutex::new(permits), cv: Condvar::new() }
    }

    fn acquire(&self) {
        let mut p = self.permits.lock().unwrap();
        while *p == 0 {
            p = self.cv.wait(p).unwrap();
        }
        *p -= 1;
    }

    fn release(&self) {
        *self.permits.lock().unwrap() += 1;
        self.cv.notify_one();
    }
}

/// Wraps an inner device with a [`DeviceProfile`]'s latency and concurrency
/// limits; this is the "NAND Flash" of the reproduction.
pub struct SimNvram<D: BlockDevice> {
    inner: D,
    profile: DeviceProfile,
    gate: Option<Gate>,
    /// Total simulated latency injected so far, in ns.
    busy_ns: AtomicU64,
}

impl<D: BlockDevice> SimNvram<D> {
    pub fn new(inner: D, profile: DeviceProfile) -> Self {
        let gate = (profile.concurrency != usize::MAX).then(|| Gate::new(profile.concurrency));
        Self { inner, profile, gate, busy_ns: AtomicU64::new(0) }
    }

    pub fn profile(&self) -> DeviceProfile {
        self.profile
    }

    fn delay(&self, ns: u64) {
        if ns == 0 {
            return;
        }
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        let target = Duration::from_nanos(ns);
        // Waits at or above OS sleep granularity block like real I/O does
        // — yielding the core, so concurrent accessors overlap their
        // simulated latency even on a single-core host. Sub-granularity
        // NAND-scale waits spin against a monotonic clock instead (Linux
        // sleep granularity, ~50 us min, would distort them badly).
        const SLEEP_GRANULARITY: Duration = Duration::from_micros(100);
        if target >= SLEEP_GRANULARITY {
            std::thread::sleep(target);
        } else {
            let start = Instant::now();
            while start.elapsed() < target {
                std::hint::spin_loop();
            }
        }
    }
}

impl<D: BlockDevice> BlockDevice for SimNvram<D> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) {
        if let Some(g) = &self.gate {
            g.acquire();
        }
        self.delay(self.profile.read_latency_ns);
        self.inner.read_at(offset, buf);
        if let Some(g) = &self.gate {
            g.release();
        }
    }

    fn write_at(&self, offset: u64, buf: &[u8]) {
        if let Some(g) = &self.gate {
            g.acquire();
        }
        self.delay(self.profile.write_latency_ns);
        self.inner.write_at(offset, buf);
        if let Some(g) = &self.gate {
            g.release();
        }
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn concurrency_hint(&self) -> usize {
        self.profile.concurrency
    }

    fn stats(&self) -> DeviceStatsSnapshot {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(dev: &dyn BlockDevice) {
        dev.write_at(10, b"hello world");
        let mut buf = [0u8; 11];
        dev.read_at(10, &mut buf);
        assert_eq!(&buf, b"hello world");
        // partial overlap rewrite
        dev.write_at(14, b"HAVOQ");
        let mut buf2 = [0u8; 11];
        dev.read_at(10, &mut buf2);
        assert_eq!(&buf2, b"hellHAVOQld");
    }

    #[test]
    fn mem_device_roundtrip() {
        roundtrip(&MemDevice::new());
    }

    #[test]
    fn file_device_roundtrip() {
        let dir = std::env::temp_dir().join(format!("havoq-nvram-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dev = FileDevice::create(dir.join("dev.bin")).unwrap();
        roundtrip(&dev);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reads_past_end_are_zero() {
        let dev = MemDevice::new();
        dev.write_at(0, &[1, 2, 3]);
        let mut buf = [9u8; 6];
        dev.read_at(1, &mut buf);
        assert_eq!(buf, [2, 3, 0, 0, 0, 0]);
        let mut far = [7u8; 4];
        dev.read_at(1000, &mut far);
        assert_eq!(far, [0; 4]);
    }

    #[test]
    fn stats_count_accesses() {
        let dev = MemDevice::new();
        dev.write_at(0, &[0u8; 100]);
        let mut b = [0u8; 40];
        dev.read_at(0, &mut b);
        dev.read_at(0, &mut b);
        let s = dev.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(s.bytes_written, 100);
        assert_eq!(s.bytes_read, 80);
    }

    #[test]
    fn read_corruption_is_transient_and_seeded() {
        let dev = MemDevice::new();
        dev.write_at(0, &[0xAAu8; 256]);
        dev.set_read_corruption(500, 42);
        let mut corrupted = 0;
        for _ in 0..200 {
            let mut buf = [0u8; 256];
            dev.read_at(0, &mut buf);
            if buf != [0xAAu8; 256] {
                corrupted += 1;
                // exactly one bit differs
                let flipped: u32 = buf.iter().map(|&b| (b ^ 0xAA).count_ones()).sum();
                assert_eq!(flipped, 1, "corruption must flip exactly one bit");
            }
        }
        assert!(corrupted > 50, "50% rate must fire often, got {corrupted}");
        assert_eq!(dev.reads_corrupted(), corrupted);
        // the stored bytes were never harmed
        dev.set_read_corruption(0, 0);
        let mut buf = [0u8; 256];
        dev.read_at(0, &mut buf);
        assert_eq!(buf, [0xAAu8; 256], "corruption must be transient");
    }

    #[test]
    fn hooks_compose() {
        use std::sync::atomic::AtomicU64;
        let dev = MemDevice::new();
        let a = std::sync::Arc::new(AtomicU64::new(0));
        let b = std::sync::Arc::new(AtomicU64::new(0));
        let (ac, bc) = (std::sync::Arc::clone(&a), std::sync::Arc::clone(&b));
        dev.add_read_hook(std::sync::Arc::new(move |_, _| {
            ac.fetch_add(1, Ordering::Relaxed);
        }));
        dev.add_read_hook(std::sync::Arc::new(move |_, _| {
            bc.fetch_add(1, Ordering::Relaxed);
        }));
        let mut buf = [0u8; 4];
        dev.read_at(0, &mut buf);
        dev.read_at(8, &mut buf);
        assert_eq!(a.load(Ordering::Relaxed), 2, "first hook still fires");
        assert_eq!(b.load(Ordering::Relaxed), 2, "second hook composes");
    }

    #[test]
    fn sim_nvram_injects_latency() {
        let dev = SimNvram::new(
            MemDevice::new(),
            DeviceProfile {
                name: "t",
                read_latency_ns: 100_000,
                write_latency_ns: 0,
                concurrency: 4,
            },
        );
        let mut b = [0u8; 8];
        let t0 = Instant::now();
        for _ in 0..10 {
            dev.read_at(0, &mut b);
        }
        assert!(t0.elapsed() >= Duration::from_micros(1000));
        assert!(dev.busy_ns.load(Ordering::Relaxed) >= 1_000_000);
    }

    #[test]
    fn dram_profile_is_free() {
        let dev = SimNvram::new(MemDevice::new(), DeviceProfile::dram());
        dev.write_at(0, &[5; 16]);
        let mut b = [0u8; 16];
        dev.read_at(0, &mut b);
        assert_eq!(b, [5; 16]);
        assert_eq!(dev.busy_ns.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn profiles_preserve_tier_ordering() {
        let d = DeviceProfile::dram();
        let f = DeviceProfile::fusion_io();
        let s = DeviceProfile::sata_ssd();
        assert!(d.read_latency_ns < f.read_latency_ns);
        assert!(f.read_latency_ns < s.read_latency_ns);
        assert!(f.concurrency > s.concurrency);
    }

    #[test]
    fn concurrent_access_under_gate() {
        let dev = std::sync::Arc::new(SimNvram::new(
            MemDevice::with_capacity(1 << 16),
            DeviceProfile {
                name: "t",
                read_latency_ns: 1_000,
                write_latency_ns: 1_000,
                concurrency: 2,
            },
        ));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let dev = std::sync::Arc::clone(&dev);
            handles.push(std::thread::spawn(move || {
                let mut buf = [0u8; 64];
                for i in 0..20u64 {
                    dev.write_at(t * 4096 + i * 64, &[t as u8; 64]);
                    dev.read_at(t * 4096 + i * 64, &mut buf);
                    assert_eq!(buf, [t as u8; 64]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
