//! Multi-threaded page-cache hammer: many threads mixing reads, writes and
//! readahead hints over disjoint regions of one cache, with a capacity far
//! below the working set so eviction, write-back and (in async mode) the
//! background I/O engine all run hot.
//!
//! Invariants checked:
//!
//! - **No lost updates** — every read observes the thread's own latest
//!   write (regions are disjoint, so the shadow copy is authoritative).
//! - **Exact accounting** — every 8-byte access resolves to exactly one hit
//!   or one miss (`hits + misses == accesses issued`); prefetch fills are
//!   counted separately and never double-fault a page into two frames.
//! - **Internal consistency** — `validate()` finds every frame mapped
//!   exactly once and every mapping pointing at a live frame.
//! - **Flush durability** — after `flush`, the raw device bytes equal the
//!   shadow copies (write-behind and inline write-back both landed).

use std::sync::Arc;
use std::thread;

use havoq_nvram::cache::{PageCache, PageCacheConfig};
use havoq_nvram::device::{BlockDevice, DeviceProfile, MemDevice, SimNvram};
use havoq_nvram::IoConfig;

/// Small pages so a modest working set spans many of them.
const PAGE: usize = 256;
/// Each thread owns this many disjoint u64 slots.
const WORDS_PER_THREAD: usize = 512;

/// Deterministic per-thread LCG step.
fn next(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *x
}

fn hammer(threads: usize, io: IoConfig, rounds: usize) {
    let dev: Arc<dyn BlockDevice> =
        Arc::new(SimNvram::new(MemDevice::new(), DeviceProfile::fusion_io()));
    let cache = Arc::new(PageCache::new(
        dev,
        PageCacheConfig {
            page_size: PAGE,
            // far below the working set (threads * 512 * 8 bytes), and not
            // a multiple of shards so the remainder distribution runs too
            capacity_pages: threads * 4 + 1,
            shards: 4,
            readahead_pages: 4,
            io,
        },
    ));

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let c = Arc::clone(&cache);
            thread::spawn(move || {
                let region = (WORDS_PER_THREAD * 8) as u64;
                let base = t as u64 * region;
                let mut x = 0x9e3779b97f4a7c15u64 ^ (t as u64);
                let mut shadow = vec![0u64; WORDS_PER_THREAD];
                let mut accesses = 0u64;
                for r in 0..rounds {
                    for (i, slot) in shadow.iter_mut().enumerate() {
                        // 8-byte aligned and PAGE is a multiple of 8, so no
                        // op ever crosses a page: one op == one cache access
                        let off = base + (i * 8) as u64;
                        match next(&mut x) % 4 {
                            0 | 1 => {
                                let v = x;
                                *slot = v;
                                c.write_at(off, &v.to_le_bytes());
                                accesses += 1;
                            }
                            2 => {
                                let mut b = [0u8; 8];
                                c.read_at(off, &mut b);
                                accesses += 1;
                                assert_eq!(
                                    u64::from_le_bytes(b),
                                    *slot,
                                    "lost update: thread {t} slot {i} round {r}"
                                );
                            }
                            _ => {
                                // readahead hint over the rest of our region;
                                // prefetch fills must not disturb accounting
                                c.advise(off, region - (i * 8) as u64);
                            }
                        }
                    }
                }
                (base, shadow, accesses)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let issued: u64 = results.iter().map(|r| r.2).sum();
    let s = cache.stats();
    assert_eq!(
        s.hits + s.misses,
        issued,
        "every access must resolve to exactly one hit or miss: {s:?}"
    );
    cache.validate();

    // flush durability: raw device bytes == shadow copies
    cache.flush();
    let dev = cache.device();
    for (base, shadow, _) in &results {
        for (i, &want) in shadow.iter().enumerate() {
            let mut b = [0u8; 8];
            dev.read_at(base + (i * 8) as u64, &mut b);
            assert_eq!(u64::from_le_bytes(b), want, "flush lost a write at slot {i}");
        }
    }
    cache.validate();
}

/// The hammer under seeded transient read-corruption: `permille`/1000 of
/// device reads return one flipped bit, so cache fills and prefetch bulk
/// reads keep observing corrupted buffers. The per-page write-back
/// checksums must catch every one (a verified page can only be served
/// clean), and the shadow-copy assert inside the worker loop *is* the
/// integrity oracle: a single undetected flip surfaces as a lost update.
///
/// A seed pass writes every slot through the cache and flushes first, so
/// the whole working set has recorded write-back checksums before
/// corruption starts — pages the cache never wrote back are unverifiable
/// by design and would let injected flips through.
fn hammer_with_corruption(threads: usize, io: IoConfig, rounds: usize, permille: u64) {
    let mem = Arc::new(MemDevice::new());
    let dev: Arc<dyn BlockDevice> = Arc::clone(&mem) as Arc<dyn BlockDevice>;
    let cache = Arc::new(PageCache::new(
        dev,
        PageCacheConfig {
            page_size: PAGE,
            capacity_pages: threads * 4 + 1,
            shards: 4,
            readahead_pages: 4,
            io,
        },
    ));

    // seed pass: give every page a write-back checksum
    let mut seeds = vec![0u64; threads * WORDS_PER_THREAD];
    let mut x = 0x00dd_ba11u64;
    for (i, s) in seeds.iter_mut().enumerate() {
        *s = next(&mut x);
        cache.write_at((i * 8) as u64, &s.to_le_bytes());
    }
    cache.flush();
    let seeded_accesses = seeds.len() as u64;
    mem.set_read_corruption(permille, 0x00C0_FFEE ^ threads as u64);

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let c = Arc::clone(&cache);
            let mut shadow = seeds[t * WORDS_PER_THREAD..(t + 1) * WORDS_PER_THREAD].to_vec();
            thread::spawn(move || {
                let region = (WORDS_PER_THREAD * 8) as u64;
                let base = t as u64 * region;
                let mut x = 0x9e3779b97f4a7c15u64 ^ (t as u64);
                let mut accesses = 0u64;
                for r in 0..rounds {
                    for (i, slot) in shadow.iter_mut().enumerate() {
                        let off = base + (i * 8) as u64;
                        match next(&mut x) % 4 {
                            0 | 1 => {
                                let v = x;
                                *slot = v;
                                c.write_at(off, &v.to_le_bytes());
                                accesses += 1;
                            }
                            2 => {
                                let mut b = [0u8; 8];
                                c.read_at(off, &mut b);
                                accesses += 1;
                                assert_eq!(
                                    u64::from_le_bytes(b),
                                    *slot,
                                    "corrupted read served: thread {t} slot {i} round {r}"
                                );
                            }
                            _ => {
                                c.advise(off, region - (i * 8) as u64);
                            }
                        }
                    }
                }
                (base, shadow, accesses)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let issued: u64 = results.iter().map(|r| r.2).sum();
    let s = cache.stats();
    assert_eq!(
        s.hits + s.misses,
        issued + seeded_accesses,
        "every access must resolve to exactly one hit or miss: {s:?}"
    );
    assert!(
        s.page_checksum_failures > 0,
        "corruption at {permille} permille never hit a verified fill: {s:?}"
    );
    cache.validate();

    // the final device-vs-shadow audit reads the raw device, which has no
    // CRC protection — stop injecting first
    mem.set_read_corruption(0, 0);
    cache.flush();
    let dev = cache.device();
    for (base, shadow, _) in &results {
        for (i, &want) in shadow.iter().enumerate() {
            let mut b = [0u8; 8];
            dev.read_at(base + (i * 8) as u64, &mut b);
            assert_eq!(u64::from_le_bytes(b), want, "flush lost a write at slot {i}");
        }
    }
    cache.validate();
    assert!(mem.reads_corrupted() > 0, "the plan never actually corrupted a read");
}

#[test]
fn hammer_sync_8() {
    hammer(8, IoConfig::default(), 4);
}

#[test]
fn hammer_async_8() {
    hammer(8, IoConfig::asynchronous(), 4);
}

#[test]
fn hammer_sync_8_with_read_corruption() {
    hammer_with_corruption(8, IoConfig::default(), 3, 100);
}

#[test]
fn hammer_async_8_with_read_corruption() {
    hammer_with_corruption(8, IoConfig::asynchronous(), 3, 100);
}

/// Heavier variant for the dedicated CI job (`--include-ignored`).
#[test]
#[ignore = "heavier sweep; run explicitly or via the CI hammer job"]
fn hammer_async_32() {
    hammer(32, IoConfig::asynchronous(), 6);
}

/// Heavier corruption variant for the CI integrity-chaos job
/// (`--include-ignored`).
#[test]
#[ignore = "heavier sweep; run explicitly or via the CI integrity-chaos job"]
fn hammer_async_32_with_read_corruption() {
    hammer_with_corruption(32, IoConfig::asynchronous(), 4, 100);
}
