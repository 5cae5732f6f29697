//! Simulated NVRAM storage stack for semi-external-memory graph processing.
//!
//! The paper stores trillion-edge graphs on node-local NAND Flash behind a
//! *custom user-space page cache* with a POSIX-like interface (Section II-B):
//! Linux's page cache was a bottleneck, so the authors bypass it with
//! `O_DIRECT` and manage caching themselves, designed for highly concurrent
//! I/O. No NAND Flash is attached here, so this crate reproduces the stack
//! as a simulation:
//!
//! - [`device`] — block devices: plain memory (the DRAM tier), a real file,
//!   and [`device::SimNvram`], which wraps either with a configurable
//!   per-access latency and bounded concurrency to model a NAND device's
//!   channel parallelism. Profiles approximate the paper's hardware tiers
//!   (Fusion-io, SATA SSD) with latencies scaled down so experiments finish
//!   at simulation scale — ratios between tiers are preserved.
//! - [`cache`] — the user-space page cache: sharded, CLOCK (second-chance)
//!   eviction, write-back, full hit/miss/eviction statistics. Device I/O
//!   never happens under a shard lock.
//! - [`io`] — the asynchronous I/O engine: a bounded request queue sized
//!   from the device's channel parallelism, a background worker pool for
//!   non-blocking readahead and write-behind, and the write-back registry
//!   that keeps in-flight victims visible to faults.
//! - [`extvec`] — typed external arrays over the cache, used by the
//!   semi-external CSR (vertex state in DRAM, edge targets in "NVRAM").

#![forbid(unsafe_code)]

pub mod cache;
pub mod checkpoint;
pub mod device;
pub mod extvec;
pub mod io;

pub use cache::{shard_lock_held, CacheStatsSnapshot, PageCache, PageCacheConfig};
pub use checkpoint::{CheckpointError, CheckpointStore};
pub use device::{
    BlockDevice, DeviceProfile, DeviceStatsSnapshot, FileDevice, MemDevice, SimNvram,
};
pub use extvec::{ExtStore, ExternalVec, Pod};
pub use io::{IoConfig, IoMode, IoStatsSnapshot};
