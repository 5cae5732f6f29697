//! Reading this process's resident memory, and keeping the allocator from
//! blurring it.
//!
//! glibc's allocator keeps freed memory for reuse, and how much it keeps
//! differed from run to run: one `g500_async_mem` run in eight read 94 MB
//! where the others read 55, on every op of its memory phase. Its mmap
//! and trim thresholds grow the first time a large block is freed, and
//! `malloc_trim` does not shrink the top of a thread's arena, so whether a
//! rank thread's 40 MB of set-up garbage is returned or kept seems to
//! turn on which thread freed first. With both thresholds pinned to their
//! initial values before anything is allocated, freed blocks go back to
//! the system and none of 380 runs read high. So memory is measured in a
//! process of its own (`--memory-phase`) under that pin, and `VmHWM` is
//! live data plus the op. The timed ops never run under it: it costs the
//! 6 ms ops 13 % in page faults.

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: return free heap memory to the system.
    fn malloc_trim(pad: usize) -> i32;
    /// glibc: set an allocator parameter; setting either threshold also
    /// switches off their growth.
    fn mallopt(param: i32, value: i32) -> i32;
}

#[cfg(target_env = "gnu")]
const M_TRIM_THRESHOLD: i32 = -1;
#[cfg(target_env = "gnu")]
const M_MMAP_THRESHOLD: i32 = -3;
/// glibc's initial value of both thresholds.
#[cfg(target_env = "gnu")]
const INITIAL_THRESHOLD: i32 = 128 * 1024;

/// Pin the allocator's mmap and trim thresholds, so that large blocks are
/// always mapped and unmapped and free memory at the top of a heap is
/// returned when it is freed. Call before the first large allocation.
pub fn pin_allocator_thresholds() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `mallopt` takes two integers and only sets allocator
    // parameters; it may be called at any time.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, INITIAL_THRESHOLD);
        mallopt(M_TRIM_THRESHOLD, INITIAL_THRESHOLD);
    }
}

/// Hand free heap pages back to the system, so the next `VmHWM` reading
/// does not hold the fragments the allocator kept.
pub fn release_free_heap() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` takes no pointers and may be called at any
    // time from any thread; it only returns free pages of the C heap.
    unsafe {
        malloc_trim(0);
    }
}

/// Reset this process's `VmHWM` to its current RSS, so the next reading
/// is the peak since now. Where the kernel refuses, every reading is the
/// peak since the process began.
pub fn reset_peak_rss() {
    // ignoring the error is the fallback the doc comment describes
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process, in MB; `None` where `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok().map(|kb| kb / 1024.0)
}
