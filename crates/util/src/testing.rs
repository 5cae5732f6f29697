//! A deterministic property-test harness.
//!
//! Replaces proptest for this workspace: each property runs over a fixed
//! number of seeded cases, with the failing case's seed printed so a run
//! can be reproduced with [`TestRng::new`] directly. No shrinking — cases
//! are intentionally small, so raw counterexamples stay readable.

/// SplitMix64 PRNG: tiny, fast, and statistically solid for test-case
/// generation. Deterministic for a given seed.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // multiply-shift range reduction; bias is negligible for test sizes
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`. Panics if the range is empty.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform usize in `[lo, hi)`.
    #[inline]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    #[inline]
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    #[inline]
    pub fn u8(&mut self) -> u8 {
        self.next_u64() as u8
    }
}

/// Run `cases` seeded instances of a property. On panic, the failing case
/// index and its RNG seed are reported, then the panic is re-raised.
pub fn run_cases(cases: u64, f: impl Fn(&mut TestRng)) {
    for case in 0..cases {
        let seed = 0x5eed_0000_0000_0000 ^ case.wrapping_mul(0x2545_f491_4f6c_dd1d);
        let mut rng = TestRng::new(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(e) = outcome {
            eprintln!("property failed at case {case}/{cases} (TestRng seed {seed:#x})");
            std::panic::resume_unwind(e);
        }
    }
}

/// The default seed set for fault sweeps: `count` seeds derived from a
/// fixed base so every CI run exercises the same plans. Distinct from the
/// `run_cases` seed stream on purpose — fault plans and data generation
/// must not be correlated.
pub fn sweep_seed_set(count: u64) -> Vec<u64> {
    (0..count).map(|i| 0x000F_A017_5EED_u64 ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(7);
        let mut b = TestRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = TestRng::new(1);
        for n in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..100 {
                assert!(rng.below(n) < n);
            }
        }
    }

    #[test]
    fn range_covers_endpoints() {
        let mut rng = TestRng::new(2);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1000 {
            match rng.range(5, 8) {
                5 => seen_lo = true,
                7 => seen_hi = true,
                6 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn run_cases_executes_all() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let count = AtomicU64::new(0);
        run_cases(17, |_rng| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn run_cases_propagates_failure() {
        let res = std::panic::catch_unwind(|| {
            run_cases(5, |_rng| panic!("deliberate property failure"));
        });
        assert!(res.is_err());
    }

    #[test]
    fn sweep_seed_set_is_fixed_and_distinct() {
        let a = sweep_seed_set(32);
        let b = sweep_seed_set(32);
        assert_eq!(a, b, "seed set must be identical across runs");
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 32, "seeds must be distinct");
    }
}
