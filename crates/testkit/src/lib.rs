//! # commopt-testkit — dependency-free randomized-test support
//!
//! The workspace builds in offline environments with no registry access,
//! so the property-style test suites cannot pull in `proptest`. This crate
//! provides the two pieces those suites actually need:
//!
//! * [`Rng`] — a small, fast, deterministic PRNG (SplitMix64) with the
//!   usual convenience samplers;
//! * [`cases`] — a seeded case runner that executes a closure over `n`
//!   independent seeds and, on failure, reports the seed so the case can be
//!   replayed in isolation with [`Rng::new`];
//! * [`fuzz`] — a sweep driver that runs a matrix of named cases,
//!   collecting every failure (instead of stopping at the first) into a
//!   replayable report;
//! * [`pool`] — a scoped-thread worker pool with deterministic
//!   (input-index) result ordering, used to fan the experiment matrices
//!   over the machine's cores.
//!
//! Generation is deterministic: the same seed always produces the same
//! values, on every platform, so a failure message's seed is a complete
//! reproduction recipe.

pub mod fuzz;
pub mod pool;

/// A deterministic SplitMix64 PRNG.
///
/// Not cryptographic; statistically solid for test-case generation and
/// completely reproducible from its seed.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded with `seed` (any value, including 0, is fine).
    pub fn new(seed: u64) -> Rng {
        Rng {
            state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform `usize` in `lo..=hi`.
    pub fn usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as usize
    }

    /// A uniform `i64` in `lo..=hi`.
    pub fn i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }

    /// A uniform `i32` in `lo..=hi`.
    pub fn i32(&mut self, lo: i32, hi: i32) -> i32 {
        self.i64(lo as i64, hi as i64) as i32
    }

    /// A uniform `u32` in `lo..=hi`.
    pub fn u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.i64(lo as i64, hi as i64) as u32
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick from empty slice");
        &xs[self.usize(0, xs.len() - 1)]
    }

    /// A vector of `self.usize(min_len, max_len)` items drawn from `f`.
    pub fn vec_of<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        let n = self.usize(min_len, max_len);
        (0..n).map(|_| f(self)).collect()
    }
}

/// Runs `f` over `n` independent seeds (`0..n`), reporting the failing seed
/// before propagating the panic.
///
/// Replay a reported failure by calling `f(&mut Rng::new(seed))` directly.
pub fn cases(n: u64, f: impl Fn(&mut Rng) + std::panic::RefUnwindSafe) {
    for seed in 0..n {
        let result = std::panic::catch_unwind(|| {
            let mut rng = Rng::new(seed);
            f(&mut rng);
        });
        if let Err(payload) = result {
            eprintln!("testkit: case failed at seed {seed} (replay with Rng::new({seed}))");
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_are_inclusive_and_bounded() {
        let mut rng = Rng::new(7);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1000 {
            let v = rng.usize(3, 6);
            assert!((3..=6).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 6;
            let w = rng.i64(-2, 2);
            assert!((-2..=2).contains(&w));
        }
        assert!(seen_lo && seen_hi, "range endpoints must be reachable");
    }

    #[test]
    fn pick_and_vec_of() {
        let mut rng = Rng::new(1);
        let xs = [10, 20, 30];
        for _ in 0..50 {
            assert!(xs.contains(rng.pick(&xs)));
        }
        let v = rng.vec_of(2, 5, |r| r.bool());
        assert!((2..=5).contains(&v.len()));
    }

    #[test]
    fn cases_runs_all_seeds() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNT: AtomicU64 = AtomicU64::new(0);
        cases(16, |_| {
            COUNT.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(COUNT.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn distinct_seeds_differ() {
        let a = Rng::new(0).next_u64();
        let b = Rng::new(1).next_u64();
        assert_ne!(a, b);
    }
}
