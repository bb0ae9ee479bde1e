//! A zero-dependency scoped-thread worker pool.
//!
//! The reproduction harness walks embarrassingly parallel matrices —
//! benchmark × optimization level × machine × binding — whose cells are
//! completely independent, exactly like the paper's own experiments (each
//! program × machine configuration ran as an independent job). This pool
//! fans such a matrix over a fixed number of worker threads while keeping
//! the output **deterministic**: results are collected by input index,
//! never by completion order, so a run with 8 workers produces the same
//! `Vec` — byte for byte — as a run with 1.
//!
//! * Worker count defaults to [`std::thread::available_parallelism`] and
//!   can be overridden per-invocation (`--jobs`) or per-environment
//!   (`COMMOPT_JOBS`); see [`resolve_jobs`].
//! * Workers are scoped threads ([`std::thread::scope`]), so tasks may
//!   borrow from the caller's stack and a panicking task propagates to the
//!   caller after every worker has been joined — no work is silently
//!   dropped, no thread is leaked.
//! * With one worker (or one item) the pool runs inline on the calling
//!   thread: no threads are spawned, so `--jobs 1` is *exactly* the serial
//!   harness.

use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The environment variable consulted by [`resolve_jobs`] when no explicit
/// worker count is given.
pub const JOBS_ENV: &str = "COMMOPT_JOBS";

/// The machine's available parallelism (1 when it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a worker-count override: a positive integer.
pub fn parse_jobs(s: &str) -> Result<usize, String> {
    match s.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "invalid worker count '{s}' (expected a positive integer)"
        )),
    }
}

/// Resolves the worker count for a harness run: an explicit `--jobs` value
/// wins, then a valid [`JOBS_ENV`] setting, then the machine's
/// [`default_jobs`].
pub fn resolve_jobs(cli: Option<usize>) -> usize {
    if let Some(j) = cli {
        return j.max(1);
    }
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(j) = parse_jobs(&v) {
            return j;
        }
    }
    default_jobs()
}

/// A fixed-size worker pool over scoped threads.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool with exactly `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Pool {
        Pool { jobs: jobs.max(1) }
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item, fanning the work over the pool's
    /// workers, and returns the results **in input order** regardless of
    /// completion order. `f` receives the item's index alongside the item.
    ///
    /// If an invocation of `f` panics, the workers stop claiming new items
    /// and the original panic payload is re-raised on the caller — the one
    /// with the lowest input index, which is deterministic because indices
    /// are claimed in ascending order.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if self.jobs == 1 || n <= 1 {
            // Inline serial path: no threads, identical evaluation order
            // to the pre-pool harness.
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }
        type Panic = Box<dyn std::any::Any + Send + 'static>;
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<Result<R, Panic>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let aborted = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..self.jobs.min(n) {
                s.spawn(|| {
                    while !aborted.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = slots[i]
                            .lock()
                            .expect("item slot poisoned")
                            .take()
                            .expect("each index is claimed exactly once");
                        // AssertUnwindSafe: on Err the payload is re-raised
                        // below, so a broken invariant in `f`'s captures
                        // still surfaces as the original panic.
                        let r = std::panic::catch_unwind(AssertUnwindSafe(|| f(i, item)));
                        if r.is_err() {
                            aborted.store(true, Ordering::Relaxed);
                        }
                        *results[i].lock().expect("result slot poisoned") = Some(r);
                    }
                });
            }
        });
        // Indices are claimed in ascending order, so unfilled slots form a
        // tail strictly after the first panic — walking in order either
        // re-raises that panic or yields every result.
        results
            .into_iter()
            .map(|m| {
                match m
                    .into_inner()
                    .expect("result slot poisoned")
                    .expect("unclaimed slots are preceded by a panic")
                {
                    Ok(r) => r,
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn map_preserves_input_order_with_one_and_many_workers() {
        let items: Vec<u64> = (0..64).collect();
        let serial = Pool::new(1).map(items.clone(), |i, v| (i, v * 3));
        let parallel = Pool::new(4).map(items, |i, v| (i, v * 3));
        assert_eq!(serial, parallel);
        for (i, (idx, v)) in serial.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*v, i as u64 * 3);
        }
    }

    #[test]
    fn order_is_deterministic_under_seeded_jitter() {
        // Workers finish out of order (each task sleeps a seeded
        // pseudo-random duration), yet the collected results must follow
        // the input index, identically on every repetition.
        let run = |jobs: usize| {
            let items: Vec<u64> = (0..32).collect();
            Pool::new(jobs).map(items, |i, v| {
                let mut rng = Rng::new(v);
                std::thread::sleep(std::time::Duration::from_micros(rng.next_u64() % 800));
                i as u64 + 100 * v
            })
        };
        let want: Vec<u64> = (0..32).map(|v| v + 100 * v).collect();
        assert_eq!(run(1), want);
        assert_eq!(run(4), want);
        assert_eq!(run(4), want);
        assert_eq!(run(9), want);
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        for jobs in [1, 4] {
            let result = std::panic::catch_unwind(|| {
                Pool::new(jobs).map((0..16).collect::<Vec<u64>>(), |_, v| {
                    if v == 7 {
                        panic!("task 7 exploded");
                    }
                    v
                })
            });
            let payload = result.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("<non-str payload>");
            assert!(msg.contains("exploded"), "jobs={jobs}: {msg}");
        }
    }

    #[test]
    fn tasks_may_borrow_the_callers_stack() {
        let base = [10u64, 20, 30];
        let out = Pool::new(2).map(vec![0usize, 1, 2], |_, i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(Pool::new(8).map(empty, |_, v: u8| v).is_empty());
        assert_eq!(Pool::new(8).map(vec![5u8], |i, v| (i, v)), vec![(0, 5)]);
    }

    #[test]
    fn jobs_are_clamped_and_parsed() {
        assert_eq!(Pool::new(0).jobs(), 1);
        assert_eq!(Pool::new(3).jobs(), 3);
        assert_eq!(parse_jobs("4"), Ok(4));
        assert_eq!(parse_jobs(" 2 "), Ok(2));
        assert!(parse_jobs("0").is_err());
        assert!(parse_jobs("-1").is_err());
        assert!(parse_jobs("many").is_err());
        assert_eq!(resolve_jobs(Some(0)), 1);
        assert_eq!(resolve_jobs(Some(6)), 6);
        assert!(default_jobs() >= 1);
    }
}
