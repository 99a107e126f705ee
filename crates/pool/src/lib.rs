//! Deterministic work-stealing execution over an indexed task set.
//!
//! The throughput engine runs millions of independent, per-seed
//! deterministic tasks (viewer sessions, per-session decodes). The
//! scheduling question is *which worker runs which index when* — and
//! the answer must never show in the output. This crate provides the
//! one primitive that squares dynamic load balancing with
//! byte-determinism:
//!
//! * every task is a pure function of its **index** (callers derive all
//!   randomness from per-index seeds, never from scheduling);
//! * workers pull the next index from a shared atomic counter, so a
//!   long task stalls only the worker running it while the rest of the
//!   pool drains the queue (no fixed contiguous chunks, no uneven
//!   tail);
//! * results are merged **in index order**, so the output is identical
//!   for any worker count — 1, 2, 8 or `available_parallelism` — and
//!   identical across repeated runs.
//!
//! The contract callers must uphold: `f(i)` may not observe anything
//! scheduling-dependent (wall clocks, worker identity, completion
//! order). Everything in this workspace derives per-task state from
//! `derive_seed(run_seed, index)`-style seeding, which satisfies this
//! by construction.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count the pool uses when the caller passes `0` ("auto"):
/// one worker per available core.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// Run `f(0), f(1), …, f(tasks - 1)` across `workers` threads and
/// return the results in index order.
///
/// `workers == 0` means "auto" ([`default_workers`]). The worker count
/// is capped at the task count; `workers == 1` (or a single task) runs
/// inline on the caller's thread with no spawning at all.
///
/// Scheduling is dynamic: each worker repeatedly claims the next
/// unclaimed index from a shared counter. A pathologically long task
/// therefore costs the run `max(longest task, total work / workers)`
/// instead of serializing a whole contiguous chunk behind it.
///
/// Panics in `f` are propagated (the pool does not try to outlive a
/// poisoned task set).
pub fn run_indexed<T, F>(tasks: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = resolve_workers(tasks, workers);
    if workers <= 1 {
        return (0..tasks).map(f).collect();
    }
    let (results, _) = run_indexed_tracked(tasks, workers, f);
    results
}

/// [`run_indexed`], additionally reporting how many tasks each worker
/// executed (index = worker). The counts are scheduling-dependent and
/// exist for balance diagnostics and tests only — never let them feed
/// back into task outputs.
pub fn run_indexed_tracked<T, F>(tasks: usize, workers: usize, f: F) -> (Vec<T>, Vec<usize>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = resolve_workers(tasks, workers);
    if workers <= 1 {
        return ((0..tasks).map(f).collect(), vec![tasks]);
    }
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    let mut per_worker: Vec<Vec<(usize, T)>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut claimed: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        claimed.push((i, f(i)));
                    }
                    claimed
                })
            })
            .collect();
        for handle in handles {
            per_worker.push(handle.join().expect("pool worker panicked"));
        }
    });
    let counts: Vec<usize> = per_worker.iter().map(Vec::len).collect();
    // Merge in index order: determinism lives here, not in scheduling.
    let mut slots: Vec<Option<T>> = Vec::with_capacity(tasks);
    slots.resize_with(tasks, || None);
    for claimed in per_worker {
        for (i, value) in claimed {
            slots[i] = Some(value);
        }
    }
    let results = slots
        .into_iter()
        .map(|s| s.expect("every index dispatched exactly once"))
        .collect();
    (results, counts)
}

fn resolve_workers(tasks: usize, workers: usize) -> usize {
    let workers = if workers == 0 {
        default_workers()
    } else {
        workers
    };
    workers.min(tasks.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex};

    #[test]
    fn results_are_in_index_order() {
        for workers in [0usize, 1, 2, 3, 8, 17] {
            let out = run_indexed(40, workers, |i| i * i);
            let expect: Vec<usize> = (0..40).map(|i| i * i).collect();
            assert_eq!(out, expect, "workers = {workers}");
        }
    }

    #[test]
    fn empty_and_single_task_sets() {
        assert_eq!(run_indexed(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 8, |i| i + 10), vec![10]);
    }

    #[test]
    fn output_is_identical_across_worker_counts() {
        let reference = run_indexed(64, 1, |i| (i as u64).wrapping_mul(0x9e3779b9));
        for workers in [2usize, 4, 8, 16] {
            assert_eq!(
                run_indexed(64, workers, |i| (i as u64).wrapping_mul(0x9e3779b9)),
                reference,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn tracked_counts_cover_every_task() {
        let (out, counts) = run_indexed_tracked(100, 4, |i| i);
        assert_eq!(out.len(), 100);
        assert_eq!(counts.len(), 4);
        assert_eq!(counts.iter().sum::<usize>(), 100);
    }

    /// The uneven-shard-tail regression, made deterministic: task 0 is
    /// "pathologically long" — it blocks until every other task has
    /// completed. Under contiguous chunking with 2 workers, tasks 1..20
    /// sit in the same chunk *behind* task 0 and can never run
    /// (deadlock → the 60 s timeout trips). Under work-stealing the
    /// second worker drains them while the first is stuck, so the run
    /// completes and task 0's wait is satisfied.
    #[test]
    fn pathologically_skewed_task_lengths_still_balance() {
        const N: usize = 40;
        let done = Mutex::new(0usize);
        let cv = Condvar::new();
        let out = run_indexed(N, 2, |i| {
            if i == 0 {
                let guard = done.lock().unwrap();
                let (_guard, timeout) = cv
                    .wait_timeout_while(guard, std::time::Duration::from_secs(60), |d| *d < N - 1)
                    .unwrap();
                assert!(
                    !timeout.timed_out(),
                    "tasks behind the long one never ran: scheduler is chunking, not stealing"
                );
            } else {
                *done.lock().unwrap() += 1;
                cv.notify_all();
            }
            i
        });
        assert_eq!(out, (0..N).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn worker_panic_propagates() {
        let _ = run_indexed(8, 2, |i| {
            if i == 5 {
                panic!("task failure");
            }
            i
        });
    }
}
