//! The deterministic parallel runtime: scoped worker threads over
//! statically partitioned work, with results stitched back in index order.
//!
//! Everything in the simulator that fans out goes through [`run_tasks`]:
//! per-cluster tile shards in [`crate::render`] — each carrying every
//! policy a [`crate::render::render_policies`] traversal renders, so an
//! experiment's grid is (frame, cluster) — and independent frames in
//! [`crate::experiment::temporal_stability`]. The contract that makes
//! multi-threaded runs bit-identical to serial ones:
//!
//! 1. **Static partition.** Work→worker assignment is a pure function of
//!    the task index ([`tile_cluster`] for tiles, `i mod workers` for task
//!    queues), never of runtime timing. No work stealing.
//! 2. **Sharded ownership.** Each task owns its mutable state (per policy:
//!    memory shard, texture units, tile pixels). There are no locks or
//!    atomics anywhere — the per-fragment hot path touches only
//!    worker-private data.
//! 3. **Ordered merge.** Results come back in task-index order and every
//!    reduction (counter sums, `f64` accumulation, framebuffer stitching)
//!    runs serially on the caller in that order, so floating-point rounding
//!    and counter totals cannot depend on the thread count.
//!
//! Thread counts resolve explicit config values first, then
//! [`std::thread::available_parallelism`]; a value of 1 runs every task
//! inline on the caller — the serial path.

use std::num::NonZeroUsize;

/// A boxed unit of work executed by [`run_tasks`].
pub type Task<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Resolves the worker count: an explicit value wins (zero sanitizes to
/// 1), else [`std::thread::available_parallelism`].
pub fn thread_count(explicit: Option<usize>) -> usize {
    match explicit {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
    }
}

/// The static tile→cluster assignment: round-robin on the tile index. A
/// pure function of `(tile_index, clusters)`, so the serial and parallel
/// schedules — and the per-cluster fault streams they drive — agree
/// exactly.
pub fn tile_cluster(tile_index: usize, clusters: usize) -> usize {
    tile_index % clusters.max(1)
}

/// Runs `tasks` on up to `threads` scoped workers, returning the results
/// in task order.
///
/// `threads <= 1` (or a single task) executes everything inline on the
/// caller's thread. Otherwise task *i* goes to worker *i mod workers* — a
/// static interleave that is a pure function of the task count — and each
/// worker runs its queue in index order. Results are stitched back by task
/// index, so downstream merges see the same sequence regardless of how
/// many workers actually ran.
///
/// # Panics
///
/// Propagates panics from worker tasks.
pub fn run_tasks<T: Send>(threads: usize, tasks: Vec<Task<'_, T>>) -> Vec<T> {
    let n = tasks.len();
    if threads <= 1 || n <= 1 {
        return tasks.into_iter().map(|task| task()).collect();
    }
    let workers = threads.min(n);
    let mut queues: Vec<Vec<(usize, Task<'_, T>)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, task) in tasks.into_iter().enumerate() {
        queues[i % workers].push((i, task));
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = queues
            .into_iter()
            .map(|queue| {
                scope.spawn(move || {
                    queue
                        .into_iter()
                        .map(|(i, task)| (i, task()))
                        .collect::<Vec<(usize, T)>>()
                })
            })
            .collect();
        for handle in handles {
            // patu-lint: allow(panic-path) — a worker panic must propagate verbatim (documented: "Propagates panics")
            for (i, value) in handle.join().expect("parallel worker panicked") {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        // patu-lint: allow(panic-path) — every index is filled: task i goes to worker i mod workers
        .map(|slot| slot.expect("every task ran exactly once"))
        .collect()
}

/// Maps `f` over `0..n` on up to `threads` workers, returning the results
/// in index order — the borrowing counterpart of [`run_tasks`] for callers
/// whose work is a pure function of an index over shared state (the serve
/// layer's batch renders, sweep points, …).
///
/// Same contract as [`run_tasks`]: static partition, ordered merge, inline
/// on the caller when `threads <= 1`; outputs are bit-identical across
/// every thread count.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn run_indexed<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let tasks: Vec<Task<'_, T>> = (0..n)
        .map(|i| {
            let f = &f;
            Box::new(move || f(i)) as Task<'_, T>
        })
        .collect();
    run_tasks(threads, tasks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: usize) -> Vec<Task<'static, usize>> {
        (0..n)
            .map(|i| Box::new(move || i * i) as Task<'static, usize>)
            .collect()
    }

    #[test]
    fn results_keep_task_order() {
        let expected: Vec<usize> = (0..23).map(|i| i * i).collect();
        for threads in [1, 2, 3, 4, 16, 64] {
            assert_eq!(
                run_tasks(threads, squares(23)),
                expected,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn borrows_from_the_caller_scope() {
        let data: Vec<u64> = (0..100).collect();
        let tasks: Vec<Task<'_, u64>> = (0..4)
            .map(|w| {
                let data = &data;
                Box::new(move || data.iter().skip(w).step_by(4).sum::<u64>()) as Task<'_, u64>
            })
            .collect();
        let partials = run_tasks(4, tasks);
        assert_eq!(partials.iter().sum::<u64>(), 4950);
    }

    #[test]
    fn empty_and_single_task_inputs() {
        assert!(run_tasks::<usize>(8, Vec::new()).is_empty());
        assert_eq!(run_tasks(8, squares(1)), vec![0]);
    }

    #[test]
    fn run_indexed_matches_serial_for_any_thread_count() {
        let data: Vec<u64> = (0..57).map(|i| i * 3).collect();
        let serial = run_indexed(1, data.len(), |i| data[i] + 1);
        for threads in [2, 3, 4, 8, 64] {
            assert_eq!(
                run_indexed(threads, data.len(), |i| data[i] + 1),
                serial,
                "threads={threads}"
            );
        }
        assert!(run_indexed::<u64, _>(4, 0, |i| i as u64).is_empty());
    }

    #[test]
    fn thread_count_resolution() {
        assert_eq!(thread_count(Some(5)), 5);
        assert_eq!(thread_count(Some(0)), 1, "zero sanitizes to one");
        assert!(
            thread_count(None) >= 1,
            "available-parallelism fallback is positive"
        );
    }

    #[test]
    fn tile_assignment_is_round_robin() {
        assert_eq!(tile_cluster(0, 4), 0);
        assert_eq!(tile_cluster(5, 4), 1);
        assert_eq!(tile_cluster(7, 1), 0);
        assert_eq!(tile_cluster(7, 0), 0, "zero clusters sanitizes");
    }
}
