//! The deterministic parallel runtime: scoped worker threads over
//! statically partitioned work, with results stitched back in index order.
//!
//! The simulator fans out at one level: a frame's per-cluster tile shards
//! in [`crate::render`], each carrying every policy a
//! [`crate::render::render_policies`] traversal renders, go through
//! [`run_tasks`]. Frames render one after another, so an experiment's grid
//! is (frame, cluster) with the frame loop serial. The contract that makes
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
