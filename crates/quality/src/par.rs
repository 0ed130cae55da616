//! Deterministic row-band parallelism for the SSIM scans.
//!
//! The quality crate stays off the simulator's runtime, so it carries its
//! own tiny banding helper instead of sharing one. The contract matches
//! it exactly: workers compute disjoint row bands, results are concatenated
//! in band order, and every reduction happens *after* the concatenation on
//! the calling thread — so the output is bit-identical for every thread
//! count, including the inline serial path.

use std::num::NonZeroUsize;

/// Resolves the worker count: an explicit knob wins (zero sanitizes to
/// 1), else [`std::thread::available_parallelism`].
pub(crate) fn thread_count(explicit: Option<usize>) -> usize {
    match explicit {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
    }
}

/// Maps `per_row` over `rows` row indices and concatenates the per-row
/// output vectors in row order. With `threads <= 1` (or a single row) the
/// map runs inline on the caller; otherwise rows are split into contiguous
/// bands, one scoped worker per band, and band outputs are stitched in band
/// order. Because each row's output is a pure function of the row index,
/// the concatenation is identical for every band partition.
///
/// # Panics
///
/// Propagates panics from `per_row`.
pub(crate) fn map_rows<T, F>(threads: usize, rows: usize, per_row: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> Vec<T> + Sync,
{
    if threads <= 1 || rows <= 1 {
        return (0..rows).flat_map(per_row).collect();
    }
    let workers = threads.min(rows);
    let band = rows.div_ceil(workers);
    let mut out = Vec::new();
    // patu-lint: allow(thread-spawn) — the banded-SSIM runner: scoped workers, band-ordered merge, bit-identical to serial
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let per_row = &per_row;
                scope.spawn(move || {
                    let lo = w * band;
                    let hi = rows.min(lo + band);
                    let mut values = Vec::new();
                    for row in lo..hi {
                        values.extend(per_row(row));
                    }
                    values
                })
            })
            .collect();
        for handle in handles {
            // patu-lint: allow(panic-path) — a worker panic must propagate verbatim, not be converted to a quality result
            out.extend(handle.join().expect("SSIM band worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banded_map_matches_serial_for_any_thread_count() {
        let per_row = |row: usize| {
            (0..5)
                .map(|col| (row * 31 + col) as u64)
                .collect::<Vec<u64>>()
        };
        let serial = map_rows(1, 13, per_row);
        for threads in [2, 3, 4, 8, 64] {
            assert_eq!(map_rows(threads, 13, per_row), serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_row_inputs() {
        let per_row = |row: usize| vec![row];
        assert!(map_rows(4, 0, per_row).is_empty());
        assert_eq!(map_rows(4, 1, per_row), vec![0]);
    }

    #[test]
    fn explicit_thread_knob_wins_and_sanitizes() {
        assert_eq!(thread_count(Some(3)), 3);
        assert_eq!(thread_count(Some(0)), 1, "zero sanitizes to one");
        assert!(thread_count(None) >= 1);
    }
}
