//! Deterministic row-band parallelism for the SSIM index map.
//!
//! The quality crate stays off the simulator's runtime, so it carries its
//! own tiny banding helper instead of sharing one. The contract matches
//! it exactly: workers compute disjoint row bands, results are concatenated
//! in band order, and any reduction happens *after* the concatenation on
//! the calling thread — so the output is bit-identical for every thread
//! count, including the inline serial path.

use std::num::NonZeroUsize;
use std::ops::Range;

/// Resolves the worker count: an explicit knob wins (zero sanitizes to
/// 1), else [`std::thread::available_parallelism`].
pub(crate) fn thread_count(explicit: Option<usize>) -> usize {
    match explicit {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
    }
}

/// Splits `rows` row indices into contiguous bands, maps `per_band` over
/// them and concatenates the band outputs in row order. With
/// `threads <= 1` (or a single row) one band covers every row and runs
/// inline on the caller; otherwise each band gets one scoped worker. When
/// every row's output is a pure function of the row index, the
/// concatenation is identical for every band partition.
///
/// # Panics
///
/// Propagates panics from `per_band`.
pub(crate) fn map_bands<T, F>(threads: usize, rows: usize, per_band: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    if threads <= 1 || rows <= 1 {
        return per_band(0..rows);
    }
    let band = rows.div_ceil(threads.min(rows));
    let mut out = Vec::new();
    // patu-lint: allow(thread-spawn) — the banded-SSIM runner: scoped workers, band-ordered merge, bit-identical to serial
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..rows)
            .step_by(band)
            .map(|lo| {
                let per_band = &per_band;
                scope.spawn(move || per_band(lo..rows.min(lo + band)))
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
        let per_band = |band: Range<usize>| {
            band.flat_map(|row| (0..5).map(move |col| (row * 31 + col) as u64))
                .collect::<Vec<u64>>()
        };
        let serial = map_bands(1, 13, per_band);
        for threads in [2, 3, 4, 8, 64] {
            assert_eq!(
                map_bands(threads, 13, per_band),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_and_single_row_inputs() {
        let per_band = |band: Range<usize>| band.collect::<Vec<_>>();
        assert!(map_bands(4, 0, per_band).is_empty());
        assert_eq!(map_bands(4, 1, per_band), vec![0]);
    }

    #[test]
    fn explicit_thread_knob_wins_and_sanitizes() {
        assert_eq!(thread_count(Some(3)), 3);
        assert_eq!(thread_count(Some(0)), 1, "zero sanitizes to one");
        assert!(thread_count(None) >= 1);
    }
}
