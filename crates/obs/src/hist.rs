//! Fixed-bucket log2 histograms with deterministic quantiles.

/// Bucket count: bucket 0 holds the value 0; bucket `i` (1..=64) holds
/// values in `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

/// A log2 histogram over `u64` samples (latencies, tap counts, queue
/// depths).
///
/// Everything is integer arithmetic — recording, merging and quantiles are
/// exactly reproducible and merge order cannot change any result (bucket
/// counts are commutative sums). The struct is `Copy` so it can live inside
/// `FrameStats`-style value types.
///
/// ```
/// use patu_obs::Log2Histogram;
/// let mut h = Log2Histogram::new();
/// for v in [1u64, 2, 3, 4, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.p50(), 3, "median falls in the [2,4) bucket");
/// assert_eq!(h.max(), 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value lands in.
    #[inline]
    fn bucket(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of `value`; the histogram is the one `n`
    /// calls of [`Log2Histogram::record`] build.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Log2Histogram::bucket(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile at `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the rank, clamped to the observed `[min, max]`
    /// range. Resolution is the bucket width (a factor of two), which is
    /// the deliberate price of a fixed 65×8-byte footprint; the value is a
    /// pure function of the bucket counts, so it is deterministic and
    /// merge-order independent. Returns 0 when empty.
    ///
    /// The nearest rank is `ceil(q * count)`, computed with an epsilon guard:
    /// `q * count` in binary floating point can land a hair above an exact
    /// integer (`0.95 * 20 == 19.000000000000004`), and a bare `ceil` would
    /// then overshoot the rank by one.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let scaled = q.clamp(0.0, 1.0) * self.count as f64;
        let nearest = scaled.round();
        let rank = if (scaled - nearest).abs() < 1e-9 * (self.count as f64).max(1.0) {
            nearest as u64
        } else {
            scaled.ceil() as u64
        }
        .clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (see [`Log2Histogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Component-wise merge (bucket sums commute, so any merge order gives
    /// the same histogram).
    pub fn accumulate(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// `(bucket_lower_bound, count)` for every non-empty bucket, in
    /// ascending value order — the JSONL export shape.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Log2Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let (mut bulk, mut single) = (Log2Histogram::new(), Log2Histogram::new());
        for (value, n) in [(7, 3), (0, 2), (1000, 0), (1, 5), (u64::MAX / 2, 3)] {
            bulk.record_n(value, n);
            for _ in 0..n {
                single.record(value);
            }
            assert_eq!(bulk, single, "{n} × {value}");
        }
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Log2Histogram::bucket(0), 0);
        assert_eq!(Log2Histogram::bucket(1), 1);
        assert_eq!(Log2Histogram::bucket(2), 2);
        assert_eq!(Log2Histogram::bucket(3), 2);
        assert_eq!(Log2Histogram::bucket(4), 3);
        assert_eq!(Log2Histogram::bucket(u64::MAX), 64);
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let mut h = Log2Histogram::new();
        // 90 fast samples, 10 slow ones.
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(5_000);
        }
        assert_eq!(h.count(), 100);
        assert!(h.p50() < 20, "median in the fast bucket: {}", h.p50());
        assert!(h.p95() >= 4_096, "p95 in the slow bucket: {}", h.p95());
        assert_eq!(h.max(), 5_000);
        assert_eq!(h.min(), 10);
    }

    #[test]
    fn quantile_clamps_to_observed_range() {
        let mut h = Log2Histogram::new();
        h.record(5);
        assert_eq!(h.p50(), 5, "single sample: every quantile is that sample");
        assert_eq!(h.p99(), 5);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for v in [1u64, 7, 900] {
            a.record(v);
        }
        for v in [3u64, 64, 12_000] {
            b.record(v);
        }
        let mut ab = a;
        ab.accumulate(&b);
        let mut ba = b;
        ba.accumulate(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 6);
        assert_eq!(ab.sum(), 1 + 7 + 900 + 3 + 64 + 12_000);
    }

    #[test]
    fn nonzero_buckets_report_lower_bounds() {
        let mut h = Log2Histogram::new();
        h.record(0);
        h.record(5);
        h.record(5);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets, vec![(0, 1), (4, 2)]);
    }

    #[test]
    fn bucket_edges_at_exact_powers_of_two() {
        // A value equal to a bucket edge 2^k belongs to bucket k+1 (the
        // bucket whose range is [2^k, 2^(k+1))), and nonzero_buckets
        // reports exactly that lower bound.
        for k in 0..63u32 {
            let v = 1u64 << k;
            assert_eq!(Log2Histogram::bucket(v), k as usize + 1, "bucket(2^{k})");
            let mut h = Log2Histogram::new();
            h.record(v);
            assert_eq!(h.nonzero_buckets(), vec![(v, 1)]);
            // With one sample every quantile is that sample.
            for q in [0.0, 0.5, 0.95, 1.0] {
                assert_eq!(h.quantile(q), v, "quantile({q}) of single 2^{k}");
            }
        }
    }

    #[test]
    fn quantile_rank_is_not_fooled_by_float_rounding() {
        // 0.95 * 20 == 19.000000000000004 in f64; a bare ceil turns rank 19
        // into rank 20. With 19 fast samples and one huge outlier the two
        // ranks land in different buckets, so the bug is observable.
        let mut h = Log2Histogram::new();
        for _ in 0..19 {
            h.record(1);
        }
        h.record(1_000_000);
        assert_eq!(h.p95(), 1, "rank 19 of 20 is the last fast sample");
        assert!(h.p99() >= 524_288, "rank 20 is the outlier: {}", h.p99());
    }

    #[test]
    fn quantile_matches_nearest_rank_reference_over_detrng_sweep() {
        use patu_gmath::DetRng;
        let mut rng = DetRng::new(0x0b5e_77ab_1e5e_ed01);
        for trial in 0..200u32 {
            let n = 1 + (rng.next_u64() % 64) as usize;
            let mut samples: Vec<u64> = (0..n)
                .map(|_| {
                    let shift = rng.next_u64() % 20;
                    rng.next_u64() % (1u64 << (shift + 1))
                })
                .collect();
            let mut h = Log2Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            samples.sort_unstable();
            for &q in &[0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
                let scaled = q * n as f64;
                let nearest = scaled.round();
                let rank = if (scaled - nearest).abs() < 1e-9 * n as f64 {
                    nearest as usize
                } else {
                    scaled.ceil() as usize
                }
                .clamp(1, n);
                let reference = samples[rank - 1];
                let got = h.quantile(q);
                // The histogram answers with the containing bucket's upper
                // bound clamped to [min, max]: never below the true
                // nearest-rank value, never above its bucket's upper edge.
                let upper = if reference == 0 {
                    0
                } else {
                    ((1u64 << Log2Histogram::bucket(reference)) - 1).min(h.max())
                };
                assert!(
                    got >= reference && got <= upper.max(reference),
                    "trial {trial} q={q} n={n}: reference {reference}, got {got}, upper {upper}"
                );
            }
        }
    }

    #[test]
    fn mean_matches_samples() {
        let mut h = Log2Histogram::new();
        for v in [2u64, 4, 6] {
            h.record(v);
        }
        assert!((h.mean() - 4.0).abs() < 1e-12);
    }
}
