//! Structural Similarity (SSIM) per Wang, Bovik, Sheikh & Simoncelli (2004),
//! the paper's Eq. (1)/(2), with per-pixel index maps (Fig. 8).
//!
//! For each pixel, local statistics (means, variances, covariance) are
//! gathered over an 8×8 window and combined as
//!
//! ```text
//! SSIM(x, y) = (2 μx μy + C1)(2 σxy + C2) / ((μx² + μy² + C1)(σx² + σy² + C2))
//! ```
//!
//! with `C1 = (K1 L)²`, `C2 = (K2 L)²`, `K1 = 0.01`, `K2 = 0.03`, `L = 255`.
//! Local sums come from integral images (summed-area tables), so a full
//! scan costs O(W × H). The tables are streamed, never stored whole: a ring
//! of `WINDOW + 1` integral rows carries the five running sums down the
//! image, and each window row is scored as soon as its bottom row exists.
//! At 640 wide the ring is ~230 KB, whatever the height. [`SsimConfig::mssim`]
//! folds the windows as they stream; only [`SsimConfig::ssim_map`] stores
//! them.

use crate::image::GrayImage;
use std::ops::Range;

/// Window edge length in pixels: the paper's 8×8 uniform windows.
pub(crate) const WINDOW: u32 = 8;
/// Luminance stabilization constant factor.
const K1: f32 = 0.01;
/// Contrast stabilization constant factor.
const K2: f32 = 0.03;
/// Dynamic range of the samples (8-bit luma).
const DYNAMIC_RANGE: f32 = 255.0;

/// The SSIM of one [`WINDOW`]² window from its five sums: `Σx`, `Σy`,
/// `Σx²`, `Σy²` and `Σxy`. The full map and the sampled estimator both
/// score windows here, so they agree bit for bit.
#[inline]
pub(crate) fn window_ssim(sx: f64, sy: f64, sxx: f64, syy: f64, sxy: f64) -> f32 {
    let n = f64::from(WINDOW * WINDOW);
    let c1 = f64::from((K1 * DYNAMIC_RANGE).powi(2));
    let c2 = f64::from((K2 * DYNAMIC_RANGE).powi(2));
    let mx = sx / n;
    let my = sy / n;
    let vx = (sxx / n - mx * mx).max(0.0);
    let vy = (syy / n - my * my).max(0.0);
    let cov = sxy / n - mx * my;
    let ssim =
        ((2.0 * mx * my + c1) * (2.0 * cov + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2));
    ssim as f32
}

/// Panics unless `x` and `y` have the same size and hold at least one
/// window.
pub(crate) fn check_sizes(x: &GrayImage, y: &GrayImage) {
    assert_eq!(x.width(), y.width(), "image widths differ");
    assert_eq!(x.height(), y.height(), "image heights differ");
    assert!(
        x.width() >= WINDOW && x.height() >= WINDOW,
        "images smaller than the SSIM window"
    );
}

/// SSIM settings. The window and constants are the reference
/// implementation's and fixed (see the module docs); only the worker count
/// is set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SsimConfig {
    /// Worker threads for [`SsimConfig::ssim_map`], which splits the map
    /// into bands of window rows. `None` uses
    /// [`std::thread::available_parallelism`]. The map is bit-identical for
    /// every thread count: each band re-runs the integral recurrence from
    /// row 0, and bands concatenate in row order. [`SsimConfig::mssim`]
    /// always runs serially on the caller and ignores this.
    pub threads: Option<usize>,
}

impl SsimConfig {
    /// Pins the banded map to `threads` workers (1 = serial).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> SsimConfig {
        self.threads = Some(threads);
        self
    }
}

/// A per-pixel SSIM index map — the paper's Fig. 8 visualization, where
/// lighter (closer to 1) means the pixel looks the same with and without AF.
#[derive(Debug, Clone, PartialEq)]
pub struct SsimMap {
    width: u32,
    height: u32,
    values: Vec<f32>,
}

impl SsimMap {
    /// Map width (smaller than the image by the window edge minus 1: 7).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Map height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// SSIM value at window position `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, x: u32, y: u32) -> f32 {
        assert!(x < self.width && y < self.height);
        self.values[(y as usize) * (self.width as usize) + x as usize]
    }

    /// All SSIM values in row-major order.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The mean SSIM — the paper's Eq. (2) MSSIM.
    pub fn mean(&self) -> f32 {
        self.values.iter().sum::<f32>() / self.values.len() as f32
    }

    /// Fraction of windows with SSIM at or above `threshold` — the paper's
    /// "non-perceivable pixel" population for a given tuning point.
    pub fn fraction_above(&self, threshold: f32) -> f32 {
        let n = self.values.iter().filter(|&&v| v >= threshold).count();
        n as f32 / self.values.len() as f32
    }

    /// Converts to a grayscale image scaled to `[0, 255]` for PGM dumps.
    pub fn to_gray_image(&self) -> GrayImage {
        GrayImage::new(
            self.width,
            self.height,
            self.values
                .iter()
                .map(|v| v.clamp(0.0, 1.0) * 255.0)
                .collect(),
        )
    }
}

/// The five running sums of one integral-image entry: `Σx`, `Σy`, `Σx²`,
/// `Σy²` and `Σxy` over the rectangle above and left of it.
pub(crate) type Sums = [f64; 5];

/// Fills integral row `row` from the row above it, `up`, and one row of
/// samples of each image: entry 0 is the zero column, and entry `c + 1` is
/// `up[c + 1]` plus the sums of the row's first `c + 1` samples. The full
/// map and the sampled estimator both build their rows here.
#[inline]
pub(crate) fn integral_row(up: &[Sums], row: &mut [Sums], x: &[f32], y: &[f32]) {
    let mut acc: Sums = [0.0; 5];
    row[0] = acc;
    let cells = row[1..].iter_mut().zip(&up[1..]);
    for ((cell, above), (&a, &b)) in cells.zip(x.iter().zip(y)) {
        let (a, b) = (f64::from(a), f64::from(b));
        acc[0] += a;
        acc[1] += b;
        acc[2] += a * a;
        acc[3] += b * b;
        acc[4] += a * b;
        *cell = std::array::from_fn(|k| above[k] + acc[k]);
    }
}

/// The SSIM of each window, left to right, whose top and bottom integral
/// rows are `top` and `bottom` ([`WINDOW`] rows apart).
#[inline]
pub(crate) fn window_row<'a>(
    top: &'a [Sums],
    bottom: &'a [Sums],
) -> impl Iterator<Item = f32> + 'a {
    let win = WINDOW as usize;
    let corners = top
        .iter()
        .zip(&top[win..])
        .zip(bottom.iter().zip(&bottom[win..]));
    corners.map(|((t0, t1), (b0, b1))| {
        let s = |k: usize| b1[k] - t1[k] - b0[k] + t0[k];
        window_ssim(s(0), s(1), s(2), s(3), s(4))
    })
}

/// Streams the SSIM of window rows `rows` between `x` and `y`, in row
/// order, one row of `W − 7` values per `emit` call.
///
/// The summed-area tables of the five sums are never stored whole: a ring
/// of [`WINDOW`] + 1 integral rows holds just what the next window row
/// needs, and a window row is scored as soon as its bottom integral row
/// exists. Integral row `r` depends on every pixel row above it, so the
/// recurrence always starts at row 0, whatever `rows` begins with: every
/// value is the same `f64` operation sequence for any `rows`, and a band
/// of window rows is bit-identical to the same rows of the whole map.
fn scan_rows(x: &GrayImage, y: &GrayImage, rows: Range<usize>, mut emit: impl FnMut(&[f32])) {
    let win = WINDOW as usize;
    let w = x.width() as usize;
    // ring[0] is integral row r − WINDOW, ring[WINDOW] is row r.
    let mut ring = vec![vec![[0.0f64; 5]; w + 1]; win + 1];
    let mut out = vec![0.0f32; w - win + 1];
    let pixel_rows = x.samples().chunks_exact(w).zip(y.samples().chunks_exact(w));
    for (r, (xr, yr)) in pixel_rows.enumerate().take(rows.end + win - 1) {
        ring.rotate_left(1);
        let (older, newest) = ring.split_at_mut(win);
        integral_row(&older[win - 1], &mut newest[0], xr, yr);
        // Integral row r + 1 now exists: score window row r + 1 − WINDOW.
        if r + 1 < rows.start + win {
            continue;
        }
        for (v, ssim) in out.iter_mut().zip(window_row(&ring[0], &ring[win])) {
            *v = ssim;
        }
        emit(&out);
    }
}

impl SsimConfig {
    /// Computes the sliding-window SSIM index map between reference `x`
    /// (e.g. the 16×AF frame) and test image `y`.
    ///
    /// The map has one entry per window position:
    /// `(W - window + 1) × (H - window + 1)` values.
    ///
    /// # Panics
    ///
    /// Panics if the images differ in size or are smaller than the window.
    pub fn ssim_map(&self, x: &GrayImage, y: &GrayImage) -> SsimMap {
        check_sizes(x, y);
        let out_w = x.width() - WINDOW + 1;
        let out_h = x.height() - WINDOW + 1;
        // Banded over window rows; each band streams its own rows (see
        // [`scan_rows`]) and bands concatenate in row order, so the map is
        // bit-identical for any worker count (see [`SsimConfig::threads`]).
        let threads = crate::par::thread_count(self.threads);
        let values = crate::par::map_bands(threads, out_h as usize, |band| {
            let mut values = Vec::with_capacity(band.len() * out_w as usize);
            scan_rows(x, y, band, |row| values.extend_from_slice(row));
            values
        });
        SsimMap {
            width: out_w,
            height: out_h,
            values,
        }
    }

    /// The mean SSIM between two images (the paper's Eq. 2), bit-identical
    /// to [`SsimMap::mean`] of [`SsimConfig::ssim_map`]. It streams the
    /// windows on the calling thread and folds them in row-major order
    /// without building the map.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SsimConfig::ssim_map`].
    pub fn mssim(&self, x: &GrayImage, y: &GrayImage) -> f32 {
        check_sizes(x, y);
        let out_h = (x.height() - WINDOW + 1) as usize;
        let windows = (x.width() - WINDOW + 1) as usize * out_h;
        // `-0.0` is the identity `Iterator::sum` folds `f32`s from.
        let mut sum = -0.0f32;
        scan_rows(x, y, 0..out_h, |row| {
            for &v in row {
                sum += v;
            }
        });
        sum / windows as f32
    }

    /// Like [`SsimConfig::mssim`], but records a `quality::ssim` span and
    /// window counters into `telemetry` on the analysis track.
    ///
    /// SSIM runs off-pipeline, so its span is clocked in deterministic work
    /// units — one per window evaluated, starting at 0 — not GPU cycles.
    /// The recorded numbers are pure functions of the image dimensions and
    /// SSIM parameters, never of the thread count.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SsimConfig::ssim_map`].
    pub fn mssim_traced(
        &self,
        telemetry: &mut patu_obs::Collector,
        x: &GrayImage,
        y: &GrayImage,
    ) -> f32 {
        let mssim = self.mssim(x, y);
        let windows = u64::from(x.width() - WINDOW + 1) * u64::from(x.height() - WINDOW + 1);
        telemetry.span_arg("quality::ssim", 0, windows, "windows", windows);
        telemetry.add("ssim::windows", windows);
        telemetry.add(
            "ssim::pixels_in",
            u64::from(x.width()) * u64::from(x.height()),
        );
        mssim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(width: u32, height: u32) -> GrayImage {
        let data = (0..height)
            .flat_map(|y| (0..width).map(move |x| ((x * 7 + y * 13) % 256) as f32))
            .collect();
        GrayImage::new(width, height, data)
    }

    #[test]
    fn identical_images_score_one() {
        let img = gradient(32, 24);
        let m = SsimConfig::default().mssim(&img, &img);
        assert!((m - 1.0).abs() < 1e-6, "got {m}");
    }

    #[test]
    fn flat_images_same_value_score_one() {
        let a = GrayImage::filled(16, 16, 100.0);
        let m = SsimConfig::default().mssim(&a, &a.clone());
        assert!((m - 1.0).abs() < 1e-6);
    }

    #[test]
    fn inverted_image_scores_low() {
        let img = gradient(32, 32);
        let inv = GrayImage::new(32, 32, img.samples().iter().map(|v| 255.0 - v).collect());
        let m = SsimConfig::default().mssim(&img, &inv);
        assert!(m < 0.3, "structural inversion must score low, got {m}");
    }

    #[test]
    fn ssim_is_symmetric() {
        let a = gradient(24, 24);
        let mut b = a.clone();
        for i in 0..24 {
            b.set(i, i, 255.0 - b.get(i, i));
        }
        let cfg = SsimConfig::default();
        let ab = cfg.mssim(&a, &b);
        let ba = cfg.mssim(&b, &a);
        assert!((ab - ba).abs() < 1e-6);
    }

    #[test]
    fn ssim_bounded_above_by_one() {
        let a = gradient(24, 24);
        let mut b = a.clone();
        b.set(5, 5, 0.0);
        let map = SsimConfig::default().ssim_map(&a, &b);
        for &v in map.values() {
            assert!(v <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn local_damage_is_localized() {
        let a = gradient(64, 64);
        let mut b = a.clone();
        // Damage an 8x8 block in the corner.
        for y in 0..8 {
            for x in 0..8 {
                b.set(x, y, 255.0 - b.get(x, y));
            }
        }
        let map = SsimConfig::default().ssim_map(&a, &b);
        let damaged = map.get(0, 0);
        let pristine = map.get(40, 40);
        assert!(damaged < 0.7, "damaged window scores low, got {damaged}");
        assert!(
            (pristine - 1.0).abs() < 1e-5,
            "far window untouched, got {pristine}"
        );
    }

    #[test]
    fn blur_lowers_ssim_less_than_inversion() {
        let a = gradient(32, 32);
        // 3x1 horizontal blur.
        let mut blurred = a.clone();
        for y in 0..32 {
            for x in 1..31 {
                let v = (a.get(x - 1, y) + a.get(x, y) + a.get(x + 1, y)) / 3.0;
                blurred.set(x, y, v);
            }
        }
        let inv = GrayImage::new(32, 32, a.samples().iter().map(|v| 255.0 - v).collect());
        let cfg = SsimConfig::default();
        let m_blur = cfg.mssim(&a, &blurred);
        let m_inv = cfg.mssim(&a, &inv);
        assert!(
            m_blur > m_inv,
            "blur {m_blur} should beat inversion {m_inv}"
        );
        assert!(m_blur < 1.0);
    }

    #[test]
    fn banded_map_bit_identical_across_thread_counts() {
        let a = gradient(48, 37);
        let mut b = a.clone();
        for i in 0..37 {
            b.set(i, i, 255.0 - b.get(i, i));
        }
        let serial = SsimConfig::default().with_threads(1).ssim_map(&a, &b);
        for threads in [2, 3, 4, 16] {
            let banded = SsimConfig::default().with_threads(threads).ssim_map(&a, &b);
            assert_eq!(serial, banded, "threads={threads}");
            let ms = SsimConfig::default().with_threads(1).mssim(&a, &b);
            let mb = SsimConfig::default().with_threads(threads).mssim(&a, &b);
            assert_eq!(ms.to_bits(), mb.to_bits(), "MSSIM bits, threads={threads}");
        }
    }

    #[test]
    fn streamed_mssim_matches_the_map_mean_bit_for_bit() {
        for (w, h) in [(8, 8), (9, 30), (48, 37), (200, 9)] {
            let a = gradient(w, h);
            let b = GrayImage::new(
                w,
                h,
                a.samples()
                    .iter()
                    .enumerate()
                    .map(|(i, v)| v * 0.9 + (i % 11) as f32 * 1.7)
                    .collect(),
            );
            let mssim = SsimConfig::default().mssim(&a, &b);
            for threads in [1, 2, 3, 16] {
                let mean = SsimConfig::default()
                    .with_threads(threads)
                    .ssim_map(&a, &b)
                    .mean();
                assert_eq!(
                    mssim.to_bits(),
                    mean.to_bits(),
                    "{w}x{h}, threads={threads}"
                );
            }
        }
    }

    #[test]
    fn traced_mssim_matches_and_records_analysis_span() {
        use patu_obs::{Collector, TelemetryConfig, TraceLevel, Track};
        let a = gradient(32, 24);
        let cfg = SsimConfig::default();
        let plain = cfg.mssim(&a, &a.clone());
        let mut telemetry = Collector::new(
            TelemetryConfig::with_level(TraceLevel::Spans),
            Track::Analysis,
        );
        let traced = cfg.mssim_traced(&mut telemetry, &a, &a.clone());
        assert_eq!(
            plain.to_bits(),
            traced.to_bits(),
            "tracing must not change the metric"
        );
        let mut frame = patu_obs::FrameTelemetry::new(TraceLevel::Spans, 0, "p".into(), 0);
        frame.absorb(telemetry);
        assert_eq!(frame.stage_totals(), vec![("quality::ssim", 1, 25 * 17)]);
        assert_eq!(frame.counters["ssim::windows"], 25 * 17);
        assert_eq!(frame.counters["ssim::pixels_in"], 32 * 24);
    }

    #[test]
    fn map_dimensions() {
        let a = gradient(32, 20);
        let map = SsimConfig::default().ssim_map(&a, &a.clone());
        assert_eq!(map.width(), 25);
        assert_eq!(map.height(), 13);
        assert_eq!(map.values().len(), 25 * 13);
    }

    #[test]
    fn fraction_above_threshold() {
        let a = gradient(32, 32);
        let map = SsimConfig::default().ssim_map(&a, &a.clone());
        assert_eq!(map.fraction_above(0.99), 1.0);
        assert_eq!(map.fraction_above(1.5), 0.0);
    }

    #[test]
    fn window_size_is_respected() {
        for (w, h) in [(8, 8), (9, 30), (32, 32)] {
            let a = gradient(w, h);
            let map = SsimConfig::default().ssim_map(&a, &a.clone());
            assert_eq!((map.width(), map.height()), (w - 7, h - 7), "{w}x{h}");
        }
    }

    #[test]
    #[should_panic(expected = "widths differ")]
    fn mismatched_sizes_panic() {
        let a = gradient(16, 16);
        let b = gradient(17, 16);
        let _ = SsimConfig::default().mssim(&a, &b);
    }

    #[test]
    #[should_panic(expected = "smaller than the SSIM window")]
    fn tiny_image_panics() {
        let a = GrayImage::filled(4, 4, 0.0);
        let _ = SsimConfig::default().mssim(&a, &a.clone());
    }

    #[test]
    fn to_gray_image_scales() {
        let a = gradient(16, 16);
        let map = SsimConfig::default().ssim_map(&a, &a.clone());
        let img = map.to_gray_image();
        assert!(
            img.samples().iter().all(|&v| v > 254.0),
            "all-ones map -> white"
        );
    }

    #[test]
    fn mean_shift_penalized_by_luminance_term() {
        let a = GrayImage::filled(16, 16, 50.0);
        let b = GrayImage::filled(16, 16, 200.0);
        let m = SsimConfig::default().mssim(&a, &b);
        assert!(m < 0.6, "large luminance shift penalized, got {m}");
    }
}
