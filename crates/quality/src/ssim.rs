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
//! Local sums are computed with integral images, so a full map costs
//! O(W × H).

use crate::image::GrayImage;

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
    /// Worker threads for the banded map computation. `None` uses
    /// [`std::thread::available_parallelism`]. The result is bit-identical
    /// for every thread count: window values are pure functions of shared
    /// integral images, bands concatenate in row order, and the mean is
    /// reduced serially afterwards.
    pub threads: Option<usize>,
}

impl SsimConfig {
    /// Pins the banded computation to `threads` workers (1 = serial).
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

/// Double-precision integral image (summed-area table) over `f(x) ⋅ g(x)`.
struct Integral {
    width: usize,
    sums: Vec<f64>,
}

impl Integral {
    /// Builds the summed-area table of the product of two sample planes.
    fn of_product(a: &GrayImage, b: &GrayImage) -> Integral {
        let (w, h) = (a.width() as usize, a.height() as usize);
        // One extra row/column of zeros simplifies window queries.
        let stride = w + 1;
        let mut sums = vec![0.0f64; stride * (h + 1)];
        for y in 0..h {
            let mut row_acc = 0.0f64;
            for x in 0..w {
                row_acc +=
                    f64::from(a.get(x as u32, y as u32)) * f64::from(b.get(x as u32, y as u32));
                sums[(y + 1) * stride + (x + 1)] = sums[y * stride + (x + 1)] + row_acc;
            }
        }
        Integral {
            width: stride,
            sums,
        }
    }

    /// Sum over the half-open window `[x0, x1) × [y0, y1)`.
    #[inline]
    fn window_sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> f64 {
        self.sums[y1 * self.width + x1]
            - self.sums[y0 * self.width + x1]
            - self.sums[y1 * self.width + x0]
            + self.sums[y0 * self.width + x0]
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
        let ones = GrayImage::filled(x.width(), x.height(), 1.0);
        let sx = Integral::of_product(x, &ones);
        let sy = Integral::of_product(y, &ones);
        let sxx = Integral::of_product(x, x);
        let syy = Integral::of_product(y, y);
        let sxy = Integral::of_product(x, y);

        let win = WINDOW as usize;
        let out_w = x.width() - WINDOW + 1;
        let out_h = x.height() - WINDOW + 1;
        // Banded over window rows: every value is a pure function of the
        // shared integrals, and bands concatenate in row order, so the map
        // is bit-identical for any worker count (see [`SsimConfig::threads`]).
        let threads = crate::par::thread_count(self.threads);
        let values = crate::par::map_rows(threads, out_h as usize, |wy| {
            (0..out_w as usize)
                .map(|wx| {
                    let (x0, y0, x1, y1) = (wx, wy, wx + win, wy + win);
                    window_ssim(
                        sx.window_sum(x0, y0, x1, y1),
                        sy.window_sum(x0, y0, x1, y1),
                        sxx.window_sum(x0, y0, x1, y1),
                        syy.window_sum(x0, y0, x1, y1),
                        sxy.window_sum(x0, y0, x1, y1),
                    )
                })
                .collect()
        });
        SsimMap {
            width: out_w,
            height: out_h,
            values,
        }
    }

    /// The mean SSIM between two images (the paper's Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SsimConfig::ssim_map`].
    pub fn mssim(&self, x: &GrayImage, y: &GrayImage) -> f32 {
        self.ssim_map(x, y).mean()
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
        let map = self.ssim_map(x, y);
        let windows = u64::from(map.width()) * u64::from(map.height());
        telemetry.span_arg("quality::ssim", 0, windows, "windows", windows);
        telemetry.add("ssim::windows", windows);
        telemetry.add(
            "ssim::pixels_in",
            u64::from(x.width()) * u64::from(x.height()),
        );
        map.mean()
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
