//! Deterministic sampled MSSIM: a stratified-tile estimator of Eq. (2).
//!
//! Full MSSIM ([`SsimConfig::mssim`]) streams integral rows down the whole
//! image and scores every window position, so its cost grows with the frame
//! area. The sampled estimator touches only the pixels its sampled windows
//! cover:
//!
//! 1. window positions are partitioned into square tiles of 8 × 8
//!    positions, row-major;
//! 2. consecutive runs of `S = round(1 / fraction)` tiles form strata, and a
//!    [`DetRng`] seeded with [`SampledSsimConfig::seed`] picks exactly one
//!    tile per stratum (one draw per stratum — the plan is a pure function
//!    of the seed and the image dimensions, so the estimate is bit-identical
//!    across runs, machines and thread counts);
//! 3. each sampled tile is evaluated over a *local* integral image covering
//!    only its `(8 + 8 − 1)²` pixel support, built row by row and scored by
//!    the same row functions as the full map;
//! 4. per-window `f32` SSIM values accumulate in `f64` and the mean over
//!    sampled windows is the estimate.
//!
//! Work therefore scales with the sampled fraction instead of the frame
//! area: at the default 1/4 fraction a 512×512 comparison evaluates ~1/4 of
//! the windows and never touches the other 3/4 of the frame.
//!
//! # Error bound
//!
//! Each stratum contributes the exact mean of one of its `S` tiles, so the
//! estimate deviates from the full MSSIM by at most the mean within-stratum
//! spread: `|est − MSSIM| ≤ mean_s(max_tile_mean(s) − min_tile_mean(s))`,
//! which is 0 for spatially uniform quality and degrades gracefully as
//! quality becomes patchy (SSIM itself is bounded in `[−1, 1]`, so the
//! bound never exceeds 2). Rendered-frame comparisons — same scene, same
//! camera, different filtering — have strongly correlated neighboring
//! tiles; the acceptance suite (`tests/batch_equivalence.rs`) pins the
//! observed error at ≤ 0.005 against the full MSSIM on every seed scene.
//!
//! # Sampled or full
//!
//! [`SampledSsimConfig::fraction`] selects the mode: a float in `(0, 1)`
//! sets the sampled fraction, and `None` or any value outside `(0, 1)`
//! runs the full computation — a fraction of 1 *is* the full scan.

use crate::image::GrayImage;
use crate::ssim::{check_sizes, integral_row, window_row, SsimConfig, Sums, WINDOW};
use patu_gmath::DetRng;

/// The sampled fraction [`SampledSsimConfig::new`] starts from: 1/4 of the
/// tiles.
///
/// Paired with the 8-window tile this is the coarsest plan that
/// keeps the observed estimator error within 0.005 of the full MSSIM on
/// every seed scene (see `tests/batch_equivalence.rs`).
pub const DEFAULT_FRACTION: f64 = 0.25;

/// Tile edge length in window positions.
const TILE: usize = 8;

/// Configuration of the stratified sampled-MSSIM estimator: the 8×8
/// windows of [`SsimConfig`], sampled in tiles of 8 × 8 window positions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledSsimConfig {
    /// Sampled fraction of tiles in `(0, 1)` ([`DEFAULT_FRACTION`] by
    /// default). `None` or a value outside `(0, 1)` runs the full
    /// computation.
    pub fraction: Option<f64>,
    /// Seed of the tile-selection plan. Equal seeds and dimensions yield
    /// identical plans — and therefore bit-identical estimates.
    pub seed: u64,
}

impl SampledSsimConfig {
    /// Estimator at [`DEFAULT_FRACTION`] with the given plan seed.
    pub fn new(seed: u64) -> SampledSsimConfig {
        SampledSsimConfig {
            fraction: Some(DEFAULT_FRACTION),
            seed,
        }
    }

    /// Overrides the sampled fraction.
    #[must_use]
    pub fn with_fraction(mut self, fraction: f64) -> SampledSsimConfig {
        self.fraction = Some(fraction);
        self
    }

    /// Estimates the mean SSIM between `x` and `y` from a deterministic
    /// stratified sample of window tiles (or computes it exactly when
    /// [`SampledSsimConfig::fraction`] selects the full scan).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SsimConfig::ssim_map`]: images
    /// that differ in size or are smaller than the window.
    pub fn mssim_sampled(&self, x: &GrayImage, y: &GrayImage) -> f32 {
        match self.fraction.and_then(sanitize) {
            None => SsimConfig::default().mssim(x, y),
            Some(fraction) => self.estimate(x, y, fraction),
        }
    }

    fn estimate(&self, x: &GrayImage, y: &GrayImage, fraction: f64) -> f32 {
        check_sizes(x, y);
        let win = WINDOW as usize;
        let out_w = (x.width() - WINDOW + 1) as usize;
        let out_h = (x.height() - WINDOW + 1) as usize;
        let tiles_x = out_w.div_ceil(TILE);
        let tiles_y = out_h.div_ceil(TILE);
        let total = tiles_x * tiles_y;
        let stride = (1.0 / fraction).round().max(1.0) as usize;

        let mut rng = DetRng::new(self.seed);
        let mut scratch = TileIntegrals::default();
        let mut sum = 0.0f64;
        let mut count = 0u64;
        let mut s = 0;
        while s < total {
            let len = (total - s).min(stride);
            let pick = s + rng.range(len as u64) as usize;
            let wx0 = (pick % tiles_x) * TILE;
            let wy0 = (pick / tiles_x) * TILE;
            let tw = TILE.min(out_w - wx0);
            let th = TILE.min(out_h - wy0);
            scratch.build(x, y, wx0 as u32, wy0 as u32, tw + win - 1, th + win - 1);
            for wy in 0..th {
                for ssim in window_row(scratch.row(wy), scratch.row(wy + win)) {
                    sum += f64::from(ssim);
                }
            }
            count += (tw * th) as u64;
            s += len;
        }
        (sum / count as f64) as f32
    }
}

/// `Some(f)` for a usable sampled fraction, `None` (full scan) otherwise.
fn sanitize(f: f64) -> Option<f64> {
    (f.is_finite() && f > 0.0 && f < 1.0).then_some(f)
}

/// The local summed-area table of the five sums over one sampled tile's
/// pixel support, rebuilt (into a recycled buffer) per tile. Indexed in
/// tile-local coordinates; one extra zero row/column simplifies window
/// queries, exactly like the full scan's integral rows in [`crate::ssim`].
#[derive(Default)]
struct TileIntegrals {
    stride: usize,
    sums: Vec<Sums>,
}

impl TileIntegrals {
    fn build(&mut self, a: &GrayImage, b: &GrayImage, px0: u32, py0: u32, w: usize, h: usize) {
        let stride = w + 1;
        self.stride = stride;
        // Row 0 is zero; `integral_row` writes every other entry.
        self.sums.resize(stride * (h + 1), [0.0; 5]);
        self.sums[..stride].fill([0.0; 5]);
        let image_w = a.width() as usize;
        for y in 0..h {
            let start = (py0 as usize + y) * image_w + px0 as usize;
            let (above, below) = self.sums.split_at_mut((y + 1) * stride);
            integral_row(
                &above[y * stride..],
                &mut below[..stride],
                &a.samples()[start..][..w],
                &b.samples()[start..][..w],
            );
        }
    }

    /// Integral row `r` (tile-local).
    fn row(&self, r: usize) -> &[Sums] {
        &self.sums[r * self.stride..][..self.stride]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(width: u32, height: u32, phase: u32) -> GrayImage {
        let data = (0..height)
            .flat_map(|y| (0..width).map(move |x| ((x * 7 + y * 13 + phase) % 256) as f32))
            .collect();
        GrayImage::new(width, height, data)
    }

    #[test]
    fn identical_images_estimate_one() {
        let img = gradient(128, 96, 0);
        let m = SampledSsimConfig::new(7)
            .with_fraction(0.25)
            .mssim_sampled(&img, &img);
        assert!((m - 1.0).abs() < 1e-6, "got {m}");
    }

    #[test]
    fn estimate_is_deterministic_per_seed() {
        let a = gradient(160, 120, 0);
        let b = gradient(160, 120, 40);
        let cfg = SampledSsimConfig::new(99).with_fraction(0.125);
        let m1 = cfg.mssim_sampled(&a, &b);
        let m2 = cfg.mssim_sampled(&a, &b);
        assert_eq!(m1.to_bits(), m2.to_bits(), "same seed, same estimate");
    }

    #[test]
    fn estimate_tracks_the_full_mssim() {
        // A spatially uniform distortion (gain + bias), the shape rendered
        // frame pairs take: per-tile means stay close, so stratified
        // sampling tracks tightly. (Two *phase-shifted* periodic gradients
        // would instead alias against the plan — the integration suite pins
        // real frame pairs at ≤ 0.005.)
        let a = gradient(160, 120, 0);
        let b = GrayImage::new(
            160,
            120,
            a.samples().iter().map(|v| v * 0.92 + 5.0).collect(),
        );
        let full = SsimConfig::default().with_threads(1).mssim(&a, &b);
        for seed in [1, 2, 17, 99] {
            let est = SampledSsimConfig::new(seed)
                .with_fraction(0.125)
                .mssim_sampled(&a, &b);
            assert!(
                (est - full).abs() <= 0.005,
                "seed {seed}: estimate {est} vs full {full}"
            );
        }
    }

    #[test]
    fn out_of_range_fraction_runs_the_full_scan() {
        let a = gradient(96, 96, 0);
        let b = gradient(96, 96, 70);
        let full = SsimConfig::default().with_threads(1).mssim(&a, &b);
        for f in [1.0, 2.0, 0.0, -0.5, f64::NAN] {
            let est = SampledSsimConfig::new(3)
                .with_fraction(f)
                .mssim_sampled(&a, &b);
            assert_eq!(est.to_bits(), full.to_bits(), "fraction {f}");
        }
    }

    #[test]
    fn sampled_windows_match_the_full_map_values() {
        // The local-integral window arithmetic must agree with the global
        // tables to within f32 rounding: estimate at fraction ~1 (every
        // stratum holds one tile, so every tile is sampled) and compare to
        // the exact mean computed the same way from the full map's values.
        let a = gradient(96, 64, 0);
        let b = gradient(96, 64, 25);
        let est = SampledSsimConfig::new(5)
            .with_fraction(0.9999)
            .mssim_sampled(&a, &b);
        let map = SsimConfig::default().with_threads(1).ssim_map(&a, &b);
        let exact = (map.values().iter().map(|&v| f64::from(v)).sum::<f64>()
            / map.values().len() as f64) as f32;
        assert!((est - exact).abs() < 1e-6, "est {est} vs exact {exact}");
    }

    #[test]
    fn small_images_and_tiny_tiles_work() {
        // Edge tiles clip to the map: 9×5 positions make one full-width
        // tile and one a single position wide; 8×8 pixels make one window.
        for (w, h) in [(16, 12), (8, 8)] {
            let a = gradient(w, h, 0);
            let b = gradient(w, h, 9);
            let m = SampledSsimConfig::new(1)
                .with_fraction(0.5)
                .mssim_sampled(&a, &b);
            assert!(m.is_finite() && m <= 1.0 + 1e-6, "{w}x{h}: {m}");
        }
    }

    #[test]
    #[should_panic(expected = "widths differ")]
    fn mismatched_sizes_panic() {
        let a = gradient(32, 32, 0);
        let b = gradient(33, 32, 0);
        let _ = SampledSsimConfig::new(0)
            .with_fraction(0.5)
            .mssim_sampled(&a, &b);
    }

    #[test]
    fn sanitize_accepts_only_open_unit_interval() {
        assert_eq!(sanitize(0.125), Some(0.125));
        assert_eq!(sanitize(0.0), None);
        assert_eq!(sanitize(1.0), None);
        assert_eq!(sanitize(-1.0), None);
        assert_eq!(sanitize(f64::INFINITY), None);
        assert_eq!(sanitize(f64::NAN), None);
    }
}
