//! Gaussian-weighted SSIM: the reference implementation's 11×11 window with
//! a σ = 1.5 circular-symmetric Gaussian, plus the decomposition of SSIM
//! into its luminance / contrast / structure components.
//!
//! The uniform-window variant in [`crate::ssim`] is what the integral-image
//! fast path computes and what the experiment harness uses frame-by-frame;
//! this module provides the original formulation for validation and for
//! analyses that need the component split (e.g. distinguishing AF's
//! *contrast* damage from *structure* damage).

use crate::image::GrayImage;

/// Parameters for the Gaussian-weighted SSIM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianSsimConfig {
    /// Window edge length (11 in the reference implementation).
    pub window: u32,
    /// Gaussian standard deviation in pixels (1.5 in the reference).
    pub sigma: f32,
    /// Luminance stabilization factor (`K1 = 0.01`).
    pub k1: f32,
    /// Contrast stabilization factor (`K2 = 0.03`).
    pub k2: f32,
    /// Sample dynamic range (255).
    pub dynamic_range: f32,
    /// Worker threads for the banded scan (`None` =
    /// [`std::thread::available_parallelism`]). Banding is bit-identical to
    /// the serial scan: per-window values are concatenated in row order and
    /// reduced serially afterwards.
    pub threads: Option<usize>,
}

impl Default for GaussianSsimConfig {
    fn default() -> GaussianSsimConfig {
        GaussianSsimConfig {
            window: 11,
            sigma: 1.5,
            k1: 0.01,
            k2: 0.03,
            dynamic_range: 255.0,
            threads: None,
        }
    }
}

/// The three SSIM components of one comparison, each in `(0, 1]` for
/// non-degenerate inputs, with `ssim = luminance × contrast × structure`
/// (structure may be negative for anti-correlated content).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsimComponents {
    /// Mean-luminance agreement `(2 μx μy + C1) / (μx² + μy² + C1)`.
    pub luminance: f64,
    /// Contrast agreement `(2 σx σy + C2) / (σx² + σy² + C2)`.
    pub contrast: f64,
    /// Structure correlation `(σxy + C3) / (σx σy + C3)`, `C3 = C2 / 2`.
    pub structure: f64,
}

impl SsimComponents {
    /// The combined SSIM value.
    pub fn ssim(&self) -> f64 {
        self.luminance * self.contrast * self.structure
    }
}

impl GaussianSsimConfig {
    fn kernel(&self) -> Vec<f64> {
        let n = self.window as i64;
        let half = (n - 1) as f64 / 2.0;
        let s2 = 2.0 * f64::from(self.sigma) * f64::from(self.sigma);
        let mut k = Vec::with_capacity((n * n) as usize);
        let mut sum = 0.0;
        for y in 0..n {
            for x in 0..n {
                let dx = x as f64 - half;
                let dy = y as f64 - half;
                let w = (-(dx * dx + dy * dy) / s2).exp();
                k.push(w);
                sum += w;
            }
        }
        for w in &mut k {
            *w /= sum;
        }
        k
    }

    /// Weighted local statistics of the window anchored at `(x0, y0)`.
    fn window_components(
        &self,
        a: &GrayImage,
        b: &GrayImage,
        kernel: &[f64],
        x0: u32,
        y0: u32,
    ) -> SsimComponents {
        let n = self.window;
        let (mut mx, mut my) = (0.0f64, 0.0f64);
        for wy in 0..n {
            for wx in 0..n {
                let w = kernel[(wy * n + wx) as usize];
                mx += w * f64::from(a.get(x0 + wx, y0 + wy));
                my += w * f64::from(b.get(x0 + wx, y0 + wy));
            }
        }
        let (mut vx, mut vy, mut cov) = (0.0f64, 0.0f64, 0.0f64);
        for wy in 0..n {
            for wx in 0..n {
                let w = kernel[(wy * n + wx) as usize];
                let da = f64::from(a.get(x0 + wx, y0 + wy)) - mx;
                let db = f64::from(b.get(x0 + wx, y0 + wy)) - my;
                vx += w * da * da;
                vy += w * db * db;
                cov += w * da * db;
            }
        }
        let c1 = f64::from((self.k1 * self.dynamic_range).powi(2));
        let c2 = f64::from((self.k2 * self.dynamic_range).powi(2));
        let c3 = c2 / 2.0;
        let (sx, sy) = (vx.max(0.0).sqrt(), vy.max(0.0).sqrt());
        SsimComponents {
            luminance: (2.0 * mx * my + c1) / (mx * mx + my * my + c1),
            contrast: (2.0 * sx * sy + c2) / (vx + vy + c2),
            structure: (cov + c3) / (sx * sy + c3),
        }
    }

    /// Mean SSIM over all (strided) window positions.
    ///
    /// `stride = 1` is the exact reference computation; larger strides trade
    /// accuracy for speed on large frames.
    ///
    /// # Panics
    ///
    /// Panics if the images differ in size, are smaller than the window, or
    /// `stride == 0`.
    pub fn mssim_strided(&self, a: &GrayImage, b: &GrayImage, stride: u32) -> f64 {
        assert_eq!(a.width(), b.width(), "image widths differ");
        assert_eq!(a.height(), b.height(), "image heights differ");
        assert!(stride > 0, "stride must be positive");
        assert!(
            a.width() >= self.window && a.height() >= self.window,
            "images smaller than the SSIM window"
        );
        let kernel = self.kernel();
        // Window rows banded across workers; the reduction runs serially on
        // the concatenated values, in the same order as the serial scan, so
        // the mean's floating-point rounding is thread-count independent.
        let rows: Vec<u32> = (0..a.height())
            .step_by(stride as usize)
            .take_while(|y| y + self.window <= a.height())
            .collect();
        let threads = crate::par::thread_count(self.threads);
        let values = crate::par::map_rows(threads, rows.len(), |row| {
            let y = rows[row];
            let mut out = Vec::new();
            let mut x = 0;
            while x + self.window <= a.width() {
                out.push(self.window_components(a, b, &kernel, x, y).ssim());
                x += stride;
            }
            out
        });
        values.iter().sum::<f64>() / values.len() as f64
    }

    /// Mean SSIM with unit stride (the reference computation).
    ///
    /// # Panics
    ///
    /// See [`GaussianSsimConfig::mssim_strided`].
    pub fn mssim(&self, a: &GrayImage, b: &GrayImage) -> f64 {
        self.mssim_strided(a, b, 1)
    }

    /// Mean component decomposition over all (strided) windows.
    ///
    /// # Panics
    ///
    /// See [`GaussianSsimConfig::mssim_strided`].
    pub fn components_strided(&self, a: &GrayImage, b: &GrayImage, stride: u32) -> SsimComponents {
        assert_eq!(a.width(), b.width(), "image widths differ");
        assert_eq!(a.height(), b.height(), "image heights differ");
        assert!(stride > 0, "stride must be positive");
        assert!(a.width() >= self.window && a.height() >= self.window);
        let kernel = self.kernel();
        let (mut l, mut c, mut s) = (0.0f64, 0.0f64, 0.0f64);
        let mut count = 0u64;
        let mut y = 0;
        while y + self.window <= a.height() {
            let mut x = 0;
            while x + self.window <= a.width() {
                let comp = self.window_components(a, b, &kernel, x, y);
                l += comp.luminance;
                c += comp.contrast;
                s += comp.structure;
                count += 1;
                x += stride;
            }
            y += stride;
        }
        let n = count as f64;
        SsimComponents {
            luminance: l / n,
            contrast: c / n,
            structure: s / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssim::SsimConfig;

    fn gradient(width: u32, height: u32, phase: u32) -> GrayImage {
        let data = (0..height)
            .flat_map(|y| (0..width).map(move |x| ((x * 7 + y * 13 + phase) % 256) as f32))
            .collect();
        GrayImage::new(width, height, data)
    }

    #[test]
    fn identical_images_score_one() {
        let img = gradient(24, 24, 0);
        let m = GaussianSsimConfig::default().mssim(&img, &img.clone());
        assert!((m - 1.0).abs() < 1e-9, "got {m}");
    }

    #[test]
    fn kernel_sums_to_one() {
        let cfg = GaussianSsimConfig::default();
        let k = cfg.kernel();
        assert_eq!(k.len(), 121);
        let sum: f64 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Center weight is the largest.
        let center = k[(5 * 11 + 5) as usize];
        assert!(k.iter().all(|&w| w <= center + 1e-15));
    }

    #[test]
    fn tracks_uniform_window_variant() {
        // Both implementations should agree on direction and rough scale.
        let a = gradient(32, 32, 0);
        let mut b = a.clone();
        for i in 0..32 {
            b.set(i, 16, 255.0 - b.get(i, 16));
        }
        let gauss = GaussianSsimConfig::default().mssim(&a, &b);
        let uniform = f64::from(SsimConfig::default().mssim(&a, &b));
        assert!(gauss < 1.0 && uniform < 1.0);
        assert!(
            (gauss - uniform).abs() < 0.25,
            "gauss {gauss} vs uniform {uniform}"
        );
    }

    #[test]
    fn components_multiply_to_ssim() {
        let a = gradient(16, 16, 0);
        let b = gradient(16, 16, 40);
        let cfg = GaussianSsimConfig::default();
        let kernel = cfg.kernel();
        let comp = cfg.window_components(&a, &b, &kernel, 0, 0);
        let direct = comp.ssim();
        assert!((direct - comp.luminance * comp.contrast * comp.structure).abs() < 1e-12);
    }

    #[test]
    fn luminance_shift_hits_luminance_term() {
        let a = GrayImage::filled(16, 16, 60.0);
        let b = GrayImage::filled(16, 16, 180.0);
        let comp = GaussianSsimConfig::default().components_strided(&a, &b, 1);
        assert!(
            comp.luminance < 0.8,
            "luminance term drops: {}",
            comp.luminance
        );
        // Flat images: contrast/structure terms stay at their stabilized 1.
        assert!((comp.contrast - 1.0).abs() < 1e-9);
    }

    #[test]
    fn contrast_loss_hits_contrast_term() {
        let a = gradient(22, 22, 0);
        let mean = a.mean();
        // b = flattened version of a (half contrast around the mean).
        let b = GrayImage::new(
            22,
            22,
            a.samples()
                .iter()
                .map(|&v| mean + (v - mean) * 0.3)
                .collect(),
        );
        let comp = GaussianSsimConfig::default().components_strided(&a, &b, 1);
        assert!(
            comp.contrast < 0.9,
            "contrast term drops: {}",
            comp.contrast
        );
        assert!(
            comp.structure > 0.95,
            "structure preserved: {}",
            comp.structure
        );
    }

    #[test]
    fn structure_inversion_hits_structure_term() {
        let a = gradient(22, 22, 0);
        let b = GrayImage::new(22, 22, a.samples().iter().map(|&v| 255.0 - v).collect());
        let comp = GaussianSsimConfig::default().components_strided(&a, &b, 1);
        assert!(comp.structure < 0.0, "anti-correlated: {}", comp.structure);
    }

    #[test]
    fn banded_scan_bit_identical_across_thread_counts() {
        let a = gradient(40, 33, 0);
        let b = gradient(40, 33, 17);
        for stride in [1u32, 3] {
            let serial = GaussianSsimConfig {
                threads: Some(1),
                ..Default::default()
            }
            .mssim_strided(&a, &b, stride);
            for threads in [2usize, 4, 9] {
                let banded = GaussianSsimConfig {
                    threads: Some(threads),
                    ..Default::default()
                }
                .mssim_strided(&a, &b, stride);
                assert_eq!(
                    serial.to_bits(),
                    banded.to_bits(),
                    "stride={stride} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn stride_approximation_close_to_exact() {
        let a = gradient(44, 44, 0);
        let b = gradient(44, 44, 9);
        let cfg = GaussianSsimConfig::default();
        let exact = cfg.mssim(&a, &b);
        let fast = cfg.mssim_strided(&a, &b, 4);
        assert!((exact - fast).abs() < 0.05, "{exact} vs {fast}");
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let a = gradient(16, 16, 0);
        let _ = GaussianSsimConfig::default().mssim_strided(&a, &a.clone(), 0);
    }
}
