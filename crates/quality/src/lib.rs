//! # patu-quality
//!
//! Perceptual image-quality metrics for the PATU simulator: the Structural
//! Similarity index (SSIM) of Wang et al. (2004), its mean (MSSIM) and
//! per-pixel index maps.
//!
//! The PATU paper (HPCA 2018) uses SSIM throughout: Eq. (1) defines the
//! windowed SSIM between a frame rendered with 16× anisotropic filtering and
//! the same frame with AF disabled or approximated; Eq. (2) averages it into
//! MSSIM; and Fig. 8's SSIM *index map* is the per-pixel visualization that
//! motivates approximating only non-perceivable pixels.
//!
//! The implementation uses integral images so a full-resolution sliding
//! window map costs O(width × height) regardless of window size.
//!
//! # Examples
//!
//! ```
//! use patu_quality::{GrayImage, SsimConfig};
//!
//! let a = GrayImage::new(32, 32, vec![128.0; 32 * 32]);
//! let b = a.clone();
//! let mssim = SsimConfig::default().mssim(&a, &b);
//! assert!((mssim - 1.0).abs() < 1e-6, "identical images have MSSIM 1");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gaussian;
pub mod image;
mod par;
pub mod sampled;
pub mod ssim;

pub use gaussian::{GaussianSsimConfig, SsimComponents};
pub use image::GrayImage;
pub use sampled::SampledSsimConfig;
pub use ssim::{SsimConfig, SsimMap};
