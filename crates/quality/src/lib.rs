//! # patu-quality
//!
//! The one perceptual metric of the PATU simulator: the Structural
//! Similarity index (SSIM) of Wang et al. (2004) over 8×8 uniform windows,
//! its mean (MSSIM) and per-pixel index maps.
//!
//! The PATU paper (HPCA 2018) uses SSIM throughout: Eq. (1) defines the
//! windowed SSIM between a frame rendered with 16× anisotropic filtering and
//! the same frame with AF disabled or approximated; Eq. (2) averages it into
//! MSSIM; and Fig. 8's SSIM *index map* is the per-pixel visualization that
//! motivates approximating only non-perceivable pixels.
//!
//! Two scans compute it, and both score each window with the same function
//! of the window's five sums:
//!
//! - [`SsimConfig::mssim`] / [`SsimConfig::ssim_map`] stream integral-image
//!   rows down the frame, so a full scan costs O(width × height) time and
//!   O(width) working memory;
//! - [`SampledSsimConfig::mssim_sampled`] estimates MSSIM from a seeded,
//!   stratified sample of window tiles (the serve layer's quality check).
//!
//! The window (8), `K1` (0.01), `K2` (0.03) and dynamic range (255) are
//! fixed; the only settings are the worker count of the full scan and the
//! sampled fraction and plan seed of the estimate.
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

pub mod image;
mod par;
pub mod sampled;
pub mod ssim;

pub use image::GrayImage;
pub use sampled::SampledSsimConfig;
pub use ssim::{SsimConfig, SsimMap};
