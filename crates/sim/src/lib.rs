//! # patu-sim
//!
//! The end-to-end experiment harness of the PATU reproduction (HPCA 2018):
//! it wires the rasterizer (`patu-raster`), the perception-aware texture
//! unit (`patu-core`), the GPU timing/memory model (`patu-gpu`), the energy
//! model (`patu-energy`) and the SSIM analyzer (`patu-quality`) into single
//! calls that render a workload frame under a filtering policy and return
//! both the image and the architectural metrics.
//!
//! * [`render`] — one frame, one policy → image + cycles + bandwidth +
//!   filter latency + PATU statistics.
//! * [`experiment`] — the paper's comparisons: AF on/off, the four design
//!   points, threshold sweeps, cache scaling, multi-frame averaging with
//!   MSSIM against the 16×AF baseline.
//! * [`satisfaction`] — a documented synthetic stand-in for the paper's
//!   30-participant user study (Fig. 22); see DESIGN.md §2 for the
//!   substitution rationale.
//!
//! # Examples
//!
//! ```no_run
//! use patu_core::FilterPolicy;
//! use patu_scenes::Workload;
//! use patu_sim::render::{render_frame, RenderConfig};
//!
//! let workload = Workload::build("doom3", (640, 480))?;
//! let cfg = RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 });
//! let frame = render_frame(&workload, 0, &cfg)?;
//! println!("cycles: {}", frame.stats.cycles);
//! println!("fault fallbacks: {}", frame.stats.faults.fallbacks);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod error;
pub mod experiment;
pub mod foveation;
pub mod parallel;
pub mod render;
pub mod satisfaction;

pub use controller::ThresholdController;
pub use error::SimError;
pub use experiment::{AggregateResult, ExperimentConfig};
pub use foveation::Foveation;
pub use render::{
    render_frame, render_policies, render_sequence, BatchMode, FrameResult, RenderConfig,
};
pub use satisfaction::SatisfactionModel;
