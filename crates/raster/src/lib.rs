//! # patu-raster
//!
//! A tile-based software rasterization pipeline modeling the 3D-rendering
//! architecture of the PATU paper's Fig. 2 (HPCA 2018): vertex processing,
//! clipping, face culling, a tiling engine, rasterization, early depth test,
//! and fragment generation.
//!
//! The pipeline is *functional* — it produces exact fragments with
//! perspective-correct attributes and analytic UV derivatives — while leaving
//! texture filtering and timing to downstream crates:
//!
//! * [`mesh`] — vertices, triangles, materials.
//! * [`camera`] — view/projection state.
//! * [`pipeline`] — the geometry front-end: transforms, clips, culls and
//!   bins triangles into tiles once per frame, then rasterizes each tile
//!   with a tile-local early-Z into a [`fragment::Fragment`] stream carrying
//!   everything a texture unit needs (UV, `dUV/dx`, `dUV/dy`).
//! * [`framebuffer`] — the color target and PPM output.
//!
//! Fragments carry their 2×2 quad coordinates: modern GPUs (and the paper's
//! texture unit, Sec. V-B) process pixels in quads under SIMD, and PATU's
//! per-pixel predictions can *diverge* within a quad (Sec. V-C(1)) — the
//! simulator measures that divergence downstream.
//!
//! # Examples
//!
//! ```
//! use patu_raster::{Camera, Mesh, Pipeline, Vertex};
//! use patu_gmath::{Vec2, Vec3};
//!
//! // A floor quad stretching away from the camera, textured with material 0.
//! let mesh = Mesh::new(
//!     vec![
//!         Vertex::new(Vec3::new(-10.0, 0.0, -1.0), Vec2::new(0.0, 0.0)),
//!         Vertex::new(Vec3::new(10.0, 0.0, -1.0), Vec2::new(8.0, 0.0)),
//!         Vertex::new(Vec3::new(10.0, 0.0, -60.0), Vec2::new(8.0, 48.0)),
//!         Vertex::new(Vec3::new(-10.0, 0.0, -60.0), Vec2::new(0.0, 48.0)),
//!     ],
//!     vec![[0, 1, 2], [0, 2, 3]],
//!     0,
//! );
//! let camera = Camera::new(
//!     Vec3::new(0.0, 1.5, 0.0),
//!     Vec3::new(0.0, 0.0, -20.0),
//!     60f32.to_radians(),
//!     640.0 / 480.0,
//! );
//! let pipeline = Pipeline::new(640, 480);
//! let out = pipeline.run(&[mesh], &camera);
//! assert!(out.stats.fragments_shaded > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod camera;
pub mod clip;
pub mod fragment;
pub mod framebuffer;
pub mod mesh;
pub mod pipeline;
pub mod tiler;

pub use camera::Camera;
pub use fragment::{Fragment, QuadId};
pub use framebuffer::Framebuffer;
pub use mesh::{Mesh, Vertex};
pub use pipeline::{BinnedFrame, GeometryOutput, GeometryStats, Pipeline, Tile, TraversalOrder};

/// Tile edge length in pixels, per the paper's baseline configuration
/// (Table I: 16×16 tile size).
pub const TILE_SIZE: u32 = 16;
