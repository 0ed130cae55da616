//! # patu-scenes
//!
//! Synthetic 3D gaming workloads standing in for the seven commercial game
//! traces of the PATU paper's Table II (HPCA 2018), plus the `rbench`
//! texture-stress benchmark used in its Fig. 4 motivation experiment.
//!
//! Licensed game art and captured API traces cannot be redistributed; what
//! the paper's results actually depend on is the *distribution of texture
//! sampling footprints* each game presents — how much of the screen is
//! covered by oblique, high-anisotropy surfaces (floors, roads, terrain)
//! versus screen-facing ones (walls, UI) — and the spatial-frequency content
//! of the textures. Each workload here is a procedural scene tuned to a
//! distinct profile (see [`catalog()`](catalog())):
//!
//! * `hl2` — outdoor valley: grass ground, water strip, distant cliff.
//! * `doom3` — indoor corridor: floor/ceiling/walls all stretch to a far
//!   vanishing point (anisotropy-heavy, dark palette).
//! * `grid` — race circuit: low camera over a road plane (extreme N).
//! * `nfs` — city street: road plus building canyons.
//! * `stal` — open terrain with scattered props and fencing.
//! * `ut3` — arena: mixed facing/oblique architecture.
//! * `wolf` — retro corridor at 640×480.
//! * `rbench` — overlapping oblique high-frequency planes at 2K/4K.
//!
//! All scenes are deterministic (seeded) and animated: [`Workload::frame`]
//! returns the meshes and camera for any frame index, so multi-frame
//! experiments (replay, vsync studies) are reproducible.
//!
//! # Examples
//!
//! ```
//! use patu_scenes::Workload;
//!
//! let workload = Workload::build("doom3", (640, 480)).expect("known game");
//! let frame = workload.frame(0);
//! assert!(!frame.meshes.is_empty());
//! assert!(!workload.textures().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod games;
pub mod geometry;

pub use catalog::{catalog, default_specs, game_names, sequence_specs, WorkloadSpec};
pub use games::{FrameScene, ShaderKind, Workload, WorkloadError};
