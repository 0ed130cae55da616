//! # patu-temporal — cross-frame tile reuse
//!
//! Frame sequences rendered by the simulator are highly coherent: a slow
//! camera moves most tiles by well under a pixel per frame. This crate
//! carries rendered tile pixels and per-tile PATU decision summaries
//! forward across a sequence, so coherent tiles are *blitted* instead of
//! re-running the fragment→texel path.
//!
//! Two pieces:
//!
//! - [`invalidate`]: diffs consecutive [`patu_scenes::FrameScene`]s
//!   (camera delta, per-mesh change detection, screen-space projected
//!   motion per tile) and classifies each tile [`TileClass::Reuse`],
//!   [`TileClass::Repredict`] (pixels stable, decisions stale) or
//!   [`TileClass::Rerender`].
//! - [`store`]: the [`TileStore`] owning the previous frame's pixels,
//!   per-tile ages/drift and [`TileDecision`] summaries, committed after
//!   each rendered frame.
//!
//! The renderer (in `patu-sim`) is responsible for making reuse
//! *deterministic*: fault streams are re-keyed per `(frame, tile)` so a
//! blitted tile consumes no fault-stream state, keeping sequences
//! bit-identical across thread counts and under fault injection.
//!
//! The reuse policy is a plain [`TemporalConfig`] value (mode `off` |
//! `on` | `aggressive`) that the caller builds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod invalidate;
pub mod store;

pub use config::{TemporalConfig, TemporalMode};
pub use invalidate::{classify, FramePlan, TileClass};
pub use store::{TileDecision, TileStore};
