//! # patu-obs
//!
//! The simulator's deterministic telemetry layer. Its clock is **simulated
//! cycles, not wall time**, and every merge walks collectors in cluster
//! order — the same ordered-merge discipline as `patu_sim::parallel` — so
//! each artifact (JSONL event stream, Chrome trace, flight-recorder dump,
//! report table) is bit-identical across thread counts, with and
//! without fault injection.
//!
//! * [`config::TraceLevel`] / [`config::TelemetryConfig`] — the trace
//!   level (`off | counters | spans`); `off` records nothing and costs a
//!   branch per call site.
//! * [`hist::Log2Histogram`] — fixed-bucket log2 latency/count histogram
//!   with deterministic `p50/p95/p99` (nearest-rank over integer buckets).
//! * [`span::Span`] — a named `[start, end)` cycle range on a [`span::Track`]
//!   (front-end, one per cluster, or the analysis track).
//! * [`collect::Collector`] — worker-private recorder (spans, counters,
//!   histograms, flight-recorder ring); [`collect::FrameTelemetry`] is the
//!   cluster-order merge of a frame's collectors.
//! * [`recorder::FlightRecorder`] — a bounded ring of the last events per
//!   cluster, dumped automatically when a watchdog trips or a fault
//!   fallback fires ([`recorder::FlightDump`]).
//! * [`sink`] — per-frame JSONL, Chrome Trace Event Format (load the file
//!   in `chrome://tracing` or Perfetto), and file output.
//! * [`report::Table`] — the single run-summary/diagnostic table renderer.
//! * [`json`] — hand-rolled JSON: escaping, non-finite-`f64`-to-`null`
//!   formatting, and a minimal parser for the schema checker.
//! * [`schema`] — validation of every JSONL line the sinks emit.
//! * [`attrib`] — per-frame cycle attribution by stage with an exact
//!   conservation invariant against the frame's critical path.
//! * [`dump`] — perceptual debug artifacts (PPM heatmaps and per-tile
//!   decision maps).
//!
//! Nothing here depends on wall clocks, random state, iteration order of
//! hash maps, or anything else that could differ between two runs of the
//! same simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrib;
pub mod collect;
pub mod config;
pub mod dump;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod report;
pub mod schema;
pub mod sink;
pub mod span;

pub use attrib::{Attribution, Stage};
pub use collect::{Collector, FrameTelemetry};
pub use config::{TelemetryConfig, TraceLevel};
pub use dump::{heat_color, write_ppm, TileGrid};
pub use hist::Log2Histogram;
pub use recorder::{FlightDump, FlightRecorder};
pub use report::Table;
pub use span::{Event, EventKind, Span, Track};
