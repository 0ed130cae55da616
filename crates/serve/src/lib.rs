//! patu-serve: a deterministic frame-serving subsystem on top of the PATU
//! simulator.
//!
//! The crate models `N` concurrent clients submitting render jobs (scene +
//! frame + deadline + priority tier) against a fixed-capacity pool of PATU
//! GPUs, entirely on a **virtual clock in simulated GPU cycles** — no wall
//! time anywhere, so every session is bit-identical across runs, machines
//! and thread counts. The pieces:
//!
//! - [`workload`] — seeded open-loop traffic generation (`DetRng`-driven
//!   inter-arrival gaps, scene mix, tier draws, deadline assignment) and the
//!   [`ServeConfig`] knobs.
//! - [`queue`] — the admission-controlled bounded EDF queue whose depth is
//!   both the backpressure signal and the shed trigger.
//! - [`governor`] — the load-adaptive quality loop: queue pressure biases a
//!   [`patu_sim::ThresholdController`], and the composed threshold is
//!   quantized by `FilterPolicy::govern` into a small set of cacheable
//!   render configurations.
//! - [`exec`] — the [`FrameService`] boundary: the real
//!   [`SimFrameService`] renders through `patu_sim` (baseline SSIM
//!   references, per-key render cache, FNV-1a image hashes as bit-identity
//!   witnesses) and the cheap [`SyntheticService`] drives scheduler tests.
//! - [`health`] — the failure domain: per-GPU outage and straggle
//!   [`Episode`] scripts, hash-drawn transient faults, and the resilience
//!   primitives (retry scheduling, the [`CircuitBreaker`], and the tuning
//!   constants `ServeConfig::resilience` switches on).
//! - [`chaos`] — named, fully-seeded [`Scenario`] scripts (single-GPU
//!   flap, correlated half-pool outage, straggler storm…).
//! - [`server`] — the discrete-event loop tying it together, producing a
//!   [`ServeReport`]: stats, a schema-checked JSONL serve log, and
//!   Chrome-traceable telemetry with per-GPU outage postmortems.
//!
//! Quickstart:
//!
//! ```
//! use patu_serve::{run_session, ServeConfig, SimFrameService};
//!
//! let cfg = ServeConfig {
//!     clients: 2,
//!     jobs_per_client: 3,
//!     resolution: (96, 64),
//!     scenes: vec!["doom3".to_string()],
//!     ..ServeConfig::default()
//! };
//! let mut service = SimFrameService::new(&cfg).unwrap();
//! let report = run_session(&cfg, &mut service).unwrap();
//! assert_eq!(
//!     report.stats.delivered + report.stats.shed + report.stats.failed,
//!     report.stats.submitted
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod error;
pub mod exec;
pub mod governor;
pub mod health;
pub mod job;
pub mod queue;
pub mod server;
mod trace;
pub mod workload;

pub use chaos::Scenario;
pub use error::ServeError;
pub use exec::{FrameService, RenderKey, ServedFrame, SimFrameService, SyntheticService};
pub use governor::QualityGovernor;
pub use health::{BreakerState, CircuitBreaker, Episode, EpisodeKind, HealthModel};
pub use job::{CompletedJob, Job, Outcome, Tier};
pub use queue::{Admission, AdmissionQueue};
pub use server::{run_session, ServeReport, ServeStats};
pub use workload::{generate, ServeConfig};
