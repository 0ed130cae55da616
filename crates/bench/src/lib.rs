//! # patu-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! PATU paper (HPCA 2018). The `paper` binary runs the [`paper`]
//! experiments by name: each prints the same rows/series the paper
//! reports, alongside the paper's published value where one exists, so
//! EXPERIMENTS.md can record paper-vs-measured.
//!
//! `paper` accepts experiment names (or `all`) and ([`RunOptions`]):
//!
//! * `--full` — run at the paper's Table II resolutions (slow). The default
//!   "fast" profile halves each dimension (quarter area), which preserves
//!   every trend while keeping a full figure regeneration in minutes.
//! * `--frames N` — frames averaged per data point (default 2, N ≥ 1).
//!
//! Any other argument is an [`ArgError`]. Every binary resolves the
//! `PATU_*` environment knobs once, through [`knobs::Knobs::from_env`].
//!
//! Self-contained `Instant`-based micro-benchmarks for the core data
//! structures live in `benches/` (see [`micro`] for the harness).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod knobs;
pub mod micro;
pub mod paper;

pub use knobs::{KnobError, Knobs};

use patu_gpu::GpuConfig;
use patu_scenes::WorkloadSpec;
use patu_sim::experiment::ExperimentConfig;
use std::fmt;

/// The flags [`RunOptions::parse`] accepts, as printed in [`ArgError`]s.
const RUN_FLAGS: &str = "--full, --frames <N >= 1>";

/// A command-line argument a binary does not accept.
#[derive(Clone, PartialEq, Eq)]
pub struct ArgError {
    /// The rejected argument (for `--frames`, the flag and its value).
    pub arg: String,
    /// What the binary accepts instead.
    pub accepted: String,
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid argument `{}`; accepted: {}",
            self.arg, self.accepted
        )
    }
}

// `main` returning `Err` prints the error's `Debug`, so it reads as the
// message.
impl fmt::Debug for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for ArgError {}

/// For binaries that take no flags: fails on the first process argument.
///
/// # Errors
///
/// An [`ArgError`] naming the first argument given.
pub fn no_args() -> Result<(), ArgError> {
    match std::env::args().nth(1) {
        Some(arg) => Err(ArgError {
            arg,
            accepted: "no arguments".into(),
        }),
        None => Ok(()),
    }
}

/// Command-line options shared by all harness binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Run at the paper's full resolutions instead of the fast profile.
    pub full: bool,
    /// Frames averaged per data point.
    pub frames: u32,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            full: false,
            frames: 2,
        }
    }
}

impl RunOptions {
    /// Parses `--full` and `--frames N` (N ≥ 1) from `args`.
    ///
    /// # Errors
    ///
    /// An [`ArgError`] for any other argument, or for `--frames` without
    /// a positive integer after it.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<RunOptions, ArgError> {
        let reject = |arg| ArgError {
            arg,
            accepted: RUN_FLAGS.into(),
        };
        let mut opts = RunOptions::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => opts.full = true,
                "--frames" => {
                    let value = args.next().unwrap_or_default();
                    let n = value.parse().ok().filter(|&n| n >= 1);
                    opts.frames = n.ok_or_else(|| reject(format!("--frames {value}")))?;
                }
                _ => return Err(reject(arg)),
            }
        }
        Ok(opts)
    }

    /// The resolution to simulate a spec at: the paper's own under `--full`,
    /// else half each dimension (quarter the pixels).
    pub fn resolution(&self, spec: &WorkloadSpec) -> (u32, u32) {
        if self.full {
            spec.resolution
        } else {
            (spec.resolution.0 / 2, spec.resolution.1 / 2)
        }
    }

    /// The experiment configuration for this run.
    pub fn experiment(&self) -> ExperimentConfig {
        ExperimentConfig {
            frames: self.frames,
            frame_stride: 150,
            gpu: GpuConfig::default(),
            ..ExperimentConfig::default()
        }
    }

    /// A human-readable description of the active profile.
    pub fn profile_banner(&self) -> String {
        format!(
            "profile: {} resolutions, {} frame(s) per data point",
            if self.full {
                "paper (Table II)"
            } else {
                "fast (half-dimension)"
            },
            self.frames
        )
    }
}

/// Formats a ratio as a percentage delta, e.g. `+17.2%` for 1.172.
pub fn pct_delta(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

/// Formats a 0–1 fraction as a percentage.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options() {
        let o = RunOptions::default();
        assert!(!o.full);
        assert_eq!(o.frames, 2);
    }

    #[test]
    fn fast_profile_halves_dimensions() {
        let spec = patu_scenes::catalog()
            .into_iter()
            .find(|s| s.label() == "hl2-1600x1200")
            .unwrap();
        let o = RunOptions::default();
        assert_eq!(o.resolution(&spec), (800, 600));
        let full = RunOptions { full: true, ..o };
        assert_eq!(full.resolution(&spec), (1600, 1200));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct_delta(1.172), "+17.2%");
        assert_eq!(pct_delta(0.9), "-10.0%");
        assert_eq!(pct(0.62), "62.0%");
    }

    fn parse(args: &str) -> Result<RunOptions, ArgError> {
        RunOptions::parse(args.split_whitespace().map(str::to_string))
    }

    #[test]
    fn flags_parse_strictly() {
        assert_eq!(parse("").unwrap(), RunOptions::default());
        let o = parse("--frames 5 --full").unwrap();
        assert!(o.full);
        assert_eq!(o.frames, 5);
        for (args, rejected) in [
            ("--frame 5", "--frame"),
            ("--frames 0", "--frames 0"),
            ("--frames two", "--frames two"),
            ("--frames", "--frames "),
            ("--full extra", "extra"),
        ] {
            let err = parse(args).unwrap_err();
            assert_eq!(err.arg, rejected, "{args}");
            let msg = format!("{err:?}");
            assert!(msg.contains(rejected) && msg.contains(RUN_FLAGS), "{msg}");
        }
    }

    #[test]
    fn experiment_uses_frames() {
        let o = RunOptions {
            full: false,
            frames: 5,
        };
        assert_eq!(o.experiment().frames, 5);
    }
}
