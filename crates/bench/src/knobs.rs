//! The `PATU_*` environment knobs: the workspace's one environment reader.
//!
//! Every harness binary resolves its knobs once, at the top of `main`,
//! through [`Knobs::from_env`], and passes the values into the configs it
//! builds. Library crates never read the environment. Each knob is parsed
//! strictly: a value outside the accepted set is a [`KnobError`] naming the
//! knob and what it accepts, never a silent fallback. A knob that is unset
//! or blank takes its default.
//!
//! | knob                  | accepts                                | default                |
//! |-----------------------|----------------------------------------|------------------------|
//! | `PATU_THREADS`        | a positive integer                     | available parallelism  |
//! | `PATU_SSIM_SAMPLE`    | `off`, or a fraction in `(0, 1)`       | 0.25                   |
//! | `PATU_SERVE_SCENARIO` | a [`Scenario`] label                   | `calm`                 |
//! | `PATU_TRACE`          | `off`, `counters`, `spans`             | `off`                  |
//! | `PATU_TRACE_OUT`      | a directory                            | none (no files)        |
//! | `PATU_OBS_DUMP`       | a directory                            | none (no dumps)        |

use crate::RunOptions;
use patu_core::FilterPolicy;
use patu_obs::TraceLevel;
use patu_quality::sampled::DEFAULT_FRACTION;
use patu_quality::SsimConfig;
use patu_serve::Scenario;
use patu_sim::experiment::ExperimentConfig;
use patu_sim::render::RenderConfig;
use std::fmt;
use std::path::PathBuf;

/// Every knob, resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct Knobs {
    /// `PATU_THREADS`: worker threads for the renders, sweeps and SSIM
    /// scans a binary configures (`None` = available parallelism). Outputs
    /// are bit-identical for every value.
    pub threads: Option<usize>,
    /// `PATU_SSIM_SAMPLE`: the sampled-MSSIM fraction served frames report
    /// (`None` = the full scan).
    pub ssim_sample: Option<f64>,
    /// `PATU_SERVE_SCENARIO`: the chaos scenario of `paper serve_bench`'s
    /// sessions.
    pub scenario: Scenario,
    /// `PATU_TRACE`: the telemetry level of `paper trace_smoke`'s renders.
    pub trace: TraceLevel,
    /// `PATU_TRACE_OUT`: where `paper trace_smoke` writes its JSONL and
    /// Chrome trace (`None` = no files).
    pub trace_out: Option<PathBuf>,
    /// `PATU_OBS_DUMP`: where `paper trace_smoke` writes its PPM maps
    /// (`None` = no dumps).
    pub obs_dump: Option<PathBuf>,
}

impl Default for Knobs {
    /// The values every knob takes when unset.
    fn default() -> Knobs {
        Knobs {
            threads: None,
            ssim_sample: Some(DEFAULT_FRACTION),
            scenario: Scenario::Calm,
            trace: TraceLevel::Off,
            trace_out: None,
            obs_dump: None,
        }
    }
}

/// A knob set to a value it does not accept.
#[derive(Clone, PartialEq, Eq)]
pub struct KnobError {
    /// The environment variable.
    pub knob: &'static str,
    /// The rejected value, as given.
    pub value: String,
    /// What the knob accepts.
    pub accepted: String,
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={:?} is not accepted; {} takes {}",
            self.knob, self.value, self.knob, self.accepted
        )
    }
}

// `main` returning `Err` prints the error's `Debug`, so it reads as the
// message.
impl fmt::Debug for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for KnobError {}

impl Knobs {
    /// Resolves every knob from the process environment.
    ///
    /// # Errors
    ///
    /// The first knob set to a value it does not accept.
    pub fn from_env() -> Result<Knobs, KnobError> {
        Knobs::parse(|name| match std::env::var(name) {
            Ok(value) => Some(value),
            Err(std::env::VarError::NotPresent) => None,
            // Not UTF-8: no knob accepts it, so pass it on to be rejected.
            Err(std::env::VarError::NotUnicode(raw)) => Some(raw.to_string_lossy().into_owned()),
        })
    }

    /// Resolves every knob through `lookup`, which maps a variable name to
    /// its value (`None` when unset). A blank value counts as unset.
    ///
    /// # Errors
    ///
    /// The first knob set to a value it does not accept.
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Knobs, KnobError> {
        let get = |name: &str| lookup(name).filter(|v| !v.trim().is_empty());
        let mut knobs = Knobs::default();
        if let Some(v) = get("PATU_THREADS") {
            let n = v.trim().parse::<usize>().ok().filter(|&n| n >= 1);
            knobs.threads = Some(n.ok_or_else(|| reject("PATU_THREADS", v, "a positive integer"))?);
        }
        if let Some(v) = get("PATU_SSIM_SAMPLE") {
            knobs.ssim_sample = if v.trim().eq_ignore_ascii_case("off") {
                None
            } else {
                let f = v.trim().parse::<f64>().ok().filter(|&f| f > 0.0 && f < 1.0);
                Some(f.ok_or_else(|| {
                    reject("PATU_SSIM_SAMPLE", v, "`off` or a fraction in (0, 1)")
                })?)
            };
        }
        if let Some(v) = get("PATU_SERVE_SCENARIO") {
            knobs.scenario = Scenario::parse(&v).ok_or_else(|| {
                let labels: Vec<&str> = Scenario::ALL.iter().map(|s| s.label()).collect();
                reject(
                    "PATU_SERVE_SCENARIO",
                    v,
                    &format!("one of {}", labels.join(" | ")),
                )
            })?;
        }
        if let Some(v) = get("PATU_TRACE") {
            knobs.trace = TraceLevel::parse(&v)
                .ok_or_else(|| reject("PATU_TRACE", v, "one of off | counters | spans"))?;
        }
        knobs.trace_out = get("PATU_TRACE_OUT").map(|v| PathBuf::from(v.trim()));
        knobs.obs_dump = get("PATU_OBS_DUMP").map(|v| PathBuf::from(v.trim()));
        Ok(knobs)
    }

    /// `opts`' experiment config with the `PATU_THREADS` worker count.
    pub fn experiment(&self, opts: &RunOptions) -> ExperimentConfig {
        ExperimentConfig {
            threads: self.threads,
            ..opts.experiment()
        }
    }

    /// A render config for `policy` with the `PATU_THREADS` worker count.
    pub fn render(&self, policy: FilterPolicy) -> RenderConfig {
        RenderConfig {
            threads: self.threads,
            ..RenderConfig::new(policy)
        }
    }

    /// The default SSIM config with the `PATU_THREADS` worker count.
    pub fn ssim(&self) -> SsimConfig {
        SsimConfig {
            threads: self.threads,
        }
    }
}

fn reject(knob: &'static str, value: String, accepted: &str) -> KnobError {
    KnobError {
        knob,
        value,
        accepted: accepted.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(pairs: &[(&str, &str)]) -> Result<Knobs, KnobError> {
        Knobs::parse(|name| {
            pairs
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_string())
        })
    }

    /// Asserts `knob=value` is rejected with a message naming the knob,
    /// the value and every accepted form in `accepted`.
    fn rejects(knob: &str, value: &str, accepted: &[&str]) {
        let err = with(&[(knob, value)]).unwrap_err();
        assert_eq!(err.knob, knob);
        let msg = err.to_string();
        assert!(msg.contains(knob), "{msg}");
        assert!(msg.contains(value), "{msg}");
        for a in accepted {
            assert!(msg.contains(a), "{msg} lists {a}");
        }
        assert_eq!(
            format!("{err:?}"),
            msg,
            "main's error output is the message"
        );
    }

    #[test]
    fn unset_and_blank_knobs_take_their_defaults() {
        let unset = with(&[]).unwrap();
        assert_eq!(unset, Knobs::default());
        assert_eq!(unset.threads, None);
        assert_eq!(unset.ssim_sample, Some(DEFAULT_FRACTION));
        assert_eq!(unset.scenario, Scenario::Calm);
        assert_eq!(unset.trace, TraceLevel::Off);
        assert_eq!(unset.trace_out, None);
        assert_eq!(unset.obs_dump, None);
        let names = [
            "PATU_THREADS",
            "PATU_SSIM_SAMPLE",
            "PATU_SERVE_SCENARIO",
            "PATU_TRACE",
            "PATU_TRACE_OUT",
            "PATU_OBS_DUMP",
        ];
        for name in names {
            assert_eq!(with(&[(name, "  ")]).unwrap(), unset, "{name} blank");
        }
    }

    #[test]
    fn threads_knob() {
        assert_eq!(with(&[("PATU_THREADS", "4")]).unwrap().threads, Some(4));
        assert_eq!(with(&[("PATU_THREADS", " 1 ")]).unwrap().threads, Some(1));
        for bad in ["0", "abc", "-2", "1.5"] {
            rejects("PATU_THREADS", bad, &["a positive integer"]);
        }
    }

    #[test]
    fn ssim_sample_knob() {
        let get = |v| with(&[("PATU_SSIM_SAMPLE", v)]).unwrap().ssim_sample;
        assert_eq!(get("off"), None);
        assert_eq!(get("OFF"), None);
        assert_eq!(get("0.125"), Some(0.125));
        for bad in ["1.5", "1", "0", "-0.5", "NaN", "half"] {
            rejects("PATU_SSIM_SAMPLE", bad, &["off", "(0, 1)"]);
        }
    }

    #[test]
    fn scenario_knob() {
        for s in Scenario::ALL {
            let knobs = with(&[("PATU_SERVE_SCENARIO", s.label())]).unwrap();
            assert_eq!(knobs.scenario, s);
        }
        let labels: Vec<&str> = Scenario::ALL.iter().map(|s| s.label()).collect();
        rejects("PATU_SERVE_SCENARIO", "half_pool_outag", &labels);
    }

    #[test]
    fn trace_knob() {
        let knobs = with(&[("PATU_TRACE", "Spans")]).unwrap();
        assert_eq!(knobs.trace, TraceLevel::Spans);
        rejects("PATU_TRACE", "span", &["off", "counters", "spans"]);
    }

    #[test]
    fn directory_knobs_take_any_path() {
        let knobs = with(&[("PATU_TRACE_OUT", " out/t "), ("PATU_OBS_DUMP", "d")]).unwrap();
        assert_eq!(knobs.trace_out, Some(PathBuf::from("out/t")));
        assert_eq!(knobs.obs_dump, Some(PathBuf::from("d")));
    }

    #[test]
    fn configs_carry_the_thread_count() {
        let knobs = with(&[("PATU_THREADS", "3")]).unwrap();
        assert_eq!(knobs.render(FilterPolicy::Baseline).threads, Some(3));
        assert_eq!(knobs.ssim().threads, Some(3));
        let opts = RunOptions::default();
        assert_eq!(knobs.experiment(&opts).threads, Some(3));
        let unset = Knobs::default();
        assert_eq!(
            unset.render(FilterPolicy::Baseline),
            RenderConfig::new(FilterPolicy::Baseline)
        );
        assert_eq!(unset.ssim(), SsimConfig::default());
        assert_eq!(unset.experiment(&opts), opts.experiment());
    }
}
