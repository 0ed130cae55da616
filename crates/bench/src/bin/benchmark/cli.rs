//! Strict command-line parsing. Unlike `patu_bench::RunOptions::from_args`,
//! which ignores what it does not know, every malformed invocation here is a
//! typed [`CliError`]: a benchmark that silently fell back to a default
//! would measure the wrong thing and still print a result.

use std::fmt;

/// The run length used when `--seconds` is not given (the `run_seconds`
/// of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 15;

/// Usage text printed with every CLI error.
pub const USAGE: &str = "usage: benchmark --workload <headline|sequence|serve_calm|serve_chaos> \
                         --seed <u64> [--seconds <u64 >= 1>] [--trace [0|1]]";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's θ = 0.4 design-point sweep over the seven Table II games.
    Headline,
    /// Cross-frame tile reuse over the orbit and dolly camera paths.
    Sequence,
    /// Serve sessions below the capacity knee, resilience idle.
    ServeCalm,
    /// Serve sessions under the four chaos scenarios.
    ServeChaos,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Headline,
        Workload::Sequence,
        Workload::ServeCalm,
        Workload::ServeChaos,
    ];

    /// The name used on the command line and in artifact paths.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Headline => "headline",
            Workload::Sequence => "sequence",
            Workload::ServeCalm => "serve_calm",
            Workload::ServeChaos => "serve_chaos",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A validated invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Selects the workload's inputs; the same seed gives the same inputs.
    pub seed: u64,
    /// Minimum measured time of an untraced run.
    pub seconds: u64,
    /// Run the serial layer ledger instead of the timed passes.
    pub trace: bool,
}

/// Why an invocation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// An argument that is not one of the known flags.
    UnknownFlag(String),
    /// A flag that needs a value came last.
    MissingValue(&'static str),
    /// A flag's value does not parse or is out of range.
    InvalidValue {
        /// The flag.
        flag: &'static str,
        /// The rejected value.
        value: String,
    },
    /// `--workload` names no workload.
    UnknownWorkload(String),
    /// A required flag is absent.
    MissingFlag(&'static str),
    /// A flag was given twice.
    DuplicateFlag(&'static str),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(arg) => write!(f, "unknown argument `{arg}`"),
            CliError::MissingValue(flag) => write!(f, "`{flag}` needs a value"),
            CliError::InvalidValue { flag, value } => {
                write!(f, "invalid value `{value}` for `{flag}`")
            }
            CliError::UnknownWorkload(name) => write!(f, "unknown workload `{name}`"),
            CliError::MissingFlag(flag) => write!(f, "`{flag}` is required"),
            CliError::DuplicateFlag(flag) => write!(f, "`{flag}` given more than once"),
        }
    }
}

impl std::error::Error for CliError {}

fn set<T>(slot: &mut Option<T>, flag: &'static str, value: T) -> Result<(), CliError> {
    if slot.replace(value).is_some() {
        return Err(CliError::DuplicateFlag(flag));
    }
    Ok(())
}

/// Parses the arguments after the program name.
///
/// `--trace` alone turns tracing on; `--trace 0` and `--trace 1` spell it
/// out.
///
/// # Errors
///
/// Returns the first problem found, as a [`CliError`].
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, CliError> {
    let mut args = args.into_iter().peekable();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(arg) = args.next() {
        let flag: &'static str = match arg.as_str() {
            "--workload" => "--workload",
            "--seed" => "--seed",
            "--seconds" => "--seconds",
            "--trace" => "--trace",
            _ => return Err(CliError::UnknownFlag(arg)),
        };
        if flag == "--trace" {
            let on = match args.next_if(|next| !next.starts_with("--")) {
                None => true,
                Some(value) => match value.as_str() {
                    "1" => true,
                    "0" => false,
                    _ => return Err(CliError::InvalidValue { flag, value }),
                },
            };
            set(&mut trace, flag, on)?;
            continue;
        }
        let value = args.next().ok_or(CliError::MissingValue(flag))?;
        let invalid = |value: String| CliError::InvalidValue { flag, value };
        match flag {
            "--workload" => {
                let w = Workload::parse(&value).ok_or(CliError::UnknownWorkload(value))?;
                set(&mut workload, flag, w)?;
            }
            "--seed" => {
                let n = value.parse::<u64>().map_err(|_| invalid(value))?;
                set(&mut seed, flag, n)?;
            }
            _ => match value.parse::<u64>() {
                Ok(n) if n >= 1 => set(&mut seconds, flag, n)?,
                _ => return Err(invalid(value)),
            },
        }
    }
    Ok(Args {
        workload: workload.ok_or(CliError::MissingFlag("--workload"))?,
        seed: seed.ok_or(CliError::MissingFlag("--seed"))?,
        seconds: seconds.unwrap_or(DEFAULT_SECONDS),
        trace: trace.unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &str) -> Result<Args, CliError> {
        parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn long_and_short_forms_parse() {
        let args = run("--workload sequence --seed 7 --seconds 12 --trace 0").unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::Sequence,
                seed: 7,
                seconds: 12,
                trace: false,
            }
        );
        let args = run("--trace --workload serve_chaos --seed 0").unwrap();
        assert!(args.trace);
        assert_eq!(args.workload, Workload::ServeChaos);
        assert_eq!(args.seconds, DEFAULT_SECONDS);
        assert!(run("--workload headline --seed 1 --trace 1").unwrap().trace);
    }

    #[test]
    fn unknown_workload_is_rejected() {
        assert_eq!(
            run("--workload hedline --seed 0"),
            Err(CliError::UnknownWorkload("hedline".to_string()))
        );
    }

    #[test]
    fn missing_or_non_numeric_seed_is_rejected() {
        assert_eq!(
            run("--workload headline"),
            Err(CliError::MissingFlag("--seed"))
        );
        assert_eq!(
            run("--workload headline --seed"),
            Err(CliError::MissingValue("--seed"))
        );
        for bad in ["abc", "-1", "1.5", ""] {
            assert_eq!(
                parse(["--workload", "headline", "--seed", bad].map(str::to_string)),
                Err(CliError::InvalidValue {
                    flag: "--seed",
                    value: bad.to_string(),
                }),
                "seed `{bad}`"
            );
        }
    }

    #[test]
    fn unknown_flags_and_bad_values_are_rejected() {
        assert_eq!(
            run("--workload headline --seed 0 --threads 4"),
            Err(CliError::UnknownFlag("--threads".to_string()))
        );
        assert_eq!(
            run("headline --seed 0"),
            Err(CliError::UnknownFlag("headline".to_string()))
        );
        assert!(matches!(
            run("--workload headline --seed 0 --seconds 0"),
            Err(CliError::InvalidValue {
                flag: "--seconds",
                ..
            })
        ));
        assert!(matches!(
            run("--workload headline --seed 0 --trace yes"),
            Err(CliError::InvalidValue {
                flag: "--trace",
                ..
            })
        ));
        assert_eq!(
            run("--workload headline --seed 0 --seed 1"),
            Err(CliError::DuplicateFlag("--seed"))
        );
        assert_eq!(run("--seed 0"), Err(CliError::MissingFlag("--workload")));
    }
}
