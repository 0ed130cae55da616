//! The paper's experiments: every table, figure, ablation and calibration
//! diagnostic, plus the serving, chaos, temporal-reuse and telemetry
//! harnesses, run by name from the `paper` binary.
//!
//! ```text
//! cargo run --release -p patu-bench --bin paper -- <name>… | all [--full] [--frames N]
//! ```
//!
//! Each experiment prints its report and also writes it to
//! `out/<name>.txt`, even when it then fails its acceptance gate. Most
//! figures are views of one per-game design-space exploration (Baseline,
//! AF-off, the θ = 0.4 design points, PATU at θ = 0…1; paper Sec. VII),
//! so each experiment declares the policies it
//! reads and [`run`] builds every game's workload once and renders the
//! union of those policies in one [`run_policies`] call per game. Each
//! policy's result is independent of which policies render beside it, so
//! every experiment prints what it would print with a sweep of its own.

mod ablations;
mod figures;
mod serve;
mod temporal;
mod trace;

use crate::{micro, ArgError, Knobs, RunOptions, RUN_FLAGS};
use patu_core::FilterPolicy;
use patu_scenes::{default_specs, Workload, WorkloadSpec};
use patu_sim::experiment::{design_points, run_policies, AggregateResult, ExperimentConfig};
use std::cell::OnceCell;
use std::error::Error;
use std::fmt::Write as _;
use std::path::Path;

/// What an experiment returns: its report is in the `String` it was given.
type Report = Result<(), Box<dyn Error>>;

/// A labelled policy, as [`run_policies`] takes it.
type Policy = (&'static str, FilterPolicy);

/// One named experiment.
pub struct Experiment {
    /// The name it is run by, and of its `out/<name>.txt`.
    pub name: &'static str,
    /// The policies it reads from the shared per-game sweep.
    sweep: fn() -> Vec<Policy>,
    run: fn(&Ctx, &mut String) -> Report,
}

const fn exp(
    name: &'static str,
    sweep: fn() -> Vec<Policy>,
    run: fn(&Ctx, &mut String) -> Report,
) -> Experiment {
    Experiment { name, sweep, run }
}

/// Baseline and AF-off.
fn af_on_off() -> Vec<Policy> {
    vec![
        ("Baseline", FilterPolicy::Baseline),
        ("NoAF", FilterPolicy::NoAf),
    ]
}

/// The four design points at θ = 0.4 (Sec. VII-B).
fn points() -> Vec<Policy> {
    design_points(0.4)
}

/// The Fig. 17 threshold sweep: Baseline and PATU at θ = 0, 0.1, …, 1.
fn thetas() -> Vec<Policy> {
    let sweep = THETAS.map(|threshold| ("PATU", FilterPolicy::Patu { threshold }));
    [("Baseline", FilterPolicy::Baseline)]
        .into_iter()
        .chain(sweep)
        .collect()
}

/// The thresholds of [`thetas`].
const THETAS: [f64; 11] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Baseline and PATU at θ = 0.4.
fn baseline_patu() -> Vec<Policy> {
    vec![
        ("Baseline", FilterPolicy::Baseline),
        ("PATU", FilterPolicy::Patu { threshold: 0.4 }),
    ]
}

/// The experiments `all` runs, in order.
pub const EXPERIMENTS: &[Experiment] = &[
    exp("headline", points, figures::headline),
    exp("table1", Vec::new, figures::table1),
    exp("table2", Vec::new, figures::table2),
    exp("fig04", Vec::new, figures::fig04),
    exp("fig05", af_on_off, figures::fig05),
    exp("fig06", af_on_off, figures::fig06),
    exp(
        "fig07",
        || vec![("NoAF", FilterPolicy::NoAf)],
        figures::fig07,
    ),
    exp("fig08", Vec::new, figures::fig08),
    exp(
        "fig12",
        || vec![("Baseline", FilterPolicy::Baseline)],
        figures::fig12,
    ),
    exp("fig17", thetas, figures::fig17),
    exp("fig18", points, figures::fig18),
    exp("fig19", points, figures::fig19),
    exp("fig20", points, figures::fig20),
    exp("fig21", baseline_patu, figures::fig21),
    exp("fig22", Vec::new, figures::fig22),
    exp(
        "quad_divergence",
        || vec![("PATU", FilterPolicy::Patu { threshold: 0.4 })],
        figures::quad_divergence,
    ),
    exp("ablation_table", Vec::new, ablations::table),
    exp("ablation_maxaniso", Vec::new, ablations::maxaniso),
    exp("ablation_bp", thetas, ablations::bp),
    exp("ablation_oracle", Vec::new, ablations::oracle),
    exp("ablation_traversal", Vec::new, ablations::traversal),
    exp("ablation_temporal", Vec::new, ablations::temporal),
    exp("serve_bench", Vec::new, serve::serve_bench),
    exp("serve_chaos", Vec::new, serve::serve_chaos),
    exp("temporal_bench", Vec::new, temporal::temporal_bench),
];

/// The calibration diagnostic (DESIGN.md §5b–c), scene snapshots and the
/// `PATU_TRACE` telemetry run, which run only by name.
pub const BY_NAME_ONLY: &[Experiment] = &[
    exp("diag", Vec::new, ablations::diag),
    exp("render_scenes", Vec::new, ablations::render_scenes),
    exp("trace_smoke", Vec::new, trace::trace_smoke),
];

/// Parses `<name>… | all` plus [`RunOptions`] flags (in any order) into
/// the experiments to run, in the order named, and the run options.
///
/// # Errors
///
/// An [`ArgError`] for a bad flag (see [`RunOptions::parse`]), an unknown
/// experiment name, or no name at all; a name error lists every name.
pub fn parse(
    args: impl IntoIterator<Item = String>,
) -> Result<(Vec<&'static Experiment>, RunOptions), ArgError> {
    let (mut names, mut flags) = (Vec::new(), Vec::new());
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--frames" {
            flags.push(arg);
            flags.extend(args.next());
        } else if arg.starts_with('-') {
            flags.push(arg);
        } else {
            names.push(arg);
        }
    }
    let opts = RunOptions::parse(flags)?;
    let every = || EXPERIMENTS.iter().chain(BY_NAME_ONLY);
    let reject = |arg: String| {
        let names: Vec<&str> = every().map(|e| e.name).collect();
        ArgError {
            arg,
            accepted: format!("all | {}, then {RUN_FLAGS}", names.join(" | ")),
        }
    };
    if names.is_empty() {
        return Err(reject("(no experiment)".into()));
    }
    let mut selected: Vec<&'static Experiment> = Vec::new();
    for name in names {
        let chosen: Vec<&Experiment> = if name == "all" {
            EXPERIMENTS.iter().collect()
        } else {
            vec![every()
                .find(|e| e.name == name)
                .ok_or_else(|| reject(name))?]
        };
        for e in chosen {
            if !selected.iter().any(|s| s.name == e.name) {
                selected.push(e);
            }
        }
    }
    Ok((selected, opts))
}

/// Runs `experiments` in order under `opts` and `knobs`: writes each
/// report to `stdout` and to `dir/<name>.txt` (`paper` passes `out`).
///
/// # Errors
///
/// The first experiment or file error. An experiment that fails still has
/// the report it wrote printed and saved first.
pub fn run(
    experiments: &[&Experiment],
    opts: RunOptions,
    knobs: Knobs,
    dir: &Path,
    stdout: &mut impl std::io::Write,
) -> Report {
    let ctx = Ctx {
        opts,
        knobs,
        union: union(experiments),
        games: OnceCell::new(),
    };
    std::fs::create_dir_all(dir)?;
    for e in experiments {
        eprintln!("=== {} ===", e.name);
        let mut report = String::new();
        let result = (e.run)(&ctx, &mut report);
        stdout.write_all(report.as_bytes())?;
        std::fs::write(dir.join(format!("{}.txt", e.name)), &report)?;
        result?;
    }
    Ok(())
}

/// Every policy `experiments` read from the shared sweep, once each, in
/// first-read order.
fn union(experiments: &[&Experiment]) -> Vec<Policy> {
    let mut union: Vec<Policy> = Vec::new();
    for policy in experiments.iter().flat_map(|e| (e.sweep)()) {
        if !union.iter().any(|(_, p)| *p == policy.1) {
            union.push(policy);
        }
    }
    union
}

/// What every experiment reads: the options, the knobs, and the games.
struct Ctx {
    opts: RunOptions,
    knobs: Knobs,
    /// The policies the shared sweep renders.
    union: Vec<Policy>,
    games: OnceCell<Vec<Game>>,
}

/// One Table II game at the run's resolution, with its sweep rows.
struct Game {
    spec: WorkloadSpec,
    workload: Workload,
    /// One row per policy of the shared sweep.
    rows: Vec<AggregateResult>,
}

impl Game {
    /// The sweep's row for `policy`.
    fn row(&self, policy: FilterPolicy) -> &AggregateResult {
        self.rows
            .iter()
            .find(|r| r.policy == policy)
            .expect("the experiment declares every policy it reads")
    }

    /// The Fig. 17 sweep as `threshold_sweep` returns it: the baseline row
    /// and `(θ, PATU@θ)` pairs.
    fn theta_sweep(&self) -> (AggregateResult, Vec<(f64, AggregateResult)>) {
        let sweep = THETAS
            .iter()
            .map(|&t| (t, self.row(FilterPolicy::Patu { threshold: t }).clone()));
        (self.row(FilterPolicy::Baseline).clone(), sweep.collect())
    }
}

impl Ctx {
    /// The experiment configuration under the run's options and knobs.
    fn cfg(&self) -> ExperimentConfig {
        self.knobs.experiment(&self.opts)
    }

    /// The Table II games (`default_specs`), each built once and swept
    /// once over the union of the requested experiments' policies.
    fn games(&self) -> Result<&[Game], Box<dyn Error>> {
        if let Some(games) = self.games.get() {
            return Ok(games);
        }
        let mut games = Vec::new();
        for spec in default_specs() {
            let workload = Workload::build(spec.name, self.opts.resolution(&spec))?;
            let rows = if self.union.is_empty() {
                Vec::new()
            } else {
                run_policies(&workload, &self.union, &self.cfg())?
            };
            games.push(Game {
                spec,
                workload,
                rows,
            });
        }
        Ok(self.games.get_or_init(|| games))
    }

    /// The game named `name`.
    fn game(&self, name: &str) -> Result<&Game, Box<dyn Error>> {
        let games = self.games()?;
        Ok(games
            .iter()
            .find(|g| g.spec.name == name)
            .expect("game in the default set"))
    }

    /// Writes an experiment's title line, naming the active profile.
    fn title(&self, out: &mut String, title: &str) -> Report {
        writeln!(out, "{title} ({})", self.opts.profile_banner())?;
        Ok(())
    }
}

/// Writes what `encode` produces to `path`; unlike a dropped `BufWriter`,
/// reports every write error.
fn write_file(path: &str, encode: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> Report {
    let mut bytes = Vec::new();
    encode(&mut bytes)?;
    std::fs::write(path, bytes)?;
    Ok(())
}

/// Writes `json` to `name` at the repository root and says so in `out`,
/// naming the file relative to the root so the report reads the same from
/// every checkout.
fn record(out: &mut String, name: &str, json: String) -> Report {
    std::fs::write(micro::repo_root().join(name), json)?;
    writeln!(out, "wrote {name} at the repository root")?;
    Ok(())
}

/// Writes the standard paper-vs-measured footer.
fn paper_note(out: &mut String, figure: &str, claim: &str) -> Report {
    writeln!(out, "\n[{figure}] paper reports: {claim}")?;
    writeln!(
        out,
        "(absolute numbers differ — our substrate is a synthetic simulator;"
    )?;
    writeln!(
        out,
        " the comparison point is the trend/direction. See EXPERIMENTS.md.)"
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<(Vec<&'static str>, RunOptions), ArgError> {
        let (experiments, opts) = super::parse(args.split_whitespace().map(str::to_string))?;
        Ok((experiments.iter().map(|e| e.name).collect(), opts))
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<&str> = EXPERIMENTS
            .iter()
            .chain(BY_NAME_ONLY)
            .map(|e| e.name)
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} is registered twice");
        }
        assert_eq!(names.len(), 28);
    }

    #[test]
    fn all_runs_the_script_list_in_order() {
        let script = "headline table1 table2 fig04 fig05 fig06 fig07 fig08 fig12 fig17 fig18 \
                      fig19 fig20 fig21 fig22 quad_divergence ablation_table ablation_maxaniso \
                      ablation_bp ablation_oracle ablation_traversal ablation_temporal \
                      serve_bench serve_chaos temporal_bench";
        let (names, opts) = parse("all").unwrap();
        assert_eq!(names, script.split_whitespace().collect::<Vec<_>>());
        assert_eq!(opts, RunOptions::default());
    }

    #[test]
    fn names_and_flags_mix_in_any_order() {
        let (names, opts) = parse("--frames 3 fig05 --full diag fig05").unwrap();
        assert_eq!(names, ["fig05", "diag"]);
        assert_eq!(
            opts,
            RunOptions {
                full: true,
                frames: 3
            }
        );
        let (names, _) = parse("fig21 all").unwrap();
        assert_eq!(names.len(), 25);
        assert_eq!(names[0], "fig21", "a name runs once, where first given");
    }

    #[test]
    fn unknown_names_missing_names_and_bad_flags_are_rejected() {
        for (args, rejected) in [
            ("fig99", "fig99"),
            ("", "(no experiment)"),
            ("--full", "(no experiment)"),
            ("fig05 ALL", "ALL"),
            ("diag2", "diag2"),
        ] {
            let err = parse(args).unwrap_err();
            assert_eq!(err.arg, rejected, "{args}");
            for accepted in ["all", "headline", "diag", "render_scenes", RUN_FLAGS] {
                assert!(err.accepted.contains(accepted), "{err}");
            }
        }
        for (args, rejected) in [
            ("fig05 --fast", "--fast"),
            ("fig05 --frames 0", "--frames 0"),
        ] {
            let err = parse(args).unwrap_err();
            assert_eq!(err.arg, rejected, "{args}");
            assert_eq!(err.accepted, RUN_FLAGS);
        }
    }

    #[test]
    fn trace_smoke_runs_by_name_only() {
        let (names, _) = parse("trace_smoke").unwrap();
        assert_eq!(names, ["trace_smoke"]);
        let (all, _) = parse("all").unwrap();
        assert!(!all.contains(&"trace_smoke"));
    }

    fn failing_gate(_: &Ctx, out: &mut String) -> Report {
        writeln!(out, "gate report")?;
        Err("gate not met".into())
    }

    fn never_reached(_: &Ctx, out: &mut String) -> Report {
        writeln!(out, "after the failure")?;
        Ok(())
    }

    #[test]
    fn a_failed_gate_still_prints_and_writes_its_report() {
        let failing = exp("failing_gate", Vec::new, failing_gate);
        let after = exp("after", Vec::new, never_reached);
        let dir = std::env::temp_dir().join(format!("patu_paper_drive_{}", std::process::id()));
        let mut stdout = Vec::new();
        let opts = RunOptions::default();
        let err = run(
            &[&failing, &after],
            opts,
            Knobs::default(),
            &dir,
            &mut stdout,
        )
        .expect_err("the gate's error is returned");
        assert_eq!(err.to_string(), "gate not met");
        assert_eq!(String::from_utf8(stdout).unwrap(), "gate report\n");
        let written = std::fs::read_to_string(dir.join("failing_gate.txt")).unwrap();
        assert_eq!(written, "gate report\n");
        assert!(
            !dir.join("after.txt").exists(),
            "the run stops at the first failure"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_figures_share_one_fifteen_policy_sweep() {
        let (all, _) = super::parse(["all".to_string()]).unwrap();
        let readers: Vec<&str> = all
            .iter()
            .filter(|e| !(e.sweep)().is_empty())
            .map(|e| e.name)
            .collect();
        assert_eq!(
            readers,
            [
                "headline",
                "fig05",
                "fig06",
                "fig07",
                "fig12",
                "fig17",
                "fig18",
                "fig19",
                "fig20",
                "fig21",
                "quad_divergence",
                "ablation_bp"
            ]
        );
        // Baseline, NoAF, the two θ = 0.4 demotion-only points, and PATU
        // at 11 thresholds (θ = 0.4 shared with the design points).
        assert_eq!(union(&all).len(), 15);
        let (headline, _) = super::parse(["headline".to_string()]).unwrap();
        assert_eq!(union(&headline), design_points(0.4));
    }
}
