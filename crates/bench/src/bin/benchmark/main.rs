//! The repository's benchmark: host time of the simulator, end to end and
//! layer by layer, with the paper's simulated outcomes held beside it.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]
//! cargo run --release -p patu-bench --bin benchmark -- ...
//! ```
//!
//! The first form, the one `BENCHMARK.json` names, builds this directory
//! as a package of its own; its release profile mirrors the workspace's (a
//! test below keeps the two equal). The second form is the same sources as
//! `patu-bench`'s auto-discovered `benchmark` binary, which is how the
//! workspace's `cargo test`, clippy and patu-lint reach them.
//!
//! # Workloads
//!
//! A seed selects one of [`expected::WINDOWS`] input windows,
//! `seed mod 8`; the same seed gives the same inputs and the same simulated
//! results. The windows of `headline` and `sequence` are close together on
//! purpose: windows far apart on the camera loops differ by several percent
//! in work and speedup, which would drown a host-time change in input
//! noise.
//!
//! - `headline`: `run_policies(design_points(0.4))` over the seven
//!   `default_specs()` games at the fast profile (half resolution), three
//!   frames per game at stride `150 + 2·window`: 84 renders and 63 full
//!   MSSIMs per pass. It is the loop every `fig*`/`table*` binary runs, and
//!   where the paper's numbers come from; the fragment→texel path does
//!   nearly all of its host work.
//! - `sequence`: `render_sequence` over the `orbit` and `dolly` presets at
//!   640×480, 48 consecutive frames from `6·window`, PATU θ = 0.4 with
//!   temporal reuse `on`. The same frames rendered with reuse `off`, untimed
//!   before the passes, are the cycle and MSSIM reference. Reuse skips the
//!   fragment path for most orbit tiles and few dolly tiles, so a
//!   fragment-path gain shows smaller here than on `headline`, and a change
//!   to temporal reuse shows only here.
//! - `serve_calm`: five patu-serve sessions (8 clients × 125 jobs, calm
//!   scenario, load 0.75, `pressure_gain` 0.4, session seeds
//!   `1000·window + 1..=5`). The load sits just under the capacity knee
//!   and the resilience mechanisms stay idle: the side a resilience change
//!   bypasses.
//! - `serve_chaos`: the same sessions under `steady_transients`,
//!   `single_gpu_flap`, `half_pool_outage` and `straggler_storm` at load
//!   0.5, twenty sessions in all. Retries, circuit breakers, hedging and the
//!   brownout ladder act here.
//!
//! Load comes from this one process. Serve sessions are open-loop on the
//! simulated clock, so generator lateness is zero by construction.
//! Modelled caches start empty in every frame.
//!
//! # Untraced runs: end-to-end metrics
//!
//! Set-up runs first, [`SETUP_REPS`] times; `setup_s` is the median. Then
//! timed passes of the workload repeat until `--seconds` of passes were
//! measured, at `threads = min(2, available_parallelism)`. Each pass times
//! the same sections (a game, a camera path, a scenario's sessions), and
//! `ops_per_s` is the ops of one pass over the sum of each section's
//! fastest time. On a shared host, other tenants can slow every core by
//! half for seconds at a time; a section's fastest time is the one such a
//! slowdown disturbed least, so it moves with the code, not the neighbours.
//! An op is a rendered frame (`headline`, its MSSIM included), a sequence
//! frame, or a submitted serve job. `peak_rss_mb` is the process's `VmHWM`.
//!
//! `sim_speedup` and `sim_mssim` are simulated:
//!
//! - `headline`: PATU θ = 0.4 against the 16×AF baseline (the paper
//!   reports 1.17× and MSSIM ≥ 0.93; those reference values print beside
//!   the measured ones, as do the energy and filter-latency ratios, 0.89
//!   and 0.71);
//! - `sequence`: temporal reuse `on` against `off` (Σ cycles; mean
//!   per-frame MSSIM);
//! - `serve_*`: the governed thresholds' render cycles against every
//!   delivered job rendered at the base threshold; mean delivered SSIM.
//!   Violation and degrade rates print beside them.
//!
//! Every workload reports the same five metrics, none of which can read 0.
//! Failures are the result line's `failed` count rather than a metric, and
//! outcomes that exist for one workload only (energy and filter-latency
//! ratios, violation and degrade rates, per-path speedup and reuse) print as
//! extra lines and return as per-layer metrics of the traced run.
//!
//! A run is `correct` when every pass reproduces the first bit for bit,
//! every simulated outcome, printed lines included, equals the value
//! [`expected`] records for the seed's window, and each workload's own
//! checks hold (serve: job conservation and a schema-clean log). A change
//! meant to move a simulated outcome therefore re-records `expected.rs` in
//! a benchmark change of its own. Failed ops are `SimError`/`ServeError`s
//! and sessions whose checks fail.
//!
//! # Traced runs: the layer ledger
//!
//! `--trace` runs one serial pass (threads = 1) and times the calls into
//! each crate's public functions from outside, through
//! `patu_bench::micro::timed`. Spans (name, parent, calls, duration, self
//! time) go to `target/benchmark/<workload>-trace.jsonl`; the per-layer
//! metrics print. Each metric and the end-to-end metric it should move:
//!
//! - `patu-raster` (`raster.*`): `ops_per_s` on `headline`, with a larger
//!   share on `sequence`, where geometry runs even for reused tiles;
//! - `patu-core` `filter_batch` (`core.*`; the baseline split is texel
//!   sampling alone, the patu split adds predictor and hash): `ops_per_s`
//!   on `headline`;
//! - `patu-gpu` `process_flat` and `MemorySystem` (`gpu.*`): `ops_per_s`
//!   on `headline`, mostly at the baseline point;
//! - `patu-sim` (`sim.*`): merge and shard set-up cost, `render_frame` and
//!   sequence-frame percentiles, and `sim.residual_frac`, the median share
//!   of `render_frame` time the layer spans leave unexplained;
//! - `patu-quality` (`quality.*`): `ops_per_s` on `headline` (`sequence`
//!   scores its MSSIM outside the timed sections);
//! - `patu-obs` (`obs.spans_overhead_frac`, the median of Spans-level over
//!   untraced `render_frame` time, minus one): no end-to-end metric, since
//!   untraced runs record nothing;
//! - `patu-temporal` (`temporal.*`): `ops_per_s` and `sim_speedup` on
//!   `sequence`;
//! - `patu-serve` (`serve.*`, through a timing `FrameService` wrapper):
//!   `ops_per_s` on `serve_*`; the per-scenario retry, hedge, breaker, shed
//!   and failure counters move the violation and degrade rates on
//!   `serve_chaos`.
//!
//! `headline` and `sequence` replay each frame layer by layer
//! (see `replay.rs`) and check the replay reproduces the renderer's pixels
//! and cycles (`sim.replay_exact`). The ledger is serial while untraced runs
//! use up to two threads, so layer times add up to serial time, not to the
//! untraced wall time. A layer a workload never calls reads 0.

mod cli;
mod expected;
mod headline;
mod ledger;
mod replay;
mod sequence;
mod serve;

use cli::{Args, Workload};
use ledger::{median, Layers, Ledger, END_TO_END};
use patu_bench::micro::timed;
use patu_obs::json::{escape, num};
use std::error::Error;
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-up repetitions of every workload.
const SETUP_REPS: usize = 21;

/// A simulated outcome of an untraced run.
pub struct Simulated {
    /// Metric-style name.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// The paper's value, where it reports one.
    pub paper: Option<&'static str>,
}

/// What an untraced run measured.
pub struct Measured {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Timed passes run.
    pub passes: usize,
    /// Ops of one pass over its fastest sections' seconds.
    pub ops_per_s: f64,
    /// Ops attempted over all passes.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Whether every pass agreed and the workload's own checks held.
    pub correct: bool,
    /// Every simulated outcome, `sim_speedup` and `sim_mssim` among them.
    pub simulated: Vec<Simulated>,
}

/// What a traced run measured.
pub struct Traced {
    /// Per-layer metrics.
    pub layers: Layers,
    /// The spans behind them.
    pub ledger: Ledger,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Whether every output check held.
    pub correct: bool,
}

/// Runs `setup` `reps` times, keeping the last result; returns it with the
/// median seconds.
///
/// # Errors
///
/// Returns the first set-up error.
pub fn measure_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, Box<dyn Error>>,
) -> Result<(T, f64), Box<dyn Error>> {
    let mut seconds = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps.max(1) {
        let (result, ms) = timed(&mut setup);
        state = Some(result?);
        seconds.push(ms / 1e3);
    }
    let state = state.ok_or("set-up never ran")?;
    Ok((state, median(&seconds)))
}

/// The timed passes of an untraced run.
pub struct Passes<T> {
    /// Each pass's output.
    pub outputs: Vec<T>,
    /// Each pass's section times, milliseconds, in the same order every
    /// pass.
    pub section_ms: Vec<Vec<f64>>,
}

impl<T> Passes<T> {
    /// Seconds of one pass made of each section's fastest time.
    pub fn fastest_s(&self) -> f64 {
        let sections = self.section_ms.first().map_or(0, Vec::len);
        let fastest = (0..sections).fold(0.0, |sum, s| {
            sum + self
                .section_ms
                .iter()
                .map(|pass| pass[s])
                .fold(f64::INFINITY, f64::min)
        });
        fastest / 1e3
    }
}

/// Repeats `pass` until at least `seconds` of sections were measured (at
/// least one pass). `pass` gets the pass index and returns its output and
/// the milliseconds of each of its timed sections, so work between the
/// sections of one pass stays unmeasured.
pub fn measure_passes<T>(seconds: u64, mut pass: impl FnMut(usize) -> (T, Vec<f64>)) -> Passes<T> {
    let mut passes = Passes {
        outputs: Vec::new(),
        section_ms: Vec::new(),
    };
    let mut measured = 0.0;
    while passes.outputs.is_empty() || measured < seconds as f64 * 1e3 {
        let (out, ms) = pass(passes.outputs.len());
        measured += ms.iter().sum::<f64>();
        passes.outputs.push(out);
        passes.section_ms.push(ms);
    }
    passes
}

/// The process's peak resident set, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, Box<dyn Error>> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The last line of every run: the machine-readable result.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(name),
                num(*value),
                escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn untraced(args: &Args, threads: usize) -> Result<String, Box<dyn Error>> {
    let m = match args.workload {
        Workload::Headline => headline::measure(args, threads)?,
        Workload::Sequence => sequence::measure(args, threads)?,
        Workload::ServeCalm | Workload::ServeChaos => serve::measure(args, threads)?,
    };
    println!(
        "workload {} seed {} window {} threads {threads} passes {}",
        args.workload.name(),
        args.seed,
        expected::window(args.seed),
        m.passes
    );
    let simulated = |name: &str| {
        m.simulated
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
            .ok_or_else(|| format!("the workload reports no `{name}`"))
    };
    let values = [
        m.setup_s,
        m.ops_per_s,
        peak_rss_mb()?,
        simulated("sim_speedup")?,
        simulated("sim_mssim")?,
    ];
    let metrics: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_string(), value, unit))
        .collect();
    for (name, value, unit) in &metrics[..3] {
        println!("{name} {} {unit}", num(*value));
    }
    for s in &m.simulated {
        match s.paper {
            Some(p) => println!("{} {} {} (paper: {p})", s.name, num(s.value), s.unit),
            None => println!("{} {} {}", s.name, num(s.value), s.unit),
        }
    }
    let mismatches = expected::check(args.workload, args.seed, &m.simulated);
    for mismatch in &mismatches {
        println!("mismatch: {mismatch}");
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    Ok(result_json(
        m.correct && mismatches.is_empty() && finite,
        m.attempted,
        m.failed,
        &metrics,
    ))
}

fn traced(args: &Args) -> Result<String, Box<dyn Error>> {
    let t = match args.workload {
        Workload::Headline => headline::trace(args.seed)?,
        Workload::Sequence => sequence::trace(args.seed)?,
        Workload::ServeCalm | Workload::ServeChaos => serve::trace(args)?,
    };
    let path = PathBuf::from("target")
        .join("benchmark")
        .join(format!("{}-trace.jsonl", args.workload.name()));
    t.ledger.write_jsonl(&path)?;
    println!(
        "workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        path.display()
    );
    let metrics: Vec<(String, f64, &str)> = ledger::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = t.layers.get(&name);
            (name, value, unit)
        })
        .collect();
    for (name, value, unit) in &metrics {
        println!("{name} {} {unit}", num(*value));
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    Ok(result_json(
        t.correct && finite,
        t.attempted,
        t.failed,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args, threads)
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patu_obs::json::{parse, Json};

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn names_and_units(list: &Json) -> Vec<(String, String)> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let doc = parse(BENCHMARK_JSON).unwrap();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_and_units(doc.get("end_to_end").unwrap()), e2e);
        let layers: Vec<(String, String)> = ledger::per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names_and_units(doc.get("per_layer").unwrap()), layers);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, expected);
        assert_eq!(
            doc.get("run_seconds").unwrap().as_num(),
            Some(cli::DEFAULT_SECONDS as f64)
        );
    }

    #[test]
    fn result_line_has_the_documented_shape() {
        let line = result_json(
            true,
            84,
            0,
            &[
                ("setup_s".to_string(), 0.25, "s"),
                ("x".to_string(), f64::NAN, "u"),
            ],
        );
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("attempted").unwrap().as_num(), Some(84.0));
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_num(), Some(0.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(
            doc.get("metrics").unwrap().get("x").unwrap().get("value"),
            Some(&Json::Null)
        );
    }

    #[test]
    fn passes_run_until_the_budget_is_spent() {
        let passes = measure_passes(1, |i| (i, vec![300.0, 100.0]));
        assert_eq!(
            passes.outputs,
            [0, 1, 2],
            "0.4 s passes reach 1 s on the third"
        );
        assert_eq!(measure_passes(1, |i| (i, vec![5000.0])).outputs.len(), 1);
        let (state, _) = measure_setup(3, || Ok(7)).unwrap();
        assert_eq!(state, 7);
    }

    #[test]
    fn fastest_pass_takes_each_sections_minimum() {
        let times = [vec![300.0, 900.0], vec![500.0, 600.0], vec![400.0, 700.0]];
        let mut next = times.iter();
        let passes = measure_passes(3, |_| ((), next.next().unwrap().clone()));
        assert_eq!(passes.section_ms.len(), 3);
        assert_eq!(passes.fastest_s(), 0.9);
    }

    /// The `[profile.release]` table of a Cargo manifest, as its lines.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|line| line.trim() != "[profile.release]")
            .skip(1)
            .take_while(|line| !line.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .collect()
    }

    #[test]
    fn own_manifest_builds_with_the_workspace_release_profile() {
        let workspace = release_profile(include_str!("../../../../../Cargo.toml"));
        assert!(!workspace.is_empty());
        assert_eq!(release_profile(include_str!("Cargo.toml")), workspace);
    }
}
