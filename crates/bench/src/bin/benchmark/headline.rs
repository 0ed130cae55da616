//! The `headline` workload: the paper's four design points at θ = 0.4 over
//! the seven Table II games, the loop behind every figure binary.

use crate::cli::Args;
use crate::expected::window;
use crate::ledger::{median, quantile, ratio, record_quality_layers, Layers, Ledger};
use crate::replay::{record_replay_layers, replay_frame, Counts};
use crate::{measure_passes, measure_setup, Measured, Simulated, Traced, SETUP_REPS};
use patu_bench::micro::timed;
use patu_bench::RunOptions;
use patu_energy::EnergyModel;
use patu_obs::{TelemetryConfig, TraceLevel};
use patu_quality::SsimConfig;
use patu_scenes::{default_specs, Workload};
use patu_sim::experiment::{design_points, run_policies, AggregateResult, ExperimentConfig};
use patu_sim::render::{render_frame, FrameResult, RenderConfig};
use patu_sim::SimError;
use std::error::Error;

/// The paper's conservative tuning point.
const THETA: f64 = 0.4;

/// Frames per game and pass.
const FRAMES: u32 = 3;

/// Metric suffix of each design point, in `design_points` order.
const POINTS: [&str; 4] = ["baseline", "sample_area", "sample_area_txds", "patu"];

/// Renders per game and pass: the baseline once per frame (it doubles as
/// the quality reference), plus each approximating design point.
const RENDERS_PER_GAME: u64 = FRAMES as u64 * POINTS.len() as u64;

/// The sampled frames' spacing along each game's camera loop. Strides
/// 150..=164 keep the seven-game mean speedup within 1.5 % across
/// windows; wider strides sample frames whose speedups differ by several
/// percent.
fn frame_stride(seed: u64) -> u32 {
    150 + 2 * window(seed) as u32
}

struct Headline {
    workloads: Vec<Workload>,
    cfg: ExperimentConfig,
}

fn setup(seed: u64) -> Result<Headline, Box<dyn Error>> {
    let opts = RunOptions::default();
    let mut workloads = Vec::new();
    for spec in default_specs() {
        workloads.push(Workload::build(spec.name, opts.resolution(&spec))?);
    }
    Ok(Headline {
        workloads,
        cfg: ExperimentConfig {
            frames: FRAMES,
            frame_stride: frame_stride(seed),
            ..opts.experiment()
        },
    })
}

/// Per-game means of PATU against the baseline, as `headline.rs` reports
/// them.
struct Outcome {
    speedup: f64,
    energy: f64,
    latency: f64,
    mssim: f64,
}

impl Outcome {
    fn mean<'a>(games: impl Iterator<Item = &'a [AggregateResult]>) -> Outcome {
        let (mut speedup, mut energy, mut latency, mut mssim, mut n) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for results in games {
            let (base, patu) = (&results[0], &results[3]);
            speedup += patu.speedup_vs(base);
            energy += patu.energy_ratio_vs(base);
            latency += patu.filter_latency_ratio_vs(base);
            mssim += patu.mssim;
            n += 1.0;
        }
        Outcome {
            speedup: speedup / n,
            energy: energy / n,
            latency: latency / n,
            mssim: mssim / n,
        }
    }

    fn simulated(&self) -> Vec<Simulated> {
        vec![
            Simulated {
                name: "sim_speedup",
                value: self.speedup,
                unit: "x",
                paper: Some("1.17"),
            },
            Simulated {
                name: "sim_mssim",
                value: self.mssim,
                unit: "ssim",
                paper: Some(">= 0.93"),
            },
            Simulated {
                name: "sim_energy_ratio",
                value: self.energy,
                unit: "ratio",
                paper: Some("0.89"),
            },
            Simulated {
                name: "sim_filter_latency_ratio",
                value: self.latency,
                unit: "ratio",
                paper: Some("0.71"),
            },
        ]
    }
}

/// Bit-level agreement of two passes over one game.
fn identical(a: &[AggregateResult], b: &[AggregateResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.stats == y.stats
                && x.mssim.to_bits() == y.mssim.to_bits()
                && x.energy_joules.to_bits() == y.energy_joules.to_bits()
                && x.mean_cycles.to_bits() == y.mean_cycles.to_bits()
                && x.mean_filter_latency.to_bits() == y.mean_filter_latency.to_bits()
        })
}

type Pass = Vec<Result<Vec<AggregateResult>, SimError>>;

/// Runs the untraced workload; each game is a timed section.
///
/// # Errors
///
/// Returns set-up errors; failed renders are counted instead.
pub fn measure(args: &Args, threads: usize) -> Result<Measured, Box<dyn Error>> {
    let (h, setup_s) = measure_setup(SETUP_REPS, || setup(args.seed))?;
    let cfg = h.cfg.with_threads(threads);
    let points = design_points(THETA);
    let passes = measure_passes(args.seconds, |_| {
        h.workloads
            .iter()
            .map(|w| timed(|| run_policies(w, &points, &cfg)))
            .unzip::<_, _, Pass, Vec<f64>>()
    });

    let per_pass = RENDERS_PER_GAME * h.workloads.len() as u64;
    let first = &passes.outputs[0];
    let mut failed = 0;
    let mut correct = true;
    for pass in &passes.outputs {
        for (game, reference) in pass.iter().zip(first) {
            match (game, reference) {
                (Ok(a), Ok(b)) => correct &= identical(a, b),
                (Err(_), _) => failed += RENDERS_PER_GAME,
                (Ok(_), Err(_)) => correct = false,
            }
        }
    }
    let ok: Vec<&[AggregateResult]> = first.iter().flatten().map(Vec::as_slice).collect();
    correct &= !ok.is_empty();
    Ok(Measured {
        setup_s,
        passes: passes.outputs.len(),
        ops_per_s: per_pass as f64 / passes.fastest_s(),
        attempted: per_pass * passes.outputs.len() as u64,
        failed,
        correct,
        simulated: Outcome::mean(ok.iter().copied()).simulated(),
    })
}

/// Per-design-point work and filter time of a traced pass.
#[derive(Default, Clone, Copy)]
struct PointTotals {
    filter_ms: f64,
    lanes: u64,
    taps: u64,
    demoted: u64,
}

/// One design point of one frame, rendered three ways.
struct PointTrace {
    result: FrameResult,
    replay_exact: bool,
    /// Spans-level telemetry changed neither pixels nor statistics.
    unobserved: bool,
    off_ms: f64,
    spans_ms: f64,
    residual: f64,
    counts: Counts,
    filter_ms: f64,
}

/// Renders one point untraced and at Spans telemetry (in the order
/// `spans_first` gives, so warm-up favours neither side of the overhead
/// ratio), then replays it layer by layer under `point`.
fn trace_point(
    ledger: &mut Ledger,
    point: usize,
    workload: &Workload,
    frame: u32,
    rc: &RenderConfig,
    spans_first: bool,
) -> Result<PointTrace, Box<dyn Error>> {
    let spans_rc = rc.with_telemetry(TelemetryConfig::with_level(TraceLevel::Spans));
    let (off, spans) = if spans_first {
        let spans = timed(|| render_frame(workload, frame, &spans_rc));
        (timed(|| render_frame(workload, frame, rc)), spans)
    } else {
        let off = timed(|| render_frame(workload, frame, rc));
        (off, timed(|| render_frame(workload, frame, &spans_rc)))
    };
    ledger.record("sim.render_frame", point, off.1);
    ledger.record("obs.render_frame_spans", point, spans.1);
    let replay = ledger.span("replay", point);
    let replayed = ledger.time(replay, |ledger| {
        replay_frame(workload, frame, rc, None, ledger, replay)
    })?;
    let (result, traced) = (off.0?, spans.0?);
    Ok(PointTrace {
        replay_exact: replayed.image.pixels() == result.image.pixels()
            && replayed.cycles == result.stats.cycles,
        unobserved: traced.image.pixels() == result.image.pixels() && traced.stats == result.stats,
        off_ms: off.1,
        spans_ms: spans.1,
        residual: 1.0 - ledger.children_ms(replay) / off.1,
        counts: replayed.counts,
        filter_ms: replayed.filter_ms,
        result,
    })
}

/// Accumulators of a traced pass.
#[derive(Default)]
struct HeadlineTrace {
    points: [PointTotals; 4],
    counts: Counts,
    render_ms: Vec<f64>,
    residual: Vec<f64>,
    overhead: Vec<f64>,
    attempted: u64,
    failed: u64,
    exact: u64,
    correct: bool,
    /// Per game, per design point: Σ cycles, Σ filter latency, Σ energy.
    games: Vec<[(u64, u64, f64); 4]>,
}

impl HeadlineTrace {
    fn game(
        &mut self,
        ledger: &mut Ledger,
        game: usize,
        workload: &Workload,
        cfg: &ExperimentConfig,
    ) {
        let ssim = SsimConfig::default().with_threads(1);
        let energy = EnergyModel::default();
        let mut sums = [(0u64, 0u64, 0.0f64); 4];
        for frame in cfg.frame_indices() {
            let mut rendered: Vec<Option<FrameResult>> = Vec::with_capacity(POINTS.len());
            for (k, (label, policy)) in design_points(THETA).into_iter().enumerate() {
                self.attempted += 1;
                let rc = RenderConfig::new(policy).with_gpu(cfg.gpu).with_threads(1);
                let point = ledger.span(label, game);
                let spans_first = self.attempted % 2 == 1;
                let traced = ledger.time(point, |ledger| {
                    trace_point(ledger, point, workload, frame, &rc, spans_first)
                });
                let Ok(p) = traced else {
                    self.failed += 1;
                    rendered.push(None);
                    continue;
                };
                self.exact += u64::from(p.replay_exact);
                self.correct &= p.unobserved;
                self.render_ms.push(p.off_ms);
                self.overhead.push(p.spans_ms / p.off_ms - 1.0);
                self.residual.push(p.residual);
                self.counts.accumulate(&p.counts);
                let t = &mut self.points[k];
                t.filter_ms += p.filter_ms;
                t.lanes += p.counts.lanes;
                t.taps += p.counts.taps;
                t.demoted += p.counts.demoted;
                let s = &mut sums[k];
                s.0 += p.result.stats.cycles;
                s.1 += p.result.stats.filter_latency_cycles;
                s.2 += energy.frame_energy(&p.result.stats).total_joules();
                rendered.push(Some(p.result));
            }
            let Some(Some(base)) = rendered.first() else {
                continue;
            };
            let (base_luma, ms) = timed(|| base.luma());
            ledger.record("quality.luma", game, ms);
            for result in rendered.iter().skip(1).flatten() {
                let (luma, ms) = timed(|| result.luma());
                ledger.record("quality.luma", game, ms);
                let (mssim, ms) = timed(|| ssim.mssim(&base_luma, &luma));
                ledger.record("quality.mssim", game, ms);
                self.correct &= mssim > 0.0 && mssim <= 1.0;
            }
        }
        self.games.push(sums);
    }
}

/// Runs the traced workload: every render of one pass, serially, three
/// ways — untraced `render_frame`, `render_frame` at Spans telemetry, and
/// the layer replay — plus each MSSIM.
///
/// # Errors
///
/// Returns set-up errors; failed renders are counted instead.
pub fn trace(seed: u64) -> Result<Traced, Box<dyn Error>> {
    let h = setup(seed)?;
    let mut ledger = Ledger::default();
    let root = ledger.span("headline", 0);
    let mut t = HeadlineTrace {
        correct: true,
        ..HeadlineTrace::default()
    };
    ledger.time(root, |ledger| {
        for (spec, workload) in default_specs().iter().zip(&h.workloads) {
            let game = ledger.span(spec.name, root);
            ledger.time(game, |ledger| t.game(ledger, game, workload, &h.cfg));
        }
    });

    let mut layers = Layers::default();
    record_replay_layers(&mut layers, &ledger, &t.counts);
    record_quality_layers(&mut layers, &ledger);
    let points = &t.points;
    for (k, suffix) in POINTS.iter().enumerate() {
        layers.set(
            &format!("core.ns_per_lane.{suffix}"),
            ratio(points[k].filter_ms * 1e6, points[k].lanes as f64),
        );
    }
    for (k, suffix) in [(0, "baseline"), (3, "patu")] {
        layers.set(
            &format!("core.taps_per_lane.{suffix}"),
            ratio(points[k].taps as f64, points[k].lanes as f64),
        );
    }
    layers.set(
        "core.demoted_frac.patu",
        ratio(points[3].demoted as f64, points[3].lanes as f64),
    );
    layers.set("sim.render_frame_p50_ms", quantile(&t.render_ms, 0.5));
    layers.set("sim.render_frame_p90_ms", quantile(&t.render_ms, 0.9));
    layers.set("sim.residual_frac", median(&t.residual));
    layers.set(
        "sim.replay_exact",
        ratio(t.exact as f64, t.attempted as f64),
    );
    layers.set("obs.spans_overhead_frac", median(&t.overhead));
    // The paper's ratios, per game as `run_policies` forms them (means over
    // frames), then averaged over games.
    let n = f64::from(FRAMES);
    let (mut energy_ratio, mut latency_ratio) = (0.0, 0.0);
    for sums in &t.games {
        energy_ratio += (sums[3].2 / n) / (sums[0].2 / n);
        latency_ratio += (sums[3].1 as f64 / n) / (sums[0].1 as f64 / n);
    }
    let games = t.games.len() as f64;
    layers.set("sim.energy_ratio", ratio(energy_ratio, games));
    layers.set("sim.filter_latency_ratio", ratio(latency_ratio, games));
    Ok(Traced {
        layers,
        ledger,
        attempted: t.attempted,
        failed: t.failed,
        correct: t.correct && t.exact == t.attempted,
    })
}
