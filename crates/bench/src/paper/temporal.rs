//! Cross-frame tile reuse (`temporal_bench`): both slow-camera sequence
//! presets (`orbit`, `dolly`) at their catalog resolution through
//! temporal modes `off`/`on`/`aggressive`, measuring simulated-cycle
//! sequence throughput against the reuse-disabled run and per-frame MSSIM
//! against its exact pixels. Records `BENCH_temporal.json` at the
//! repository root. The acceptance gate: each preset must reach ≥2×
//! sequence throughput in some reuse mode while that mode's mean MSSIM
//! stays at or above 0.93.
//!
//! All throughput numbers are simulated GPU cycles — this experiment
//! never reads a wall clock, so its artifact is bit-reproducible on any
//! host.

use super::{record, Ctx, Report};
use patu_core::FilterPolicy;
use patu_gpu::TemporalCounts;
use patu_obs::json::{num, num_fixed};
use patu_scenes::{sequence_specs, Workload};
use patu_sim::render::render_sequence;
use patu_sim::FrameResult;
use patu_temporal::{TemporalConfig, TemporalMode, TileStore};
use std::error::Error;
use std::fmt::Write;

const GATE_SPEEDUP: f64 = 2.0;
const GATE_MSSIM: f64 = 0.93;

fn run_sequence(
    ctx: &Ctx,
    workload: &Workload,
    frames: &[u32],
    mode: TemporalMode,
) -> Result<Vec<FrameResult>, Box<dyn Error>> {
    let cfg = ctx.knobs.render(FilterPolicy::Patu { threshold: 0.4 });
    let mut store = TileStore::new(TemporalConfig::for_mode(mode));
    Ok(render_sequence(workload, frames, &cfg, &mut store)?)
}

struct ModeRow {
    mode: TemporalMode,
    cycles: u64,
    speedup: f64,
    mean_mssim: f64,
    min_mssim: f64,
    reused_fraction: f64,
}

fn measure_mode(
    ctx: &Ctx,
    reference: &[FrameResult],
    results: &[FrameResult],
    mode: TemporalMode,
) -> ModeRow {
    let ssim = ctx.knobs.ssim();
    let (mut sum, mut min) = (0.0f64, f64::INFINITY);
    for (off, on) in reference.iter().zip(results) {
        let m = f64::from(ssim.mssim(&off.luma(), &on.luma()));
        sum += m;
        min = min.min(m);
    }
    let cycles: u64 = results.iter().map(|f| f.stats.cycles).sum();
    let reference_cycles: u64 = reference.iter().map(|f| f.stats.cycles).sum();
    let mut tiles = TemporalCounts::default();
    for f in results {
        tiles.accumulate(&f.stats.temporal);
    }
    ModeRow {
        mode,
        cycles,
        speedup: reference_cycles as f64 / cycles.max(1) as f64,
        mean_mssim: sum / reference.len().max(1) as f64,
        min_mssim: if min.is_finite() { min } else { 1.0 },
        reused_fraction: tiles.reuse_fraction(),
    }
}

pub(super) fn temporal_bench(ctx: &Ctx, out: &mut String) -> Report {
    writeln!(
        out,
        "BENCH: temporal tile reuse (simulated cycles, sequence presets)"
    )?;
    let frames: Vec<u32> = (0..12).collect();
    let mut scene_blocks = Vec::new();
    let mut gate_passed = true;

    for spec in sequence_specs() {
        let workload = Workload::build(spec.name, spec.resolution)?;
        let off = run_sequence(ctx, &workload, &frames, TemporalMode::Off)?;
        let off_cycles: u64 = off.iter().map(|f| f.stats.cycles).sum();
        writeln!(
            out,
            "\n{} ({}x{}, {} frames): off = {off_cycles} cycles",
            spec.name,
            spec.resolution.0,
            spec.resolution.1,
            frames.len()
        )?;
        writeln!(
            out,
            "{:<12} {:>14} {:>9} {:>11} {:>10} {:>8}",
            "mode", "cycles", "speedup", "mean-mssim", "min-mssim", "reused"
        )?;
        let mut rows = Vec::new();
        for mode in [TemporalMode::On, TemporalMode::Aggressive] {
            let results = run_sequence(ctx, &workload, &frames, mode)?;
            let row = measure_mode(ctx, &off, &results, mode);
            writeln!(
                out,
                "{:<12} {:>14} {:>8.2}x {:>11.4} {:>10.4} {:>7.0}%",
                row.mode.to_string(),
                row.cycles,
                row.speedup,
                row.mean_mssim,
                row.min_mssim,
                row.reused_fraction * 100.0
            )?;
            rows.push(row);
        }
        let scene_gate = rows
            .iter()
            .any(|r| r.speedup >= GATE_SPEEDUP && r.mean_mssim >= GATE_MSSIM);
        if !scene_gate {
            gate_passed = false;
        }
        let mode_json: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "      {{\"mode\": \"{}\", \"cycles\": {}, \"speedup\": {}, \
                     \"mean_mssim\": {}, \"min_mssim\": {}, \"reused_fraction\": {}}}",
                    r.mode,
                    r.cycles,
                    num_fixed(r.speedup, 3),
                    num(r.mean_mssim),
                    num(r.min_mssim),
                    num_fixed(r.reused_fraction, 4)
                )
            })
            .collect();
        scene_blocks.push(format!(
            "    {{\"scene\": \"{}\", \"resolution\": [{}, {}], \"frames\": {}, \
             \"off_cycles\": {}, \"gate_passed\": {}, \"modes\": [\n{}\n    ]}}",
            spec.name,
            spec.resolution.0,
            spec.resolution.1,
            frames.len(),
            off_cycles,
            scene_gate,
            mode_json.join(",\n")
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"temporal\",\n  \"gate_speedup_min\": {},\n  \
         \"gate_mssim_floor\": {},\n  \"gate_passed\": {gate_passed},\n  \"scenes\": [\n{}\n  ]\n}}\n",
        num_fixed(GATE_SPEEDUP, 1),
        num_fixed(GATE_MSSIM, 2),
        scene_blocks.join(",\n")
    );
    writeln!(out)?;
    record(out, "BENCH_temporal.json", json)?;

    if !gate_passed {
        return Err(format!(
            "temporal acceptance gate failed: need ≥{GATE_SPEEDUP}x at MSSIM ≥{GATE_MSSIM} \
             on every sequence preset"
        )
        .into());
    }
    Ok(())
}
