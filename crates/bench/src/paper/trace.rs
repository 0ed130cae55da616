//! Telemetry smoke run (`trace_smoke`): renders a few PATU frames at the
//! level given by `PATU_TRACE`, folds the SSIM analysis onto each frame's
//! analysis track, and reports each frame. With `PATU_TRACE_OUT=<dir>` it
//! writes the JSONL + Chrome-trace artifacts that `patu_report` validates
//! and renders. With `PATU_OBS_DUMP=<dir>` it also writes per-frame PPM
//! maps: an SSIM-error heatmap (per-tile mean |baseline − approx| luma)
//! and a demotion-decision map (per-tile share of fragments the predictor
//! demoted to a cheaper filter).

use super::{Ctx, Report};
use patu_core::FilterPolicy;
use patu_obs::{heat_color, sink, Collector, TelemetryConfig, TraceLevel, Track};
use patu_quality::GrayImage;
use patu_scenes::Workload;
use patu_sim::render::{render_frame, FrameResult};
use std::fmt::Write;
use std::path::{Path, PathBuf};

/// Cell size (pixels per tile) in the dumped PPM maps.
const DUMP_CELL: usize = 8;
/// Gain applied to the mean per-tile luma error before the color ramp —
/// raw errors rarely exceed a few percent, so the map would be all-blue
/// without amplification.
const HEAT_GAIN: u64 = 8;

/// Writes `<prefix>_ssim_error.ppm` and `<prefix>_demotion.ppm` for one
/// frame: both maps share the render's tile grid, one cell per tile.
fn dump_frame_maps(
    dir: &Path,
    index: u32,
    tile_size: u32,
    baseline: &GrayImage,
    approx: &GrayImage,
    result: &FrameResult,
) -> std::io::Result<Vec<PathBuf>> {
    let (width, height) = (baseline.width(), baseline.height());
    let tiles_x = width.div_ceil(tile_size) as usize;
    let tiles_y = height.div_ceil(tile_size) as usize;

    // SSIM-error heatmap: per-tile mean absolute luma difference between
    // the baseline and approximated frames, on a cold-to-hot ramp.
    let mut heat = patu_obs::TileGrid::new(tiles_x, tiles_y, DUMP_CELL);
    for ty in 0..tiles_y as u32 {
        for tx in 0..tiles_x as u32 {
            let x0 = tx * tile_size;
            let y0 = ty * tile_size;
            let mut sum_x1000 = 0u64;
            let mut pixels = 0u64;
            for y in y0..(y0 + tile_size).min(height) {
                for x in x0..(x0 + tile_size).min(width) {
                    let diff = (baseline.get(x, y) - approx.get(x, y)).abs();
                    // Quantize before accumulating so the map is exactly
                    // reproducible regardless of summation order.
                    sum_x1000 += (f64::from(diff) * 1000.0).round() as u64;
                    pixels += 1;
                }
            }
            // Mean error as a share of full scale (samples are 0..255).
            let mean_x1000 = sum_x1000 / (pixels.max(1) * 255);
            heat.paint(tx as usize, ty as usize, heat_color(mean_x1000 * HEAT_GAIN));
        }
    }
    let heat_path = dir.join(format!("trace_smoke_f{index:03}_ssim_error.ppm"));
    heat.write(&heat_path)?;

    // Demotion-decision map: the share of each tile's fragments the
    // perception predictor demoted, on the same ramp.
    let mut demo = patu_obs::TileGrid::new(tiles_x, tiles_y, DUMP_CELL);
    for t in &result.tile_stats {
        let share_x1000 = t.demoted * 1000 / t.fragments.max(1);
        demo.paint(t.tx as usize, t.ty as usize, heat_color(share_x1000));
    }
    let demo_path = dir.join(format!("trace_smoke_f{index:03}_demotion.ppm"));
    demo.write(&demo_path)?;
    Ok(vec![heat_path, demo_path])
}

pub(super) fn trace_smoke(ctx: &Ctx, out: &mut String) -> Report {
    let knobs = &ctx.knobs;
    let telemetry = TelemetryConfig::with_level(knobs.trace);
    writeln!(out, "trace_smoke: PATU_TRACE={}", telemetry.level.name())?;
    if telemetry.level == TraceLevel::Off {
        writeln!(
            out,
            "telemetry off — set PATU_TRACE=counters|spans to record"
        )?;
    }

    let workload = Workload::build("doom3", (256, 192))?;
    let base_cfg = knobs.render(FilterPolicy::Baseline);
    let cfg = knobs
        .render(FilterPolicy::Patu { threshold: 0.4 })
        .with_telemetry(telemetry);
    let ssim = knobs.ssim();

    let mut frames = Vec::new();
    for index in [0u32, 40, 80] {
        let baseline = render_frame(&workload, index, &base_cfg)?;
        let mut result = render_frame(&workload, index, &cfg)?;
        let (base_luma, approx_luma) = (baseline.luma(), result.luma());
        if let Some(dir) = &knobs.obs_dump {
            let paths = dump_frame_maps(
                dir,
                index,
                cfg.gpu.tile_size,
                &base_luma,
                &approx_luma,
                &result,
            )?;
            for path in paths {
                writeln!(out, "dumped {}", path.display())?;
            }
        }
        if let Some(mut t) = result.telemetry.take() {
            // The quality analysis rides the frame's analysis track, so the
            // artifact shows render and SSIM work side by side.
            let mut analysis = Collector::new(telemetry, Track::Analysis);
            let score = ssim.mssim_traced(&mut analysis, &base_luma, &approx_luma);
            t.absorb(analysis);
            writeln!(out, "frame {index}: mssim {score:.4}")?;
            frames.push(*t);
        }
    }

    for frame in &frames {
        out.push_str(&sink::report(frame));
    }
    if frames.is_empty() {
        return Ok(());
    }
    match &knobs.trace_out {
        Some(dir) => {
            for path in sink::write_artifacts(dir, "trace_smoke", &frames)? {
                writeln!(out, "wrote {}", path.display())?;
            }
        }
        None => writeln!(out, "PATU_TRACE_OUT unset; skipping artifact files")?,
    }
    Ok(())
}
