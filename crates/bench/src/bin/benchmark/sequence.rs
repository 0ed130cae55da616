//! The `sequence` workload: cross-frame tile reuse (patu-temporal) over
//! the two slow-camera presets, against the same frames rendered with
//! reuse off.

use crate::cli::Args;
use crate::expected::window;
use crate::ledger::{median, quantile, ratio, record_quality_layers, Layers, Ledger};
use crate::replay::{record_replay_layers, replay_frame, Counts};
use crate::{measure_passes, measure_setup, Measured, Simulated, Traced, SETUP_REPS};
use patu_bench::micro::timed;
use patu_core::FilterPolicy;
use patu_quality::{GrayImage, SsimConfig};
use patu_scenes::{sequence_specs, Workload};
use patu_serve::exec::fnv1a;
use patu_sim::render::{render_sequence, FrameResult, RenderConfig};
use patu_temporal::{TemporalConfig, TemporalMode, TileStore};
use std::error::Error;

/// Consecutive frames per camera path.
const FRAMES: u32 = 48;

/// The first frame, `6·window`. Windows anywhere on the 600-frame loops
/// differ by up to ±10 % in fragment work and reuse, which would make
/// `ops_per_s` and `sim_speedup` swing from seed to seed; windows within
/// the first 90 frames overlap enough to keep them within a few percent.
fn start_frame(seed: u64) -> u32 {
    6 * window(seed) as u32
}

fn render_config(threads: usize) -> RenderConfig {
    RenderConfig::new(FilterPolicy::Patu { threshold: 0.4 }).with_threads(threads)
}

fn hash(result: &FrameResult) -> u64 {
    fnv1a(
        0,
        result
            .image
            .pixels()
            .iter()
            .flat_map(|p| [p.r, p.g, p.b, p.a]),
    )
}

/// One reference frame, rendered with reuse off.
struct Reference {
    cycles: u64,
    hash: u64,
    luma: GrayImage,
}

/// The camera paths, `(preset name, workload)`: the set-up.
fn setup() -> Result<Vec<(&'static str, Workload)>, Box<dyn Error>> {
    let mut paths = Vec::new();
    for spec in sequence_specs() {
        paths.push((spec.name, Workload::build(spec.name, spec.resolution)?));
    }
    Ok(paths)
}

/// Each frame of `frames` rendered with reuse off.
fn reference(
    workload: &Workload,
    frames: &[u32],
    threads: usize,
) -> Result<Vec<Reference>, Box<dyn Error>> {
    let mut off = TileStore::new(TemporalConfig::off());
    Ok(
        render_sequence(workload, frames, &render_config(threads), &mut off)?
            .iter()
            .map(|r| Reference {
                cycles: r.stats.cycles,
                hash: hash(r),
                luma: r.luma(),
            })
            .collect(),
    )
}

/// Runs the untraced workload; each camera path is a timed section.
///
/// # Errors
///
/// Returns set-up and reference-render errors; failed renders of the timed
/// passes are counted instead.
pub fn measure(args: &Args, threads: usize) -> Result<Measured, Box<dyn Error>> {
    let (paths, setup_s) = measure_setup(SETUP_REPS, setup)?;
    let start = start_frame(args.seed);
    let frames: Vec<u32> = (start..start + FRAMES).collect();
    // The reuse-off references are what the passes are checked and scored
    // against, not set-up of the measured work: they render once, untimed.
    let mut references = Vec::new();
    for (_, workload) in &paths {
        references.push(reference(workload, &frames, threads)?);
    }
    let rc = render_config(threads);
    let ssim = SsimConfig::default().with_threads(threads);
    let on = TemporalConfig::for_mode(TemporalMode::On);
    let per_pass = FRAMES as u64 * paths.len() as u64;

    // Per path: (Σ on cycles, Σ MSSIM, tiles kept, tiles total) of pass 0;
    // per pass and path: every frame's (cycles, hash).
    let mut first: Vec<(u64, f64, u64, u64)> = Vec::new();
    let (mut failed, mut correct) = (0u64, true);
    let passes = measure_passes(args.seconds, |pass| {
        let mut witnesses: Vec<Option<Vec<(u64, u64)>>> = Vec::new();
        let mut section_ms = Vec::new();
        // Each path is timed on its own, so the hashing and MSSIM checks
        // between them stay outside the measurement.
        for ((_, workload), reference) in paths.iter().zip(&references) {
            let mut store = TileStore::new(on);
            let (results, ms) = timed(|| render_sequence(workload, &frames, &rc, &mut store));
            section_ms.push(ms);
            let Ok(results) = results else {
                failed += FRAMES as u64;
                witnesses.push(None);
                continue;
            };
            let witness: Vec<(u64, u64)> =
                results.iter().map(|r| (r.stats.cycles, hash(r))).collect();
            if pass == 0 {
                let (mut cycles, mut mssim, mut kept, mut tiles) = (0, 0.0, 0, 0);
                for (r, reference) in results.iter().zip(reference) {
                    cycles += r.stats.cycles;
                    mssim += f64::from(ssim.mssim(&reference.luma, &r.luma()));
                    kept += r.stats.temporal.tiles_reused + r.stats.temporal.tiles_repredicted;
                    tiles += r.stats.temporal.tiles_total();
                }
                // A cold store rerenders every tile of the first frame.
                correct &= witness.first() == Some(&(reference[0].cycles, reference[0].hash));
                first.push((cycles, mssim, kept, tiles));
            }
            witnesses.push(Some(witness));
        }
        (witnesses, section_ms)
    });
    for witnesses in &passes.outputs {
        correct &= witnesses == &passes.outputs[0];
    }
    correct &= first.len() == paths.len();

    let mut per_path = Vec::new();
    let (mut on_cycles, mut off_cycles, mut mssim) = (0u64, 0u64, 0.0);
    for (((name, _), reference), &(cycles, path_mssim, kept, tiles)) in
        paths.iter().zip(&references).zip(&first)
    {
        let off: u64 = reference.iter().map(|r| r.cycles).sum();
        on_cycles += cycles;
        off_cycles += off;
        mssim += path_mssim;
        let (speedup, reuse) = if *name == "orbit" {
            ("seq_speedup_orbit", "seq_reuse_frac_orbit")
        } else {
            ("seq_speedup_dolly", "seq_reuse_frac_dolly")
        };
        per_path.push(Simulated {
            name: speedup,
            value: off as f64 / cycles as f64,
            unit: "x",
            paper: None,
        });
        per_path.push(Simulated {
            name: reuse,
            value: ratio(kept as f64, tiles as f64),
            unit: "fraction",
            paper: None,
        });
    }
    let mut simulated = vec![
        Simulated {
            name: "sim_speedup",
            value: off_cycles as f64 / on_cycles as f64,
            unit: "x",
            paper: None,
        },
        Simulated {
            name: "sim_mssim",
            value: mssim / per_pass as f64,
            unit: "ssim",
            paper: None,
        },
    ];
    simulated.extend(per_path);
    Ok(Measured {
        setup_s,
        passes: passes.outputs.len(),
        ops_per_s: per_pass as f64 / passes.fastest_s(),
        attempted: per_pass * passes.outputs.len() as u64,
        failed,
        correct,
        simulated,
    })
}

/// One frame of one path, rendered through `render_sequence`, replayed,
/// and rendered with reuse off.
struct FrameTrace {
    rendered: FrameResult,
    off: FrameResult,
    replay_exact: bool,
    seq_ms: f64,
    residual: f64,
    counts: Counts,
}

/// The three stores a traced path drives, one step per frame.
struct Stores {
    rendered: TileStore,
    replayed: TileStore,
    off: TileStore,
}

fn trace_frame(
    ledger: &mut Ledger,
    point: usize,
    workload: &Workload,
    frame: u32,
    stores: &mut Stores,
) -> Result<FrameTrace, Box<dyn Error>> {
    let rc = render_config(1);
    let (rendered, seq_ms) =
        timed(|| render_sequence(workload, &[frame], &rc, &mut stores.rendered));
    ledger.record("sim.render_sequence", point, seq_ms);
    let replay = ledger.span("replay", point);
    let replayed = ledger.time(replay, |ledger| {
        replay_frame(
            workload,
            frame,
            &rc,
            Some(&mut stores.replayed),
            ledger,
            replay,
        )
    })?;
    let (off, ms) = timed(|| render_sequence(workload, &[frame], &rc, &mut stores.off));
    ledger.record("reference", point, ms);
    let (rendered, off) = (rendered?.remove(0), off?.remove(0));
    Ok(FrameTrace {
        replay_exact: replayed.image.pixels() == rendered.image.pixels()
            && replayed.cycles == rendered.stats.cycles,
        residual: 1.0 - ledger.children_ms(replay) / seq_ms,
        seq_ms,
        counts: replayed.counts,
        rendered,
        off,
    })
}

/// Runs the traced workload: per path, each frame goes through
/// `render_sequence` one frame at a time (timed as a whole), through the
/// layer replay on a second store, and with reuse off on a third, which
/// gives the speedup and MSSIM reference.
///
/// # Errors
///
/// Returns set-up errors; failed renders are counted instead.
pub fn trace(seed: u64) -> Result<Traced, Box<dyn Error>> {
    let start = start_frame(seed);
    let ssim = SsimConfig::default().with_threads(1);
    let on = TemporalConfig::for_mode(TemporalMode::On);
    let workloads = setup()?;
    let mut ledger = Ledger::default();
    let root = ledger.span("sequence", 0);
    let mut layers = Layers::default();
    let mut counts = Counts::default();
    let (mut frame_ms, mut residual) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut exact) = (0u64, 0u64, 0u64);

    ledger.time(root, |ledger| {
        for (name, workload) in &workloads {
            let path = ledger.span(name, root);
            let mut stores = Stores {
                rendered: TileStore::new(on),
                replayed: TileStore::new(on),
                off: TileStore::new(TemporalConfig::off()),
            };
            let (mut on_cycles, mut off_cycles, mut kept, mut tiles) = (0u64, 0u64, 0u64, 0u64);
            ledger.time(path, |ledger| {
                for frame in start..start + FRAMES {
                    attempted += 1;
                    let point = ledger.span("frame", path);
                    let traced = ledger.time(point, |ledger| {
                        trace_frame(ledger, point, workload, frame, &mut stores)
                    });
                    let Ok(f) = traced else {
                        failed += 1;
                        continue;
                    };
                    exact += u64::from(f.replay_exact);
                    frame_ms.push(f.seq_ms);
                    residual.push(f.residual);
                    counts.accumulate(&f.counts);
                    let temporal = &f.rendered.stats.temporal;
                    on_cycles += f.rendered.stats.cycles;
                    off_cycles += f.off.stats.cycles;
                    kept += temporal.tiles_reused + temporal.tiles_repredicted;
                    tiles += temporal.tiles_total();
                    let (lumas, ms) = timed(|| (f.off.luma(), f.rendered.luma()));
                    ledger.record("quality.luma", point, ms);
                    let (mssim, ms) = timed(|| ssim.mssim(&lumas.0, &lumas.1));
                    ledger.record("quality.mssim", point, ms);
                    std::hint::black_box(mssim);
                }
            });
            layers.set(
                &format!("temporal.speedup.{name}"),
                ratio(off_cycles as f64, on_cycles as f64),
            );
            layers.set(
                &format!("temporal.reuse_frac.{name}"),
                ratio(kept as f64, tiles as f64),
            );
        }
    });

    record_replay_layers(&mut layers, &ledger, &counts);
    record_quality_layers(&mut layers, &ledger);
    layers.set(
        "core.ns_per_lane.patu",
        ratio(ledger.total_ms("core.filter") * 1e6, counts.lanes as f64),
    );
    layers.set(
        "core.taps_per_lane.patu",
        ratio(counts.taps as f64, counts.lanes as f64),
    );
    layers.set(
        "core.demoted_frac.patu",
        ratio(counts.demoted as f64, counts.lanes as f64),
    );
    for (metric, span) in [
        ("temporal.plan_ms_per_frame", "temporal.plan"),
        ("temporal.commit_ms_per_frame", "temporal.commit"),
    ] {
        layers.set(
            metric,
            ratio(ledger.total_ms(span), ledger.total_calls(span) as f64),
        );
    }
    layers.set("temporal.blit_ms", ledger.total_ms("temporal.blit"));
    layers.set("sim.seq_frame_p50_ms", quantile(&frame_ms, 0.5));
    layers.set("sim.seq_frame_p90_ms", quantile(&frame_ms, 0.9));
    layers.set("sim.residual_frac", median(&residual));
    layers.set("sim.replay_exact", ratio(exact as f64, attempted as f64));
    Ok(Traced {
        layers,
        ledger,
        attempted,
        failed,
        correct: exact == attempted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_frame_at_a_time_equals_one_call() {
        let workload = Workload::build("dolly", (160, 120)).unwrap();
        let frames: Vec<u32> = (96..102).collect();
        let rc = render_config(1);
        let on = TemporalConfig::for_mode(TemporalMode::On);
        let whole = render_sequence(&workload, &frames, &rc, &mut TileStore::new(on)).unwrap();
        let mut store = TileStore::new(on);
        for (frame, expected) in frames.iter().zip(&whole) {
            let single = render_sequence(&workload, &[*frame], &rc, &mut store).unwrap();
            assert_eq!(
                single[0].image.pixels(),
                expected.image.pixels(),
                "frame {frame}"
            );
            assert_eq!(single[0].stats, expected.stats, "frame {frame}");
            assert_eq!(single[0].tile_stats, expected.tile_stats, "frame {frame}");
        }
    }

    #[test]
    fn start_frame_stays_on_the_camera_loop() {
        assert_eq!(start_frame(0), 0);
        assert_eq!(start_frame(7), 42);
        assert_eq!(start_frame(8), 0);
        assert!((0..1000).all(|s| start_frame(s) + FRAMES < 600));
    }
}
