//! Ablation: temporal stability under approximation.
//!
//! Per-frame MSSIM against the baseline (Figs. 17/19) cannot see *flicker* —
//! a pixel demoted in one frame but not the next. This study measures the
//! mean SSIM between consecutive frames of the same run: if a policy's
//! inter-frame SSIM tracks the baseline's, the approximation adds no
//! temporal noise on top of the camera motion.

use patu_bench::{Knobs, RunOptions};
use patu_core::FilterPolicy;
use patu_scenes::Workload;
use patu_sim::experiment::{temporal_stability, temporal_stability_with_store};
use patu_temporal::{TemporalConfig, TemporalMode, TileStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    println!(
        "ABLATION: temporal stability (consecutive-frame SSIM) ({})",
        opts.profile_banner()
    );
    // Consecutive frame indices: the camera moves a small step between them.
    let frames: Vec<u32> = (0..6).collect();
    let cfg = knobs.experiment(&opts);

    println!(
        "\n{:<12} {:>10} {:>10} {:>10} {:>10}",
        "game", "baseline", "PATU@0.4", "PATU@0.1", "no AF"
    );
    for name in ["doom3", "grid", "stal"] {
        let spec = patu_scenes::default_specs()
            .into_iter()
            .find(|s| s.name == name)
            .expect("game in default set");
        let workload = Workload::build(name, opts.resolution(&spec))?;
        let mut row = Vec::new();
        for policy in [
            FilterPolicy::Baseline,
            FilterPolicy::Patu { threshold: 0.4 },
            FilterPolicy::Patu { threshold: 0.1 },
            FilterPolicy::NoAf,
        ] {
            row.push(temporal_stability(&workload, policy, &frames, &cfg)?);
        }
        println!(
            "{:<12} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            name, row[0], row[1], row[2], row[3]
        );
    }
    println!(
        "\nInter-frame SSIM is dominated by camera motion; a policy whose column \
         tracks the baseline adds no flicker of its own. Large drops relative to \
         the baseline column would indicate frame-to-frame decision instability."
    );

    // Reuse ablation: the same consecutive-frame stability measured through
    // the temporal tile store on the slow-camera sequence presets. Blitting
    // a tile forward is perfectly stable by construction, so the `on`
    // column should sit at or above `off` while reusing most tiles.
    println!("\nreuse ablation (sequence presets, PATU@0.4, temporal off vs on):");
    println!(
        "{:<12} {:>12} {:>12} {:>8}",
        "preset", "off", "on", "reused"
    );
    for spec in patu_scenes::sequence_specs() {
        let workload = Workload::build(spec.name, opts.resolution(&spec))?;
        let policy = FilterPolicy::Patu { threshold: 0.4 };
        let mut off_store = TileStore::new(TemporalConfig::off());
        let off = temporal_stability_with_store(&workload, policy, &frames, &cfg, &mut off_store)?;
        let mut on_store = TileStore::new(TemporalConfig::for_mode(TemporalMode::On));
        let on = temporal_stability_with_store(&workload, policy, &frames, &cfg, &mut on_store)?;
        println!(
            "{:<12} {:>12.4} {:>12.4} {:>7.0}%",
            spec.name,
            off.stability,
            on.stability,
            on.reused_fraction * 100.0
        );
    }
    Ok(())
}
