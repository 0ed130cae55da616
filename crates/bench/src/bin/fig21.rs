//! Fig. 21: cache-sensitivity study — performance at scaled texture-cache /
//! LLC capacities, with and without PATU.

use patu_bench::{paper_note, pct_delta, Knobs, RunOptions};
use patu_core::FilterPolicy;
use patu_gpu::GpuConfig;
use patu_scenes::{default_specs, Workload};
use patu_sim::experiment::{run_policies, ExperimentConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    println!(
        "FIG. 21: cache scaling with and without PATU ({})",
        opts.profile_banner()
    );

    let configs: Vec<(&str, GpuConfig)> = vec![
        ("1x (Table I)", GpuConfig::default()),
        ("2xLLC", GpuConfig::default().with_llc_scale(2)),
        ("4xLLC", GpuConfig::default().with_llc_scale(4)),
        (
            "2xTC+4xLLC",
            GpuConfig::default().with_tc_scale(2).with_llc_scale(4),
        ),
    ];

    // Reference: baseline policy on the 1x configuration, per game.
    println!(
        "\n{:<14} {:>16} {:>16}",
        "cache config", "no PATU", "PATU θ=0.4"
    );
    let mut rows = Vec::new();
    for (label, gpu) in &configs {
        let (mut no_patu, mut with_patu, mut games) = (0.0f64, 0.0f64, 0.0f64);
        for spec in default_specs() {
            let workload = Workload::build(spec.name, opts.resolution(&spec))?;
            // 1x baseline for normalization.
            let base_cfg = ExperimentConfig {
                gpu: GpuConfig::default(),
                ..knobs.experiment(&opts)
            };
            let ref_run = run_policies(
                &workload,
                &[("Baseline", FilterPolicy::Baseline)],
                &base_cfg,
            )?;
            let scaled_cfg = ExperimentConfig {
                gpu: *gpu,
                ..knobs.experiment(&opts)
            };
            let scaled = run_policies(
                &workload,
                &[
                    ("Baseline", FilterPolicy::Baseline),
                    ("PATU", FilterPolicy::Patu { threshold: 0.4 }),
                ],
                &scaled_cfg,
            )?;
            no_patu += ref_run[0].mean_cycles / scaled[0].mean_cycles;
            with_patu += ref_run[0].mean_cycles / scaled[1].mean_cycles;
            games += 1.0;
        }
        println!(
            "{:<14} {:>15.3}x {:>15.3}x",
            label,
            no_patu / games,
            with_patu / games
        );
        rows.push((label.to_string(), no_patu / games, with_patu / games));
    }

    println!(
        "\nPATU gain at 2xLLC: {} | 4xLLC: {} | 2xTC+4xLLC: {} over the 1x baseline",
        pct_delta(rows[1].2),
        pct_delta(rows[2].2),
        pct_delta(rows[3].2),
    );

    paper_note(
        "Fig. 21",
        "capacity scaling alone barely helps (bandwidth-bound); adding PATU delivers \
         24.1% / 28.0% / 28.3% speedups over the baseline at 2xLLC / 4xLLC / 2xTC+4xLLC — \
         PATU is orthogonal to cache scaling",
    );
    Ok(())
}
