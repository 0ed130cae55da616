//! Fig. 12: percentage of AF's input samples (trilinear taps) that share
//! the same set of texels with the TF sample during 3D rendering.

use patu_bench::{paper_note, pct, Knobs, RunOptions};
use patu_core::FilterPolicy;
use patu_scenes::{default_specs, Workload};
use patu_sim::experiment::run_policies;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    println!(
        "FIG. 12: AF taps sharing texel sets with TF ({})",
        opts.profile_banner()
    );
    println!(
        "\n{:<16} {:>14} {:>14} {:>10}",
        "game", "AF taps", "sharing taps", "share"
    );

    let mut fractions = Vec::new();
    for spec in default_specs() {
        let workload = Workload::build(spec.name, opts.resolution(&spec))?;
        // Sharing is measured on the baseline (full-AF) rendering.
        let results = run_policies(
            &workload,
            &[("Baseline", FilterPolicy::Baseline)],
            &knobs.experiment(&opts),
        )?;
        let sharing = results[0].sharing;
        println!(
            "{:<16} {:>14} {:>14} {:>10}",
            spec.label(),
            sharing.taps_total,
            sharing.taps_shared,
            pct(sharing.sharing_fraction())
        );
        fractions.push(sharing.sharing_fraction());
    }
    println!(
        "\nmean sharing fraction: {}",
        pct(fractions.iter().sum::<f64>() / fractions.len() as f64)
    );

    paper_note(
        "Fig. 12",
        "an average of 62% of AF's input samples share the same set of texels with TF",
    );
    Ok(())
}
