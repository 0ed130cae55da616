//! Fig. 7: impact of disabling AF on perceived image quality (MSSIM).

use patu_bench::{paper_note, pct, Knobs, RunOptions};
use patu_core::FilterPolicy;
use patu_scenes::{default_specs, Workload};
use patu_sim::experiment::run_policies;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    println!(
        "FIG. 7: MSSIM when AF is disabled ({})",
        opts.profile_banner()
    );
    println!("\n{:<16} {:>8} {:>14}", "game", "MSSIM", "quality loss");

    let mut losses = Vec::new();
    for spec in default_specs() {
        let workload = Workload::build(spec.name, opts.resolution(&spec))?;
        let results = run_policies(
            &workload,
            &[("NoAF", FilterPolicy::NoAf)],
            &knobs.experiment(&opts),
        )?;
        let mssim = results[0].mssim;
        println!(
            "{:<16} {:>8.3} {:>14}",
            spec.label(),
            mssim,
            pct(1.0 - mssim)
        );
        losses.push(1.0 - mssim);
    }
    println!(
        "\nmean quality loss: {} (max {})",
        pct(losses.iter().sum::<f64>() / losses.len() as f64),
        pct(losses.iter().cloned().fold(0.0, f64::max))
    );

    paper_note(
        "Fig. 7",
        "disabling AF damages perceived quality by 28% on average (up to 39%)",
    );
    Ok(())
}
