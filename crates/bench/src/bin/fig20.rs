//! Fig. 20: normalized GPU energy (DRAM included) under the four design
//! points at θ = 0.4.

use patu_bench::{paper_note, pct, Knobs, RunOptions};
use patu_scenes::{default_specs, Workload};
use patu_sim::experiment::{design_points, run_policies};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    println!(
        "FIG. 20: normalized GPU+DRAM energy ({})",
        opts.profile_banner()
    );
    let points = design_points(0.4);
    println!(
        "\n{:<16} {:>10} {:>12} {:>18} {:>8}",
        "game", "Baseline", "AF-SSIM(N)", "AF-SSIM(N)+(Txds)", "PATU"
    );

    let mut sums = vec![0.0f64; points.len()];
    let mut games = 0.0;
    for spec in default_specs() {
        let workload = Workload::build(spec.name, opts.resolution(&spec))?;
        let results = run_policies(&workload, &points, &knobs.experiment(&opts))?;
        let base = results[0].clone();
        let ratios: Vec<f64> = results.iter().map(|r| r.energy_ratio_vs(&base)).collect();
        println!(
            "{:<16} {:>10.3} {:>12.3} {:>18.3} {:>8.3}",
            spec.label(),
            ratios[0],
            ratios[1],
            ratios[2],
            ratios[3]
        );
        for (s, r) in sums.iter_mut().zip(&ratios) {
            *s += r;
        }
        games += 1.0;
    }
    println!(
        "{:<16} {:>10.3} {:>12.3} {:>18.3} {:>8.3}",
        "MEAN",
        sums[0] / games,
        sums[1] / games,
        sums[2] / games,
        sums[3] / games
    );
    println!(
        "\nPATU mean energy reduction: {}",
        pct(1.0 - sums[3] / games)
    );

    paper_note(
        "Fig. 20",
        "PATU saves 11% total GPU energy on average (up to 16%) despite ~7% higher \
         runtime power; it costs ~1% more than AF-SSIM(N)+(Txds) for the finer-LOD fetches",
    );
    Ok(())
}
