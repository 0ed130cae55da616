//! Fig. 19: normalized speedup (bars) and perceived quality / MSSIM (lines)
//! of the overall 3D rendering under the four design points at θ = 0.4.

use patu_bench::{paper_note, pct_delta, Knobs, RunOptions};
use patu_scenes::{default_specs, Workload};
use patu_sim::experiment::{design_points, run_policies};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    println!(
        "FIG. 19: speedup and MSSIM under the design points ({})",
        opts.profile_banner()
    );
    let points = design_points(0.4);

    let mut speedup_sum = vec![0.0f64; points.len()];
    let mut mssim_sum = vec![0.0f64; points.len()];
    let mut games = 0.0;

    for spec in default_specs() {
        let workload = Workload::build(spec.name, opts.resolution(&spec))?;
        let results = run_policies(&workload, &points, &knobs.experiment(&opts))?;
        let base = results[0].clone();
        println!("\n{}:", spec.label());
        println!("{:<20} {:>9} {:>8}", "design", "speedup", "MSSIM");
        for (i, r) in results.iter().enumerate() {
            let s = r.speedup_vs(&base);
            println!("{:<20} {:>8.3}x {:>8.3}", r.label, s, r.mssim);
            speedup_sum[i] += s;
            mssim_sum[i] += r.mssim;
        }
        games += 1.0;
    }

    println!("\nMEAN ACROSS GAMES:");
    println!("{:<20} {:>9} {:>8}", "design", "speedup", "MSSIM");
    for (i, (label, _)) in points.iter().enumerate() {
        println!(
            "{:<20} {:>8.3}x {:>8.3}",
            label,
            speedup_sum[i] / games,
            mssim_sum[i] / games
        );
    }
    println!(
        "\nPATU: overall speedup {} at {:.1}% MSSIM",
        pct_delta(speedup_sum[3] / games),
        100.0 * mssim_sum[3] / games
    );

    paper_note(
        "Fig. 19",
        "AF-SSIM(N)+(Txds) is fastest (+18% avg, up to 26%) but loses 16% quality; \
         AF-SSIM(N) gains only 10%; PATU fixes the LOD shift for >10% quality back at \
         1.3% performance cost — +17% speedup (up to 24%) at 93% MSSIM (up to 98%)",
    );
    Ok(())
}
