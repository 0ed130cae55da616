//! Fig. 5: normalized speedup and energy reduction of 3D rendering when AF
//! is disabled, per game.

use patu_bench::{paper_note, pct_delta, Knobs, RunOptions};
use patu_core::FilterPolicy;
use patu_scenes::{default_specs, Workload};
use patu_sim::experiment::run_policies;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    println!(
        "FIG. 5: AF-off speedup and energy reduction ({})",
        opts.profile_banner()
    );
    println!(
        "\n{:<16} {:>10} {:>16} {:>18}",
        "game", "speedup", "energy ratio", "filter-lat ratio"
    );

    let (mut s_sum, mut e_sum, mut n) = (0.0, 0.0, 0);
    for spec in default_specs() {
        let workload = Workload::build(spec.name, opts.resolution(&spec))?;
        let results = run_policies(
            &workload,
            &[
                ("Baseline", FilterPolicy::Baseline),
                ("NoAF", FilterPolicy::NoAf),
            ],
            &knobs.experiment(&opts),
        )?;
        let base = &results[0];
        let noaf = &results[1];
        let speedup = noaf.speedup_vs(base);
        let energy = noaf.energy_ratio_vs(base);
        println!(
            "{:<16} {:>9.3}x {:>16.3} {:>18.3}",
            spec.label(),
            speedup,
            energy,
            noaf.filter_latency_ratio_vs(base)
        );
        s_sum += speedup;
        e_sum += energy;
        n += 1;
    }
    let nf = f64::from(n);
    println!(
        "\nmean: speedup {} | energy reduction {}",
        pct_delta(s_sum / nf),
        pct_delta(e_sum / nf)
    );

    paper_note(
        "Fig. 5",
        "AF-off speeds rendering up by 41% on average (up to 60%) with 28% average \
         energy reduction (up to 33%); filter latency falls 47% (Sec. II-B)",
    );
    Ok(())
}
