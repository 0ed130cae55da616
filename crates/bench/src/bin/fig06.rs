//! Fig. 6: memory-bandwidth usage breakdown before and after disabling AF.

use patu_bench::{paper_note, pct, Knobs, RunOptions};
use patu_core::FilterPolicy;
use patu_gpu::BandwidthBreakdown;
use patu_scenes::{default_specs, Workload};
use patu_sim::experiment::run_policies;

fn print_breakdown(label: &str, b: &BandwidthBreakdown) {
    let total = b.total().max(1) as f64;
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>12} {:>9} | total {:.1} MB",
        label,
        pct(b.texture as f64 / total),
        pct(b.vertex as f64 / total),
        pct(b.depth as f64 / total),
        pct(b.framebuffer as f64 / total),
        pct(b.other as f64 / total),
        b.total() as f64 / 1e6,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    println!(
        "FIG. 6: memory bandwidth breakdown, AF on vs off ({})",
        opts.profile_banner()
    );
    println!(
        "\n{:<20} {:>9} {:>9} {:>9} {:>12} {:>9}",
        "", "texture", "vertex", "depth", "framebuffer", "other"
    );

    let mut on_total = BandwidthBreakdown::default();
    let mut off_total = BandwidthBreakdown::default();
    let mut texture_reduction = Vec::new();

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
        let on = results[0].stats.bandwidth;
        let off = results[1].stats.bandwidth;
        print_breakdown(&format!("{} AF-on", spec.label()), &on);
        print_breakdown(&format!("{} AF-off", spec.label()), &off);
        on_total.accumulate(&on);
        off_total.accumulate(&off);
        texture_reduction.push(1.0 - off.total() as f64 / on.total() as f64);
    }

    println!();
    print_breakdown("MEAN AF-on", &on_total);
    print_breakdown("MEAN AF-off", &off_total);
    println!(
        "\ntexture share with AF on: {} | total traffic reduction when AF off: {}",
        pct(on_total.texture_fraction()),
        pct(texture_reduction.iter().sum::<f64>() / texture_reduction.len() as f64)
    );

    paper_note(
        "Fig. 6",
        "texture fetching accounts for ~71% of memory bandwidth; disabling AF cuts \
         memory access by 28% on average (up to 51%)",
    );
    Ok(())
}
