//! Ablation: texel-address hash-table capacity (4 / 8 / 16 / 32 entries).
//!
//! The paper fixes the table at 16 entries (the max AF level). A smaller
//! table overflows when a pixel's taps hit many distinct texel sets,
//! truncating the probability vector and biasing Txds; this study measures
//! how much capacity the distribution stage actually needs.

use patu_bench::{pct, Knobs, RunOptions};
use patu_core::FilterPolicy;
use patu_scenes::{default_specs, Workload};
use patu_sim::render::render_frame;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    println!(
        "ABLATION: hash-table capacity vs stage-2 behavior ({})",
        opts.profile_banner()
    );
    println!(
        "\n{:>9} {:>12} {:>14} {:>14} {:>12}",
        "entries", "cycles", "stage2 approx", "kept AF", "approx frac"
    );

    for capacity in [4usize, 8, 16, 32] {
        let (mut cycles, mut stage2, mut kept, mut frac, mut games) =
            (0u64, 0u64, 0u64, 0.0f64, 0.0f64);
        for spec in default_specs() {
            let workload = Workload::build(spec.name, opts.resolution(&spec))?;
            let cfg = knobs
                .render(FilterPolicy::Patu { threshold: 0.4 })
                .with_hash_table_capacity(capacity);
            let r = render_frame(&workload, 0, &cfg)?;
            cycles += r.stats.cycles;
            stage2 += r.approx.stage2_approx;
            kept += r.approx.kept_af;
            frac += r.approx.approximated_fraction();
            games += 1.0;
        }
        println!(
            "{:>9} {:>12} {:>14} {:>14} {:>12}",
            capacity,
            cycles,
            stage2,
            kept,
            pct(frac / games)
        );
    }

    println!(
        "\nThe paper's 16-entry table matches the max AF level, so well-formed \
         requests never overflow; capacities below the common tap count lose \
         stage-2 approvals (overflowed probability vectors under-estimate Txds)."
    );
    Ok(())
}
