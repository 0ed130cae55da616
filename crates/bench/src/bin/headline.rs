//! The paper's abstract in one table: PATU's overall speedup, energy
//! reduction, filtering-latency reduction and MSSIM at the conservative
//! θ = 0.4 tuning point, averaged over the Table II games.
//!
//! The sweep runs twice — `threads = 1` (serial) and `threads = 4` — to
//! verify the two runs agree bit-for-bit. That flag and the headline
//! metrics land in `BENCH_headline.json` at the repository root. Host
//! time is not recorded here: the `benchmark` binary measures it as
//! medians.

use patu_bench::{micro, paper_note, pct, pct_delta, Knobs, RunOptions};
use patu_obs::json::num_fixed;
use patu_obs::Log2Histogram;
use patu_scenes::{default_specs, Workload};
use patu_sim::experiment::{design_points, run_policies, AggregateResult};

struct Headline {
    speedup: f64,
    energy: f64,
    latency: f64,
    mssim: f64,
}

fn sweep(
    opts: &RunOptions,
    threads: usize,
) -> Result<(Headline, Vec<AggregateResult>), Box<dyn std::error::Error>> {
    let points = design_points(0.4);
    let cfg = opts.experiment().with_threads(threads);
    let (mut speedup, mut energy, mut latency, mut mssim, mut games) =
        (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut all = Vec::new();
    for spec in default_specs() {
        let workload = Workload::build(spec.name, opts.resolution(&spec))?;
        let results = run_policies(&workload, &points, &cfg)?;
        let base = &results[0];
        let patu = &results[3];
        speedup += patu.speedup_vs(base);
        energy += patu.energy_ratio_vs(base);
        latency += patu.filter_latency_ratio_vs(base);
        mssim += patu.mssim;
        games += 1.0;
        all.extend(results);
    }
    Ok((
        Headline {
            speedup: speedup / games,
            energy: energy / games,
            latency: latency / games,
            mssim: mssim / games,
        },
        all,
    ))
}

/// Bit-level agreement between two sweep runs: every aggregate's stats and
/// `f64` metrics must match exactly, not approximately.
fn identical(a: &[AggregateResult], b: &[AggregateResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.stats == y.stats
                && x.mssim.to_bits() == y.mssim.to_bits()
                && x.energy_joules.to_bits() == y.energy_joules.to_bits()
                && x.mean_cycles.to_bits() == y.mean_cycles.to_bits()
                && x.mean_filter_latency.to_bits() == y.mean_filter_latency.to_bits()
        })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // No knob changes what this binary computes; malformed ones still fail.
    Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    println!(
        "HEADLINE: PATU at the conservative tuning point ({})",
        opts.profile_banner()
    );

    let (headline, serial_results) = sweep(&opts, 1)?;
    let (_, parallel_results) = sweep(&opts, 4)?;
    let same = identical(&serial_results, &parallel_results);

    println!("\n{:<38} {:>10} {:>10}", "metric", "paper", "measured");
    println!(
        "{:<38} {:>10} {:>10}",
        "3D rendering speedup",
        "+17%",
        pct_delta(headline.speedup)
    );
    println!(
        "{:<38} {:>10} {:>10}",
        "total GPU energy reduction",
        "11%",
        pct(1.0 - headline.energy)
    );
    println!(
        "{:<38} {:>10} {:>10}",
        "texture filtering latency reduction",
        "29%",
        pct(1.0 - headline.latency)
    );
    println!(
        "{:<38} {:>10} {:>10}",
        "perceived quality (MSSIM)",
        ">=93%",
        pct(headline.mssim)
    );

    // Per-request filtering-latency distribution, merged over every game:
    // the mean alone hides the tail that AF's texel storms create.
    let mut base_hist = Log2Histogram::new();
    let mut patu_hist = Log2Histogram::new();
    for chunk in serial_results.chunks(4) {
        base_hist.accumulate(&chunk[0].stats.filter_latency_hist);
        patu_hist.accumulate(&chunk[3].stats.filter_latency_hist);
    }
    println!(
        "\n{:<12} {:>10} {:>8} {:>8} {:>8}",
        "filter lat.", "mean", "p50", "p95", "p99"
    );
    for (label, hist) in [("baseline", &base_hist), ("patu", &patu_hist)] {
        println!(
            "{:<12} {:>10.1} {:>8} {:>8} {:>8}",
            label,
            hist.mean(),
            hist.p50(),
            hist.p95(),
            hist.p99()
        );
    }

    println!("\nthreads 1 vs 4: outputs bit-identical: {same}");

    // Every float routes through `num_fixed`, which emits `null` instead of
    // the unparseable `inf`/`NaN` tokens (e.g. a zero-cycle frame's fps).
    let json = format!(
        "{{\n  \"bench\": \"headline\",\n  \"outputs_bit_identical\": {same},\n  \
         \"rendering_speedup_vs_baseline\": {},\n  \"energy_ratio\": {},\n  \
         \"filter_latency_ratio\": {},\n  \"mssim\": {},\n  \
         \"patu_filter_latency_p50\": {},\n  \"patu_filter_latency_p95\": {},\n  \
         \"patu_filter_latency_p99\": {}\n}}\n",
        num_fixed(headline.speedup, 4),
        num_fixed(headline.energy, 4),
        num_fixed(headline.latency, 4),
        num_fixed(headline.mssim, 4),
        patu_hist.p50(),
        patu_hist.p95(),
        patu_hist.p99(),
    );
    let path = micro::repo_root().join("BENCH_headline.json");
    std::fs::write(&path, json)?;
    println!("wrote {}", path.display());

    paper_note(
        "Abstract",
        "a significant average speedup of 17% for the overall 3D rendering along with \
         11% total GPU energy reduction, without visible image quality loss (MSSIM >= 93%); \
         29% texture filtering latency reduction",
    );
    Ok(())
}
