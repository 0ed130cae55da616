//! Calibration diagnostic: per-game mean AF tap count, cycles with AF
//! on/off, filtering latency (mean and tail), L2 miss rate, texture traffic
//! share, and the AF-off texel ratio — the quantities DESIGN.md §5b/§5c
//! calibrate against. Rendered through the telemetry layer's single
//! run-summary formatter ([`patu_obs::Table`]).

use patu_core::FilterPolicy;
use patu_obs::Table;
use patu_scenes::Workload;
use patu_sim::render::render_frame;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = patu_bench::Knobs::from_env()?;
    patu_bench::no_args()?;
    let mut table = Table::new(&[
        "game",
        "N_avg",
        "base cycles",
        "noaf cycles",
        "ratio",
        "lat mean",
        "lat p95",
        "lat p99",
        "l2miss",
        "texfrac",
        "texel ratio",
    ]);
    for name in ["hl2", "doom3", "grid", "nfs", "stal", "ut3", "wolf"] {
        let res = if name == "wolf" {
            (320, 240)
        } else {
            (640, 512)
        };
        let w = Workload::build(name, res).unwrap();
        let base = render_frame(&w, 0, &knobs.render(FilterPolicy::Baseline))?;
        let noaf = render_frame(&w, 0, &knobs.render(FilterPolicy::NoAf))?;
        let e = &base.stats.events;
        let n_avg = e.trilinear_ops as f64 / base.stats.filter_requests as f64;
        table.row(&[
            name.to_string(),
            format!("{n_avg:.2}"),
            base.stats.cycles.to_string(),
            noaf.stats.cycles.to_string(),
            format!(
                "{:.2}x",
                base.stats.cycles as f64 / noaf.stats.cycles as f64
            ),
            format!("{:.0}", base.stats.mean_filter_latency()),
            base.stats.filter_latency_p95().to_string(),
            base.stats.filter_latency_p99().to_string(),
            format!("{:.2}", e.l2_misses as f64 / e.l2_accesses.max(1) as f64),
            format!("{:.2}", base.stats.bandwidth.texture_fraction()),
            format!(
                "{:.2}",
                noaf.stats.events.texel_fetches as f64 / e.texel_fetches as f64
            ),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}
