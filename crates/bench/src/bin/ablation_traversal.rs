//! Ablation: intra-tile fragment traversal order (row-major vs Morton) and
//! its effect on texture-cache locality under full 16×AF.
//!
//! Real GPUs traverse tiles in locality-preserving orders; the effect shows
//! up in the L1 texture-cache hit rate and therefore in filtering latency.

use patu_bench::{Knobs, RunOptions};
use patu_core::FilterPolicy;
use patu_raster::TraversalOrder;
use patu_scenes::{default_specs, Workload};
use patu_sim::render::render_frame;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    println!(
        "ABLATION: fragment traversal order ({})",
        opts.profile_banner()
    );
    println!(
        "\n{:<16} {:>13} {:>13} {:>16} {:>16}",
        "game", "cycles row", "cycles morton", "L1 misses row", "L1 misses mort"
    );

    let (mut rows, mut morts) = (0u64, 0u64);
    for spec in default_specs() {
        let workload = Workload::build(spec.name, opts.resolution(&spec))?;
        let row = render_frame(&workload, 0, &knobs.render(FilterPolicy::Baseline))?;
        let mort = render_frame(
            &workload,
            0,
            &knobs
                .render(FilterPolicy::Baseline)
                .with_traversal(TraversalOrder::Morton),
        )?;
        println!(
            "{:<16} {:>13} {:>13} {:>16} {:>16}",
            spec.label(),
            row.stats.cycles,
            mort.stats.cycles,
            row.stats.events.l1_misses,
            mort.stats.events.l1_misses
        );
        rows += row.stats.cycles;
        morts += mort.stats.cycles;
    }
    println!(
        "\ntotal cycles: row-major {rows} vs morton {morts} ({:+.2}%)",
        (morts as f64 / rows as f64 - 1.0) * 100.0
    );
    println!(
        "Traversal order is orthogonal to PATU; both are locality plays on the \
         same texture hierarchy (compare with Fig. 21's cache-scaling study)."
    );
    Ok(())
}
