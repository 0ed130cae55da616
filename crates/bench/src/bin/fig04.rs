//! Fig. 4: frame rate of the R.Bench texture-stress workload at 2K and 4K
//! with AF enabled and disabled.
//!
//! The paper runs Relative Benchmark on an iPhone 7 Plus; here the same
//! mechanism (AF's texel storm throttling fps, worse at higher resolution)
//! is driven through the simulator's `rbench` workload.

use patu_bench::{paper_note, pct_delta, Knobs, RunOptions};
use patu_core::FilterPolicy;
use patu_gpu::GpuConfig;
use patu_scenes::Workload;
use patu_sim::render::render_frame;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    println!(
        "FIG. 4: R.Bench fps with AF on/off ({})",
        opts.profile_banner()
    );

    let freq = GpuConfig::default().frequency_hz;
    for (label, full_res) in [("2K", (2560u32, 1440u32)), ("4K", (3840, 2160))] {
        let res = if opts.full {
            full_res
        } else {
            (full_res.0 / 4, full_res.1 / 4)
        };
        let workload = Workload::build("rbench", res)?;
        println!("\n{label} ({}x{}):", res.0, res.1);
        println!(
            "{:>6} {:>12} {:>12} {:>10}",
            "frame", "fps AF-on", "fps AF-off", "gain"
        );

        let (mut sum_on, mut sum_off) = (0.0f64, 0.0f64);
        for i in 0..opts.frames {
            let frame = i * 150;
            let on = render_frame(&workload, frame, &knobs.render(FilterPolicy::Baseline))?;
            let off = render_frame(&workload, frame, &knobs.render(FilterPolicy::NoAf))?;
            let fps_on = on.stats.fps(freq);
            let fps_off = off.stats.fps(freq);
            sum_on += fps_on;
            sum_off += fps_off;
            println!(
                "{:>6} {:>12.1} {:>12.1} {:>10}",
                frame,
                fps_on,
                fps_off,
                pct_delta(fps_off / fps_on)
            );
        }
        let n = f64::from(opts.frames);
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>10}",
            "mean",
            sum_on / n,
            sum_off / n,
            pct_delta(sum_off / sum_on)
        );
    }

    paper_note(
        "Fig. 4",
        "disabling AF improves fps by 21% (up to 54%) at 2K and 43% (up to 83%) at 4K; \
         most frames miss the 60 fps target with AF on",
    );
    Ok(())
}
