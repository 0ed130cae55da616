//! Ablation: maximum AF level (2× / 4× / 8× / 16×) on the baseline.
//!
//! The paper's baseline is 16×AF. Lower caps are the conventional
//! quality/performance knob PATU competes with: they shrink every pixel's
//! sample budget uniformly, whereas PATU removes work only where it is not
//! perceivable.

use patu_bench::{Knobs, RunOptions};
use patu_core::FilterPolicy;
use patu_gpu::GpuConfig;
use patu_scenes::Workload;
use patu_sim::render::render_frame;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    println!("ABLATION: max AF level vs PATU ({})", opts.profile_banner());

    let spec = patu_scenes::default_specs()
        .into_iter()
        .find(|s| s.name == "grid")
        .expect("grid is in the default set");
    let workload = Workload::build(spec.name, opts.resolution(&spec))?;

    // Reference: full 16x AF.
    let reference = render_frame(&workload, 0, &knobs.render(FilterPolicy::Baseline))?;
    let ref_luma = reference.luma();
    let ssim = knobs.ssim();

    println!(
        "\n{:<22} {:>12} {:>9} {:>8}",
        "configuration", "cycles", "speedup", "MSSIM"
    );
    for max_aniso in [2u32, 4, 8, 16] {
        let gpu = GpuConfig {
            max_aniso,
            ..GpuConfig::default()
        };
        let r = render_frame(
            &workload,
            0,
            &knobs.render(FilterPolicy::Baseline).with_gpu(gpu),
        )?;
        let mssim = if max_aniso == 16 {
            1.0
        } else {
            f64::from(ssim.mssim(&ref_luma, &r.luma()))
        };
        println!(
            "{:<22} {:>12} {:>8.3}x {:>8.3}",
            format!("{max_aniso}x AF cap"),
            r.stats.cycles,
            reference.stats.cycles as f64 / r.stats.cycles as f64,
            mssim
        );
    }
    let patu = render_frame(
        &workload,
        0,
        &knobs.render(FilterPolicy::Patu { threshold: 0.4 }),
    )?;
    println!(
        "{:<22} {:>12} {:>8.3}x {:>8.3}",
        "PATU θ=0.4 (16x cap)",
        patu.stats.cycles,
        reference.stats.cycles as f64 / patu.stats.cycles as f64,
        f64::from(ssim.mssim(&ref_luma, &patu.luma()))
    );

    println!(
        "\nLowering the AF cap trades quality uniformly; PATU reaches similar \
         speedups while only touching pixels its predictor marks non-perceivable \
         (Sec. II: 'reducing its sampling size can seriously hurt user experience')."
    );
    Ok(())
}
