//! Fig. 8: an hl2 frame with AF on / AF off and their SSIM index map,
//! written as image files plus summary statistics.

use patu_bench::{paper_note, pct, Knobs, RunOptions};
use patu_core::FilterPolicy;
use patu_scenes::Workload;
use patu_sim::render::render_frame;
use std::fs::File;
use std::io::BufWriter;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    let res = if opts.full { (1600, 1200) } else { (800, 600) };
    println!(
        "FIG. 8: hl2 AF-on/AF-off SSIM index map ({})",
        opts.profile_banner()
    );

    let workload = Workload::build("hl2", res)?;
    let on = render_frame(&workload, 0, &knobs.render(FilterPolicy::Baseline))?;
    let off = render_frame(&workload, 0, &knobs.render(FilterPolicy::NoAf))?;
    let map = knobs.ssim().ssim_map(&on.luma(), &off.luma());

    std::fs::create_dir_all("out")?;
    on.image
        .write_ppm(BufWriter::new(File::create("out/fig08_af_on.ppm")?))?;
    off.image
        .write_ppm(BufWriter::new(File::create("out/fig08_af_off.ppm")?))?;
    map.to_gray_image()
        .write_pgm(BufWriter::new(File::create("out/fig08_ssim_map.pgm")?))?;

    println!("\nwrote out/fig08_af_on.ppm, out/fig08_af_off.ppm, out/fig08_ssim_map.pgm");
    println!("MSSIM (AF-off vs AF-on): {:.3}", map.mean());
    println!(
        "windows with SSIM >= 0.95 (light areas / non-perceivable): {}",
        pct(f64::from(map.fraction_above(0.95)))
    );
    println!(
        "windows with SSIM <  0.70 (dark areas / AF-critical):      {}",
        pct(1.0 - f64::from(map.fraction_above(0.70)))
    );

    paper_note(
        "Fig. 8",
        "the SSIM map preserves where AF matters; more than half of the pixels keep \
         high perceived quality without AF — the approximation opportunity",
    );
    Ok(())
}
