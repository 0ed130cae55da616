//! Renders one frame of every workload to `out/scene_<name>.ppm` for visual
//! inspection of the synthetic Table II stand-ins.

use patu_bench::{Knobs, RunOptions};
use patu_core::FilterPolicy;
use patu_scenes::Workload;
use patu_sim::render::render_frame;
use std::fs::File;
use std::io::BufWriter;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    std::fs::create_dir_all("out")?;
    for name in [
        "hl2", "doom3", "grid", "nfs", "stal", "ut3", "wolf", "rbench",
    ] {
        let res = if opts.full { (1280, 1024) } else { (640, 512) };
        let workload = Workload::build(name, res)?;
        let frame = render_frame(&workload, 0, &knobs.render(FilterPolicy::Baseline))?;
        let path = format!("out/scene_{name}.ppm");
        frame
            .image
            .write_ppm(BufWriter::new(File::create(&path)?))?;
        println!(
            "{path}: {}x{} | {} fragments | texture share {:.0}%",
            res.0,
            res.1,
            frame.stats.filter_requests,
            frame.stats.bandwidth.texture_fraction() * 100.0
        );
    }
    Ok(())
}
