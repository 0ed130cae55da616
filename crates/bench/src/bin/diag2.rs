//! Calibration diagnostic: per-game SSIM-bucket histogram of the AF-on vs
//! AF-off index map and the anisotropy (N) distribution across fragments.

use patu_core::FilterPolicy;
use patu_raster::Pipeline;
use patu_scenes::Workload;
use patu_sim::render::render_frame;
use patu_texture::{Footprint, MAX_ANISO};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let knobs = patu_bench::Knobs::from_env()?;
    patu_bench::no_args()?;
    for name in ["doom3", "grid", "stal"] {
        let res = (640, 512);
        let w = Workload::build(name, res).unwrap();
        let on = render_frame(&w, 0, &knobs.render(FilterPolicy::Baseline))?;
        let off = render_frame(&w, 0, &knobs.render(FilterPolicy::NoAf))?;
        let map = knobs.ssim().ssim_map(&on.luma(), &off.luma());
        let mut lows = [0u64; 5];
        for &v in map.values() {
            let b = ((v.clamp(0.0, 0.999)) * 5.0) as usize;
            lows[b] += 1;
        }
        // N distribution
        let frame = w.frame(0);
        let out = Pipeline::new(res.0, res.1).run(&frame.meshes, &frame.camera);
        let mut nbins = [0u64; 5];
        let mut total = 0u64;
        for f in out.fragments() {
            let t = &w.textures()[f.material];
            let fp =
                Footprint::from_derivatives(f.duv_dx, f.duv_dy, t.width(), t.height(), MAX_ANISO);
            let b = match fp.n {
                1 => 0,
                2 => 1,
                3..=4 => 2,
                5..=8 => 3,
                _ => 4,
            };
            nbins[b] += 1;
            total += 1;
        }
        println!("{name}: MSSIM {:.3}", map.mean());
        println!(
            "  ssim buckets [0-.2,.2-.4,.4-.6,.6-.8,.8-1]: {:?} (of {})",
            lows,
            map.values().len()
        );
        println!(
            "  N buckets [1,2,3-4,5-8,9-16]: {:?} pct {:?}",
            nbins,
            nbins.iter().map(|&b| 100 * b / total).collect::<Vec<_>>()
        );
    }
    Ok(())
}
