//! Rasterization pipeline throughput — the whole geometry pass
//! (`raster/<game>`) and the binning half of it that a render runs
//! serially before its clusters start (`raster/bin_<game>`) — plus the
//! reusable flat-grid quad divergence accounting the render loop uses. (The retired
//! `HashMap<QuadId, Vec<bool>>` baseline it replaced measured ~9.5× slower
//! — see BENCH_raster.json history — and was dropped along with the dead
//! per-tile HashMap code path.)

use patu_bench::micro;
use patu_core::DivergenceStats;
use patu_raster::Pipeline;
use patu_scenes::Workload;
use std::hint::black_box;

const TILE: u32 = 16;

fn main() {
    let mut group = micro::group("raster");
    for (game, res) in [("doom3", (320u32, 256u32)), ("grid", (320, 256))] {
        let workload = Workload::build(game, res).expect("known game");
        let frame = workload.frame(0);
        let pipeline = Pipeline::new(res.0, res.1);
        group.bench(&format!("{game}_{}x{}", res.0, res.1), || {
            pipeline.run(black_box(&frame.meshes), &frame.camera)
        });
        group.bench(&format!("bin_{game}_{}x{}", res.0, res.1), || {
            pipeline.bin(black_box(&frame.meshes), &frame.camera)
        });
    }

    // Quad accounting: the reusable flat grid the render loop ships with.
    let workload = Workload::build("doom3", (320, 256)).expect("known game");
    let frame = workload.frame(0);
    let geometry = Pipeline::with_tile_size(320, 256, TILE).run(&frame.meshes, &frame.camera);

    let quads_per_side = (TILE as usize).div_ceil(2);
    let mut fragments = vec![0u32; quads_per_side * quads_per_side];
    let mut approximated = vec![0u32; quads_per_side * quads_per_side];
    group.bench("quad_accounting/flat_reused", || {
        let mut divergence = DivergenceStats::new();
        for tile in &geometry.tiles {
            let (x0, y0) = (tile.tx * TILE, tile.ty * TILE);
            for frag in &tile.fragments {
                let idx =
                    ((frag.y - y0) / 2) as usize * quads_per_side + ((frag.x - x0) / 2) as usize;
                fragments[idx] += 1;
                approximated[idx] += u32::from(frag.x % 3 == 0);
            }
            for (count, approx) in fragments.iter_mut().zip(&mut approximated) {
                if *count > 0 {
                    divergence.record_quad_counts(u64::from(*count), u64::from(*approx));
                    *count = 0;
                    *approx = 0;
                }
            }
        }
        black_box(divergence)
    });

    group.write_json();
}
