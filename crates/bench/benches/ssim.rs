//! SSIM analyzer throughput (the analysis layer's dominant cost).

use patu_bench::micro;
use patu_quality::{GrayImage, SampledSsimConfig, SsimConfig};
use std::hint::black_box;

fn gradient(width: u32, height: u32, phase: u32) -> GrayImage {
    let data = (0..height)
        .flat_map(|y| (0..width).map(move |x| ((x * 7 + y * 13 + phase) % 256) as f32))
        .collect();
    GrayImage::new(width, height, data)
}

fn main() {
    let mut group = micro::group("ssim");
    for size in [128u32, 256, 512] {
        let a = gradient(size, size, 0);
        let b = gradient(size, size, 11);
        group.bench(&format!("mssim_{size}x{size}"), || {
            SsimConfig::default().mssim(black_box(&a), black_box(&b))
        });
    }
    let a = gradient(256, 256, 0);
    let b = gradient(256, 256, 11);
    group.bench("full_map_256", || {
        SsimConfig::default().ssim_map(black_box(&a), black_box(&b))
    });

    // The stratified sampled estimator at the default 1/4 fraction —
    // compare with `mssim_512x512` for the sampling speedup, the ratio
    // `bench_smoke` gates.
    let a = gradient(512, 512, 0);
    let b = gradient(512, 512, 11);
    let sampled =
        SampledSsimConfig::new(0x55A9).with_fraction(patu_quality::sampled::DEFAULT_FRACTION);
    group.bench("sampled_512x512", || {
        sampled.mssim_sampled(black_box(&a), black_box(&b))
    });
    group.write_json();
}
