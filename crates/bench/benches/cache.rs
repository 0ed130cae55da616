//! Texture cache model throughput under streaming and reuse patterns, and
//! under the address stream real trilinear taps produce; then the whole
//! memory hierarchy under 16-tap AF requests.

use patu_bench::micro;
use patu_gmath::Vec2;
use patu_gpu::{Cache, GpuConfig, MemorySystem, TextureUnit};
use patu_texture::sampler::sample_trilinear_into;
use patu_texture::{procedural, AddressMode, TexelAddress, Texture};
use std::hint::black_box;

/// The 4096 texel addresses `sample_trilinear_into` emits for 512 taps
/// walking a 64×8-pixel block at one texel per pixel (LOD 0.5): each
/// bilinear quad's texel pairs share cache lines, neighboring pixels share
/// quads, and rows revisit the lines of the row above — the mix of
/// same-line repeats and reuse the simulator's fetch stream has.
fn trilinear_walk() -> Vec<TexelAddress> {
    let tex = Texture::with_mips(procedural::composite(256, 256, 0xCA), 0);
    let mut addresses = Vec::with_capacity(4096);
    for i in 0..512u32 {
        let (x, y) = (i % 64, i / 64);
        let uv = Vec2::new((x as f32 + 40.3) / 256.0, (y as f32 + 90.6) / 256.0);
        sample_trilinear_into(&tex, uv, 0.5, AddressMode::Wrap, &mut addresses);
    }
    addresses
}

/// 16-tap AF requests for an 8×8-pixel block, 128 texel addresses each:
/// every tap a trilinear sample, the taps about half a texel apart along
/// the footprint's major axis, and neighboring pixels' footprints
/// overlapping.
fn af16_requests() -> Vec<Vec<TexelAddress>> {
    let tex = Texture::with_mips(procedural::composite(256, 256, 0xCA), 0);
    (0..64u32)
        .map(|i| {
            let (x, y) = ((i % 8) as f32, (i / 8) as f32);
            let mut addresses = Vec::with_capacity(128);
            for k in 0..16 {
                let t = k as f32 - 7.5;
                let uv = Vec2::new((x + 40.3 + 0.5 * t) / 256.0, (y + 90.6 + 0.125 * t) / 256.0);
                sample_trilinear_into(&tex, uv, 0.5, AddressMode::Wrap, &mut addresses);
            }
            addresses
        })
        .collect()
}

fn main() {
    let cfg = GpuConfig::default();
    let mut group = micro::group("cache");

    // Streaming: every access a new line.
    group.bench_batched(
        "l1_streaming_4k_accesses",
        || Cache::new(cfg.tex_l1_bytes, cfg.tex_l1_ways, cfg.cache_line_bytes),
        |mut cache| {
            for i in 0..4096u64 {
                cache.access(black_box(TexelAddress::new(i * 64)));
            }
            cache.stats().hits
        },
    );

    // Reuse: a texture-tile-like working set re-touched repeatedly.
    group.bench_batched(
        "l1_reuse_4k_accesses",
        || Cache::new(cfg.tex_l1_bytes, cfg.tex_l1_ways, cfg.cache_line_bytes),
        |mut cache| {
            for i in 0..4096u64 {
                cache.access(black_box(TexelAddress::new((i % 128) * 64)));
            }
            cache.stats().hits
        },
    );

    // Trilinear taps: about half the fetches repeat the previous line.
    let walk = trilinear_walk();
    group.bench_batched(
        "l1_trilinear_taps",
        || Cache::new(cfg.tex_l1_bytes, cfg.tex_l1_ways, cfg.cache_line_bytes),
        |mut cache| {
            for &a in &walk {
                cache.access(black_box(a));
            }
            cache.stats().hits
        },
    );

    // The memory layer the ledger's `gpu.ns_per_fetch` times: 64 AF
    // requests through `TextureUnit::process_flat` into cold caches,
    // recorded per texel fetch (8,192 per iteration).
    let requests = af16_requests();
    let fetches = requests.iter().map(Vec::len).sum::<usize>() as u64;
    group.bench_batched_scaled(
        "memsys/af16_request",
        fetches,
        || (TextureUnit::new(0, &cfg), MemorySystem::new(&cfg)),
        |(mut unit, mut mem)| {
            let mut done = 0;
            for request in &requests {
                let timing = unit.process_flat(black_box(request), 16, &mut mem, 0);
                done = done.max(timing.completion);
            }
            (done, mem.events().l1_misses)
        },
    );
    group.write_json();
}
