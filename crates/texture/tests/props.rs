//! Property-based tests for texture filtering invariants, driven by the
//! workspace's deterministic generator (`DetRng`): each test sweeps a
//! fixed-seed randomized sample of the input space, so any failure
//! reproduces bit-for-bit from the test name alone.

use patu_gmath::{DetRng, Vec2};
use patu_texture::{
    procedural, sample_anisotropic, sample_bilinear, sample_trilinear, AddressMode, Footprint,
    Texture, MAX_ANISO,
};

const CASES: usize = 256;

fn f32_in(rng: &mut DetRng, lo: f32, hi: f32) -> f32 {
    lo + rng.next_f32() * (hi - lo)
}

fn any_mode(rng: &mut DetRng) -> AddressMode {
    match rng.range(3) {
        0 => AddressMode::Wrap,
        1 => AddressMode::Clamp,
        _ => AddressMode::Mirror,
    }
}

fn any_uv(rng: &mut DetRng) -> Vec2 {
    Vec2::new(f32_in(rng, -2.0, 2.0), f32_in(rng, -2.0, 2.0))
}

#[test]
fn address_mode_always_in_range() {
    let mut rng = DetRng::new(0x7E_01);
    for _ in 0..CASES {
        let coord = rng.range_between(0, 2000) as i64 - 1000;
        let size = rng.range_between(1, 64) as u32;
        let mode = any_mode(&mut rng);
        let folded = mode.apply(coord, size);
        assert!(folded < size);
    }
}

#[test]
fn wrap_is_periodic() {
    let mut rng = DetRng::new(0x7E_02);
    for _ in 0..CASES {
        let coord = rng.range_between(0, 1000) as i64 - 500;
        let size = rng.range_between(1, 64) as u32;
        let a = AddressMode::Wrap.apply(coord, size);
        let b = AddressMode::Wrap.apply(coord + i64::from(size), size);
        assert_eq!(a, b);
    }
}

#[test]
fn mirror_is_periodic_with_double_period() {
    let mut rng = DetRng::new(0x7E_03);
    for _ in 0..CASES {
        let coord = rng.range_between(0, 1000) as i64 - 500;
        let size = rng.range_between(1, 64) as u32;
        let a = AddressMode::Mirror.apply(coord, size);
        let b = AddressMode::Mirror.apply(coord + 2 * i64::from(size), size);
        assert_eq!(a, b);
    }
}

#[test]
fn bilinear_output_within_texel_range() {
    let mut rng = DetRng::new(0x7E_04);
    for _ in 0..64 {
        let uv = any_uv(&mut rng);
        let seed = rng.range(32);
        let mode = any_mode(&mut rng);
        let tex = Texture::with_mips(procedural::checkerboard(32, 32, 4, seed), 0);
        let (color, _addrs) = sample_bilinear(&tex, uv, 0, mode);
        // Filtered value is a convex combination: luma bounded by min/max texel luma.
        let lvl = tex.level(0);
        let (lo, hi) = lvl
            .texels()
            .iter()
            .fold((f32::MAX, f32::MIN), |(lo, hi), t| {
                (lo.min(t.luma()), hi.max(t.luma()))
            });
        assert!(color.luma() >= lo - 1.5 && color.luma() <= hi + 1.5);
    }
}

#[test]
fn trilinear_always_eight_fetches() {
    let mut rng = DetRng::new(0x7E_05);
    let tex = Texture::with_mips(procedural::value_noise(64, 64, 3, 5), 0);
    for _ in 0..CASES {
        let uv = any_uv(&mut rng);
        let lod = f32_in(&mut rng, -1.0, 10.0);
        let mode = any_mode(&mut rng);
        let tap = sample_trilinear(&tex, uv, lod, mode);
        assert_eq!(tap.addresses.len(), 8);
        assert!(tap.lod >= 0.0 && tap.lod <= (tex.mip_count() - 1) as f32);
    }
}

#[test]
fn footprint_invariants() {
    let mut rng = DetRng::new(0x7E_06);
    for _ in 0..CASES {
        let du = f32_in(&mut rng, 0.0001, 0.5);
        let dv = f32_in(&mut rng, 0.0001, 0.5);
        let max_aniso = rng.range_between(1, 17) as u32;
        let fp = Footprint::from_derivatives(
            Vec2::new(du, 0.0),
            Vec2::new(0.0, dv),
            256,
            256,
            max_aniso,
        );
        assert!(fp.n >= 1 && fp.n <= max_aniso);
        assert!(
            fp.af_lod <= fp.tf_lod + 1e-6,
            "AF LOD is never coarser than TF LOD"
        );
        assert!(fp.lod_shift() >= -1e-6);
        assert!(fp.anisotropy >= 1.0);
        assert!(fp.major_len >= fp.minor_len);
    }
}

#[test]
fn footprint_n_le_ceil_anisotropy() {
    let mut rng = DetRng::new(0x7E_07);
    for _ in 0..CASES {
        let du = f32_in(&mut rng, 0.001, 0.3);
        let dv = f32_in(&mut rng, 0.001, 0.3);
        let fp = Footprint::from_derivatives(
            Vec2::new(du, 0.0),
            Vec2::new(0.0, dv),
            512,
            512,
            MAX_ANISO,
        );
        assert!(fp.n as f32 <= fp.anisotropy.ceil().max(1.0));
    }
}

#[test]
fn aniso_texel_fetches_are_8n() {
    let mut rng = DetRng::new(0x7E_08);
    let tex = Texture::with_mips(procedural::bricks(256, 256, 32, 16, 2), 0);
    for _ in 0..64 {
        let uv = any_uv(&mut rng);
        let texels_x = f32_in(&mut rng, 1.0, 40.0);
        let fp = Footprint::from_derivatives(
            Vec2::new(texels_x / 256.0, 0.0),
            Vec2::new(0.0, 1.0 / 256.0),
            256,
            256,
            MAX_ANISO,
        );
        let rec = sample_anisotropic(&tex, uv, &fp, AddressMode::Wrap);
        assert_eq!(rec.taps.len() as u32, fp.n);
        assert_eq!(rec.texel_fetches() as u32, 8 * fp.n);
    }
}

#[test]
fn aniso_color_bounded_by_tap_colors() {
    let mut rng = DetRng::new(0x7E_09);
    let tex = Texture::with_mips(procedural::road(128, 128, 11), 0);
    for _ in 0..64 {
        let uv = any_uv(&mut rng);
        let texels_x = f32_in(&mut rng, 1.0, 20.0);
        let fp = Footprint::from_derivatives(
            Vec2::new(texels_x / 128.0, 0.0),
            Vec2::new(0.0, 1.0 / 128.0),
            128,
            128,
            MAX_ANISO,
        );
        let rec = sample_anisotropic(&tex, uv, &fp, AddressMode::Wrap);
        let (lo, hi) = rec.taps.iter().fold((f32::MAX, f32::MIN), |(lo, hi), t| {
            (lo.min(t.color.luma()), hi.max(t.color.luma()))
        });
        assert!(rec.color.luma() >= lo - 1.5 && rec.color.luma() <= hi + 1.5);
    }
}

#[test]
fn mip_chain_addresses_never_overlap() {
    for seed in 0..16u64 {
        let tex = Texture::with_mips(procedural::checkerboard(16, 16, 2, seed), 0x4000);
        let mut seen = std::collections::HashSet::new();
        for lvl in 0..tex.mip_count() {
            let l = tex.level(lvl);
            for y in 0..l.height() {
                for x in 0..l.width() {
                    let a = tex.texel_address(lvl, i64::from(x), i64::from(y), AddressMode::Clamp);
                    assert!(seen.insert(a), "duplicate address {a} at level {lvl}");
                }
            }
        }
    }
}
