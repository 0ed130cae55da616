//! Property-based tests for texture filtering invariants, driven by the
//! workspace's deterministic generator (`DetRng`): each test sweeps a
//! fixed-seed randomized sample of the input space, so any failure
//! reproduces bit-for-bit from the test name alone.

use patu_gmath::{DetRng, Vec2};
use patu_texture::sampler::{bilinear_addresses, sample_trilinear_into};
use patu_texture::{
    procedural, sample_anisotropic, sample_bilinear, sample_trilinear, AddressMode, Footprint,
    Rgba8, TexelAddress, Texture, MAX_ANISO,
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

// ---------------------------------------------------------------------------
// Hot-path equivalence: the samplers fold each bilinear quad's coordinates
// once and read every texel's color and address from that one resolution.
// These tests pin them to a per-texel reference that folds every texel
// separately through `Texture::texel` / `Texture::texel_address`.
// ---------------------------------------------------------------------------

const MODES: [AddressMode; 3] = [AddressMode::Wrap, AddressMode::Clamp, AddressMode::Mirror];

/// A non-square texture whose sides are not powers of two (48×20 → … →
/// 3×1 → 1×1), a square one, and a 1×1 single-level texture.
fn equivalence_textures() -> Vec<Texture> {
    vec![
        Texture::with_mips(procedural::composite(48, 20, 0xE1), 0x4000),
        Texture::with_mips(procedural::checkerboard(64, 64, 3, 0xE2), 0x9_0000),
        Texture::single_level((1, 1, vec![Rgba8::rgb(9, 99, 199)]), 0x100),
    ]
}

/// UVs inside the texture, far outside it (negative and several periods
/// out), and on exact period boundaries.
fn equivalence_uv(rng: &mut DetRng) -> Vec2 {
    match rng.range(4) {
        0 => Vec2::new(rng.next_f32(), rng.next_f32()),
        1 => Vec2::new(f32_in(rng, -9.0, 9.0), f32_in(rng, -9.0, 9.0)),
        2 => Vec2::new(f32_in(rng, -40.0, -20.0), f32_in(rng, 20.0, 40.0)),
        _ => Vec2::new(
            rng.range_between(0, 12) as f32 - 6.0,
            rng.range_between(0, 12) as f32 - 6.0,
        ),
    }
}

/// Per-texel reference bilinear tap: each of the 4 texels folded on its own,
/// once for its color and once more for its address.
fn reference_bilinear(
    tex: &Texture,
    uv: Vec2,
    level: u32,
    mode: AddressMode,
) -> (Rgba8, [TexelAddress; 4]) {
    let lvl = tex.level(level);
    let x = uv.x * lvl.width() as f32 - 0.5;
    let y = uv.y * lvl.height() as f32 - 0.5;
    let (x0, y0) = (x.floor(), y.floor());
    let (fx, fy) = (x - x0, y - y0);
    let (x0, y0) = (x0 as i64, y0 as i64);
    let coords = [(x0, y0), (x0 + 1, y0), (x0, y0 + 1), (x0 + 1, y0 + 1)];
    let weights = [
        (1.0 - fx) * (1.0 - fy),
        fx * (1.0 - fy),
        (1.0 - fx) * fy,
        fx * fy,
    ];
    let texels: Vec<(Rgba8, f32)> = coords
        .iter()
        .zip(weights)
        .map(|(&(cx, cy), w)| (tex.texel(level, cx, cy, mode), w))
        .collect();
    let addresses = coords.map(|(cx, cy)| tex.texel_address(level, cx, cy, mode));
    (Rgba8::weighted_sum(&texels), addresses)
}

fn reference_trilinear(
    tex: &Texture,
    uv: Vec2,
    lod: f32,
    mode: AddressMode,
) -> (Rgba8, f32, Vec<TexelAddress>) {
    let lod = tex.clamp_lod(lod);
    let l0 = lod.floor() as u32;
    let l1 = (l0 + 1).min(tex.mip_count() - 1);
    let frac = lod - lod.floor();
    let (c0, a0) = reference_bilinear(tex, uv, l0, mode);
    let (c1, a1) = reference_bilinear(tex, uv, l1, mode);
    let color = Rgba8::weighted_sum(&[(c0, 1.0 - frac), (c1, frac)]);
    (color, lod, [a0, a1].concat())
}

/// The seed definition of every address mode's fold, with no in-range
/// shortcut.
fn reference_fold(mode: AddressMode, coord: i64, size: u32) -> u32 {
    let size = i64::from(size);
    let folded = match mode {
        AddressMode::Wrap => coord.rem_euclid(size),
        AddressMode::Clamp => coord.clamp(0, size - 1),
        AddressMode::Mirror => {
            let m = coord.rem_euclid(2 * size);
            if m < size {
                m
            } else {
                2 * size - 1 - m
            }
        }
    };
    folded as u32
}

#[test]
fn address_mode_fold_matches_reference_in_and_out_of_range() {
    let mut rng = DetRng::new(0x7E_10);
    for _ in 0..CASES * 8 {
        let size = rng.range_between(1, 70) as u32;
        let coord = rng.range_between(0, 1200) as i64 - 600;
        for mode in MODES {
            assert_eq!(
                mode.apply(coord, size),
                reference_fold(mode, coord, size),
                "{mode:?} {coord} mod {size}"
            );
        }
    }
}

#[test]
fn bilinear_matches_per_texel_reference() {
    let mut rng = DetRng::new(0x7E_11);
    for tex in equivalence_textures() {
        for _ in 0..CASES {
            let uv = equivalence_uv(&mut rng);
            // Levels past the chain clamp to the top (1×1) mip.
            let level = rng.range(u64::from(tex.mip_count()) + 2) as u32;
            for mode in MODES {
                let expected = reference_bilinear(&tex, uv, level, mode);
                assert_eq!(
                    sample_bilinear(&tex, uv, level, mode),
                    expected,
                    "{mode:?} uv {uv:?} level {level}"
                );
                assert_eq!(
                    bilinear_addresses(&tex, uv, level, mode),
                    expected.1,
                    "{mode:?} uv {uv:?} level {level}"
                );
            }
        }
    }
}

#[test]
fn trilinear_into_matches_per_texel_reference() {
    let mut rng = DetRng::new(0x7E_12);
    let mut flat = Vec::new();
    for tex in equivalence_textures() {
        let top = tex.mip_count() as f32 - 1.0;
        for _ in 0..CASES {
            let uv = equivalence_uv(&mut rng);
            // Integral LODs (half the cases) give the coarser level a zero
            // blend weight.
            let lod = if rng.chance(0.5) {
                rng.range_between(0, tex.mip_count() as u64 + 2) as f32 - 1.0
            } else {
                f32_in(&mut rng, -1.0, top + 1.5)
            };
            for mode in MODES {
                let (color, clamped, addresses) = reference_trilinear(&tex, uv, lod, mode);
                flat.clear();
                let got = sample_trilinear_into(&tex, uv, lod, mode, &mut flat);
                assert_eq!(got, (color, clamped), "{mode:?} uv {uv:?} lod {lod}");
                assert_eq!(flat, addresses, "{mode:?} uv {uv:?} lod {lod}");
            }
        }
    }
}

#[test]
fn f32_round_trip_is_exact_for_every_channel_value() {
    for v in 0..=255u8 {
        let c = Rgba8::new(v, 255 - v, v / 3, v);
        assert_eq!(Rgba8::from_f32(c.to_f32()), c);
    }
}

#[test]
fn to_f32_table_is_bitwise_division_by_255() {
    for v in 0..=255u8 {
        let expected = (f32::from(v) / 255.0).to_bits();
        let got = Rgba8::new(v, v, v, v).to_f32();
        assert!(got.iter().all(|c| c.to_bits() == expected), "channel {v}");
    }
}

#[test]
fn tap_offset_table_matches_sorted_computation() {
    for n in 1..=MAX_ANISO {
        let mut expected: Vec<f32> = (0..n).map(|i| (i as f32 + 0.5) / n as f32 - 0.5).collect();
        expected.sort_by(|a, b| a.abs().total_cmp(&b.abs()));
        let fp = Footprint {
            n,
            ..Footprint::isotropic()
        };
        let got = fp.tap_offsets();
        let bits = |v: &[f32]| v.iter().map(|o| o.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&expected), "n = {n}");
    }
}
