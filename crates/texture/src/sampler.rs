//! Hardware-style texture samplers.
//!
//! Each sampler returns the filtered color *and* the set of texel addresses
//! it touched, exactly as the texture-unit pipeline of the paper's Fig. 2
//! produces them: *Texel Generation* → *Texture Quality Selection* (LOD) →
//! *Texel Address Calculation* → *Texel Fetching* → *Filtering*.
//!
//! The anisotropic sampler implements the paper's Eq. (3): AF's output is the
//! average of `N` trilinear samples distributed along the footprint's major
//! axis, each computed by the same trilinear machinery as a plain TF sample.

use crate::footprint::Footprint;
use crate::texel::{Rgba8, TexelAddress};
use crate::texture::{AddressMode, MipLevel, Texture};
use patu_gmath::Vec2;

/// One trilinear sample: the `X_i` of the paper's Eq. (3).
///
/// A trilinear sample bilinearly filters 4 texels on each of two adjacent mip
/// levels and blends them, touching 8 texel addresses in total.
#[derive(Debug, Clone, PartialEq)]
pub struct Tap {
    /// Texture coordinates of the tap center.
    pub uv: Vec2,
    /// Fractional LOD the tap filtered at.
    pub lod: f32,
    /// Filtered color of this tap.
    pub color: Rgba8,
    /// The 8 texel addresses the tap fetched (4 per mip level; entries may
    /// repeat when the LOD is clamped at the ends of the mip chain). The
    /// first 4 belong to the finer level, the last 4 to the coarser level.
    pub addresses: Vec<TexelAddress>,
}

/// The complete result of filtering one pixel: the final color plus the
/// architectural trace (every tap, every texel address) that the timing
/// model and PATU's predictors consume.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRecord {
    /// Final filtered color returned to the shader.
    pub color: Rgba8,
    /// The trilinear taps taken (1 for TF, `N` for AF).
    pub taps: Vec<Tap>,
    /// The AF sample size this record was filtered with (1 = TF-only).
    pub n: u32,
    /// The LOD the taps used.
    pub lod: f32,
}

impl SampleRecord {
    /// Total texels fetched across all taps (with duplicates — the raw fetch
    /// count the texture unit issues before any cache filtering).
    pub fn texel_fetches(&self) -> usize {
        self.taps.iter().map(|t| t.addresses.len()).sum()
    }

    /// Iterator over all touched texel addresses (with duplicates).
    pub fn addresses(&self) -> impl Iterator<Item = TexelAddress> + '_ {
        self.taps.iter().flat_map(|t| t.addresses.iter().copied())
    }
}

/// Nearest-neighbor sample of one mip level: the single texel whose center
/// is closest to `uv`. The cheapest filter mode; used for point-sampled
/// UI/lookup textures and as a reference in tests.
///
/// Returns the texel color and its address.
pub fn sample_nearest(
    tex: &Texture,
    uv: Vec2,
    level: u32,
    mode: AddressMode,
) -> (Rgba8, TexelAddress) {
    let lvl = tex.level(level);
    let x = (uv.x * lvl.width() as f32).floor() as i64;
    let y = (uv.y * lvl.height() as f32).floor() as i64;
    let (tx, ty) = (mode.apply(x, lvl.width()), mode.apply(y, lvl.height()));
    (lvl.texel(tx, ty), tex.folded_address(lvl, tx, ty))
}

/// `v.floor()` as an integer and as a float: bit-identical to
/// `(v.floor() as i64, v.floor())` for every input. Below 2^23 in
/// magnitude, where an `f32` can have a fraction, it floors in integer
/// arithmetic instead of calling `floorf`; the sign copy keeps
/// `floor(-0.0) == -0.0`.
#[inline]
fn floor(v: f32) -> (i64, f32) {
    if v.abs() < 8_388_608.0 {
        let t = v as i64;
        let t = t - i64::from(t as f32 > v);
        (t, (t as f32).copysign(v))
    } else {
        let f = v.floor();
        (f as i64, f)
    }
}

/// The 2×2 texel quad a bilinear tap reads on one mip level, with its two
/// columns and two rows folded by the address mode once. Both the texel
/// colors and their addresses are read from this one resolution, so they
/// always name the same texels.
struct Quad<'a> {
    lvl: &'a MipLevel,
    xs: [u32; 2],
    ys: [u32; 2],
    /// Fractional position of the sample point past the first column.
    fx: f32,
    /// Fractional position of the sample point past the first row.
    fy: f32,
}

impl<'a> Quad<'a> {
    fn resolve(tex: &'a Texture, uv: Vec2, level: u32, mode: AddressMode) -> Quad<'a> {
        let lvl = tex.level(level);
        let (w, h) = (lvl.width(), lvl.height());
        // Texel centers sit at integer + 0.5.
        let x = uv.x * w as f32 - 0.5;
        let y = uv.y * h as f32 - 0.5;
        let (ix, x0) = floor(x);
        let (iy, y0) = floor(y);
        Quad {
            lvl,
            xs: [mode.apply(ix, w), mode.apply(ix + 1, w)],
            ys: [mode.apply(iy, h), mode.apply(iy + 1, h)],
            fx: x - x0,
            fy: y - y0,
        }
    }

    /// The quad's folded texel coordinates in fetch order: `(x0, y0)`,
    /// `(x0+1, y0)`, `(x0, y0+1)`, `(x0+1, y0+1)`.
    #[inline]
    fn coords(&self) -> [(u32, u32); 4] {
        [
            (self.xs[0], self.ys[0]),
            (self.xs[1], self.ys[0]),
            (self.xs[0], self.ys[1]),
            (self.xs[1], self.ys[1]),
        ]
    }

    /// The bilinear blend of the quad's 4 texels.
    #[inline]
    fn color(&self) -> Rgba8 {
        let (fx, fy) = (self.fx, self.fy);
        let weights = [
            (1.0 - fx) * (1.0 - fy),
            fx * (1.0 - fy),
            (1.0 - fx) * fy,
            fx * fy,
        ];
        let coords = self.coords();
        let texels: [(Rgba8, f32); 4] =
            std::array::from_fn(|i| (self.lvl.texel(coords[i].0, coords[i].1), weights[i]));
        Rgba8::weighted_sum(&texels)
    }

    #[inline]
    fn addresses(&self, tex: &Texture) -> [TexelAddress; 4] {
        self.coords()
            .map(|(tx, ty)| tex.folded_address(self.lvl, tx, ty))
    }

    /// The quad's distinct addresses in ascending order, and their count.
    /// Within a level an address grows with `(y, x)`, so the folded rows
    /// and columns, each ordered and deduplicated, give the order.
    #[inline]
    fn address_set(&self, tex: &Texture) -> ([TexelAddress; 4], usize) {
        let ordered = |[a, b]: [u32; 2]| ([a.min(b), a.max(b)], 1 + usize::from(a != b));
        let (xs, nx) = ordered(self.xs);
        let (ys, ny) = ordered(self.ys);
        let mut set = [TexelAddress::default(); 4];
        for (j, &ty) in ys[..ny].iter().enumerate() {
            for (i, &tx) in xs[..nx].iter().enumerate() {
                set[j * nx + i] = tex.folded_address(self.lvl, tx, ty);
            }
        }
        (set, nx * ny)
    }
}

/// The 4 texel addresses a bilinear tap at `uv` on `level` would fetch,
/// without filtering — the pure *Texel Address Calculation* stage output.
///
/// PATU's hash table compares AF taps by the TF-level sample area they fall
/// into (paper Fig. 11); this function provides those keys cheaply.
pub fn bilinear_addresses(
    tex: &Texture,
    uv: Vec2,
    level: u32,
    mode: AddressMode,
) -> [TexelAddress; 4] {
    Quad::resolve(tex, uv, level, mode).addresses(tex)
}

/// The distinct addresses of [`bilinear_addresses`] in ascending order —
/// the first `len` entries of the returned array — built without a sort.
/// PATU's stage-2 hash table compares taps by this normalized set.
pub fn bilinear_address_set(
    tex: &Texture,
    uv: Vec2,
    level: u32,
    mode: AddressMode,
) -> ([TexelAddress; 4], usize) {
    Quad::resolve(tex, uv, level, mode).address_set(tex)
}

/// Bilinear sample of one mip level: 4 texels, weights from the fractional
/// position of the sample point relative to texel centers.
///
/// Returns the filtered color and the 4 texel addresses fetched.
pub fn sample_bilinear(
    tex: &Texture,
    uv: Vec2,
    level: u32,
    mode: AddressMode,
) -> (Rgba8, [TexelAddress; 4]) {
    let quad = Quad::resolve(tex, uv, level, mode);
    (quad.color(), quad.addresses(tex))
}

/// Trilinear sample at a fractional LOD: two bilinear taps on adjacent mip
/// levels blended by the LOD fraction — 8 texel fetches.
///
/// The LOD is clamped into the texture's mip range like hardware does.
pub fn sample_trilinear(tex: &Texture, uv: Vec2, lod: f32, mode: AddressMode) -> Tap {
    let mut addresses = Vec::with_capacity(8);
    let (color, lod) = sample_trilinear_into(tex, uv, lod, mode, &mut addresses);
    Tap {
        uv,
        lod,
        color,
        addresses,
    }
}

/// Flat-output form of [`sample_trilinear`]: appends the tap's 8 texel
/// addresses (4 fine, then 4 coarse) to `addresses` instead of allocating a
/// fresh vector, and returns the filtered color and clamped LOD.
///
/// [`sample_trilinear`] is implemented on top of this, so the two are
/// bit-identical by construction; the batched fragment path uses this form
/// directly to lay a whole batch's fetches out contiguously.
pub fn sample_trilinear_into(
    tex: &Texture,
    uv: Vec2,
    lod: f32,
    mode: AddressMode,
    addresses: &mut Vec<TexelAddress>,
) -> (Rgba8, f32) {
    let lod = tex.clamp_lod(lod);
    let l0 = lod.floor() as u32;
    let l1 = (l0 + 1).min(tex.mip_count() - 1);
    let frac = lod - lod.floor();

    let fine = Quad::resolve(tex, uv, l0, mode);
    let coarse = Quad::resolve(tex, uv, l1, mode);
    let c0 = fine.color();
    // At an integral LOD the coarser level's blend weight is 0: the blend
    // adds `+0.0` to each of `c0`'s channels and re-quantizes them to
    // `c0` (`Rgba8::from_f32(c.to_f32()) == c`), so that level's texels
    // are fetched (addressed) but their values are never needed.
    let color = if frac == 0.0 {
        c0
    } else {
        Rgba8::weighted_sum(&[(c0, 1.0 - frac), (coarse.color(), frac)])
    };

    addresses.extend_from_slice(&fine.addresses(tex));
    addresses.extend_from_slice(&coarse.addresses(tex));
    (color, lod)
}

/// Plain trilinear filtering of a pixel, as a [`SampleRecord`] with `n = 1`.
///
/// This is the paper's `X`: the pixel color when AF is skipped. `lod` should
/// normally be the footprint's [`Footprint::tf_lod`]; PATU instead passes
/// [`Footprint::af_lod`] to avoid the LOD shift (Sec. V-C(2)).
pub fn sample_trilinear_record(
    tex: &Texture,
    uv: Vec2,
    lod: f32,
    mode: AddressMode,
) -> SampleRecord {
    let tap = sample_trilinear(tex, uv, lod, mode);
    SampleRecord {
        color: tap.color,
        lod: tap.lod,
        taps: vec![tap],
        n: 1,
    }
}

/// Anisotropic filtering of a pixel per the paper's Eq. (3): `N` trilinear
/// taps along the footprint's major axis at the AF LOD, averaged.
///
/// The returned record's taps are ordered center-outward (tap 0 is `X_0`,
/// the tap sharing its center with the TF sample).
pub fn sample_anisotropic(
    tex: &Texture,
    uv: Vec2,
    footprint: &Footprint,
    mode: AddressMode,
) -> SampleRecord {
    let lod = tex.clamp_lod(footprint.af_lod);
    let offsets = footprint.tap_offsets();
    let mut taps = Vec::with_capacity(offsets.len());
    for t in offsets {
        let tap_uv = uv + footprint.major_axis_uv * t;
        taps.push(sample_trilinear(tex, tap_uv, lod, mode));
    }
    let colors: Vec<Rgba8> = taps.iter().map(|t| t.color).collect();
    SampleRecord {
        color: Rgba8::average(&colors),
        n: footprint.n,
        lod,
        taps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procedural;

    fn flat(size: u32, c: Rgba8) -> Texture {
        Texture::with_mips((size, size, vec![c; (size * size) as usize]), 0)
    }

    fn center_uv() -> Vec2 {
        Vec2::new(0.5, 0.5)
    }

    #[test]
    fn nearest_picks_containing_texel() {
        let tex = Texture::single_level(
            (
                2,
                2,
                vec![
                    Rgba8::rgb(255, 0, 0),
                    Rgba8::rgb(0, 255, 0),
                    Rgba8::rgb(0, 0, 255),
                    Rgba8::rgb(255, 255, 0),
                ],
            ),
            0,
        );
        // Anywhere inside the upper-left quadrant maps to texel (0,0).
        let (c, a) = sample_nearest(&tex, Vec2::new(0.2, 0.3), 0, AddressMode::Clamp);
        assert_eq!(c, Rgba8::rgb(255, 0, 0));
        assert_eq!(a, tex.texel_address(0, 0, 0, AddressMode::Clamp));
        let (c, _) = sample_nearest(&tex, Vec2::new(0.9, 0.9), 0, AddressMode::Clamp);
        assert_eq!(c, Rgba8::rgb(255, 255, 0));
    }

    #[test]
    fn nearest_wraps_out_of_range() {
        let tex = Texture::single_level((2, 1, vec![Rgba8::BLACK, Rgba8::WHITE]), 0);
        let (c, _) = sample_nearest(&tex, Vec2::new(1.75, 0.0), 0, AddressMode::Wrap);
        assert_eq!(c, Rgba8::WHITE, "u=1.75 wraps into the second texel");
    }

    #[test]
    fn bilinear_flat_texture_is_exact() {
        let c = Rgba8::rgb(10, 200, 30);
        let tex = flat(16, c);
        let (out, addrs) = sample_bilinear(&tex, center_uv(), 0, AddressMode::Wrap);
        assert_eq!(out, c);
        assert_eq!(addrs.len(), 4);
    }

    #[test]
    fn bilinear_at_texel_center_returns_that_texel() {
        // 2x2 texture: distinct corners.
        let tex = Texture::single_level(
            (
                2,
                2,
                vec![
                    Rgba8::rgb(255, 0, 0),
                    Rgba8::rgb(0, 255, 0),
                    Rgba8::rgb(0, 0, 255),
                    Rgba8::rgb(255, 255, 0),
                ],
            ),
            0,
        );
        // Texel (0,0) center is uv (0.25, 0.25).
        let (out, _) = sample_bilinear(&tex, Vec2::new(0.25, 0.25), 0, AddressMode::Clamp);
        assert_eq!(out, Rgba8::rgb(255, 0, 0));
    }

    #[test]
    fn bilinear_midpoint_blends_evenly() {
        let tex = Texture::single_level((2, 1, vec![Rgba8::BLACK, Rgba8::WHITE]), 0);
        let (out, _) = sample_bilinear(&tex, Vec2::new(0.5, 0.5), 0, AddressMode::Clamp);
        assert!((i32::from(out.r) - 128).abs() <= 1, "got {}", out.r);
    }

    #[test]
    fn integer_floor_is_bit_identical_to_floorf() {
        let mut values = vec![
            0.0f32,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            -1.5,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            8_388_607.5,
            -8_388_607.5,
            8_388_608.0,
            -8_388_609.0,
            1e19,
            -1e19,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut rng = patu_gmath::DetRng::new(0xf100);
        values.extend((0..4096).map(|_| (rng.next_f32() - 0.5) * 4096.0));
        values.extend((0..1024).map(|i| i as f32 * 0.25 - 128.0));
        for v in values {
            let (i, f) = floor(v);
            assert_eq!(f.to_bits(), v.floor().to_bits(), "floor({v})");
            assert_eq!(i, v.floor() as i64, "floor({v}) as i64");
        }
    }

    #[test]
    fn bilinear_addresses_are_neighbors() {
        let tex = flat(16, Rgba8::WHITE);
        let (_, addrs) = sample_bilinear(&tex, Vec2::new(0.5, 0.5), 0, AddressMode::Wrap);
        // 4 distinct addresses forming a 2x2 block.
        let set: std::collections::HashSet<_> = addrs.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn trilinear_fetches_eight_addresses() {
        let tex = flat(32, Rgba8::WHITE);
        let tap = sample_trilinear(&tex, center_uv(), 1.5, AddressMode::Wrap);
        assert_eq!(tap.addresses.len(), 8);
        assert_eq!(tap.lod, 1.5);
    }

    #[test]
    fn trilinear_clamps_lod() {
        let tex = flat(8, Rgba8::WHITE);
        let tap = sample_trilinear(&tex, center_uv(), 99.0, AddressMode::Wrap);
        assert_eq!(tap.lod, (tex.mip_count() - 1) as f32);
        let tap = sample_trilinear(&tex, center_uv(), -3.0, AddressMode::Wrap);
        assert_eq!(tap.lod, 0.0);
    }

    #[test]
    fn trilinear_integer_lod_matches_bilinear() {
        let tex = Texture::with_mips(procedural::checkerboard(32, 32, 4, 3), 0);
        let (bi, _) = sample_bilinear(&tex, Vec2::new(0.3, 0.7), 2, AddressMode::Wrap);
        let tri = sample_trilinear(&tex, Vec2::new(0.3, 0.7), 2.0, AddressMode::Wrap);
        assert_eq!(tri.color, bi);
    }

    #[test]
    fn trilinear_blends_between_levels() {
        // Levels differ: base checker vs. averaged upper level.
        let tex = Texture::with_mips(procedural::checkerboard(32, 32, 1, 3), 0);
        let uv = Vec2::new(0.25, 0.25);
        let l0 = sample_trilinear(&tex, uv, 0.0, AddressMode::Wrap).color;
        let l2 = sample_trilinear(&tex, uv, 2.0, AddressMode::Wrap).color;
        let mid = sample_trilinear(&tex, uv, 1.0, AddressMode::Wrap).color;
        // Mid-level luma lies between the two ends (checker converges to gray).
        let lo = l0.luma().min(l2.luma()) - 1.0;
        let hi = l0.luma().max(l2.luma()) + 1.0;
        assert!(mid.luma() >= lo && mid.luma() <= hi);
    }

    #[test]
    fn aniso_isotropic_footprint_equals_trilinear() {
        let tex = Texture::with_mips(procedural::checkerboard(64, 64, 4, 9), 0);
        let fp = Footprint::isotropic();
        let uv = Vec2::new(0.4, 0.6);
        let af = sample_anisotropic(&tex, uv, &fp, AddressMode::Wrap);
        let tf = sample_trilinear_record(&tex, uv, fp.af_lod, AddressMode::Wrap);
        assert_eq!(af.color, tf.color);
        assert_eq!(af.taps.len(), 1);
    }

    #[test]
    fn aniso_tap_count_matches_footprint() {
        let tex = Texture::with_mips(procedural::checkerboard(256, 256, 8, 9), 0);
        let fp = Footprint::from_derivatives(
            Vec2::new(8.0 / 256.0, 0.0),
            Vec2::new(0.0, 1.0 / 256.0),
            256,
            256,
            16,
        );
        let rec = sample_anisotropic(&tex, center_uv(), &fp, AddressMode::Wrap);
        assert_eq!(rec.taps.len(), 8);
        assert_eq!(rec.n, 8);
        assert_eq!(rec.texel_fetches(), 64, "8 taps x 8 texels");
    }

    #[test]
    fn aniso_taps_spread_along_major_axis() {
        let tex = flat(256, Rgba8::WHITE);
        let fp = Footprint::from_derivatives(
            Vec2::new(4.0 / 256.0, 0.0),
            Vec2::new(0.0, 1.0 / 256.0),
            256,
            256,
            16,
        );
        let rec = sample_anisotropic(&tex, center_uv(), &fp, AddressMode::Wrap);
        let us: Vec<f32> = rec.taps.iter().map(|t| t.uv.x).collect();
        let vs: Vec<f32> = rec.taps.iter().map(|t| t.uv.y).collect();
        assert!(vs.iter().all(|&v| (v - 0.5).abs() < 1e-6), "v constant");
        let span = us.iter().cloned().fold(f32::MIN, f32::max)
            - us.iter().cloned().fold(f32::MAX, f32::min);
        assert!(span > 0.0, "taps spread along u");
    }

    #[test]
    fn aniso_first_tap_is_center() {
        let tex = flat(256, Rgba8::WHITE);
        let fp = Footprint::from_derivatives(
            Vec2::new(5.0 / 256.0, 0.0),
            Vec2::new(0.0, 1.0 / 256.0),
            256,
            256,
            16,
        );
        let rec = sample_anisotropic(&tex, center_uv(), &fp, AddressMode::Wrap);
        assert!((rec.taps[0].uv - center_uv()).length() < 1e-6);
    }

    #[test]
    fn aniso_uses_finer_lod_than_tf() {
        let tex = Texture::with_mips(procedural::checkerboard(256, 256, 2, 5), 0);
        let fp = Footprint::from_derivatives(
            Vec2::new(8.0 / 256.0, 0.0),
            Vec2::new(0.0, 1.0 / 256.0),
            256,
            256,
            16,
        );
        let af = sample_anisotropic(&tex, center_uv(), &fp, AddressMode::Wrap);
        assert!(
            af.lod < fp.tf_lod,
            "AF lod {} < TF lod {}",
            af.lod,
            fp.tf_lod
        );
    }

    #[test]
    fn aniso_on_flat_texture_matches_tf() {
        // On constant content AF and TF must agree exactly.
        let c = Rgba8::rgb(7, 77, 177);
        let tex = flat(128, c);
        let fp = Footprint::from_derivatives(
            Vec2::new(16.0 / 128.0, 0.0),
            Vec2::new(0.0, 1.0 / 128.0),
            128,
            128,
            16,
        );
        let af = sample_anisotropic(&tex, center_uv(), &fp, AddressMode::Wrap);
        let tf = sample_trilinear_record(&tex, center_uv(), fp.tf_lod, AddressMode::Wrap);
        assert_eq!(af.color, tf.color);
    }

    #[test]
    fn trilinear_into_matches_allocating_form() {
        let tex = Texture::with_mips(procedural::checkerboard(64, 64, 4, 9), 0);
        for lod in [0.0, 0.4, 1.5, 99.0, -2.0] {
            let tap = sample_trilinear(&tex, Vec2::new(0.31, 0.77), lod, AddressMode::Wrap);
            let mut flat = Vec::new();
            let (color, clamped) = sample_trilinear_into(
                &tex,
                Vec2::new(0.31, 0.77),
                lod,
                AddressMode::Wrap,
                &mut flat,
            );
            assert_eq!(color, tap.color);
            assert_eq!(clamped, tap.lod);
            assert_eq!(flat, tap.addresses);
        }
    }

    #[test]
    fn tap_offsets_into_matches_allocating_form() {
        for n_texels in [1.0f32, 2.0, 5.0, 16.0] {
            let fp = Footprint::from_derivatives(
                Vec2::new(n_texels / 256.0, 0.0),
                Vec2::new(0.0, 1.0 / 256.0),
                256,
                256,
                16,
            );
            let mut scratch = vec![9.0f32; 3];
            fp.tap_offsets_into(&mut scratch);
            assert_eq!(scratch, fp.tap_offsets());
        }
    }

    #[test]
    fn record_addresses_iterator_counts() {
        let tex = flat(64, Rgba8::WHITE);
        let rec = sample_trilinear_record(&tex, center_uv(), 0.5, AddressMode::Wrap);
        assert_eq!(rec.addresses().count(), 8);
        assert_eq!(rec.texel_fetches(), 8);
    }
}
