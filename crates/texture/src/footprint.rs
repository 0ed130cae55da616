//! Screen-space sampling footprints: the geometry behind TF vs. AF.
//!
//! When a pixel is inverse-mapped onto a texture (paper Fig. 9), its footprint
//! is an ellipse whose axes come from the screen-space UV derivatives. The
//! texture unit derives three things from the footprint:
//!
//! * the **anisotropy ratio** — major axis / minor axis — whose ceiling is the
//!   AF sample size `N` (clamped to the unit's max level, typically 16);
//! * the **TF LOD**, chosen from the *longest* axis so an isotropic (square)
//!   filter covers the whole footprint without aliasing — blurring it along
//!   the short axis;
//! * the **AF LOD**, chosen from the *minor* axis, which is finer. The gap
//!   between the two is the paper's "LOD shift" (Sec. V-C): naively demoting
//!   a pixel from AF to TF moves its texels to a blurrier mip level.

use crate::MAX_ANISO;
use patu_gmath::Vec2;

/// `TAP_OFFSETS[n][..n]` holds [`Footprint::tap_offsets`] for every
/// `n ≤ MAX_ANISO`: `(i + 0.5) / n − 0.5` for `i < n`, stably sorted by
/// magnitude — the same values in the same order as the runtime sort.
const TAP_OFFSETS: [[f32; MAX_ANISO as usize]; MAX_ANISO as usize + 1] = {
    let mut table = [[0.0f32; MAX_ANISO as usize]; MAX_ANISO as usize + 1];
    let mut n = 1;
    while n < table.len() {
        let row = &mut table[n];
        let mut i = 0;
        while i < n {
            row[i] = (i as f32 + 0.5) / n as f32 - 0.5;
            // Stable insertion sort: an entry only passes strictly larger
            // magnitudes, so equal magnitudes keep their index order.
            let mut j = i;
            while j > 0 && row[j - 1].abs() > row[j].abs() {
                let t = row[j - 1];
                row[j - 1] = row[j];
                row[j] = t;
                j -= 1;
            }
            i += 1;
        }
        n += 1;
    }
    table
};

/// The sampling footprint of one pixel in texture space, produced by the
/// *Texel Generation* stage (paper Fig. 2) from UV derivatives.
///
/// ```
/// use patu_texture::Footprint;
/// use patu_gmath::Vec2;
/// // Isotropic footprint: N = 1, both LODs equal.
/// let fp = Footprint::from_derivatives(
///     Vec2::new(1.0 / 256.0, 0.0),
///     Vec2::new(0.0, 1.0 / 256.0),
///     256,
///     256,
///     16,
/// );
/// assert_eq!(fp.n, 1);
/// assert!((fp.tf_lod - fp.af_lod).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Footprint {
    /// AF sample size: the number of trilinear taps AF takes along the major
    /// axis (`1 ≤ n ≤ max_aniso`). `n == 1` means the pixel is isotropic and
    /// plain trilinear filtering is exact.
    pub n: u32,
    /// Unclamped anisotropy ratio (major / minor axis length in texels).
    pub anisotropy: f32,
    /// LOD trilinear filtering would use (from the major axis — coarser).
    pub tf_lod: f32,
    /// LOD anisotropic filtering uses (from the minor axis — finer).
    pub af_lod: f32,
    /// Full major-axis extent in UV space; AF taps are distributed along it,
    /// centered on the sample point.
    pub major_axis_uv: Vec2,
    /// Major axis length in texel units.
    pub major_len: f32,
    /// Minor axis length in texel units.
    pub minor_len: f32,
}

impl Footprint {
    /// Derives the footprint from screen-space UV derivatives.
    ///
    /// `duv_dx` and `duv_dy` are the UV changes per one-pixel step along
    /// screen X and Y (as produced by quad differencing in the rasterizer);
    /// `tex_w`/`tex_h` convert them to texel units. `max_aniso` is the texture
    /// unit's maximum AF level ([`crate::MAX_ANISO`] for the paper's
    /// configuration).
    ///
    /// Degenerate derivatives (zero or non-finite) produce an isotropic
    /// footprint at LOD 0 rather than NaNs, mirroring hardware clamping.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `max_aniso == 0` or the texture dimensions
    /// are zero.
    pub fn from_derivatives(
        duv_dx: Vec2,
        duv_dy: Vec2,
        tex_w: u32,
        tex_h: u32,
        max_aniso: u32,
    ) -> Footprint {
        debug_assert!(max_aniso >= 1, "max_aniso must be at least 1");
        debug_assert!(tex_w > 0 && tex_h > 0);
        let scale = Vec2::new(tex_w as f32, tex_h as f32);
        let px = duv_dx * scale;
        let py = duv_dy * scale;
        let len_x = px.length();
        let len_y = py.length();

        if !len_x.is_finite() || !len_y.is_finite() {
            return Footprint::isotropic();
        }

        let (major, major_len, minor_len, major_duv) = if len_x >= len_y {
            (px, len_x, len_y, duv_dx)
        } else {
            (py, len_y, len_x, duv_dy)
        };
        let _ = major;

        // Hardware clamps the footprint to at least one texel on each axis so
        // magnified textures stay isotropic at LOD 0.
        let major_len = major_len.max(1.0);
        let minor_len = minor_len.max(1.0).min(major_len);

        let anisotropy = major_len / minor_len;
        let n = (anisotropy.ceil() as u32).clamp(1, max_aniso);

        // TF covers the footprint with a square sized by the major axis.
        let tf_lod = major_len.log2().max(0.0);
        // AF samples N times along the major axis; each tap covers
        // major_len / n texels, never finer than the minor axis.
        let af_per_tap = (major_len / n as f32).max(minor_len);
        let af_lod = af_per_tap.log2().max(0.0);

        Footprint {
            n,
            anisotropy,
            tf_lod,
            af_lod,
            major_axis_uv: major_duv,
            major_len,
            minor_len,
        }
    }

    /// The degenerate isotropic footprint (N = 1, LOD 0).
    pub fn isotropic() -> Footprint {
        Footprint {
            n: 1,
            anisotropy: 1.0,
            tf_lod: 0.0,
            af_lod: 0.0,
            major_axis_uv: Vec2::ZERO,
            major_len: 1.0,
            minor_len: 1.0,
        }
    }

    /// The LOD shift (in mip levels) a naive AF→TF demotion would introduce:
    /// `tf_lod - af_lod ≈ log2(N)`. PATU eliminates it by reusing the AF LOD
    /// (paper Sec. V-C(2)).
    pub fn lod_shift(&self) -> f32 {
        self.tf_lod - self.af_lod
    }

    /// The parametric offsets of AF's `n` trilinear taps along the major
    /// axis, in `[-0.5, 0.5]`, ordered center-outward so tap 0 is the
    /// center-most sample (the paper's `X_0`, which shares its center with
    /// the TF sample).
    pub fn tap_offsets(&self) -> Vec<f32> {
        let mut offsets = Vec::with_capacity(self.n as usize);
        self.tap_offsets_into(&mut offsets);
        offsets
    }

    /// Allocation-free form of [`Footprint::tap_offsets`]: clears `out` and
    /// fills it with the same offsets in the same center-outward order. The
    /// batched fragment path reuses one scratch vector across a whole batch
    /// instead of allocating per pixel.
    pub fn tap_offsets_into(&self, out: &mut Vec<f32>) {
        let n = self.n as usize;
        out.clear();
        if let Some(row) = TAP_OFFSETS.get(n) {
            out.extend_from_slice(&row[..n]);
            return;
        }
        // Only a unit configured beyond MAX_ANISO gets here.
        out.extend((0..n).map(|i| (i as f32 + 0.5) / n as f32 - 0.5));
        out.sort_by(|a, b| a.abs().total_cmp(&b.abs()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(du_texels_x: f32, dv_texels_y: f32, size: u32) -> Footprint {
        Footprint::from_derivatives(
            Vec2::new(du_texels_x / size as f32, 0.0),
            Vec2::new(0.0, dv_texels_y / size as f32),
            size,
            size,
            16,
        )
    }

    #[test]
    fn isotropic_unit_footprint() {
        let f = fp(1.0, 1.0, 256);
        assert_eq!(f.n, 1);
        assert_eq!(f.tf_lod, 0.0);
        assert_eq!(f.af_lod, 0.0);
        assert_eq!(f.lod_shift(), 0.0);
    }

    #[test]
    fn anisotropy_ratio_sets_n() {
        let f = fp(8.0, 1.0, 256);
        assert_eq!(f.n, 8);
        assert!((f.anisotropy - 8.0).abs() < 1e-5);
    }

    #[test]
    fn n_clamped_to_max_aniso() {
        let f = fp(64.0, 1.0, 1024);
        assert_eq!(f.n, 16);
        assert!(f.anisotropy > 16.0);
    }

    #[test]
    fn n_clamped_to_lower_max() {
        let f = Footprint::from_derivatives(
            Vec2::new(8.0 / 256.0, 0.0),
            Vec2::new(0.0, 1.0 / 256.0),
            256,
            256,
            4,
        );
        assert_eq!(f.n, 4);
    }

    #[test]
    fn tf_lod_from_major_axis() {
        let f = fp(8.0, 1.0, 256);
        assert!(
            (f.tf_lod - 3.0).abs() < 1e-5,
            "log2(8) = 3, got {}",
            f.tf_lod
        );
    }

    #[test]
    fn af_lod_from_minor_axis() {
        let f = fp(8.0, 1.0, 256);
        assert!(
            (f.af_lod - 0.0).abs() < 1e-5,
            "8 taps over 8 texels, got {}",
            f.af_lod
        );
        assert!((f.lod_shift() - 3.0).abs() < 1e-5);
    }

    #[test]
    fn af_lod_between_minor_and_major_when_clamped() {
        // 64:1 anisotropy clamped to 16 taps: each tap covers 4 texels -> lod 2.
        let f = fp(64.0, 1.0, 1024);
        assert!((f.af_lod - 2.0).abs() < 1e-5, "got {}", f.af_lod);
    }

    #[test]
    fn major_axis_follows_longer_derivative() {
        let f = Footprint::from_derivatives(
            Vec2::new(0.0, 8.0 / 256.0), // d/dx moves along v
            Vec2::new(1.0 / 256.0, 0.0),
            256,
            256,
            16,
        );
        assert_eq!(f.n, 8);
        assert!(f.major_axis_uv.y.abs() > f.major_axis_uv.x.abs());
    }

    #[test]
    fn magnification_clamps_to_isotropic() {
        // Derivatives much smaller than a texel: magnified texture.
        let f = fp(0.01, 0.001, 256);
        assert_eq!(f.n, 1);
        assert_eq!(f.tf_lod, 0.0);
    }

    #[test]
    fn degenerate_derivatives_are_isotropic() {
        let f = Footprint::from_derivatives(
            Vec2::new(f32::NAN, 0.0),
            Vec2::new(0.0, f32::INFINITY),
            64,
            64,
            16,
        );
        assert_eq!(f.n, 1);
    }

    #[test]
    fn tap_offsets_centered_and_bounded() {
        for n_texels in [1.0, 2.0, 3.0, 7.0, 16.0] {
            let f = fp(n_texels, 1.0, 256);
            let offs = f.tap_offsets();
            assert_eq!(offs.len(), f.n as usize);
            let sum: f32 = offs.iter().sum();
            assert!(sum.abs() < 1e-5, "offsets average to the pixel center");
            for &o in &offs {
                assert!((-0.5..=0.5).contains(&o));
            }
        }
    }

    #[test]
    fn tap_offsets_center_first() {
        let f = fp(5.0, 1.0, 256);
        let offs = f.tap_offsets();
        assert_eq!(offs[0], 0.0, "odd N has an exact center tap first");
        for w in offs.windows(2) {
            assert!(w[0].abs() <= w[1].abs() + 1e-6, "ordered center-outward");
        }
    }

    #[test]
    fn lod_shift_grows_with_anisotropy() {
        let mut last = -1.0;
        for a in [1.0f32, 2.0, 4.0, 8.0, 16.0] {
            let f = fp(a, 1.0, 1024);
            assert!(f.lod_shift() >= last);
            last = f.lod_shift();
        }
    }
}
