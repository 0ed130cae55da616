//! Fragments: the per-pixel output of rasterization.

use patu_gmath::Vec2;

/// Identifier of the 2×2 pixel quad a fragment belongs to.
///
/// Texture units process pixels in quads under SIMD (paper Sec. V-B); PATU's
/// per-pixel predictions may diverge within a quad (Sec. V-C(1)), which the
/// simulator tracks by grouping fragments on this key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QuadId {
    /// Quad column (`pixel_x / 2`).
    pub qx: u32,
    /// Quad row (`pixel_y / 2`).
    pub qy: u32,
}

impl QuadId {
    /// The quad containing pixel `(x, y)`.
    #[inline]
    pub const fn of_pixel(x: u32, y: u32) -> QuadId {
        QuadId {
            qx: x / 2,
            qy: y / 2,
        }
    }
}

/// A shaded-visible fragment: one pixel of one triangle that survived the
/// early depth test, carrying perspective-correct texture coordinates and
/// their analytic screen-space derivatives.
///
/// The derivative pair (`duv_dx`, `duv_dy`) is exactly what the *Texel
/// Generation* stage needs to build the sampling footprint (anisotropy `N`
/// and LODs) — see `patu_texture::Footprint::from_derivatives`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fragment {
    /// Pixel column.
    pub x: u32,
    /// Pixel row.
    pub y: u32,
    /// Perspective-correct texture coordinates.
    pub uv: Vec2,
    /// UV change per one-pixel step along screen X.
    pub duv_dx: Vec2,
    /// UV change per one-pixel step along screen Y.
    pub duv_dy: Vec2,
    /// Material slot of the owning mesh.
    pub material: usize,
    /// Sequential id of the source triangle within the frame (post-clipping).
    pub primitive: u32,
}

impl Fragment {
    /// The quad this fragment belongs to.
    #[inline]
    pub fn quad(&self) -> QuadId {
        QuadId::of_pixel(self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_id_groups_2x2() {
        assert_eq!(QuadId::of_pixel(0, 0), QuadId::of_pixel(1, 1));
        assert_eq!(QuadId::of_pixel(2, 0), QuadId { qx: 1, qy: 0 });
        assert_ne!(QuadId::of_pixel(1, 1), QuadId::of_pixel(2, 1));
    }

    #[test]
    fn fragment_quad_accessor() {
        let f = Fragment {
            x: 5,
            y: 9,
            uv: Vec2::ZERO,
            duv_dx: Vec2::ZERO,
            duv_dy: Vec2::ZERO,
            material: 0,
            primitive: 0,
        };
        assert_eq!(f.quad(), QuadId { qx: 2, qy: 4 });
    }
}
