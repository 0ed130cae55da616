//! Texel color values and texel memory addresses.

use std::fmt;

/// `TO_F32[v] == v as f32 / 255.0` for every channel value: the conversion
/// [`Rgba8::to_f32`] performs, as a lookup instead of a division.
const TO_F32: [f32; 256] = {
    let mut table = [0.0f32; 256];
    let mut v = 0;
    while v < 256 {
        table[v] = v as f32 / 255.0;
        v += 1;
    }
    table
};

/// An 8-bit-per-channel RGBA texel, the storage format of every texture in
/// the simulator (matching the four-component color the paper's texture unit
/// returns to the shaders).
///
/// ```
/// use patu_texture::Rgba8;
/// let c = Rgba8::new(255, 128, 0, 255);
/// assert_eq!(c.luma(), Rgba8::new(255, 128, 0, 255).luma());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rgba8 {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
    /// Alpha channel.
    pub a: u8,
}

impl Rgba8 {
    /// Opaque black.
    pub const BLACK: Rgba8 = Rgba8 {
        r: 0,
        g: 0,
        b: 0,
        a: 255,
    };
    /// Opaque white.
    pub const WHITE: Rgba8 = Rgba8 {
        r: 255,
        g: 255,
        b: 255,
        a: 255,
    };
    /// Fully transparent black.
    pub const TRANSPARENT: Rgba8 = Rgba8 {
        r: 0,
        g: 0,
        b: 0,
        a: 0,
    };

    /// Creates a texel from channel values.
    #[inline]
    pub const fn new(r: u8, g: u8, b: u8, a: u8) -> Rgba8 {
        Rgba8 { r, g, b, a }
    }

    /// Creates an opaque gray texel.
    #[inline]
    pub const fn gray(v: u8) -> Rgba8 {
        Rgba8 {
            r: v,
            g: v,
            b: v,
            a: 255,
        }
    }

    /// Creates an opaque texel from RGB.
    #[inline]
    pub const fn rgb(r: u8, g: u8, b: u8) -> Rgba8 {
        Rgba8 { r, g, b, a: 255 }
    }

    /// Converts to floating-point channels in `[0, 1]` (`v / 255` each).
    #[inline]
    pub fn to_f32(self) -> [f32; 4] {
        [
            TO_F32[usize::from(self.r)],
            TO_F32[usize::from(self.g)],
            TO_F32[usize::from(self.b)],
            TO_F32[usize::from(self.a)],
        ]
    }

    /// Builds a texel from floating-point channels, clamping into `[0, 1]`.
    #[inline]
    pub fn from_f32(c: [f32; 4]) -> Rgba8 {
        let q = |v: f32| (v.clamp(0.0, 1.0) * 255.0 + 0.5) as u8;
        Rgba8::new(q(c[0]), q(c[1]), q(c[2]), q(c[3]))
    }

    /// Rec. 601 luma in `[0, 255]` as `f32`; the grayscale channel SSIM is
    /// computed on.
    #[inline]
    pub fn luma(self) -> f32 {
        0.299 * f32::from(self.r) + 0.587 * f32::from(self.g) + 0.114 * f32::from(self.b)
    }

    /// Component-wise weighted blend of many texels. Weights need not sum to
    /// one; the result is the plain weighted sum, clamped on conversion.
    pub fn weighted_sum(texels: &[(Rgba8, f32)]) -> Rgba8 {
        Rgba8::accumulate(texels.iter().copied())
    }

    /// The weighted sum behind [`Rgba8::weighted_sum`] and
    /// [`Rgba8::average`], accumulated in iteration order.
    #[inline]
    fn accumulate(texels: impl IntoIterator<Item = (Rgba8, f32)>) -> Rgba8 {
        let mut acc = [0.0f32; 4];
        for (t, w) in texels {
            let c = t.to_f32();
            for (a, v) in acc.iter_mut().zip(c) {
                *a += v * w;
            }
        }
        Rgba8::from_f32(acc)
    }

    /// Averages a non-empty slice of texels.
    ///
    /// # Panics
    ///
    /// Panics if `texels` is empty.
    pub fn average(texels: &[Rgba8]) -> Rgba8 {
        assert!(!texels.is_empty(), "cannot average zero texels");
        let w = 1.0 / texels.len() as f32;
        Rgba8::accumulate(texels.iter().map(|&t| (t, w)))
    }
}

impl fmt::Display for Rgba8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:02x}{:02x}{:02x}{:02x}",
            self.r, self.g, self.b, self.a
        )
    }
}

impl From<[u8; 4]> for Rgba8 {
    #[inline]
    fn from(c: [u8; 4]) -> Rgba8 {
        Rgba8::new(c[0], c[1], c[2], c[3])
    }
}

impl From<Rgba8> for [u8; 4] {
    #[inline]
    fn from(c: Rgba8) -> [u8; 4] {
        [c.r, c.g, c.b, c.a]
    }
}

/// Byte address of a texel in the simulated GPU memory space.
///
/// Each texture is allocated a contiguous region (base address + mip chain,
/// 4 bytes per texel); the address is what the *Texel Address Calculator*
/// stage of the texture unit produces and what the texture caches, the DRAM
/// model, and PATU's texel-address hash table operate on.
///
/// ```
/// use patu_texture::TexelAddress;
/// let a = TexelAddress::new(0x1000);
/// assert_eq!(a.cache_line(64), 0x1000 / 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TexelAddress(pub u64);

impl TexelAddress {
    /// Wraps a raw byte address.
    #[inline]
    pub const fn new(addr: u64) -> TexelAddress {
        TexelAddress(addr)
    }

    /// Raw byte address.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Index of the cache line containing this address.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `line_size` is zero.
    #[inline]
    pub fn cache_line(self, line_size: u64) -> u64 {
        debug_assert!(line_size > 0);
        self.0 / line_size
    }
}

impl fmt::Display for TexelAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::LowerHex for TexelAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_from_f32_roundtrip() {
        for v in [0u8, 1, 127, 128, 254, 255] {
            let c = Rgba8::new(v, v, v, v);
            assert_eq!(Rgba8::from_f32(c.to_f32()), c);
        }
    }

    #[test]
    fn from_f32_clamps() {
        let c = Rgba8::from_f32([2.0, -1.0, 0.5, 1.0]);
        assert_eq!(c.r, 255);
        assert_eq!(c.g, 0);
        assert_eq!(c.a, 255);
    }

    #[test]
    fn luma_black_white() {
        assert_eq!(Rgba8::BLACK.luma(), 0.0);
        assert!((Rgba8::WHITE.luma() - 255.0).abs() < 0.5);
    }

    #[test]
    fn luma_green_heaviest() {
        let r = Rgba8::rgb(255, 0, 0).luma();
        let g = Rgba8::rgb(0, 255, 0).luma();
        let b = Rgba8::rgb(0, 0, 255).luma();
        assert!(g > r && r > b);
    }

    #[test]
    fn average_of_identical_is_identity() {
        let c = Rgba8::rgb(10, 20, 30);
        assert_eq!(Rgba8::average(&[c, c, c, c]), c);
    }

    #[test]
    fn average_of_black_white_is_mid_gray() {
        let avg = Rgba8::average(&[Rgba8::BLACK, Rgba8::WHITE]);
        assert!(avg.r == 127 || avg.r == 128, "got {}", avg.r);
    }

    #[test]
    #[should_panic(expected = "cannot average zero texels")]
    fn average_empty_panics() {
        let _ = Rgba8::average(&[]);
    }

    #[test]
    fn weighted_sum_weights() {
        let c = Rgba8::weighted_sum(&[(Rgba8::WHITE, 0.25), (Rgba8::BLACK, 0.75)]);
        assert!((i32::from(c.r) - 64).abs() <= 1);
    }

    #[test]
    fn address_cache_line() {
        assert_eq!(TexelAddress::new(0).cache_line(64), 0);
        assert_eq!(TexelAddress::new(63).cache_line(64), 0);
        assert_eq!(TexelAddress::new(64).cache_line(64), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Rgba8::rgb(255, 0, 16)), "#ff0010ff");
        assert_eq!(format!("{}", TexelAddress::new(0x40)), "0x40");
    }

    #[test]
    fn array_conversions() {
        let c = Rgba8::from([1, 2, 3, 4]);
        let back: [u8; 4] = c.into();
        assert_eq!(back, [1, 2, 3, 4]);
    }
}
