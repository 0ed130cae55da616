//! Mipmapped RGBA8 textures with GPU-style memory layout.

use crate::texel::{Rgba8, TexelAddress};

/// How texture coordinates outside `[0, 1)` are folded back into the texture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressMode {
    /// Repeat the texture (`GL_REPEAT`), the common case for game surfaces.
    #[default]
    Wrap,
    /// Clamp to the edge texel (`GL_CLAMP_TO_EDGE`).
    Clamp,
    /// Mirror on every repeat (`GL_MIRRORED_REPEAT`).
    Mirror,
}

impl AddressMode {
    /// Folds an integer texel coordinate into `[0, size)`. Every mode maps
    /// an in-range coordinate to itself, so only out-of-range ones pay for
    /// the fold.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `size` is zero.
    #[inline]
    pub fn apply(self, coord: i64, size: u32) -> u32 {
        debug_assert!(size > 0);
        let size = i64::from(size);
        if (0..size).contains(&coord) {
            return coord as u32;
        }
        let folded = match self {
            AddressMode::Wrap => coord.rem_euclid(size),
            AddressMode::Clamp => coord.clamp(0, size - 1),
            AddressMode::Mirror => {
                let period = 2 * size;
                let m = coord.rem_euclid(period);
                if m < size {
                    m
                } else {
                    period - 1 - m
                }
            }
        };
        folded as u32
    }
}

/// One level of a texture's mip chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MipLevel {
    width: u32,
    height: u32,
    /// Byte offset of this level from the texture base address.
    offset: u64,
    data: Vec<Rgba8>,
}

impl MipLevel {
    /// Level width in texels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Level height in texels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Texel at integer coordinates (no address folding).
    ///
    /// # Panics
    ///
    /// Panics if `x >= width` or `y >= height`.
    #[inline]
    pub fn texel(&self, x: u32, y: u32) -> Rgba8 {
        assert!(x < self.width && y < self.height, "texel out of bounds");
        self.data[(y as usize) * (self.width as usize) + x as usize]
    }

    /// Raw texel slice in row-major order.
    pub fn texels(&self) -> &[Rgba8] {
        &self.data
    }
}

/// An RGBA8 texture with a full box-filtered mip chain and a simulated GPU
/// memory placement.
///
/// The texture occupies a contiguous byte range starting at `base_address`;
/// each mip level is laid out row-major, 4 bytes per texel, levels packed
/// back-to-back. [`Texture::texel_address`] reproduces what the hardware
/// *Texel Address Calculator* stage computes, which is what the cache
/// simulator and the PATU hash table consume.
///
/// ```
/// use patu_texture::{procedural, Texture};
/// let tex = Texture::with_mips(procedural::checkerboard(64, 64, 8, 1), 0);
/// assert_eq!(tex.mip_count(), 7); // 64,32,16,8,4,2,1
/// assert_eq!(tex.level(6).width(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Texture {
    levels: Vec<MipLevel>,
    base_address: u64,
    footprint_bytes: u64,
}

/// Bytes per stored texel in the simulated memory space. Game textures are
/// block-compressed (DXT/ASTC class), so the architectural cost of a texel
/// is ~2 bytes even though the functional value decodes to RGBA8.
pub const BYTES_PER_TEXEL: u64 = 2;

impl Texture {
    /// Builds a texture from a base image, generating the entire mip chain by
    /// 2×2 box filtering, and places it at `base_address` in the simulated
    /// memory space.
    ///
    /// # Panics
    ///
    /// Panics if the image is empty or if `width * height` does not match the
    /// data length. Non-power-of-two sizes are allowed; odd dimensions round
    /// down (floor) per level like GPUs do.
    pub fn with_mips(base: (u32, u32, Vec<Rgba8>), base_address: u64) -> Texture {
        let (width, height, data) = base;
        assert!(width > 0 && height > 0, "texture must be non-empty");
        assert_eq!(
            data.len(),
            (width as usize) * (height as usize),
            "texel data length must equal width * height"
        );

        let mut levels = Vec::new();
        let mut offset = 0u64;
        levels.push(MipLevel {
            width,
            height,
            offset,
            data,
        });
        offset += u64::from(width) * u64::from(height) * BYTES_PER_TEXEL;

        while let Some(prev) = levels.last().filter(|l| l.width > 1 || l.height > 1) {
            let nw = (prev.width / 2).max(1);
            let nh = (prev.height / 2).max(1);
            let mut data = Vec::with_capacity((nw as usize) * (nh as usize));
            for y in 0..nh {
                for x in 0..nw {
                    // 2x2 box filter; clamp when the previous level is 1 wide/tall.
                    let x0 = (2 * x).min(prev.width - 1);
                    let x1 = (2 * x + 1).min(prev.width - 1);
                    let y0 = (2 * y).min(prev.height - 1);
                    let y1 = (2 * y + 1).min(prev.height - 1);
                    data.push(Rgba8::average(&[
                        prev.texel(x0, y0),
                        prev.texel(x1, y0),
                        prev.texel(x0, y1),
                        prev.texel(x1, y1),
                    ]));
                }
            }
            levels.push(MipLevel {
                width: nw,
                height: nh,
                offset,
                data,
            });
            offset += u64::from(nw) * u64::from(nh) * BYTES_PER_TEXEL;
        }

        Texture {
            levels,
            base_address,
            footprint_bytes: offset,
        }
    }

    /// Builds a single-level texture (no mip chain) — useful in tests.
    pub fn single_level(base: (u32, u32, Vec<Rgba8>), base_address: u64) -> Texture {
        let (width, height, data) = base;
        assert!(width > 0 && height > 0, "texture must be non-empty");
        assert_eq!(data.len(), (width as usize) * (height as usize));
        let footprint_bytes = u64::from(width) * u64::from(height) * BYTES_PER_TEXEL;
        Texture {
            levels: vec![MipLevel {
                width,
                height,
                offset: 0,
                data,
            }],
            base_address,
            footprint_bytes,
        }
    }

    /// Width of the base level.
    pub fn width(&self) -> u32 {
        self.levels[0].width
    }

    /// Height of the base level.
    pub fn height(&self) -> u32 {
        self.levels[0].height
    }

    /// Number of mip levels (1 for a single-level texture).
    pub fn mip_count(&self) -> u32 {
        self.levels.len() as u32
    }

    /// Base byte address of the texture in simulated memory.
    pub fn base_address(&self) -> u64 {
        self.base_address
    }

    /// Total bytes occupied by all levels; the next texture can be placed at
    /// `base_address + size_bytes`.
    pub fn size_bytes(&self) -> u64 {
        self.footprint_bytes
    }

    /// Accesses a mip level, clamping `level` to the last one like hardware.
    pub fn level(&self, level: u32) -> &MipLevel {
        let idx = (level as usize).min(self.levels.len() - 1);
        &self.levels[idx]
    }

    /// Clamps a fractional LOD into the valid `[0, mip_count - 1]` range.
    pub fn clamp_lod(&self, lod: f32) -> f32 {
        lod.clamp(0.0, (self.mip_count() - 1) as f32)
    }

    /// Texel value at integer coordinates with address-mode folding.
    pub fn texel(&self, level: u32, x: i64, y: i64, mode: AddressMode) -> Rgba8 {
        let lvl = self.level(level);
        let tx = mode.apply(x, lvl.width);
        let ty = mode.apply(y, lvl.height);
        lvl.texel(tx, ty)
    }

    /// The simulated memory address of a texel — what the hardware texel
    /// address ALU produces (Sec. II-B / Fig. 2 of the paper).
    pub fn texel_address(&self, level: u32, x: i64, y: i64, mode: AddressMode) -> TexelAddress {
        let lvl = self.level(level);
        self.folded_address(lvl, mode.apply(x, lvl.width), mode.apply(y, lvl.height))
    }

    /// The address of texel `(tx, ty)` of `lvl`, a level of this texture,
    /// whose coordinates are already folded into range.
    #[inline]
    pub(crate) fn folded_address(&self, lvl: &MipLevel, tx: u32, ty: u32) -> TexelAddress {
        let (tx, ty) = (u64::from(tx), u64::from(ty));
        TexelAddress::new(
            self.base_address + lvl.offset + (ty * u64::from(lvl.width) + tx) * BYTES_PER_TEXEL,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(width: u32, height: u32, c: Rgba8) -> (u32, u32, Vec<Rgba8>) {
        (width, height, vec![c; (width * height) as usize])
    }

    #[test]
    fn address_mode_wrap() {
        assert_eq!(AddressMode::Wrap.apply(-1, 4), 3);
        assert_eq!(AddressMode::Wrap.apply(4, 4), 0);
        assert_eq!(AddressMode::Wrap.apply(9, 4), 1);
    }

    #[test]
    fn address_mode_clamp() {
        assert_eq!(AddressMode::Clamp.apply(-5, 4), 0);
        assert_eq!(AddressMode::Clamp.apply(2, 4), 2);
        assert_eq!(AddressMode::Clamp.apply(99, 4), 3);
    }

    #[test]
    fn address_mode_mirror() {
        // size 4: pattern 0123 3210 0123 ...
        assert_eq!(AddressMode::Mirror.apply(3, 4), 3);
        assert_eq!(AddressMode::Mirror.apply(4, 4), 3);
        assert_eq!(AddressMode::Mirror.apply(7, 4), 0);
        assert_eq!(AddressMode::Mirror.apply(8, 4), 0);
        assert_eq!(AddressMode::Mirror.apply(-1, 4), 0);
    }

    #[test]
    fn mip_chain_count_square() {
        let t = Texture::with_mips(flat(64, 64, Rgba8::WHITE), 0);
        assert_eq!(t.mip_count(), 7);
        assert_eq!(t.level(6).width(), 1);
        assert_eq!(t.level(6).height(), 1);
    }

    #[test]
    fn mip_chain_count_rectangular() {
        let t = Texture::with_mips(flat(64, 16, Rgba8::WHITE), 0);
        // 64x16 -> 32x8 -> 16x4 -> 8x2 -> 4x1 -> 2x1 -> 1x1
        assert_eq!(t.mip_count(), 7);
        assert_eq!(t.level(4).width(), 4);
        assert_eq!(t.level(4).height(), 1);
    }

    #[test]
    fn mip_of_flat_color_stays_flat() {
        let c = Rgba8::rgb(40, 80, 120);
        let t = Texture::with_mips(flat(32, 32, c), 0);
        for lvl in 0..t.mip_count() {
            assert_eq!(t.texel(lvl, 0, 0, AddressMode::Clamp), c, "level {lvl}");
        }
    }

    #[test]
    fn mip_of_checker_converges_to_gray() {
        let t = Texture::with_mips(crate::procedural::checkerboard(64, 64, 1, 7), 0);
        let top = t.texel(t.mip_count() - 1, 0, 0, AddressMode::Clamp);
        // A 1-texel checker of two tones averages near the midpoint.
        let expected = (t.level(0).texel(0, 0).luma() + t.level(0).texel(1, 0).luma()) / 2.0;
        assert!(
            (top.luma() - expected).abs() < 16.0,
            "{} vs {}",
            top.luma(),
            expected
        );
    }

    #[test]
    fn level_clamps_beyond_chain() {
        let t = Texture::with_mips(flat(8, 8, Rgba8::WHITE), 0);
        assert_eq!(t.level(99).width(), 1);
    }

    #[test]
    fn texel_addresses_unique_within_level() {
        let t = Texture::with_mips(flat(8, 8, Rgba8::WHITE), 0x1000);
        let mut seen = std::collections::HashSet::new();
        for y in 0..8 {
            for x in 0..8 {
                assert!(seen.insert(t.texel_address(0, x, y, AddressMode::Clamp)));
            }
        }
    }

    #[test]
    fn texel_addresses_disjoint_across_levels() {
        let t = Texture::with_mips(flat(8, 8, Rgba8::WHITE), 0);
        let a0 = t.texel_address(0, 0, 0, AddressMode::Clamp);
        let a1 = t.texel_address(1, 0, 0, AddressMode::Clamp);
        assert_eq!(a1.as_u64() - a0.as_u64(), 8 * 8 * BYTES_PER_TEXEL);
    }

    #[test]
    fn texel_address_includes_base() {
        let t = Texture::with_mips(flat(4, 4, Rgba8::WHITE), 0xABC0);
        assert_eq!(
            t.texel_address(0, 0, 0, AddressMode::Clamp).as_u64(),
            0xABC0
        );
        assert_eq!(
            t.texel_address(0, 1, 0, AddressMode::Clamp).as_u64(),
            0xABC0 + BYTES_PER_TEXEL
        );
    }

    #[test]
    fn size_bytes_sums_levels() {
        let t = Texture::with_mips(flat(4, 4, Rgba8::WHITE), 0);
        // 16 + 4 + 1 texels = 21 texel-bytes (compressed)
        assert_eq!(t.size_bytes(), 21 * BYTES_PER_TEXEL);
    }

    #[test]
    fn single_level_has_no_mips() {
        let t = Texture::single_level(flat(16, 16, Rgba8::WHITE), 0);
        assert_eq!(t.mip_count(), 1);
        assert_eq!(t.clamp_lod(5.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "width * height")]
    fn mismatched_data_length_panics() {
        let _ = Texture::with_mips((4, 4, vec![Rgba8::WHITE; 3]), 0);
    }
}
