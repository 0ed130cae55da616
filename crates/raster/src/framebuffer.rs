//! The color render target.

use patu_texture::Rgba8;
use std::io::{self, Write};

/// An RGBA8 color buffer.
///
/// ```
/// use patu_raster::Framebuffer;
/// use patu_texture::Rgba8;
/// let mut fb = Framebuffer::new(4, 4, Rgba8::BLACK);
/// fb.put(1, 2, Rgba8::WHITE);
/// assert_eq!(fb.get(1, 2), Rgba8::WHITE);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framebuffer {
    width: u32,
    height: u32,
    pixels: Vec<Rgba8>,
}

impl Framebuffer {
    /// Creates a buffer cleared to `clear_color`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32, clear_color: Rgba8) -> Framebuffer {
        assert!(width > 0 && height > 0, "framebuffer must be non-empty");
        Framebuffer {
            width,
            height,
            pixels: vec![clear_color; (width as usize) * (height as usize)],
        }
    }

    /// Buffer width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Buffer height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Rgba8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[(y as usize) * (self.width as usize) + x as usize]
    }

    /// Writes pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn put(&mut self, x: u32, y: u32, c: Rgba8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[(y as usize) * (self.width as usize) + x as usize] = c;
    }

    /// All pixels in row-major order.
    pub fn pixels(&self) -> &[Rgba8] {
        &self.pixels
    }

    /// Copies the axis-aligned rectangle `[x0, x0+w) × [y0, y0+h)` from
    /// `src`, which must have the same dimensions. This is the parallel
    /// renderer's tile stitch: each worker renders its disjoint tiles into a
    /// private buffer and the merged frame copies the rects back row by row.
    ///
    /// # Panics
    ///
    /// Panics if the buffers differ in size or the rectangle is out of
    /// bounds.
    pub fn copy_rect_from(&mut self, src: &Framebuffer, x0: u32, y0: u32, w: u32, h: u32) {
        assert_eq!(self.width, src.width, "framebuffer widths differ");
        assert_eq!(self.height, src.height, "framebuffer heights differ");
        for row in self.rect_rows(x0, y0, w, h, (w as usize) * (h as usize)) {
            self.pixels[row.clone()].copy_from_slice(&src.pixels[row]);
        }
    }

    /// Copies the rectangle `[x0, x0+w) × [y0, y0+h)` out to `dst`, row by
    /// row, `w` pixels per row.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is out of bounds or `dst` does not hold
    /// exactly `w × h` pixels.
    pub fn read_rect(&self, x0: u32, y0: u32, w: u32, h: u32, dst: &mut [Rgba8]) {
        let rows = self.rect_rows(x0, y0, w, h, dst.len());
        for (row, out) in rows.zip(dst.chunks_exact_mut(w.max(1) as usize)) {
            out.copy_from_slice(&self.pixels[row]);
        }
    }

    /// Writes `src`, `w` pixels per row, to the rectangle
    /// `[x0, x0+w) × [y0, y0+h)` — the parallel renderer's tile stitch:
    /// each cluster renders its disjoint tiles into a private block buffer
    /// and the merged frame copies them back row by row.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is out of bounds or `src` does not hold
    /// exactly `w × h` pixels.
    pub fn write_rect(&mut self, x0: u32, y0: u32, w: u32, h: u32, src: &[Rgba8]) {
        let rows = self.rect_rows(x0, y0, w, h, src.len());
        for (row, data) in rows.zip(src.chunks_exact(w.max(1) as usize)) {
            self.pixels[row].copy_from_slice(data);
        }
    }

    /// The pixel-index range of each row of a rect, checked against the
    /// buffer and against a `len`-pixel block.
    fn rect_rows(
        &self,
        x0: u32,
        y0: u32,
        w: u32,
        h: u32,
        len: usize,
    ) -> impl Iterator<Item = std::ops::Range<usize>> {
        assert!(
            x0.checked_add(w).is_some_and(|x1| x1 <= self.width)
                && y0.checked_add(h).is_some_and(|y1| y1 <= self.height),
            "rect out of bounds"
        );
        assert_eq!(len, (w as usize) * (h as usize), "block size differs");
        let width = self.width as usize;
        (y0..y0 + h).map(move |y| {
            let row = (y as usize) * width + x0 as usize;
            row..row + w as usize
        })
    }

    /// Per-pixel Rec. 601 luma plane, the input to SSIM.
    pub fn luma_plane(&self) -> Vec<f32> {
        self.pixels.iter().map(|p| p.luma()).collect()
    }

    /// Serializes as binary PPM (P6) for eyeballing frames.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_ppm<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "P6\n{} {}\n255", self.width, self.height)?;
        for p in &self.pixels {
            w.write_all(&[p.r, p.g, p.b])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framebuffer_clear_and_put() {
        let mut fb = Framebuffer::new(3, 2, Rgba8::BLACK);
        assert_eq!(fb.get(2, 1), Rgba8::BLACK);
        fb.put(2, 1, Rgba8::WHITE);
        assert_eq!(fb.get(2, 1), Rgba8::WHITE);
        assert_eq!(fb.pixels().len(), 6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn framebuffer_oob_panics() {
        let fb = Framebuffer::new(2, 2, Rgba8::BLACK);
        let _ = fb.get(2, 0);
    }

    #[test]
    fn copy_rect_stitches_disjoint_regions() {
        let mut merged = Framebuffer::new(4, 4, Rgba8::BLACK);
        let mut left = Framebuffer::new(4, 4, Rgba8::BLACK);
        let mut right = Framebuffer::new(4, 4, Rgba8::BLACK);
        left.put(0, 1, Rgba8::WHITE);
        right.put(3, 2, Rgba8::rgb(9, 9, 9));
        right.put(0, 0, Rgba8::rgb(1, 1, 1)); // outside its rect: must not leak
        merged.copy_rect_from(&left, 0, 0, 2, 4);
        merged.copy_rect_from(&right, 2, 0, 2, 4);
        assert_eq!(merged.get(0, 1), Rgba8::WHITE);
        assert_eq!(merged.get(3, 2), Rgba8::rgb(9, 9, 9));
        assert_eq!(merged.get(0, 0), Rgba8::BLACK, "out-of-rect pixels ignored");
    }

    #[test]
    #[should_panic(expected = "rect out of bounds")]
    fn copy_rect_rejects_oob() {
        let mut a = Framebuffer::new(4, 4, Rgba8::BLACK);
        let b = Framebuffer::new(4, 4, Rgba8::BLACK);
        a.copy_rect_from(&b, 2, 0, 3, 1);
    }

    #[test]
    fn rect_blocks_round_trip() {
        let mut fb = Framebuffer::new(5, 4, Rgba8::BLACK);
        let block: Vec<Rgba8> = (0..6).map(|i| Rgba8::rgb(i, i, i)).collect();
        fb.write_rect(2, 1, 3, 2, &block);
        assert_eq!(fb.get(2, 1), Rgba8::rgb(0, 0, 0));
        assert_eq!(fb.get(4, 1), Rgba8::rgb(2, 2, 2));
        assert_eq!(fb.get(2, 2), Rgba8::rgb(3, 3, 3));
        assert_eq!(fb.get(1, 1), Rgba8::BLACK, "outside the rect untouched");
        let mut back = vec![Rgba8::WHITE; 6];
        fb.read_rect(2, 1, 3, 2, &mut back);
        assert_eq!(back, block);
    }

    #[test]
    #[should_panic(expected = "block size differs")]
    fn write_rect_rejects_a_short_block() {
        let mut fb = Framebuffer::new(4, 4, Rgba8::BLACK);
        fb.write_rect(0, 0, 2, 2, &[Rgba8::WHITE; 3]);
    }

    #[test]
    fn luma_plane_matches_pixels() {
        let mut fb = Framebuffer::new(2, 1, Rgba8::BLACK);
        fb.put(1, 0, Rgba8::WHITE);
        let luma = fb.luma_plane();
        assert_eq!(luma[0], 0.0);
        assert!(luma[1] > 254.0);
    }

    #[test]
    fn ppm_header_and_length() {
        let fb = Framebuffer::new(4, 2, Rgba8::rgb(1, 2, 3));
        let mut buf = Vec::new();
        fb.write_ppm(&mut buf).unwrap();
        assert!(buf.starts_with(b"P6\n4 2\n255\n"));
        assert_eq!(buf.len(), b"P6\n4 2\n255\n".len() + 4 * 2 * 3);
    }
}
