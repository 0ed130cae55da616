//! Perceptual debug artifacts: PPM heatmaps.
//!
//! Telemetry-aware harnesses given a dump directory (`paper trace_smoke`
//! with `PATU_OBS_DUMP=<dir>`) write per-frame SSIM-error heatmaps and
//! demotion-decision maps into it as binary PPMs for eyeballing where
//! approximation error concentrates. This module owns the deterministic
//! color ramp and image plumbing; the harnesses own the data.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Maps an intensity in `[0, 1000]` (fixed-point ×1000) onto a cold→hot
/// ramp: deep blue → cyan → green → yellow → red. Pure integer math, so
/// dumps are byte-identical everywhere.
pub fn heat_color(t_x1000: u64) -> [u8; 3] {
    let t = t_x1000.min(1000);
    let f = ((t % 250) * 255 / 250) as u8;
    match t / 250 {
        0 => [0, f, 255],
        1 => [0, 255, 255 - f],
        2 => [f, 255, 0],
        3 => [255, 255 - f, 0],
        _ => [255, 0, 0],
    }
}

/// Writes a binary PPM (`P6`). `pixels` is row-major, `width * height`
/// entries; the parent directory is created if missing.
pub fn write_ppm(path: &Path, width: usize, height: usize, pixels: &[[u8; 3]]) -> io::Result<()> {
    if pixels.len() != width * height {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "pixel buffer does not match dimensions",
        ));
    }
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut out = Vec::with_capacity(20 + pixels.len() * 3);
    out.extend_from_slice(format!("P6\n{width} {height}\n255\n").as_bytes());
    for px in pixels {
        out.extend_from_slice(px);
    }
    let mut file = fs::File::create(path)?;
    file.write_all(&out)
}

/// A tile-resolution image: one `cell × cell` pixel block per tile, for
/// demotion-decision maps and other per-tile overlays.
#[derive(Debug, Clone)]
pub struct TileGrid {
    tiles_x: usize,
    tiles_y: usize,
    cell: usize,
    pixels: Vec<[u8; 3]>,
}

impl TileGrid {
    /// A black grid of `tiles_x × tiles_y` tiles rendered at `cell` pixels
    /// per tile edge (clamped to at least 1).
    pub fn new(tiles_x: usize, tiles_y: usize, cell: usize) -> TileGrid {
        let cell = cell.max(1);
        TileGrid {
            tiles_x,
            tiles_y,
            cell,
            pixels: vec![[0, 0, 0]; tiles_x * cell * tiles_y * cell],
        }
    }

    /// Paints the whole block of tile `(tx, ty)`; out-of-range tiles are
    /// ignored.
    pub fn paint(&mut self, tx: usize, ty: usize, color: [u8; 3]) {
        if tx >= self.tiles_x || ty >= self.tiles_y {
            return;
        }
        let width = self.tiles_x * self.cell;
        for dy in 0..self.cell {
            let row = (ty * self.cell + dy) * width + tx * self.cell;
            for dx in 0..self.cell {
                self.pixels[row + dx] = color;
            }
        }
    }

    /// Writes the grid as a PPM.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        write_ppm(
            path,
            self.tiles_x * self.cell,
            self.tiles_y * self.cell,
            &self.pixels,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heat_ramp_endpoints_and_monotone_red() {
        assert_eq!(heat_color(0), [0, 0, 255]);
        assert_eq!(heat_color(1000), [255, 0, 0]);
        assert_eq!(heat_color(2000), [255, 0, 0], "clamps above 1000");
        // Red channel never decreases along the ramp.
        let mut last_red = 0u8;
        for t in (0..=1000).step_by(50) {
            let [r, _, _] = heat_color(t);
            assert!(r >= last_red, "red regressed at t={t}");
            last_red = r;
        }
    }

    #[test]
    fn ppm_writes_header_and_payload() {
        let dir = std::env::temp_dir().join("patu-obs-dump-test");
        let path = dir.join("t.ppm");
        let pixels = vec![[1, 2, 3], [4, 5, 6]];
        write_ppm(&path, 2, 1, &pixels).unwrap();
        let bytes = fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P6\n2 1\n255\n"));
        assert!(bytes.ends_with(&[1, 2, 3, 4, 5, 6]));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn ppm_rejects_mismatched_dimensions() {
        let path = std::env::temp_dir().join("patu-obs-dump-bad.ppm");
        assert!(write_ppm(&path, 3, 3, &[[0, 0, 0]]).is_err());
    }

    #[test]
    fn tile_grid_paints_blocks() {
        let mut grid = TileGrid::new(2, 2, 2);
        grid.paint(1, 0, [9, 9, 9]);
        grid.paint(7, 7, [1, 1, 1]); // ignored
        let path = std::env::temp_dir().join("patu-obs-grid.ppm");
        grid.write(&path).unwrap();
        let bytes = fs::read(&path).unwrap();
        // 4x4 image; pixel (2,0) belongs to tile (1,0).
        let header = b"P6\n4 4\n255\n".len();
        assert_eq!(&bytes[header + 2 * 3..header + 2 * 3 + 3], &[9, 9, 9]);
        assert_eq!(&bytes[header..header + 3], &[0, 0, 0]);
        let _ = fs::remove_file(&path);
    }
}
