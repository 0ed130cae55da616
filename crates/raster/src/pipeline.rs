//! The geometry front-end: vertex processing → clipping → culling → tiling →
//! rasterization → early depth test → fragment emission.
//!
//! This is the paper's Fig. 2 up to (but excluding) texture filtering: the
//! emitted [`Fragment`]s carry perspective-correct UVs and analytic
//! derivatives, from which the texture unit (modeled in `patu-gpu` +
//! `patu-core`) builds sampling footprints.
//!
//! The pass splits at the bin boundary, as on a tile-based GPU:
//! [`Pipeline::bin`] transforms, clips, culls and bins the frame once, and
//! [`BinnedFrame::rasterize`] turns one bin into its tile's fragments when
//! the tile is shaded, early-Z testing against a tile-local depth buffer
//! (tiles own disjoint pixels, so no frame-wide buffer is needed).
//! [`Pipeline::run`] is the two steps over every bin.

use crate::camera::Camera;
use crate::clip::{clip_triangle, fan_triangulate, ClipVertex};
use crate::fragment::Fragment;
use crate::mesh::Mesh;
use crate::tiler::{bin_triangles, ScreenTriangle, TileBin};
use patu_gmath::{EdgeEval, Vec2};
use std::ops::ControlFlow;

/// The order in which a tile's surviving fragments are emitted to fragment
/// shading (and thus to the texture unit).
///
/// Real GPUs traverse tiles in locality-preserving orders so consecutive
/// texture requests hit nearby texels; the choice is measurable in the
/// texture-cache hit rate (`ablation_traversal` in `patu-bench`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraversalOrder {
    /// Plain scanline order within each triangle's tile slice.
    #[default]
    RowMajor,
    /// Z-order (Morton) interleave of the pixel coordinates within the tile:
    /// consecutive fragments stay spatially clustered.
    Morton,
}

/// Interleaves the low 16 bits of `x` and `y` into a Morton key.
fn morton_key(x: u32, y: u32) -> u64 {
    fn spread(mut v: u64) -> u64 {
        v &= 0xFFFF;
        v = (v | (v << 8)) & 0x00FF_00FF;
        v = (v | (v << 4)) & 0x0F0F_0F0F;
        v = (v | (v << 2)) & 0x3333_3333;
        v = (v | (v << 1)) & 0x5555_5555;
        v
    }
    spread(u64::from(x)) | (spread(u64::from(y)) << 1)
}

/// Counters from one frame's geometry pass. These feed the timing model
/// (vertex fetch traffic, rasterizer work) and the paper's §II statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GeometryStats {
    /// Vertices transformed by vertex processing.
    pub vertices_processed: u64,
    /// Triangles submitted by the application.
    pub triangles_in: u64,
    /// Triangles discarded entirely by frustum clipping.
    pub triangles_clipped_out: u64,
    /// Triangles discarded by back-face culling.
    pub triangles_culled: u64,
    /// Screen triangles sent to the rasterizer (after clip-induced fanning).
    pub triangles_rasterized: u64,
    /// Fragments produced by the rasterizer (before the depth test).
    pub fragments_generated: u64,
    /// Fragments surviving the early depth test (sent to fragment shading).
    pub fragments_shaded: u64,
    /// Tiles containing at least one triangle.
    pub tiles_covered: u64,
}

impl GeometryStats {
    /// Exports every counter into `telemetry` under `geom::*` names. A
    /// no-op below [`patu_obs::TraceLevel::Counters`].
    pub fn export_counters(&self, telemetry: &mut patu_obs::Collector) {
        telemetry.add("geom::vertices", self.vertices_processed);
        telemetry.add("geom::triangles_in", self.triangles_in);
        telemetry.add("geom::triangles_clipped_out", self.triangles_clipped_out);
        telemetry.add("geom::triangles_culled", self.triangles_culled);
        telemetry.add("geom::triangles_rasterized", self.triangles_rasterized);
        telemetry.add("geom::fragments_generated", self.fragments_generated);
        telemetry.add("geom::fragments_shaded", self.fragments_shaded);
        telemetry.add("geom::tiles_covered", self.tiles_covered);
    }
}

/// One tile's rasterization output: surviving fragments in shading order.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    /// Tile column.
    pub tx: u32,
    /// Tile row.
    pub ty: u32,
    /// Fragments that passed early-Z, in triangle-submission order. Later
    /// fragments at the same pixel are closer and overwrite earlier colors.
    pub fragments: Vec<Fragment>,
}

/// A full frame's geometry output.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometryOutput {
    /// Viewport width in pixels.
    pub width: u32,
    /// Viewport height in pixels.
    pub height: u32,
    /// Non-empty tiles in row-major order.
    pub tiles: Vec<Tile>,
    /// Frame statistics.
    pub stats: GeometryStats,
}

impl GeometryOutput {
    /// Iterates over all fragments across tiles, in shading order.
    pub fn fragments(&self) -> impl Iterator<Item = &Fragment> + '_ {
        self.tiles.iter().flat_map(|t| t.fragments.iter())
    }
}

/// A frame's geometry cut at the bin boundary: its screen triangles and the
/// bins that emit at least one fragment, each ready to rasterize on its
/// own.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedFrame {
    pipeline: Pipeline,
    /// Screen triangles in submission order; bins index into this list.
    triangles: Vec<ScreenTriangle>,
    bins: Vec<TileBin>,
    stats: GeometryStats,
}

impl BinnedFrame {
    /// Bins with at least one fragment, in row-major order.
    pub fn bins(&self) -> &[TileBin] {
        &self.bins
    }

    /// The frame's statistics before rasterization: `fragments_generated`
    /// holds only the covered pixels of dropped bins and `fragments_shaded`
    /// is 0. Rasterizing every bin adds the rest.
    pub fn stats(&self) -> GeometryStats {
        self.stats
    }

    /// Viewport width.
    pub fn width(&self) -> u32 {
        self.pipeline.width
    }

    /// Viewport height.
    pub fn height(&self) -> u32 {
        self.pipeline.height
    }

    /// Rasterizes `self.bins[bin]` into `fragments` (cleared first) in
    /// shading order, early-Z testing against a depth buffer for that tile
    /// alone, and adds its generated and shaded fragments to `stats`.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is out of range.
    pub fn rasterize(&self, bin: usize, fragments: &mut Vec<Fragment>, stats: &mut GeometryStats) {
        let p = &self.pipeline;
        let bin = &self.bins[bin];
        let (x0, y0) = (bin.x0(p.tile_size), bin.y0(p.tile_size));
        let w = p.tile_size.min(p.width - x0);
        let h = p.tile_size.min(p.height - y0);
        // Cleared to the far plane. Tiles own disjoint pixels, so a tile's
        // early-Z needs no other tile's depths.
        let mut depth = vec![1.0f32; (w as usize) * (h as usize)];
        fragments.clear();

        for &ti in &bin.triangles {
            let tri = &self.triangles[ti];
            // Per-triangle constant gradients of the linear quantities
            // 1/w and uv/w, used for perspective-correct derivatives.
            let grad_inv_w = linear_gradient(&tri.pos, &tri.inv_w);
            let grad_s = linear_gradient(
                &tri.pos,
                &[tri.uv_over_w[0].x, tri.uv_over_w[1].x, tri.uv_over_w[2].x],
            );
            let grad_t = linear_gradient(
                &tri.pos,
                &[tri.uv_over_w[0].y, tri.uv_over_w[1].y, tri.uv_over_w[2].y],
            );
            let _ = p.for_each_covered(bin, tri, |px, py, [w0, w1, w2]| {
                stats.fragments_generated += 1;
                let z = tri.z[0] * w0 + tri.z[1] * w1 + tri.z[2] * w2;
                let stored = &mut depth[((py - y0) * w + (px - x0)) as usize];
                if z < *stored {
                    *stored = z;
                } else {
                    return ControlFlow::Continue(());
                }
                stats.fragments_shaded += 1;

                // Perspective-correct UV and analytic derivatives.
                let q = tri.inv_w[0] * w0 + tri.inv_w[1] * w1 + tri.inv_w[2] * w2;
                let s = tri.uv_over_w[0].x * w0 + tri.uv_over_w[1].x * w1 + tri.uv_over_w[2].x * w2;
                let t = tri.uv_over_w[0].y * w0 + tri.uv_over_w[1].y * w1 + tri.uv_over_w[2].y * w2;
                let inv_q = 1.0 / q;
                let uv = Vec2::new(s * inv_q, t * inv_q);
                // d(s/q)/dx = (ds/dx * q - s * dq/dx) / q^2
                let duv_dx = Vec2::new(
                    (grad_s.x * q - s * grad_inv_w.x) * inv_q * inv_q,
                    (grad_t.x * q - t * grad_inv_w.x) * inv_q * inv_q,
                );
                let duv_dy = Vec2::new(
                    (grad_s.y * q - s * grad_inv_w.y) * inv_q * inv_q,
                    (grad_t.y * q - t * grad_inv_w.y) * inv_q * inv_q,
                );
                fragments.push(Fragment {
                    x: px,
                    y: py,
                    uv,
                    duv_dx,
                    duv_dy,
                    material: tri.material,
                    primitive: tri.primitive,
                });
                ControlFlow::Continue(())
            });
        }

        if p.traversal == TraversalOrder::Morton {
            // Stable by Morton key: fragments at the same pixel keep their
            // submission order, so last-write-wins depth resolution holds.
            fragments.sort_by_key(|f| morton_key(f.x, f.y));
        }
    }
}

/// The rasterization pipeline for a fixed viewport.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pipeline {
    width: u32,
    height: u32,
    tile_size: u32,
    traversal: TraversalOrder,
}

impl Pipeline {
    /// Creates a pipeline with the paper's 16×16 tile size.
    ///
    /// # Panics
    ///
    /// Panics if either viewport dimension is zero.
    pub fn new(width: u32, height: u32) -> Pipeline {
        Pipeline::with_tile_size(width, height, crate::TILE_SIZE)
    }

    /// Creates a pipeline with a custom tile size.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn with_tile_size(width: u32, height: u32, tile_size: u32) -> Pipeline {
        assert!(width > 0 && height > 0, "viewport must be non-empty");
        assert!(tile_size > 0, "tile size must be positive");
        Pipeline {
            width,
            height,
            tile_size,
            traversal: TraversalOrder::RowMajor,
        }
    }

    /// Sets the intra-tile fragment traversal order.
    #[must_use]
    pub fn with_traversal(mut self, traversal: TraversalOrder) -> Pipeline {
        self.traversal = traversal;
        self
    }

    /// Viewport width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Viewport height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Tile edge length.
    pub fn tile_size(&self) -> u32 {
        self.tile_size
    }

    /// Runs the geometry pass over `meshes` as seen from `camera`:
    /// [`Pipeline::bin`], then [`BinnedFrame::rasterize`] on every bin.
    pub fn run(&self, meshes: &[Mesh], camera: &Camera) -> GeometryOutput {
        let binned = self.bin(meshes, camera);
        let mut stats = binned.stats;
        let tiles = (0..binned.bins.len())
            .map(|i| {
                let mut fragments = Vec::new();
                binned.rasterize(i, &mut fragments, &mut stats);
                let bin = &binned.bins[i];
                Tile {
                    tx: bin.tx,
                    ty: bin.ty,
                    fragments,
                }
            })
            .collect();
        GeometryOutput {
            width: self.width,
            height: self.height,
            tiles,
            stats,
        }
    }

    /// The per-frame half of the geometry pass: vertex processing,
    /// clipping, culling and binning, keeping only the bins that emit a
    /// fragment. [`BinnedFrame::rasterize`] is the per-tile half.
    pub fn bin(&self, meshes: &[Mesh], camera: &Camera) -> BinnedFrame {
        let mut stats = GeometryStats::default();
        let triangles = self.process_geometry(meshes, camera, &mut stats);
        self.bin_screen(triangles, stats)
    }

    /// Bins screen triangles and drops every bin no fragment of which
    /// would pass early-Z.
    fn bin_screen(&self, triangles: Vec<ScreenTriangle>, mut stats: GeometryStats) -> BinnedFrame {
        let mut bins = bin_triangles(&triangles, self.width, self.height, self.tile_size);
        stats.tiles_covered = bins.len() as u64;
        bins.retain(|bin| self.is_live(bin, &triangles, &mut stats));
        BinnedFrame {
            pipeline: *self,
            triangles,
            bins,
            stats,
        }
    }

    /// Whether some pixel centre `bin` covers has interpolated `z < 1.0`:
    /// the early-Z test against a depth buffer cleared to the far plane, so
    /// exactly the bins that emit a fragment. Stops at the first such
    /// pixel. A dead bin's covered pixels count as generated here; a live
    /// bin's count when it rasterizes.
    fn is_live(&self, bin: &TileBin, tris: &[ScreenTriangle], stats: &mut GeometryStats) -> bool {
        let mut generated = 0;
        for &ti in &bin.triangles {
            let tri = &tris[ti];
            let live = self.for_each_covered(bin, tri, |_, _, [w0, w1, w2]| {
                generated += 1;
                if tri.z[0] * w0 + tri.z[1] * w1 + tri.z[2] * w2 < 1.0 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            if live.is_break() {
                return true;
            }
        }
        stats.fragments_generated += generated;
        false
    }

    /// Visits the pixels of `bin`'s tile whose centres `tri` covers, in
    /// scanline order, with their barycentric weights, until `visit`
    /// breaks.
    fn for_each_covered(
        &self,
        bin: &TileBin,
        tri: &ScreenTriangle,
        mut visit: impl FnMut(u32, u32, [f32; 3]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let Some(edges) = EdgeEval::new(tri.pos[0], tri.pos[1], tri.pos[2]) else {
            return ControlFlow::Continue(()); // degenerate after snapping
        };
        // Clip the triangle's bounds to this tile.
        let x0 = bin.x0(self.tile_size);
        let y0 = bin.y0(self.tile_size);
        let x1 = (x0 + self.tile_size).min(self.width);
        let y1 = (y0 + self.tile_size).min(self.height);
        let bb = tri.bounds();
        let px0 = (bb.min.x.floor().max(x0 as f32) as u32).min(x1.saturating_sub(1));
        let py0 = (bb.min.y.floor().max(y0 as f32) as u32).min(y1.saturating_sub(1));
        let px1 = (bb.max.x.ceil() as u32 + 1).min(x1);
        let py1 = (bb.max.y.ceil() as u32 + 1).min(y1);

        for py in py0..py1 {
            for px in px0..px1 {
                let p = Vec2::new(px as f32 + 0.5, py as f32 + 0.5);
                let (w0, w1, w2) = edges.weights(p);
                if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                    continue;
                }
                visit(px, py, [w0, w1, w2])?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Vertex processing + clipping + culling + viewport transform.
    fn process_geometry(
        &self,
        meshes: &[Mesh],
        camera: &Camera,
        stats: &mut GeometryStats,
    ) -> Vec<ScreenTriangle> {
        let vp = camera.view_projection();
        let mut out = Vec::new();
        let mut primitive: u32 = 0;

        for mesh in meshes {
            let mvp = vp * mesh.transform;
            stats.vertices_processed += mesh.vertices.len() as u64;
            let clip_verts: Vec<ClipVertex> = mesh
                .vertices
                .iter()
                .map(|v| ClipVertex::new(mvp * v.position.extend(1.0), v.uv))
                .collect();

            for tri in &mesh.triangles {
                stats.triangles_in += 1;
                let poly = clip_triangle(
                    clip_verts[tri[0] as usize],
                    clip_verts[tri[1] as usize],
                    clip_verts[tri[2] as usize],
                );
                if poly.len() < 3 {
                    stats.triangles_clipped_out += 1;
                    continue;
                }
                let mut emitted = false;
                for fan in fan_triangulate(&poly) {
                    if let Some(st) = self.to_screen(&fan, mesh.material, primitive) {
                        out.push(st);
                        stats.triangles_rasterized += 1;
                        emitted = true;
                    }
                }
                if !emitted {
                    stats.triangles_culled += 1;
                }
                primitive += 1;
            }
        }
        out
    }

    /// Perspective divide + viewport transform + back-face cull.
    #[allow(clippy::wrong_self_convention)]
    fn to_screen(
        &self,
        tri: &[ClipVertex; 3],
        material: usize,
        primitive: u32,
    ) -> Option<ScreenTriangle> {
        let mut pos = [Vec2::ZERO; 3];
        let mut z = [0.0f32; 3];
        let mut inv_w = [0.0f32; 3];
        let mut uv_over_w = [Vec2::ZERO; 3];
        for (i, v) in tri.iter().enumerate() {
            if v.clip.w <= 0.0 {
                // Fully clipped geometry should never reach here; guard anyway.
                return None;
            }
            let ndc = v.clip.perspective_divide();
            pos[i] = Vec2::new(
                (ndc.x + 1.0) * 0.5 * self.width as f32,
                (1.0 - ndc.y) * 0.5 * self.height as f32,
            );
            z[i] = ndc.z;
            inv_w[i] = 1.0 / v.clip.w;
            uv_over_w[i] = v.uv * inv_w[i];
        }
        // Back-face cull: with Y flipped by the viewport transform, CCW
        // world-space winding appears clockwise (negative area) on screen.
        let area = (pos[1] - pos[0]).cross(pos[2] - pos[0]);
        if area >= 0.0 {
            return None;
        }
        Some(ScreenTriangle {
            pos,
            z,
            inv_w,
            uv_over_w,
            material,
            primitive,
        })
    }
}

/// Screen-space gradient `(d f/dx, d f/dy)` of a quantity linear over the
/// triangle, from its values at the three vertices.
fn linear_gradient(pos: &[Vec2; 3], f: &[f32; 3]) -> Vec2 {
    let e1 = pos[1] - pos[0];
    let e2 = pos[2] - pos[0];
    let det = e1.cross(e2);
    if det == 0.0 {
        return Vec2::ZERO;
    }
    let df1 = f[1] - f[0];
    let df2 = f[2] - f[0];
    Vec2::new(
        (df1 * e2.y - df2 * e1.y) / det,
        (df2 * e1.x - df1 * e2.x) / det,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use patu_gmath::Vec3;

    /// A screen-filling wall facing the camera at z = -5.
    fn facing_wall(material: usize) -> Mesh {
        Mesh::quad(
            [
                Vec3::new(-10.0, -10.0, -5.0),
                Vec3::new(10.0, -10.0, -5.0),
                Vec3::new(10.0, 10.0, -5.0),
                Vec3::new(-10.0, 10.0, -5.0),
            ],
            Vec2::new(4.0, 4.0),
            material,
        )
    }

    /// A ground plane stretching to the horizon (high anisotropy).
    fn ground() -> Mesh {
        Mesh::quad(
            [
                Vec3::new(-50.0, 0.0, -0.5),
                Vec3::new(50.0, 0.0, -0.5),
                Vec3::new(50.0, 0.0, -200.0),
                Vec3::new(-50.0, 0.0, -200.0),
            ],
            Vec2::new(64.0, 256.0),
            0,
        )
    }

    fn camera() -> Camera {
        Camera::new(
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 1.0, -10.0),
            1.0,
            1.0,
        )
    }

    fn ground_camera() -> Camera {
        Camera::new(
            Vec3::new(0.0, 2.0, 0.0),
            Vec3::new(0.0, 0.0, -30.0),
            1.0,
            1.0,
        )
    }

    #[test]
    fn facing_wall_fills_viewport() {
        let out = Pipeline::new(64, 64).run(&[facing_wall(0)], &camera());
        assert_eq!(
            out.stats.fragments_shaded,
            64 * 64,
            "every pixel covered once"
        );
        assert_eq!(out.stats.triangles_in, 2);
    }

    #[test]
    fn back_face_is_culled() {
        // Reverse the winding by swapping two corners.
        let mut wall = facing_wall(0);
        wall.triangles = vec![[0, 2, 1], [0, 3, 2]];
        let out = Pipeline::new(64, 64).run(&[wall], &camera());
        assert_eq!(out.stats.fragments_shaded, 0);
        assert_eq!(out.stats.triangles_culled, 2);
    }

    #[test]
    fn offscreen_mesh_fully_clipped() {
        let wall = facing_wall(0)
            .with_transform(patu_gmath::Mat4::translation(Vec3::new(1000.0, 0.0, 0.0)));
        let out = Pipeline::new(64, 64).run(&[wall], &camera());
        assert_eq!(out.stats.triangles_clipped_out, 2);
        assert_eq!(out.stats.fragments_shaded, 0);
    }

    #[test]
    fn ground_plane_clips_against_near_and_renders() {
        let out = Pipeline::new(128, 128).run(&[ground()], &ground_camera());
        assert!(out.stats.fragments_shaded > 1000, "ground visible");
    }

    #[test]
    fn depth_test_keeps_closer_surface() {
        // Two walls: far wall first, near wall second; near must win everywhere.
        let far = facing_wall(0)
            .with_transform(patu_gmath::Mat4::translation(Vec3::new(0.0, 0.0, -10.0)));
        let near = facing_wall(1);
        let out = Pipeline::new(32, 32).run(&[far, near], &camera());
        // Every pixel gets two surviving fragments (far drawn first passes,
        // then near passes and overwrites in shading order).
        assert_eq!(out.stats.fragments_shaded, 2 * 32 * 32);
        // The *last* fragment at any pixel has material 1.
        let mut last_material = std::collections::HashMap::new();
        for f in out.fragments() {
            last_material.insert((f.x, f.y), f.material);
        }
        assert!(last_material.values().all(|&m| m == 1));
    }

    #[test]
    fn depth_test_rejects_farther_drawn_later() {
        let near = facing_wall(1);
        let far = facing_wall(0)
            .with_transform(patu_gmath::Mat4::translation(Vec3::new(0.0, 0.0, -10.0)));
        // Near drawn first: far fragments all fail early-Z.
        let out = Pipeline::new(32, 32).run(&[near, far], &camera());
        assert_eq!(out.stats.fragments_shaded, 32 * 32);
        assert!(out.fragments().all(|f| f.material == 1));
    }

    #[test]
    fn no_double_coverage_on_shared_diagonal() {
        // The quad's two triangles share an edge; fill rule must not shade
        // pixels on the diagonal twice.
        let out = Pipeline::new(64, 64).run(&[facing_wall(0)], &camera());
        let mut seen = std::collections::HashSet::new();
        for f in out.fragments() {
            assert!(
                seen.insert((f.x, f.y)),
                "pixel ({}, {}) shaded twice",
                f.x,
                f.y
            );
        }
    }

    #[test]
    fn uv_interpolation_spans_scale() {
        let out = Pipeline::new(64, 64).run(&[facing_wall(0)], &camera());
        let (mut min_u, mut max_u) = (f32::MAX, f32::MIN);
        for f in out.fragments() {
            min_u = min_u.min(f.uv.x);
            max_u = max_u.max(f.uv.x);
        }
        // The wall is UV-scaled 4x; visible portion spans a good part of it.
        assert!(max_u - min_u > 0.5, "span {min_u}..{max_u}");
        assert!(max_u <= 4.0 + 1e-3);
    }

    #[test]
    fn facing_wall_derivatives_isotropic() {
        let out = Pipeline::new(64, 64).run(&[facing_wall(0)], &camera());
        let f = out.fragments().next().unwrap();
        let ax = f.duv_dx.length();
        let ay = f.duv_dy.length();
        let ratio = ax.max(ay) / ax.min(ay).max(1e-9);
        assert!(
            ratio < 1.3,
            "screen-aligned wall is near-isotropic, ratio {ratio}"
        );
    }

    #[test]
    fn ground_plane_derivatives_anisotropic_far_away() {
        let out = Pipeline::new(128, 128).run(&[ground()], &ground_camera());
        // Take a fragment in the upper part of the ground (far away).
        let far_frag = out
            .fragments()
            .filter(|f| f.y > 40 && f.y < 60)
            .max_by(|a, b| a.y.cmp(&b.y))
            .expect("far fragments exist");
        let ax = far_frag.duv_dx.length();
        let ay = far_frag.duv_dy.length();
        let ratio = ay.max(ax) / ay.min(ax).max(1e-9);
        assert!(ratio > 2.0, "oblique ground is anisotropic, got {ratio}");
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let out = Pipeline::new(128, 128).run(&[ground()], &ground_camera());
        // Build a map for finite differencing.
        let mut by_pixel = std::collections::HashMap::new();
        for f in out.fragments() {
            by_pixel.insert((f.x, f.y), *f);
        }
        let mut checked = 0;
        for (&(x, y), f) in &by_pixel {
            if x == 0 || y == 0 {
                continue;
            }
            let neighbors = [
                by_pixel.get(&(x - 1, y)),
                by_pixel.get(&(x + 1, y)),
                by_pixel.get(&(x, y - 1)),
                by_pixel.get(&(x, y + 1)),
            ];
            let [Some(xl), Some(xr), Some(yu), Some(yd)] = neighbors else {
                continue;
            };
            if [xl, xr, yu, yd].iter().any(|n| n.primitive != f.primitive) {
                continue;
            }
            // Central differences; skip pixels where perspective curvature is
            // strong (forward/backward secants disagree) — near the horizon
            // the derivative legitimately changes by large factors per pixel.
            let fwd_dy = yd.uv - f.uv;
            let bwd_dy = f.uv - yu.uv;
            if (fwd_dy - bwd_dy).length() > 0.2 * fwd_dy.length().max(bwd_dy.length()) {
                continue;
            }
            let fd_dx = (xr.uv - xl.uv) * 0.5;
            let fd_dy = (yd.uv - yu.uv) * 0.5;
            if fd_dx.length() > 1e-4 {
                let err = (f.duv_dx - fd_dx).length() / fd_dx.length();
                assert!(err < 0.2, "dx err {err} at ({x},{y})");
            }
            if fd_dy.length() > 1e-4 {
                let err = (f.duv_dy - fd_dy).length() / fd_dy.length();
                assert!(err < 0.2, "dy err {err} at ({x},{y})");
            }
            checked += 1;
            if checked > 500 {
                break;
            }
        }
        assert!(checked > 50, "enough interior pixels compared");
    }

    #[test]
    fn tiles_are_row_major_and_within_bounds() {
        let out = Pipeline::new(70, 50).run(&[facing_wall(0)], &camera());
        let mut last = None;
        for t in &out.tiles {
            assert!(t.tx * 16 < 70 && t.ty * 16 < 50);
            let key = (t.ty, t.tx);
            if let Some(prev) = last {
                assert!(key > prev, "row-major tile order");
            }
            last = Some(key);
        }
    }

    #[test]
    fn fragments_stay_inside_their_tile() {
        let out = Pipeline::new(64, 64).run(&[facing_wall(0)], &camera());
        for t in &out.tiles {
            for f in &t.fragments {
                assert!(f.x >= t.tx * 16 && f.x < (t.tx + 1) * 16);
                assert!(f.y >= t.ty * 16 && f.y < (t.ty + 1) * 16);
            }
        }
    }

    #[test]
    fn morton_key_interleaves() {
        assert_eq!(morton_key(0, 0), 0);
        assert_eq!(morton_key(1, 0), 1);
        assert_eq!(morton_key(0, 1), 2);
        assert_eq!(morton_key(1, 1), 3);
        assert_eq!(morton_key(2, 0), 4);
        assert_eq!(morton_key(3, 3), 15);
    }

    #[test]
    fn morton_traversal_preserves_pixel_set_and_last_write() {
        let far = facing_wall(0)
            .with_transform(patu_gmath::Mat4::translation(Vec3::new(0.0, 0.0, -10.0)));
        let near = facing_wall(1);
        let meshes = vec![far, near];
        let row = Pipeline::new(64, 64).run(&meshes, &camera());
        let morton = Pipeline::new(64, 64)
            .with_traversal(TraversalOrder::Morton)
            .run(&meshes, &camera());
        // Same statistics, same covered pixels.
        assert_eq!(row.stats, morton.stats);
        let pixset = |out: &GeometryOutput| {
            let mut v: Vec<(u32, u32)> = out.fragments().map(|f| (f.x, f.y)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(pixset(&row), pixset(&morton));
        // Last write at each pixel is still the near wall.
        let mut last = std::collections::HashMap::new();
        for f in morton.fragments() {
            last.insert((f.x, f.y), f.material);
        }
        assert!(
            last.values().all(|&m| m == 1),
            "Morton sort is stable per pixel"
        );
    }

    #[test]
    fn morton_order_is_spatially_clustered() {
        let out = Pipeline::new(64, 64)
            .with_traversal(TraversalOrder::Morton)
            .run(&[facing_wall(0)], &camera());
        // Mean Manhattan distance between consecutive fragments is smaller
        // under Morton than under row-major (which jumps at row ends).
        let dist = |out: &GeometryOutput| {
            let frags: Vec<_> = out.tiles[0].fragments.iter().collect();
            let mut sum = 0u64;
            for w in frags.windows(2) {
                sum += u64::from(w[0].x.abs_diff(w[1].x) + w[0].y.abs_diff(w[1].y));
            }
            sum as f64 / (frags.len() - 1) as f64
        };
        let row = Pipeline::new(64, 64).run(&[facing_wall(0)], &camera());
        assert!(dist(&out) <= dist(&row) + 1e-9);
    }

    #[test]
    fn linear_gradient_of_plane() {
        let pos = [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(0.0, 1.0),
        ];
        // f = 3x + 5y + 2
        let f = [2.0, 5.0, 7.0];
        let g = linear_gradient(&pos, &f);
        assert!((g.x - 3.0).abs() < 1e-6);
        assert!((g.y - 5.0).abs() < 1e-6);
    }

    #[test]
    fn empty_scene_renders_nothing() {
        let out = Pipeline::new(16, 16).run(&[], &camera());
        assert!(out.tiles.is_empty());
        assert_eq!(out.stats.fragments_generated, 0);
    }

    #[test]
    fn geometry_counters_export_to_telemetry() {
        use patu_obs::{Collector, FrameTelemetry, TelemetryConfig, TraceLevel, Track};
        let out = Pipeline::new(64, 64).run(&[facing_wall(0)], &camera());
        let mut c = Collector::new(
            TelemetryConfig::with_level(TraceLevel::Counters),
            Track::Frontend,
        );
        out.stats.export_counters(&mut c);
        let mut frame = FrameTelemetry::new(TraceLevel::Counters, 0, "p".into(), 0);
        frame.absorb(c);
        assert_eq!(frame.counters["geom::fragments_shaded"], 64 * 64);
        assert_eq!(frame.counters["geom::triangles_in"], 2);
        assert_eq!(frame.counters["geom::vertices"], 4);
        assert!(frame.counters["geom::tiles_covered"] > 0);
    }

    /// A right triangle with its legs along the axes, front-facing on
    /// screen, at constant depth `z`. With integer corners and an 8-pixel
    /// leg every barycentric weight at a pixel centre is exact, so the
    /// interpolated depth is exactly `z`.
    fn screen_tri(x: f32, y: f32, leg: f32, z: f32) -> ScreenTriangle {
        ScreenTriangle {
            pos: [
                Vec2::new(x, y),
                Vec2::new(x, y + leg),
                Vec2::new(x + leg, y),
            ],
            z: [z; 3],
            inv_w: [1.0; 3],
            uv_over_w: [Vec2::ZERO; 3],
            material: 0,
            primitive: 0,
        }
    }

    #[test]
    fn bins_that_emit_no_fragment_are_dropped_but_counted() {
        let p = Pipeline::new(64, 16);
        let bin = |tris: Vec<ScreenTriangle>| p.bin_screen(tris, GeometryStats::default());
        let live = bin(vec![screen_tri(0.0, 0.0, 8.0, 0.5)]);
        assert_eq!(live.bins.len(), 1);
        let (mut fragments, mut stats) = (Vec::new(), live.stats);
        live.rasterize(0, &mut fragments, &mut stats);
        let covered = stats.fragments_generated;
        assert!(covered > 0);
        assert_eq!(stats.fragments_shaded, covered);
        assert_eq!(fragments.len() as u64, covered);

        // At or behind the far plane, or at NaN depth, no covered pixel
        // passes early-Z: the bin is dropped, its pixels still generated.
        for z in [1.0, 1.5, f32::INFINITY, f32::NAN] {
            let dead = bin(vec![screen_tri(0.0, 0.0, 8.0, z)]);
            assert!(dead.bins.is_empty(), "z = {z}");
            assert_eq!(dead.stats.tiles_covered, 1);
            assert_eq!(dead.stats.fragments_generated, covered);
            assert_eq!(dead.stats.fragments_shaded, 0);
        }
        // A sliver between pixel centres covers none.
        let sliver = bin(vec![screen_tri(1.1, 1.1, 0.3, 0.5)]);
        assert!(sliver.bins.is_empty());
        assert_eq!(sliver.stats.tiles_covered, 1);
        assert_eq!(sliver.stats.fragments_generated, 0);

        // Dead tiles beside a live one: only the live tile stays, and a
        // far triangle before a near one leaves its tile live.
        let frame = bin(vec![
            screen_tri(0.0, 0.0, 8.0, 1.0),
            screen_tri(16.0, 0.0, 8.0, f32::NAN),
            screen_tri(33.1, 1.1, 0.3, 0.5),
            screen_tri(48.0, 0.0, 8.0, 1.0),
            screen_tri(48.0, 0.0, 8.0, 0.5),
        ]);
        let tiles: Vec<(u32, u32)> = frame.bins.iter().map(|b| (b.tx, b.ty)).collect();
        assert_eq!(tiles, [(3, 0)]);
        assert_eq!(frame.stats.tiles_covered, 4);
        assert_eq!(frame.stats.fragments_generated, 2 * covered);
        let mut stats = frame.stats;
        frame.rasterize(0, &mut fragments, &mut stats);
        assert_eq!(stats.fragments_generated, 4 * covered);
        assert_eq!(stats.fragments_shaded, covered);
        assert_eq!(fragments.len() as u64, covered, "buffer cleared per bin");
    }

    #[test]
    fn vertex_count_accumulates_across_meshes() {
        let out = Pipeline::new(16, 16).run(&[facing_wall(0), facing_wall(1)], &camera());
        assert_eq!(out.stats.vertices_processed, 8);
    }
}
