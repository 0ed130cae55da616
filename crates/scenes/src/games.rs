//! The workload implementations: one procedural scene per game of Table II,
//! plus `rbench`.

use crate::geometry::{ceiling_plane, facing_wall, ground_plane, prop_box, side_wall};
use patu_gmath::{Vec2, Vec3};
use patu_raster::{Camera, Mesh};
use patu_texture::{procedural, Texture};
use std::error::Error;
use std::fmt;

/// The fragment-shading response applied to a material's filtered texture
/// color.
///
/// Real game shaders are rarely linear in the texel value: specular powers,
/// alpha tests and emissive thresholds amplify small texture-filtering
/// differences into full-scale luminance changes — the mechanism behind the
/// paper's Fig. 8 observations (water ripples and smoke effects *vanishing*
/// when AF is disabled, not merely blurring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShaderKind {
    /// Linear diffuse: output = filtered texel.
    #[default]
    Diffuse,
    /// Steep threshold response (specular/emissive/alpha-test class):
    /// a logistic curve on luma around `pivot` that snaps values to dark or
    /// bright. Filtering that moves a texel across the pivot flips the
    /// shaded output entirely — thin bright features (road markings, wire,
    /// ripples) vanish when coarse-mip blur pulls them below it.
    Threshold {
        /// Luma value the gate is centered on; pick inside the material's
        /// luma range.
        pivot: u8,
    },
}

impl ShaderKind {
    /// Applies the response to a filtered texture color.
    pub fn apply(self, color: patu_texture::Rgba8) -> patu_texture::Rgba8 {
        match self {
            ShaderKind::Diffuse => color,
            ShaderKind::Threshold { pivot } => {
                let l = f64::from(color.luma());
                let gate = 255.0 / (1.0 + (-(l - f64::from(pivot)) / 10.0).exp());
                let scale = if l > 1.0 { gate / l } else { 0.0 };
                // The same `v / 255` as `Rgba8::to_f32`, divided rather than
                // looked up: issued right after the `exp` call, the lookup
                // table's loads made this function ~1.7× slower on an x86-64
                // Xeon, while the divisions overlap the call.
                let c = [color.r, color.g, color.b, color.a].map(|v| f32::from(v) / 255.0);
                patu_texture::Rgba8::from_f32([
                    (c[0] as f64 * scale) as f32,
                    (c[1] as f64 * scale) as f32,
                    (c[2] as f64 * scale) as f32,
                    c[3],
                ])
            }
        }
    }
}

/// One frame's renderable content.
#[derive(Debug, Clone)]
pub struct FrameScene {
    /// The meshes to draw, in submission order.
    pub meshes: Vec<Mesh>,
    /// The camera for this frame.
    pub camera: Camera,
}

/// Error returned for an unknown workload name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadError {
    name: String,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown workload '{}' (expected one of hl2, doom3, grid, nfs, stal, ut3, wolf, rbench, orbit, dolly)",
            self.name
        )
    }
}

impl Error for WorkloadError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hl2,
    Doom3,
    Grid,
    Nfs,
    Stal,
    Ut3,
    Wolf,
    Rbench,
    Orbit,
    Dolly,
}

/// A buildable, animatable game workload.
///
/// See the [crate-level documentation](crate) for the scene profiles.
#[derive(Debug, Clone)]
pub struct Workload {
    name: &'static str,
    kind: Kind,
    resolution: (u32, u32),
    textures: Vec<Texture>,
    shaders: Vec<ShaderKind>,
}

/// Lays textures out back-to-back in the simulated memory space,
/// 64-byte-aligned, like a driver's texture heap.
fn alloc_textures(images: Vec<procedural::Image>) -> Vec<Texture> {
    let mut base = 0u64;
    let mut out = Vec::with_capacity(images.len());
    for img in images {
        let tex = Texture::with_mips(img, base);
        base += tex.size_bytes().div_ceil(64) * 64;
        out.push(tex);
    }
    out
}

impl Workload {
    /// Builds a workload by name at a resolution.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] for names outside the supported set.
    pub fn build(name: &str, resolution: (u32, u32)) -> Result<Workload, WorkloadError> {
        let (kind, static_name): (Kind, &'static str) = match name {
            "hl2" => (Kind::Hl2, "hl2"),
            "doom3" => (Kind::Doom3, "doom3"),
            "grid" => (Kind::Grid, "grid"),
            "nfs" => (Kind::Nfs, "nfs"),
            "stal" => (Kind::Stal, "stal"),
            "ut3" => (Kind::Ut3, "ut3"),
            "wolf" => (Kind::Wolf, "wolf"),
            "rbench" => (Kind::Rbench, "rbench"),
            "orbit" => (Kind::Orbit, "orbit"),
            "dolly" => (Kind::Dolly, "dolly"),
            other => {
                return Err(WorkloadError {
                    name: other.to_string(),
                })
            }
        };
        let textures = alloc_textures(match kind {
            Kind::Hl2 => vec![
                procedural::plaid(256, 256, 0x11),          // 0 grass/field surface
                procedural::stripes(256, 256, 6, 0x12),     // 1 water ripples
                procedural::composite(256, 256, 0x13),      // 2 cliff
                procedural::bricks(256, 256, 32, 12, 0x14), // 3 building
                procedural::value_noise(256, 256, 5, 0x15), // 4 foliage
            ],
            Kind::Doom3 => vec![
                procedural::plaid(256, 256, 0x21),          // 0 floor plating
                procedural::bricks(256, 256, 24, 10, 0x22), // 1 walls
                procedural::glyphs(256, 256, 0x23),         // 2 panel decals
                procedural::value_noise(256, 256, 3, 0x24), // 3 ceiling grime
            ],
            Kind::Grid => vec![
                procedural::road(256, 256, 0x31),       // 0 track
                procedural::stripes(256, 256, 8, 0x32), // 1 barriers
                procedural::glyphs(256, 256, 0x33),     // 2 billboards
                procedural::plaid(256, 256, 0x34),      // 3 verge/terrain
            ],
            Kind::Nfs => vec![
                procedural::plaid(256, 256, 0x41),     // 0 paved street
                procedural::composite(256, 256, 0x42), // 1 buildings
                procedural::glyphs(256, 256, 0x43),    // 2 signage
            ],
            Kind::Stal => vec![
                procedural::plaid(256, 256, 0x51),      // 0 terrain
                procedural::stripes(256, 256, 4, 0x52), // 1 fence
                procedural::composite(256, 256, 0x53),  // 2 ruins
            ],
            Kind::Ut3 => vec![
                procedural::plaid(256, 256, 0x61),     // 0 arena floor
                procedural::composite(256, 256, 0x62), // 1 walls
                procedural::glyphs(256, 256, 0x63),    // 2 trim
            ],
            Kind::Wolf => vec![
                procedural::checkerboard(256, 256, 32, 0x71), // 0 floor
                procedural::bricks(256, 256, 32, 16, 0x72),   // 1 walls
            ],
            Kind::Rbench => vec![
                procedural::glyphs(512, 512, 0x81),          // 0 dense detail
                procedural::stripes(512, 512, 3, 0x82),      // 1 high-frequency
                procedural::plaid(512, 512, 0x83),           // 2 multi-scale grid
                procedural::checkerboard(512, 512, 4, 0x84), // 3 fine checker
            ],
            Kind::Orbit => vec![
                procedural::value_noise(256, 256, 2, 0x91), // 0 arena floor
                procedural::value_noise(256, 256, 3, 0x92), // 1 walls
                procedural::composite(256, 256, 0x93),      // 2 trim
            ],
            Kind::Dolly => vec![
                procedural::value_noise(256, 256, 2, 0xA1), // 0 floor plating
                procedural::value_noise(256, 256, 3, 0xA2), // 1 walls
                procedural::composite(256, 256, 0xA3),      // 2 panel decals
                procedural::value_noise(256, 256, 3, 0xA4), // 3 ceiling grime
            ],
        });
        use ShaderKind::Diffuse as D;
        let t = |pivot: u8| ShaderKind::Threshold { pivot };
        let shaders: Vec<ShaderKind> = match kind {
            // Materials with specular/emissive/cutout-class response; pivots
            // sit inside each material's luma range.
            Kind::Hl2 => vec![t(128), t(120), D, D, t(90)], // field sheen, ripples, foliage
            Kind::Doom3 => vec![t(128), D, t(125), D],      // floor sheen, glowing decals
            Kind::Grid => vec![t(130), t(120), t(125), D],  // road markings, barriers, billboards
            Kind::Nfs => vec![t(128), D, t(125)],           // street markings, signage
            Kind::Stal => vec![t(128), t(120), t(130)],     // terrain sheen, wire, highlights
            Kind::Ut3 => vec![t(128), D, t(125)],           // emissive floor, trim
            Kind::Wolf => vec![D, D],
            Kind::Rbench => vec![D, t(120), t(128), t(128)],
            Kind::Orbit => vec![t(128), D, t(125)], // emissive floor, trim
            Kind::Dolly => vec![t(128), D, t(125), D], // floor sheen, decals
        };
        debug_assert_eq!(shaders.len(), textures.len());
        Ok(Workload {
            name: static_name,
            kind,
            resolution: resolution_checked(resolution),
            textures,
            shaders,
        })
    }

    /// The workload's short name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The render resolution.
    pub fn resolution(&self) -> (u32, u32) {
        self.resolution
    }

    /// Viewport aspect ratio.
    pub fn aspect(&self) -> f32 {
        self.resolution.0 as f32 / self.resolution.1 as f32
    }

    /// The workload's texture table; mesh `material` indices point here.
    pub fn textures(&self) -> &[Texture] {
        &self.textures
    }

    /// The fragment-shading response of a material.
    ///
    /// # Panics
    ///
    /// Panics if `material` is out of range.
    pub fn shader(&self, material: usize) -> ShaderKind {
        self.shaders[material]
    }

    /// The scene content of frame `index`. Deterministic; any index is valid
    /// (camera paths loop smoothly after [`Workload::loop_frames`] frames).
    pub fn frame(&self, index: u32) -> FrameScene {
        let t = f32::from((index % self.loop_frames()) as u16);
        let aspect = self.aspect();
        match self.kind {
            Kind::Hl2 => hl2_frame(t, aspect),
            Kind::Doom3 => doom3_frame(t, aspect),
            Kind::Grid => grid_frame(t, aspect),
            Kind::Nfs => nfs_frame(t, aspect),
            Kind::Stal => stal_frame(t, aspect),
            Kind::Ut3 => ut3_frame(t, aspect),
            Kind::Wolf => wolf_frame(t, aspect),
            Kind::Rbench => rbench_frame(t, aspect),
            Kind::Orbit => orbit_frame(t, aspect),
            Kind::Dolly => dolly_frame(t, aspect),
        }
    }

    /// Number of frames before the camera path repeats.
    pub fn loop_frames(&self) -> u32 {
        600
    }
}

fn resolution_checked(resolution: (u32, u32)) -> (u32, u32) {
    assert!(
        resolution.0 > 0 && resolution.1 > 0,
        "workload resolution must be non-empty"
    );
    resolution
}

const FOVY: f32 = std::f32::consts::FRAC_PI_3; // 60 degrees

fn forward_camera(t: f32, speed: f32, height: f32, sway: f32, aspect: f32) -> Camera {
    let z = -t * speed;
    let sway_x = (t * 0.05).sin() * sway;
    Camera::new(
        Vec3::new(sway_x, height, z),
        Vec3::new(sway_x * 0.5, height * 0.8, z - 30.0),
        FOVY,
        aspect,
    )
}

/// Outdoor valley: grass, water strip, distant cliff, one building, foliage
/// props. High-anisotropy ground dominates the lower half of the frame.
fn hl2_frame(t: f32, aspect: f32) -> FrameScene {
    let cam = forward_camera(t, 0.35, 1.7, 2.0, aspect);
    let z0 = cam.eye.z;
    let mut meshes = vec![
        ground_plane(0.0, 90.0, z0 - 0.6, z0 - 300.0, Vec2::new(8.0, 22.0), 0),
        // Water strip to the left, slightly above the ground to win depth.
        ground_plane(0.02, 25.0, z0 - 2.0, z0 - 260.0, Vec2::new(3.0, 18.0), 1)
            .with_transform(patu_gmath::Mat4::translation(Vec3::new(-55.0, 0.0, 0.0))),
        // Distant cliff face.
        facing_wall(0.0, 0.0, 260.0, 60.0, z0 - 290.0, Vec2::new(10.0, 3.0), 2),
        // Sky backdrop: screen-facing, magnified (isotropic, cheap).
        facing_wall(0.0, 55.0, 900.0, 260.0, z0 - 295.0, Vec2::new(3.0, 1.0), 4),
        // A building on the right.
        prop_box(
            Vec3::new(30.0, 6.0, z0 - 80.0),
            Vec3::new(18.0, 12.0, 24.0),
            3,
        ),
    ];
    // Foliage props along the path.
    for k in 0..6 {
        let kz = z0 - 30.0 - 40.0 * k as f32;
        let kx = if k % 2 == 0 { -14.0 } else { 16.0 };
        meshes.push(prop_box(
            Vec3::new(kx, 2.0, kz),
            Vec3::new(3.0, 4.0, 3.0),
            4,
        ));
    }
    FrameScene {
        meshes,
        camera: cam,
    }
}

/// Indoor corridor: floor, ceiling and both walls all stretch to the
/// vanishing point — the most anisotropy-heavy profile.
fn doom3_frame(t: f32, aspect: f32) -> FrameScene {
    let cam = forward_camera(t, 0.3, 1.6, 0.8, aspect);
    let z0 = cam.eye.z;
    let (z_near, z_far) = (z0 - 0.4, z0 - 220.0);
    let mut meshes = vec![
        ground_plane(0.0, 4.0, z_near, z_far, Vec2::new(2.0, 16.0), 0),
        ceiling_plane(3.2, 4.0, z_near, z_far, Vec2::new(2.0, 16.0), 3),
        side_wall(-4.0, 0.0, 3.2, z_near, z_far, Vec2::new(16.0, 1.0), 1, true),
        side_wall(4.0, 0.0, 3.2, z_near, z_far, Vec2::new(16.0, 1.0), 1, false),
        // End cap so the vanishing point is closed.
        facing_wall(0.0, 0.0, 8.0, 3.2, z_far + 1.0, Vec2::new(2.0, 1.0), 1),
    ];
    // Panel decals on the walls every 25 units.
    for k in 0..8 {
        let kz = z0 - 12.0 - 25.0 * k as f32;
        meshes.push(prop_box(
            Vec3::new(if k % 2 == 0 { -3.4 } else { 3.4 }, 1.5, kz),
            Vec3::new(0.8, 1.2, 0.8),
            2,
        ));
    }
    FrameScene {
        meshes,
        camera: cam,
    }
}

/// Race circuit: a low, fast camera over a road — extreme anisotropy on most
/// covered pixels, plus barrier walls and billboards.
fn grid_frame(t: f32, aspect: f32) -> FrameScene {
    let cam = forward_camera(t, 1.1, 0.9, 1.2, aspect);
    let z0 = cam.eye.z;
    let mut meshes = vec![
        ground_plane(0.0, 9.0, z0 - 0.4, z0 - 500.0, Vec2::new(2.0, 34.0), 0),
        // Grass verges outside the barriers.
        ground_plane(-0.02, 120.0, z0 - 0.4, z0 - 500.0, Vec2::new(10.0, 34.0), 3),
        side_wall(
            -9.0,
            0.0,
            1.2,
            z0 - 0.4,
            z0 - 480.0,
            Vec2::new(34.0, 1.0),
            1,
            true,
        ),
        side_wall(
            9.0,
            0.0,
            1.2,
            z0 - 0.4,
            z0 - 480.0,
            Vec2::new(34.0, 1.0),
            1,
            false,
        ),
        // Horizon sky backdrop.
        facing_wall(0.0, 8.0, 1200.0, 320.0, z0 - 495.0, Vec2::new(3.0, 1.0), 3),
    ];
    for k in 0..5 {
        let kz = z0 - 60.0 - 90.0 * k as f32;
        meshes.push(facing_wall(
            if k % 2 == 0 { -16.0 } else { 16.0 },
            1.0,
            14.0,
            7.0,
            kz,
            Vec2::new(2.0, 1.0),
            2,
        ));
    }
    FrameScene {
        meshes,
        camera: cam,
    }
}

/// City street: road with building canyons on both sides.
fn nfs_frame(t: f32, aspect: f32) -> FrameScene {
    let cam = forward_camera(t, 0.9, 1.3, 1.5, aspect);
    let z0 = cam.eye.z;
    let mut meshes = vec![
        ground_plane(0.0, 14.0, z0 - 0.4, z0 - 420.0, Vec2::new(2.0, 30.0), 0),
        side_wall(
            -14.0,
            0.0,
            22.0,
            z0 - 0.4,
            z0 - 400.0,
            Vec2::new(16.0, 2.0),
            1,
            true,
        ),
        side_wall(
            14.0,
            0.0,
            22.0,
            z0 - 0.4,
            z0 - 400.0,
            Vec2::new(16.0, 2.0),
            1,
            false,
        ),
        // Street-end backdrop.
        facing_wall(0.0, 0.0, 600.0, 200.0, z0 - 415.0, Vec2::new(4.0, 2.0), 1),
    ];
    for k in 0..6 {
        let kz = z0 - 35.0 - 60.0 * k as f32;
        meshes.push(facing_wall(
            if k % 2 == 0 { -10.0 } else { 10.0 },
            4.0,
            6.0,
            4.0,
            kz,
            Vec2::new(1.0, 1.0),
            2,
        ));
    }
    FrameScene {
        meshes,
        camera: cam,
    }
}

/// Open terrain: undulating ground (several tilted patches), fence lines and
/// scattered ruins.
fn stal_frame(t: f32, aspect: f32) -> FrameScene {
    let cam = forward_camera(t, 0.25, 1.9, 3.0, aspect);
    let z0 = cam.eye.z;
    let mut meshes = vec![
        ground_plane(0.0, 150.0, z0 - 0.6, z0 - 350.0, Vec2::new(12.0, 24.0), 0),
        // A rising hillside patch on the right (tilted quad -> varying N).
        Mesh::quad(
            [
                Vec3::new(20.0, 0.0, z0 - 20.0),
                Vec3::new(120.0, 0.0, z0 - 20.0),
                Vec3::new(120.0, 25.0, z0 - 260.0),
                Vec3::new(20.0, 18.0, z0 - 260.0),
            ],
            Vec2::new(8.0, 16.0),
            0,
        ),
        // Overcast sky backdrop.
        facing_wall(0.0, 20.0, 1000.0, 300.0, z0 - 345.0, Vec2::new(3.0, 1.0), 0),
        // Fence line along the left.
        side_wall(
            -20.0,
            0.0,
            2.0,
            z0 - 5.0,
            z0 - 320.0,
            Vec2::new(24.0, 1.0),
            1,
            true,
        ),
    ];
    for k in 0..5 {
        let kz = z0 - 40.0 - 55.0 * k as f32;
        meshes.push(prop_box(
            Vec3::new(-8.0 + 5.0 * k as f32, 1.5, kz),
            Vec3::new(4.0, 3.0, 4.0),
            2,
        ));
    }
    FrameScene {
        meshes,
        camera: cam,
    }
}

/// The arena's world-fixed mesh set (`ut3`).
fn arena_meshes() -> Vec<Mesh> {
    vec![
        ground_plane(0.0, 45.0, -0.5, -75.0, Vec2::new(6.0, 10.0), 0),
        facing_wall(0.0, 0.0, 90.0, 14.0, -74.0, Vec2::new(9.0, 2.0), 1),
        side_wall(-45.0, 0.0, 14.0, -0.5, -74.0, Vec2::new(8.0, 2.0), 1, true),
        side_wall(45.0, 0.0, 14.0, -0.5, -74.0, Vec2::new(8.0, 2.0), 1, false),
        prop_box(Vec3::new(0.0, 3.0, -30.0), Vec3::new(6.0, 6.0, 6.0), 2),
        prop_box(Vec3::new(-14.0, 2.0, -42.0), Vec3::new(4.0, 4.0, 4.0), 2),
        prop_box(Vec3::new(13.0, 2.0, -20.0), Vec3::new(4.0, 4.0, 4.0), 2),
    ]
}

/// Arena: an orbiting camera around mixed facing/oblique architecture —
/// the lowest-anisotropy profile of the set.
fn ut3_frame(t: f32, aspect: f32) -> FrameScene {
    let angle = t * 0.01;
    let eye = Vec3::new(angle.cos() * 26.0, 4.0, -30.0 + angle.sin() * 26.0);
    let camera = Camera::new(eye, Vec3::new(0.0, 2.0, -30.0), FOVY, aspect);
    FrameScene {
        meshes: arena_meshes(),
        camera,
    }
}

/// Slow-orbit sequence preset: the arena geometry anchored in world space
/// with a camera orbiting at ~1/50 of `ut3`'s angular speed — sub-pixel
/// screen motion per frame, the primary temporal-reuse workload.
fn orbit_frame(t: f32, aspect: f32) -> FrameScene {
    let angle = t * 0.0002;
    let eye = Vec3::new(angle.cos() * 26.0, 4.0, -30.0 + angle.sin() * 26.0);
    let camera = Camera::new(eye, Vec3::new(0.0, 2.0, -30.0), FOVY, aspect);
    // The `ut3` arena layout with gentler UV tiling: the preset's surfaces
    // sit below screen Nyquist so sub-pixel blit drift degrades gracefully
    // (the perceptual regime temporal reuse is aimed at) instead of
    // decorrelating a near-aliasing pattern.
    let meshes = vec![
        ground_plane(0.0, 45.0, -0.5, -75.0, Vec2::new(2.0, 3.0), 0),
        facing_wall(0.0, 0.0, 90.0, 14.0, -74.0, Vec2::new(3.0, 1.0), 1),
        side_wall(-45.0, 0.0, 14.0, -0.5, -74.0, Vec2::new(3.0, 1.0), 1, true),
        side_wall(45.0, 0.0, 14.0, -0.5, -74.0, Vec2::new(3.0, 1.0), 1, false),
        prop_box(Vec3::new(0.0, 3.0, -30.0), Vec3::new(6.0, 6.0, 6.0), 2),
        prop_box(Vec3::new(-14.0, 2.0, -42.0), Vec3::new(4.0, 4.0, 4.0), 2),
        prop_box(Vec3::new(13.0, 2.0, -20.0), Vec3::new(4.0, 4.0, 4.0), 2),
    ];
    FrameScene { meshes, camera }
}

/// First-person dolly sequence preset: a doom3-style corridor anchored in
/// world space (unlike `doom3`, whose geometry tracks the camera) with the
/// camera creeping forward ~0.012 units/frame under a faint sway. The
/// corridor shells are chunked along z so the dirty-rect engine can
/// invalidate the fast-moving near segments while the depths keep reusing.
fn dolly_frame(t: f32, aspect: f32) -> FrameScene {
    let z = -t * 0.004;
    let sway_x = (t * 0.01).sin() * 0.15;
    let camera = Camera::new(
        Vec3::new(sway_x, 1.6, z),
        Vec3::new(sway_x * 0.5, 1.3, z - 30.0),
        FOVY,
        aspect,
    );
    // Geometric chunk boundaries: perspective compresses depth, so equal
    // *screen* extents need exponentially growing world-space segments —
    // the near chunks (fast parallax, few screen rows) can then rerender
    // without dragging the slow-moving depths with them.
    let bounds: [f32; 8] = [-0.4, -1.0, -2.5, -6.3, -16.0, -40.0, -100.0, -260.0];
    let z_far = bounds[bounds.len() - 1];
    let mut meshes = Vec::new();
    for pair in bounds.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        meshes.push(ground_plane(0.0, 4.0, a, b, Vec2::new(2.0, 2.0), 0));
        meshes.push(ceiling_plane(3.2, 4.0, a, b, Vec2::new(2.0, 2.0), 3));
        meshes.push(side_wall(
            -4.0,
            0.0,
            3.2,
            a,
            b,
            Vec2::new(2.0, 1.0),
            1,
            true,
        ));
        meshes.push(side_wall(
            4.0,
            0.0,
            3.2,
            a,
            b,
            Vec2::new(2.0, 1.0),
            1,
            false,
        ));
    }
    meshes.push(facing_wall(
        0.0,
        0.0,
        8.0,
        3.2,
        z_far + 1.0,
        Vec2::new(2.0, 1.0),
        1,
    ));
    for k in 0..9 {
        let kz = -12.0 - 25.0 * k as f32;
        meshes.push(prop_box(
            Vec3::new(if k % 2 == 0 { -3.4 } else { 3.4 }, 1.5, kz),
            Vec3::new(0.8, 1.2, 0.8),
            2,
        ));
    }
    FrameScene { meshes, camera }
}

/// Retro corridor: chunky textures, low resolution.
fn wolf_frame(t: f32, aspect: f32) -> FrameScene {
    let cam = forward_camera(t, 0.28, 1.5, 0.5, aspect);
    let z0 = cam.eye.z;
    let meshes = vec![
        ground_plane(0.0, 3.0, z0 - 0.4, z0 - 150.0, Vec2::new(1.0, 12.0), 0),
        ceiling_plane(3.0, 3.0, z0 - 0.4, z0 - 150.0, Vec2::new(1.0, 12.0), 0),
        side_wall(
            -3.0,
            0.0,
            3.0,
            z0 - 0.4,
            z0 - 150.0,
            Vec2::new(12.0, 1.0),
            1,
            true,
        ),
        side_wall(
            3.0,
            0.0,
            3.0,
            z0 - 0.4,
            z0 - 150.0,
            Vec2::new(12.0, 1.0),
            1,
            false,
        ),
        facing_wall(0.0, 0.0, 6.0, 3.0, z0 - 149.0, Vec2::new(1.5, 0.8), 1),
    ];
    FrameScene {
        meshes,
        camera: cam,
    }
}

/// The texture-stress benchmark: several overlapping oblique planes carrying
/// dense high-frequency textures — maximal texel demand per pixel.
fn rbench_frame(t: f32, aspect: f32) -> FrameScene {
    let cam = forward_camera(t, 0.2, 2.2, 1.0, aspect);
    let z0 = cam.eye.z;
    let meshes = vec![
        ground_plane(0.0, 80.0, z0 - 0.5, z0 - 300.0, Vec2::new(28.0, 70.0), 0),
        // A ramp rising to the left.
        Mesh::quad(
            [
                Vec3::new(-60.0, 0.0, z0 - 10.0),
                Vec3::new(-5.0, 0.0, z0 - 10.0),
                Vec3::new(-5.0, 30.0, z0 - 240.0),
                Vec3::new(-60.0, 38.0, z0 - 240.0),
            ],
            Vec2::new(20.0, 50.0),
            1,
        ),
        // A canted billboard wall on the right.
        Mesh::quad(
            [
                Vec3::new(10.0, 0.0, z0 - 30.0),
                Vec3::new(70.0, 0.0, z0 - 160.0),
                Vec3::new(70.0, 22.0, z0 - 160.0),
                Vec3::new(10.0, 22.0, z0 - 30.0),
            ],
            Vec2::new(24.0, 5.0),
            2,
        ),
        facing_wall(0.0, 0.0, 200.0, 45.0, z0 - 290.0, Vec2::new(26.0, 7.0), 3),
    ];
    FrameScene {
        meshes,
        camera: cam,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patu_raster::Pipeline;

    const ALL: [&str; 10] = [
        "hl2", "doom3", "grid", "nfs", "stal", "ut3", "wolf", "rbench", "orbit", "dolly",
    ];

    #[test]
    fn unknown_name_errors() {
        let err = Workload::build("quake", (640, 480)).unwrap_err();
        assert!(err.to_string().contains("quake"));
    }

    #[test]
    fn all_workloads_build() {
        for name in ALL {
            let w = Workload::build(name, (320, 240)).expect(name);
            assert_eq!(w.name(), name);
            assert!(!w.textures().is_empty(), "{name} has textures");
        }
    }

    #[test]
    fn texture_addresses_do_not_overlap() {
        for name in ALL {
            let w = Workload::build(name, (320, 240)).unwrap();
            let mut regions: Vec<(u64, u64)> = w
                .textures()
                .iter()
                .map(|t| (t.base_address(), t.base_address() + t.size_bytes()))
                .collect();
            regions.sort_unstable();
            for pair in regions.windows(2) {
                assert!(
                    pair[0].1 <= pair[1].0,
                    "{name}: overlapping texture regions"
                );
            }
        }
    }

    #[test]
    fn material_indices_within_texture_table() {
        for name in ALL {
            let w = Workload::build(name, (320, 240)).unwrap();
            let frame = w.frame(0);
            for m in &frame.meshes {
                assert!(
                    m.material < w.textures().len(),
                    "{name}: material {}",
                    m.material
                );
            }
        }
    }

    #[test]
    fn every_workload_renders_fragments() {
        for name in ALL {
            let w = Workload::build(name, (320, 240)).unwrap();
            let frame = w.frame(0);
            let out = Pipeline::new(320, 240).run(&frame.meshes, &frame.camera);
            let coverage = out.stats.fragments_shaded as f64 / (320.0 * 240.0);
            assert!(
                coverage > 0.5,
                "{name}: only {coverage:.2} of pixels covered"
            );
        }
    }

    #[test]
    fn frames_are_deterministic() {
        let w = Workload::build("doom3", (320, 240)).unwrap();
        let a = w.frame(42);
        let b = w.frame(42);
        assert_eq!(a.meshes.len(), b.meshes.len());
        assert_eq!(a.camera, b.camera);
    }

    #[test]
    fn camera_advances_between_frames() {
        for name in [
            "hl2", "doom3", "grid", "nfs", "stal", "wolf", "rbench", "orbit", "dolly",
        ] {
            let w = Workload::build(name, (320, 240)).unwrap();
            let a = w.frame(0).camera;
            let b = w.frame(50).camera;
            assert_ne!(a.eye, b.eye, "{name}: camera must move");
        }
    }

    #[test]
    fn sequence_presets_are_world_fixed_and_slow() {
        for name in ["orbit", "dolly"] {
            let w = Workload::build(name, (320, 240)).unwrap();
            let a = w.frame(0);
            let b = w.frame(1);
            assert_eq!(
                a.meshes, b.meshes,
                "{name}: geometry must be anchored in world space"
            );
            assert_ne!(a.camera.eye, b.camera.eye, "{name}: camera must creep");
            let d = b.camera.eye - a.camera.eye;
            let step = (d.x * d.x + d.y * d.y + d.z * d.z).sqrt();
            assert!(step < 0.1, "{name}: slow camera, moved {step} units/frame");
        }
    }

    #[test]
    fn corridor_workloads_have_high_anisotropy() {
        // doom3/grid must present large-N footprints; ut3 much fewer.
        use patu_texture::{Footprint, MAX_ANISO};
        let mut frac = std::collections::HashMap::new();
        for name in ["doom3", "grid", "ut3"] {
            let w = Workload::build(name, (320, 240)).unwrap();
            let frame = w.frame(0);
            let out = Pipeline::new(320, 240).run(&frame.meshes, &frame.camera);
            let (mut high, mut total) = (0u64, 0u64);
            for f in out.fragments() {
                let tex = &w.textures()[f.material];
                let fp = Footprint::from_derivatives(
                    f.duv_dx,
                    f.duv_dy,
                    tex.width(),
                    tex.height(),
                    MAX_ANISO,
                );
                total += 1;
                if fp.n >= 4 {
                    high += 1;
                }
            }
            frac.insert(name, high as f64 / total as f64);
        }
        // After calibration toward the paper's traffic profile (texel
        // fetches drop ~28% when AF is disabled), high-N pixels are a
        // minority everywhere — but they must exist, or AF (and PATU)
        // would have nothing to do.
        for name in ["doom3", "grid", "ut3"] {
            assert!(
                frac[name] > 0.02 && frac[name] < 0.8,
                "{name} high-N fraction {}",
                frac[name]
            );
        }
    }

    #[test]
    fn loop_wraps_camera_path() {
        let w = Workload::build("grid", (320, 240)).unwrap();
        let a = w.frame(0).camera;
        let b = w.frame(w.loop_frames()).camera;
        assert_eq!(a.eye, b.eye, "path loops");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_resolution_panics() {
        let _ = Workload::build("hl2", (0, 480));
    }
}
