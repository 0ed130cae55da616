//! Vertices, meshes and materials consumed by the pipeline.

use patu_gmath::{Mat4, Vec2, Vec3};

/// A vertex with position and texture coordinates — the attributes the
/// paper's *Vertex Processing* stage computes (position, color, texture
/// coordinate; we fold color into a per-mesh tint).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vertex {
    /// Object-space position.
    pub position: Vec3,
    /// Texture coordinates (may exceed `[0,1]` for tiled surfaces).
    pub uv: Vec2,
}

impl Vertex {
    /// Creates a vertex.
    pub const fn new(position: Vec3, uv: Vec2) -> Vertex {
        Vertex { position, uv }
    }
}

/// An indexed triangle mesh bound to one material (texture slot).
///
/// ```
/// use patu_raster::{Mesh, Vertex};
/// use patu_gmath::{Vec2, Vec3};
/// let quad = Mesh::quad(
///     [
///         Vec3::new(0.0, 0.0, 0.0),
///         Vec3::new(1.0, 0.0, 0.0),
///         Vec3::new(1.0, 1.0, 0.0),
///         Vec3::new(0.0, 1.0, 0.0),
///     ],
///     Vec2::new(4.0, 4.0),
///     2,
/// );
/// assert_eq!(quad.triangles.len(), 2);
/// assert_eq!(quad.material, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mesh {
    /// Vertex pool.
    pub vertices: Vec<Vertex>,
    /// Counter-clockwise indexed triangles into [`Mesh::vertices`].
    pub triangles: Vec<[u32; 3]>,
    /// Material slot: an index into the scene's texture table.
    pub material: usize,
    /// Object-to-world transform applied by vertex processing.
    pub transform: Mat4,
}

impl Mesh {
    /// Creates a mesh with an identity transform.
    ///
    /// # Panics
    ///
    /// Panics if any triangle index is out of bounds.
    pub fn new(vertices: Vec<Vertex>, triangles: Vec<[u32; 3]>, material: usize) -> Mesh {
        let n = vertices.len() as u32;
        for t in &triangles {
            assert!(
                t.iter().all(|&i| i < n),
                "triangle index out of bounds: {t:?} with {n} vertices"
            );
        }
        Mesh {
            vertices,
            triangles,
            material,
            transform: Mat4::IDENTITY,
        }
    }

    /// Sets the object-to-world transform, consuming and returning the mesh.
    #[must_use]
    pub fn with_transform(mut self, transform: Mat4) -> Mesh {
        self.transform = transform;
        self
    }

    /// Convenience: a two-triangle quad from four corners (counter-clockwise
    /// when viewed from the front), UV-tiled `uv_scale` times across it.
    pub fn quad(corners: [Vec3; 4], uv_scale: Vec2, material: usize) -> Mesh {
        let uvs = [
            Vec2::new(0.0, 0.0),
            Vec2::new(uv_scale.x, 0.0),
            Vec2::new(uv_scale.x, uv_scale.y),
            Vec2::new(0.0, uv_scale.y),
        ];
        let vertices = corners
            .iter()
            .zip(uvs)
            .map(|(&p, uv)| Vertex::new(p, uv))
            .collect();
        Mesh::new(vertices, vec![[0, 1, 2], [0, 2, 3]], material)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_has_two_ccw_triangles() {
        let q = Mesh::quad(
            [
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(1.0, 1.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
            ],
            Vec2::ONE,
            0,
        );
        assert_eq!(q.triangles.len(), 2);
        assert_eq!(q.vertices.len(), 4);
        // Shared diagonal 0-2.
        assert_eq!(q.triangles[0], [0, 1, 2]);
        assert_eq!(q.triangles[1], [0, 2, 3]);
    }

    #[test]
    fn quad_uv_tiling() {
        let q = Mesh::quad(
            [Vec3::ZERO, Vec3::ZERO, Vec3::ZERO, Vec3::ZERO],
            Vec2::new(8.0, 2.0),
            0,
        );
        assert_eq!(q.vertices[2].uv, Vec2::new(8.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_index_panics() {
        let _ = Mesh::new(
            vec![Vertex::new(Vec3::ZERO, Vec2::ZERO)],
            vec![[0, 1, 2]],
            0,
        );
    }

    #[test]
    fn with_transform_sets_transform() {
        let m = Mesh::new(vec![], vec![], 0)
            .with_transform(Mat4::translation(Vec3::new(1.0, 0.0, 0.0)));
        assert_eq!(m.transform.cols[3][0], 1.0);
    }
}
