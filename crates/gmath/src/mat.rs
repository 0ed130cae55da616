//! Column-major 4×4 matrices with the usual graphics transforms.

use crate::vec::{Vec3, Vec4};
use std::ops::Mul;

/// A column-major 4×4 `f32` matrix.
///
/// Storage is `cols[c][r]`: `cols[3]` is the translation column. Multiplying
/// a [`Vec4`] treats it as a column vector (`M * v`).
///
/// ```
/// use patu_gmath::{Mat4, Vec3, Vec4};
/// let t = Mat4::translation(Vec3::new(1.0, 2.0, 3.0));
/// let p = t * Vec4::new(0.0, 0.0, 0.0, 1.0);
/// assert_eq!(p.truncate(), Vec3::new(1.0, 2.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// The four columns of the matrix.
    pub cols: [[f32; 4]; 4],
}

impl Default for Mat4 {
    fn default() -> Mat4 {
        Mat4::IDENTITY
    }
}

impl Mat4 {
    /// The identity matrix.
    pub const IDENTITY: Mat4 = Mat4 {
        cols: [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
    };

    /// Builds a matrix from four column vectors.
    #[inline]
    pub const fn from_cols(c0: [f32; 4], c1: [f32; 4], c2: [f32; 4], c3: [f32; 4]) -> Mat4 {
        Mat4 {
            cols: [c0, c1, c2, c3],
        }
    }

    /// Translation by `t`.
    pub fn translation(t: Vec3) -> Mat4 {
        let mut m = Mat4::IDENTITY;
        m.cols[3] = [t.x, t.y, t.z, 1.0];
        m
    }

    /// Right-handed view matrix looking from `eye` toward `target`.
    ///
    /// The camera looks down its local −Z, matching OpenGL conventions.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Mat4 {
        let f = (target - eye).normalized();
        let s = f.cross(up).normalized();
        let u = s.cross(f);
        Mat4::from_cols(
            [s.x, u.x, -f.x, 0.0],
            [s.y, u.y, -f.y, 0.0],
            [s.z, u.z, -f.z, 0.0],
            [-s.dot(eye), -u.dot(eye), f.dot(eye), 1.0],
        )
    }

    /// Right-handed perspective projection with a `[-1, 1]` clip-space depth
    /// range (OpenGL style).
    ///
    /// `fovy` is the vertical field of view in radians.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `fovy`, `aspect` or the depth range is
    /// degenerate.
    pub fn perspective(fovy: f32, aspect: f32, near: f32, far: f32) -> Mat4 {
        debug_assert!(fovy > 0.0 && aspect > 0.0 && far > near && near > 0.0);
        let f = 1.0 / (fovy * 0.5).tan();
        Mat4::from_cols(
            [f / aspect, 0.0, 0.0, 0.0],
            [0.0, f, 0.0, 0.0],
            [0.0, 0.0, (far + near) / (near - far), -1.0],
            [0.0, 0.0, (2.0 * far * near) / (near - far), 0.0],
        )
    }

    /// Returns row `r` as a [`Vec4`].
    ///
    /// # Panics
    ///
    /// Panics if `r >= 4`.
    #[inline]
    pub fn row(&self, r: usize) -> Vec4 {
        Vec4::new(
            self.cols[0][r],
            self.cols[1][r],
            self.cols[2][r],
            self.cols[3][r],
        )
    }

    /// Returns column `c` as a [`Vec4`].
    ///
    /// # Panics
    ///
    /// Panics if `c >= 4`.
    #[inline]
    pub fn col(&self, c: usize) -> Vec4 {
        let v = self.cols[c];
        Vec4::new(v[0], v[1], v[2], v[3])
    }

    /// Transforms a point (implicit `w = 1`) and drops the homogeneous
    /// coordinate *without* dividing. Use for affine matrices only.
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        (*self * p.extend(1.0)).truncate()
    }
}

impl Mul for Mat4 {
    type Output = Mat4;

    fn mul(self, rhs: Mat4) -> Mat4 {
        let mut out = [[0.0f32; 4]; 4];
        for (c, out_col) in out.iter_mut().enumerate() {
            for (r, out_val) in out_col.iter_mut().enumerate() {
                let mut acc = 0.0;
                for k in 0..4 {
                    acc += self.cols[k][r] * rhs.cols[c][k];
                }
                *out_val = acc;
            }
        }
        Mat4 { cols: out }
    }
}

impl Mul<Vec4> for Mat4 {
    type Output = Vec4;

    #[inline]
    fn mul(self, v: Vec4) -> Vec4 {
        Vec4::new(
            self.row(0).dot(v),
            self.row(1).dot(v),
            self.row(2).dot(v),
            self.row(3).dot(v),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn identity_is_noop() {
        let v = Vec4::new(1.0, -2.0, 3.0, 1.0);
        assert_eq!(Mat4::IDENTITY * v, v);
    }

    #[test]
    fn translation_moves_points_not_directions() {
        let t = Mat4::translation(Vec3::new(5.0, 0.0, 0.0));
        assert_eq!(t.transform_point(Vec3::ZERO), Vec3::new(5.0, 0.0, 0.0));
        let dir = Vec4::new(0.0, 1.0, 0.0, 0.0);
        assert_eq!(t * dir, dir);
    }

    #[test]
    fn matrix_product_composes_right_to_left() {
        let t = Mat4::translation(Vec3::new(1.0, 0.0, 0.0));
        let s = Mat4::from_cols(
            [2.0, 0.0, 0.0, 0.0],
            [0.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        );
        // (t * s) first scales then translates.
        let p = (t * s).transform_point(Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(p, Vec3::new(3.0, 0.0, 0.0));
    }

    #[test]
    fn look_at_maps_eye_to_origin() {
        let eye = Vec3::new(0.0, 0.0, 5.0);
        let view = Mat4::look_at(eye, Vec3::ZERO, Vec3::UP);
        let p = view.transform_point(eye);
        assert!(p.length() < 1e-5);
    }

    #[test]
    fn look_at_target_on_negative_z() {
        let view = Mat4::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, Vec3::UP);
        let p = view.transform_point(Vec3::ZERO);
        assert!(p.z < 0.0, "target must be in front (−Z), got {p}");
    }

    #[test]
    fn perspective_maps_near_far_to_clip_range() {
        let proj = Mat4::perspective(1.0, 1.0, 1.0, 10.0);
        let near = (proj * Vec4::new(0.0, 0.0, -1.0, 1.0)).perspective_divide();
        let far = (proj * Vec4::new(0.0, 0.0, -10.0, 1.0)).perspective_divide();
        assert!(
            approx_eq(near.z, -1.0, 1e-5),
            "near plane -> z=-1, got {}",
            near.z
        );
        assert!(
            approx_eq(far.z, 1.0, 1e-5),
            "far plane -> z=+1, got {}",
            far.z
        );
    }

    #[test]
    fn perspective_w_is_view_depth() {
        let proj = Mat4::perspective(1.0, 1.0, 0.1, 100.0);
        let clip = proj * Vec4::new(0.0, 0.0, -7.0, 1.0);
        assert!(approx_eq(clip.w, 7.0, 1e-5));
    }

    #[test]
    fn row_col_accessors() {
        let m = Mat4::translation(Vec3::new(7.0, 8.0, 9.0));
        assert_eq!(m.col(3), Vec4::new(7.0, 8.0, 9.0, 1.0));
        assert_eq!(m.row(0), Vec4::new(1.0, 0.0, 0.0, 7.0));
    }
}
