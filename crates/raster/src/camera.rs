//! Camera state: view and projection matrices.

use patu_gmath::{Mat4, Vec3};

/// A perspective camera.
///
/// ```
/// use patu_raster::Camera;
/// use patu_gmath::Vec3;
/// let cam = Camera::new(
///     Vec3::new(0.0, 2.0, 5.0),
///     Vec3::ZERO,
///     60f32.to_radians(),
///     16.0 / 9.0,
/// );
/// let vp = cam.view_projection();
/// let clip = vp * Vec3::ZERO.extend(1.0);
/// assert!(clip.w > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    /// Eye position in world space.
    pub eye: Vec3,
    /// Point the camera looks at.
    pub target: Vec3,
    /// World-space up hint.
    pub up: Vec3,
    /// Vertical field of view in radians.
    pub fovy: f32,
    /// Viewport aspect ratio (width / height).
    pub aspect: f32,
    /// Near clip distance.
    pub near: f32,
    /// Far clip distance.
    pub far: f32,
}

impl Camera {
    /// Creates a camera with default near/far planes (0.1 / 500).
    pub fn new(eye: Vec3, target: Vec3, fovy: f32, aspect: f32) -> Camera {
        Camera {
            eye,
            target,
            up: Vec3::UP,
            fovy,
            aspect,
            near: 0.1,
            far: 500.0,
        }
    }

    /// The world-to-view matrix.
    pub fn view(&self) -> Mat4 {
        Mat4::look_at(self.eye, self.target, self.up)
    }

    /// The view-to-clip projection matrix.
    pub fn projection(&self) -> Mat4 {
        Mat4::perspective(self.fovy, self.aspect, self.near, self.far)
    }

    /// The combined world-to-clip matrix.
    pub fn view_projection(&self) -> Mat4 {
        self.projection() * self.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patu_gmath::Frustum;

    #[test]
    fn target_is_visible() {
        let cam = Camera::new(Vec3::new(0.0, 1.0, 5.0), Vec3::ZERO, 1.0, 1.0);
        let clip = cam.view_projection() * Vec3::ZERO.extend(1.0);
        assert!(Frustum::contains(clip), "look-at target must be in frustum");
    }

    #[test]
    fn point_behind_camera_is_clipped() {
        let cam = Camera::new(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0, 1.0);
        let behind = cam.view_projection() * Vec3::new(0.0, 0.0, 10.0).extend(1.0);
        assert!(!Frustum::contains(behind));
    }
}
