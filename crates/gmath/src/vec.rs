//! 2-, 3- and 4-component `f32` vectors.
//!
//! These are plain-old-data types in the C spirit: fields are public and the
//! types are `Copy`. All arithmetic operators are component-wise; dot/cross
//! products and norms are explicit methods.

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 2D `f32` vector (screen positions, texture coordinates, derivatives).
///
/// ```
/// use patu_gmath::Vec2;
/// let uv = Vec2::new(0.25, 0.75);
/// assert_eq!(uv * 4.0, Vec2::new(1.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f32,
    /// Vertical component.
    pub y: f32,
}

/// A 3D `f32` vector (positions, normals, RGB colors).
///
/// ```
/// use patu_gmath::Vec3;
/// let n = Vec3::new(0.0, 3.0, 4.0).normalized();
/// assert!((n.length() - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

/// A 4D `f32` vector (homogeneous positions, RGBA colors).
///
/// ```
/// use patu_gmath::Vec4;
/// let p = Vec4::new(2.0, 4.0, 6.0, 2.0);
/// assert_eq!(p.perspective_divide().x, 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec4 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
    /// W (homogeneous) component.
    pub w: f32,
}

macro_rules! impl_binops {
    ($ty:ident, $($f:ident),+) => {
        impl Add for $ty {
            type Output = $ty;
            #[inline]
            fn add(self, o: $ty) -> $ty { $ty { $($f: self.$f + o.$f),+ } }
        }
        impl Sub for $ty {
            type Output = $ty;
            #[inline]
            fn sub(self, o: $ty) -> $ty { $ty { $($f: self.$f - o.$f),+ } }
        }
        impl Mul for $ty {
            type Output = $ty;
            #[inline]
            fn mul(self, o: $ty) -> $ty { $ty { $($f: self.$f * o.$f),+ } }
        }
        impl Mul<f32> for $ty {
            type Output = $ty;
            #[inline]
            fn mul(self, s: f32) -> $ty { $ty { $($f: self.$f * s),+ } }
        }
        impl Mul<$ty> for f32 {
            type Output = $ty;
            #[inline]
            fn mul(self, v: $ty) -> $ty { $ty { $($f: v.$f * self),+ } }
        }
        impl Div<f32> for $ty {
            type Output = $ty;
            #[inline]
            fn div(self, s: f32) -> $ty { $ty { $($f: self.$f / s),+ } }
        }
        impl Neg for $ty {
            type Output = $ty;
            #[inline]
            fn neg(self) -> $ty { $ty { $($f: -self.$f),+ } }
        }
        impl AddAssign for $ty {
            #[inline]
            fn add_assign(&mut self, o: $ty) { $(self.$f += o.$f;)+ }
        }
        impl SubAssign for $ty {
            #[inline]
            fn sub_assign(&mut self, o: $ty) { $(self.$f -= o.$f;)+ }
        }
        impl MulAssign<f32> for $ty {
            #[inline]
            fn mul_assign(&mut self, s: f32) { $(self.$f *= s;)+ }
        }
        impl DivAssign<f32> for $ty {
            #[inline]
            fn div_assign(&mut self, s: f32) { $(self.$f /= s;)+ }
        }
    };
}

impl_binops!(Vec2, x, y);
impl_binops!(Vec3, x, y, z);
impl_binops!(Vec4, x, y, z, w);

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };
    /// The all-ones vector.
    pub const ONE: Vec2 = Vec2 { x: 1.0, y: 1.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32) -> Vec2 {
        Vec2 { x, y }
    }

    /// Creates a vector with both components equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Vec2 {
        Vec2 { x: v, y: v }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec2) -> f32 {
        self.x * o.x + self.y * o.y
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Returns the unit vector in this direction.
    ///
    /// Returns [`Vec2::ZERO`] for the zero vector instead of producing NaNs.
    #[inline]
    pub fn normalized(self) -> Vec2 {
        let len = self.length();
        if len > 0.0 {
            self / len
        } else {
            Vec2::ZERO
        }
    }

    /// 2D cross product (z-component of the 3D cross product); the signed
    /// parallelogram area spanned by `self` and `o`.
    #[inline]
    pub fn cross(self, o: Vec2) -> f32 {
        self.x * o.y - self.y * o.x
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x.min(o.x), self.y.min(o.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x.max(o.x), self.y.max(o.y))
    }

    /// Linear interpolation between `self` and `o`.
    #[inline]
    pub fn lerp(self, o: Vec2, t: f32) -> Vec2 {
        self + (o - self) * t
    }
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// The all-ones vector.
    pub const ONE: Vec3 = Vec3 {
        x: 1.0,
        y: 1.0,
        z: 1.0,
    };
    /// World up (+Y).
    pub const UP: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Vec3 {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Vec3 {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec3) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Returns the unit vector in this direction.
    ///
    /// Returns [`Vec3::ZERO`] for the zero vector instead of producing NaNs.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let len = self.length();
        if len > 0.0 {
            self / len
        } else {
            Vec3::ZERO
        }
    }

    /// Linear interpolation between `self` and `o`.
    #[inline]
    pub fn lerp(self, o: Vec3, t: f32) -> Vec3 {
        self + (o - self) * t
    }

    /// Extends to a [`Vec4`] with the given `w`.
    #[inline]
    pub fn extend(self, w: f32) -> Vec4 {
        Vec4::new(self.x, self.y, self.z, w)
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }
}

impl Vec4 {
    /// The zero vector.
    pub const ZERO: Vec4 = Vec4 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
        w: 0.0,
    };
    /// The all-ones vector.
    pub const ONE: Vec4 = Vec4 {
        x: 1.0,
        y: 1.0,
        z: 1.0,
        w: 1.0,
    };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Vec4 {
        Vec4 { x, y, z, w }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Vec4 {
        Vec4 {
            x: v,
            y: v,
            z: v,
            w: v,
        }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec4) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z + self.w * o.w
    }

    /// Drops `w`, returning the XYZ part.
    #[inline]
    pub fn truncate(self) -> Vec3 {
        Vec3::new(self.x, self.y, self.z)
    }

    /// Divides XYZ by `w` (perspective divide), keeping `w` for later
    /// perspective-correct interpolation.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `w` is zero.
    #[inline]
    pub fn perspective_divide(self) -> Vec4 {
        debug_assert!(self.w != 0.0, "perspective divide by w = 0");
        Vec4::new(self.x / self.w, self.y / self.w, self.z / self.w, self.w)
    }

    /// Linear interpolation between `self` and `o`.
    #[inline]
    pub fn lerp(self, o: Vec4, t: f32) -> Vec4 {
        self + (o - self) * t
    }
}

impl From<(f32, f32)> for Vec2 {
    #[inline]
    fn from((x, y): (f32, f32)) -> Vec2 {
        Vec2::new(x, y)
    }
}

impl From<(f32, f32, f32)> for Vec3 {
    #[inline]
    fn from((x, y, z): (f32, f32, f32)) -> Vec3 {
        Vec3::new(x, y, z)
    }
}

impl From<(f32, f32, f32, f32)> for Vec4 {
    #[inline]
    fn from((x, y, z, w): (f32, f32, f32, f32)) -> Vec4 {
        Vec4::new(x, y, z, w)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl fmt::Display for Vec4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {}, {})", self.x, self.y, self.z, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec2_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, Vec2::new(2.0, 4.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
    }

    #[test]
    fn vec2_dot_cross() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn vec2_normalize_zero_is_zero() {
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
    }

    #[test]
    fn vec3_cross_right_handed() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(x.cross(y), Vec3::new(0.0, 0.0, 1.0));
    }

    #[test]
    fn vec3_normalize_length_one() {
        let v = Vec3::new(2.0, -3.0, 6.0).normalized();
        assert!((v.length() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn vec3_lerp_midpoint() {
        let a = Vec3::ZERO;
        let b = Vec3::splat(2.0);
        assert_eq!(a.lerp(b, 0.5), Vec3::splat(1.0));
    }

    #[test]
    fn vec4_perspective_divide() {
        let p = Vec4::new(4.0, 8.0, 12.0, 4.0);
        let d = p.perspective_divide();
        assert_eq!(d.truncate(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(d.w, 4.0, "w preserved for perspective-correct interp");
    }

    #[test]
    fn vec4_dot() {
        let a = Vec4::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a.dot(Vec4::ONE), 10.0);
    }

    #[test]
    fn conversions_from_tuples() {
        assert_eq!(Vec2::from((1.0, 2.0)), Vec2::new(1.0, 2.0));
        assert_eq!(Vec3::from((1.0, 2.0, 3.0)), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(
            Vec4::from((1.0, 2.0, 3.0, 4.0)),
            Vec4::new(1.0, 2.0, 3.0, 4.0)
        );
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", Vec2::new(1.0, 2.0)), "(1, 2)");
        assert_eq!(format!("{}", Vec3::ZERO), "(0, 0, 0)");
        assert_eq!(format!("{}", Vec4::ONE), "(1, 1, 1, 1)");
    }

    #[test]
    fn compound_assignment() {
        let mut v = Vec3::new(1.0, 1.0, 1.0);
        v += Vec3::ONE;
        v -= Vec3::new(0.5, 0.5, 0.5);
        v *= 2.0;
        v /= 3.0;
        assert_eq!(v, Vec3::splat(1.0));
    }

    #[test]
    fn min_max_componentwise() {
        let a = Vec2::new(1.0, 5.0);
        let b = Vec2::new(3.0, 2.0);
        assert_eq!(a.min(b), Vec2::new(1.0, 2.0));
        assert_eq!(a.max(b), Vec2::new(3.0, 5.0));
    }
}
