//! Plane vectors in `f64`.
//!
//! Spatial quantities stay in `f64` throughout the reproduction (see the
//! precision policy in the `rv_numeric` crate docs); the exactness budget
//! is spent on time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D vector / point.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Builds a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Vec2 {
        Vec2 { x, y }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// z-component of the cross product (signed parallelogram area).
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn dist(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Squared distance to another point.
    #[inline]
    pub fn dist_sq(self, other: Vec2) -> f64 {
        (self - other).norm_sq()
    }

    /// Unit vector in the same direction; `None` for (near-)zero vectors.
    pub fn normalized(self) -> Option<Vec2> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self / n)
        }
    }

    /// Counterclockwise rotation by `radians`.
    pub fn rotated(self, radians: f64) -> Vec2 {
        let (s, c) = radians.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// Counterclockwise perpendicular (rotation by π/2).
    #[inline]
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Mirror across the x-axis (the chirality flip `diag(1, −1)`).
    #[inline]
    pub fn conj(self) -> Vec2 {
        Vec2::new(self.x, -self.y)
    }

    /// Linear interpolation: `self` at `s = 0`, `other` at `s = 1`.
    #[inline]
    pub fn lerp(self, other: Vec2, s: f64) -> Vec2 {
        self + (other - self) * s
    }

    /// Componentwise finite check.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}
impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}
impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, s: f64) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}
impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, s: f64) -> Vec2 {
        Vec2::new(self.x / s, self.y / s)
    }
}
impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}
impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}
impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl fmt::Debug for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.x, self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
    }

    #[test]
    fn products() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a.dot(b), 1.0);
        assert_eq!(a.cross(b), -7.0);
        assert_eq!(a.perp().dot(a), 0.0);
    }

    #[test]
    fn norms_and_distances() {
        let a = Vec2::new(3.0, 4.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(Vec2::ZERO.dist(a), 5.0);
        assert_eq!(a.dist_sq(Vec2::ZERO), 25.0);
    }

    #[test]
    fn rotation_preserves_norm() {
        let a = Vec2::new(2.0, -3.0);
        for &ang in &[0.1, 1.0, std::f64::consts::PI, -2.5] {
            assert!((a.rotated(ang).norm() - a.norm()).abs() < EPS);
        }
        let r = Vec2::new(1.0, 0.0).rotated(std::f64::consts::FRAC_PI_2);
        assert!((r - Vec2::new(0.0, 1.0)).norm() < EPS);
    }

    #[test]
    fn normalization() {
        assert!(Vec2::ZERO.normalized().is_none());
        let u = Vec2::new(3.0, 4.0).normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn conj_flips_y() {
        assert_eq!(Vec2::new(1.0, 2.0).conj(), Vec2::new(1.0, -2.0));
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(1.0, 2.0));
    }
}
