//! Private coordinate systems (frames) and chirality.
//!
//! An agent's private system is described relative to the absolute system
//! by a rotation `φ`, a chirality `χ`, a scale (its private length unit,
//! `τ·v` in absolute units) and an origin. Mapping a local vector `p` to
//! absolute coordinates is `origin + scale · R_φ · M_χ · p` with
//! `M_χ = diag(1, χ)` — Section 1.2 of the paper.

use crate::angle::Angle;
use crate::vec2::Vec2;
use std::fmt;

/// Handedness of a private coordinate system relative to the absolute one.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Chirality {
    /// Same handedness (`χ = +1`).
    Plus,
    /// Opposite handedness (`χ = −1`).
    Minus,
}

impl Chirality {
    /// `+1.0` or `−1.0`.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            Chirality::Plus => 1.0,
            Chirality::Minus => -1.0,
        }
    }

    /// True for `χ = +1`.
    #[inline]
    pub fn is_plus(self) -> bool {
        matches!(self, Chirality::Plus)
    }

    /// Applies the chirality to a local direction angle (`θ ↦ χ·θ`).
    pub fn apply(self, theta: &Angle) -> Angle {
        match self {
            Chirality::Plus => theta.clone(),
            Chirality::Minus => -theta.clone(),
        }
    }
}

impl fmt::Display for Chirality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Chirality::Plus => write!(f, "+1"),
            Chirality::Minus => write!(f, "-1"),
        }
    }
}

/// An orientation-only frame: rotation + chirality (no origin/scale), used
/// to map local *directions* to absolute directions exactly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Orientation {
    /// Rotation of the frame's x-axis w.r.t. the absolute x-axis.
    pub phi: Angle,
    /// Handedness.
    pub chi: Chirality,
}

impl Orientation {
    /// The identity orientation (the absolute system itself).
    pub fn identity() -> Orientation {
        Orientation {
            phi: Angle::zero(),
            chi: Chirality::Plus,
        }
    }

    /// Maps a local direction to the absolute direction: `φ + χ·θ`.
    pub fn to_absolute(&self, theta: &Angle) -> Angle {
        self.phi.compose_local(theta, self.chi.is_plus())
    }

    /// Maps a local vector to an absolute vector (unit scale).
    pub fn apply_vec(&self, v: Vec2) -> Vec2 {
        let flipped = match self.chi {
            Chirality::Plus => v,
            Chirality::Minus => v.conj(),
        };
        flipped.rotated(self.phi.radians())
    }
}

/// A full similarity frame: orientation + uniform scale + origin.
///
/// With simultaneous start, identical clocks and a common program, agent
/// B's position is always the image of agent A's position under the fixed
/// similarity `T(p) = origin + scale·R_φ·M_χ·p`; the fixed point of `T`
/// drives the correctness of the reconstructed `CGKK` procedure (see
/// the `cgkk` module docs in `rv-baselines`).
#[derive(Clone, Debug)]
pub struct Similarity {
    /// Orientation part.
    pub orient: Orientation,
    /// Uniform scale (the agent's private length unit, `τ·v`).
    pub scale: f64,
    /// Image of the local origin.
    pub origin: Vec2,
}

impl Similarity {
    /// Applies the similarity to a point.
    pub fn apply(&self, p: Vec2) -> Vec2 {
        self.origin + self.orient.apply_vec(p) * self.scale
    }

    /// The unique fixed point of the similarity, if one exists.
    ///
    /// Solves `(I − s·R_φ·M_χ)·c = origin`. For `χ = +1` the map is a
    /// rotation-scale: singular iff `s = 1 ∧ φ = 0`. For `χ = −1` it is a
    /// reflection-scale with eigenvalues `±s`: singular iff `s = 1`.
    pub fn fixed_point(&self) -> Option<Vec2> {
        let s = self.scale;
        let (c, si) = self.orient.phi.cos_sin();
        let chi = self.orient.chi.sign();
        // Linear part L = s·R_φ·M_χ = s·[[c, -si·χ], [si, c·χ]]
        let l11 = s * c;
        let l12 = -s * si * chi;
        let l21 = s * si;
        let l22 = s * c * chi;
        // Solve (I - L) x = origin
        let a11 = 1.0 - l11;
        let a12 = -l12;
        let a21 = -l21;
        let a22 = 1.0 - l22;
        let det = a11 * a22 - a12 * a21;
        if det.abs() < 1e-12 {
            return None;
        }
        let b = self.origin;
        Some(Vec2::new(
            (b.x * a22 - b.y * a12) / det,
            (b.y * a11 - b.x * a21) / det,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn chirality_signs() {
        assert_eq!(Chirality::Plus.sign(), 1.0);
        assert_eq!(Chirality::Minus.sign(), -1.0);
        assert_eq!(
            Chirality::Minus.apply(&Angle::quarter()),
            Angle::three_quarters()
        );
    }

    #[test]
    fn orientation_direction_mapping() {
        let o = Orientation {
            phi: Angle::pi_frac(1, 2),
            chi: Chirality::Plus,
        };
        assert_eq!(o.to_absolute(&Angle::zero()), Angle::quarter());
        let om = Orientation {
            phi: Angle::pi_frac(1, 2),
            chi: Chirality::Minus,
        };
        // φ − θ = π/2 − π/2 = 0
        assert_eq!(om.to_absolute(&Angle::quarter()), Angle::zero());
    }

    #[test]
    fn orientation_vector_mapping_matches_angles() {
        let o = Orientation {
            phi: Angle::pi_frac(1, 3),
            chi: Chirality::Minus,
        };
        let theta = Angle::pi_frac(1, 5);
        let via_angle = o.to_absolute(&theta).unit();
        let via_vec = o.apply_vec(theta.unit());
        assert!((via_angle - via_vec).norm() < EPS);
    }

    #[test]
    fn similarity_fixed_point_rotation() {
        // Pure rotation by π/2 about implicit center: T(p) = t + R·p.
        let sim = Similarity {
            orient: Orientation {
                phi: Angle::quarter(),
                chi: Chirality::Plus,
            },
            scale: 1.0,
            origin: Vec2::new(2.0, 0.0),
        };
        let c = sim.fixed_point().unwrap();
        assert!((sim.apply(c) - c).norm() < EPS);
    }

    #[test]
    fn similarity_fixed_point_scale_only() {
        // v ≠ 1 with φ = 0, χ = +1 must still have a fixed point.
        let sim = Similarity {
            orient: Orientation::identity(),
            scale: 2.0,
            origin: Vec2::new(3.0, 1.0),
        };
        let c = sim.fixed_point().unwrap();
        assert!((sim.apply(c) - c).norm() < EPS);
        assert!((c - Vec2::new(-3.0, -1.0)).norm() < EPS);
    }

    #[test]
    fn similarity_no_fixed_point_translation() {
        // v = 1, φ = 0, χ = +1: pure translation, no fixed point.
        let sim = Similarity {
            orient: Orientation::identity(),
            scale: 1.0,
            origin: Vec2::new(3.0, 1.0),
        };
        assert!(sim.fixed_point().is_none());
    }

    #[test]
    fn similarity_no_fixed_point_glide_reflection() {
        // v = 1, χ = −1: glide reflection — precisely the class excluded
        // from the CGKK contract.
        let sim = Similarity {
            orient: Orientation {
                phi: Angle::pi_frac(1, 3),
                chi: Chirality::Minus,
            },
            scale: 1.0,
            origin: Vec2::new(3.0, 1.0),
        };
        assert!(sim.fixed_point().is_none());
    }

    #[test]
    fn similarity_reflection_with_scale_has_fixed_point() {
        // χ = −1 but v ≠ 1: eigenvalues ±v ≠ 1, fixed point exists.
        let sim = Similarity {
            orient: Orientation {
                phi: Angle::pi_frac(1, 3),
                chi: Chirality::Minus,
            },
            scale: 0.5,
            origin: Vec2::new(3.0, 1.0),
        };
        let c = sim.fixed_point().unwrap();
        assert!((sim.apply(c) - c).norm() < EPS);
    }

    #[test]
    fn distance_to_fixed_point_scales() {
        // |T(p) − c| = scale · |p − c| for every p.
        let sim = Similarity {
            orient: Orientation {
                phi: Angle::pi_frac(2, 7),
                chi: Chirality::Plus,
            },
            scale: 1.75,
            origin: Vec2::new(-1.0, 4.0),
        };
        let c = sim.fixed_point().unwrap();
        for p in [
            Vec2::new(0.0, 0.0),
            Vec2::new(5.0, -2.0),
            Vec2::new(0.1, 9.0),
        ] {
            let lhs = (sim.apply(p) - c).norm();
            let rhs = 1.75 * (p - c).norm();
            assert!((lhs - rhs).abs() < 1e-9 * rhs.max(1.0));
        }
    }
}
