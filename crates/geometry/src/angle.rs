//! Exact angles as rational multiples of π.
//!
//! The paper stipulates that all angles appearing in the algorithms are
//! rational multiples of π (Section 1.2), and Algorithm 1 rotates through
//! the systems `Rot(jπ/2^i)`. Representing an angle as the exact rational
//! `q` with value `q·π` keeps those frame compositions exact: the absolute
//! direction of a local instruction is `φ + χ·θ`, a rational operation.
//! Conversion to a unit vector happens once, at the kinematic boundary,
//! with exact results on the four cardinal directions so axis-aligned
//! walks (all of `LinearCowWalk`) accumulate zero drift.

use crate::vec2::Vec2;
use rv_numeric::Ratio;
use std::fmt;
use std::ops::{Add, Neg, Sub};

/// An exact angle `q·π`, normalized to `q ∈ [0, 2)`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Angle {
    q: Ratio,
}

impl Angle {
    /// 0 (East in compass terms).
    pub fn zero() -> Angle {
        Angle { q: Ratio::zero() }
    }

    /// π/2 (North).
    pub fn quarter() -> Angle {
        Angle::from_ratio_pi(Ratio::frac(1, 2))
    }

    /// π (West).
    pub fn half() -> Angle {
        Angle::from_ratio_pi(Ratio::one())
    }

    /// 3π/2 (South).
    pub fn three_quarters() -> Angle {
        Angle::from_ratio_pi(Ratio::frac(3, 2))
    }

    /// Builds the angle `q·π`, normalizing `q` into `[0, 2)`.
    pub fn from_ratio_pi(q: Ratio) -> Angle {
        Angle { q: norm_mod2(q) }
    }

    /// Builds the angle `(p/q)·π` from machine integers.
    pub fn pi_frac(p: i64, q: i64) -> Angle {
        Angle::from_ratio_pi(Ratio::frac(p, q))
    }

    /// Builds the exact rational-multiple-of-π angle nearest to `radians`
    /// within one `f64` ULP (the quotient `radians/π` is itself a dyadic
    /// rational). Lets dedicated algorithms aim at arbitrary real
    /// directions with error ~1e-16 rad, far below the simulator's
    /// detection slack.
    pub fn from_radians(radians: f64) -> Angle {
        let q =
            Ratio::from_f64_exact(radians / std::f64::consts::PI).expect("finite radians required");
        Angle::from_ratio_pi(q)
    }

    /// The exact rational multiplier `q` with `self = q·π`, in `[0, 2)`.
    pub fn ratio_pi(&self) -> &Ratio {
        &self.q
    }

    /// True iff the angle is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.q.is_zero()
    }

    /// Radians (approximate).
    pub fn radians(&self) -> f64 {
        self.q.to_f64() * std::f64::consts::PI
    }

    /// The angle `self/2` (exact). Note: halves the representative in
    /// `[0, 2)`, so the result lies in `[0, π)` — this matches the paper's
    /// bisectrix `φ/2` for `0 ≤ φ < 2π`.
    pub fn half_angle(&self) -> Angle {
        Angle {
            q: &self.q * &Ratio::frac(1, 2),
        }
    }

    /// `(cos, sin)` of the angle, exact on multiples of π/2.
    pub fn cos_sin(&self) -> (f64, f64) {
        if let Some((c, s)) = self.cos_sin_exact_quarter() {
            return (c, s);
        }
        let r = self.radians();
        (r.cos(), r.sin())
    }

    /// `(cos, sin)` when the angle is an exact multiple of π/2.
    fn cos_sin_exact_quarter(&self) -> Option<(f64, f64)> {
        self.cos_sin_exact().map(|(c, s)| (c.to_f64(), s.to_f64()))
    }

    /// Exact rational `(cos, sin)` when both are rational.
    ///
    /// By Niven's theorem, for rational multiples of π this happens exactly
    /// at the multiples of π/2 (values in `{0, ±1}`). Used by the model
    /// crate to decide boundary membership (`t = dist(proj_A, proj_B) − r`)
    /// exactly via half-angle identities.
    pub fn cos_sin_exact(&self) -> Option<(Ratio, Ratio)> {
        // q ∈ {0, 1/2, 1, 3/2} after normalization: `q` is in lowest
        // terms, so it is a quarter multiple iff its denominator is 1 or 2,
        // and `k = 2q` counts the quarter turns.
        let numer = self.q.numer().to_i128()?;
        let k = match self.q.denom().to_i128()? {
            1 => 2 * numer,
            2 => numer,
            _ => return None,
        };
        let one = Ratio::one();
        let zero = Ratio::zero();
        Some(match k.rem_euclid(4) {
            0 => (one, zero),
            1 => (zero, one),
            2 => (-one, zero),
            3 => (zero, -one),
            _ => unreachable!(),
        })
    }

    /// Unit vector `(cos, sin)` of the angle.
    pub fn unit(&self) -> Vec2 {
        let (c, s) = self.cos_sin();
        Vec2::new(c, s)
    }

    /// The direction obtained by applying chirality `χ` then rotating by
    /// `φ = self`: maps a local direction `θ` to the absolute direction
    /// `φ + χ·θ` (Section 1.2 of the paper).
    pub fn compose_local(&self, theta: &Angle, chi_positive: bool) -> Angle {
        if chi_positive {
            if self.q.is_zero() {
                // Identity orientation: `0 + θ` with θ already normalized.
                return theta.clone();
            }
            Angle::from_ratio_pi(&self.q + &theta.q)
        } else {
            Angle::from_ratio_pi(&self.q - &theta.q)
        }
    }

    /// Smallest unoriented angle between `self` and `other`, in radians
    /// (in `[0, π]`).
    pub fn unoriented_gap(&self, other: &Angle) -> f64 {
        let d = (self.clone() - other.clone()).q;
        // d ∈ [0, 2); gap = min(d, 2-d)·π
        let two = Ratio::from_int(2);
        let gap = if d > Ratio::one() { &two - &d } else { d };
        gap.to_f64() * std::f64::consts::PI
    }
}

/// Normalizes `q` into `[0, 2)` (mod 2, since the angle is `q·π`).
fn norm_mod2(q: Ratio) -> Ratio {
    let two = Ratio::from_int(2);
    if !q.is_negative() && q < two {
        // Already in range: `k` below would be 0 and the subtraction the
        // identity. Skip the division (the common case for sums of
        // normalized angles).
        return q;
    }
    let k = (&q / &two).floor();
    &q - &(&two * &Ratio::from_int(k))
}

impl Add for Angle {
    type Output = Angle;
    fn add(self, rhs: Angle) -> Angle {
        Angle::from_ratio_pi(&self.q + &rhs.q)
    }
}

impl Sub for Angle {
    type Output = Angle;
    fn sub(self, rhs: Angle) -> Angle {
        Angle::from_ratio_pi(&self.q - &rhs.q)
    }
}

impl Neg for Angle {
    type Output = Angle;
    fn neg(self) -> Angle {
        Angle::from_ratio_pi(-&self.q)
    }
}

impl fmt::Debug for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}π", self.q)
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}π", self.q)
    }
}

/// Compass directions used by the paper's `go(dir, d)` instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Compass {
    /// Positive x (local).
    East,
    /// Positive y (local).
    North,
    /// Negative x (local).
    West,
    /// Negative y (local).
    South,
}

impl Compass {
    /// The exact angle of the compass direction.
    pub fn angle(self) -> Angle {
        match self {
            Compass::East => Angle::zero(),
            Compass::North => Angle::quarter(),
            Compass::West => Angle::half(),
            Compass::South => Angle::three_quarters(),
        }
    }

    /// The opposite direction.
    pub fn opposite(self) -> Compass {
        match self {
            Compass::East => Compass::West,
            Compass::North => Compass::South,
            Compass::West => Compass::East,
            Compass::South => Compass::North,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn normalization_wraps() {
        assert_eq!(Angle::pi_frac(5, 2), Angle::pi_frac(1, 2));
        assert_eq!(Angle::pi_frac(-1, 2), Angle::pi_frac(3, 2));
        assert_eq!(Angle::pi_frac(4, 1), Angle::zero());
        assert_eq!(Angle::pi_frac(-7, 3), Angle::pi_frac(5, 3).clone());
    }

    #[test]
    fn cardinal_unit_vectors_are_exact() {
        assert_eq!(Compass::East.angle().unit(), Vec2::new(1.0, 0.0));
        assert_eq!(Compass::North.angle().unit(), Vec2::new(0.0, 1.0));
        assert_eq!(Compass::West.angle().unit(), Vec2::new(-1.0, 0.0));
        assert_eq!(Compass::South.angle().unit(), Vec2::new(0.0, -1.0));
    }

    #[test]
    fn exact_cos_sin_only_on_quarter_turns() {
        let quarters = [
            (Angle::zero(), (1, 0)),
            (Angle::quarter(), (0, 1)),
            (Angle::half(), (-1, 0)),
            (Angle::three_quarters(), (0, -1)),
        ];
        for (a, (c, s)) in quarters {
            let expected = (Ratio::from_int(c), Ratio::from_int(s));
            assert_eq!(a.cos_sin_exact(), Some(expected), "{a}");
        }
        let others = [
            Angle::pi_frac(1, 4),
            Angle::pi_frac(3, 4),
            Angle::pi_frac(7, 4),
            Angle::pi_frac(1, 8),
            Angle::pi_frac(13, 16),
            Angle::pi_frac(1, 1 << 40),
            Angle::from_ratio_pi(Ratio::pow2(-200)),
        ];
        for a in others {
            assert_eq!(a.cos_sin_exact(), None, "{a}");
        }
    }

    #[test]
    fn generic_unit_vectors() {
        let a = Angle::pi_frac(1, 4);
        let u = a.unit();
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        assert!((u.x - inv_sqrt2).abs() < EPS);
        assert!((u.y - inv_sqrt2).abs() < EPS);
    }

    #[test]
    fn addition_is_exact() {
        let a = Angle::pi_frac(1, 3);
        let b = Angle::pi_frac(2, 3);
        assert_eq!(a + b, Angle::half());
        let c = Angle::pi_frac(3, 2) + Angle::pi_frac(3, 2);
        assert_eq!(c, Angle::half()); // 3π total wraps to π
    }

    #[test]
    fn negation_wraps() {
        assert_eq!(-Angle::quarter(), Angle::three_quarters());
        assert_eq!(-Angle::zero(), Angle::zero());
    }

    #[test]
    fn chirality_composition() {
        let phi = Angle::pi_frac(1, 3);
        let theta = Angle::pi_frac(1, 2);
        // χ = +1: φ + θ
        assert_eq!(phi.compose_local(&theta, true), Angle::pi_frac(5, 6));
        // χ = −1: φ − θ  (wraps)
        assert_eq!(phi.compose_local(&theta, false), Angle::pi_frac(-1, 6));
    }

    #[test]
    fn half_angle_bisectrix() {
        assert_eq!(Angle::half().half_angle(), Angle::quarter());
        assert_eq!(Angle::pi_frac(1, 2).half_angle(), Angle::pi_frac(1, 4));
        // φ/2 stays in [0, π) for φ ∈ [0, 2π)
        let phi = Angle::pi_frac(7, 4);
        assert_eq!(phi.half_angle(), Angle::pi_frac(7, 8));
    }

    #[test]
    fn unoriented_gap() {
        let a = Angle::zero();
        let b = Angle::pi_frac(1, 2);
        assert!((a.unoriented_gap(&b) - std::f64::consts::FRAC_PI_2).abs() < EPS);
        let c = Angle::pi_frac(7, 4); // -π/4
        assert!((a.unoriented_gap(&c) - std::f64::consts::FRAC_PI_4).abs() < EPS);
        assert_eq!(a.unoriented_gap(&a), 0.0);
    }

    #[test]
    fn opposite_compass() {
        assert_eq!(Compass::East.opposite(), Compass::West);
        assert_eq!(Compass::North.opposite(), Compass::South);
        assert_eq!(Compass::East.angle() + Angle::half(), Compass::West.angle());
    }

    #[test]
    fn rot_systems_of_algorithm_one_are_exact() {
        // Rot(jπ/2^i): the 2^{i+1} frames of phase i tile the circle.
        let i = 3u32;
        let step = Angle::pi_frac(1, 1 << i);
        let mut acc = Angle::zero();
        for _ in 0..(1 << (i + 1)) {
            acc = acc + step.clone();
        }
        assert_eq!(acc, Angle::zero()); // 2^{i+1} · π/2^i = 2π ≡ 0
    }
}
