//! The type taxonomy of Section 3.1.1 and the feasibility
//! characterization of Theorem 3.1.
//!
//! Comparisons against the feasibility boundaries are decided **exactly**
//! whenever mathematically possible:
//! `t ⋛ dist((0,0),(x,y)) − r` reduces to comparing `(t+r)²` with
//! `x² + y²` in rationals, and `t ⋛ dist(proj_A, proj_B) − r` reduces to
//! comparing `(t+r)²` with the exact squared projection distance whenever
//! `φ` is a multiple of π/2 (Niven). Off those angles an explicit epsilon
//! policy applies ([`classify_with_eps`]).

use crate::instance::Instance;
use rv_geometry::Chirality;
use std::cmp::Ordering;
use std::fmt;

/// Where an instance falls in the paper's taxonomy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Classification {
    /// `r ≥ dist`: agents see each other at time 0 (Section 2).
    Trivial,
    /// Synchronous, `χ = −1`, `t > dist(proj_A, proj_B) − r`.
    Type1,
    /// Synchronous, `χ = +1`, `φ = 0`, `t > dist − r`.
    Type2,
    /// `τ ≠ 1` (clock rates differ).
    Type3,
    /// The remaining Theorem 3.2 instances: non-synchronous with `τ = 1`
    /// (so `v ≠ 1`), or synchronous with `χ = +1 ∧ φ ≠ 0`.
    Type4,
    /// Exception set `S1`: synchronous, `χ = +1`, `φ = 0`,
    /// `t = dist − r` exactly (feasible, not AUR-guaranteed).
    ExceptionS1,
    /// Exception set `S2`: synchronous, `χ = −1`,
    /// `t = dist(proj_A, proj_B) − r` exactly (feasible, not
    /// AUR-guaranteed).
    ExceptionS2,
    /// Infeasible by Theorem 3.1 (no algorithm meets, even dedicated).
    Infeasible,
}

impl Classification {
    /// Theorem 3.1: is some (possibly dedicated) algorithm guaranteed to
    /// achieve rendezvous?
    pub fn feasible(self) -> bool {
        !matches!(self, Classification::Infeasible)
    }

    /// Theorem 3.2: does `AlmostUniversalRV` guarantee rendezvous?
    pub fn aur_guaranteed(self) -> bool {
        matches!(
            self,
            Classification::Trivial
                | Classification::Type1
                | Classification::Type2
                | Classification::Type3
                | Classification::Type4
        )
    }

    /// True for the two exception sets of Section 4.
    pub fn is_exception(self) -> bool {
        matches!(
            self,
            Classification::ExceptionS1 | Classification::ExceptionS2
        )
    }

    /// The class's display name (what `Display` prints and the wire and
    /// JSON encoders write).
    pub fn name(self) -> &'static str {
        match self {
            Classification::Trivial => "trivial",
            Classification::Type1 => "type 1",
            Classification::Type2 => "type 2",
            Classification::Type3 => "type 3",
            Classification::Type4 => "type 4",
            Classification::ExceptionS1 => "exception S1",
            Classification::ExceptionS2 => "exception S2",
            Classification::Infeasible => "infeasible",
        }
    }
}

impl fmt::Display for Classification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Classifies with the default epsilon (`1e-9`) for the rare inexact case.
pub fn classify(inst: &Instance) -> Classification {
    classify_with_eps(inst, 1e-9)
}

/// Full classification.
///
/// `eps` is used only when `φ` is not a multiple of π/2 **and** the
/// instance is synchronous with `χ = −1` (the single case whose boundary
/// cannot be decided in rationals): `|t + r − dist(proj)| ≤ eps` is then
/// treated as boundary membership.
pub fn classify_with_eps(inst: &Instance, eps: f64) -> Classification {
    debug_assert!(inst.validate().is_ok());
    if inst.is_trivial() {
        return Classification::Trivial;
    }
    if !inst.tau.is_one() {
        return Classification::Type3;
    }
    if !inst.v.is_one() {
        // Non-synchronous with τ = 1.
        return Classification::Type4;
    }
    // Synchronous from here on.
    match inst.chi {
        Chirality::Plus => {
            if !inst.phi.is_zero() {
                return Classification::Type4;
            }
            // χ = +1, φ = 0: compare t + r with dist (exact via squares).
            let lhs = (&inst.t + &inst.r).square();
            match lhs.cmp(&inst.initial_dist_sq()) {
                Ordering::Greater => Classification::Type2,
                Ordering::Equal => Classification::ExceptionS1,
                Ordering::Less => Classification::Infeasible,
            }
        }
        Chirality::Minus => {
            // χ = −1: compare t + r with dist(proj_A, proj_B).
            let lhs = (&inst.t + &inst.r).square();
            match inst.proj_dist_sq_exact() {
                Some(proj_sq) => match lhs.cmp(&proj_sq) {
                    Ordering::Greater => Classification::Type1,
                    Ordering::Equal => Classification::ExceptionS2,
                    Ordering::Less => Classification::Infeasible,
                },
                None => {
                    let gap = (&inst.t + &inst.r).to_f64() - inst.proj_dist();
                    if gap.abs() <= eps {
                        Classification::ExceptionS2
                    } else if gap > 0.0 {
                        Classification::Type1
                    } else {
                        Classification::Infeasible
                    }
                }
            }
        }
    }
}

/// Theorem 3.1 as a predicate.
pub fn feasible(inst: &Instance) -> bool {
    classify(inst).feasible()
}

/// Theorem 3.2's guarantee as a predicate.
pub fn aur_guaranteed(inst: &Instance) -> bool {
    classify(inst).aur_guaranteed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_geometry::Angle;
    use rv_numeric::{ratio, Ratio};

    fn base() -> crate::instance::InstanceBuilder {
        // dist = 5 via (3,4); r = 1.
        Instance::builder().position(ratio(3, 1), ratio(4, 1))
    }

    #[test]
    fn trivial_dominates() {
        let i = Instance::builder()
            .position(ratio(1, 2), ratio(0, 1))
            .tau(ratio(2, 1))
            .build()
            .unwrap();
        assert_eq!(classify(&i), Classification::Trivial);
    }

    #[test]
    fn tau_not_one_is_type3() {
        let i = base().tau(ratio(3, 2)).build().unwrap();
        assert_eq!(classify(&i), Classification::Type3);
        // Even with χ = −1 and zero delay: type 3 takes priority.
        let j = base()
            .tau(ratio(1, 2))
            .chirality(Chirality::Minus)
            .build()
            .unwrap();
        assert_eq!(classify(&j), Classification::Type3);
    }

    #[test]
    fn speed_only_mismatch_is_type4() {
        let i = base().speed(ratio(2, 1)).build().unwrap();
        assert_eq!(classify(&i), Classification::Type4);
        assert!(classify(&i).feasible());
    }

    #[test]
    fn sync_rotated_same_chirality_is_type4() {
        let i = base().phi(Angle::pi_frac(1, 3)).build().unwrap();
        assert_eq!(classify(&i), Classification::Type4);
    }

    #[test]
    fn sync_shift_frames_split_on_delay() {
        // dist = 5, r = 1: boundary at t = 4.
        let at = |t: Ratio| base().delay(t).build().unwrap();
        assert_eq!(classify(&at(ratio(5, 1))), Classification::Type2);
        assert_eq!(classify(&at(ratio(4, 1))), Classification::ExceptionS1);
        assert_eq!(classify(&at(ratio(3, 1))), Classification::Infeasible);
        assert_eq!(classify(&at(Ratio::zero())), Classification::Infeasible);
    }

    #[test]
    fn s1_boundary_is_exact_knife_edge() {
        let eps = Ratio::pow2(-100);
        let at = |t: Ratio| base().delay(t).build().unwrap();
        assert_eq!(classify(&at(&ratio(4, 1) + &eps)), Classification::Type2);
        assert_eq!(
            classify(&at(&ratio(4, 1) - &eps)),
            Classification::Infeasible
        );
    }

    #[test]
    fn chirality_minus_uses_projections() {
        // φ = 0, χ = −1: canonical line horizontal; proj dist = |x| = 3.
        // Boundary at t = 3 − 1 = 2.
        let at = |t: Ratio| base().chirality(Chirality::Minus).delay(t).build().unwrap();
        assert_eq!(classify(&at(ratio(3, 1))), Classification::Type1);
        assert_eq!(classify(&at(ratio(2, 1))), Classification::ExceptionS2);
        assert_eq!(classify(&at(ratio(1, 1))), Classification::Infeasible);
    }

    #[test]
    fn chirality_minus_phi_pi_uses_y_projection() {
        // φ = π ⇒ canonical line vertical ⇒ proj dist = |y| = 4; r = 1 ⇒
        // boundary at t = 3.
        let at = |t: Ratio| {
            base()
                .phi(Angle::half())
                .chirality(Chirality::Minus)
                .delay(t)
                .build()
                .unwrap()
        };
        assert_eq!(classify(&at(ratio(7, 2))), Classification::Type1);
        assert_eq!(classify(&at(ratio(3, 1))), Classification::ExceptionS2);
        assert_eq!(classify(&at(ratio(5, 2))), Classification::Infeasible);
    }

    #[test]
    fn chirality_minus_zero_delay_can_be_feasible() {
        // χ = −1 with projections already within r: proj dist = |x| = 1/2
        // < r = 1 ⇒ t = 0 qualifies (type 1). Note dist = √(1/4+16) > r so
        // not trivial.
        let i = Instance::builder()
            .position(ratio(1, 2), ratio(4, 1))
            .chirality(Chirality::Minus)
            .build()
            .unwrap();
        assert_eq!(classify(&i), Classification::Type1);
    }

    #[test]
    fn generic_phi_chirality_minus_uses_eps() {
        // φ = π/3: proj dist = |3·cos(π/6) + 4·sin(π/6)| = |3√3/2 + 2|.
        let proj = 3.0 * (std::f64::consts::PI / 6.0).cos() + 2.0;
        let boundary_t = proj - 1.0;
        let near = Ratio::from_f64_exact(boundary_t).unwrap();
        let i = base()
            .phi(Angle::pi_frac(1, 3))
            .chirality(Chirality::Minus)
            .delay(near)
            .build()
            .unwrap();
        // Within eps of the boundary ⇒ classified as the exception set.
        assert_eq!(classify(&i), Classification::ExceptionS2);
        // Far above ⇒ type 1; far below ⇒ infeasible.
        let hi = base()
            .phi(Angle::pi_frac(1, 3))
            .chirality(Chirality::Minus)
            .delay(Ratio::from_f64_exact(boundary_t + 0.5).unwrap())
            .build()
            .unwrap();
        assert_eq!(classify(&hi), Classification::Type1);
        let lo = base()
            .phi(Angle::pi_frac(1, 3))
            .chirality(Chirality::Minus)
            .delay(Ratio::from_f64_exact((boundary_t - 0.5).max(0.0)).unwrap())
            .build()
            .unwrap();
        assert_eq!(classify(&lo), Classification::Infeasible);
    }

    #[test]
    fn type1_definition_with_rotation() {
        // χ = −1, φ = π/2 (quarter: exact), proj dist² = (x+y)²/2 = 49/2.
        // t + r must exceed √(49/2) = 7/√2 ≈ 4.9497.
        let at = |t: Ratio| {
            base()
                .phi(Angle::quarter())
                .chirality(Chirality::Minus)
                .delay(t)
                .build()
                .unwrap()
        };
        assert_eq!(classify(&at(ratio(4, 1))), Classification::Type1); // 5² = 25 > 24.5
        assert_eq!(classify(&at(ratio(7, 2))), Classification::Infeasible); // 4.5² = 20.25 < 24.5
    }

    #[test]
    fn predicates_agree_with_classification() {
        let s1 = base().delay(ratio(4, 1)).build().unwrap();
        assert!(feasible(&s1));
        assert!(!aur_guaranteed(&s1));
        assert!(classify(&s1).is_exception());

        let t3 = base().tau(ratio(2, 1)).build().unwrap();
        assert!(feasible(&t3));
        assert!(aur_guaranteed(&t3));

        let inf = base().build().unwrap(); // t = 0, sync, shift frames
        assert!(!feasible(&inf));
        assert!(!aur_guaranteed(&inf));
    }

    #[test]
    fn all_non_synchronous_feasible() {
        // Theorem 3.1 part 1 on a parameter sweep.
        for (tau, v) in [
            (ratio(2, 1), ratio(1, 1)),
            (ratio(1, 2), ratio(1, 1)),
            (ratio(1, 1), ratio(2, 1)),
            (ratio(1, 1), ratio(1, 3)),
            (ratio(3, 2), ratio(5, 7)),
        ] {
            let i = base().tau(tau).speed(v).build().unwrap();
            assert!(feasible(&i), "non-synchronous must be feasible: {i}");
        }
    }
}
