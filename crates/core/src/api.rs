//! Top-level rendezvous API: the dedicated-algorithm [`Recommendation`],
//! and thin one-liner wrappers over the first-class [`crate::Solver`]
//! impls for callers who just want a report.

use crate::solver::{Aur, Dedicated, Solver};
use rv_model::{classify, Classification, Instance};
use rv_sim::{simulate, Budget, SimReport};
use rv_trajectory::Instr;

/// Runs `AlmostUniversalRV` on both agents of `inst` (Theorem 3.2's
/// algorithm) until rendezvous or budget exhaustion. One-liner wrapper
/// over the [`Aur`] solver.
pub fn solve(inst: &Instance, budget: &Budget) -> SimReport {
    Aur.solve(inst, budget)
}

/// Runs an arbitrary pair of programs on the two agents of `inst`.
/// (Anonymous algorithms pass the *same* program twice; the two arguments
/// exist so experiments can also explore asymmetric what-ifs.)
///
/// Prefer [`crate::FixedPair`] when the pair is a reusable strategy (a
/// campaign solver, a baseline in a report): it is a storable value that
/// can mint fresh programs per run. This function remains for one-shot
/// calls that already hold the iterators.
pub fn solve_pair<PA, PB>(inst: &Instance, prog_a: PA, prog_b: PB, budget: &Budget) -> SimReport
where
    PA: Iterator<Item = Instr>,
    PB: Iterator<Item = Instr>,
{
    let radii = (&inst.r, &inst.r);
    simulate(
        inst.agent_a(),
        prog_a,
        inst.agent_b(),
        prog_b,
        radii,
        budget,
    )
}

/// The dedicated algorithm a full-knowledge solver would pick for this
/// instance (the constructive side of Theorem 3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DedicatedChoice {
    /// Nothing to do: the agents already see each other.
    StayPut,
    /// `beeline` (Lemma 3.8 construction) — shifted frames.
    Beeline,
    /// `canonical_march` (Lemma 3.9 construction) — mirrored frames.
    CanonicalMarch,
    /// `AlmostUniversalRV` (the Theorem 3.2 algorithm covers the rest).
    Aur,
}

/// What a full-knowledge solver would run on an instance — and whether
/// any algorithm can succeed at all.
///
/// Theorem 3.1's negative side means infeasible instances have *no*
/// working algorithm; the old API silently handed them to AUR, hiding the
/// verdict. `feasible: false` makes that explicit (the chosen solver is
/// still [`DedicatedChoice::Aur`], so callers can observe the guaranteed
/// failure), and the flag is carried into
/// [`crate::batch::RunRecord::feasible`] so infeasible-heavy sweeps stay
/// visible in campaign stats.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Recommendation {
    /// The dedicated algorithm per the constructive proofs.
    pub solver: DedicatedChoice,
    /// Whether the instance is feasible at all (Theorem 3.1).
    pub feasible: bool,
}

/// Picks the dedicated algorithm per the constructive proofs and reports
/// feasibility explicitly.
pub fn recommend(inst: &Instance) -> Recommendation {
    let class = classify(inst);
    let solver = match class {
        Classification::Trivial => DedicatedChoice::StayPut,
        Classification::Type2 | Classification::ExceptionS1 => DedicatedChoice::Beeline,
        Classification::Type1 | Classification::ExceptionS2 => DedicatedChoice::CanonicalMarch,
        Classification::Type3 | Classification::Type4 => DedicatedChoice::Aur,
        // Infeasible: no algorithm works; recommend AUR so callers can
        // observe the (guaranteed) failure — flagged by `feasible: false`.
        Classification::Infeasible => DedicatedChoice::Aur,
    };
    Recommendation {
        solver,
        feasible: class.feasible(),
    }
}

/// Runs the per-instance dedicated algorithm from the constructive side of
/// Theorem 3.1 (both agents execute the same program, built from the
/// instance they are both given). One-liner wrapper over the
/// [`Dedicated`] solver.
pub fn solve_dedicated(inst: &Instance, budget: &Budget) -> SimReport {
    Dedicated.solve(inst, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_geometry::{Angle, Chirality};
    use rv_numeric::{ratio, Ratio};

    #[test]
    fn trivial_instance_meets_instantly() {
        let inst = Instance::builder()
            .position(ratio(1, 2), Ratio::zero())
            .r(Ratio::one())
            .build()
            .unwrap();
        let report = solve(&inst, &Budget::default().segments(100));
        assert!(report.met());
        assert_eq!(report.meeting_time(), Some(0.0));
    }

    #[test]
    fn dedicated_choice_dispatch() {
        let s1 = Instance::builder()
            .position(ratio(5, 1), Ratio::zero())
            .r(Ratio::one())
            .delay(ratio(4, 1))
            .build()
            .unwrap();
        assert_eq!(recommend(&s1).solver, DedicatedChoice::Beeline);

        let s2 = Instance::builder()
            .position(ratio(5, 1), Ratio::zero())
            .r(Ratio::one())
            .delay(ratio(4, 1))
            .chirality(Chirality::Minus)
            .build()
            .unwrap();
        assert_eq!(recommend(&s2).solver, DedicatedChoice::CanonicalMarch);

        let t3 = Instance::builder()
            .position(ratio(3, 1), Ratio::zero())
            .tau(ratio(2, 1))
            .build()
            .unwrap();
        assert_eq!(recommend(&t3).solver, DedicatedChoice::Aur);
    }

    #[test]
    fn recommend_flags_infeasible_explicitly() {
        // Sync, shifts, t = 0 < dist − r: infeasible by Theorem 3.1.
        let bad = Instance::builder()
            .position(ratio(5, 1), Ratio::zero())
            .r(Ratio::one())
            .build()
            .unwrap();
        let rec = recommend(&bad);
        assert_eq!(rec.solver, DedicatedChoice::Aur);
        assert!(!rec.feasible, "infeasible must be explicit, not silent");

        // A feasible type-3 instance keeps feasible: true.
        let good = Instance::builder()
            .position(ratio(3, 1), Ratio::zero())
            .tau(ratio(2, 1))
            .build()
            .unwrap();
        let rec = recommend(&good);
        assert_eq!(rec.solver, DedicatedChoice::Aur);
        assert!(rec.feasible);
    }

    #[test]
    fn dedicated_beeline_meets_s1_boundary_exactly() {
        // S1: dist = 5, r = 1, t = 4 = dist − r. Beeline: A walks 4 east,
        // arrives at distance exactly 1 at time 4.
        let inst = Instance::builder()
            .position(ratio(5, 1), Ratio::zero())
            .r(Ratio::one())
            .delay(ratio(4, 1))
            .build()
            .unwrap();
        let report = solve_dedicated(&inst, &Budget::default());
        let m = report.meeting().expect("beeline must meet S1");
        assert!((m.time.to_f64() - 4.0).abs() < 1e-6);
        assert!((m.dist - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dedicated_march_meets_s2_boundary_exactly() {
        // S2: proj dist = 5 (x = 5, φ = 0, χ = −1), r = 1, t = 4.
        let inst = Instance::builder()
            .position(ratio(5, 1), Ratio::zero())
            .r(Ratio::one())
            .delay(ratio(4, 1))
            .chirality(Chirality::Minus)
            .build()
            .unwrap();
        let report = solve_dedicated(&inst, &Budget::default());
        let m = report.meeting().expect("canonical march must meet S2");
        assert!(
            (m.dist - 1.0).abs() < 1e-6,
            "meet at exactly r, got {}",
            m.dist
        );
    }

    #[test]
    fn dedicated_march_meets_off_axis_s2() {
        // χ = −1, φ = 0, B at (4, 3): proj dist = 4, r = 1, t = 3.
        let inst = Instance::builder()
            .position(ratio(4, 1), ratio(3, 1))
            .r(Ratio::one())
            .delay(ratio(3, 1))
            .chirality(Chirality::Minus)
            .build()
            .unwrap();
        assert_eq!(
            rv_model::classify(&inst),
            rv_model::Classification::ExceptionS2
        );
        let report = solve_dedicated(&inst, &Budget::default());
        let m = report.meeting().expect("march must meet off-axis S2");
        assert!((m.dist - 1.0).abs() < 1e-6);
    }

    #[test]
    fn aur_meets_type4_rotation_quickly() {
        // Sync, χ = +1, φ = π, t = 0: fixed point at (2,0); phase-2 sweeps
        // of block 1 must already meet.
        let inst = Instance::builder()
            .position(ratio(4, 1), Ratio::zero())
            .phi(Angle::half())
            .r(Ratio::one())
            .build()
            .unwrap();
        let report = solve(&inst, &Budget::default().segments(100_000));
        assert!(
            report.met(),
            "type-4 rotation should meet: {}",
            report.outcome
        );
    }

    #[test]
    fn aur_respects_budget_on_infeasible() {
        let inst = Instance::builder()
            .position(ratio(5, 1), Ratio::zero())
            .r(Ratio::one())
            .build()
            .unwrap(); // sync, shifts, t = 0 < 4: infeasible
        let report = solve(&inst, &Budget::default().segments(20_000));
        assert!(!report.met());
        // Infeasibility manifests as constant distance ≥ ... the mirror
        // argument: equal programs keep the displacement constant.
        assert!(report.min_dist >= 4.999999);
    }
}
