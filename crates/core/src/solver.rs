//! First-class solvers: the [`Solver`] trait and its concrete impls.
//!
//! The paper's Theorem 3.1/3.2 dichotomy — per-class dedicated algorithms
//! vs. the single `AlmostUniversalRV` — used to live in four free
//! functions. Making solver choice a *value* turns it into an extension
//! point: campaigns store an `Arc<dyn Solver>`, reports can ask a solver
//! for its [`name`](Solver::name), and whole strategy families from
//! related work (Pelc–Yadav time-symmetry-breaking, Czyzowicz–Labourel–
//! Pelc asynchronous meeting) can plug in side-by-side without touching
//! the campaign engine.
//!
//! The three bundled impls:
//!
//! * [`Aur`] — `AlmostUniversalRV` on both agents (Theorem 3.2);
//! * [`Dedicated`] — the per-instance algorithm from the constructive
//!   side of Theorem 3.1 (see [`crate::recommend`]);
//! * [`FixedPair`] — an arbitrary program run on both agents, with
//!   per-agent [`Visibility`] radii (Section 5).
//!
//! Any of them (or your own impl) plugs straight into a campaign:
//!
//! ```
//! use rv_core::batch::Campaign;
//! use rv_core::{solve, Budget, Solver, SimReport};
//! use rv_model::Instance;
//! use rv_numeric::ratio;
//!
//! // A custom solver: AUR, but never spend more than 300k segments per
//! // run, whatever the campaign budget says.
//! struct CappedAur;
//!
//! impl Solver for CappedAur {
//!     fn solve(&self, inst: &Instance, b: &Budget) -> SimReport {
//!         solve(inst, &b.clone().segments(b.max_segments.min(300_000)))
//!     }
//!
//!     fn name(&self) -> &str {
//!         "capped-aur"
//!     }
//! }
//!
//! let instances: Vec<Instance> = (0..4)
//!     .map(|k| {
//!         Instance::builder()
//!             .position(ratio(3 + k, 1), ratio(0, 1))
//!             .tau(ratio(2, 1))
//!             .build()
//!             .unwrap()
//!     })
//!     .collect();
//! let campaign = Campaign::new(CappedAur, Budget::default());
//! assert_eq!(campaign.solver_name(), "capped-aur");
//! assert_eq!(campaign.run(&instances).stats.met, 4);
//! ```

use crate::api::{recommend, Budget, DedicatedChoice};
#[cfg(test)]
use crate::aur::almost_universal_rv;
use rv_baselines::{beeline, canonical_march};
use rv_model::Instance;
use rv_numeric::Ratio;
use rv_sim::{simulate, SimReport};
use rv_trajectory::Instr;
use std::sync::Arc;

/// A rendezvous-solving strategy: maps one instance (under a budget) to a
/// full simulation report.
///
/// Implementations must be deterministic — a solver is run from many
/// worker threads and campaign output is defined as a pure function of
/// `(instances, budget, solver)`.
pub trait Solver: Send + Sync {
    /// Runs the solver on `inst` until rendezvous or budget exhaustion.
    fn solve(&self, inst: &Instance, budget: &Budget) -> SimReport;

    /// Short machine-friendly identifier (stable across runs; used in
    /// labels and JSON artifacts).
    fn name(&self) -> &str;
}

/// Per-agent visibility radii (Section 5 extension). Rendezvous means
/// reaching the *smaller* of the two radii; the far-sighted agent stops
/// on first sight.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Visibility {
    /// Both agents use the instance radius `r` (the paper's base model).
    #[default]
    Symmetric,
    /// Each agent's radius is the instance radius scaled by its factor.
    Scaled {
        /// Agent A's radius as a multiple of `r`.
        a: Ratio,
        /// Agent B's radius as a multiple of `r`.
        b: Ratio,
    },
    /// Absolute per-agent radii, independent of the instance.
    Fixed {
        /// Agent A's radius.
        a: Ratio,
        /// Agent B's radius.
        b: Ratio,
    },
}

impl Visibility {
    /// The concrete `(r_a, r_b)` pair for one instance.
    pub fn radii(&self, inst: &Instance) -> (Ratio, Ratio) {
        match self {
            Visibility::Symmetric => (inst.r.clone(), inst.r.clone()),
            Visibility::Scaled { a, b } => (&inst.r * a, &inst.r * b),
            Visibility::Fixed { a, b } => (a.clone(), b.clone()),
        }
    }
}

/// `AlmostUniversalRV` on both agents — the Theorem 3.2 algorithm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Aur;

impl Solver for Aur {
    fn solve(&self, inst: &Instance, budget: &Budget) -> SimReport {
        let cfg = budget.sim_config(inst.r.clone(), inst.r.clone());
        // Step both agents over the process-wide tape of the compiled
        // program instead of regenerating it: agent A, the reference
        // agent, reads its positions off the tape, and agent B indexes
        // its direction table by the tape's direction ids.
        let program = crate::aur::compiled_aur();
        simulate(
            inst.agent_a(),
            program.tape(),
            inst.agent_b(),
            program.tape(),
            &cfg,
        )
    }

    fn name(&self) -> &str {
        "aur"
    }
}

/// The per-instance dedicated algorithm from the constructive side of
/// Theorem 3.1: both agents run the program [`crate::recommend`] picks for
/// the instance they are both given. On infeasible instances (where
/// `recommend` reports `feasible: false`) it runs `AlmostUniversalRV` so
/// callers can observe the guaranteed failure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Dedicated;

impl Solver for Dedicated {
    fn solve(&self, inst: &Instance, budget: &Budget) -> SimReport {
        let cfg = budget.sim_config(inst.r.clone(), inst.r.clone());
        let run_pair = |pa: Vec<Instr>, pb: Vec<Instr>| {
            simulate(
                inst.agent_a(),
                pa.into_iter(),
                inst.agent_b(),
                pb.into_iter(),
                &cfg,
            )
        };
        match recommend(inst).solver {
            DedicatedChoice::StayPut => run_pair(Vec::new(), Vec::new()),
            DedicatedChoice::Beeline => {
                let p = beeline(inst);
                run_pair(p.clone(), p)
            }
            DedicatedChoice::CanonicalMarch => {
                let p = canonical_march(inst);
                run_pair(p.clone(), p)
            }
            DedicatedChoice::Aur => Aur.solve(inst, budget),
        }
    }

    fn name(&self) -> &str {
        "dedicated"
    }
}

/// A program factory: builds a fresh instruction stream for one run.
/// (Programs are consumed by the simulator, so a solver that runs many
/// times must be able to mint them on demand.)
type ProgFactory = Arc<dyn Fn(&Instance) -> Box<dyn Iterator<Item = Instr> + Send> + Send + Sync>;

/// An arbitrary fixed program run on both (anonymous) agents, with
/// optional per-agent [`Visibility`] radii: Section 5's different-radii
/// model is a [`visibility`](FixedPair::visibility) call instead of a
/// separate entry point.
///
/// ```
/// use rv_core::{Budget, FixedPair, Solver};
/// use rv_model::Instance;
/// use rv_numeric::ratio;
///
/// // Empty programs: only already-met instances "meet".
/// let stay = FixedPair::symmetric("stay-put", |_| std::iter::empty());
/// let near = Instance::builder()
///     .position(ratio(1, 2), ratio(0, 1))
///     .build()
///     .unwrap();
/// assert!(stay.solve(&near, &Budget::default().segments(10)).met());
/// ```
#[derive(Clone)]
pub struct FixedPair {
    name: String,
    prog: ProgFactory,
    visibility: Visibility,
}

impl FixedPair {
    /// Both (anonymous) agents run the same program, rebuilt per instance
    /// by `prog`. Baselines that ignore the instance simply drop the
    /// argument (`FixedPair::symmetric("cgkk", |_| cgkk())`); dedicated
    /// constructions pass the builder itself
    /// (`FixedPair::symmetric("beeline", beeline)`).
    pub fn symmetric<I, F>(name: impl Into<String>, prog: F) -> FixedPair
    where
        I: IntoIterator<Item = Instr>,
        I::IntoIter: Send + 'static,
        F: Fn(&Instance) -> I + Send + Sync + 'static,
    {
        FixedPair {
            name: name.into(),
            prog: Arc::new(move |inst| Box::new(prog(inst).into_iter())),
            visibility: Visibility::Symmetric,
        }
    }

    /// Sets the per-agent visibility radii (Section 5).
    pub fn visibility(mut self, v: Visibility) -> FixedPair {
        self.visibility = v;
        self
    }
}

impl Solver for FixedPair {
    fn solve(&self, inst: &Instance, budget: &Budget) -> SimReport {
        let (r_a, r_b) = self.visibility.radii(inst);
        let cfg = budget.sim_config(r_a, r_b);
        simulate(
            inst.agent_a(),
            (self.prog)(inst),
            inst.agent_b(),
            (self.prog)(inst),
            &cfg,
        )
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{solve, solve_dedicated, solve_pair};
    use rv_numeric::ratio;

    fn type3() -> Instance {
        Instance::builder()
            .position(ratio(3, 1), ratio(0, 1))
            .tau(ratio(2, 1))
            .build()
            .unwrap()
    }

    fn s1() -> Instance {
        Instance::builder()
            .position(ratio(5, 1), ratio(0, 1))
            .r(Ratio::one())
            .delay(ratio(4, 1))
            .build()
            .unwrap()
    }

    fn same_report(a: &SimReport, b: &SimReport) {
        assert_eq!(a.met(), b.met());
        assert_eq!(a.segments, b.segments);
        assert_eq!(a.min_dist.to_bits(), b.min_dist.to_bits());
        assert_eq!(
            a.meeting_time().map(f64::to_bits),
            b.meeting_time().map(f64::to_bits)
        );
    }

    #[test]
    fn aur_solver_matches_solve_wrapper() {
        let inst = type3();
        let budget = Budget::default().segments(300_000);
        same_report(&Aur.solve(&inst, &budget), &solve(&inst, &budget));
    }

    #[test]
    fn dedicated_solver_matches_solve_dedicated_wrapper() {
        let budget = Budget::default().segments(100_000);
        for inst in [type3(), s1()] {
            same_report(
                &Dedicated.solve(&inst, &budget),
                &solve_dedicated(&inst, &budget),
            );
        }
    }

    #[test]
    fn fixed_pair_matches_solve_pair() {
        let inst = s1();
        let budget = Budget::default().segments(50_000);
        let pair = FixedPair::symmetric("beeline", beeline);
        let direct = {
            let p = beeline(&inst);
            solve_pair(&inst, p.clone().into_iter(), p.into_iter(), &budget)
        };
        same_report(&pair.solve(&inst, &budget), &direct);
    }

    #[test]
    fn scaled_visibility_matches_direct_simulation() {
        let inst = type3();
        let budget = Budget::default().segments(400_000);
        let quarter = ratio(1, 4);
        let pair =
            FixedPair::symmetric("aur", |_| almost_universal_rv()).visibility(Visibility::Scaled {
                a: Ratio::one(),
                b: quarter.clone(),
            });
        let direct = simulate(
            inst.agent_a(),
            almost_universal_rv(),
            inst.agent_b(),
            almost_universal_rv(),
            &budget.sim_config(inst.r.clone(), &inst.r * &quarter),
        );
        same_report(&pair.solve(&inst, &budget), &direct);
    }

    #[test]
    fn fixed_visibility_uses_absolute_radii() {
        let inst = s1(); // r = 1, dist = 5
        let wide =
            FixedPair::symmetric("stay", |_| std::iter::empty()).visibility(Visibility::Fixed {
                a: ratio(6, 1),
                b: ratio(6, 1),
            });
        // Radius 6 > dist 5: the agents already see each other.
        assert!(wide.solve(&inst, &Budget::default().segments(10)).met());
    }

    #[test]
    fn solver_names_are_stable() {
        assert_eq!(Aur.name(), "aur");
        assert_eq!(Dedicated.name(), "dedicated");
        let p = FixedPair::symmetric("cgkk", |_| std::iter::empty());
        assert_eq!(p.name(), "cgkk");
    }
}
