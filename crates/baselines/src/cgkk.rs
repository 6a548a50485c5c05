//! Reconstruction of the `CGKK` procedure (\[18\], PODC 2019).
//!
//! **Contract** (Section 2 of the reproduced paper): rendezvous for every
//! instance with simultaneous start (`t = 0`) that is (1) non-synchronous,
//! or (2) `φ ≠ 0 ∧ χ = +1`; straight-segment moves only.
//!
//! The original paper's construction is not available to this
//! reproduction; this module implements a procedure with the same
//! contract. Two mechanisms are interleaved phase by phase:
//!
//! 1. **Dense sweep** (`PlanarCowWalk(k)`): with `t = 0` and `τ = 1`, both
//!    agents' positions are related by the *fixed* similarity
//!    `T(p) = (x,y) + τv·R_φ·M_χ·p` at all times, because every
//!    instruction occupies the same absolute time interval for both
//!    agents. Whenever `T` is not a pure translation or glide reflection
//!    (i.e. except `v = 1 ∧ (φ = 0 ∧ χ = +1 or χ = −1)`), it has a fixed
//!    point `c`, and `dist(A,B)(s) ≤ (1 + τv)·dist(pos_A(s), c)`. The
//!    sweep brings agent A within `√2·2^(−k)` of `c` once `2^k ≥ |c|`, so
//!    rendezvous occurs when `(1+τv)·√2·2^(−k) ≤ r`.
//! 2. **Calibrated desynchronisation** (`wait(2^(2k)·pcw_duration(k))`
//!    then `PlanarCowWalk(k)`): with `t = 0` and clock ratio
//!    `ρ = τ_max/τ_min ∈ [1 + 2^(−k), 2^k]`, the wait separates the two
//!    agents' schedules by more than a full sweep, so the fast-clock agent
//!    performs its entire dense sweep while the other sits at its start —
//!    the paper's own type-3 argument (Lemma 3.4), with the wait scaled to
//!    `2^(2k)·pcw ≥ pcw·ρ/(ρ−1)`.
//!
//! Together the mechanisms cover the whole contract: non-synchronous
//! instances have `τ ≠ 1` (mechanism 2) or `τ = 1 ∧ v ≠ 1`
//! (mechanism 1, scale ≠ 1), and synchronous `φ ≠ 0 ∧ χ = +1` instances
//! are proper rotations (mechanism 1). The wait is `2^(5k+4)`-ish instead
//! of the paper's own `2^(15k²)` so that early phases stay simulatable;
//! correctness only needs the wait to dominate one sweep at the assumed
//! clock-ratio bound.

use crate::cow::{pcw_duration, planar_cow_walk};
use rv_numeric::Ratio;
use rv_trajectory::{lazy, Instr};

/// The infinite CGKK program (both agents run it from wake-up; contract
/// requires simultaneous wake-up).
pub fn cgkk() -> impl Iterator<Item = Instr> + Send {
    (1u32..).flat_map(|k| {
        let sweep1 = lazy(move || planar_cow_walk(k));
        let pause = cgkk_wait(k);
        let sweep2 = lazy(move || planar_cow_walk(k));
        sweep1
            .chain(std::iter::once(Instr::wait(pause)))
            .chain(sweep2)
    })
}

/// The phase-`k` desynchronisation wait: `2^(2k) · pcw_duration(k)`.
pub fn cgkk_wait(k: u32) -> Ratio {
    &Ratio::pow2(2 * k as i64) * &pcw_duration(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_geometry::Vec2;
    use rv_trajectory::{net_local_displacement, take_local_time, total_local_time};

    #[test]
    fn wait_dominates_sweep_at_ratio_bound() {
        // For ρ ≥ 1 + 2^(−k): wait·(ρ−1) ≥ wait·2^(−k) = 2^k·pcw ≥ ρ·pcw
        // (since ρ ≤ 2^k). Check the arithmetic for small k.
        for k in 1..=4u32 {
            let wait = cgkk_wait(k);
            let pcw = pcw_duration(k);
            let rho_min_minus_one = Ratio::pow2(-(k as i64));
            let lhs = &wait * &rho_min_minus_one; // wait·(ρ−1) lower bound
            let rho_max = Ratio::pow2(k as i64);
            let rhs = &pcw * &rho_max; // sweep in slow-clock units upper bound
            assert!(lhs >= rhs, "k={k}: {lhs} < {rhs}");
        }
    }

    #[test]
    fn phase_prefix_returns_to_start() {
        // After each full phase the agent is back at its origin
        // (PCW returns to start; waits do not move).
        let phase1_time = &(&pcw_duration(1) * &Ratio::from_int(2)) + &cgkk_wait(1);
        let path: Vec<_> = take_local_time(cgkk(), phase1_time.clone()).collect();
        assert_eq!(total_local_time(&path), phase1_time);
        assert_eq!(net_local_displacement(&path), Vec2::ZERO);
    }

    #[test]
    fn program_is_infinite() {
        // Pull well past phase 1 without exhaustion.
        let n = cgkk().take(100_000).count();
        assert_eq!(n, 100_000);
    }

    #[test]
    fn early_prefix_is_a_planar_sweep() {
        // The first instructions must match PlanarCowWalk(1) so that
        // block-4 slicing of Algorithm 1 sees sweep moves immediately.
        let from_cgkk: Vec<_> = cgkk().take(10).collect();
        let from_pcw: Vec<_> = planar_cow_walk(1).take(10).collect();
        assert_eq!(from_cgkk, from_pcw);
    }
}
