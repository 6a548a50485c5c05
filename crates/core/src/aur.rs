//! Algorithm 1 — `AlmostUniversalRV`.
//!
//! The algorithm is an infinite repeat loop over phases `i = 1, 2, 3, …`;
//! each phase runs four blocks, one per instance type of Section 3.1.1
//! (the executing agent does not know the type — it simply runs all four):
//!
//! * **Block 1** (type 1, lines 5–7): for `j = 1 .. 2^(i+1)`, execute
//!   `PlanarCowWalk(i)` in the rotated system `Rot(jπ/2^i)`.
//! * **Block 2** (type 2, lines 9–12): `wait(2^i)`; run `Latecomers` for
//!   `2^i` local time units; backtrack the path just followed.
//! * **Block 3** (type 3, lines 14–15): `wait(2^(15 i²))`; then
//!   `PlanarCowWalk(i)`.
//! * **Block 4** (type 4, lines 17–20): cut the first `2^i` local time
//!   units of a solo `CGKK` execution into `2^(2i)` segments of `1/2^i`
//!   each, execute them interleaved with `wait(2^i)` pauses, then
//!   backtrack.
//!
//! Every block returns the agent to the position it started the phase at
//! (Lemma 3.1), which the phase-indexed correctness arguments rely on.
//! All segment timings are exact rationals, including the `2^(15 i²)`
//! wait — the event-driven simulator advances over it in O(1).

use rv_baselines::{cgkk, latecomers, planar_cow_walk};
use rv_geometry::Angle;
use rv_numeric::Ratio;
use rv_trajectory::{
    backtrack, lazy, rotated, slice_interleave_backtrack, take_local_time, CompiledProgram, Instr,
};
use std::sync::OnceLock;

/// Highest phase index the implementation will construct. Simulation
/// budgets exhaust long before this (phase `i` costs Θ(i·2^(3i)) motion
/// segments), but the stream stays well-defined.
pub const MAX_PHASE: u32 = 30;

type Block = Box<dyn Iterator<Item = Instr> + Send>;

/// The full (infinite) `AlmostUniversalRV` program. Both agents execute
/// it in their own private frames; the simulator interrupts on sight.
pub fn almost_universal_rv() -> impl Iterator<Item = Instr> + Send {
    (1..=MAX_PHASE).flat_map(aur_phase)
}

/// The `AlmostUniversalRV` program compiled once per process.
///
/// The program is instance-independent (the instance only enters through
/// each agent's private frame, applied later by the kinematic compiler),
/// so every run of every campaign can replay the same shared compiled
/// stream instead of regenerating phases — the generator arithmetic is
/// paid once, replays after that read the cache. See
/// [`rv_trajectory::CompiledProgram`] for the caching/fallback contract.
pub fn compiled_aur() -> &'static CompiledProgram {
    static COMPILED: OnceLock<CompiledProgram> = OnceLock::new();
    COMPILED.get_or_init(|| CompiledProgram::new(|| Box::new(almost_universal_rv())))
}

/// One phase of Algorithm 1 (the `i`-th iteration of the repeat loop).
pub fn aur_phase(i: u32) -> impl Iterator<Item = Instr> + Send {
    assert!(
        (1..=MAX_PHASE).contains(&i),
        "phase {i} outside 1..={MAX_PHASE}"
    );
    block1(i).chain(block2(i)).chain(block3(i)).chain(block4(i))
}

/// Lines 5–7: `2^(i+1)` rotated planar sweeps.
pub fn block1(i: u32) -> Block {
    let frames = 1u64 << (i + 1);
    Box::new((1..=frames).flat_map(move |j| {
        let alpha = Angle::pi_frac(j as i64, 1i64 << i);
        rotated(planar_cow_walk(i), alpha)
    }))
}

/// Lines 9–12: wait, truncated `Latecomers`, backtrack.
pub fn block2(i: u32) -> Block {
    let horizon = Ratio::pow2(i as i64);
    Box::new(lazy(move || {
        // rv-lint: allow(hot) — phase compile, not per event: runs once per
        // phase while the shared CompiledProgram materializes; backtracking
        // requires the materialized path.
        let path: Vec<Instr> = take_local_time(latecomers(), horizon.clone()).collect();
        let back = backtrack(&path);
        // rv-lint: allow(hot) — same one-time phase compile as above.
        std::iter::once(Instr::wait(horizon.clone()))
            .chain(path)
            .chain(back)
    }))
}

/// Lines 14–15: the calibrated giant wait, then a planar sweep.
pub fn block3(i: u32) -> Block {
    let wait = Ratio::pow2(15 * (i as i64) * (i as i64));
    Box::new(std::iter::once(Instr::wait(wait)).chain(planar_cow_walk(i)))
}

/// Lines 17–20: sliced `CGKK` with interleaved waits, then backtrack.
pub fn block4(i: u32) -> Block {
    let slice = Ratio::pow2(-(i as i64));
    let pause = Ratio::pow2(i as i64);
    let n_slices = 1u64 << (2 * i);
    Box::new(lazy(move || {
        slice_interleave_backtrack(cgkk(), &slice, &pause, n_slices).into_iter()
    }))
}

/// Total local duration of phase `i` (finite and exactly computable; used
/// by experiments to convert phase budgets into time budgets).
pub fn phase_duration(i: u32) -> Ratio {
    let mut total = Ratio::zero();
    // Block 1: 2^(i+1) planar sweeps.
    total += &(&Ratio::pow2(i as i64 + 1) * &rv_baselines::pcw_duration(i));
    // Block 2: wait + latecomers slice + backtrack of its moves. The
    // backtrack length depends on how much of the slice was movement, so
    // sum it exactly from the materialized path.
    let horizon = Ratio::pow2(i as i64);
    // rv-lint: allow(hot) — analysis helper, not on the solve path; the
    // backtrack length is only computable from a materialized path.
    let path: Vec<Instr> = take_local_time(latecomers(), horizon.clone()).collect();
    let back = backtrack(&path);
    total += &horizon;
    total += &rv_trajectory::total_local_time(&path);
    total += &rv_trajectory::total_local_time(&back);
    // Block 3.
    total += &Ratio::pow2(15 * (i as i64) * (i as i64));
    total += &rv_baselines::pcw_duration(i);
    // Block 4: 2^i of CGKK + 2^(2i) pauses of 2^i + backtrack.
    let sliced = slice_interleave_backtrack(
        cgkk(),
        &Ratio::pow2(-(i as i64)),
        &Ratio::pow2(i as i64),
        1u64 << (2 * i),
    );
    total += &rv_trajectory::total_local_time(&sliced);
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_geometry::Vec2;
    use rv_trajectory::net_local_displacement;

    #[test]
    fn lemma_3_1_blocks_return_to_start() {
        for i in 1..=2u32 {
            for (name, block) in [
                ("block1", block1(i)),
                ("block2", block2(i)),
                ("block3", block3(i)),
                ("block4", block4(i)),
            ] {
                let path: Vec<Instr> = block.collect();
                let net = net_local_displacement(&path);
                assert!(net.dist(Vec2::ZERO) < 1e-9, "{name} phase {i} nets {net:?}");
            }
        }
    }

    #[test]
    fn block1_uses_all_rotations() {
        // Phase 1: j = 1..4, frames Rot(π/2), Rot(π), Rot(3π/2), Rot(2π).
        // The first instruction of each sweep is go(E, 2) rotated.
        let path: Vec<Instr> = block1(1).collect();
        let pcw_len = planar_cow_walk(1).count();
        let mut firsts = Vec::new();
        for j in 0..4 {
            if let Instr::Go { dir, .. } = &path[j * pcw_len] {
                firsts.push(dir.clone());
            }
        }
        assert_eq!(
            firsts,
            vec![
                Angle::pi_frac(1, 2),
                Angle::pi_frac(1, 1),
                Angle::pi_frac(3, 2),
                Angle::pi_frac(0, 1),
            ]
        );
    }

    #[test]
    fn block3_wait_is_calibrated() {
        let path: Vec<Instr> = block3(2).collect();
        assert_eq!(path[0], Instr::wait(Ratio::pow2(60)));
        // i = 1 ⇒ 2^15.
        let p1: Vec<Instr> = block3(1).collect();
        assert_eq!(p1[0], Instr::wait(Ratio::pow2(15)));
    }

    #[test]
    fn block4_interleaves_correct_pause_count() {
        let i = 1u32;
        let path: Vec<Instr> = block4(i).collect();
        let pauses = path
            .iter()
            .filter(|x| matches!(x, Instr::Wait { dur } if *dur == Ratio::pow2(1)))
            .count();
        assert_eq!(pauses, 4); // 2^(2i) = 4 slices, each followed by wait(2^i)
    }

    #[test]
    fn phase_duration_dominated_by_giant_wait() {
        // 2^(15i²) dwarfs everything else in the phase.
        let d2 = phase_duration(2);
        let wait = Ratio::pow2(60);
        let ratio = &d2 / &wait;
        assert!(ratio >= Ratio::one());
        assert!(ratio < Ratio::from_int(2), "phase ≈ wait: got {ratio}");
    }

    #[test]
    fn phases_are_lazy() {
        // Constructing the program and pulling a few instructions must not
        // materialize later phases (which would OOM at i ≥ 10).
        let mut prog = almost_universal_rv();
        for _ in 0..100 {
            assert!(prog.next().is_some());
        }
    }

    #[test]
    #[should_panic(expected = "phase")]
    fn phase_zero_rejected() {
        let _ = aur_phase(0);
    }
}
