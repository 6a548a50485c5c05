//! Reconstruction of the `Latecomers` procedure (GATHER(2) from \[38\],
//! ICDCN 2020).
//!
//! **Contract** (Section 2 of the reproduced paper): rendezvous for every
//! instance with `τ = v = 1`, `φ = 0`, `χ = +1` (coordinate systems are
//! shifts of each other) and delay `t > dist((0,0),(x,y)) − r`.
//!
//! The original construction is not available to this reproduction; this
//! module implements a procedure with the same contract. With shifted
//! frames and a common displacement function `f`,
//! `pos_A(s) = f(s)` and `pos_B(s) = D + f(s−t)`, so rendezvous means
//! `|D − (f(s) − f(s−t))| ≤ r` for some `s`. Phase `k` plays, for each of
//! the `2^k` grid directions `u_m = (2πm/2^k)`:
//!
//! ```text
//! wait(2^k); go(u_m, 2^k); wait(2^k); go(u_m + π, 2^k)
//! ```
//!
//! Because every run is flanked by waits of the same length, once
//! `2^k ≥ t` the window difference `f(s) − f(s−t)` sweeps the whole
//! segment `{ℓ·u_m : 0 ≤ ℓ ≤ t}` continuously as `s` slides across a run.
//! The reachable set is therefore `r`-dense in the ball of radius `t` once
//! additionally `π·t/2^k` is below the feasibility slack
//! `r − (|D| − t) > 0`, and rendezvous follows.

use rv_geometry::Angle;
use rv_numeric::Ratio;
use rv_trajectory::Instr;

/// The infinite Latecomers program.
pub fn latecomers() -> impl Iterator<Item = Instr> + Send {
    (1u32..).flat_map(|k| {
        // Keep the span exponent in machine range; budgets stop far earlier.
        let e = k.min(62);
        let span = Ratio::pow2(e as i64);
        (0..(1u64 << e.min(20))).flat_map(move |m| {
            let dir = Angle::pi_frac(2 * m as i64, 1i64 << e.min(20));
            let back = dir.clone() + Angle::half();
            [
                Instr::wait(span.clone()),
                Instr::go_angle(dir, span.clone()),
                Instr::wait(span.clone()),
                Instr::go_angle(back, span.clone()),
            ]
        })
    })
}

/// Local duration of one phase `k` of [`latecomers`]:
/// `2^k directions × 4 instructions × 2^k each = 2^(2k+2)`.
pub fn latecomers_phase_duration(k: u32) -> Ratio {
    Ratio::pow2(2 * k as i64 + 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_geometry::Vec2;
    use rv_trajectory::{net_local_displacement, take_local_time, total_local_time};

    #[test]
    fn phase_duration_matches_materialized() {
        let d1 = latecomers_phase_duration(1);
        let path: Vec<_> = take_local_time(latecomers(), d1.clone()).collect();
        assert_eq!(total_local_time(&path), d1);
        // Each direction block nets zero displacement, so the whole phase
        // returns to the start.
        assert_eq!(net_local_displacement(&path), Vec2::ZERO);
    }

    #[test]
    fn runs_are_flanked_by_equal_waits() {
        let path: Vec<_> = take_local_time(latecomers(), Ratio::pow2(4)).collect();
        // Pattern: wait, go, wait, go, ...
        for (idx, instr) in path.iter().enumerate() {
            if idx % 2 == 0 {
                assert!(matches!(instr, Instr::Wait { .. }), "index {idx}");
            } else {
                assert!(matches!(instr, Instr::Go { .. }), "index {idx}");
            }
        }
    }

    #[test]
    fn direction_grid_covers_circle() {
        // Phase 2 must use 4 distinct directions spaced by π/2.
        let phase1 = latecomers_phase_duration(1);
        let phase2_end = &phase1 + &latecomers_phase_duration(2);
        let path: Vec<_> = take_local_time(latecomers(), phase2_end).collect();
        let mut dirs = Vec::new();
        for instr in &path[8..] {
            // skip phase 1 (2 dirs × 4 instrs)
            if let Instr::Go { dir, .. } = instr {
                if !dirs.contains(dir) {
                    dirs.push(dir.clone());
                }
            }
        }
        // Grid {0, π/2, π, 3π/2}; the return legs coincide with the grid.
        assert_eq!(dirs.len(), 4, "got {dirs:?}");
        assert!(dirs.contains(&Angle::pi_frac(1, 2)));
        assert!(dirs.contains(&Angle::pi_frac(3, 2)));
    }

    #[test]
    fn program_is_infinite() {
        assert_eq!(latecomers().take(50_000).count(), 50_000);
    }
}
