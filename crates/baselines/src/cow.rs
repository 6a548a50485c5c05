//! The cow-path search walks: Algorithm 3 (`LinearCowWalk`) and
//! Algorithm 2 (`PlanarCowWalk`) of the paper, plus the classic unbounded
//! linear search of Beck–Newman \[10\].
//!
//! `LinearCowWalk(i)` performs the first `i` doubling steps of a linear
//! search along the local x-axis and returns to its start.
//! `PlanarCowWalk(i)` runs a `LinearCowWalk(i)` from every point
//! `(0, k/2^i)` with `|k| ≤ 2^(2i)` and returns to its start: a
//! `2^(-i)`-dense sweep of the square of half-side `2^i` (Claim 3.7: it
//! brings the agent within one local `2^(-i)` of every point at distance
//! `≤ 2^i` of its start).

use rv_geometry::Compass;
use rv_numeric::{Int, Ratio};
use rv_trajectory::Instr;

/// Asserts the phase index is simulatable; budgets exhaust long before
/// this bound, and `2^(2i)` must fit comfortably in machine integers.
fn check_phase(i: u32) {
    assert!(
        (1..=30).contains(&i),
        "phase index {i} out of the simulatable range 1..=30"
    );
}

/// Algorithm 3 — `LinearCowWalk(i)`: for `j = 1..i`:
/// `go(E, 2^j); go(W, 2^(j+1)); go(E, 2^j)`.
pub fn linear_cow_walk(i: u32) -> impl Iterator<Item = Instr> + Send {
    check_phase(i);
    (1..=i).flat_map(|j| {
        [
            Instr::go(Compass::East, Ratio::pow2(j as i64)),
            Instr::go(Compass::West, Ratio::pow2(j as i64 + 1)),
            Instr::go(Compass::East, Ratio::pow2(j as i64)),
        ]
    })
}

/// Local duration of `LinearCowWalk(i)`: `Σ_{j=1..i} 2^(j+2) = 2^(i+3) − 8`.
pub fn lcw_duration(i: u32) -> Ratio {
    check_phase(i);
    Ratio::from_int(&Int::pow2(i as u64 + 3) - &Int::from(8i64))
}

/// Algorithm 2 — `PlanarCowWalk(i)`: a `LinearCowWalk(i)` from every
/// vertical offset `k/2^i`, `|k| ≤ 2^(2i)`, returning to the start.
pub fn planar_cow_walk(i: u32) -> impl Iterator<Item = Instr> + Send {
    check_phase(i);
    let reps = 1u64 << (2 * i); // 2^(2i)
    let step = Ratio::pow2(-(i as i64)); // 1/2^i
    let span = Ratio::pow2(i as i64); // 2^i

    let first = linear_cow_walk(i);
    let sweeps = [Compass::North, Compass::South]
        .into_iter()
        .flat_map(move |dir| {
            let step = step.clone();
            let span = span.clone();
            let back = dir.opposite();
            (0..reps)
                .flat_map(move |_| {
                    let step = step.clone();
                    std::iter::once(Instr::go(dir, step)).chain(linear_cow_walk(i))
                })
                .chain(std::iter::once(Instr::go(back, span)))
        });
    first.chain(sweeps)
}

/// Local duration of `PlanarCowWalk(i)` in closed form:
/// `(2·2^(2i) + 1)·lcw + 2·2^(2i)·2^(-i) + 2·2^i`.
pub fn pcw_duration(i: u32) -> Ratio {
    check_phase(i);
    let lcw = lcw_duration(i);
    let two_sq = Ratio::from_int(Int::pow2(2 * i as u64 + 1)); // 2^(2i+1)
    let lcw_count = &two_sq + &Ratio::one();
    let vertical = &two_sq * &Ratio::pow2(-(i as i64));
    let returns = Ratio::pow2(i as i64 + 1);
    &(&lcw_count * &lcw) + &(&vertical + &returns)
}

/// The classic unbounded cow-path linear search \[10\]: doubling sweeps
/// forever. Used by the type-1 intuition of Section 3.1.1 and as a
/// reference baseline.
///
/// The sweep exponent saturates at 2^40: positions beyond ~2^52 would
/// exceed `f64`'s exact-integer range and silently lose unit-scale
/// structure (see the precision policy in the `rv_numeric` crate docs).
/// A 2^40-unit
/// search range is far past any simulation budget, so the saturation is
/// unobservable except as a guarantee.
pub fn cow_path_search() -> impl Iterator<Item = Instr> + Send {
    (1u32..).flat_map(|j| {
        let e = j.min(40) as i64;
        [
            Instr::go(Compass::East, Ratio::pow2(e)),
            Instr::go(Compass::West, Ratio::pow2(e + 1)),
            Instr::go(Compass::East, Ratio::pow2(e)),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_geometry::Vec2;
    use rv_trajectory::{net_local_displacement, total_local_time};

    #[test]
    fn lcw_returns_to_start() {
        for i in 1..=4 {
            let path: Vec<_> = linear_cow_walk(i).collect();
            assert_eq!(net_local_displacement(&path), Vec2::ZERO, "i={i}");
            assert_eq!(path.len(), 3 * i as usize);
        }
    }

    #[test]
    fn lcw_duration_matches_materialized() {
        for i in 1..=5 {
            let path: Vec<_> = linear_cow_walk(i).collect();
            assert_eq!(total_local_time(&path), lcw_duration(i), "i={i}");
        }
    }

    #[test]
    fn lcw_visits_extremes() {
        // Step j reaches +2^j and −2^j around the start.
        let path: Vec<_> = linear_cow_walk(3).collect();
        let mut x = Ratio::zero();
        let mut min = Ratio::zero();
        let mut max = Ratio::zero();
        for instr in &path {
            if let Instr::Go { dir, dist } = instr {
                let (c, _) = dir.cos_sin();
                if c > 0.0 {
                    x += dist;
                } else {
                    x -= dist;
                }
                min = min.min(x.clone());
                max = max.max(x.clone());
            }
        }
        assert_eq!(max, Ratio::pow2(3));
        assert_eq!(min, -Ratio::pow2(3));
        assert!(x.is_zero());
    }

    #[test]
    fn pcw_returns_to_start() {
        for i in 1..=2 {
            let path: Vec<_> = planar_cow_walk(i).collect();
            assert_eq!(net_local_displacement(&path), Vec2::ZERO, "i={i}");
        }
    }

    #[test]
    fn pcw_duration_matches_materialized() {
        for i in 1..=3 {
            let path: Vec<_> = planar_cow_walk(i).collect();
            assert_eq!(total_local_time(&path), pcw_duration(i), "i={i}");
        }
    }

    #[test]
    fn pcw_covers_vertical_range() {
        // The sweep must reach y = ±2^i (2^(2i) steps of 2^(-i) each way).
        let i = 2;
        let path: Vec<_> = planar_cow_walk(i).collect();
        let mut y = Ratio::zero();
        let mut min = Ratio::zero();
        let mut max = Ratio::zero();
        for instr in &path {
            if let Instr::Go { dir, dist } = instr {
                let (_, s) = dir.cos_sin();
                if s > 0.0 {
                    y += dist;
                } else if s < 0.0 {
                    y -= dist;
                }
                min = min.min(y.clone());
                max = max.max(y.clone());
            }
        }
        assert_eq!(max, Ratio::pow2(i as i64));
        assert_eq!(min, -Ratio::pow2(i as i64));
    }

    #[test]
    fn pcw_density_claim_3_7() {
        // Claim 3.7 (discretised): every grid point (a/2^i, c/2^i) with
        // |a|, |c| ≤ 2^(2i)... is approached within 1/2^i. We verify on a
        // sample of targets for i = 2 by tracking the walk's polyline.
        let i = 2u32;
        let mut pos = Vec2::ZERO;
        let mut visited = vec![pos];
        for instr in planar_cow_walk(i) {
            pos += instr.local_displacement();
            visited.push(pos);
        }
        let targets = [
            Vec2::new(3.0, 3.0),
            Vec2::new(-4.0, 2.25),
            Vec2::new(0.5, -3.75),
            Vec2::new(4.0, 4.0),
            Vec2::new(-4.0, -4.0),
        ];
        for target in targets {
            // Min distance from the polyline (segment-wise).
            let mut best = f64::INFINITY;
            for w in visited.windows(2) {
                best = best.min(dist_point_segment(target, w[0], w[1]));
            }
            let bound = 2f64.powi(-(i as i32)) * 1.01;
            assert!(
                best <= bound,
                "target {target:?} approached only to {best}, bound {bound}"
            );
        }
    }

    fn dist_point_segment(p: Vec2, a: Vec2, b: Vec2) -> f64 {
        let ab = b - a;
        let denom = ab.norm_sq();
        if denom == 0.0 {
            return p.dist(a);
        }
        let t = ((p - a).dot(ab) / denom).clamp(0.0, 1.0);
        p.dist(a + ab * t)
    }

    #[test]
    fn cow_path_is_infinite_and_doubling() {
        let first: Vec<_> = cow_path_search().take(6).collect();
        assert_eq!(first[0], Instr::go(Compass::East, Ratio::pow2(1)));
        assert_eq!(first[1], Instr::go(Compass::West, Ratio::pow2(2)));
        assert_eq!(first[3], Instr::go(Compass::East, Ratio::pow2(2)));
    }

    #[test]
    #[should_panic(expected = "phase index")]
    fn phase_bounds_enforced() {
        let _ = linear_cow_walk(0);
    }
}
