//! Property tests for the simulator: crossing detection against
//! brute-force sampling, budget monotonicity, trace sanity.
//!
//! Case counts are capped for CI-friendly wall time. For a deep run,
//! override them with the `PROPTEST_CASES` environment variable, which
//! takes precedence over the in-source configuration (e.g.
//! `PROPTEST_CASES=4096 cargo test --release`).

use proptest::prelude::*;
use rv_geometry::{Angle, Chirality, Vec2};
use rv_numeric::Ratio;
use rv_sim::{simulate, Budget, Outcome};
use rv_trajectory::{AgentAttrs, Instr, Motion};
use std::iter::empty;

fn instr_strategy() -> impl Strategy<Value = Instr> {
    prop_oneof![
        3 => ((-16i64..16), (1i64..16), (1i64..24), (1i64..4)).prop_map(|(p, q, dp, dq)| {
            Instr::go_angle(Angle::pi_frac(p, q), Ratio::frac(dp, dq))
        }),
        1 => ((1i64..16), (1i64..4)).prop_map(|(p, q)| Instr::wait(Ratio::frac(p, q))),
    ]
}

fn program_strategy() -> impl Strategy<Value = Vec<Instr>> {
    proptest::collection::vec(instr_strategy(), 1..12)
}

fn attrs_strategy(ox: f64, oy: f64) -> impl Strategy<Value = AgentAttrs> {
    (
        (-16i64..16, 1i64..8),
        (1i64..4, 1i64..4),
        (1i64..4, 1i64..4),
        (0i64..6, 1i64..2),
        any::<bool>(),
    )
        .prop_map(
            move |((pp, pq), (tp, tq), (vp, vq), (wp, wq), plus)| AgentAttrs {
                origin: Vec2::new(ox, oy),
                phi: Angle::pi_frac(pp, pq),
                chi: if plus {
                    Chirality::Plus
                } else {
                    Chirality::Minus
                },
                tau: Ratio::frac(tp, tq),
                speed: Ratio::frac(vp, vq),
                wake: Ratio::frac(wp, wq),
            },
        )
}

/// Brute force: sample both motions on a fine time grid and find the
/// first grid point within `r`.
fn brute_force_first_meet(
    attrs_a: &AgentAttrs,
    prog_a: &[Instr],
    attrs_b: &AgentAttrs,
    prog_b: &[Instr],
    r: f64,
    horizon: f64,
    steps: usize,
) -> Option<f64> {
    let sample = |attrs: &AgentAttrs, prog: &[Instr], t: f64| -> Vec2 {
        let mut pos = attrs.origin;
        let mut found = false;
        for seg in Motion::new(attrs.clone(), prog.iter().cloned()) {
            let start = seg.start.to_f64();
            let end = seg
                .end
                .as_ref()
                .map(|e| e.to_f64())
                .unwrap_or(f64::INFINITY);
            if t >= start && t <= end {
                pos = seg.pos_at_offset(t - start);
                found = true;
                break;
            }
            // Track the last known end position for times beyond.
            let dur = seg
                .end
                .as_ref()
                .map(|e| (e - &seg.start).to_f64())
                .unwrap_or(0.0);
            pos = seg.pos_at_offset(dur);
        }
        let _ = found;
        pos
    };
    for k in 0..=steps {
        let t = horizon * k as f64 / steps as f64;
        let pa = sample(attrs_a, prog_a, t);
        let pb = sample(attrs_b, prog_b, t);
        if pa.dist(pb) <= r {
            return Some(t);
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simulator_agrees_with_brute_force(prog_a in program_strategy(),
                                         prog_b in program_strategy(),
                                         attrs_a in attrs_strategy(0.0, 0.0),
                                         attrs_b in attrs_strategy(6.0, 2.0),
                                         r_num in 1i64..6) {
        let r = Ratio::frac(r_num, 2);
        let report = simulate(
            attrs_a.clone(),
            prog_a.clone().into_iter(),
            attrs_b.clone(),
            prog_b.clone().into_iter(),
            (&r, &r),
            &Budget::default().segments(10_000),
        );
        let horizon = 40.0;
        let brute = brute_force_first_meet(
            &attrs_a, &prog_a, &attrs_b, &prog_b, r.to_f64(), horizon, 8_000,
        );
        match (report.meeting(), brute) {
            (Some(m), Some(bt)) => {
                let st = m.time.to_f64();
                if st <= horizon {
                    // The exact solver can only be earlier than the grid.
                    prop_assert!(st <= bt + 1e-6, "sim at {st} later than brute {bt}");
                    prop_assert!(bt - st <= horizon / 8000.0 + 1e-5,
                                 "sim {st} much earlier than brute {bt}");
                }
            }
            (None, Some(bt)) => {
                prop_assert!(false, "simulator missed a meeting at {bt}");
            }
            (Some(m), None) => {
                // Sub-grid graze or meeting after the horizon: verify.
                let st = m.time.to_f64();
                prop_assert!(
                    st > horizon || m.dist <= r.to_f64() * (1.0 + 1e-6),
                    "claimed meet at {st} dist {}", m.dist
                );
            }
            (None, None) => {}
        }
    }

    #[test]
    fn min_dist_never_above_initial(prog_a in program_strategy(),
                                    attrs_b in attrs_strategy(8.0, 1.0)) {
        let r = Ratio::frac(1, 4);
        let report = simulate(
            AgentAttrs::reference(),
            prog_a.into_iter(),
            attrs_b.clone(),
            empty::<Instr>(),
            (&r, &r),
            &Budget::default().segments(5_000),
        );
        let initial = attrs_b.origin.norm();
        prop_assert!(report.min_dist <= initial + 1e-9);
    }

    #[test]
    fn trace_is_time_sorted_and_capped(prog_a in program_strategy(),
                                       cap in 8usize..64) {
        let attrs_b = AgentAttrs {
            origin: Vec2::new(50.0, 0.0),
            ..AgentAttrs::reference()
        };
        let report = simulate(
            AgentAttrs::reference(),
            prog_a.into_iter().cycle().take(2_000),
            attrs_b,
            empty::<Instr>(),
            (&Ratio::one(), &Ratio::one()),
            &Budget::default().segments(3_000).trace(cap),
        );
        prop_assert!(report.trace.len() <= cap + 1);
        for w in report.trace.windows(2) {
            prop_assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn outcome_is_exhaustive(prog_a in program_strategy()) {
        let attrs_b = AgentAttrs {
            origin: Vec2::new(100.0, 0.0),
            ..AgentAttrs::reference()
        };
        let report = simulate(
            AgentAttrs::reference(),
            prog_a.into_iter(),
            attrs_b,
            empty::<Instr>(),
            (&Ratio::one(), &Ratio::one()),
            &Budget::default().segments(500),
        );
        // Finite programs against a halted agent must end in BothHalted or
        // Segments (never hang); meeting is impossible at distance 100 with
        // short programs.
        match report.outcome {
            Outcome::Met(_) => prop_assert!(false, "cannot meet at distance 100"),
            Outcome::Budget(_) => {}
        }
    }
}
