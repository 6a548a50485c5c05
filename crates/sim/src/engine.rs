//! The exact event-driven two-agent simulator.
//!
//! The two motions are merged on their exact rational event times; within
//! each interval both agents move with constant velocity, so the first
//! crossing of the visibility radius is found in closed form
//! ([`rv_geometry::first_within`]). There is no time step: a wait of
//! `2^(15·i²)` local units costs exactly one event, and event *ordering* —
//! which every correctness argument in the paper depends on — is decided
//! in exact arithmetic.
//!
//! Stop-on-sight: with equal radii the first crossing *is* the rendezvous
//! (both agents see each other simultaneously and stop). With different
//! radii (Section 5 of the paper), the agent with the larger radius `r1`
//! sees first and freezes; the simulation continues until the distance
//! reaches the smaller radius `r2`, which is the rendezvous.
//!
//! # Integer ticks
//!
//! Each run counts time in integer ticks of `1/S` seconds, for one
//! positive integer `S = 2^E·σ` (`σ` odd) that is a common denominator of
//! every clock of the run. Setup picks the coarsest such `S` for both
//! agents' wake times and clock rates. The engine's clock `cur` is the
//! run's only absolute time. A [`Motion`] yields each segment as a
//! [`Leg`]: its length `(τS)·d_k` ticks, from the exact local duration
//! `d_k` of its step (one i128 multiply on the common path), and no start
//! time. The engine places the leg at `cur`, ending at `cur + len` (one
//! i128 add while `cur` fits). When a step's `d_k`, or the Section 5
//! freeze's exact offset, needs a finer tick, the run refines `S` by the
//! missing factor and multiplies its few live clocks by it; a leg is
//! placed only once the run has adopted its motion's refinement, so `cur`
//! and `len` count the same tick. The contract:
//! - **Exact order.** Ticks are exact, so ordering two event times
//!   compares two `Int`s.
//! - **Same f64 bits.** Every offset `(Ta − Tb)/S` is projected by
//!   [`TickScale::diff_to_f64`], bit-identical to
//!   `Ratio::new(Ta − Tb, S).to_f64()`: the projection of the exact
//!   offset, whatever `S` is.
//! - **Unscaled outputs.** The meeting's `base` is the exact `cur/S`;
//!   `min_dist_time` and trace times project `cur/S`. No report byte
//!   depends on `S`.
//! - **Where a `Ratio` is built.** At setup, at a refinement, in the
//!   projection's fallback (a difference or scale past its direct path),
//!   for the freeze's offset, and for the meeting's `base`. The interval
//!   loop and a motion's step run on `Int` ticks.

use crate::config::{Budget, BudgetReason};
use crate::outcome::{Meeting, Outcome, SimReport, SimTime, TraceSample};
use rv_geometry::{first_within, min_dist_on_interval, Vec2};
use rv_numeric::{Int, Ratio, TickScale};
use rv_trajectory::{AgentAttrs, Leg, Motion, Segment, StepSource};

struct AgentState<P> {
    motion: Motion<P>,
    /// The current segment, placed on the run's clock.
    seg: Segment<Int>,
    /// True when `seg.start` is the engine's current time: the agent
    /// was just initialized, advanced, or frozen.
    starts_now: bool,
}

impl<P: StepSource> AgentState<P> {
    /// The agent at time zero, before [`Clock::advance`] places its first
    /// segment: it stands at tick 0 until then.
    fn new(motion: Motion<P>) -> AgentState<P> {
        AgentState {
            motion,
            seg: Segment {
                start: Int::ZERO,
                end: Some(Int::ZERO),
                from: Vec2::ZERO,
                vel: Vec2::ZERO,
            },
            starts_now: true,
        }
    }

    /// Counts every tick of the agent `m` times finer.
    fn rescale(&mut self, m: &Int) {
        self.motion.rescale(m);
        self.seg.start *= m;
        if let Some(end) = &mut self.seg.end {
            *end *= m;
        }
    }

    /// Position at tick `cur` (must lie within the current segment) on a
    /// clock of `scale` ticks per second.
    fn pos_at(&self, cur: &Int, scale: &TickScale) -> Vec2 {
        if self.seg.is_stationary() {
            // Idle segment: the offset is irrelevant; skip the exact
            // subtraction.
            return self.seg.from;
        }
        // A segment that starts now has offset exactly zero; the f64
        // operations below stay the same, only the subtraction goes.
        debug_assert!(!self.starts_now || self.seg.start == *cur);
        let offset = if self.starts_now {
            0.0
        } else {
            scale.diff_to_f64(cur, &self.seg.start)
        };
        self.seg.pos_at_offset(offset)
    }

    /// Replaces the remaining motion with an eternal halt at `pos`/`time`
    /// (the new current time).
    fn freeze(&mut self, time: Int, pos: Vec2) {
        self.seg = Segment {
            start: time,
            end: None,
            from: pos,
            vel: Vec2::ZERO,
        };
        self.starts_now = true;
    }
}

/// The run's clock, in ticks: the only absolute time of the run.
struct Clock {
    /// Ticks per second: the common denominator `S` of every clock.
    scale: TickScale,
    /// The current time.
    cur: Int,
}

impl Clock {
    /// Counts every tick of the run `m` times finer, `other`'s included.
    fn rescale<P: StepSource>(&mut self, m: &Int, other: &mut AgentState<P>) {
        self.scale = TickScale::new(self.scale.den() * m);
        self.cur *= m;
        other.rescale(m);
    }

    /// Moves `agent` to its next segment, placed at `cur`. A motion that
    /// refined its tick while stepping refines the whole run first, so the
    /// leg's length and `cur` count the same tick.
    #[inline]
    fn advance<P: StepSource, Q: StepSource>(
        &mut self,
        agent: &mut AgentState<P>,
        other: &mut AgentState<Q>,
    ) {
        let Leg { len, from, vel } = agent
            .motion
            .next_ticks()
            .expect("finite segments always have a successor");
        if let Some(m) = agent.motion.take_growth() {
            self.rescale(&m, other);
        }
        let end = len.map(|len| match (&self.cur, &len) {
            (Int::Small(c), Int::Small(l)) => match c.checked_add(*l) {
                Some(end) => Int::Small(end),
                None => &self.cur + &len,
            },
            _ => &self.cur + &len,
        });
        agent.seg = Segment {
            // rv-lint: allow(hot) — irreducible: the segment start and the
            // run's clock are two owners of one value; on the inline-i128
            // path this clone is a copy.
            start: self.cur.clone(),
            end,
            from,
            vel,
        };
    }

    /// Projects tick `t` to absolute f64 seconds.
    fn seconds(&self, t: &Int) -> f64 {
        self.scale.diff_to_f64(t, &Int::ZERO)
    }
}

/// Tracing helper with bounded memory: on overflow it decimates by two and
/// doubles its stride.
struct Tracer {
    cap: usize,
    stride: u64,
    counter: u64,
    /// Timestamps are f64 projections of exact rationals; consecutive
    /// projections can invert by an ULP (`f64(a) + f64(b−a) > f64(b)`), so
    /// the tracer monotonizes them on record.
    last_time: f64,
    samples: Vec<TraceSample>,
}

impl Tracer {
    fn new(cap: usize) -> Tracer {
        Tracer {
            cap,
            stride: 1,
            counter: 0,
            last_time: f64::NEG_INFINITY,
            // rv-lint: allow(hot) — one tracer per run, not per event.
            samples: Vec::new(),
        }
    }

    fn record(&mut self, time: f64, pos_a: Vec2, pos_b: Vec2) {
        if self.cap == 0 {
            return;
        }
        let time = time.max(self.last_time);
        self.last_time = time;
        if self.counter.is_multiple_of(self.stride) {
            let sample = TraceSample {
                time,
                pos_a,
                pos_b,
                dist: pos_a.dist(pos_b),
            };
            if self.cap == 1 {
                // Single-slot trace: keep the latest sample. Decimation
                // would degenerate here (every push would halve-and-double
                // forever, growing `stride` without bound).
                self.samples.clear();
                self.samples.push(sample);
            } else {
                self.samples.push(sample);
                if self.samples.len() >= self.cap {
                    let mut keep = Vec::with_capacity(self.cap / 2 + 1);
                    for (i, s) in self.samples.drain(..).enumerate() {
                        if i % 2 == 0 {
                            keep.push(s);
                        }
                    }
                    self.samples = keep;
                    self.stride = self.stride.saturating_mul(2);
                }
            }
        }
        self.counter += 1;
    }

    /// Records unconditionally (used for the final/meeting sample),
    /// replacing the newest sample when the trace is at capacity so
    /// `samples.len() ≤ cap` holds for every cap, including 1.
    fn record_final(&mut self, time: f64, pos_a: Vec2, pos_b: Vec2) {
        if self.cap == 0 {
            return;
        }
        let time = time.max(self.last_time);
        self.last_time = time;
        let sample = TraceSample {
            time,
            pos_a,
            pos_b,
            dist: pos_a.dist(pos_b),
        };
        if self.samples.len() >= self.cap {
            *self.samples.last_mut().expect("cap > 0 ⇒ non-empty") = sample;
        } else {
            self.samples.push(sample);
        }
    }
}

/// Simulates the two agents until rendezvous or budget exhaustion, each
/// running a [`StepSource`]: a program of owned or borrowed instructions
/// (`Instr`, `&Instr`), or the tape of a compiled program, with the
/// visibility radii `(radius_a, radius_b)` of A and B: equal radii give
/// the paper's base model, unequal ones the Section 5 extension. Picks
/// the run's tick and compiles each program into a [`Motion`] counting it
/// (see the module docs).
pub fn simulate<PA, PB>(
    attrs_a: AgentAttrs,
    prog_a: PA,
    attrs_b: AgentAttrs,
    prog_b: PB,
    (radius_a, radius_b): (&Ratio, &Ratio),
    budget: &Budget,
) -> SimReport
where
    PA: StepSource,
    PB: StepSource,
{
    debug_assert!(attrs_a.validate().is_ok());
    debug_assert!(attrs_b.validate().is_ok());
    assert!(
        radius_a.is_positive() && radius_b.is_positive(),
        "visibility radii must be positive"
    );

    // One tick for the run: the coarsest that counts both agents' wake
    // times and clock rates.
    let mut motion_a = Motion::new(attrs_a, prog_a);
    let mut motion_b = Motion::new(attrs_b, prog_b);
    let scale = motion_a.unit().lcm(motion_b.unit());
    let refine = |unit: &Int| {
        if *unit == scale {
            Int::ONE
        } else {
            scale.div_rem(unit).0
        }
    };
    let (ma, mb) = (refine(motion_a.unit()), refine(motion_b.unit()));
    motion_a.rescale(&ma);
    motion_b.rescale(&mb);
    let mut clock = Clock {
        cur: Int::ZERO,
        scale: TickScale::new(scale),
    };
    let mut a = AgentState::new(motion_a);
    let mut b = AgentState::new(motion_b);
    clock.advance(&mut a, &mut b);
    clock.advance(&mut b, &mut a);
    let mut segments: u64 = 2;

    // Section 5: the agent with the larger radius is far-sighted.
    let a_far = radius_a >= radius_b;
    let (r_big, r_small) = if a_far {
        (radius_a, radius_b)
    } else {
        (radius_b, radius_a)
    };
    let detect_small = r_small.to_f64() * (1.0 + budget.detection_slack);
    let detect_big = r_big.to_f64() * (1.0 + budget.detection_slack);
    // While `big_pending`, the next threshold to cross is r_big (the
    // far-sighted agent's sight). Once crossed, that agent freezes and the
    // hunt continues for r_small.
    let mut big_pending = r_small != r_big;

    let mut min_dist = f64::INFINITY;
    let mut min_dist_time = 0.0;
    let mut tracer = Tracer::new(budget.trace_samples);

    let report =
        |outcome: Outcome, min_dist: f64, min_dist_time: f64, segments: u64, tracer: Tracer| {
            SimReport {
                outcome,
                min_dist,
                min_dist_time,
                segments,
                trace: tracer.samples,
            }
        };

    loop {
        let cur = &clock.cur;
        // --- Interval end: the earlier of the two segment ends.
        // Everything stays borrowed: the bound is a reference into the
        // live segments, and which agent(s) end the interval is decided
        // here so the advance step below can `take()` the end instead of
        // re-comparing copies.
        let (mut a_ends, mut b_ends) = (false, false);
        match (&a.seg.end, &b.seg.end) {
            (None, None) => {}
            (Some(_), None) => a_ends = true,
            (None, Some(_)) => b_ends = true,
            (Some(ea), Some(eb)) => match ea.cmp(eb) {
                std::cmp::Ordering::Less => a_ends = true,
                std::cmp::Ordering::Greater => b_ends = true,
                std::cmp::Ordering::Equal => {
                    a_ends = true;
                    b_ends = true;
                }
            },
        }
        let bound: Option<&Int> = if a_ends {
            a.seg.end.as_ref()
        } else {
            b.seg.end.as_ref()
        };

        // --- Geometry of the interval. ---
        let pa = a.pos_at(cur, &clock.scale);
        let pb = b.pos_at(cur, &clock.scale);
        let rel0 = pb - pa;
        let rel_vel = b.seg.vel - a.seg.vel;
        let dt = match bound {
            None => f64::INFINITY,
            Some(be) => clock.scale.diff_to_f64(be, cur),
        };
        // Campaign runs trace nothing: skip the exact-to-f64 projection.
        if tracer.cap > 0 {
            tracer.record(clock.seconds(cur), pa, pb);
        }

        // --- Threshold detection. ---
        let detect_r = if big_pending {
            detect_big
        } else {
            detect_small
        };
        if let Some(s) = first_within(rel0, rel_vel, detect_r, dt) {
            let hit_a = pa + a.seg.vel * s;
            let hit_b = pb + b.seg.vel * s;
            let d = hit_a.dist(hit_b);
            if d < min_dist {
                min_dist = d;
                min_dist_time = clock.seconds(cur) + s;
            }
            if !big_pending {
                // Rendezvous exit: the run's clocks move into the exact
                // base `cur/S`.
                let Clock { cur, scale, .. } = clock;
                let time = SimTime {
                    base: Ratio::new(cur, scale.into_den()),
                    offset: s,
                };
                tracer.record_final(time.to_f64(), hit_a, hit_b);
                return report(
                    Outcome::Met(Meeting {
                        time,
                        pos_a: hit_a,
                        pos_b: hit_b,
                        dist: d,
                    }),
                    min_dist,
                    min_dist_time,
                    segments,
                    tracer,
                );
            }
            // Section 5: the far-sighted agent sees first and freezes at
            // `cur + s`, on a tick fine enough to count the exact `s`.
            let s_exact = Ratio::from_f64_exact(s).unwrap_or_else(Ratio::zero);
            let den = s_exact.denom();
            let m = den.div_rem(&den.gcd(clock.scale.den())).0;
            if m != Int::ONE {
                clock.rescale(&m, &mut a);
                b.rescale(&m);
            }
            let t_hit = &clock.cur + &(s_exact.numer() * &clock.scale.den().div_rem(den).0);
            if a_far {
                // rv-lint: allow(hot) — asymmetric freeze fires at most once
                // per run (big_pending is cleared right below).
                a.freeze(t_hit.clone(), hit_a);
                b.starts_now = false;
            } else {
                // rv-lint: allow(hot) — same at-most-once freeze as above.
                b.freeze(t_hit.clone(), hit_b);
                a.starts_now = false;
            }
            big_pending = false;
            clock.cur = t_hit;
            continue;
        }

        // --- Track the minimum distance on the interval. ---
        let m = min_dist_on_interval(rel0, rel_vel, dt);
        if m.min_dist < min_dist {
            min_dist = m.min_dist;
            min_dist_time = clock.seconds(cur) + m.argmin;
            // Improvements are exactly the points figure F9 needs; record
            // them (capped like all samples).
            tracer.record(
                min_dist_time,
                pa + a.seg.vel * m.argmin,
                pb + b.seg.vel * m.argmin,
            );
        }

        // --- Advance. ---
        if bound.is_none() {
            // Both agents halted forever, out of range.
            return report(
                Outcome::Budget(BudgetReason::BothHalted),
                min_dist,
                min_dist_time,
                segments,
                tracer,
            );
        }
        // The ending agent's segment end becomes the new clock by move,
        // not copy — its segment is replaced right after anyway.
        if a_ends {
            clock.cur = a.seg.end.take().expect("a_ends ⇒ end present");
            clock.advance(&mut a, &mut b);
            segments += 1;
        }
        if b_ends {
            if !a_ends {
                clock.cur = b.seg.end.take().expect("b_ends ⇒ end present");
            }
            clock.advance(&mut b, &mut a);
            segments += 1;
        }
        a.starts_now = a_ends;
        b.starts_now = b_ends;
        if segments > budget.max_segments {
            return report(
                Outcome::Budget(BudgetReason::Segments),
                min_dist,
                min_dist_time,
                segments,
                tracer,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_geometry::{Angle, Compass};
    use rv_numeric::ratio;
    use rv_trajectory::Instr;
    use std::iter::empty;

    fn attrs_at(x: f64, wake: Ratio) -> AgentAttrs {
        AgentAttrs {
            origin: Vec2::new(x, 0.0),
            wake,
            ..AgentAttrs::reference()
        }
    }

    #[test]
    fn trivial_meet_at_time_zero() {
        let report = simulate(
            AgentAttrs::reference(),
            empty::<Instr>(),
            attrs_at(1.5, Ratio::zero()),
            empty::<Instr>(),
            (&ratio(2, 1), &ratio(2, 1)),
            &Budget::default(),
        );
        let m = report.meeting().expect("should meet immediately");
        assert_eq!(m.time.to_f64(), 0.0);
        assert!((m.dist - 1.5).abs() < 1e-12);
    }

    #[test]
    fn head_on_walkers_meet() {
        // A at 0 walks east, B at 10 stays. r = 2 ⇒ meet at t = 8.
        let prog_a = vec![Instr::go(Compass::East, ratio(20, 1))];
        let report = simulate(
            AgentAttrs::reference(),
            prog_a.into_iter(),
            attrs_at(10.0, Ratio::zero()),
            empty::<Instr>(),
            (&ratio(2, 1), &ratio(2, 1)),
            &Budget::default(),
        );
        let m = report.meeting().unwrap();
        assert!((m.time.to_f64() - 8.0).abs() < 1e-6);
        assert!((m.pos_a - Vec2::new(8.0, 0.0)).norm() < 1e-6);
    }

    #[test]
    fn both_halted_is_reported() {
        let report = simulate(
            AgentAttrs::reference(),
            empty::<Instr>(),
            attrs_at(10.0, Ratio::zero()),
            empty::<Instr>(),
            (&ratio(1, 1), &ratio(1, 1)),
            &Budget::default(),
        );
        assert!(!report.met());
        assert!(matches!(
            report.outcome,
            Outcome::Budget(BudgetReason::BothHalted)
        ));
        assert_eq!(report.min_dist, 10.0);
    }

    #[test]
    fn segment_budget_stops_simulation() {
        let prog_a = std::iter::repeat_with(|| {
            vec![
                Instr::go(Compass::East, ratio(1, 1)),
                Instr::go(Compass::West, ratio(1, 1)),
            ]
        })
        .flatten();
        let report = simulate(
            AgentAttrs::reference(),
            prog_a,
            attrs_at(10.0, Ratio::zero()),
            empty::<Instr>(),
            (&ratio(1, 1), &ratio(1, 1)),
            &Budget::default().segments(50),
        );
        assert!(matches!(
            report.outcome,
            Outcome::Budget(BudgetReason::Segments)
        ));
        assert!(report.segments > 50);
    }

    #[test]
    fn delayed_agent_waits_then_walks() {
        // B wakes at t = 4 and walks west toward A. Meet when distance ≤ 1:
        // B starts at 10, A at 0 ⇒ B reaches x = 1 at t = 4 + 9 = 13.
        let prog_b = vec![Instr::go(Compass::East, ratio(20, 1))];
        // B's frame is rotated π so its East is absolute West.
        let attrs_b = AgentAttrs {
            origin: Vec2::new(10.0, 0.0),
            phi: Angle::half(),
            wake: ratio(4, 1),
            ..AgentAttrs::reference()
        };
        let report = simulate(
            AgentAttrs::reference(),
            empty::<Instr>(),
            attrs_b,
            prog_b.into_iter(),
            (&ratio(1, 1), &ratio(1, 1)),
            &Budget::default(),
        );
        let m = report.meeting().unwrap();
        assert!((m.time.to_f64() - 13.0).abs() < 1e-6);
    }

    #[test]
    fn giant_wait_is_one_event() {
        // B waits 2^200 then walks to A; exact scheduling must survive.
        let prog_b = vec![
            Instr::wait(Ratio::pow2(200)),
            Instr::go(Compass::West, ratio(20, 1)),
        ];
        let report = simulate(
            AgentAttrs::reference(),
            empty::<Instr>(),
            attrs_at(10.0, Ratio::zero()),
            prog_b.into_iter(),
            (&ratio(1, 1), &ratio(1, 1)),
            &Budget::default(),
        );
        let m = report.meeting().unwrap();
        // Meeting time: 2^200 + 9 up to the detection slack (the crossing
        // solver fires at r·(1+slack), a hair early).
        let expected = &Ratio::pow2(200) + &ratio(9, 1);
        let got = m.time.to_ratio();
        let diff = (&got - &expected).abs();
        assert!(diff <= ratio(1, 1000), "time off by {diff}");
        // The base of the meeting interval is exactly the end of the wait.
        assert_eq!(m.time.base, Ratio::pow2(200));
        assert!(report.segments < 10);
    }

    #[test]
    fn crossing_within_move_segment_is_interpolated() {
        // A walks NE diagonally past B: fly-by at perpendicular distance
        // 1 < r = 2 must be caught mid-segment.
        let prog_a = vec![Instr::go_angle(Angle::zero(), ratio(100, 1))];
        let attrs_b = AgentAttrs {
            origin: Vec2::new(50.0, 1.0),
            ..AgentAttrs::reference()
        };
        let report = simulate(
            AgentAttrs::reference(),
            prog_a.into_iter(),
            attrs_b,
            empty::<Instr>(),
            (&ratio(2, 1), &ratio(2, 1)),
            &Budget::default(),
        );
        let m = report.meeting().unwrap();
        // Entry when horizontal gap = √(4−1) = √3.
        let expected = 50.0 - 3f64.sqrt();
        assert!((m.time.to_f64() - expected).abs() < 1e-6);
    }

    #[test]
    fn asymmetric_radii_freeze_then_close() {
        // r_a = 4 (A far-sighted), r_b = 1. A walks toward B and stops as
        // soon as distance ≤ 4 (at x = 6); B then walks toward A's frozen
        // position until distance ≤ 1 (B reaches x = 7).
        let prog_a = vec![Instr::go(Compass::East, ratio(100, 1))];
        let prog_b = vec![
            Instr::wait(ratio(10, 1)),
            Instr::go(Compass::West, ratio(100, 1)),
        ];
        let report = simulate(
            AgentAttrs::reference(),
            prog_a.into_iter(),
            attrs_at(10.0, Ratio::zero()),
            prog_b.into_iter(),
            (&ratio(4, 1), &ratio(1, 1)),
            &Budget::default(),
        );
        let m = report.meeting().unwrap();
        // A freezes at t = 6 (x = 6); B starts moving at t = 10 from x=10,
        // reaches distance 1 (x = 7) at t = 13.
        assert!((m.time.to_f64() - 13.0).abs() < 1e-6);
        assert!((m.pos_a - Vec2::new(6.0, 0.0)).norm() < 1e-6);
        assert!((m.pos_b - Vec2::new(7.0, 0.0)).norm() < 1e-6);
    }

    #[test]
    fn asymmetric_radii_freeze_b_then_close() {
        // The mirror case: r_a = 1, r_b = 4 (B far-sighted). B walks
        // toward A and stops as soon as distance ≤ 4 (at x = 4); A then
        // walks toward B's frozen position until distance ≤ 1 (A reaches
        // x = 3). Swapped radii would freeze A instead and let B walk on
        // to x = 1 by t = 9.
        let prog_a = vec![
            Instr::wait(ratio(10, 1)),
            Instr::go(Compass::East, ratio(100, 1)),
        ];
        // B's frame is rotated π so its East is absolute West.
        let attrs_b = AgentAttrs {
            origin: Vec2::new(10.0, 0.0),
            phi: Angle::half(),
            ..AgentAttrs::reference()
        };
        let prog_b = vec![Instr::go(Compass::East, ratio(100, 1))];
        let report = simulate(
            AgentAttrs::reference(),
            prog_a.into_iter(),
            attrs_b,
            prog_b.into_iter(),
            (&ratio(1, 1), &ratio(4, 1)),
            &Budget::default(),
        );
        let m = report.meeting().unwrap();
        // B freezes at t = 6 (x = 4); A starts moving at t = 10 from x = 0,
        // reaches distance 1 (x = 3) at t = 13.
        assert!((m.time.to_f64() - 13.0).abs() < 1e-6);
        assert!((m.pos_a - Vec2::new(3.0, 0.0)).norm() < 1e-6);
        assert!((m.pos_b - Vec2::new(4.0, 0.0)).norm() < 1e-6);
    }

    #[test]
    fn min_dist_is_tracked_without_meeting() {
        // A sweeps past B outside the radius.
        let prog_a = vec![Instr::go(Compass::East, ratio(100, 1))];
        let attrs_b = AgentAttrs {
            origin: Vec2::new(50.0, 5.0),
            ..AgentAttrs::reference()
        };
        let report = simulate(
            AgentAttrs::reference(),
            prog_a.into_iter(),
            attrs_b,
            empty::<Instr>(),
            (&ratio(1, 1), &ratio(1, 1)),
            &Budget::default(),
        );
        assert!(!report.met());
        assert!((report.min_dist - 5.0).abs() < 1e-9);
        assert!((report.min_dist_time - 50.0).abs() < 1e-6);
    }

    #[test]
    fn tracer_tiny_caps_are_clamped() {
        // Regression: cap = 1 used to decimate on every push and double
        // `stride` without bound. Now cap 0 records nothing, cap 1 keeps
        // exactly the latest sample at stride 1, cap 2 stays within cap
        // with a saturating stride.
        for cap in [0usize, 1, 2] {
            let mut tracer = Tracer::new(cap);
            for k in 0..10_000 {
                tracer.record(k as f64, Vec2::new(k as f64, 0.0), Vec2::ZERO);
            }
            assert!(
                tracer.samples.len() <= cap,
                "cap {cap}: {} samples",
                tracer.samples.len()
            );
            if cap == 1 {
                assert_eq!(tracer.stride, 1, "cap 1 must not grow its stride");
                assert_eq!(tracer.samples[0].time, 9_999.0, "cap 1 keeps the latest");
            }
            tracer.record_final(10_000.0, Vec2::ZERO, Vec2::ZERO);
            assert!(tracer.samples.len() <= cap);
            if cap > 0 {
                assert_eq!(tracer.samples.last().unwrap().time, 10_000.0);
            }
        }
    }

    #[test]
    fn tracer_stride_saturates() {
        let mut tracer = Tracer::new(2);
        tracer.stride = u64::MAX / 2 + 1;
        // Counter 0 is a multiple of any stride: two pushes trigger a
        // decimation whose doubling must saturate instead of overflowing.
        tracer.counter = 0;
        tracer.record(0.0, Vec2::ZERO, Vec2::ZERO);
        tracer.counter = 0;
        tracer.record(1.0, Vec2::ZERO, Vec2::ZERO);
        assert_eq!(tracer.stride, u64::MAX);
    }

    #[test]
    fn trace_cap_one_single_latest_sample_through_simulate() {
        let prog_a = std::iter::repeat_with(|| {
            vec![
                Instr::go(Compass::East, ratio(1, 1)),
                Instr::go(Compass::West, ratio(1, 1)),
            ]
        })
        .flatten();
        let report = simulate(
            AgentAttrs::reference(),
            prog_a,
            attrs_at(10.0, Ratio::zero()),
            empty::<Instr>(),
            (&ratio(1, 1), &ratio(1, 1)),
            &Budget::default().segments(100).trace(1),
        );
        assert_eq!(report.trace.len(), 1);
    }

    #[test]
    fn trace_records_and_caps() {
        let prog_a = std::iter::repeat_with(|| {
            vec![
                Instr::go(Compass::East, ratio(1, 1)),
                Instr::go(Compass::West, ratio(1, 1)),
            ]
        })
        .flatten();
        let report = simulate(
            AgentAttrs::reference(),
            prog_a,
            attrs_at(10.0, Ratio::zero()),
            empty::<Instr>(),
            (&ratio(1, 1), &ratio(1, 1)),
            &Budget::default().segments(10_000).trace(64),
        );
        assert!(!report.trace.is_empty());
        assert!(report.trace.len() <= 64);
        // Samples are time-ordered.
        for w in report.trace.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn mirrored_agents_keep_constant_distance() {
        // The impossibility intuition (Section 1.1): equal attributes,
        // synchronous, shift frames, t = 0 ⇒ distance never changes.
        let square = || {
            vec![
                Instr::go(Compass::East, ratio(2, 1)),
                Instr::go(Compass::North, ratio(2, 1)),
                Instr::go(Compass::West, ratio(2, 1)),
                Instr::go(Compass::South, ratio(2, 1)),
            ]
            .into_iter()
        };
        let report = simulate(
            AgentAttrs::reference(),
            square(),
            attrs_at(10.0, Ratio::zero()),
            square(),
            (&ratio(1, 1), &ratio(1, 1)),
            &Budget::default(),
        );
        assert!(!report.met());
        assert!((report.min_dist - 10.0).abs() < 1e-9);
    }
}
