//! The kinematic compiler: from (private program, agent attributes) to an
//! absolute-time piecewise-linear motion.
//!
//! Section 1.2 of the paper fixes the semantics: an agent with clock rate
//! `τ` (absolute time per private tick) and speed `v` (absolute distance
//! per absolute time) has private length unit `τ·v`. Thus `go(dir, d)`
//! covers `d·τ·v` absolute distance in `d·τ` absolute time, and `wait(z)`
//! idles for `z·τ`. Directions map through the frame as `φ + χ·θ`.
//!
//! Event times are exact rationals; positions are `f64` accumulated per
//! segment (cardinal directions contribute exact displacements).
//!
//! # Time scale
//!
//! A [`Motion`] built by [`Motion::scaled`] with an integer time scale
//! `σ ≥ 1` keeps its exact clock in units of `1/σ`: it starts at
//! `wake·σ` and each instruction advances it by `d·(τσ)`. Every segment
//! `start`/`end` is then exactly `σ` times the one [`Motion::new`]
//! (`σ = 1`) yields; `from` and `vel` do not depend on `σ`. A simulator
//! that picks `σ` as the lcm of the odd parts of its agents' clock-rate
//! and wake denominators keeps every clock dyadic, on `Ratio`'s gcd-free
//! kernels, even when `τ` is not.
//!
//! # Direction table
//!
//! Programs draw their directions from a small alphabet: Algorithm 1 only
//! ever moves along the axes of the frames `Rot(jπ/2^i)`, so a 20k-segment
//! AUR run uses 16 distinct local directions. Each [`Motion`] therefore
//! keeps a fixed-capacity inline table from a local direction to the
//! absolute unit vector it produces. Its contract:
//!
//! - **Exact key.** An entry is keyed by the `(numer, denom)` of the local
//!   angle's `q` (the angle is `q·π`) as two `i128`, so two keys match
//!   only when the directions are exactly equal.
//! - **Same f64 bits.** A miss computes the vector with the one formula
//!   the table replaces, `orientation.to_absolute(dir).unit()`, and a hit
//!   returns that stored vector. Every segment is bit-identical to
//!   evaluating the formula on each `go`.
//! - **Fixed capacity.** [`DIR_SLOTS`] Copy entries live inline in the
//!   `Motion`: no heap, no drop glue, no knob.
//! - **Fallback.** A direction whose key does not fit in `i128`, or that
//!   arrives once the table is full, is computed directly on every `go`.

use crate::instr::Instr;
use rv_geometry::{Angle, Chirality, Orientation, Vec2};
use rv_numeric::Ratio;
use std::borrow::Borrow;

/// The private attributes of an agent (Section 1.2).
#[derive(Clone, Debug)]
pub struct AgentAttrs {
    /// Initial position in absolute coordinates.
    pub origin: Vec2,
    /// Rotation of the private x-axis w.r.t. the absolute one.
    pub phi: Angle,
    /// Handedness of the private system.
    pub chi: Chirality,
    /// Absolute time per private time unit (`τ > 0`).
    pub tau: Ratio,
    /// Absolute speed (`v > 0`).
    pub speed: Ratio,
    /// Absolute wake-up time (`t ≥ 0`).
    pub wake: Ratio,
}

impl AgentAttrs {
    /// The reference agent A: absolute frame, unit clock and speed, wakes
    /// at time 0 at the absolute origin.
    pub fn reference() -> AgentAttrs {
        AgentAttrs {
            origin: Vec2::ZERO,
            phi: Angle::zero(),
            chi: Chirality::Plus,
            tau: Ratio::one(),
            speed: Ratio::one(),
            wake: Ratio::zero(),
        }
    }

    /// The private length unit in absolute terms: `τ·v`.
    pub fn unit_len(&self) -> Ratio {
        &self.tau * &self.speed
    }

    /// The orientation part of the frame.
    pub fn orientation(&self) -> Orientation {
        Orientation {
            // rv-lint: allow(hot) — once per Motion construction, not per
            // segment.
            phi: self.phi.clone(),
            chi: self.chi,
        }
    }

    /// Validates positivity constraints.
    pub fn validate(&self) -> Result<(), String> {
        if !self.tau.is_positive() {
            return Err(format!("clock rate τ must be positive, got {}", self.tau));
        }
        if !self.speed.is_positive() {
            return Err(format!("speed v must be positive, got {}", self.speed));
        }
        if self.wake.is_negative() {
            return Err(format!("wake-up time t must be ≥ 0, got {}", self.wake));
        }
        Ok(())
    }
}

/// One constant-velocity piece of an agent's motion.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Absolute start time (exact).
    pub start: Ratio,
    /// Absolute end time (exact); `None` means the agent halts forever.
    pub end: Option<Ratio>,
    /// Position at `start`.
    pub from: Vec2,
    /// Constant velocity over the segment (zero while waiting/halted).
    pub vel: Vec2,
}

impl Segment {
    /// Position at `start + offset` (offset in absolute seconds, f64).
    ///
    /// Written so that waiting segments with astronomically long durations
    /// never produce `inf·0 = NaN`.
    pub fn pos_at_offset(&self, offset: f64) -> Vec2 {
        if self.vel == Vec2::ZERO {
            self.from
        } else {
            self.from + self.vel * offset
        }
    }

    /// True while the agent is idle on this segment.
    pub fn is_stationary(&self) -> bool {
        self.vel == Vec2::ZERO
    }
}

/// Capacity of a [`Motion`]'s direction table (see the module docs).
/// AUR reaches 32 distinct directions only after about 100k instructions.
pub const DIR_SLOTS: usize = 32;

/// The direction table: `(numer, denom)` of a local direction's `q` and
/// the absolute unit vector it maps to, filled in first-use order.
struct DirTable {
    len: usize,
    slots: [(i128, i128, Vec2); DIR_SLOTS],
}

impl DirTable {
    fn new() -> DirTable {
        DirTable {
            len: 0,
            slots: [(0, 0, Vec2::ZERO); DIR_SLOTS],
        }
    }

    /// The absolute unit vector of local direction `dir` under
    /// `orientation`, bit for bit `orientation.to_absolute(dir).unit()`.
    fn unit(&mut self, orientation: &Orientation, dir: &Angle) -> Vec2 {
        let q = dir.ratio_pi();
        let (Some(numer), Some(denom)) = (q.numer().to_i128(), q.denom().to_i128()) else {
            return orientation.to_absolute(dir).unit();
        };
        let filled = &self.slots[..self.len];
        if let Some(&(_, _, unit)) = filled.iter().find(|&&(n, d, _)| n == numer && d == denom) {
            return unit;
        }
        let unit = orientation.to_absolute(dir).unit();
        if self.len < DIR_SLOTS {
            self.slots[self.len] = (numer, denom, unit);
            self.len += 1;
        }
        unit
    }
}

/// Lazily compiles a program into motion segments. The program may yield
/// owned or borrowed instructions: `Instr`, `&Instr`, or the
/// `Cow<Instr>` of [`CompiledProgram::iter`](crate::CompiledProgram::iter).
pub struct Motion<P> {
    program: P,
    orientation: Orientation,
    dirs: DirTable,
    unit_len_f64: f64,
    speed_f64: f64,
    /// Clock units per local time unit: `τσ`.
    rate: Ratio,
    /// True when `rate == 1` (`τ = 1/σ`), letting local durations pass
    /// through without a rational multiply (otherwise a gcd-free dyadic
    /// kernel call when `τσ` is dyadic, a cross-reduced gcd multiply when
    /// it is not).
    rate_is_one: bool,
    /// The exact clock, in units of `1/σ`.
    clock: Ratio,
    pos: Vec2,
    /// Set once the final infinite segment has been emitted.
    halted: bool,
    /// Pending wake segment (emitted first when the agent wakes late).
    emitted_wake: bool,
}

impl<P> Motion<P>
where
    P: Iterator,
    P::Item: Borrow<Instr>,
{
    /// Builds the motion of `attrs` executing `program`, in absolute time
    /// (`Motion::scaled(attrs, program, 1)`).
    pub fn new(attrs: AgentAttrs, program: P) -> Motion<P> {
        Motion::scaled(attrs, program, 1)
    }

    /// Builds the motion of `attrs` executing `program`, with its clock in
    /// units of `1/sigma` (see the module docs). Panics if `sigma == 0`.
    pub fn scaled(attrs: AgentAttrs, program: P, sigma: u32) -> Motion<P> {
        assert!(sigma > 0, "time scale must be positive");
        let sigma = Ratio::from_int(u64::from(sigma));
        let rate = &attrs.tau * &sigma;
        Motion {
            program,
            orientation: attrs.orientation(),
            dirs: DirTable::new(),
            unit_len_f64: attrs.unit_len().to_f64(),
            speed_f64: attrs.speed.to_f64(),
            rate_is_one: rate.is_one(),
            rate,
            clock: &attrs.wake * &sigma,
            pos: attrs.origin,
            halted: false,
            emitted_wake: false,
        }
    }

    /// Current absolute position (after all segments yielded so far).
    pub fn position(&self) -> Vec2 {
        self.pos
    }

    /// Current clock, in units of `1/σ` (start of the next segment).
    pub fn clock(&self) -> &Ratio {
        &self.clock
    }
}

impl<P> Iterator for Motion<P>
where
    P: Iterator,
    P::Item: Borrow<Instr>,
{
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        if self.halted {
            return None;
        }
        if !self.emitted_wake {
            self.emitted_wake = true;
            // The clock still reads the (scaled) wake time.
            if self.clock.is_positive() {
                return Some(Segment {
                    start: Ratio::zero(),
                    // rv-lint: allow(hot) — wake segment, once per run.
                    end: Some(self.clock.clone()),
                    from: self.pos,
                    vel: Vec2::ZERO,
                });
            }
        }
        loop {
            let Some(item) = self.program.next() else {
                self.halted = true;
                return Some(Segment {
                    // rv-lint: allow(hot) — final halt segment, once per
                    // run.
                    start: self.clock.clone(),
                    end: None,
                    from: self.pos,
                    vel: Vec2::ZERO,
                });
            };
            match item.borrow() {
                instr if instr.is_empty() => continue,
                Instr::Wait { dur } => {
                    let end = if self.rate_is_one {
                        &self.clock + dur
                    } else {
                        &self.clock + &(dur * &self.rate)
                    };
                    let start = std::mem::replace(&mut self.clock, end);
                    return Some(Segment {
                        start,
                        // rv-lint: allow(hot) — irreducible: the segment end
                        // and the running clock are two owners of one value;
                        // on the inline-i128 path this clone is a memcpy.
                        end: Some(self.clock.clone()),
                        from: self.pos,
                        vel: Vec2::ZERO,
                    });
                }
                Instr::Go { dir, dist } => {
                    let unit = self.dirs.unit(&self.orientation, dir);
                    let abs_len = dist.to_f64() * self.unit_len_f64;
                    let end = if self.rate_is_one {
                        &self.clock + dist
                    } else {
                        &self.clock + &(dist * &self.rate)
                    };
                    let from = self.pos;
                    let start = std::mem::replace(&mut self.clock, end);
                    self.pos = from + unit * abs_len;
                    return Some(Segment {
                        start,
                        // rv-lint: allow(hot) — same two-owner clone as the
                        // wait arm; memcpy on the inline path.
                        end: Some(self.clock.clone()),
                        from,
                        vel: unit * self.speed_f64,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_geometry::Compass;
    use rv_numeric::ratio;

    fn attrs_b() -> AgentAttrs {
        AgentAttrs {
            origin: Vec2::new(10.0, 0.0),
            phi: Angle::zero(),
            chi: Chirality::Plus,
            tau: ratio(2, 1),
            speed: ratio(3, 1),
            wake: ratio(5, 1),
        }
    }

    #[test]
    fn unit_len_is_tau_v() {
        assert_eq!(attrs_b().unit_len(), ratio(6, 1));
        assert_eq!(AgentAttrs::reference().unit_len(), Ratio::one());
    }

    #[test]
    fn wake_segment_comes_first() {
        let prog = vec![Instr::go(Compass::East, ratio(1, 1))];
        let mut m = Motion::new(attrs_b(), prog.into_iter());
        let s0 = m.next().unwrap();
        assert_eq!(s0.start, Ratio::zero());
        assert_eq!(s0.end, Some(ratio(5, 1)));
        assert!(s0.is_stationary());
        assert_eq!(s0.from, Vec2::new(10.0, 0.0));
    }

    #[test]
    fn go_scales_by_unit_and_clock() {
        // go(E, 1) with τ=2, v=3: absolute displacement 6 east, duration 2.
        let prog = vec![Instr::go(Compass::East, ratio(1, 1))];
        let mut m = Motion::new(attrs_b(), prog.into_iter());
        let _wake = m.next().unwrap();
        let s = m.next().unwrap();
        assert_eq!(s.start, ratio(5, 1));
        assert_eq!(s.end, Some(ratio(7, 1)));
        assert_eq!(s.from, Vec2::new(10.0, 0.0));
        assert_eq!(s.vel, Vec2::new(3.0, 0.0));
        // Final halt segment starts at the end position.
        let halt = m.next().unwrap();
        assert_eq!(halt.from, Vec2::new(16.0, 0.0));
        assert_eq!(halt.end, None);
        assert!(m.next().is_none());
    }

    #[test]
    fn wait_scales_by_clock_only() {
        let prog = vec![Instr::wait(ratio(4, 1))];
        let mut m = Motion::new(attrs_b(), prog.into_iter());
        let _wake = m.next().unwrap();
        let s = m.next().unwrap();
        assert_eq!(s.start, ratio(5, 1));
        assert_eq!(s.end, Some(ratio(13, 1))); // 5 + 4·2
        assert!(s.is_stationary());
    }

    #[test]
    fn chirality_flips_north() {
        let mut attrs = attrs_b();
        attrs.chi = Chirality::Minus;
        attrs.wake = Ratio::zero();
        let prog = vec![Instr::go(Compass::North, ratio(1, 1))];
        let mut m = Motion::new(attrs, prog.into_iter());
        let s = m.next().unwrap();
        // χ=−1, φ=0: local North maps to absolute South.
        assert_eq!(s.vel, Vec2::new(0.0, -3.0));
    }

    #[test]
    fn rotation_maps_east_to_phi() {
        let mut attrs = AgentAttrs::reference();
        attrs.phi = Angle::quarter();
        let prog = vec![Instr::go(Compass::East, ratio(2, 1))];
        let mut m = Motion::new(attrs, prog.into_iter());
        let s = m.next().unwrap();
        assert_eq!(s.vel, Vec2::new(0.0, 1.0));
        let halt = m.next().unwrap();
        assert_eq!(halt.from, Vec2::new(0.0, 2.0));
    }

    #[test]
    fn segments_are_contiguous_and_exact() {
        let prog = vec![
            Instr::go(Compass::East, ratio(1, 3)),
            Instr::wait(ratio(1, 7)),
            Instr::go(Compass::North, ratio(2, 5)),
        ];
        let attrs = AgentAttrs {
            tau: ratio(3, 2),
            ..AgentAttrs::reference()
        };
        let segs: Vec<_> = Motion::new(attrs, prog.into_iter()).collect();
        assert_eq!(segs.len(), 4); // 3 instructions + halt
        for w in segs.windows(2) {
            assert_eq!(w[0].end.as_ref(), Some(&w[1].start));
        }
        // Total elapsed: (1/3 + 1/7 + 2/5)·3/2
        let expected = &(&(&ratio(1, 3) + &ratio(1, 7)) + &ratio(2, 5)) * &ratio(3, 2);
        assert_eq!(segs[3].start, expected);
    }

    #[test]
    fn giant_wait_keeps_exact_schedule() {
        // wait(2^200) then go: the move must start at exactly 2^200·τ.
        let prog = vec![
            Instr::wait(Ratio::pow2(200)),
            Instr::go(Compass::East, ratio(1, 1)),
        ];
        let segs: Vec<_> = Motion::new(AgentAttrs::reference(), prog.into_iter()).collect();
        assert_eq!(segs[1].start, Ratio::pow2(200));
        assert_eq!(segs[1].end, Some(&Ratio::pow2(200) + &Ratio::one()));
        // Position unaffected by the wait.
        assert_eq!(segs[1].from, Vec2::ZERO);
    }

    #[test]
    fn pos_at_offset_no_nan_on_infinite_wait() {
        let s = Segment {
            start: Ratio::zero(),
            end: None,
            from: Vec2::new(1.0, 2.0),
            vel: Vec2::ZERO,
        };
        let p = s.pos_at_offset(f64::INFINITY);
        assert!(p.is_finite());
        assert_eq!(p, Vec2::new(1.0, 2.0));
    }

    #[test]
    fn empty_program_halts_at_origin() {
        let segs: Vec<_> =
            Motion::new(AgentAttrs::reference(), std::iter::empty::<Instr>()).collect();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].end, None);
        assert_eq!(segs[0].from, Vec2::ZERO);
    }

    #[test]
    fn direction_table_stores_each_i128_key_once_up_to_capacity() {
        // Slots used by a program that goes, twice over, along a direction
        // whose `q` has a denominator beyond i128 and along `n` distinct
        // i128-keyed directions. (tests/motion_differential.rs compares
        // Motion's segments against the per-`go` formula.)
        let slots_used = |n: i64| {
            let wide = Angle::from_ratio_pi(Ratio::pow2(-200));
            let dirs = std::iter::once(wide).chain((0..n).map(|k| Angle::pi_frac(k, 64)));
            let prog: Vec<_> = dirs
                .clone()
                .chain(dirs)
                .map(|dir| Instr::go_angle(dir, ratio(1, 1)))
                .collect();
            let mut m = Motion::new(attrs_b(), prog.into_iter());
            m.by_ref().for_each(drop);
            m.dirs.len
        };
        assert_eq!(slots_used(5), 5);
        assert_eq!(slots_used(DIR_SLOTS as i64 + 1), DIR_SLOTS);
    }

    #[test]
    fn validate_rejects_bad_attrs() {
        let mut a = AgentAttrs::reference();
        a.tau = Ratio::zero();
        assert!(a.validate().is_err());
        let mut b = AgentAttrs::reference();
        b.speed = ratio(-1, 1);
        assert!(b.validate().is_err());
        let mut c = AgentAttrs::reference();
        c.wake = ratio(-1, 1);
        assert!(c.validate().is_err());
        assert!(AgentAttrs::reference().validate().is_ok());
    }
}
