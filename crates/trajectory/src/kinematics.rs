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
//! `σ ≥ 1` keeps its exact clock in units of `1/σ`: instruction `k` ends
//! at `wake·σ + (τσ)·P_k`, where `P_k` is the program's prefix local time
//! through instruction `k`. Every segment `start`/`end` is then exactly
//! `σ` times the one [`Motion::new`] (`σ = 1`) yields; `from` and `vel` do
//! not depend on `σ`. A simulator that picks `σ` as the lcm of the odd
//! parts of its agents' clock-rate and wake denominators keeps every clock
//! dyadic, on `Ratio`'s gcd-free kernels, even when `τ` is not. The
//! product equals the sequential sum `wake·σ + Σ d_i·(τσ)` exactly, so the
//! clocks and their canonical `Ratio` bits are those of summing.
//!
//! # Steps
//!
//! A [`Motion`] does not step `Instr`s: one function lowers every
//! instruction into a `Step` that holds
//! - an interned direction id (into the lowering's directory of exact
//!   angles, each with its unit vector), or a wait tag;
//! - the f64 local length `dist.to_f64()`;
//! - the exact prefix local time `P_k`;
//! - the reference agent's f64 end position, accumulated exactly as the
//!   stepper accumulates any agent's position.
//!
//! Zero-duration instructions are lowered too and yield no segment. A
//! motion reads its steps from a [`StepSource`]: an iterator of `Instr`s,
//! lowered on the fly into the motion's own lowering, or the tape of a
//! [`CompiledProgram`](crate::CompiledProgram), lowered once per process
//! by the same function. An agent whose attributes equal
//! [`AgentAttrs::reference`] takes its positions from the steps and its
//! velocities from the directory: no f64 arithmetic, and at `σ = 1` no
//! exact arithmetic either. Any other agent maps directions through its
//! direction table.
//!
//! # Direction table
//!
//! Programs draw their directions from a small alphabet: Algorithm 1 only
//! ever moves along the axes of the frames `Rot(jπ/2^i)`, so a 20k-segment
//! AUR run uses 16 distinct local directions (32 after about 100k
//! instructions). Each non-reference [`Motion`] keeps a table from a
//! direction id to the absolute unit vector and velocity it produces. Its
//! contract:
//!
//! - **Indexed.** The step's direction id is the table index: no key
//!   conversion, no scan.
//! - **Same f64 bits.** An empty slot is filled with the one formula the
//!   table replaces, `orientation.to_absolute(dir).unit()` (and that times
//!   the speed). Every segment is bit-identical to evaluating the formula
//!   on each `go`.
//! - **Fixed capacity.** [`DIR_SLOTS`] Copy entries live inline in the
//!   `Motion`: no heap, no drop glue, no knob.
//! - **Fallback.** A direction whose id is past the table is mapped on
//!   every `go`.

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

/// The direction id of a `wait` step.
const WAIT: u32 = u32::MAX;

/// One lowered instruction (see the module docs).
#[derive(Clone, Debug)]
pub struct Step {
    /// Direction id of a `go` into the lowering's directory, or [`WAIT`].
    dir: u32,
    /// True for a zero-duration instruction, which yields no segment.
    empty: bool,
    /// The f64 local length of a `go`, `dist.to_f64()`; 0 for a `wait`.
    len: f64,
    /// The exact prefix local time `P_k`: the local durations of every
    /// instruction up to and including this one.
    pub(crate) prefix: Ratio,
    /// The reference agent's position after this step.
    ref_end: Vec2,
}

impl Step {
    /// The instruction this step was lowered from, given the prefix time
    /// of the step before it and the directory its id indexes.
    pub(crate) fn instr(&self, before: &Ratio, dirs: &[Dir]) -> Instr {
        let dur = &self.prefix - before;
        match self.dir {
            WAIT => Instr::wait(dur),
            // rv-lint: allow(hot) — the owned replay's contract: one angle
            // per rebuilt instruction; motions index the directory.
            id => Instr::go_angle(dirs[id as usize].angle.clone(), dur),
        }
    }
}

/// An interned direction: the exact local angle and the reference
/// agent's unit vector along it.
#[derive(Clone, Debug)]
pub struct Dir {
    angle: Angle,
    unit: Vec2,
}

/// Lowers instructions into steps, one at a time (see the module docs).
#[derive(Debug)]
pub struct Lowering {
    /// Every direction interned so far; a step's id indexes it.
    pub(crate) dirs: Vec<Dir>,
    /// The last lowered step, which carries the running prefix time and
    /// reference position.
    pub(crate) step: Step,
}

impl Step {
    /// The step before a program's first instruction: prefix time 0 at
    /// the origin.
    pub(crate) fn start() -> Step {
        Step {
            dir: WAIT,
            empty: true,
            len: 0.0,
            prefix: Ratio::zero(),
            ref_end: Vec2::ZERO,
        }
    }

    /// Lowers `instr`, the instruction after this step's, interning its
    /// direction into `dirs`. The one lowering function: a motion's
    /// on-the-fly lowering and a compiled program's chunk fill both call
    /// it, and the fill moves the result into its chunk.
    pub(crate) fn after(&self, dirs: &mut Vec<Dir>, instr: &Instr) -> Step {
        let (dir, len, dur) = match instr {
            Instr::Wait { dur } => (WAIT, 0.0, dur),
            Instr::Go { dir, dist } => {
                let id = match dirs.iter().position(|d| d.angle == *dir) {
                    Some(id) => id,
                    None => {
                        let unit = Orientation::identity().to_absolute(dir).unit();
                        // rv-lint: allow(hot) — interning: once per distinct
                        // direction of the program, not per instruction.
                        let angle = dir.clone();
                        dirs.push(Dir { angle, unit });
                        dirs.len() - 1
                    }
                };
                let id = u32::try_from(id).expect("fewer than 2^32 directions");
                (id, dist.to_f64(), dist)
            }
        };
        let empty = instr.is_empty();
        let mut ref_end = self.ref_end;
        let prefix = if empty {
            // rv-lint: allow(hot) — zero-duration instructions only; every
            // other step computes a fresh prefix sum.
            self.prefix.clone()
        } else {
            if dir != WAIT {
                ref_end += dirs[dir as usize].unit * len;
            }
            &self.prefix + dur
        };
        Step {
            dir,
            empty,
            len,
            prefix,
            ref_end,
        }
    }
}

impl Lowering {
    /// A lowering at the start of a program.
    pub(crate) fn new() -> Lowering {
        Lowering {
            // rv-lint: allow(hot) — once per Motion; allocates only when an
            // on-the-fly program interns its first direction.
            dirs: Vec::new(),
            step: Step::start(),
        }
    }

    /// Lowers the next instruction into `self.step`.
    pub(crate) fn push(&mut self, instr: &Instr) {
        self.step = self.step.after(&mut self.dirs, instr);
    }
}

/// Where a [`Motion`] reads its steps: any iterator of owned or borrowed
/// instructions (`Instr`, `&Instr`), lowered on the fly, or the
/// [`Tape`](crate::Tape) of a [`CompiledProgram`](crate::CompiledProgram).
pub trait StepSource {
    /// The next step and the directory its direction id indexes.
    /// `lowering` is the motion's own, for a source lowered on the fly.
    fn next_step<'s>(&'s mut self, lowering: &'s mut Lowering) -> Option<(&'s Step, &'s [Dir])>;
}

impl<I> StepSource for I
where
    I: Iterator,
    I::Item: Borrow<Instr>,
{
    fn next_step<'s>(&'s mut self, lowering: &'s mut Lowering) -> Option<(&'s Step, &'s [Dir])> {
        lowering.push(self.next()?.borrow());
        Some((&lowering.step, &lowering.dirs))
    }
}

/// Capacity of a [`Motion`]'s direction table (see the module docs):
/// AUR reaches 32 distinct directions only after about 100k instructions.
pub const DIR_SLOTS: usize = 32;

// One bit of `DirTable::filled` per slot.
const _: () = assert!(DIR_SLOTS <= u32::BITS as usize);

/// The direction table of a non-reference agent: for direction id `k`,
/// the absolute unit vector and velocity, filled on first use.
struct DirTable {
    orientation: Orientation,
    unit_len_f64: f64,
    speed_f64: f64,
    /// Bit `k` is set once slot `k` holds direction `k`'s entry.
    filled: u32,
    slots: [(Vec2, Vec2); DIR_SLOTS],
}

impl DirTable {
    fn new(attrs: &AgentAttrs) -> DirTable {
        DirTable {
            orientation: attrs.orientation(),
            unit_len_f64: attrs.unit_len().to_f64(),
            speed_f64: attrs.speed.to_f64(),
            filled: 0,
            slots: [(Vec2::ZERO, Vec2::ZERO); DIR_SLOTS],
        }
    }

    /// The absolute unit vector and velocity of direction `id`, bit for
    /// bit `orientation.to_absolute(dir).unit()` and that times the speed.
    fn get(&mut self, id: u32, dirs: &[Dir]) -> (Vec2, Vec2) {
        let id = id as usize;
        if id < DIR_SLOTS && self.filled >> id & 1 == 1 {
            return self.slots[id];
        }
        let unit = self.orientation.to_absolute(&dirs[id].angle).unit();
        let entry = (unit, unit * self.speed_f64);
        if id < DIR_SLOTS {
            self.slots[id] = entry;
            self.filled |= 1 << id;
        }
        entry
    }
}

/// True when `attrs` equal [`AgentAttrs::reference`], the origin bit for
/// bit (a `-0.0` coordinate would change the positions' bits).
fn is_reference(attrs: &AgentAttrs) -> bool {
    attrs.origin.x.to_bits() == 0
        && attrs.origin.y.to_bits() == 0
        && attrs.phi.is_zero()
        && attrs.chi.is_plus()
        && attrs.tau.is_one()
        && attrs.speed.is_one()
        && attrs.wake.is_zero()
}

/// Lazily compiles a program into motion segments. The program is any
/// [`StepSource`]: an iterator of `Instr` or `&Instr`, or a compiled
/// program's [`Tape`](crate::Tape).
pub struct Motion<P> {
    program: P,
    /// Lowers the program's instructions on the fly (idle on a tape).
    lowering: Lowering,
    /// True for the reference agent, which takes its positions from the
    /// steps and its velocities from the directory; any other agent maps
    /// directions through `table`.
    reference: bool,
    table: DirTable,
    /// The scaled wake time `wake·σ`.
    base: Ratio,
    /// Clock units per local time unit: `τσ`.
    rate: Ratio,
    /// True when `rate == 1` (`τ = 1/σ`), letting prefix times pass
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

impl<P: StepSource> Motion<P> {
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
        let base = &attrs.wake * &sigma;
        Motion {
            program,
            lowering: Lowering::new(),
            reference: is_reference(&attrs),
            table: DirTable::new(&attrs),
            // rv-lint: allow(hot) — once per Motion construction.
            clock: base.clone(),
            base,
            rate_is_one: rate.is_one(),
            rate,
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

impl<P: StepSource> Iterator for Motion<P> {
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
            let Some((step, dirs)) = self.program.next_step(&mut self.lowering) else {
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
            if step.empty {
                continue;
            }
            let end = match (self.rate_is_one, self.base.is_zero()) {
                // rv-lint: allow(hot) — the reference agent's whole clock at
                // σ = 1: the end time is the step's prefix time; a memcpy on
                // the inline-i128 path.
                (true, true) => step.prefix.clone(),
                (true, false) => &self.base + &step.prefix,
                (false, true) => &step.prefix * &self.rate,
                (false, false) => &self.base + &(&step.prefix * &self.rate),
            };
            let from = self.pos;
            let vel = if step.dir == WAIT {
                Vec2::ZERO
            } else if self.reference {
                self.pos = step.ref_end;
                dirs[step.dir as usize].unit
            } else {
                let (unit, vel) = self.table.get(step.dir, dirs);
                self.pos = from + unit * (step.len * self.table.unit_len_f64);
                vel
            };
            let start = std::mem::replace(&mut self.clock, end);
            return Some(Segment {
                start,
                // rv-lint: allow(hot) — irreducible: the segment end and the
                // running clock are two owners of one value; on the
                // inline-i128 path this clone is a memcpy.
                end: Some(self.clock.clone()),
                from,
                vel,
            });
        }
    }
}

#[cfg(test)]
impl Step {
    /// Every field, the f64s as bits.
    pub(crate) fn bits(&self) -> (u32, bool, u64, Ratio, [u64; 2]) {
        let end = [self.ref_end.x.to_bits(), self.ref_end.y.to_bits()];
        (
            self.dir,
            self.empty,
            self.len.to_bits(),
            self.prefix.clone(),
            end,
        )
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
    fn lowering_interns_each_direction_once_up_to_table_capacity() {
        // A program that goes, twice over, along a direction whose `q` has
        // a denominator beyond i128 and along `n` distinct directions:
        // (directions interned, table slots filled). (tests/
        // motion_differential.rs compares Motion's segments against the
        // per-`go` formula.)
        let interned = |n: i64| {
            let wide = Angle::from_ratio_pi(Ratio::pow2(-200));
            let dirs = std::iter::once(wide).chain((0..n).map(|k| Angle::pi_frac(k, 128)));
            let prog: Vec<_> = dirs
                .clone()
                .chain(dirs)
                .map(|dir| Instr::go_angle(dir, ratio(1, 1)))
                .collect();
            let mut m = Motion::new(attrs_b(), prog.into_iter());
            m.by_ref().for_each(drop);
            assert!(!m.reference);
            (m.lowering.dirs.len(), m.table.filled.count_ones() as usize)
        };
        assert_eq!(interned(5), (6, 6));
        assert_eq!(interned(DIR_SLOTS as i64), (DIR_SLOTS + 1, DIR_SLOTS));
    }

    #[test]
    fn only_the_exact_reference_attributes_step_as_the_reference() {
        assert!(is_reference(&AgentAttrs::reference()));
        let negative_zero = AgentAttrs {
            origin: Vec2::new(-0.0, 0.0),
            ..AgentAttrs::reference()
        };
        assert!(!is_reference(&negative_zero));
        assert!(!is_reference(&AgentAttrs {
            wake: ratio(1, 2),
            ..AgentAttrs::reference()
        }));
        assert!(!is_reference(&attrs_b()));
    }

    #[test]
    fn zero_duration_instructions_yield_no_segment() {
        let prog = vec![
            Instr::go(Compass::East, Ratio::zero()),
            Instr::wait(Ratio::zero()),
            Instr::go(Compass::North, ratio(1, 1)),
        ];
        for attrs in [AgentAttrs::reference(), attrs_b()] {
            let segs: Vec<_> = Motion::new(attrs, prog.clone().into_iter()).collect();
            // Wake (agent B only), the one `go`, halt.
            assert_eq!(segs.iter().filter(|s| !s.is_stationary()).count(), 1);
            assert!(segs.last().unwrap().end.is_none());
        }
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
