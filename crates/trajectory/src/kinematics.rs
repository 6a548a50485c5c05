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
//! # Ticks
//!
//! A [`Motion`] counts time in integer ticks, [`Motion::unit`] of them
//! per time unit, and keeps no absolute clock: it yields each segment as
//! a [`Leg`], its length in ticks with no start time, and whoever steps
//! it places the legs end to end (the engine on its run clock, the
//! [`Iterator`] view on a tick count of its own). Instruction `k` lasts
//! `rate·d_k` ticks, with `rate = τ·unit` and `d_k` its exact local
//! duration: an i128 multiply when `d_k`'s power-of-two denominator
//! divides `rate`, `Int` arithmetic (with no gcd) otherwise. The wake
//! segment lasts `wake·unit` ticks. `unit` starts as the coarsest that
//! makes `wake·unit` and `rate` integers. A step whose `d_k` needs a
//! finer tick refines it first, multiplying the motion's tick counts by
//! the missing factor, and reports that factor through
//! [`Motion::take_growth`]; [`Motion::rescale`] refines a motion from
//! outside, so that two motions can share one tick. Summed from the
//! wake, the lengths equal the sequential sum `wake + Σ d_i·τ` exactly.
//!
//! [`Motion::next_ticks`] yields the legs, what the engine steps. The
//! [`Iterator`] yields the same segments with `start`/`end` as exact
//! `Ratio`s, its summed ticks over `unit`, converted at the edge; they do
//! not depend on the tick. Neither do `from` and `vel`.
//!
//! # Steps
//!
//! A [`Motion`] does not step `Instr`s: one function lowers every
//! instruction into a `Step` that holds
//! - an interned direction id (into the lowering's directory of exact
//!   angles), or a wait tag;
//! - the f64 local length `dist.to_f64()`;
//! - the exact local duration `d_k`.
//!
//! A step depends on its instruction alone, not on the steps before it.
//! Zero-duration instructions are lowered too and yield no segment. A
//! motion reads its steps from a [`StepSource`]: an iterator of `Instr`s,
//! lowered on the fly into the motion's own lowering, or the tape of a
//! [`CompiledProgram`](crate::CompiledProgram), lowered once per process
//! by the same function. Every agent, the reference agent A included,
//! maps directions through its direction table.
//!
//! A lowering interns each `go`'s exact angle into its directory once:
//! by a scan while the directory holds at most [`DIR_SLOTS`] directions
//! (AUR's and Dedicated's programs), through a hash index from angle to
//! id past that (Latecomers plays `2^k` directions in phase `k`), so
//! lowering stays O(1) per instruction.
//!
//! # Direction table
//!
//! Programs draw their directions from a small alphabet: Algorithm 1 only
//! ever moves along the axes of the frames `Rot(jπ/2^i)`, so a 20k-segment
//! AUR run uses 16 distinct local directions (32 after about 100k
//! instructions). Each [`Motion`] keeps a table from a direction id to
//! the absolute unit vector and velocity it produces. Its contract:
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
use rv_numeric::{Int, Ratio};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};

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

/// One constant-velocity piece of an agent's motion, timed in `T`: exact
/// `Ratio` time for the [`Motion`] iterator, `Int` ticks on the engine's
/// clock.
#[derive(Clone, Debug)]
pub struct Segment<T = Ratio> {
    /// Start time (exact).
    pub start: T,
    /// End time (exact); `None` means the agent halts forever.
    pub end: Option<T>,
    /// Position at `start`.
    pub from: Vec2,
    /// Constant velocity over the segment (zero while waiting/halted).
    pub vel: Vec2,
}

impl<T> Segment<T> {
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

/// One segment as [`Motion::next_ticks`] yields it: a length in ticks and
/// no start time, since a leg starts where the one before it ended.
#[derive(Clone, Debug)]
pub struct Leg {
    /// Length in ticks; `None` means the agent halts forever.
    pub len: Option<Int>,
    /// Position at the start.
    pub from: Vec2,
    /// Constant velocity over the leg (zero while waiting/halted).
    pub vel: Vec2,
}

/// The direction id of a `wait` step.
const WAIT: u32 = u32::MAX;

/// One lowered instruction (see the module docs).
#[derive(Clone, Debug)]
pub struct Step {
    /// Direction id of a `go` into the lowering's directory, or [`WAIT`].
    dir: u32,
    /// The f64 local length of a `go`, `dist.to_f64()`; 0 for a `wait`.
    len: f64,
    /// The exact local duration `d_k`; zero for a zero-duration
    /// instruction, which yields no segment.
    dur: Ratio,
}

impl Step {
    /// Lowers `instr`, interning its direction into `dirs`. The one
    /// lowering function: a motion's on-the-fly lowering and a compiled
    /// program's chunk fill both call it.
    pub(crate) fn lower(dirs: &mut Directory, instr: &Instr) -> Step {
        let (dir, len, dur) = match instr {
            Instr::Wait { dur } => (WAIT, 0.0, dur),
            Instr::Go { dir, dist } => (dirs.intern(dir), dist.to_f64(), dist),
        };
        Step {
            dir,
            len,
            // rv-lint: allow(hot) — lowering: once per instruction (once
            // per process on a tape); the step owns its duration.
            dur: dur.clone(),
        }
    }

    /// The instruction this step was lowered from, given the directory its
    /// id indexes.
    pub(crate) fn instr(&self, dirs: &[Angle]) -> Instr {
        // rv-lint: allow(hot) — the owned replay's contract: one exact
        // duration per rebuilt instruction; motions step the tape itself.
        let dur = self.dur.clone();
        match self.dir {
            WAIT => Instr::wait(dur),
            // rv-lint: allow(hot) — the owned replay's contract: one angle
            // per rebuilt instruction; motions index the directory.
            id => Instr::go_angle(dirs[id as usize].clone(), dur),
        }
    }
}

/// The directions a lowering has interned, in id order (see the module
/// docs).
#[derive(Debug, Default)]
pub(crate) struct Directory {
    dirs: Vec<Angle>,
    /// Angle to id, built once `dirs` passes [`DIR_SLOTS`] entries; empty
    /// (and unallocated) before that, while a scan is cheaper. Keyed
    /// without per-map random state: a motion builds a directory per run.
    index: HashMap<Angle, u32, BuildHasherDefault<DefaultHasher>>,
}

impl Directory {
    /// Every interned direction; an id indexes it.
    pub(crate) fn as_slice(&self) -> &[Angle] {
        &self.dirs
    }

    /// The id of `angle`, interning it if it is new.
    fn intern(&mut self, angle: &Angle) -> u32 {
        let known = if self.index.is_empty() {
            self.dirs.iter().position(|d| d == angle)
        } else {
            self.index.get(angle).map(|&id| id as usize)
        };
        if let Some(id) = known {
            return id as u32;
        }
        let id = u32::try_from(self.dirs.len()).expect("fewer than 2^32 directions");
        // rv-lint: allow(hot) — interning: once per distinct direction of
        // the program, not per instruction.
        self.dirs.push(angle.clone());
        self.index_new();
        id
    }

    /// Indexes the directions not indexed yet, once there are more than
    /// [`DIR_SLOTS`] of them.
    fn index_new(&mut self) {
        if self.dirs.len() <= DIR_SLOTS {
            return;
        }
        let indexed = self.index.len();
        for (angle, id) in self.dirs[indexed..].iter().zip(indexed as u32..) {
            // rv-lint: allow(hot) — indexing: once per distinct direction
            // past the first DIR_SLOTS, not per instruction.
            self.index.insert(angle.clone(), id);
        }
    }
}

impl From<Vec<Angle>> for Directory {
    fn from(dirs: Vec<Angle>) -> Directory {
        let mut directory = Directory {
            dirs,
            index: HashMap::default(),
        };
        directory.index_new();
        directory
    }
}

/// Lowers instructions into steps, one at a time (see the module docs).
#[derive(Debug, Default)]
pub struct Lowering {
    /// Every direction interned so far; a step's id indexes it.
    pub(crate) dirs: Directory,
    /// The last lowered step, if any.
    pub(crate) step: Option<Step>,
}

impl Lowering {
    /// Lowers `instr` into `self.step` and returns it with the directory
    /// its id indexes.
    pub(crate) fn push(&mut self, instr: &Instr) -> (&Step, &[Angle]) {
        let step = self.step.insert(Step::lower(&mut self.dirs, instr));
        (step, self.dirs.as_slice())
    }
}

/// Where a [`Motion`] reads its steps: any iterator of owned or borrowed
/// instructions (`Instr`, `&Instr`), lowered on the fly, or the
/// [`Tape`](crate::Tape) of a [`CompiledProgram`](crate::CompiledProgram).
pub trait StepSource {
    /// The next step and the directory its direction id indexes.
    /// `lowering` is the motion's own, for a source lowered on the fly.
    fn next_step<'s>(&'s mut self, lowering: &'s mut Lowering) -> Option<(&'s Step, &'s [Angle])>;
}

impl<I> StepSource for I
where
    I: Iterator,
    I::Item: Borrow<Instr>,
{
    fn next_step<'s>(&'s mut self, lowering: &'s mut Lowering) -> Option<(&'s Step, &'s [Angle])> {
        Some(lowering.push(self.next()?.borrow()))
    }
}

/// Capacity of a [`Motion`]'s direction table (see the module docs):
/// AUR reaches 32 distinct directions only after about 100k instructions.
pub const DIR_SLOTS: usize = 32;

// One bit of `DirTable::filled` per slot.
const _: () = assert!(DIR_SLOTS <= u32::BITS as usize);

/// The direction table of an agent: for direction id `k`,
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
    fn get(&mut self, id: u32, dirs: &[Angle]) -> (Vec2, Vec2) {
        let id = id as usize;
        if id < DIR_SLOTS && self.filled >> id & 1 == 1 {
            return self.slots[id];
        }
        let unit = self.orientation.to_absolute(&dirs[id]).unit();
        let entry = (unit, unit * self.speed_f64);
        if id < DIR_SLOTS {
            self.slots[id] = entry;
            self.filled |= 1 << id;
        }
        entry
    }
}

/// A motion's tick counts (see the module docs).
struct Ticks {
    /// Ticks per time unit.
    unit: Int,
    /// Ticks per local time unit: `τ·unit`.
    rate: Int,
    /// The wake segment's length, `wake·unit`, until it is yielded;
    /// `None` after that, or for an agent awake at time 0.
    wake: Option<Int>,
    /// The [`Iterator`] view's clock: the ticks its segments have summed
    /// to. [`Motion::next_ticks`] leaves it alone.
    elapsed: Int,
    /// The factor the tick was refined by since [`Motion::take_growth`]
    /// last ran, if it was.
    grown: Option<Int>,
}

impl Ticks {
    /// The ticks of an agent waking at `wake` with `rate` time units per
    /// local time unit, on the coarsest tick that counts both.
    fn new(wake: &Ratio, rate: &Ratio) -> Ticks {
        let unit = wake.denom().lcm(rate.denom());
        let ticks = |r: &Ratio| match r.denom() {
            // rv-lint: allow(hot) — once per Motion construction; skips a
            // division.
            den if *den == unit => r.numer().clone(),
            den => r.numer() * &unit.div_rem(den).0,
        };
        Ticks {
            rate: ticks(rate),
            wake: Some(ticks(wake)).filter(Int::is_positive),
            elapsed: Int::ZERO,
            unit,
            grown: None,
        }
    }

    /// Multiplies every tick count by `m`.
    fn rescale(&mut self, m: &Int) {
        if *m == Int::ONE {
            return;
        }
        let counts = [&mut self.unit, &mut self.rate, &mut self.elapsed];
        for t in counts.into_iter().chain(&mut self.wake) {
            *t = &*t * m;
        }
    }

    /// Refines the tick `m` times and records the refinement.
    fn refine(&mut self, m: Int) {
        self.rescale(&m);
        self.grown = Some(match self.grown.take() {
            Some(g) => &g * &m,
            None => m,
        });
    }

    /// The length in ticks of a step of local duration `dur`,
    /// `rate·dur`: one i128 multiply on the common path, `Int` arithmetic
    /// (no gcd) past it.
    fn len_of(&mut self, dur: &Ratio) -> Int {
        let per_den = self.per_den(dur.denom());
        if let (Int::Small(n), Int::Small(q)) = (dur.numer(), &per_den) {
            if let Some(t) = q.checked_mul(*n) {
                return Int::Small(t);
            }
        }
        &per_den * dur.numer()
    }

    /// `rate/den`, refining the tick first if `den` does not divide
    /// `rate`: by a power of two, without dividing, for a power-of-two
    /// `den`, and by `den/gcd(den, rate)` otherwise.
    fn per_den(&mut self, den: &Int) -> Int {
        if let (Int::Small(d), Int::Small(rate)) = (den, &self.rate) {
            let (e, tz) = (d.trailing_zeros(), rate.trailing_zeros());
            if *d == 1 << e {
                if tz >= e {
                    return Int::Small(rate >> e);
                }
                self.refine(Int::pow2(u64::from(e - tz)));
                return self.rate.shr_magnitude(u64::from(e));
            }
        }
        let m = den.div_rem(&den.gcd(&self.rate)).0;
        if m != Int::ONE {
            self.refine(m);
        }
        self.rate.div_rem(den).0
    }
}

/// Lazily compiles a program into motion segments. The program is any
/// [`StepSource`]: an iterator of `Instr` or `&Instr`, or a compiled
/// program's [`Tape`](crate::Tape).
pub struct Motion<P> {
    program: P,
    /// Lowers the program's instructions on the fly (idle on a tape).
    lowering: Lowering,
    table: DirTable,
    ticks: Ticks,
    pos: Vec2,
    /// Set once the final infinite segment has been emitted.
    halted: bool,
}

impl<P: StepSource> Motion<P> {
    /// Builds the motion of `attrs` executing `program`, in absolute time.
    pub fn new(attrs: AgentAttrs, program: P) -> Motion<P> {
        Motion {
            program,
            lowering: Lowering::default(),
            table: DirTable::new(&attrs),
            ticks: Ticks::new(&attrs.wake, &attrs.tau),
            pos: attrs.origin,
            halted: false,
        }
    }

    /// Ticks per time unit: a tick of this motion lasts `1/unit`.
    pub fn unit(&self) -> &Int {
        &self.ticks.unit
    }

    /// Multiplies every tick count by `m > 0`: the clock counts ticks
    /// `m` times finer, and every time it yields keeps its value.
    pub fn rescale(&mut self, m: &Int) {
        self.ticks.rescale(m);
    }

    /// The factor the motion refined its tick by since the last call, if
    /// it did (a step's duration did not fit the tick).
    pub fn take_growth(&mut self) -> Option<Int> {
        self.ticks.grown.take()
    }

    /// The next segment as a leg: its length in ticks, starting where the
    /// previous one ended (the [`Iterator`] yields the same segments in
    /// time units).
    #[inline]
    pub fn next_ticks(&mut self) -> Option<Leg> {
        if self.halted {
            return None;
        }
        if let Some(wake) = self.ticks.wake.take() {
            return Some(Leg {
                len: Some(wake),
                from: self.pos,
                vel: Vec2::ZERO,
            });
        }
        loop {
            let Some((step, dirs)) = self.program.next_step(&mut self.lowering) else {
                self.halted = true;
                return Some(Leg {
                    len: None,
                    from: self.pos,
                    vel: Vec2::ZERO,
                });
            };
            if step.dur.is_zero() {
                continue;
            }
            let len = self.ticks.len_of(&step.dur);
            let from = self.pos;
            let vel = if step.dir == WAIT {
                Vec2::ZERO
            } else {
                let (unit, vel) = self.table.get(step.dir, dirs);
                self.pos = from + unit * (step.len * self.table.unit_len_f64);
                vel
            };
            return Some(Leg {
                len: Some(len),
                from,
                vel,
            });
        }
    }
}

impl<P: StepSource> Iterator for Motion<P> {
    type Item = Segment;

    /// The next segment in time units: the legs' lengths summed in ticks
    /// from time 0, over `unit`, converted as the segment is built.
    fn next(&mut self) -> Option<Segment> {
        let Leg { len, from, vel } = self.next_ticks()?;
        let ticks = &mut self.ticks;
        // rv-lint: allow(hot) — the time-unit view, built at the edge; the
        // engine steps `next_ticks`.
        let start = Ratio::new(ticks.elapsed.clone(), ticks.unit.clone());
        let end = len.map(|len| {
            ticks.elapsed += &len;
            // rv-lint: allow(hot) — same time-unit view as above.
            Ratio::new(ticks.elapsed.clone(), ticks.unit.clone())
        });
        Some(Segment {
            start,
            end,
            from,
            vel,
        })
    }
}

#[cfg(test)]
impl Step {
    /// Every field, the f64 as bits.
    pub(crate) fn bits(&self) -> (u32, u64, Ratio) {
        (self.dir, self.len.to_bits(), self.dur.clone())
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
            (
                m.lowering.dirs.as_slice().len(),
                m.table.filled.count_ones() as usize,
            )
        };
        assert_eq!(interned(5), (6, 6));
        assert_eq!(interned(DIR_SLOTS as i64), (DIR_SLOTS + 1, DIR_SLOTS));
    }

    #[test]
    fn directory_is_indexed_only_past_the_table_capacity() {
        let mut dirs = Directory::default();
        let angle = |k: i64| Angle::pi_frac(k, 1024);
        for k in 0..DIR_SLOTS as i64 {
            assert_eq!(dirs.intern(&angle(k)), k as u32);
        }
        assert!(dirs.index.is_empty());
        for k in DIR_SLOTS as i64..300 {
            assert_eq!(dirs.intern(&angle(k)), k as u32);
            assert_eq!(dirs.index.len(), dirs.as_slice().len());
        }
        for k in (0..300).rev() {
            assert_eq!(dirs.intern(&angle(k)), k as u32);
        }
        let copy = Directory::from(dirs.as_slice().to_vec());
        assert_eq!(copy.index, dirs.index);
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
