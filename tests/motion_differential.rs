//! Stepping differential: `Motion`, which steps lowered instructions
//! (from the shared tape of a compiled program, or lowered on the fly
//! from an instruction iterator) into legs of `τ·d_k` ticks that its
//! `Iterator` view places end to end, against a reference stepper that
//! sums the clock-rate-scaled durations as exact `Ratio`s one instruction
//! at a time and evaluates `orientation.to_absolute(dir).unit()` on every
//! `go`.
//!
//! Every segment's `start`, `end`, `from` and `vel` must agree bit for
//! bit, over:
//! - every instance of the benchmark's `sweep_aur` spec (AUR, the five
//!   Theorem 3.2 classes, 20k segments), seeds 1–3 at n = 64, both
//!   agents: over the tape, and lowered on the fly from
//!   `CompiledProgram::cursor` (what rvbench steps); agent A is the
//!   reference agent, which maps its directions through its direction
//!   table like agent B;
//! - every instance of the `resweep_pool` spec (Dedicated,
//!   `type1,type2,s1,s2`, 2k segments), seeds 1–3 at n = 64;
//! - type-3 instances with `τ ≠ 1`, and a mirrored, rotated frame
//!   (`χ = −1`, `φ ≠ 0`), over the tape;
//! - AUR past its first giant wait, `wait(2^135)` at instruction 22,987,
//!   for 50k segments, where every exact time lies outside `i128`: a
//!   mirrored, rotated frame with `τ = 2` and with `τ = 5/3`, over the
//!   tape and lowered on the fly from `CompiledProgram::cursor`;
//! - a compiled program longer than `MAX_MATERIALIZED`, where the cached
//!   tape hands over to the tail lowered on the fly, with directions
//!   first seen past the cap;
//! - programs with more distinct directions than a motion's direction
//!   table holds, introduced while the tape is being lowered (so a run
//!   meets ids that were not interned when it started), over the tape and
//!   lowered on the fly;
//! - a program with `2^k` directions in phase `k`, like Latecomers', whose
//!   directory is looked up through its hash index, over the tape and
//!   lowered on the fly;
//! - directions whose `q` has a denominator beyond `i128`;
//! - the reference attributes with a `-0.0` origin coordinate, over the
//!   tape and lowered on the fly.
//!
//! The reference runs on the raw generator's instructions, not on a
//! replay of the tape, so a lowering fault cannot hide in both. Each
//! agent is stepped for the spec's whole segment budget, more than the
//! engine pulls from either agent in one run.
//!
//! A second differential checks the tick the engine runs on: on every
//! `sweep_aur` instance whose clock rate τ is not dyadic, each agent's
//! motion is rescaled to the run's tick (the lcm of both motions' ticks,
//! as the engine picks it), rescaled once more mid-run, as a refinement
//! does, and stepped on its ticks. Each leg is placed, as the engine
//! places it, at the tick the previous one ended, multiplied by every
//! refinement since; placed, it must equal the segment of the motion left
//! alone in exact time.

use rv_baselines::{beeline, canonical_march};
use rv_core::batch::mix_seed;
use rv_core::{
    almost_universal_rv, compiled_aur, recommend, CampaignSpec, DedicatedChoice, Instance,
    SolverSpec,
};
use rv_geometry::{Angle, Chirality, Orientation, Vec2};
use rv_model::{generate_seeded, TargetClass};
use rv_numeric::{ratio, Int, Ratio};
use rv_trajectory::{
    AgentAttrs, CompiledProgram, Instr, Motion, Segment, StepSource, DIR_SLOTS, MAX_MATERIALIZED,
};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The per-`go` stepper `Motion` replaced: the same kinematics with the
/// clock summed one `τ`-scaled duration at a time and the direction mapped
/// through the frame on every `go`.
struct Reference<P> {
    program: P,
    attrs: AgentAttrs,
    orientation: Orientation,
    unit_len_f64: f64,
    speed_f64: f64,
    /// Time units per local time unit, `τ`.
    rate: Ratio,
    clock: Ratio,
    pos: Vec2,
    halted: bool,
    emitted_wake: bool,
}

impl<P> Reference<P>
where
    P: Iterator,
    P::Item: Borrow<Instr>,
{
    fn new(attrs: AgentAttrs, program: P) -> Reference<P> {
        Reference {
            program,
            orientation: attrs.orientation(),
            unit_len_f64: attrs.unit_len().to_f64(),
            speed_f64: attrs.speed.to_f64(),
            rate: attrs.tau.clone(),
            clock: attrs.wake.clone(),
            pos: attrs.origin,
            attrs,
            halted: false,
            emitted_wake: false,
        }
    }
}

impl<P> Iterator for Reference<P>
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
            if self.attrs.wake.is_positive() {
                return Some(Segment {
                    start: Ratio::zero(),
                    end: Some(self.clock.clone()),
                    from: self.attrs.origin,
                    vel: Vec2::ZERO,
                });
            }
        }
        loop {
            let Some(item) = self.program.next() else {
                self.halted = true;
                return Some(Segment {
                    start: self.clock.clone(),
                    end: None,
                    from: self.pos,
                    vel: Vec2::ZERO,
                });
            };
            match item.borrow() {
                instr if instr.is_empty() => continue,
                Instr::Wait { dur } => {
                    let end = &self.clock + &(dur * &self.rate);
                    let start = std::mem::replace(&mut self.clock, end);
                    return Some(Segment {
                        start,
                        end: Some(self.clock.clone()),
                        from: self.pos,
                        vel: Vec2::ZERO,
                    });
                }
                Instr::Go { dir, dist } => {
                    let unit = self.orientation.to_absolute(dir).unit();
                    let abs_len = dist.to_f64() * self.unit_len_f64;
                    let end = &self.clock + &(dist * &self.rate);
                    let from = self.pos;
                    let start = std::mem::replace(&mut self.clock, end);
                    self.pos = from + unit * abs_len;
                    return Some(Segment {
                        start,
                        end: Some(self.clock.clone()),
                        from,
                        vel: unit * self.speed_f64,
                    });
                }
            }
        }
    }
}

fn same_bits(a: Vec2, b: Vec2) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

/// Steps `Motion::new(attrs, program)` and the reference over
/// `same`, a second copy of the same instruction stream, side by side for
/// up to `segments` segments, panicking at the first segment that
/// differs.
fn assert_steps_over<P, Q>(label: &str, attrs: &AgentAttrs, program: P, same: Q, segments: usize)
where
    P: StepSource,
    Q: Iterator,
    Q::Item: Borrow<Instr>,
{
    let stepped_motion = Motion::new(attrs.clone(), program);
    let reference = Reference::new(attrs.clone(), same);
    let mut stepped = 0;
    for (k, (m, r)) in stepped_motion.zip(reference).take(segments).enumerate() {
        assert!(
            m.start == r.start
                && m.end == r.end
                && same_bits(m.from, r.from)
                && same_bits(m.vel, r.vel),
            "{label}: segment {k} differs\n  motion:    {m:?}\n  reference: {r:?}"
        );
        stepped += 1;
    }
    assert!(stepped > 0, "{label}: no segments");
}

/// Both agents of `inst` over owned programs `make` builds, lowered on
/// the fly.
fn assert_instance<P, F>(label: &str, inst: &Instance, make: F, segments: usize)
where
    P: Iterator<Item = Instr>,
    F: Fn() -> P,
{
    for (agent, attrs) in [("A", inst.agent_a()), ("B", inst.agent_b())] {
        let label = format!("{label} {agent}");
        assert_steps_over(&label, &attrs, make(), make(), segments);
    }
}

/// The most segments any AUR check steps: past the first giant wait,
/// `wait(2^135)`, instruction 22,987 counting from 0.
const DEEPEST_AUR: usize = 50_000;

/// The raw AUR generator's instructions, enough of them for `segments`
/// segments: the reference's side of every AUR check.
fn aur_prefix(segments: usize) -> &'static [Instr] {
    static PREFIX: OnceLock<Vec<Instr>> = OnceLock::new();
    let prefix = PREFIX.get_or_init(|| {
        let mut moving = 0;
        almost_universal_rv()
            .take_while(|instr| {
                moving += usize::from(!instr.is_empty());
                moving <= DEEPEST_AUR
            })
            .collect()
    });
    assert!(prefix.len() >= segments, "the AUR prefix is too short");
    prefix
}

/// Agent `attrs` over the compiled AUR tape against the reference over
/// the raw generator.
fn assert_aur_tape(label: &str, attrs: &AgentAttrs, segments: usize) {
    let raw = aur_prefix(segments).iter();
    assert_steps_over(label, attrs, compiled_aur().tape(), raw, segments);
}

/// The program both agents run under `Dedicated` (as its solver picks it).
fn assert_dedicated(label: &str, inst: &Instance, segments: usize) {
    let program = match recommend(inst).solver {
        DedicatedChoice::StayPut => Vec::new(),
        DedicatedChoice::Beeline => beeline(inst),
        DedicatedChoice::CanonicalMarch => canonical_march(inst),
        DedicatedChoice::Aur => {
            for (agent, attrs) in [("A", inst.agent_a()), ("B", inst.agent_b())] {
                assert_aur_tape(&format!("{label} {agent}"), &attrs, segments);
            }
            return;
        }
    };
    assert_instance(label, inst, || program.clone().into_iter(), segments);
}

/// Runs `check` on every instance of `spec` for seeds 1–3 at n = 64,
/// spread over all cores.
fn each_spec_instance(spec: &CampaignSpec, check: impl Fn(&str, &Instance) + Sync) {
    const SEEDS: [u64; 3] = [1, 2, 3];
    const N: usize = 64;
    rv_core::par_map(0, SEEDS.len() * N, |k| {
        let (seed, index) = (SEEDS[k / N], k % N);
        let label = format!("seed {seed} index {index}");
        check(&label, &spec.instance(seed, index));
    });
}

/// The five classes `AlmostUniversalRV` is guaranteed on (Theorem 3.2).
const AUR_CLASSES: [TargetClass; 5] = [
    TargetClass::Type1,
    TargetClass::Type2,
    TargetClass::Type3,
    TargetClass::Type4Speed,
    TargetClass::Type4Rotation,
];

#[test]
fn sweep_aur_spec_steps_identically() {
    let spec = CampaignSpec::new(SolverSpec::Aur, AUR_CLASSES.to_vec(), 20_000);
    let segments = spec.segments as usize;
    each_spec_instance(&spec, |label, inst| {
        for (agent, attrs) in [("A", inst.agent_a()), ("B", inst.agent_b())] {
            let label = format!("{label} {agent}");
            assert_aur_tape(&format!("{label} tape"), &attrs, segments);
            let raw = aur_prefix(segments).iter();
            let cursor = compiled_aur().cursor();
            assert_steps_over(&format!("{label} cursor"), &attrs, cursor, raw, segments);
        }
    });
}

/// Steps `rescaled` on its ticks as the engine does, against `alone`
/// over the same program: `rescaled` first refines its tick by `first`
/// and later by 3, and the tick count held from before each refinement
/// (or one the motion makes itself) is multiplied by its factor. Each
/// leg, placed at the held count (the previous leg's end), must start
/// and end at `alone`'s exact times and move identically.
fn assert_rescales_exactly<P: StepSource>(
    label: &str,
    mut rescaled: Motion<P>,
    mut alone: Motion<P>,
    first: &Int,
    segments: usize,
) {
    let refine = |motion: &mut Motion<P>, held: &mut Int, m: &Int| {
        let unit = motion.unit() * m;
        motion.rescale(m);
        assert_eq!(motion.unit(), &unit, "{label}: rescale by {m}");
        *held *= m;
    };
    let mut held = Int::ZERO;
    refine(&mut rescaled, &mut held, first);
    for k in 0..segments {
        if k == segments / 2 {
            refine(&mut rescaled, &mut held, &Int::from(3u64));
        }
        let (Some(s), Some(u)) = (rescaled.next_ticks(), alone.next()) else {
            panic!("{label}: segment {k} missing");
        };
        if let Some(m) = rescaled.take_growth() {
            held *= &m;
        }
        let end = s.len.as_ref().map(|len| &held + len);
        let time = |t: &Int| Ratio::new(t.clone(), rescaled.unit().clone());
        assert!(
            time(&held) == u.start
                && end.as_ref().map(time) == u.end
                && same_bits(s.from, u.from)
                && same_bits(s.vel, u.vel),
            "{label}: segment {k} differs\n  rescaled: {s:?} (held {held})\n  alone:    {u:?}"
        );
        held = end.unwrap_or(Int::ZERO);
    }
}

#[test]
fn sweep_aur_non_dyadic_tau_steps_scale_exactly() {
    let spec = CampaignSpec::new(SolverSpec::Aur, AUR_CLASSES.to_vec(), 20_000);
    let segments = spec.segments as usize;
    let rescaled_runs = AtomicUsize::new(0);
    each_spec_instance(&spec, |label, inst| {
        let den = inst.tau.denom().to_i128().expect("small denominator");
        if den & (den - 1) == 0 {
            return;
        }
        // The run's tick, as the engine picks it: the lcm of both
        // motions' ticks.
        let motion = |attrs: AgentAttrs| Motion::new(attrs, compiled_aur().tape());
        let (a, b) = (motion(inst.agent_a()), motion(inst.agent_b()));
        let run_tick = a.unit().lcm(b.unit());
        for (agent, rescaled, attrs) in [("A", a, inst.agent_a()), ("B", b, inst.agent_b())] {
            let first = run_tick.div_rem(rescaled.unit()).0;
            let label = format!("{label} {agent}");
            assert_rescales_exactly(&label, rescaled, motion(attrs), &first, segments);
        }
        rescaled_runs.fetch_add(1, Ordering::Relaxed);
    });
    assert!(rescaled_runs.into_inner() > 0, "no non-dyadic τ instance");
}

#[test]
fn resweep_pool_spec_steps_identically() {
    let classes = vec![
        TargetClass::Type1,
        TargetClass::Type2,
        TargetClass::S1,
        TargetClass::S2,
    ];
    let spec = CampaignSpec::new(SolverSpec::Dedicated, classes, 2_000);
    let segments = spec.segments as usize;
    each_spec_instance(&spec, |label, inst| {
        assert_dedicated(label, inst, segments);
    });
}

#[test]
fn type3_with_slow_or_fast_clocks_steps_identically() {
    let insts: Vec<Instance> = (0..)
        .map(|i| generate_seeded(mix_seed(3, i), TargetClass::Type3))
        .filter(|inst| !inst.tau.is_one())
        .take(16)
        .collect();
    rv_core::par_map(0, insts.len(), |i| {
        let label = format!("type-3 τ={} #{i}", insts[i].tau);
        assert_aur_tape(&format!("{label} B"), &insts[i].agent_b(), 20_000);
    });
}

/// A mirrored frame rotated by `3π/8`, with a non-unit clock and speed.
fn mirrored_rotated() -> AgentAttrs {
    AgentAttrs {
        origin: Vec2::new(7.0, -2.5),
        phi: Angle::pi_frac(3, 8),
        chi: Chirality::Minus,
        tau: ratio(3, 2),
        speed: ratio(2, 3),
        wake: ratio(1, 4),
    }
}

#[test]
fn mirrored_rotated_frame_steps_identically() {
    assert_aur_tape("AUR, χ=−1 φ=3π/8", &mirrored_rotated(), 20_000);
}

#[test]
fn aur_past_the_giant_wait_steps_identically() {
    // From the giant wait on, every exact time lies outside i128.
    let wait = Instr::wait(Ratio::pow2(135));
    assert_eq!(
        aur_prefix(DEEPEST_AUR).iter().position(|i| *i == wait),
        Some(22_987)
    );
    for tau in [ratio(2, 1), ratio(5, 3)] {
        let attrs = AgentAttrs {
            tau,
            ..mirrored_rotated()
        };
        let label = format!("AUR, τ = {}", attrs.tau);
        assert_aur_tape(&format!("{label} tape"), &attrs, DEEPEST_AUR);
        let raw = aur_prefix(DEEPEST_AUR).iter();
        let cursor = compiled_aur().cursor();
        assert_steps_over(&format!("{label} cursor"), &attrs, cursor, raw, DEEPEST_AUR);
    }
}

/// Every frame the synthetic programs below run in: the reference agent,
/// the reference attributes with a `-0.0` origin coordinate (a sign bit
/// its positions must carry exactly as the reference stepper's do), and a
/// mirrored, rotated one.
fn frames() -> [AgentAttrs; 3] {
    let negative_zero = AgentAttrs {
        origin: Vec2::new(-0.0, 0.0),
        ..AgentAttrs::reference()
    };
    [AgentAttrs::reference(), negative_zero, mirrored_rotated()]
}

/// Steps every frame over `program` lowered on the fly and over a
/// compiled tape of it, against the reference over the raw program.
fn assert_program_steps_identically(label: &str, program: &[Instr], segments: usize) {
    let owned = program.to_vec();
    let compiled = CompiledProgram::new(move || Box::new(owned.clone().into_iter()));
    for (f, attrs) in frames().iter().enumerate() {
        let label = format!("{label}, frame {f}");
        let raw = || program.iter();
        assert_steps_over(
            &format!("{label} on the fly"),
            attrs,
            raw(),
            raw(),
            segments,
        );
        assert_steps_over(
            &format!("{label} tape"),
            attrs,
            compiled.tape(),
            raw(),
            segments,
        );
    }
}

/// `go` along each direction in turn, `rounds` times over, with a wait
/// between rounds.
fn round_robin(dirs: &[Angle], rounds: usize) -> Vec<Instr> {
    let mut prog = Vec::new();
    for round in 0..rounds {
        for (k, dir) in dirs.iter().enumerate() {
            let dist = ratio(1 + (k + round) as i64 % 5, 3);
            prog.push(Instr::go_angle(dir.clone(), dist));
        }
        prog.push(Instr::wait(ratio(1, 2)));
    }
    prog
}

#[test]
fn more_directions_than_table_slots_step_identically() {
    let dirs: Vec<Angle> = (0..2 * DIR_SLOTS as i64)
        .map(|k| Angle::pi_frac(k, DIR_SLOTS as i64))
        .collect();
    // All directions in the first round, then a program that introduces
    // one new direction every 40 instructions, across several tape
    // chunks, and keeps revisiting the older ones.
    let prog = round_robin(&dirs, 4);
    assert_program_steps_identically("round robin", &prog, prog.len() + 2);
    let creeping: Vec<Instr> = (0..dirs.len() * 40)
        .map(|i| {
            let newest = i / 40;
            let k = if i % 2 == 0 {
                newest
            } else {
                i * 7 % (newest + 1)
            };
            match i % 9 {
                8 => Instr::wait(ratio(1 + (i % 3) as i64, 4)),
                _ => Instr::go_angle(dirs[k].clone(), ratio((i % 5) as i64, 8)),
            }
        })
        .collect();
    assert_program_steps_identically("creeping", &creeping, creeping.len() + 2);
}

#[test]
fn doubling_directions_per_phase_step_identically() {
    // Latecomers' shape: phase k goes along 2^k directions `jπ/2^(k−1)`,
    // half of them first seen in that phase, so the directory passes the
    // table's capacity in phase 6 and holds 1024 directions at the end.
    let mut prog = Vec::new();
    for k in 1..=10 {
        let n = 1i64 << k;
        for j in 0..n {
            prog.push(Instr::go_angle(
                Angle::pi_frac(j, n / 2),
                ratio(1 + j % 3, 4),
            ));
        }
        prog.push(Instr::wait(ratio(1, 2)));
    }
    assert_program_steps_identically("doubling", &prog, prog.len() + 2);
}

#[test]
fn directions_beyond_i128_step_identically() {
    // `q = 1/2^200` and `q = 1 + 1/2^130` have denominators no i128
    // holds: they are interned and mapped like any other direction.
    let dirs = [
        Angle::from_ratio_pi(Ratio::pow2(-200)),
        Angle::quarter(),
        Angle::from_ratio_pi(&Ratio::one() + &Ratio::pow2(-130)),
        Angle::pi_frac(1, 8),
    ];
    let prog = round_robin(&dirs, 6);
    assert_program_steps_identically("wide keys", &prog, prog.len() + 2);
}

#[test]
fn tape_crossing_the_materialization_cap_steps_identically() {
    // Waits, zero-length instructions, and directions first seen past
    // the cap, where the cached tape hands over to the tail lowered on
    // the fly.
    let n = MAX_MATERIALIZED + 3_000;
    let program: Vec<Instr> = (0..n)
        .map(|k| {
            let len = ratio((k % 9) as i64, 8);
            match k % 6 {
                5 => Instr::wait(len),
                _ if k > MAX_MATERIALIZED => {
                    Instr::go_angle(Angle::pi_frac((k % 5) as i64, 5), len)
                }
                _ => Instr::go_angle(Angle::pi_frac((k % 13) as i64, 16), len),
            }
        })
        .collect();
    assert_program_steps_identically("past the cap", &program, n + 2);
}
