//! Stepping differential: `Motion`, which steps lowered instructions
//! (from the shared tape of a compiled program, or lowered on the fly
//! from an instruction iterator), against a reference stepper that sums
//! the scaled durations one instruction at a time and evaluates
//! `orientation.to_absolute(dir).unit()` on every `go`.
//!
//! Every segment's `start`, `end`, `from` and `vel` must agree bit for
//! bit, over:
//! - every instance of the benchmark's `sweep_aur` spec (AUR, the five
//!   Theorem 3.2 classes, 20k segments), seeds 1–3 at n = 64, both
//!   agents: over the tape at `σ = 1` and at a `σ > 1` (the engine's for
//!   the run, or 3 where the engine's is 1), and lowered on the fly from
//!   `CompiledProgram::cursor` (what rvbench steps) at `σ = 1`; agent A
//!   is the reference agent, which reads its positions off the tape;
//! - every instance of the `resweep_pool` spec (Dedicated,
//!   `type1,type2,s1,s2`, 2k segments), seeds 1–3 at n = 64;
//! - type-3 instances with `τ ≠ 1`, and a mirrored, rotated frame
//!   (`χ = −1`, `φ ≠ 0`), over the tape;
//! - a compiled program longer than `MAX_MATERIALIZED`, where the cached
//!   tape hands over to the tail lowered on the fly, with directions
//!   first seen past the cap;
//! - programs with more distinct directions than a motion's direction
//!   table holds, introduced while the tape is being lowered (so a run
//!   meets ids that were not interned when it started), over the tape and
//!   lowered on the fly;
//! - directions whose `q` has a denominator beyond `i128`.
//!
//! The reference runs on the raw generator's instructions, not on a
//! replay of the tape, so a lowering fault cannot hide in both. Each
//! agent is stepped for the spec's whole segment budget, more than the
//! engine pulls from either agent in one run.
//!
//! A second differential checks the time scale the engine runs in: on
//! every `sweep_aur` instance whose clock rate τ is not dyadic,
//! `Motion::scaled(attrs, tape, σ)` (σ the odd part of the τ and wake
//! denominators' lcm, as the engine picks it) must yield segments whose
//! `start`/`end` are exactly `σ` times those of `Motion::new`, with
//! bit-identical `from` and `vel`.

use rv_baselines::{beeline, canonical_march};
use rv_core::batch::mix_seed;
use rv_core::{
    almost_universal_rv, compiled_aur, recommend, CampaignSpec, DedicatedChoice, Instance,
    SolverSpec,
};
use rv_geometry::{Angle, Chirality, Orientation, Vec2};
use rv_model::{generate_seeded, TargetClass};
use rv_numeric::{ratio, Ratio};
use rv_trajectory::{
    AgentAttrs, CompiledProgram, Instr, Motion, Segment, StepSource, DIR_SLOTS, MAX_MATERIALIZED,
};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The per-`go` stepper `Motion` replaced: the same kinematics with the
/// clock summed one scaled duration at a time and the direction mapped
/// through the frame on every `go`.
struct Reference<P> {
    program: P,
    attrs: AgentAttrs,
    orientation: Orientation,
    unit_len_f64: f64,
    speed_f64: f64,
    /// Clock units per local time unit, `τσ`.
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
    fn scaled(attrs: AgentAttrs, program: P, sigma: u32) -> Reference<P> {
        let sigma = Ratio::from_int(u64::from(sigma));
        Reference {
            program,
            orientation: attrs.orientation(),
            unit_len_f64: attrs.unit_len().to_f64(),
            speed_f64: attrs.speed.to_f64(),
            rate: &attrs.tau * &sigma,
            clock: &attrs.wake * &sigma,
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

/// Steps `Motion::scaled(attrs, program, sigma)` and the reference over
/// `same`, a second copy of the same instruction stream, side by side for
/// up to `segments` segments, panicking at the first segment that
/// differs.
fn assert_steps_over<P, Q>(
    label: &str,
    attrs: &AgentAttrs,
    sigma: u32,
    program: P,
    same: Q,
    segments: usize,
) where
    P: StepSource,
    Q: Iterator,
    Q::Item: Borrow<Instr>,
{
    let stepped_motion = Motion::scaled(attrs.clone(), program, sigma);
    let reference = Reference::scaled(attrs.clone(), same, sigma);
    let mut stepped = 0;
    for (k, (m, r)) in stepped_motion.zip(reference).take(segments).enumerate() {
        assert!(
            m.start == r.start
                && m.end == r.end
                && same_bits(m.from, r.from)
                && same_bits(m.vel, r.vel),
            "{label} σ={sigma}: segment {k} differs\n  motion:    {m:?}\n  reference: {r:?}"
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
        assert_steps_over(&label, &attrs, 1, make(), make(), segments);
    }
}

/// The raw AUR generator's instructions, enough of them for `segments`
/// segments: the reference's side of every AUR check.
fn aur_prefix(segments: usize) -> &'static [Instr] {
    static PREFIX: OnceLock<Vec<Instr>> = OnceLock::new();
    let prefix = PREFIX.get_or_init(|| {
        let mut moving = 0;
        almost_universal_rv()
            .take_while(|instr| {
                moving += usize::from(!instr.is_empty());
                moving <= 2 * 20_000
            })
            .collect()
    });
    assert!(prefix.len() >= segments, "the AUR prefix is too short");
    prefix
}

/// Agent `attrs` over the compiled AUR tape against the reference over
/// the raw generator.
fn assert_aur_tape(label: &str, attrs: &AgentAttrs, sigma: u32, segments: usize) {
    let raw = aur_prefix(segments).iter();
    assert_steps_over(label, attrs, sigma, compiled_aur().tape(), raw, segments);
}

/// The program both agents run under `Dedicated` (as its solver picks it).
fn assert_dedicated(label: &str, inst: &Instance, segments: usize) {
    let program = match recommend(inst).solver {
        DedicatedChoice::StayPut => Vec::new(),
        DedicatedChoice::Beeline => beeline(inst),
        DedicatedChoice::CanonicalMarch => canonical_march(inst),
        DedicatedChoice::Aur => {
            for (agent, attrs) in [("A", inst.agent_a()), ("B", inst.agent_b())] {
                assert_aur_tape(&format!("{label} {agent}"), &attrs, 1, segments);
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

/// The odd part of `r`'s denominator (which fits: the generator's are at
/// most 12).
fn odd_denominator(r: &Ratio) -> u32 {
    let d = r.denom().to_i128().expect("small denominator");
    u32::try_from(d >> d.trailing_zeros()).expect("small denominator")
}

fn gcd(mut x: u32, mut y: u32) -> u32 {
    while y != 0 {
        (x, y) = (y, x % y);
    }
    x
}

/// The time scale the engine picks for `inst` (agent A contributes 1).
fn run_sigma(inst: &Instance) -> u32 {
    let (odd_tau, odd_wake) = (odd_denominator(&inst.tau), odd_denominator(&inst.t));
    odd_tau / gcd(odd_tau, odd_wake) * odd_wake
}

#[test]
fn sweep_aur_spec_steps_identically() {
    let spec = CampaignSpec::new(SolverSpec::Aur, AUR_CLASSES.to_vec(), 20_000);
    let segments = spec.segments as usize;
    let scaled = run_sigma_share(&spec);
    assert!(scaled > 0, "no sweep_aur run has σ > 1");
    each_spec_instance(&spec, |label, inst| {
        let sigma = match run_sigma(inst) {
            1 => 3,
            sigma => sigma,
        };
        for (agent, attrs) in [("A", inst.agent_a()), ("B", inst.agent_b())] {
            let label = format!("{label} {agent}");
            assert_aur_tape(&format!("{label} tape"), &attrs, 1, segments);
            assert_aur_tape(&format!("{label} tape"), &attrs, sigma, segments);
            let raw = aur_prefix(segments).iter();
            let cursor = compiled_aur().cursor();
            assert_steps_over(&format!("{label} cursor"), &attrs, 1, cursor, raw, segments);
        }
    });
}

/// How many of `spec`'s seed 1–3 runs the engine counts at `σ > 1`.
fn run_sigma_share(spec: &CampaignSpec) -> usize {
    (1..=3)
        .flat_map(|seed| (0..64).map(move |index| (seed, index)))
        .filter(|&(seed, index)| run_sigma(&spec.instance(seed, index)) > 1)
        .count()
}

#[test]
fn sweep_aur_non_dyadic_tau_steps_scale_exactly() {
    let spec = CampaignSpec::new(SolverSpec::Aur, AUR_CLASSES.to_vec(), 20_000);
    let segments = spec.segments as usize;
    let scaled_runs = AtomicUsize::new(0);
    each_spec_instance(&spec, |label, inst| {
        if odd_denominator(&inst.tau) == 1 {
            return;
        }
        let sigma = run_sigma(inst);
        let factor = Ratio::from_int(u64::from(sigma));
        let times = |t: &Ratio| t * &factor;
        for (agent, attrs) in [("A", inst.agent_a()), ("B", inst.agent_b())] {
            let scaled = Motion::scaled(attrs.clone(), compiled_aur().tape(), sigma);
            let unit = Motion::new(attrs, compiled_aur().tape());
            for (k, (s, u)) in scaled.zip(unit).take(segments).enumerate() {
                assert!(
                    s.start == times(&u.start)
                        && s.end == u.end.as_ref().map(times)
                        && same_bits(s.from, u.from)
                        && same_bits(s.vel, u.vel),
                    "{label} {agent} σ={sigma}: segment {k} differs\n  scaled: {s:?}\n  σ = 1:  {u:?}"
                );
            }
        }
        scaled_runs.fetch_add(1, Ordering::Relaxed);
    });
    assert!(scaled_runs.into_inner() > 0, "no non-dyadic τ instance");
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
        assert_aur_tape(&format!("{label} B"), &insts[i].agent_b(), 1, 20_000);
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
    let attrs = mirrored_rotated();
    for sigma in [1, 3] {
        assert_aur_tape("AUR, χ=−1 φ=3π/8", &attrs, sigma, 20_000);
    }
}

/// Every frame and time scale the synthetic programs below run in: the
/// reference agent (which reads its positions off a tape) and a
/// mirrored, rotated one, each at `σ = 1` and `σ = 3`.
fn frames() -> [(AgentAttrs, u32); 4] {
    let reference = AgentAttrs::reference();
    [
        (reference.clone(), 1),
        (reference, 3),
        (mirrored_rotated(), 1),
        (mirrored_rotated(), 3),
    ]
}

/// Steps every frame over `program` lowered on the fly and over a
/// compiled tape of it, against the reference over the raw program.
fn assert_program_steps_identically(label: &str, program: &[Instr], segments: usize) {
    let owned = program.to_vec();
    let compiled = CompiledProgram::new(move || Box::new(owned.clone().into_iter()));
    for (f, (attrs, sigma)) in frames().iter().enumerate() {
        let label = format!("{label}, frame {f}");
        let raw = || program.iter();
        assert_steps_over(
            &format!("{label} on the fly"),
            attrs,
            *sigma,
            raw(),
            raw(),
            segments,
        );
        let tape = compiled.tape();
        assert_steps_over(
            &format!("{label} tape"),
            attrs,
            *sigma,
            tape,
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
