//! Stepping differential: `Motion`, which maps each local direction
//! through the agent's frame once per run (its direction table), against
//! a reference stepper that evaluates `orientation.to_absolute(dir).unit()`
//! on every `go`.
//!
//! Every segment's `start`, `end`, `from` and `vel` must agree bit for
//! bit, over:
//! - every instance of the benchmark's `sweep_aur` spec (AUR, the five
//!   Theorem 3.2 classes, 20k segments) and `resweep_pool` spec
//!   (Dedicated, `type1,type2,s1,s2`, 2k segments), seeds 1–3 at n = 64;
//!   on `sweep_aur`'s, `Motion` steps through both the owned replay
//!   (`cursor()`) and the borrowed one the solver uses (`iter()`);
//! - type-3 instances with `τ ≠ 1`;
//! - a mirrored, rotated frame (`χ = −1`, `φ ≠ 0`);
//! - a program with more distinct directions than the table holds;
//! - directions whose `q` has a denominator beyond `i128`.
//!
//! Each agent is stepped for the spec's whole segment budget, more than
//! the engine pulls from either agent in one run.
//!
//! A second differential checks the time scale the engine runs in: on
//! every `sweep_aur` instance whose clock rate τ is not dyadic,
//! `Motion::scaled(attrs, program, σ)` (σ the odd part of the τ and wake
//! denominators' lcm, as the engine picks it) must yield segments whose
//! `start`/`end` are exactly `σ` times those of `Motion::new`, with
//! bit-identical `from` and `vel`.

use rv_baselines::{beeline, canonical_march};
use rv_core::batch::mix_seed;
use rv_core::{compiled_aur, recommend, CampaignSpec, DedicatedChoice, Instance, SolverSpec};
use rv_geometry::{Angle, Chirality, Orientation, Vec2};
use rv_model::{generate_seeded, TargetClass};
use rv_numeric::{ratio, Ratio};
use rv_trajectory::{AgentAttrs, Instr, Motion, Segment, DIR_SLOTS};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The per-`go` stepper `Motion` replaced: the same kinematics with the
/// direction mapped through the frame on every `go`.
struct Reference<P> {
    program: P,
    attrs: AgentAttrs,
    orientation: Orientation,
    unit_len_f64: f64,
    speed_f64: f64,
    clock: Ratio,
    pos: Vec2,
    halted: bool,
    emitted_wake: bool,
}

impl<P: Iterator<Item = Instr>> Reference<P> {
    fn new(attrs: AgentAttrs, program: P) -> Reference<P> {
        Reference {
            program,
            orientation: attrs.orientation(),
            unit_len_f64: attrs.unit_len().to_f64(),
            speed_f64: attrs.speed.to_f64(),
            clock: attrs.wake.clone(),
            pos: attrs.origin,
            attrs,
            halted: false,
            emitted_wake: false,
        }
    }
}

impl<P: Iterator<Item = Instr>> Iterator for Reference<P> {
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
                    end: Some(self.attrs.wake.clone()),
                    from: self.attrs.origin,
                    vel: Vec2::ZERO,
                });
            }
        }
        loop {
            match self.program.next() {
                None => {
                    self.halted = true;
                    return Some(Segment {
                        start: self.clock.clone(),
                        end: None,
                        from: self.pos,
                        vel: Vec2::ZERO,
                    });
                }
                Some(instr) if instr.is_empty() => continue,
                Some(Instr::Wait { dur }) => {
                    let end = &self.clock + &(&dur * &self.attrs.tau);
                    let start = std::mem::replace(&mut self.clock, end);
                    return Some(Segment {
                        start,
                        end: Some(self.clock.clone()),
                        from: self.pos,
                        vel: Vec2::ZERO,
                    });
                }
                Some(Instr::Go { dir, dist }) => {
                    let unit = self.orientation.to_absolute(&dir).unit();
                    let abs_len = dist.to_f64() * self.unit_len_f64;
                    let end = &self.clock + &(&dist * &self.attrs.tau);
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

/// Steps `Motion` and the reference side by side for up to `segments`
/// segments of `attrs` running the program `make` builds, panicking at
/// the first segment that differs.
fn assert_same_steps<P, F>(label: &str, attrs: &AgentAttrs, make: F, segments: usize)
where
    P: Iterator<Item = Instr>,
    F: Fn() -> P,
{
    assert_steps_over(label, attrs, make(), make(), segments);
}

/// Steps `Motion` over `program` and the reference over `same`, a second
/// copy of the same instruction stream.
fn assert_steps_over<P, Q>(label: &str, attrs: &AgentAttrs, program: P, same: Q, segments: usize)
where
    P: Iterator,
    P::Item: Borrow<Instr>,
    Q: Iterator<Item = Instr>,
{
    let memo = Motion::new(attrs.clone(), program);
    let reference = Reference::new(attrs.clone(), same);
    let mut stepped = 0;
    for (k, (m, r)) in memo.zip(reference).take(segments).enumerate() {
        assert!(
            m.start == r.start
                && m.end == r.end
                && same_bits(m.from, r.from)
                && same_bits(m.vel, r.vel),
            "{label}: segment {k} differs\n  memoized:  {m:?}\n  reference: {r:?}"
        );
        stepped += 1;
    }
    assert!(stepped > 0, "{label}: no segments");
}

/// Both agents of `inst` under the program pair `make` builds.
fn assert_instance<P, F>(label: &str, inst: &Instance, make: F, segments: usize)
where
    P: Iterator<Item = Instr>,
    F: Fn() -> P,
{
    assert_same_steps(&format!("{label} A"), &inst.agent_a(), &make, segments);
    assert_same_steps(&format!("{label} B"), &inst.agent_b(), &make, segments);
}

/// The program both agents run under `Dedicated` (as its solver picks it).
fn assert_dedicated(label: &str, inst: &Instance, segments: usize) {
    let program = match recommend(inst).solver {
        DedicatedChoice::StayPut => Vec::new(),
        DedicatedChoice::Beeline => beeline(inst),
        DedicatedChoice::CanonicalMarch => canonical_march(inst),
        DedicatedChoice::Aur => {
            return assert_instance(label, inst, || compiled_aur().cursor(), segments);
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
        assert_instance(label, inst, || compiled_aur().cursor(), segments);
        for (agent, attrs) in [("A", inst.agent_a()), ("B", inst.agent_b())] {
            assert_steps_over(
                &format!("{label} {agent} borrowed"),
                &attrs,
                compiled_aur().iter(),
                compiled_aur().cursor(),
                segments,
            );
        }
    });
}

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

#[test]
fn sweep_aur_non_dyadic_tau_steps_scale_exactly() {
    let spec = CampaignSpec::new(SolverSpec::Aur, AUR_CLASSES.to_vec(), 20_000);
    let segments = spec.segments as usize;
    let scaled_runs = AtomicUsize::new(0);
    each_spec_instance(&spec, |label, inst| {
        let odd_tau = odd_denominator(&inst.tau);
        if odd_tau == 1 {
            return;
        }
        let odd_wake = odd_denominator(&inst.t);
        let sigma = odd_tau / gcd(odd_tau, odd_wake) * odd_wake;
        let factor = Ratio::from_int(u64::from(sigma));
        let times = |t: &Ratio| t * &factor;
        for (agent, attrs) in [("A", inst.agent_a()), ("B", inst.agent_b())] {
            let scaled = Motion::scaled(attrs.clone(), compiled_aur().iter(), sigma);
            let unit = Motion::new(attrs, compiled_aur().iter());
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
        assert_instance(&label, &insts[i], || compiled_aur().cursor(), 20_000);
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
    assert_same_steps(
        "AUR, χ=−1 φ=3π/8",
        &attrs,
        || compiled_aur().cursor(),
        20_000,
    );
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
    let prog = round_robin(&dirs, 4);
    let frames = [AgentAttrs::reference(), mirrored_rotated()];
    for (f, attrs) in frames.iter().enumerate() {
        let label = format!("{} directions, frame {f}", dirs.len());
        assert_same_steps(&label, attrs, || prog.clone().into_iter(), prog.len() + 2);
    }
}

#[test]
fn directions_beyond_i128_step_identically() {
    // `q = 1/2^200` and `q = 1 + 1/2^130` have denominators no i128
    // holds: they are mapped on every `go`, between table hits.
    let dirs = [
        Angle::from_ratio_pi(Ratio::pow2(-200)),
        Angle::quarter(),
        Angle::from_ratio_pi(&Ratio::one() + &Ratio::pow2(-130)),
        Angle::pi_frac(1, 8),
    ];
    let prog = round_robin(&dirs, 6);
    let frames = [AgentAttrs::reference(), mirrored_rotated()];
    for (f, attrs) in frames.iter().enumerate() {
        let label = format!("wide keys, frame {f}");
        assert_same_steps(&label, attrs, || prog.clone().into_iter(), prog.len() + 2);
    }
}
