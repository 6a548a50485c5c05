//! Integration tests of the baseline procedures against the simulator:
//! each reconstruction must honour the exact contract the paper states
//! for it (Section 2), on deterministic hand-picked instances.

use rv_baselines::{beeline, canonical_march, cgkk, cow_path_search, latecomers};
use rv_geometry::{Chirality, Vec2};
use rv_model::{Angle, Instance};
use rv_numeric::{ratio, Ratio};
use rv_sim::{simulate, SimConfig};
use rv_trajectory::{AgentAttrs, Instr};
use std::iter::empty;

fn run_same_program<P: Iterator<Item = Instr>, F: Fn() -> P>(
    inst: &Instance,
    prog: F,
    max_segments: u64,
) -> rv_sim::SimReport {
    let cfg = SimConfig::with_radius(inst.r.clone()).max_segments(max_segments);
    simulate(inst.agent_a(), prog(), inst.agent_b(), prog(), &cfg)
}

// --- CGKK contract -----------------------------------------------------

#[test]
fn cgkk_meets_clock_mismatch_at_t0() {
    let inst = Instance::builder()
        .position(ratio(3, 1), ratio(1, 1))
        .tau(ratio(2, 1))
        .build()
        .unwrap();
    let report = run_same_program(&inst, cgkk, 1_000_000);
    assert!(report.met(), "{}", report.outcome);
}

#[test]
fn cgkk_meets_speed_mismatch_at_t0() {
    let inst = Instance::builder()
        .position(ratio(3, 1), ratio(1, 1))
        .speed(ratio(1, 2))
        .build()
        .unwrap();
    let report = run_same_program(&inst, cgkk, 1_000_000);
    assert!(report.met(), "{}", report.outcome);
}

#[test]
fn cgkk_meets_rotation_at_t0() {
    let inst = Instance::builder()
        .position(ratio(4, 1), ratio(0, 1))
        .phi(Angle::quarter())
        .build()
        .unwrap();
    let report = run_same_program(&inst, cgkk, 1_000_000);
    assert!(report.met(), "{}", report.outcome);
    // Fixed-point sanity: T(p) = (4,0) + R_{π/2} p has fixed point (2,2);
    // the meeting must happen in its vicinity.
    let m = report.meeting().unwrap();
    let c = Vec2::new(2.0, 2.0);
    assert!(
        m.pos_a.dist(c) < 1.5,
        "meeting far from the fixed point: {:?}",
        m.pos_a
    );
}

#[test]
fn cgkk_fails_glide_reflection_as_contract_excludes() {
    // v = 1, χ = −1, t = 0, projections 3 apart > r = 1: infeasible, and
    // explicitly outside the CGKK contract.
    let inst = Instance::builder()
        .position(ratio(3, 1), ratio(2, 1))
        .chirality(Chirality::Minus)
        .build()
        .unwrap();
    let report = run_same_program(&inst, cgkk, 150_000);
    assert!(!report.met());
    assert!(report.min_dist >= inst.r.to_f64() - 1e-9);
}

// --- Latecomers contract -----------------------------------------------

#[test]
fn latecomers_meets_above_boundary() {
    // dist = 5, r = 1, boundary t = 4; t = 5 qualifies.
    let inst = Instance::builder()
        .position(ratio(3, 1), ratio(4, 1))
        .delay(ratio(5, 1))
        .build()
        .unwrap();
    let report = run_same_program(&inst, latecomers, 500_000);
    assert!(report.met(), "{}", report.outcome);
}

#[test]
fn latecomers_fails_below_boundary() {
    let inst = Instance::builder()
        .position(ratio(3, 1), ratio(4, 1))
        .delay(ratio(3, 1))
        .build()
        .unwrap();
    let report = run_same_program(&inst, latecomers, 100_000);
    assert!(!report.met());
    assert!(report.min_dist >= inst.r.to_f64() - 1e-9);
}

#[test]
fn latecomers_meets_small_displacement_with_fine_grid() {
    // Off-grid direction with modest slack: needs a later (finer) phase.
    let inst = Instance::builder()
        .position(ratio(2, 1), ratio(1, 1))
        .delay(ratio(2, 1))
        .r(ratio(1, 1))
        .build()
        .unwrap();
    // boundary = √5 − 1 ≈ 1.236 < 2 ✓ type 2.
    let report = run_same_program(&inst, latecomers, 500_000);
    assert!(report.met(), "{}", report.outcome);
}

// --- Dedicated boundary algorithms --------------------------------------

#[test]
fn beeline_meets_at_exactly_r_on_the_boundary() {
    let inst = Instance::builder()
        .position(ratio(3, 1), ratio(4, 1))
        .r(ratio(1, 1))
        .delay(ratio(4, 1))
        .build()
        .unwrap();
    let prog = beeline(&inst);
    let cfg = SimConfig::with_radius(inst.r.clone()).max_segments(10_000);
    let report = simulate(
        inst.agent_a(),
        prog.clone().into_iter(),
        inst.agent_b(),
        prog.into_iter(),
        &cfg,
    );
    let m = report.meeting().expect("beeline must meet");
    assert!((m.time.to_f64() - 4.0).abs() < 1e-6);
    assert!((m.dist - 1.0).abs() < 1e-6);
    // B never moved: it was still asleep at the meeting.
    assert!(m.pos_b.dist(Vec2::new(3.0, 4.0)) < 1e-9);
}

#[test]
fn canonical_march_meets_rotated_mirror_boundary() {
    // φ = π, χ = −1: canonical line vertical; proj dist = |y| = 4, t = 3.
    let inst = Instance::builder()
        .position(ratio(1, 1), ratio(4, 1))
        .phi(Angle::half())
        .chirality(Chirality::Minus)
        .r(ratio(1, 1))
        .delay(ratio(3, 1))
        .build()
        .unwrap();
    assert_eq!(
        rv_model::classify(&inst),
        rv_model::Classification::ExceptionS2
    );
    let prog = canonical_march(&inst);
    let cfg = SimConfig::with_radius(inst.r.clone()).max_segments(10_000);
    let report = simulate(
        inst.agent_a(),
        prog.clone().into_iter(),
        inst.agent_b(),
        prog.into_iter(),
        &cfg,
    );
    let m = report.meeting().expect("march must meet");
    assert!(
        (m.dist - 1.0).abs() < 1e-6,
        "boundary meeting at exactly r, got {}",
        m.dist
    );
}

#[test]
fn canonical_march_respects_non_dyadic_offsets() {
    let inst = Instance::builder()
        .position(ratio(4, 1), ratio(2, 3))
        .chirality(Chirality::Minus)
        .r(ratio(1, 1))
        .delay(ratio(3, 1))
        .build()
        .unwrap();
    let prog = canonical_march(&inst);
    let cfg = SimConfig::with_radius(inst.r.clone()).max_segments(10_000);
    let report = simulate(
        inst.agent_a(),
        prog.clone().into_iter(),
        inst.agent_b(),
        prog.into_iter(),
        &cfg,
    );
    assert!(report.met(), "{}", report.outcome);
}

// --- Cow-path reference --------------------------------------------------

#[test]
fn cow_path_finds_target_on_the_line() {
    // Classic setting: a stationary target 9 units east, seen at distance 1.
    let attrs_b = AgentAttrs {
        origin: Vec2::new(9.0, 0.0),
        ..AgentAttrs::reference()
    };
    let cfg = SimConfig::with_radius(Ratio::one()).max_segments(1_000);
    let report = simulate(
        AgentAttrs::reference(),
        cow_path_search(),
        attrs_b,
        empty::<Instr>(),
        &cfg,
    );
    let m = report.meeting().expect("cow path finds the target");
    // Doubling search: total distance ≤ 9·(target dist); here the first
    // pass reaching x = 8 misses by 1−... the pass reaching 16 sees it at
    // x = 8. Just check it met and the meet position is sane.
    assert!((m.pos_a.x - 8.0).abs() < 1e-6);
}

#[test]
fn identical_baseline_programs_on_infeasible_instances_keep_distance() {
    // Mirror-image executions cannot change the distance on the fully
    // symmetric instance, for *any* of the baselines.
    let inst = Instance::builder()
        .position(ratio(7, 1), ratio(0, 1))
        .build()
        .unwrap();
    for (name, report) in [
        ("cgkk", run_same_program(&inst, cgkk, 30_000)),
        ("latecomers", run_same_program(&inst, latecomers, 30_000)),
        // Cow path kept within its f64-exact sweep range (the exponent
        // saturation keeps positions ≤ 2^41).
        ("cow_path", run_same_program(&inst, cow_path_search, 300)),
    ] {
        assert!(!report.met(), "{name} must not meet");
        assert!(
            (report.min_dist - 7.0).abs() < 1e-9,
            "{name}: distance must stay 7, got {}",
            report.min_dist
        );
    }
}
