//! Golden record digests: the wire bytes of fixed campaigns, pinned
//! across commits.
//!
//! The executor and server differentials compare backends of one build,
//! and `motion_differential`'s reference stepper shares `Ratio`'s
//! operators with the code it checks, so neither notices a change to
//! exact arithmetic that moves a record byte. This suite hashes
//! (FNV-1a, 64-bit) `wire::encode_record(i, r)` for every record of a
//! campaign, then `wire::encode_campaign_report` of its stats, and
//! compares against constants computed before the `Ratio` kernels were
//! rewritten:
//! - the benchmark's `sweep_aur` spec (AUR, the five Theorem 3.2 classes,
//!   20k segments), seeds 1–3 at n = 64;
//! - its `resweep_pool` spec (Dedicated, `type1,type2,s1,s2`, 2k
//!   segments), seed 1 at n = 1024;
//! - the records of the first 16 type-3 instances from `mix_seed(3, i)`
//!   whose clock rate τ is not dyadic, run through `sweep_aur`'s
//!   campaign;
//! - on those 16 instances, the full `SimReport` (the meeting's exact
//!   `base` and the f64 bits of its `offset`, `min_dist`, `min_dist_time`
//!   and every `TraceSample`) of three engine paths that no campaign
//!   record reaches: a non-dyadic time cap (`Budget::time`), the
//!   Section 5 freeze (AUR under `Visibility::Scaled` radii, both ways
//!   round) and the distance tracer;
//! - the records of the first 8 type-3 instances from `mix_seed(3, i)`
//!   running `wait(2^140)` then `planar_cow_walk(3)`, so every clock and
//!   every offset the engine projects lies outside `i128` (AUR's first
//!   such wait is instruction 22,987, past `sweep_aur`'s budget).
//!
//! A second group pins the bytes of every encoder that renders into one
//! growing buffer rather than through `format!` and `join`, with stats
//! folded from records the way a driver folds them (digests computed
//! while workers still shipped their folded accumulators):
//! - the entry file `ResultCache::store` writes for `resweep_pool`'s spec,
//!   seed 1, indices `0..128`: the digest of its spec and record lines,
//!   and its literal closing `unit_done` line;
//! - the `campaign_report` line over `sweep_aur`'s spec, seeds 1–3 at
//!   n = 64;
//! - a literal `unit_done` line.
//!
//! Directions other than quarter turns take `cos`/`sin` from the
//! platform's libm, whose last bit may differ between platforms, so the
//! constants are asserted on x86_64 Linux (the CI runner) only; elsewhere
//! the suite still runs every campaign and prints the digests.

use rv_core::batch::mix_seed;
use rv_core::shard::UnitDone;
use rv_core::wire::{encode_campaign_report, encode_record, encode_unit_done};
use rv_core::{
    almost_universal_rv, planar_cow_walk, solve_pair, Aur, Budget, CampaignReport, CampaignSpec,
    FixedPair, Instance, Outcome, ResultCache, RunRecord, SimReport, Solver, SolverSpec,
    StatsAccumulator, Visibility,
};
use rv_geometry::Vec2;
use rv_model::{generate_seeded, TargetClass};
use rv_numeric::{ratio, Ratio};
use rv_trajectory::Instr;

/// Incremental 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of every record line of `report`, then (with `with_stats`)
/// its `campaign_report` line.
fn digest(report: &CampaignReport, with_stats: bool) -> u64 {
    let mut h = Fnv::new();
    for (i, rec) in report.records.iter().enumerate() {
        h.write(encode_record(i, rec).as_bytes());
    }
    if with_stats {
        h.write(encode_campaign_report(&report.stats).as_bytes());
    }
    h.0
}

fn check(label: &str, got: u64, want: u64) {
    println!("{label}: {got:016x}");
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        assert_eq!(got, want, "{label}: digest {got:016x}, pinned {want:016x}");
    }
}

/// The five classes `AlmostUniversalRV` is guaranteed on (Theorem 3.2).
const AUR_CLASSES: [TargetClass; 5] = [
    TargetClass::Type1,
    TargetClass::Type2,
    TargetClass::Type3,
    TargetClass::Type4Speed,
    TargetClass::Type4Rotation,
];

fn sweep_aur_spec() -> CampaignSpec {
    CampaignSpec::new(SolverSpec::Aur, AUR_CLASSES.to_vec(), 20_000)
}

fn resweep_pool_spec() -> CampaignSpec {
    let classes = vec![
        TargetClass::Type1,
        TargetClass::Type2,
        TargetClass::S1,
        TargetClass::S2,
    ];
    CampaignSpec::new(SolverSpec::Dedicated, classes, 2_000)
}

/// One-shot FNV-1a of `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.0
}

#[test]
fn sweep_aur_spec_digests_are_pinned() {
    let spec = sweep_aur_spec();
    for (seed, want) in [
        (1, 0x464a_05d0_ffe2_2cde),
        (2, 0x3bf7_65b3_efc8_f3d4),
        (3, 0x7040_d075_041d_6f6f),
    ] {
        let report = spec.run_local(seed, 64);
        check(
            &format!("sweep_aur seed {seed}"),
            digest(&report, true),
            want,
        );
    }
}

#[test]
fn resweep_pool_spec_digest_is_pinned() {
    let report = resweep_pool_spec().run_local(1, 1024);
    check(
        "resweep_pool seed 1",
        digest(&report, true),
        0x69e8_5261_1bbf_bc7e,
    );
}

/// The first 16 type-3 instances from `mix_seed(3, i)` whose clock rate
/// τ is not dyadic.
fn non_dyadic_type3() -> Vec<Instance> {
    (0..)
        .map(|i| generate_seeded(mix_seed(3, i), TargetClass::Type3))
        .filter(|inst| {
            inst.tau
                .denom()
                .to_i128()
                .is_none_or(|d| d.count_ones() != 1)
        })
        .take(16)
        .collect()
}

#[test]
fn non_dyadic_tau_type3_digest_is_pinned() {
    let insts = non_dyadic_type3();
    let report = sweep_aur_spec().campaign().run(&insts);
    check(
        "type-3 non-dyadic τ",
        digest(&report, false),
        0xa970_4ca0_9a14_a190,
    );
}

fn write_f64(h: &mut Fnv, v: f64) {
    h.write(&v.to_bits().to_le_bytes());
}

fn write_vec2(h: &mut Fnv, v: Vec2) {
    write_f64(h, v.x);
    write_f64(h, v.y);
}

/// Feeds `report` to `h`: the outcome, with a meeting's exact `base`
/// (as text) and the bits of its `offset`, positions and distance; the
/// bits of `min_dist` and `min_dist_time`; the segment count; and every
/// trace sample.
fn write_report(h: &mut Fnv, report: &SimReport) {
    match &report.outcome {
        Outcome::Met(m) => {
            h.write(format!("met {}", m.time.base).as_bytes());
            write_f64(h, m.time.offset);
            write_vec2(h, m.pos_a);
            write_vec2(h, m.pos_b);
            write_f64(h, m.dist);
        }
        Outcome::Budget(reason) => h.write(format!("{reason:?}").as_bytes()),
    }
    write_f64(h, report.min_dist);
    write_f64(h, report.min_dist_time);
    h.write(&report.segments.to_le_bytes());
    for s in &report.trace {
        write_f64(h, s.time);
        write_vec2(h, s.pos_a);
        write_vec2(h, s.pos_b);
        write_f64(h, s.dist);
    }
}

/// Digest of `solver`'s reports on the non-dyadic-τ type-3 instances,
/// under each budget in turn.
fn engine_digest(solver: &dyn Solver, budgets: &[Budget]) -> u64 {
    let mut h = Fnv::new();
    for inst in non_dyadic_type3() {
        for budget in budgets {
            write_report(&mut h, &solver.solve(&inst, budget));
        }
    }
    h.0
}

#[test]
fn non_dyadic_tau_time_cap_digest_is_pinned() {
    // Non-dyadic caps, one below most meeting times and one above.
    let budget = sweep_aur_spec().budget();
    let caps = [ratio(100, 3), ratio(3001, 7)];
    let budgets: Vec<Budget> = caps
        .iter()
        .map(|t| budget.clone().time(t.clone()))
        .collect();
    check(
        "type-3 non-dyadic τ, time cap",
        engine_digest(&Aur, &budgets),
        0x4167_e380_8540_135a,
    );
}

#[test]
fn non_dyadic_tau_freeze_digest_is_pinned() {
    let budget = sweep_aur_spec().budget().trace(16);
    let mut h = Fnv::new();
    for (a, b) in [(ratio(3, 1), ratio(1, 1)), (ratio(1, 2), ratio(5, 2))] {
        let solver = FixedPair::symmetric("aur", |_| almost_universal_rv())
            .visibility(Visibility::Scaled { a, b });
        h.write(&engine_digest(&solver, std::slice::from_ref(&budget)).to_le_bytes());
    }
    check(
        "type-3 non-dyadic τ, Section 5 freeze",
        h.0,
        0x03e4_fb69_6428_0cf0,
    );
}

#[test]
fn non_dyadic_tau_trace_digest_is_pinned() {
    let budget = sweep_aur_spec().budget().trace(64);
    check(
        "type-3 non-dyadic τ, trace",
        engine_digest(&Aur, &[budget]),
        0x69b2_6290_8e80_1b40,
    );
}

#[test]
fn big_clock_cow_walk_digest_is_pinned() {
    let budget = sweep_aur_spec().budget();
    let mut h = Fnv::new();
    for i in 0..8 {
        let inst = generate_seeded(mix_seed(3, i), TargetClass::Type3);
        let program = || std::iter::once(Instr::wait(Ratio::pow2(140))).chain(planar_cow_walk(3));
        let report = solve_pair(&inst, program(), program(), &budget);
        h.write(encode_record(i as usize, &RunRecord::from_report(&inst, &report)).as_bytes());
    }
    check(
        "type-3 wait(2^140) + planar_cow_walk(3)",
        h.0,
        0x44b6_736d_3daf_7be2,
    );
}

/// The unit `range` of `spec` at `seed`, run in-process: its records in
/// index order and the accumulator folded from them, as a driver gets
/// them.
fn run_unit(
    spec: &CampaignSpec,
    seed: u64,
    range: std::ops::Range<usize>,
) -> (Vec<(usize, RunRecord)>, StatsAccumulator) {
    let records = spec.run_range(seed, range, 1);
    let acc = StatsAccumulator::of(records.iter().map(|(_, rec)| rec));
    (records, acc)
}

#[test]
fn cache_entry_bytes_are_pinned() {
    let spec = resweep_pool_spec();
    let range = 0..128;
    let (records, acc) = run_unit(&spec, 1, range.clone());
    let dir = std::env::temp_dir().join(format!("rv-record-digest-{}", std::process::id()));
    let cache = ResultCache::open(&dir).expect("cache dir");
    let key = cache
        .store(&spec, 1, &range, &records, &acc)
        .expect("store a full unit");
    let text = std::fs::read_to_string(cache.entry_path(key)).expect("read the stored entry");
    let _ = std::fs::remove_dir_all(&dir);
    let body = text.strip_suffix('\n').expect("entry ends in a newline");
    let last = body.rfind('\n').map_or(0, |at| at + 1);
    // The spec and record lines (with their newlines), digested before
    // `unit_done` stopped carrying the accumulator.
    check(
        "resweep_pool cache entry, seed 1, 0..128: spec and record lines",
        fnv(&text.as_bytes()[..last]),
        0x1822_3b9c_cf74_f2ab,
    );
    assert_eq!(
        &body[last..],
        r#"{"schema": 3, "kind": "unit_done", "task_id": 0, "start": 0}"#
    );
}

#[test]
fn accumulator_and_report_lines_are_pinned() {
    // The `campaign_report` line of stats folded from the unit's records,
    // digested when workers still shipped their folded accumulators.
    let spec = sweep_aur_spec();
    for (seed, want) in [
        (1, 0x47fc_dac9_63a5_edb4),
        (2, 0xa8d3_5be5_c22f_7670),
        (3, 0xb676_d529_614d_a499),
    ] {
        let (_, acc) = run_unit(&spec, seed, 0..64);
        let line = encode_campaign_report(&acc.finish());
        check(
            &format!("sweep_aur seed {seed} lines"),
            fnv(line.as_bytes()),
            want,
        );
    }
}

#[test]
fn empty_accumulator_lines_are_pinned() {
    assert_eq!(
        encode_unit_done(&UnitDone {
            task_id: 0,
            start: 9
        }),
        r#"{"schema": 3, "kind": "unit_done", "task_id": 0, "start": 9}"#
    );
}
