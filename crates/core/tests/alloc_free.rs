//! Allocation gates: the solver's per-step loop allocates nothing, and
//! the schema-3 record codec allocates at most once per line.
//!
//! A counting global allocator wraps the system allocator; the test
//! compares total allocation counts between two single-threaded AUR runs
//! whose only difference is the segment budget (10k vs 20k steps, both
//! shallow enough that clocks stay on the inline-`i128` path). Every
//! per-run fixed cost (config clones, report construction, the warmed
//! compiled-program cache) is identical between the two, so **any**
//! per-step allocation would show up as thousands of extra counts on the
//! deeper run. Equality therefore pins "zero heap allocations in the
//! steady-state event loop" without brittle absolute thresholds.
//!
//! Agent B runs in a rotated, mirrored frame (`φ = 3π/8`, `χ = −1`), so
//! the first use of each direction id in B's direction table runs the
//! general `φ − θ` transform under the counter, while agent A, the
//! reference agent, fills its table through the identity frame. It runs
//! twice: with `τ = 2`, and with `τ = 5/3`, whose run counts ticks over a
//! scale with an odd factor (the non-dyadic time path).
//!
//! Past one agent's 23k-th instruction the run's clock leaves i128, and
//! there the count is pinned instead: exactly two allocations per
//! segment, both where the engine places a motion's leg on that clock.
//!
//! Besides the comparison, each solve has an absolute cap of zero
//! allocations, the count measured for both runs before the step tape
//! existed. The per-run direction table lives inline in each `Motion`; a
//! table that moved to the heap, or grew there as new direction ids
//! arrive, would break the cap even where the two depths allocate alike.
//!
//! The compiled AUR tape is warmed to the deeper run's depth first —
//! tape *extension* allocates by design (that is the once-per-process
//! lowering); stepping it must not.
//!
//! The codec gate counts exact allocations: `encode_record` makes one
//! (its output), decoding a record or `unit_done` line makes at most one
//! (the pair buffer of its object), and loading a 128-record cache entry
//! of the benchmark's `resweep_pool` spec, stats folded from its records
//! included, stays within two per record.
//!
//! The counter is per thread, so the tests may run in parallel and each
//! counts only its own allocations. Everything measured here (one solve,
//! one encode or decode, one cache load) runs on the calling thread.

use rv_core::shard::{CampaignSpec, SolverSpec, UnitDone};
use rv_core::wire::{self, Line};
use rv_core::{Aur, Budget, ResultCache, RunRecord, Solver, StatsAccumulator};
use rv_geometry::{Angle, Chirality};
use rv_model::{Classification, Instance, TargetClass};
use rv_numeric::{ratio, Ratio};
use rv_sim::{BudgetReason, Outcome};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so reading it never
    // allocates or registers a thread-exit hook.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates every operation unchanged to the system allocator;
// the counter is a plain thread-local cell with no effect on allocation
// behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations `f` makes on this thread, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocs();
    let out = f();
    (allocs() - before, out)
}

#[test]
fn steady_state_event_loop_allocates_nothing() {
    for tau in [ratio(2, 1), ratio(5, 3)] {
        assert_event_loop_allocates_nothing(tau);
    }
}

/// The allocation comparison for agent B with clock rate `tau`.
fn assert_event_loop_allocates_nothing(tau: Ratio) {
    // Far-apart agents: AUR cannot meet this early, so both runs exhaust
    // exactly their segment budget and the step counts differ by 10k.
    let inst = Instance::builder()
        .position(ratio(5_000, 1), ratio(1, 2))
        .r(ratio(1, 2))
        .tau(tau)
        .phi(Angle::pi_frac(3, 8))
        .chirality(Chirality::Minus)
        .build()
        .unwrap();
    let shallow = Budget::default().segments(10_000);
    let deep = Budget::default().segments(20_000);

    // Warm-up: materializes the shared compiled program past the deeper
    // run's depth and initializes every lazy static on the path.
    let warm = Aur.solve(&inst, &deep);
    assert!(
        matches!(warm.outcome, Outcome::Budget(BudgetReason::Segments)),
        "warm-up run must exhaust its segment budget, not meet (got {:?})",
        warm.outcome
    );

    let before_shallow = allocs();
    let a = Aur.solve(&inst, &shallow);
    let shallow_allocs = allocs() - before_shallow;

    let before_deep = allocs();
    let b = Aur.solve(&inst, &deep);
    let deep_allocs = allocs() - before_deep;

    assert!(matches!(a.outcome, Outcome::Budget(BudgetReason::Segments)));
    assert!(matches!(b.outcome, Outcome::Budget(BudgetReason::Segments)));
    assert!(
        b.segments > a.segments + 9_000,
        "budgets must differ in steps"
    );

    assert_eq!(
        shallow_allocs, deep_allocs,
        "τ = {}: 10k extra steps changed the allocation count: the \
         per-step loop is no longer allocation-free",
        inst.tau
    );
    assert_eq!(
        deep_allocs, 0,
        "τ = {}: one solve allocated; the per-run cap is zero",
        inst.tau
    );
}

/// Allocations per segment of the `Big`-clock regime, past one agent's
/// 23k-th instruction: the extra allocations of a 70k-segment solve over
/// a 50k-segment one, both on the far-apart instance above with `τ = 2`.
/// The engine makes two per segment, both where it places the leg the
/// ending agent's motion yields: the copy of the run's clock that is the
/// segment's start, and the `Int` sum `cur + len` that is its end. The
/// leg's length, `τ·d_k` ticks of one instruction's duration, stays an
/// i128.
#[test]
fn big_clock_regime_allocation_count_is_pinned() {
    let inst = Instance::builder()
        .position(ratio(5_000, 1), ratio(1, 2))
        .r(ratio(1, 2))
        .tau(ratio(2, 1))
        .phi(Angle::pi_frac(3, 8))
        .chirality(Chirality::Minus)
        .build()
        .unwrap();
    let (shallow, deep) = (50_000, 70_000);
    let warm = Aur.solve(&inst, &Budget::default().segments(deep));
    assert!(matches!(
        warm.outcome,
        Outcome::Budget(BudgetReason::Segments)
    ));
    let (shallow_allocs, a) = counted(|| Aur.solve(&inst, &Budget::default().segments(shallow)));
    let (deep_allocs, b) = counted(|| Aur.solve(&inst, &Budget::default().segments(deep)));
    assert_eq!(b.segments - a.segments, deep - shallow);
    assert_eq!(
        deep_allocs - shallow_allocs,
        2 * (deep - shallow),
        "allocations over 20k Big-regime segments moved"
    );
}

#[test]
fn record_codec_allocates_at_most_once_per_line() {
    let rec = RunRecord {
        class: Classification::ExceptionS2,
        feasible: true,
        met: true,
        time: Some(13.062_5),
        segments: 4,
        min_dist: 0.046_875,
        radius: 0.375,
    };
    let (n, line) = counted(|| wire::encode_record(1_023, &rec));
    assert_eq!(n, 1, "encode_record must allocate only its output");

    let (n, decoded) = counted(|| wire::decode_record(&line));
    assert_eq!(decoded, Ok((1_023, rec.clone())));
    assert!(n <= 1, "decode_record made {n} allocations");

    let (n, decoded) = counted(|| wire::decode_line(&line));
    assert_eq!(
        decoded,
        Ok(Line::Record {
            index: 1_023,
            record: rec
        })
    );
    assert!(n <= 1, "decode_line made {n} allocations");

    // A unit's closing line carries only its identity.
    let done = UnitDone {
        task_id: 7,
        start: 896,
    };
    let line = wire::encode_unit_done(&done);
    let (n, decoded) = counted(|| wire::decode_line(&line));
    assert_eq!(decoded, Ok(Line::UnitDone(done)));
    assert!(
        n <= 1,
        "decode_line of a unit_done line made {n} allocations"
    );

    // A full unit of the benchmark's resweep_pool spec, replayed from
    // the cache.
    let spec = CampaignSpec::new(
        SolverSpec::Dedicated,
        vec![
            TargetClass::Type1,
            TargetClass::Type2,
            TargetClass::S1,
            TargetClass::S2,
        ],
        2_000,
    );
    let range = 0..128;
    let records = spec.run_range(1, range.clone(), 1);
    let acc = StatsAccumulator::of(records.iter().map(|(_, rec)| rec));
    let dir = std::env::temp_dir().join(format!("rv-alloc-free-{}", std::process::id()));
    let cache = ResultCache::open(&dir).expect("cache dir");
    cache
        .store(&spec, 1, &range, &records, &acc)
        .expect("store a full unit");
    let (n, hit) = counted(|| cache.load(&spec, 1, &range));
    let _ = std::fs::remove_dir_all(&dir);
    let hit = hit.expect("valid entry").expect("stored entry");
    assert_eq!(hit.records, records);
    println!("loading a 128-record entry made {n} allocations");
    assert!(
        n <= 256,
        "loading a 128-record entry made {n} allocations (cap 256)"
    );
}
