//! Proof that the solver's per-step loop is allocation-free.
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
//! the misses of B's direction table run the general `φ − θ` transform
//! under the counter, not only agent A's identity fast path.
//!
//! The compiled AUR cache is warmed to the deeper run's depth first —
//! cache *extension* allocates by design (that is the once-per-process
//! compile); replay must not.
//!
//! This file must stay a single `#[test]` so no parallel test thread
//! muddies the counter.

use rv_core::{Aur, Budget, Solver};
use rv_geometry::{Angle, Chirality};
use rv_model::Instance;
use rv_numeric::ratio;
use rv_sim::{BudgetReason, Outcome};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation unchanged to the system allocator;
// the counter is a relaxed atomic with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_event_loop_allocates_nothing() {
    // Far-apart agents: AUR cannot meet this early, so both runs exhaust
    // exactly their segment budget and the step counts differ by 10k.
    let inst = Instance::builder()
        .position(ratio(5_000, 1), ratio(1, 2))
        .r(ratio(1, 2))
        .tau(ratio(2, 1))
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
        "10k extra steps changed the allocation count: the per-step loop \
         is no longer allocation-free"
    );
}
