//! B6 — ablations of two design choices:
//! exact rational scheduling vs f64 scheduling, and lazy vs materialized
//! program streams.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rv_core::aur_phase;
use rv_numeric::Ratio;
use rv_trajectory::Instr;

/// Exact vs f64 time accumulation over a schedule containing a giant
/// wait. The f64 variant is faster but *wrong*: every post-wait duration
/// falls below the ULP of the accumulated clock (demonstrated in
/// `crates/sim/tests/f64_scheduler.rs`); this bench quantifies the price
/// paid for correctness.
fn bench_exact_vs_f64_clock(c: &mut Criterion) {
    // Phase-2-like schedule: unit-scale durations around a 2^60 wait.
    let mut durations: Vec<Ratio> = (1..=2000).map(|k| Ratio::frac(k % 9 + 1, 16)).collect();
    durations.insert(1000, Ratio::pow2(60));
    let durations_f64: Vec<f64> = durations.iter().map(|d| d.to_f64()).collect();

    let mut g = c.benchmark_group("clock");
    g.bench_function("exact_ratio", |b| {
        b.iter(|| {
            let mut acc = Ratio::zero();
            for d in &durations {
                acc += black_box(d);
            }
            acc
        })
    });
    g.bench_function("f64_lossy", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for d in &durations_f64 {
                acc += black_box(*d);
            }
            acc
        })
    });
    g.finish();
}

/// Lazy phase streams vs full materialization: pulling the first 1000
/// instructions of phase 3 lazily vs collecting the whole phase (which is
/// what a non-lazy design would have to do before simulating).
fn bench_lazy_vs_materialized(c: &mut Criterion) {
    let mut g = c.benchmark_group("phase_stream");
    g.sample_size(10);
    g.bench_function("lazy_first_1000_of_phase3", |b| {
        b.iter(|| {
            aur_phase(3)
                .take(1000)
                .filter(|i| matches!(i, Instr::Go { .. }))
                .count()
        })
    });
    g.bench_function("materialize_phase2_fully", |b| {
        b.iter(|| aur_phase(2).collect::<Vec<_>>().len())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_exact_vs_f64_clock,
    bench_lazy_vs_materialized
);
criterion_main!(benches);
