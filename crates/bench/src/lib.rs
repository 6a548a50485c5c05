//! # rv-bench — Criterion benchmarks
//!
//! Six bench targets:
//!
//! * `numeric` — exact arithmetic substrate (small-int fast path vs big).
//! * `geometry` — the per-interval closest-approach kernel.
//! * `rendezvous` — end-to-end AUR per instance type.
//! * `baselines` — specialist (CGKK/Latecomers) vs generalist (AUR).
//! * `ablation` — exact vs f64 scheduling; lazy vs materialized streams.
//! * `campaign` — the `hotpath/` per-layer rows, `par_map` and the shard
//!   gather codec; writes `target/BENCH_campaign.json`, which the
//!   `bench-guard` binary compares with `BENCH_hotpath_baseline.json`.
//!
//! Run with `cargo bench --workspace`. End-to-end speed is measured by
//! `rvbench` (`BENCHMARK.json`), not by these suites.

#![forbid(unsafe_code)]
