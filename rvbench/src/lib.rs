//! Support code for the `rvbench` benchmark binary: its statistics, span
//! store, per-op checks, and machine provenance. The workload drivers
//! live in the binary (`src/main.rs` and its modules).

pub mod check;
pub mod stats;
pub mod sys;
pub mod trace;
