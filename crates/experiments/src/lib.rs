//! # rv-experiments — the evaluation harness
//!
//! Regenerates every table and figure of the reproduction (README, "The
//! experiments binary"): seeded workloads per instance family, batch
//! execution through [`rv_core::batch::Campaign`], Markdown/CSV/JSON
//! rendering and self-contained SVG charts/canvases, plus one module per
//! experiment.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p rv-experiments --bin experiments -- all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp;
pub mod report;
pub mod runner;
pub mod svg;
pub mod table;
pub mod util;
pub mod workloads;

pub use report::{Ctx, ExperimentOutput};
