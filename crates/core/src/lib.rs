//! # rv-core — `AlmostUniversalRV` and the rendezvous API
//!
//! The paper's primary contribution: Algorithm 1 (`AlmostUniversalRV`)
//! built from `PlanarCowWalk`/`LinearCowWalk` (Algorithms 2–3, re-exported
//! from `rv-baselines`) and the literature procedures `CGKK` and
//! `Latecomers`, plus the top-level API.
//!
//! ```
//! use rv_core::{classify, feasible, solve, Budget, Classification, Instance};
//! use rv_numeric::ratio;
//!
//! // A type-3 instance: agent B's clock ticks twice as slowly.
//! let inst = Instance::builder()
//!     .position(ratio(3, 1), ratio(0, 1))
//!     .tau(ratio(2, 1))
//!     .build()
//!     .unwrap();
//! assert_eq!(classify(&inst), Classification::Type3);
//! assert!(feasible(&inst));
//!
//! // Both agents run the same deterministic algorithm; the clock-rate
//! // difference breaks the symmetry and they meet.
//! let report = solve(&inst, &Budget::default().segments(300_000));
//! assert!(report.met());
//! ```
//!
//! The worst-case phase indices from the correctness proofs are exposed in
//! [`analysis`]:
//!
//! ```
//! use rv_core::analysis::phase_bound;
//! use rv_core::Instance;
//! use rv_numeric::ratio;
//!
//! let inst = Instance::builder()
//!     .position(ratio(3, 1), ratio(0, 1))
//!     .tau(ratio(2, 1))
//!     .build()
//!     .unwrap();
//! let bound = phase_bound(&inst).unwrap();
//! assert!(bound >= 1); // Lemma 3.4's explicit formula
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod api;
mod aur;
pub mod batch;
pub mod cache;
pub mod exec;
pub mod json;
pub mod parallel;
pub mod shard;
pub mod solver;
pub mod stream;
pub mod wire;

pub use api::{
    recommend, solve, solve_dedicated, solve_pair, Budget, DedicatedChoice, Recommendation,
};
pub use aur::{
    almost_universal_rv, aur_phase, block1, block2, block3, block4, compiled_aur, phase_duration,
    MAX_PHASE,
};
pub use batch::{Campaign, CampaignReport, CampaignStats, ClassStats, RunRecord, StatsAccumulator};
pub use cache::{CacheError, CacheKey, CacheStats, CachedShard, ResultCache};
pub use exec::{
    ExecError, Executor, LocalExecutor, PoolExecutor, UtilizationReport, WorkerCommand,
    WorkerUtilization,
};
pub use parallel::par_map;
pub use shard::{
    CampaignRequest, CampaignSpec, ShardError, SolverSpec, TransportSpec, UnitDone, UnitTask,
    UnitTelemetry, UnknownSolver, UnknownTransport,
};
pub use solver::{Aur, Dedicated, FixedPair, Solver, Visibility};
pub use stream::{ChannelSink, RecordSink, VecSink};
pub use wire::WireError;

// The theorem-level predicates and the search walks are part of the
// paper-facing API surface.
pub use rv_baselines::{linear_cow_walk, planar_cow_walk};
pub use rv_model::{
    aur_guaranteed, classify, classify_with_eps, feasible, Classification, Instance,
};
pub use rv_sim::{Outcome, SimReport};
